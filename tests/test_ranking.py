"""Ranking formulas, model-spec parsing and ranked retrieval."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.special

from adrank.corpus import QueryRecord, build_index, tokenize
from adrank.errors import ConfigError, UsageError
from adrank.numerics import log_gamma
from adrank.ranking import (
    RANDOMNESS_MODELS,
    ParamScheme,
    RankingConfig,
    format_trec_run,
    inf1,
    inf2_risk,
    model_parameter,
    normalized_tf,
    parse_model_spec,
    rank,
)
from test_reference_oracles import tokenize as regex_tokenize


def _cfg(randomness, **kw):
    kw.setdefault("first_norm", "none")
    kw.setdefault("second_norm", "none")
    kw.setdefault("scheme", ParamScheme("fixed", 1.0))
    return RankingConfig(randomness, **kw)


class TestNormalizedTf:
    def test_logarithmic_identity_at_average(self):
        cfg = RankingConfig("P", second_norm="logarithmic", c=1.0)
        assert normalized_tf(2, 100, 100.0, cfg) == pytest.approx(2.0)

    def test_uniform_identity_at_average(self):
        cfg = RankingConfig("P", second_norm="uniform")
        assert normalized_tf(3, 80, 80.0, cfg) == pytest.approx(3.0)

    def test_logarithmic_hand(self):
        cfg = RankingConfig("P", second_norm="logarithmic", c=2.0)
        assert normalized_tf(3, 50, 100.0, cfg) == pytest.approx(6.965784, abs=1e-6)

    def test_shorter_docs_boosted(self):
        cfg = RankingConfig("P", second_norm="logarithmic", c=1.0)
        assert normalized_tf(2, 50, 100.0, cfg) > normalized_tf(2, 200, 100.0, cfg)


class TestModelParameter:
    def test_all_schemes(self):
        assert model_parameter(ParamScheme("tdc"), 3, 1, 2) == 0.5
        assert model_parameter(ParamScheme("tdc2"), 3, 1, 2) == 0.25
        assert model_parameter(ParamScheme("ttc"), 3, 1, 2) == 1.5
        assert model_parameter(ParamScheme("ttc2"), 3, 1, 2) == 2.25
        assert model_parameter(ParamScheme("ttc_plus1"), 3, 1, 2) == 2.5
        assert model_parameter(ParamScheme("tdc_plus1"), 3, 1, 2) == 1.5
        assert model_parameter(ParamScheme("fixed", 7.0), 3, 1, 2) == 7.0

    def test_tdc_in_unit_interval(self):
        for n_t, N in ((1, 10), (10, 10), (3, 7)):
            assert 0.0 < model_parameter(ParamScheme("tdc"), 0, n_t, N) <= 1.0


class TestInf1:
    def test_poisson_row_hand(self):
        val = inf1(_cfg("P"), 1.0, 1.0)
        expect = (1.0 / 12.0) * math.log2(math.e) + 0.5 * math.log2(2.0 * math.pi)
        assert val == pytest.approx(expect, abs=1e-9)
        assert val == pytest.approx(1.445973, abs=1e-6)

    def test_geometric_row_hand(self):
        assert inf1(_cfg("G"), 1.0, 1.0) == pytest.approx(2.0)

    def test_idf_rows(self):
        assert inf1(_cfg("In"), 2.0, 0.0, n_t=5, N=99) == pytest.approx(
            2.0 * math.log2(100.0 / 5.5)
        )
        assert inf1(_cfg("IF"), 2.0, 0.0, f_tc=9, N=99) == pytest.approx(
            2.0 * math.log2(100.0 / 9.5) + math.log2(9.0 / 99.0)
        )
        expected_docs = 99 * (1.0 - (98.0 / 99.0) ** 9)
        assert inf1(_cfg("Ine"), 2.0, 0.0, f_tc=9, N=99) == pytest.approx(
            2.0 * math.log2(100.0 / (expected_docs + 0.5))
        )

    def test_yule_mass_against_scipy(self):
        p, f_hat = 1.627, 1.747923
        val = inf1(_cfg("YuleADR"), f_hat, p)
        mass = p * math.exp(
            scipy.special.gammaln(f_hat)
            + scipy.special.gammaln(p + 1.0)
            - scipy.special.gammaln(f_hat + p + 1.0)
        )
        assert val == pytest.approx(-math.log2(mass), abs=1e-9)

    def test_powerlaw_mass(self):
        cfg = _cfg("PowerLawADR", scheme=ParamScheme("fixed", 2.5))
        val = inf1(cfg, 3.0, 2.5)
        assert val == pytest.approx(-math.log2(1.5 * 3.0**-2.5), abs=1e-12)

    def test_powerlaw_clamps_below_cutoff(self):
        cfg = _cfg("PowerLawADR", scheme=ParamScheme("fixed", 2.5))
        assert inf1(cfg, 0.2, 2.5) == inf1(cfg, 1.0, 2.5)

    def test_ll_closed_form(self):
        for r in (0.01, 0.3, 2.0):
            for f in (0.5, 1.0, 7.0):
                assert inf1(_cfg("LL"), f, r) == pytest.approx(
                    math.log2((r + f) / r)
                )

    def test_ll_spl_zero_at_zero(self):
        assert inf1(_cfg("LL"), 0.0, 0.5) == pytest.approx(0.0)
        assert inf1(_cfg("SPL"), 0.0, 0.5) == pytest.approx(0.0)

    def test_spl_increasing(self):
        cfg = _cfg("SPL")
        vals = [inf1(cfg, f, 0.3) for f in np.linspace(0.0, 60.0, 100)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_spl_clamps_parameter(self):
        cfg = _cfg("SPL")
        assert math.isfinite(inf1(cfg, 2.0, 1.0))
        assert math.isfinite(inf1(cfg, 2.0, 1.7))

    def test_domain_errors(self):
        with pytest.raises(ConfigError):
            inf1(_cfg("P"), 0.0, 1.0)
        with pytest.raises(ConfigError):
            inf1(_cfg("YuleADR"), 1.0, 0.0)
        with pytest.raises(ConfigError):
            inf1(_cfg("PowerLawADR", scheme=ParamScheme("fixed", 2.0)), 1.0, 0.9)
        # a NaN parameter fails the domain check rather than scoring NaN
        power_law = _cfg("PowerLawADR", scheme=ParamScheme("fixed", 2.0))
        for cfg, floor in [(_cfg(r), 0) for r in ("P", "G", "YuleADR", "LL")] + [(power_law, 1)]:
            with pytest.raises(ConfigError, match=f"needs a parameter above {floor}, got nan"):
                inf1(cfg, np.array([1.0, 2.0]), math.nan)


class TestInf2:
    def test_laplace(self):
        cfg = RankingConfig("P", first_norm="laplace")
        assert inf2_risk(cfg, 3.0) == 0.25
        assert inf2_risk(cfg, 0.0) == 1.0

    def test_bernoulli_hand(self):
        cfg = RankingConfig("P", first_norm="bernoulli")
        assert inf2_risk(cfg, 1.0, f_tc=9, n_t=5) == 0.0

    def test_bernoulli_clamped(self):
        cfg = RankingConfig("P", first_norm="bernoulli")
        assert inf2_risk(cfg, 0.0, f_tc=100, n_t=1) == 0.0
        assert 0.0 <= inf2_risk(cfg, 50.0, f_tc=2, n_t=2) <= 1.0

    def test_none(self):
        assert inf2_risk(RankingConfig("P", first_norm="none"), 9.0) == 1.0


class TestConfigInvariants:
    def test_ll_spl_force_no_first_norm(self):
        with pytest.raises(ConfigError):
            RankingConfig("LL", first_norm="laplace")
        with pytest.raises(ConfigError):
            RankingConfig("SPL", first_norm="bernoulli")

    def test_powerlaw_scheme_restricted(self):
        with pytest.raises(ConfigError):
            RankingConfig("PowerLawADR", scheme=ParamScheme("tdc"))
        RankingConfig("PowerLawADR", scheme=ParamScheme("tdc_plus1"))

    def test_unknown_names(self):
        with pytest.raises(ConfigError):
            RankingConfig("BM25")
        with pytest.raises(ConfigError):
            ParamScheme("nope")


def _scores(query, index, config):
    """Every document's score, by id, from a ranking of the whole index."""
    ranked = rank(query, index, config, k=index.stats.N)
    return dict(zip(ranked.doc_ids, ranked.scores.tolist()))


class TestScoreDocument:
    def _two_doc_index(self):
        return build_index([("d1", "a b a"), ("d2", "b c")])

    def test_absent_term_contributes_zero(self):
        # a divergence model retrieves only documents holding a query term
        idx = self._two_doc_index()
        cfg = parse_model_spec("YSL2-Tdc")
        q = QueryRecord("q", ["c"], "c")
        assert list(_scores(q, idx, cfg)) == ["d2"]

    def test_hand_case_against_independent_evaluation(self):
        # two docs, query 'a', Yule randomness with a fixed parameter,
        # Laplace resizing and logarithmic normalisation at c = 1
        idx = self._two_doc_index()
        p = 1.627
        cfg = RankingConfig(
            "YuleADR",
            first_norm="laplace",
            second_norm="logarithmic",
            scheme=ParamScheme("fixed", p),
            c=1.0,
        )
        q = QueryRecord("q", ["a"], "a")
        f_hat = 2.0 * math.log2(1.0 + 2.5 / 3.0)
        mass = p * math.exp(
            scipy.special.gammaln(f_hat)
            + scipy.special.gammaln(p + 1.0)
            - scipy.special.gammaln(f_hat + p + 1.0)
        )
        expected = -math.log2(mass) * (1.0 / (f_hat + 1.0))
        assert _scores(q, idx, cfg)["d1"] == pytest.approx(expected, rel=1e-10)
        assert f_hat == pytest.approx(1.748938, abs=1e-6)

    def test_query_term_multiplicity_scales_contribution(self):
        idx = self._two_doc_index()
        cfg = parse_model_spec("YSL2-Tdc")
        one = _scores(QueryRecord("q", ["a"], "a"), idx, cfg)["d1"]
        two = _scores(QueryRecord("q", ["a", "a"], "a a"), idx, cfg)["d1"]
        assert two == pytest.approx(2.0 * one)

    def test_higher_tf_wins_when_term_is_common(self):
        # the parameter sits near 1 when the term occurs in every document,
        # where the Laplace-resized Yule weight still grows below f_hat ~ 3
        docs = [("d1", "t x y z w u"), ("d2", "t t t t t x")]
        idx = build_index(docs)
        cfg = RankingConfig(
            "YuleADR",
            first_norm="laplace",
            second_norm="none",
            scheme=ParamScheme("tdc"),
        )
        s = _scores(QueryRecord("q", ["t"], "t"), idx, cfg)
        assert s["d2"] > s["d1"]

    def test_laplace_dampening_peaks_then_decays(self):
        # with a small parameter the Laplace-resized Yule weight is not
        # monotone in a document's term frequency: it rises over small
        # frequencies and then decays like log(f)/f
        cfg = RankingConfig(
            "YuleADR", first_norm="laplace", second_norm="none",
            scheme=ParamScheme("fixed", 1.0),
        )
        vals = []
        for f in range(1, 101):
            i1 = inf1(cfg, float(f), 1.0)
            vals.append(i1 * inf2_risk(cfg, float(f)))
        peak = int(np.argmax(vals))
        assert 0 < peak < 20
        assert vals[-1] < vals[peak]
        # and with a small parameter the decay starts immediately
        small = RankingConfig(
            "YuleADR", first_norm="laplace", second_norm="none",
            scheme=ParamScheme("fixed", 0.01),
        )
        s = [inf1(small, float(f), 0.01) * inf2_risk(small, float(f)) for f in (1, 2, 5)]
        assert s[0] > s[1] > s[2]

    def test_lmdir_scores_all_documents(self):
        idx = self._two_doc_index()
        cfg = parse_model_spec("LMDir", mu=100.0)
        s = _scores(QueryRecord("q", ["a"], "a"), idx, cfg)
        # d2 lacks the term but still receives smoothed mass
        p_c = 2.0 / 5.0
        assert s["d1"] == pytest.approx(math.log((2.0 + 100.0 * p_c) / (3.0 + 100.0)))
        assert s["d2"] == pytest.approx(math.log((0.0 + 100.0 * p_c) / (2.0 + 100.0)))

    def test_lmdir_skips_unseen_terms(self):
        idx = self._two_doc_index()
        cfg = parse_model_spec("LMDir")
        q = QueryRecord("q", ["zebra"], "zebra")
        assert _scores(q, idx, cfg) == {"d1": 0.0, "d2": 0.0}


class TestRank:
    def _index(self):
        docs = [
            ("apple", "fruit tree orchard fruit"),
            ("banana", "fruit yellow"),
            ("carrot", "vegetable root"),
        ]
        return build_index(docs)

    def test_only_containing_doc_ranks_first(self):
        idx = self._index()
        q = QueryRecord("q", ["orchard"], "orchard")
        for spec in ("PL2-Tdc", "GL2-Ttc", "InL2-Tdc", "YSL2-Tdc2", "LLL2-Ttc", "SPLL2-Tdc"):
            out = rank(q, idx, parse_model_spec(spec), k=10)
            assert out.doc_ids[0] == "apple", spec

    def test_k_truncates(self):
        idx = self._index()
        q = QueryRecord("q", ["fruit"], "fruit")
        out = rank(q, idx, parse_model_spec("InL2-Tdc"), k=1)
        assert len(out.doc_ids) == 1

    def test_k_below_one_rejected(self):
        q = QueryRecord("q", ["fruit"], "fruit")
        with pytest.raises(UsageError, match="k must be >= 1"):
            rank(q, self._index(), parse_model_spec("InL2-Tdc"), k=0)

    def test_shorter_list_when_few_matches(self):
        idx = self._index()
        q = QueryRecord("q", ["yellow"], "yellow")
        out = rank(q, idx, parse_model_spec("PL2-Tdc"), k=50)
        assert len(out.doc_ids) == 1

    def test_tie_broken_by_doc_id(self):
        docs = [("b", "t x"), ("a", "t x"), ("c", "zz")]
        idx = build_index(docs)
        out = rank(QueryRecord("q", ["t"], "t"), idx, parse_model_spec("InL2-Tdc"), k=5)
        assert out.doc_ids == ["a", "b"]

    def test_determinism(self):
        idx = self._index()
        q = QueryRecord("q", ["fruit", "tree"], "fruit tree")
        cfg = parse_model_spec("YSL2-Tdc2")
        r1 = rank(q, idx, cfg)
        r2 = rank(q, idx, cfg)
        assert r1.doc_ids == r2.doc_ids
        assert r1.scores.tolist() == r2.scores.tolist()

    def test_skipped_terms_flagged(self):
        idx = self._index()
        out = rank(QueryRecord("q", ["fruit", "zebra"], ""), idx, parse_model_spec("PL2-Tdc"))
        assert out.skipped_terms == ["zebra"]

    def test_empty_query_rejected(self):
        with pytest.raises(UsageError):
            QueryRecord("q", tokenize("!!"), "!!")


class TestHeuristicConstraints:
    """Finite-difference sign checks of the four retrieval constraints for
    the LL and SPL weights as functions of (f_td, doc length, parameter)."""

    @staticmethod
    def _h(model, f_td, dlen, z, c=2.0, avg=500.0):
        cfg = RankingConfig(model, first_norm="none", second_norm="logarithmic",
                            scheme=ParamScheme("fixed", z), c=c)
        f_hat = normalized_tf(f_td, dlen, avg, cfg)
        return inf1(cfg, f_hat, z)

    @pytest.mark.parametrize("model", ["LL", "SPL"])
    def test_signs_on_small_grid(self, model):
        fs = np.linspace(0.5, 40.0, 6)
        ds = np.linspace(20, 900, 5).astype(int)
        zs = np.array([1e-3, 0.05, 0.5])
        for f in fs:
            for d in ds:
                for z in zs:
                    h = self._h(model, f, int(d), z)
                    up = self._h(model, f * 1.01, int(d), z)
                    assert up > h  # C1: increasing in term frequency
                    dd = self._h(model, f, int(d * 1.1) + 1, z)
                    assert dd < h  # C3: decreasing in document length
                    zz = self._h(model, f, int(d), z * 1.05)
                    assert zz < h  # C4: decreasing in the parameter
                    # C2: concavity in term frequency
                    eps = 0.01 * f
                    second = (
                        self._h(model, f + eps, int(d), z)
                        - 2.0 * h
                        + self._h(model, f - eps, int(d), z)
                    )
                    assert second < 0.0


class TestYuleAsymptotics:
    def test_loglog_slope_matches_exponent(self):
        from adrank.distributions import ModelId, log_density

        p = 1.5
        xs = np.unique(np.round(np.logspace(3, 4, 40))).astype(np.float64)
        ys = log_density(ModelId.YULE_SIMON, {"p": p}, xs)
        slope = np.polyfit(np.log(xs), ys, 1)[0]
        assert slope == pytest.approx(-(p + 1.0), abs=0.05)


class TestModelSpecParsing:
    def test_named_specs(self):
        cfg = parse_model_spec("YSL2-Tdc2")
        assert (cfg.randomness, cfg.first_norm, cfg.second_norm, cfg.scheme.kind) == (
            "YuleADR", "laplace", "logarithmic", "tdc2",
        )
        cfg = parse_model_spec("PLL2-Tdc+1")
        assert (cfg.randomness, cfg.scheme.kind) == ("PowerLawADR", "tdc_plus1")
        cfg = parse_model_spec("PB1-Ttc")
        assert (cfg.randomness, cfg.first_norm, cfg.second_norm) == (
            "P", "bernoulli", "uniform",
        )
        cfg = parse_model_spec("IneL2-Tdc")
        assert cfg.randomness == "Ine"
        cfg = parse_model_spec("G-fixed:0.4")
        assert (cfg.randomness, cfg.first_norm, cfg.scheme.value) == ("G", "none", 0.4)

    def test_lmdir(self):
        cfg = parse_model_spec("LMDir", mu=2000.0)
        assert cfg.randomness == "LMDir"
        assert cfg.mu == 2000.0

    def test_ll_spl_conventional_names(self):
        assert parse_model_spec("LLL2-Ttc").first_norm == "none"
        assert parse_model_spec("SPLL2-Tdc").first_norm == "none"

    def test_unparseable(self):
        with pytest.raises(ConfigError):
            parse_model_spec("XXL2-Tdc")
        with pytest.raises(ConfigError):
            parse_model_spec("PL2")
        with pytest.raises(ConfigError):
            parse_model_spec("PL2-Txx")


class TestRunFormat:
    def test_six_columns_rank_from_one(self):
        from adrank.ranking import RankedList

        rl = RankedList("q7", ["docB", "docA"], np.array([1.25, 0.5]))
        text = format_trec_run([rl], tag="tagx")
        lines = text.strip().splitlines()
        assert lines[0] == "q7 Q0 docB 1 1.250000 tagx"
        assert lines[1] == "q7 Q0 docA 2 0.500000 tagx"


# ---------------------------------------------------------------------------
# reference: the scalar, document-at-a-time scorer that rank() replaced,
# kept with its math-module formulas as the oracle for the array path. It
# reads a dict index built here from the raw documents by the regex
# tokenizer, so it shares no code with the CSR index it checks.
# ---------------------------------------------------------------------------

_LOG2E = 1.0 / math.log(2.0)


def _ref_normalized_tf(f_td, doc_len, avg_l, config):
    if config.second_norm == "none":
        return float(f_td)
    if config.second_norm == "uniform":
        return f_td * avg_l / doc_len
    return f_td * math.log2(1.0 + config.c * avg_l / doc_len)


def _ref_inf1(config, f_hat, param, f_tc, n_t, N):
    r = config.randomness
    if r == "P":
        lam = param
        return (
            f_hat * math.log2(f_hat / lam)
            + (lam + 1.0 / (12.0 * f_hat) - f_hat) * _LOG2E
            + 0.5 * math.log2(2.0 * math.pi * f_hat)
        )
    if r == "G":
        lam = param
        return -math.log2(1.0 / (1.0 + lam)) - f_hat * math.log2(lam / (1.0 + lam))
    if r == "In":
        return f_hat * math.log2((N + 1.0) / (n_t + 0.5))
    if r == "IF":
        return f_hat * math.log2((N + 1.0) / (f_tc + 0.5)) + math.log2(f_tc / N)
    if r == "Ine":
        expected = N * (1.0 - ((N - 1.0) / N) ** f_tc)
        return f_hat * math.log2((N + 1.0) / (expected + 0.5))
    if r == "YuleADR":
        p = param
        log_mass = (
            math.log(p) + log_gamma(f_hat) + log_gamma(p + 1.0) - log_gamma(f_hat + p + 1.0)
        )
        return -log_mass * _LOG2E
    if r == "PowerLawADR":
        alpha = param
        g = max(f_hat, config.pl_xmin)
        log_mass = (
            math.log(alpha - 1.0)
            + (alpha - 1.0) * math.log(config.pl_xmin)
            - alpha * math.log(g)
        )
        return -log_mass * _LOG2E
    if r == "LL":
        return -math.log2(param / (param + f_hat))
    lam = min(max(param, 1e-6), 1.0 - 1e-6)  # SPL
    num = lam ** (f_hat / (f_hat + 1.0)) - lam
    return -math.log2(num / (1.0 - lam)) if num > 0.0 else 0.0


def _ref_inf2_risk(config, f_hat, f_tc, n_t):
    if config.first_norm == "none":
        return 1.0
    if config.first_norm == "laplace":
        return 1.0 / (f_hat + 1.0)
    return min(max(1.0 - (f_tc + 1.0) / (n_t * (f_hat + 1.0)), 0.0), 1.0)


@dataclass
class _RefStats:
    N: int
    total_terms: int

    @property
    def avg_l(self):
        return self.total_terms / self.N


@dataclass
class _RefTermStats:
    f_tc: int
    n_t: int


class _RefIndex:
    """term -> {doc_id: tf} and doc_id -> length, counted token by token."""

    def __init__(self, documents):
        self.doc_lengths = {}
        self._postings = {}
        for doc_id, text in documents:
            tokens = regex_tokenize(text)
            self.doc_lengths[doc_id] = len(tokens)
            for t in tokens:
                tfs = self._postings.setdefault(t, {})
                tfs[doc_id] = tfs.get(doc_id, 0) + 1
        self.stats = _RefStats(len(self.doc_lengths), sum(self.doc_lengths.values()))

    def has_term(self, term):
        return term in self._postings

    def term_stats(self, term):
        tfs = self._postings[term]
        return _RefTermStats(sum(tfs.values()), len(tfs))

    def postings(self, term):
        return self._postings[term]

    def tf(self, term, doc_id):
        return self._postings.get(term, {}).get(doc_id, 0)


def _ref_term_score(config, f_td, doc_len, stats, ts):
    f_hat = _ref_normalized_tf(f_td, doc_len, stats.avg_l, config)
    param = model_parameter(config.scheme, ts.f_tc, ts.n_t, stats.N)
    i1 = _ref_inf1(config, f_hat, param, ts.f_tc, ts.n_t, stats.N)
    return i1 * _ref_inf2_risk(config, f_hat, ts.f_tc, ts.n_t)


def _ref_score_document(query, doc_id, index, doc_lengths, config):
    counts = {}
    for t in query.terms:
        counts[t] = counts.get(t, 0) + 1
    stats = index.stats
    doc_len = doc_lengths[doc_id]
    score = 0.0
    if config.randomness == "LMDir":
        for t, f_tq in counts.items():
            if not index.has_term(t):
                continue
            ts = index.term_stats(t)
            p_c = ts.f_tc / stats.total_terms
            f_td = index.tf(t, doc_id)
            score += f_tq * math.log((f_td + config.mu * p_c) / (doc_len + config.mu))
        return score
    for t, f_tq in counts.items():
        if not index.has_term(t):
            continue
        f_td = index.tf(t, doc_id)
        if f_td == 0:
            continue
        score += f_tq * _ref_term_score(config, f_td, doc_len, stats, index.term_stats(t))
    return score


def _ref_rank(query, index, config, k):
    doc_lengths = index.doc_lengths
    skipped = []
    for t in query.terms:
        if not index.has_term(t) and t not in skipped:
            skipped.append(t)
    if config.randomness == "LMDir":
        candidates = list(doc_lengths)
    else:
        cand = set()
        for t in query.terms:
            if index.has_term(t):
                cand.update(index.postings(t))
        candidates = list(cand)
    scored = [
        (d, _ref_score_document(query, d, index, doc_lengths, config)) for d in candidates
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return scored[:k], skipped


def _reference_configs():
    schemes = {
        "P": ("ttc", "tdc"),
        "G": ("ttc2",),
        "In": ("tdc",),
        "IF": ("ttc",),
        "Ine": ("tdc",),
        "YuleADR": ("tdc2", "ttc"),
        "PowerLawADR": ("tdc_plus1", "ttc_plus1"),
        "LL": ("ttc",),
        "SPL": ("tdc", "fixed"),
    }
    configs = [RankingConfig("LMDir", first_norm="none", second_norm="none", mu=300.0)]
    for randomness in RANDOMNESS_MODELS:
        if randomness == "LMDir":
            continue
        firsts = ("none",) if randomness in ("LL", "SPL") else ("none", "laplace", "bernoulli")
        for kind in schemes[randomness]:
            scheme = ParamScheme(kind, 0.3 if kind == "fixed" else None)
            for first in firsts:
                for second in ("none", "uniform", "logarithmic"):
                    configs.append(
                        RankingConfig(randomness, first, second, scheme, c=1.5)
                    )
    return configs


def _config_id(cfg):
    return f"{cfg.randomness}-{cfg.first_norm}-{cfg.second_norm}-{cfg.scheme.kind}"


@pytest.fixture(scope="module")
def reference_corpora():
    from planted import build_planted_corpus

    documents, queries, _, _ = build_planted_corpus(seed=777)
    planted_queries = [QueryRecord(q, text.split(), text) for q, text in queries]
    planted_queries += [
        QueryRecord("rep", ["qterm0x0", "qterm0x1", "qterm0x0"], ""),
        QueryRecord("unseen", ["nosuchterm", "qterm1x2", "nosuchterm"], ""),
    ]
    gen = np.random.default_rng(2019)
    vocab = [f"z{i:03d}" for i in range(400)]
    probs = np.arange(1, 401, dtype=np.float64) ** -1.1
    probs /= probs.sum()
    zipf_docs = []
    for i in range(600):
        toks = gen.choice(vocab, size=int(gen.integers(1, 80)), p=probs)
        zipf_docs.append((f"doc{i:04d}", " ".join(toks)))
    zipf_queries = [
        QueryRecord(f"z{j}", gen.choice(vocab[5:200], size=3).tolist(), "")
        for j in range(4)
    ]
    zipf_queries += [
        QueryRecord("zrep", ["z010", "z150", "z010", "z010"], ""),
        QueryRecord("zunseen", ["z399", "zzzz"], ""),
        QueryRecord("zsingle", ["z120"], ""),
    ]
    return {
        "planted": (build_index(documents), _RefIndex(documents), planted_queries),
        "zipf": (build_index(zipf_docs), _RefIndex(zipf_docs), zipf_queries),
    }


# Specs whose array path differs from the math-module reference by an ulp
# on some postings of these corpora, with the numpy ufunc responsible: an
# AVX-512 numpy build evaluates float64 log2 and power with its own SIMD
# routines, which disagree with libm in the last bit on a small share of
# arguments. Each is held to 1e-12 relative with identical document order;
# every other spec must match bit for bit.
_ULP_SPECS = {
    "P-bernoulli-logarithmic-ttc": "np.log2",
    "P-none-uniform-tdc": "np.log2",
    "P-laplace-uniform-tdc": "np.log2",
    "P-bernoulli-uniform-tdc": "np.log2",
    "SPL-none-uniform-tdc": "np.power, np.log2",
    "SPL-none-logarithmic-tdc": "np.power, np.log2",
    "SPL-none-uniform-fixed": "np.power, np.log2",
    "SPL-none-logarithmic-fixed": "np.power, np.log2",
}


class TestRankMatchesReference:
    @pytest.mark.parametrize("config", _reference_configs(), ids=_config_id)
    def test_identical_ranked_lists(self, reference_corpora, config):
        for name, (index, ref_index, queries) in reference_corpora.items():
            for query in queries:
                for k in (1000, 10, 3):
                    expected, skipped = _ref_rank(query, ref_index, config, k)
                    got = rank(query, index, config, k=k)
                    assert got.skipped_terms == skipped
                    pairs = list(zip(got.doc_ids, got.scores.tolist()))
                    where = f"{name} {query.query_id} k={k}"
                    if _config_id(config) in _ULP_SPECS:
                        assert [d for d, _ in pairs] == [d for d, _ in expected], where
                        assert [s for _, s in pairs] == pytest.approx(
                            [s for _, s in expected], rel=1e-12
                        ), where
                    else:
                        assert pairs == expected, where

    def test_cut_falls_inside_a_tie(self, reference_corpora):
        # the planted relevant documents tie exactly, so k=10 cuts a tie
        _, ref_index, queries = reference_corpora["planted"]
        full, _ = _ref_rank(queries[0], ref_index, parse_model_spec("PL2-Tdc"), 1000)
        assert len(full) > 10 and full[9][1] == full[10][1]
