"""Term weights, classification rules and the two-component mixture."""

import math

import numpy as np
import pytest

from adrank.cli import main
from adrank.corpus import build_index, save_index
from adrank.errors import ConfigError, DomainError
from adrank.weighting import (
    _FEATURES,
    ClassifierRule,
    Condition,
    classify_terms,
    mixture2_pmf,
    parse_rule,
    rel_df,
    term_weights,
    z_measure,
)
from planted import build_planted_corpus


def _index_with(n_docs_with_term, total_docs, f_tc, term="t"):
    """Corpus where `term` occurs f_tc times spread over n docs."""
    docs = []
    per_doc = f_tc // n_docs_with_term
    extra = f_tc - per_doc * n_docs_with_term
    for i in range(total_docs):
        toks = [f"filler{i}"]
        if i < n_docs_with_term:
            toks += [term] * (per_doc + (1 if i < extra else 0))
        docs.append((f"d{i}", " ".join(toks)))
    return build_index(docs)


class TestTermWeights:
    def test_hand_values(self):
        idx = _index_with(5, 10, 10)
        w = term_weights("t", idx)
        assert w.idf == pytest.approx(0.693147, abs=1e-6)
        assert w.ridf == pytest.approx(0.234472, abs=1e-6)
        assert w.burstiness == pytest.approx(2.0)
        assert w.x_i == 5.0
        assert w.gain == pytest.approx(0.096574, abs=1e-6)

    def test_everywhere_term_has_zero_idf_and_gain(self):
        idx = _index_with(10, 10, 10)
        w = term_weights("t", idx)
        assert w.idf == 0.0
        assert w.gain == pytest.approx(0.0, abs=1e-12)

    def test_ridf_tends_to_idf_for_huge_f(self):
        idx = _index_with(5, 10, 500)
        w = term_weights("t", idx)
        assert w.ridf == pytest.approx(w.idf, abs=1e-6)

    def test_gain_positive_between_zero_and_one(self):
        for n_t, N in ((1, 10), (3, 10), (9, 10)):
            idx = _index_with(n_t, N, n_t)
            assert term_weights("t", idx).gain > 0.0

    def test_ridf_bounds_when_once_per_doc(self):
        # single-occurrence-per-doc terms: ridf = ln((1-e^-u)/u) with
        # u = n_t/N, which lies in [-u, 0); it approaches 0 only as u -> 0
        for n_t, N in ((1, 50), (5, 50), (25, 50), (50, 50)):
            idx = _index_with(n_t, N, n_t)
            w = term_weights("t", idx)
            u = n_t / N
            assert -u - 1e-12 <= w.ridf < 0.0

    def test_burstiness_at_least_one(self):
        idx = build_index([("d1", "a a b"), ("d2", "b")])
        for t in idx.vocabulary:
            assert term_weights(t, idx).burstiness >= 1.0


class TestZMeasure:
    def test_hand(self):
        assert z_measure(0.8, 0.4) == pytest.approx(0.365148, abs=1e-6)

    def test_zero_at_equal_rates(self):
        assert z_measure(0.7, 0.7) == 0.0

    def test_antisymmetry(self):
        assert z_measure(0.8, 0.4) == pytest.approx(-z_measure(0.4, 0.8))

    def test_domain(self):
        with pytest.raises(DomainError):
            z_measure(0.0, 1.0)


class TestRelDf:
    def test_all_user_docs(self):
        assert rel_df(4, 4, 3, 10) == pytest.approx(1.0 - 0.3)

    def test_zero_case(self):
        assert rel_df(0, 4, 0, 10) == 0.0

    def test_hand(self):
        assert rel_df(3, 4, 1, 10) == pytest.approx(0.65)

    def test_domain(self):
        with pytest.raises(DomainError):
            rel_df(1, 0, 1, 10)
        with pytest.raises(DomainError):
            rel_df(5, 4, 1, 10)


class TestClassify:
    def test_threshold_rule_selects_non_informative(self):
        idx = build_index([("d1", "a a a b"), ("d2", "b c"), ("d3", "b")])
        rule = parse_rule("ridf < 0")
        informative, non_informative = classify_terms(idx, rule)
        expected = {t for t in idx.vocabulary if term_weights(t, idx).ridf < 0}
        assert non_informative == expected
        assert informative == set(idx.vocabulary) - expected

    def test_all_pass_rule(self):
        idx = build_index([("d1", "a b"), ("d2", "c")])
        informative, non_informative = classify_terms(idx, ClassifierRule())
        assert non_informative == set(idx.vocabulary)
        assert informative == set()

    def test_partition(self):
        idx = build_index([("d1", "a a b"), ("d2", "b c d"), ("d3", "d d d")])
        informative, non_informative = classify_terms(idx, parse_rule("burstiness < 2"))
        assert informative | non_informative == set(idx.vocabulary)
        assert informative & non_informative == set()

    def test_planted_topic_terms_land_informative(self):
        # dense topic terms versus uniformly scattered ones: ridf separates
        docs = []
        for i in range(40):
            toks = [f"noise{i}"]
            if i < 4:
                toks += ["topic"] * 6
            docs.append((f"d{i}", " ".join(toks)))
        idx = build_index(docs)
        ridfs = sorted(term_weights(t, idx).ridf for t in idx.vocabulary)
        median = ridfs[len(ridfs) // 2]
        rule = ClassifierRule(
            [Condition("ridf", ">", median)], target="informative"
        )
        informative, _ = classify_terms(idx, rule)
        assert "topic" in informative

    def test_rule_parsing_and_errors(self):
        rule = parse_rule("ridf < 0.5 and burstiness < 3")
        assert rule.combine == "all" and len(rule.conditions) == 2
        rule = parse_rule("idf > 1 or gain > 0.1")
        assert rule.combine == "any"
        with pytest.raises(ConfigError):
            parse_rule("nonsuch < 1")
        with pytest.raises(ConfigError):
            parse_rule("ridf < 1 and idf > 2 or gain > 0")
        with pytest.raises(ConfigError):
            Condition("ridf", "!=", 0.0)


@pytest.fixture(scope="module")
def planted_index():
    documents, _, _, _ = build_planted_corpus(seed=5, n_docs=2000, vocab=20_000)
    index = build_index(documents)
    return index, [term_weights(t, index) for t in index.vocabulary]


class TestClassifyByTermClass:
    """classify_terms evaluates the rule once per (n_t, f_tc) pair; the
    reference evaluates it once per term."""

    @pytest.mark.parametrize("target", ["non_informative", "informative"])
    @pytest.mark.parametrize("combine", ["all", "any"])
    @pytest.mark.parametrize("feature", _FEATURES)
    def test_matches_per_term_reference(self, planted_index, feature, combine, target):
        index, weights = planted_index

        def middle(name):  # the middle one of the distinct values
            values = sorted({getattr(w, name) for w in weights})
            return values[len(values) // 2]

        other = "idf" if feature == "ridf" else "ridf"
        rule = ClassifierRule(
            [Condition(feature, "<", middle(feature)), Condition(other, ">=", middle(other))],
            combine=combine,
            target=target,
        )
        matched = {w.term for w in weights if rule.matches(w)}
        unmatched = set(index.vocabulary) - matched
        assert matched and unmatched
        expected = (unmatched, matched) if target == "non_informative" else (matched, unmatched)
        assert classify_terms(index, rule) == expected

    def test_weights_dump_matches_per_term_reference(self, planted_index, tmp_path):
        index, weights = planted_index
        path = tmp_path / "planted.idx"
        save_index(index, path)
        out = tmp_path / "weights.tsv"
        assert main(["classify", "--index", str(path), "--rule", "all",
                     "--out-informative", str(tmp_path / "i.txt"),
                     "--out-non-informative", str(tmp_path / "n.txt"),
                     "--weights-out", str(out)]) == 0  # fmt: skip
        lines = ["term\tidf\tgain\tx_i\tburstiness\tridf\tf_tc\tn_t"]
        for w in sorted(weights, key=lambda w: w.term):
            lines.append(
                f"{w.term}\t{w.idf:.6f}\t{w.gain:.6f}\t{w.x_i:.6f}"
                f"\t{w.burstiness:.6f}\t{w.ridf:.6f}\t{w.f_tc}\t{w.n_t}"
            )
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


class TestMixture:
    def test_poisson_worked_example(self):
        val = mixture2_pmf("poisson", 10, 0.8, 0.4, 0.6)
        assert val == pytest.approx(7.98e-9, rel=0.02)

    def test_geometric_worked_example(self):
        val = mixture2_pmf("geometric", 10, 0.8, 0.4, 0.6)
        assert val == pytest.approx(1.61e-3, rel=0.02)

    def test_degenerate_weight_is_single_component(self):
        lam = 1.7
        for k in range(0, 8):
            pure = math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))
            assert mixture2_pmf("poisson", k, lam, 0.3, 1.0) == pytest.approx(pure)

    def test_poisson_mixture_sums_to_one(self):
        total = sum(mixture2_pmf("poisson", k, 0.8, 0.4, 0.6) for k in range(0, 60))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_geometric_mixture_sums_to_one(self):
        total = sum(mixture2_pmf("geometric", k, 0.8, 0.4, 0.6) for k in range(1, 200))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_domains(self):
        with pytest.raises(DomainError):
            mixture2_pmf("poisson", -1, 1.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            mixture2_pmf("geometric", 0, 0.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            mixture2_pmf("geometric", 2, 1.5, 0.5, 0.5)
        with pytest.raises(DomainError):
            mixture2_pmf("poisson", 2, 1.0, 1.0, 1.5)
        with pytest.raises(DomainError):
            mixture2_pmf("binomial", 2, 1.0, 1.0, 0.5)
