"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete. Tolerances are pinned here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from adrank.cli import main as cli_main
from adrank.corpus import QueryRecord, build_index, load_index, tokenize
from adrank.distributions import (
    FittedModel,
    ModelId,
    Sample,
    mle_fit,
    random_sample,
)
from adrank.empirics import (
    eccdf,
    loglog_exponent_estimate,
    raw_histogram,
    subsample,
)
from adrank.evaluation import Qrels, evaluate_run, paired_t_test, parse_run
from adrank.numerics import RandomSource
from adrank.ranking import (
    ParamScheme,
    RankingConfig,
    inf1,
    normalized_tf,
    parse_model_spec,
    rank,
)
from adrank.selection import (
    ad_statistic,
    aicc,
    build_vuong_table,
    ks_statistic,
    select_best,
    vuong_nonnested_test,
)
from adrank.weighting import classify_terms, mixture2_pmf, parse_rule

from planted import build_planted_corpus
from test_distributions import REFERENCE_PARAMS, simplex_from_closed_form

DISCRETE_MODELS = [
    ModelId.GEOMETRIC,
    ModelId.NEGATIVE_BINOMIAL,
    ModelId.POISSON,
    ModelId.POWERLAW,
    ModelId.YULE_SIMON,
]


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


class TestCriterion01MleRecovery:
    def test_parameter_recovery_all_models(self):
        t0 = time.time()
        worst = {}
        for i, (model, params) in enumerate(REFERENCE_PARAMS.items()):
            samp = random_sample(model, params, 100_000, RandomSource(1000 + i))
            fit = mle_fit(model, samp)
            tol = 0.10 if model in (ModelId.GEV, ModelId.GENERALIZED_PARETO) else 0.05
            for name, truth in params.items():
                rel = abs(fit.params[name] - truth) / abs(truth)
                worst[f"{model.value}.{name}"] = (rel, tol)
        elapsed = time.time() - t0
        bad = {k: v for k, (v, tol) in worst.items() if v > tol}
        ok = not bad and elapsed < 300.0
        _report(
            1,
            ok,
            f"16-model recovery at n=1e5, worst rel err "
            f"{max(v for v, _ in worst.values()):.3%}, {elapsed:.0f}s "
            f"(violations: {bad or 'none'})",
        )


class TestCriterion02ClosedFormOptimizerEquivalence:
    def test_twenty_random_samples(self):
        worst = 0.0
        for seed in range(20):
            rng = RandomSource(2000 + seed)
            for model in (ModelId.EXPONENTIAL, ModelId.POISSON, ModelId.GAUSSIAN):
                samp = random_sample(model, REFERENCE_PARAMS[model], 1000, rng)
                closed = mle_fit(model, samp)
                opt, _ = simplex_from_closed_form(model, samp)
                for name in closed.params:
                    rel = abs(opt[name] - closed.params[name]) / abs(closed.params[name])
                    worst = max(worst, rel)
        ok = worst < 1e-5
        _report(2, ok, f"simplex from the closed form vs closed form, worst rel diff {worst:.2e}")


class TestCriterion03OlsPowerLawBias:
    def test_median_exponents(self):
        t0 = time.time()
        raw, ecc = [], []
        for seed in range(100):
            samp = random_sample(
                ModelId.POWERLAW, {"alpha": 2.5, "xmin": 1.0}, 20_000,
                RandomSource(3000 + seed),
            )
            raw.append(loglog_exponent_estimate(raw_histogram(samp)))
            ecc.append(loglog_exponent_estimate(eccdf(samp)))
        elapsed = time.time() - t0
        med_raw = float(np.median(raw))
        med_ecc = float(np.median(ecc))
        ok = med_raw < 2.0 and 2.35 <= med_ecc <= 2.65 and elapsed < 120.0
        _report(
            3,
            ok,
            f"median raw-histogram exponent {med_raw:.3f} (< 2), "
            f"median corrected ECCDF exponent {med_ecc:.3f} (in [2.35, 2.65]), "
            f"{elapsed:.0f}s",
        )


class TestCriterion04SelectionCorrectness:
    def test_yule_best_discrete(self):
        hits = 0
        for seed in range(100):
            samp = random_sample(
                ModelId.YULE_SIMON, {"p": 1.5}, 50_000, RandomSource(4000 + seed)
            )
            table = build_vuong_table(samp)
            hits += table.best_discrete is ModelId.YULE_SIMON
        _report(4, hits >= 95, f"Yule named best discrete in {hits}/100 seeds (>= 95)")

    def test_gaussian_best_overall(self):
        hits = 0
        for seed in range(100):
            samp = random_sample(
                ModelId.GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}, 50_000,
                RandomSource(4500 + seed),
            )
            table = build_vuong_table(samp)
            hits += table.best_overall is ModelId.GAUSSIAN
        _report(4, hits >= 95, f"Gaussian named best overall in {hits}/100 seeds (>= 95)")

    def test_poisson_vs_gaussian_vuong(self):
        hits = 0
        for seed in range(100):
            samp = random_sample(ModelId.POISSON, {"lam": 5.0}, 1000, RandomSource(4800 + seed))
            fp = mle_fit(ModelId.POISSON, samp)
            fg = mle_fit(ModelId.GAUSSIAN, samp)
            z, p, _ = vuong_nonnested_test(fp, fg)
            hits += (z > 0) and (p < 0.05)
        _report(4, hits >= 90, f"Vuong prefers Poisson at p<.05 in {hits}/100 seeds (>= 90)")


class TestCriterion05HandValueOracles:
    def test_ad_ks_aicc(self):
        uniform01 = lambda x: np.asarray(x, dtype=float)
        ad1 = ad_statistic(Sample.of(np.array([0.5]), False), uniform01)
        ad2 = ad_statistic(Sample.of(np.array([0.25, 0.75]), False), uniform01)
        ks = ks_statistic(
            Sample.of(np.array([1.0, 2.0, 3.0]), False),
            lambda x: np.clip(np.asarray(x) / 4.0, 0, 1),
        )
        fit = FittedModel(ModelId.EXPONENTIAL, {"mu": 1.0}, Sample.of(np.ones(10), False), 0.0, aicc=0.0)
        a = aicc(fit)
        ok = (
            abs(ad1 - 0.386294) <= 1e-6
            and abs(ad2 - 0.249341) <= 1e-6
            and ks == 0.25
            and a == 2.5
        )
        _report(
            5,
            ok,
            f"AD={ad1:.6f}/{ad2:.6f}, KS={ks}, AICc={a} against hand values",
        )


class TestCriterion06MixtureExample:
    def test_worked_mixture_values(self):
        pois = mixture2_pmf("poisson", 10, 0.8, 0.4, 0.6)
        geo = mixture2_pmf("geometric", 10, 0.8, 0.4, 0.6)
        ok = abs(pois - 7.98e-9) / 7.98e-9 <= 0.02 and abs(geo - 1.61e-3) / 1.61e-3 <= 0.02
        _report(6, ok, f"two-component masses {pois:.3e} (~7.98e-9), {geo:.4e} (~1.61e-3)")


class TestCriterion07HeuristicConstraints:
    @staticmethod
    def _h(model, f_td, dlen, z, c=2.0, avg=500.0):
        cfg = RankingConfig(
            model, first_norm="none", second_norm="logarithmic",
            scheme=ParamScheme("fixed", z), c=c,
        )
        return inf1(cfg, normalized_tf(f_td, dlen, avg, cfg), z)

    def test_constraint_signs_on_grid(self):
        checked = 0
        failures = []
        fs = np.geomspace(0.1, 50.0, 5)
        ds = np.geomspace(10, 1000, 5).astype(int)
        zs = np.geomspace(1e-4, 0.9, 5)
        for model in ("LL", "SPL"):
            for f in fs:
                for d in ds:
                    for z in zs:
                        checked += 1
                        h0 = self._h(model, f, int(d), z)
                        hf = 0.01 * f
                        c1 = (self._h(model, f + hf, int(d), z)
                              - self._h(model, f - hf, int(d), z)) / (2 * hf)
                        c2 = (self._h(model, f + hf, int(d), z)
                              - 2 * h0 + self._h(model, f - hf, int(d), z))
                        hd = max(int(0.05 * d), 1)
                        c3 = (self._h(model, f, int(d) + hd, z)
                              - self._h(model, f, int(d) - hd, z))
                        hz = 0.01 * z
                        c4 = (self._h(model, f, int(d), z + hz)
                              - self._h(model, f, int(d), z - hz)) / (2 * hz)
                        if not (c1 > 0 and c2 < 0 and c3 < 0 and c4 < 0):
                            failures.append((model, f, d, z, c1, c2, c3, c4))
        ok = not failures and checked >= 100
        _report(
            7,
            ok,
            f"C1-C4 sign checks for LL and SPL at {checked} grid points "
            f"({len(failures)} violations)",
        )


class TestCriterion08YuleAsymptotics:
    def test_loglog_slopes(self):
        from adrank.distributions import log_density

        worst = 0.0
        for p in (1.2, 1.5, 1.627, 2.0):
            xs = np.unique(np.round(np.logspace(3, 4, 50))).astype(np.float64)
            ys = log_density(ModelId.YULE_SIMON, {"p": p}, xs)
            slope = float(np.polyfit(np.log(xs), ys, 1)[0])
            worst = max(worst, abs(slope + (p + 1.0)))
        ok = worst <= 0.05
        _report(8, ok, f"Yule log-log slope vs -(p+1), worst gap {worst:.4f} (<= 0.05)")


class TestCriterion09MetricOracles:
    def test_metric_hand_values(self):
        from adrank.evaluation import average_precision, ndcg
        from adrank.ranking import RankedList

        qr = Qrels({("q", "a"): 1, ("q", "c"): 1, ("q", "b"): 0, ("q", "x"): 0})
        rl = RankedList("q", ["a", "b", "c"], np.array([3.0, 2.0, 1.0]))
        ap = average_precision(rl, qr)

        ideal_qr = Qrels({("q", "a"): 2, ("q", "b"): 1})
        ideal = RankedList("q", ["a", "b"], np.array([2.0, 1.0]))
        m_ideal = evaluate_run([ideal], ideal_qr, ("map", "ndcg")).mean

        nd_qr = Qrels({("q", "a"): 0, ("q", "b"): 1})
        nd = ndcg(RankedList("q", ["a", "b"], np.array([2.0, 1.0])), nd_qr)

        d = np.array([1.5] * 5 + [0.5] * 5)
        d = (d - d.mean()) / d.std(ddof=1) + 1.0
        t, p = paired_t_test(list(d), [0.0] * 10)

        ok = (
            abs(ap - 0.833333) <= 1e-6
            and m_ideal["map"] == 1.0
            and m_ideal["ndcg"] == 1.0
            and abs(nd - 0.630930) <= 1e-6
            and abs(t - math.sqrt(10.0)) <= 1e-9
            and abs(p - 0.0115) <= 5e-4
        )
        _report(
            9,
            ok,
            f"AP={ap:.6f}, ideal MAP/nDCG={m_ideal['map']}/{m_ideal['ndcg']}, "
            f"nDCG={nd:.6f}, t={t:.4f}, p={p:.4f}",
        )


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    root = tmp_path_factory.mktemp("planted")
    documents, queries, grades, noise_counts = build_planted_corpus(seed=777)
    corpus = root / "corpus.tsv"
    corpus.write_text("\n".join(f"{d}\t{t}" for d, t in documents) + "\n")
    qfile = root / "queries.tsv"
    qfile.write_text("\n".join(f"{q}\t{t}" for q, t in queries) + "\n")
    qrels = root / "qrels.txt"
    qrels.write_text("".join(f"{q} 0 {d} {g}\n" for (q, d), g in sorted(grades.items())))
    index_path = root / "corpus.idx"
    assert cli_main(["ingest", "--corpus", str(corpus), "--out", str(index_path)]) == 0
    return {
        "root": root,
        "corpus": corpus,
        "queries": qfile,
        "qrels": qrels,
        "index": index_path,
        "grades": grades,
        "noise_counts": noise_counts,
        "query_list": queries,
    }


class TestCriterion10EndToEnd:
    def test_cascade_and_retrieval(self, planted, capsys):
        t0 = time.time()
        index = load_index(planted["index"])

        # the classification rule isolates the planted noise terms, whose
        # collection frequencies are the materialized draws; threshold
        # rules misplace the odd fluke (for example a noise term whose few
        # tokens all landed in one document), so demand near-equality
        rule = parse_rule("ridf < 0.4")
        _, non_informative = classify_terms(index, rule)
        freqs = sorted(index.f_tc[index.term_id(t)] for t in non_informative)
        from collections import Counter

        sym_diff = Counter(freqs) - Counter(planted["noise_counts"])
        sym_diff += Counter(planted["noise_counts"]) - Counter(freqs)
        assert sum(sym_diff.values()) <= 40
        for q, text in planted["query_list"]:
            for term in text.split():
                assert term not in non_informative

        hits = 0
        for seed in range(100):
            sub = subsample(freqs, "simple", 0.1, RandomSource(seed))
            samp = Sample.of(sub, True)
            table = build_vuong_table(samp, DISCRETE_MODELS)
            _, best_discrete, _ = select_best(table)
            hits += best_discrete is ModelId.YULE_SIMON

        # the cascade subcommand drives the same path end to end
        code = cli_main(
            ["cascade", "--index", str(planted["index"]), "--rule", "ridf < 0.4",
             "--fraction", "0.1", "--seed", "42"]
        )
        cascade_out = capsys.readouterr().out
        assert code == 0

        run_path = planted["root"] / "ys.run"
        assert cli_main(
            ["rank", "--index", str(planted["index"]), "--queries",
             str(planted["queries"]), "--model", "YSL2-Tdc2",
             "--out", str(run_path)]
        ) == 0
        ranked = parse_run(run_path.read_text())
        report = evaluate_run(ranked, Qrels(planted["grades"]), ("map",))
        elapsed = time.time() - t0

        ok = (
            hits >= 95
            and "chosen_model=yule_simon" in cascade_out
            and report.mean["map"] == 1.0
            and elapsed < 180.0
        )
        _report(
            10,
            ok,
            f"cascade picked Yule in {hits}/100 subsample seeds (>= 95), "
            f"MAP={report.mean['map']} with YSL2-Tdc2, {elapsed:.0f}s",
        )


class TestCriterion11Determinism:
    def test_byte_identical_artifacts(self, planted, capsys):
        root = planted["root"]

        # CLI rank twice
        runs = []
        for name in ("r1.run", "r2.run"):
            path = root / name
            assert cli_main(
                ["rank", "--index", str(planted["index"]),
                 "--queries", str(planted["queries"]), "--model", "YSL2-Tdc2",
                 "--out", str(path)]
            ) == 0
            runs.append(path.read_bytes())
        capsys.readouterr()

        # cascade stdout twice with the same seed
        outs = []
        for _ in range(2):
            assert cli_main(
                ["cascade", "--index", str(planted["index"]), "--rule",
                 "ridf < 0.4", "--fraction", "0.1", "--seed", "57"]
            ) == 0
            outs.append(capsys.readouterr().out)

        # library path: same seed, same sample, same serialized table
        tables = []
        for _ in range(2):
            samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 5000, RandomSource(42))
            table = build_vuong_table(samp, DISCRETE_MODELS)
            tables.append(table.to_tsv() + table.to_records())

        ok = runs[0] == runs[1] and outs[0] == outs[1] and tables[0] == tables[1]
        _report(11, ok, "identical seeds give byte-identical run, cascade and table artifacts")
