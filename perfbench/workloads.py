"""The benchmark's three workloads: inputs, timed commands and checks.

A workload's round is a fixed list of ``adrank`` commands run from a round
directory, reading its inputs from ``../in``. Relative paths keep every
artifact, stdout included, independent of which directory the round ran
in, so a traced round can be compared byte for byte with a plain one.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np

import gen
import oracle
from harness import ROOT, Round, SpanView, percentile, run_command

MODELS = (
    "exponential", "gamma", "gaussian", "gev", "generalized_pareto", "geometric",
    "inverse_gaussian", "logistic", "lognormal", "nakagami", "negative_binomial",
    "poisson", "powerlaw", "rayleigh", "weibull", "yule_simon",
)  # fmt: skip
METRICS = ("map", "p10", "ndcg", "ndcg10", "bpref", "err20")
RANK_MODELS = {"yule": "YSL2-Tdc2", "pl2": "PL2-Tdc", "lmdir": "LMDir"}
# The counts sample of the selection workload does not depend on --seed:
# its known fault (see SelectionWorkload.extra_ops) must fail on the same
# input in every run.
COUNTS_SEED = 1904_00289
# per-layer names a workload may leave unset; they read 0 where it does
COMMAND_METRICS = (
    "cli.index_mb", "cli.ingest_tokens_per_s", "cli.rank_yule_qps", "cli.rank_pl2_qps",
    "cli.rank_lmdir_qps", "cli.eval_qps", "cli.tune_s", "cli.fit_counts_s",
    "cli.fit_continuous_s", "cli.cascade_s",
)  # fmt: skip
COUNTS = (
    "corpus.postings", "ranking.candidates.yule", "ranking.candidates.pl2",
    "ranking.candidates.lmdir", "ranking.postings_touched", "evaluation.judgments",
    "distributions.distinct_values.counts", "distributions.distinct_values.continuous",
)  # fmt: skip


class CheckError(Exception):
    pass


def _records(text: str) -> list[dict]:
    """``kind key=value ...`` lines -> dicts with a ``kind`` key."""
    out = []
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        out.append({"kind": kind, **dict(tok.split("=", 1) for tok in rest.split() if "=" in tok)})
    return out


def _close(got: float, want: float, abs_tol: float, rel_tol: float = 1e-9) -> bool:
    return abs(got - want) <= abs_tol + rel_tol * abs(want)


def _first_error(errors: list[str]):
    if errors:
        raise CheckError(errors[0])


def _check_eval(stdout: str, run_name: str, run: dict, base: dict, grades) -> None:
    """eval means and paired t statistics against the oracle metrics."""
    pq = oracle.per_query_metrics(run, grades)
    means = oracle.mean_metrics(pq)
    base_pq = oracle.per_query_metrics(base, grades)
    seen = set()
    for line in stdout.splitlines():
        parts = line.split("\t")
        if len(parts) == 3 and parts[0] == run_name:
            metric, value = parts[1], float(parts[2])
            if not _close(value, means[metric], 5e-7):
                raise CheckError(f"eval {metric}={value} but oracle mean is {means[metric]!r}")
            seen.add(metric)
        elif line.startswith("t-test "):
            metric = line[len("t-test ") : line.index(":")]
            shared = sorted(set(pq) & set(base_pq))
            t = oracle.paired_t([pq[q][metric] for q in shared], [base_pq[q][metric] for q in shared])
            if math.isnan(t):
                if "degenerate" not in line:
                    raise CheckError(f"eval {metric}: expected a degenerate t-test")
            else:
                printed = float(line.split("t=")[1].split()[0])
                if not _close(printed, t, 5e-5):
                    raise CheckError(f"eval t-test {metric}: t={printed} but oracle t is {t!r}")
            seen.add("t-" + metric)
    missing = [m for m in METRICS if m not in seen or "t-" + m not in seen]
    if missing:
        raise CheckError(f"eval output lacks {missing}")


class Workload:
    name = ""
    scales: dict = {}
    artifact_files: tuple = ()

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.scale = dict(self.scales[scale])

    def setup(self, inputs: Path) -> None:
        raise NotImplementedError

    def commands(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def extra_ops(self, rdir: Path) -> list[tuple[str, bool]]:
        """Checks counted as operations of their own, with pass/fail."""
        return []

    def check(self, rnd: Round, rdir: Path) -> None:
        """Raise CheckError when an output of the round is wrong."""

    def command_metrics(self, rnd: Round, rdir: Path) -> dict[str, float]:
        return {}

    def layer_counts(self) -> dict[str, float]:
        return {}

    @staticmethod
    def _run_ok(label, args, cwd):
        """Run an untimed command whose failure stops the benchmark."""
        res = run_command(label, args, cwd)
        if res.code != 0:
            raise RuntimeError(f"adrank {args[0]} exited with code {res.code}")


def _query_counts(corpus, queries) -> tuple[float, float]:
    """Mean candidates (documents holding a query term) and mean postings
    touched (sum of the query terms' document frequencies) per query."""
    cand, touched = [], []
    for q in queries:
        terms = list(dict.fromkeys(q.ranks))
        docs = [corpus.postings(r)[0] for r in terms]
        cand.append(np.unique(np.concatenate(docs)).size)
        touched.append(sum(d.size for d in docs))
    return float(np.mean(cand)), float(np.mean(touched))


class RetrievalWorkload(Workload):
    """Ingest a Zipf corpus, rank one query batch with three model
    families, evaluate the Yule run against the LMDir run."""

    name = "retrieval"
    scales = {
        "full": dict(docs=20_000, vocab=50_000, doc_len=(150, 150), queries=24, ranks=(20, 3000), judged=12),
        "tiny": dict(docs=300, vocab=2_000, doc_len=(20, 40), queries=4, ranks=(5, 200), judged=8),
    }
    artifact_files = ("index.adrx", "yule.run", "pl2.run", "lmdir.run")

    def setup(self, inputs):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.corpus = gen.zipf_corpus(rng, s["docs"], s["vocab"], s["doc_len"], inputs / "corpus.tsv")
        self.queries = gen.stratified_queries(rng, self.corpus, s["queries"], 4, s["ranks"], inputs / "queries.tsv")
        self.grades = gen.graded_qrels(rng, self.corpus, self.queries, s["judged"], inputs / "qrels.txt")

    def commands(self):
        cmds = [("ingest", ["ingest", "--corpus", "../in/corpus.tsv", "--out", "index.adrx"])]
        for short, spec in RANK_MODELS.items():
            cmds.append((f"rank.{short}", ["rank", "--index", "index.adrx", "--queries", "../in/queries.tsv",
                                           "--model", spec, "--out", f"{short}.run"]))  # fmt: skip
        cmds.append(("eval", ["eval", "--run", "yule.run", "--qrels", "../in/qrels.txt", "--baseline-run", "lmdir.run"]))
        return cmds

    def check(self, rnd, rdir):
        c = self.corpus
        want = f"indexed N={c.N} total_terms={c.total_tokens} vocab={c.vocab_size}"
        got = rnd.by_label("ingest").stdout.decode().strip()
        if got != want:
            raise CheckError(f"ingest printed {got!r}, generator says {want!r}")
        doc_index = {d: i for i, d in enumerate(c.doc_ids)}
        runs = {}
        for short, spec in RANK_MODELS.items():
            run = runs[short] = oracle.parse_run((rdir / f"{short}.run").read_text())
            for q in self.queries:
                if spec == "LMDir":
                    scores = oracle.lmdir_scores(c, q.ranks)
                else:
                    scores = oracle.divergence_scores(c, q.ranks, spec)
                _first_error(oracle.check_ranked_list(run.get(q.qid, []), scores, doc_index, 1000, f"{spec} {q.qid}"))
        _check_eval(rnd.by_label("eval").stdout.decode(), "yule.run", runs["yule"], runs["lmdir"], self.grades)

    def command_metrics(self, rnd, rdir):
        nq = len(self.queries)
        out = {
            "cli.index_mb": (rdir / "index.adrx").stat().st_size / 2**20,
            "cli.ingest_tokens_per_s": self.corpus.total_tokens / rnd.by_label("ingest").wall_s,
            "cli.eval_qps": nq / rnd.by_label("eval").wall_s,
        }
        for short in RANK_MODELS:
            out[f"cli.rank_{short}_qps"] = nq / rnd.by_label(f"rank.{short}").wall_s
        return out

    def layer_counts(self):
        cand, touched = _query_counts(self.corpus, self.queries)
        return {
            "corpus.postings": self.corpus.n_postings,
            "ranking.candidates.yule": cand,
            "ranking.candidates.pl2": cand,
            "ranking.candidates.lmdir": self.corpus.N,
            "ranking.postings_touched": touched,
            "evaluation.judgments": len(self.grades),
        }


class TuningWorkload(Workload):
    """Evaluate two runs of 160 densely judged queries, then cross-validate
    the PL2 length-normalisation parameter c."""

    name = "tuning"
    FOLDS = 3
    scales = {
        "full": dict(docs=8_000, vocab=20_000, doc_len=(60, 240), queries=160, ranks=(20, 3000), judged=200,
                     grid=(0.5, 2.0, 8.0)),  # fmt: skip
        "tiny": dict(docs=300, vocab=2_000, doc_len=(20, 60), queries=12, ranks=(5, 200), judged=20, grid=(0.5, 2.0)),
    }

    def setup(self, inputs):
        s = self.scale
        rng = np.random.default_rng(self.seed)
        self.corpus = gen.zipf_corpus(rng, s["docs"], s["vocab"], s["doc_len"], inputs / "corpus.tsv")
        self.queries = gen.stratified_queries(rng, self.corpus, s["queries"], 4, s["ranks"], inputs / "queries.tsv")
        self.grades = gen.graded_qrels(rng, self.corpus, self.queries, s["judged"], inputs / "qrels.txt")
        self._run_ok("ingest", ["ingest", "--corpus", "corpus.tsv", "--out", "index.adrx"], inputs)
        for model, out in (("PL2-Tdc", "pl2.run"), ("InL2-Tdc", "inl2.run")):
            self._run_ok("rank", ["rank", "--index", "index.adrx", "--queries", "queries.tsv",
                                  "--model", model, "--out", out], inputs)  # fmt: skip

    def grid_arg(self) -> str:
        return ",".join(f"{v:g}" for v in self.scale["grid"])

    def commands(self):
        return [
            ("eval", ["eval", "--run", "../in/pl2.run", "--qrels", "../in/qrels.txt", "--baseline-run", "../in/inl2.run"]),
            ("tune", ["tune", "--index", "../in/index.adrx", "--queries", "../in/queries.tsv", "--qrels",
                      "../in/qrels.txt", "--model", "PL2-Tdc", "--grid", self.grid_arg(), "--folds", str(self.FOLDS)]),
        ]  # fmt: skip

    def _checked_run(self, path: Path, c: float) -> dict:
        run = oracle.parse_run(path.read_text())
        doc_index = {d: i for i, d in enumerate(self.corpus.doc_ids)}
        for q in self.queries:
            scores = oracle.divergence_scores(self.corpus, q.ranks, "PL2-Tdc", c)
            _first_error(oracle.check_ranked_list(run.get(q.qid, []), scores, doc_index, 1000, f"PL2-Tdc c={c:g} {q.qid}"))
        return run

    def check(self, rnd, rdir):
        inputs = rdir.parent / "in"
        pl2 = self._checked_run(inputs / "pl2.run", 1.0)
        inl2 = oracle.parse_run((inputs / "inl2.run").read_text())
        _check_eval(rnd.by_label("eval").stdout.decode(), "../in/pl2.run", pl2, inl2, self.grades)
        # tune: recompute each fold's pick and held-out means from untimed runs
        per_value = {}
        for v in self.scale["grid"]:
            out = f"c{v:g}.run"
            self._run_ok("rank", ["rank", "--index", "../in/index.adrx", "--queries", "../in/queries.tsv",
                                  "--model", "PL2-Tdc", "--c", f"{v!r}", "--out", out], rdir)  # fmt: skip
            per_value[v] = oracle.per_query_metrics(self._checked_run(rdir / out, v), self.grades)
        qids = sorted(q.qid for q in self.queries)
        folds = self.FOLDS
        fold_of = {q: i * folds // len(qids) for i, q in enumerate(qids)}
        lines = rnd.by_label("tune").stdout.decode().splitlines()
        test_all, picked = [], {}
        for f in range(folds):
            train = [q for q in qids if fold_of[q] != f]
            test = [q for q in qids if fold_of[q] == f]
            test_all += test
            train_map = {v: oracle.mean_metrics(pq, train)["map"] for v, pq in per_value.items()}
            top = max(train_map.values())
            fields = dict(tok.split("=") for tok in lines[f].split())
            best = next(v for v in per_value if f"{v:g}" == fields["best_c"])
            if train_map[best] < top - 1e-12 * abs(top):
                raise CheckError(f"tune fold {f}: picked c={best:g}, training argmax has map {top!r}")
            self._check_means(fields, oracle.mean_metrics(per_value[best], test), f"tune fold {f}")
            picked.update((q, per_value[best][q]) for q in test)
        fields = dict(tok.split("=") for tok in lines[folds].split()[1:])
        self._check_means(fields, oracle.mean_metrics(picked, test_all), "tune mean_over_folds")

    @staticmethod
    def _check_means(fields: dict, means: dict, label: str):
        for m in METRICS:
            if not _close(float(fields[m]), means[m], 5e-5):
                raise CheckError(f"{label}: {m}={fields[m]} but oracle mean is {means[m]!r}")

    def command_metrics(self, rnd, rdir):
        return {
            "cli.eval_qps": len(self.queries) / rnd.by_label("eval").wall_s,
            "cli.tune_s": rnd.by_label("tune").wall_s,
        }

    def layer_counts(self):
        cand, touched = _query_counts(self.corpus, self.queries)
        return {
            "corpus.postings": self.corpus.n_postings,
            "ranking.candidates.pl2": cand,
            "ranking.postings_touched": touched,
            "evaluation.judgments": len(self.grades),
        }


# fitted parameters that set a model's scale; a value this close to zero
# makes the density unbounded at an atom of the sample
SCALE_PARAMS = {
    "exponential": ("mu",), "gamma": ("b",), "gaussian": ("sigma2",), "gev": ("sigma",),
    "generalized_pareto": ("sigma",), "logistic": ("sigma",), "lognormal": ("sigma2",),
    "nakagami": ("omega",), "rayleigh": ("b",), "weibull": ("a",),
}  # fmt: skip


class SelectionWorkload(Workload):
    """Fit all sixteen models to counts and to reals, then run the
    classify-subsample-select cascade on the planted corpus."""

    name = "selection"
    scales = {
        "full": dict(counts=2_000_000, reals=200_000, planted_docs=10_000, planted_vocab=100_000),
        "tiny": dict(counts=20_000, reals=5_000, planted_docs=2_000, planted_vocab=20_000),
    }
    artifact_files = ("counts.tsv", "counts.rec", "reals.tsv", "reals.rec")

    def setup(self, inputs):
        s = self.scale
        self.counts = gen.yule_counts(np.random.default_rng(COUNTS_SEED), 1.5, s["counts"], inputs / "counts.txt")
        self.reals = gen.gaussian_reals(np.random.default_rng(self.seed), 100.0, 15.0, s["reals"], inputs / "reals.txt")
        # the planted corpus of the test suite, which imports the package
        sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
        try:
            from planted import build_planted_corpus
        finally:
            del sys.path[:2]
        docs, _, _, _ = build_planted_corpus(seed=self.seed, n_docs=s["planted_docs"], vocab=s["planted_vocab"])
        (inputs / "planted.tsv").write_text("".join(f"{d}\t{t}\n" for d, t in docs))
        self._run_ok("ingest", ["ingest", "--corpus", "planted.tsv", "--out", "planted.adrx"], inputs)
        self.planted_postings = sum(len(set(text.split())) for _, text in docs)

    def commands(self):
        return [
            ("fit.counts", ["fit", "--input", "../in/counts.txt", "--models", "all",
                            "--out", "counts.tsv", "--records", "counts.rec"]),
            ("fit.continuous", ["fit", "--input", "../in/reals.txt", "--models", "all",
                                "--out", "reals.tsv", "--records", "reals.rec"]),
            ("cascade", ["cascade", "--index", "../in/planted.adrx", "--rule", "ridf < 0.4",
                         "--fraction", "0.5", "--seed", str(self.seed)]),
        ]  # fmt: skip

    def extra_ops(self, rdir):
        """Known fault, kept as a failing operation: on integer data the
        generalized Pareto fit collapses its scale onto the sample minimum,
        its likelihood is unbounded, and it wins the pairwise table. The
        check passes once the overall winner has a non-degenerate scale."""
        try:
            recs = _records((rdir / "counts.rec").read_text())
            winner = next(r for r in recs if r["kind"] == "selected")["overall"]
            fit = next(r for r in recs if r["kind"] == "fit" and r["model"] == winner)
            floor = 1e-6 * float(np.std(self.counts))
            ok = all(float(fit[p]) > floor for p in SCALE_PARAMS.get(winner, ()))
        except (OSError, StopIteration, KeyError, ValueError):
            ok = False  # no readable record of the winner
        return [("counts winner has a non-degenerate scale", ok)]

    def check(self, rnd, rdir):
        recs = _records((rdir / "counts.rec").read_text())
        sel = next(r for r in recs if r["kind"] == "selected")
        if sel["discrete"] != "yule_simon":
            raise CheckError(f"counts: best discrete model is {sel['discrete']}, expected yule_simon")
        yule = next(r for r in recs if r["kind"] == "fit" and r["model"] == "yule_simon")
        values, counts = np.unique(self.counts, return_counts=True)
        values, counts = values.tolist(), counts.tolist()
        p_hat = float(yule["p"])
        se = oracle.yule_standard_error(values, counts, p_hat)
        if abs(p_hat - 1.5) > 3.0 * se:
            raise CheckError(f"counts: yule p={p_hat} is more than 3 SE ({se:.3g}) from 1.5")
        ll = oracle.yule_loglik(values, counts, p_hat)
        if not _close(float(yule["total_loglik"]), ll, 0.0, 1e-9):
            raise CheckError(f"counts: yule loglik {yule['total_loglik']} but lgamma sum is {ll!r}")

        recs = _records((rdir / "reals.rec").read_text())
        sel = next(r for r in recs if r["kind"] == "selected")
        if sel["overall"] != "gaussian":
            raise CheckError(f"reals: best overall model is {sel['overall']}, expected gaussian")
        fits = {r["model"]: {k: float(v) for k, v in r.items() if k not in ("kind", "model", "converged")}
                for r in recs if r["kind"] == "fit"}  # fmt: skip
        mu, s2 = oracle.gaussian_mle(self.reals)
        if not (_close(fits["gaussian"]["mu"], mu, 0.0) and _close(fits["gaussian"]["sigma2"], s2, 0.0)):
            raise CheckError(f"reals: gaussian fit {fits['gaussian']} differs from the closed form ({mu!r}, {s2!r})")
        cell = next(r for r in recs if r["kind"] == "cell" and {r["row"], r["col"]} == {"gaussian", "logistic"})
        lr = oracle.gaussian_logistic_lr(self.reals, fits["gaussian"], fits["logistic"])
        if cell["row"] == "logistic":
            lr = -lr
        if not _close(float(cell["lr"]), lr, 1e-6, 1e-9):
            raise CheckError(f"reals: gaussian-logistic LR {cell['lr']} but oracle gives {lr!r}")

        line = rnd.by_label("cascade").stdout.decode().splitlines()[0]
        if not line.startswith("chosen_model=yule_simon "):
            raise CheckError(f"cascade printed {line!r}")

    def command_metrics(self, rnd, rdir):
        return {
            "cli.fit_counts_s": rnd.by_label("fit.counts").wall_s,
            "cli.fit_continuous_s": rnd.by_label("fit.continuous").wall_s,
            "cli.cascade_s": rnd.by_label("cascade").wall_s,
        }

    def layer_counts(self):
        return {
            "corpus.postings": self.planted_postings,
            "distributions.distinct_values.counts": int(np.unique(self.counts).size),
            "distributions.distinct_values.continuous": int(np.unique(self.reals).size),
        }


WORKLOADS = {w.name: w for w in (RetrievalWorkload, TuningWorkload, SelectionWorkload)}


def layer_metrics(traced: Round, plain: Round) -> dict[str, float]:
    """Every per-layer metric; layers a workload does not reach read 0."""
    v = SpanView(traced.results)
    out: dict[str, float] = {}
    for name in ("tokenize", "build_index", "save_index", "load_index", "read_counts_file"):
        out[f"corpus.{name}_s"] = v.total(f"corpus.{name}")
    rss = v.attrs("corpus.load_index", "rss_delta")
    out["corpus.load_index_rss_mb"] = percentile(rss, 50) / 2**20
    for short in RANK_MODELS:
        ms = [d * 1e3 for d in v.durations("ranking.rank", [f"rank.{short}"])]
        out[f"ranking.rank.{short}.p50_ms"] = percentile(ms, 50)
        out[f"ranking.rank.{short}.p95_ms"] = percentile(ms, 95)
    out["ranking.rank.pl2_grid.p50_ms"] = percentile([d * 1e3 for d in v.durations("ranking.rank", ["tune"])], 50)
    out["ranking.format_trec_run_s"] = v.total("ranking.format_trec_run")
    for name in ("parse_run", "parse_qrels", "evaluate_run", "cv_tune"):
        out[f"evaluation.{name}_s"] = v.total(f"evaluation.{name}")
    for m in METRICS:
        out[f"evaluation.metric.{m}_ms"] = v.total(f"evaluation.metric.{m}", ["eval"]) * 1e3
    for sample in ("counts", "continuous"):
        for model in MODELS:
            out[f"distributions.mle_fit.{sample}.{model}_s"] = v.total(f"distributions.mle_fit.{model}", [f"fit.{sample}"])
    out["distributions.mle_fit.cascade_s"] = sum(
        v.total(f"distributions.mle_fit.{model}", ["cascade"]) for model in MODELS
    )
    out["selection.build_vuong_table_s"] = v.total("selection.build_vuong_table")
    out["selection.pairwise_s"] = v.total("selection.pairwise")
    out["selection.pairs"] = len(v.durations("selection.pairwise"))
    out["weighting.classify_terms_s"] = v.total("weighting.classify_terms")
    out["empirics.subsample_s"] = v.total("empirics.subsample")
    commands = ("ingest", "rank", "eval", "tune", "fit", "cascade")
    for cmd in commands:
        labels = [r.label for r in traced.results if r.label.split(".")[0] == cmd]
        out[f"cli.{cmd}.self_s"] = v.self_time(labels)
    out["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return out
