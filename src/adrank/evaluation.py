"""Effectiveness metrics, qrels and run I/O, paired testing and tuning.

Metric conventions: nDCG uses the 2^grade - 1 gain with a 1/log2(rank+1)
discount; ERR normalizes by 2^max_grade of the judgment set; average
precision counts unretrieved relevant documents as misses; bpref ignores
unjudged documents entirely. Every metric lies in [0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import FormatError, UsageError
from .numerics import regularized_incomplete_beta
from .ranking import RankedList, RankingConfig, ScoredDoc, rank as _rank

__all__ = [
    "Qrels",
    "MetricReport",
    "METRICS",
    "average_precision",
    "ndcg",
    "bpref",
    "err_at_k",
    "paired_t_test",
    "evaluate_run",
    "cv_tune",
    "parse_qrels",
    "format_qrels",
    "parse_run",
]

METRICS = ("map", "p10", "ndcg", "ndcg10", "bpref", "err20")


@dataclass
class Qrels:
    """Graded judgments keyed by (query id, doc id), indexed once by query.

    ``grades`` is read at construction; later changes to it are not seen.
    """

    grades: dict[tuple[str, str], int]

    def __post_init__(self):
        if any(g < 0 for g in self.grades.values()):
            raise UsageError("grades must be nonnegative")
        self._by_query: dict[str, dict[str, int]] = {}
        for (qid, doc_id), g in self.grades.items():
            self._by_query.setdefault(qid, {})[doc_id] = g
        self.max_grade: int = max(self.grades.values(), default=0)

    def _judged(self, qid: str) -> dict[str, int]:
        """Grades of one query's judged documents (empty when unjudged)."""
        return self._by_query.get(qid, {})

    def grade(self, qid: str, doc_id: str) -> int | None:
        """Grade of a judged document, None when unjudged."""
        return self._judged(qid).get(doc_id)

    def query_ids(self):
        return set(self._by_query)

    def relevant(self, qid: str):
        return {d for d, g in self._judged(qid).items() if g > 0}

    def nonrelevant(self, qid: str):
        return {d for d, g in self._judged(qid).items() if g == 0}


@dataclass
class MetricReport:
    per_query: dict[str, dict[str, float]]  # metric -> qid -> value
    mean: dict[str, float]
    flags: list[str] = field(default_factory=list)

    def to_tsv(self, model: str = "run") -> str:
        lines = ["model\tmetric\tmean"]
        for metric in sorted(self.mean):
            lines.append(f"{model}\t{metric}\t{self.mean[metric]:.6f}")
        return "\n".join(lines) + "\n"


def average_precision(ranked: RankedList, qrels: Qrels, depth: int = 1000) -> float:
    """Mean of precision at each relevant retrieved rank, over R."""
    rel = qrels.relevant(ranked.query_id)
    if not rel:
        return 0.0
    hits = 0
    total = 0.0
    for i, sd in enumerate(ranked.entries[:depth], 1):
        if sd.doc_id in rel:
            hits += 1
            total += hits / i
    return total / len(rel)


def _dcg(grades) -> float:
    return sum((2.0**g - 1.0) / math.log2(i + 1.0) for i, g in enumerate(grades, 1))


def ndcg(ranked: RankedList, qrels: Qrels, cutoff: int | None = None) -> float:
    """Discounted cumulative gain over the ideal ordering's, at a cutoff."""
    judged = qrels._judged(ranked.query_id)
    ideal = sorted(judged.values(), reverse=True)
    if cutoff is not None:
        ideal = ideal[:cutoff]
    idcg = _dcg(ideal)
    if idcg == 0.0:
        return 0.0
    entries = ranked.entries if cutoff is None else ranked.entries[:cutoff]
    got = [judged.get(sd.doc_id, 0) for sd in entries]
    return _dcg(got) / idcg


def bpref(ranked: RankedList, qrels: Qrels) -> float:
    """Binary preference over judged documents only."""
    rel = qrels.relevant(ranked.query_id)
    nonrel = qrels.nonrelevant(ranked.query_id)
    if not rel:
        return 0.0
    R, Nn = len(rel), len(nonrel)
    denom = min(R, Nn)
    total = 0.0
    nonrel_above = 0
    for sd in ranked.entries:
        if sd.doc_id in nonrel:
            nonrel_above += 1
        elif sd.doc_id in rel:
            penalty = min(nonrel_above, R) / denom if denom > 0 else 0.0
            total += 1.0 - penalty
    return total / R


def err_at_k(ranked: RankedList, qrels: Qrels, k: int = 20) -> float:
    """Expected reciprocal rank with grade-probability stopping."""
    if qrels.max_grade < 1:
        return 0.0
    norm = 2.0**qrels.max_grade
    err = 0.0
    keep_going = 1.0
    for i, sd in enumerate(ranked.entries[:k], 1):
        g = qrels.grade(ranked.query_id, sd.doc_id) or 0
        r = (2.0**g - 1.0) / norm
        err += keep_going * r / i
        keep_going *= 1.0 - r
    return err


def precision_at(ranked: RankedList, qrels: Qrels, k: int = 10) -> float:
    rel = qrels.relevant(ranked.query_id)
    if not ranked.entries:
        return 0.0
    hits = sum(1 for sd in ranked.entries[:k] if sd.doc_id in rel)
    return hits / k


def paired_t_test(a, b):
    """Two-tailed paired t-test; p from the t tail via incomplete beta.

    Returns (t, p); all-zero differences are degenerate and give NaN.
    """
    if len(a) != len(b):
        raise UsageError("paired test needs equal-length value lists")
    n = len(a)
    if n < 2:
        raise UsageError("paired test needs n >= 2")
    d = [x - y for x, y in zip(a, b)]
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    if var == 0.0:
        return math.nan, math.nan
    t = mean / math.sqrt(var / n)
    df = n - 1
    p = regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))
    return t, p


_METRIC_FNS = {
    "map": lambda rl, qr: average_precision(rl, qr),
    "p10": lambda rl, qr: precision_at(rl, qr, 10),
    "ndcg": lambda rl, qr: ndcg(rl, qr),
    "ndcg10": lambda rl, qr: ndcg(rl, qr, 10),
    "bpref": bpref,
    "err20": lambda rl, qr: err_at_k(rl, qr, 20),
}


def evaluate_run(ranked_lists, qrels: Qrels, metrics=METRICS) -> MetricReport:
    """Per-query and mean metric values over the qid intersection.

    Query ids present on only one side are flagged and skipped.
    """
    for m in metrics:
        if m not in _METRIC_FNS:
            raise UsageError(f"unknown metric {m!r}")
    run_ids = {rl.query_id for rl in ranked_lists}
    qrel_ids = qrels.query_ids()
    common = run_ids & qrel_ids
    flags = []
    if run_ids - qrel_ids:
        flags.append(f"unjudged query ids skipped: {sorted(run_ids - qrel_ids)}")
    if qrel_ids - run_ids:
        flags.append(f"missing from run: {sorted(qrel_ids - run_ids)}")
    if not common:
        raise UsageError("run and qrels share no query ids")
    per_query: dict[str, dict[str, float]] = {m: {} for m in metrics}
    for rl in ranked_lists:
        if rl.query_id not in common:
            continue
        if not qrels.relevant(rl.query_id):
            flags.append(f"query {rl.query_id} has no relevant judgments")
        for m in metrics:
            per_query[m][rl.query_id] = _METRIC_FNS[m](rl, qrels)
    mean = {m: sum(per_query[m].values()) / len(per_query[m]) for m in metrics}
    return MetricReport(per_query=per_query, mean=mean, flags=flags)


def cv_tune(
    queries,
    qrels: Qrels,
    index,
    config_factory,
    grid,
    folds: int = 3,
    objective: str = "map",
    k: int = 1000,
):
    """Deterministic cross-validated grid tuning.

    Queries are sorted by id and split contiguously into ``folds`` groups.
    For each fold the grid value maximising the objective on the other
    folds is picked (ties go to the smallest value) and scored on the held
    out fold; per-fold winners and the mean held-out metrics are returned.

    ``config_factory`` maps a grid value to a RankingConfig.
    """
    if objective not in _METRIC_FNS:
        raise UsageError(f"unknown objective {objective!r}")
    if not grid:
        raise UsageError("empty grid")
    queries = sorted(queries, key=lambda q: q.query_id)
    if len(queries) < folds:
        raise UsageError("need at least one query per fold")
    fold_of = {q.query_id: i * folds // len(queries) for i, q in enumerate(queries)}

    # score every query once per grid value, then slice into folds
    per_value: dict[float, dict[str, RankedList]] = {}
    for value in grid:
        config = config_factory(value)
        per_value[value] = {q.query_id: _rank(q, index, config, k) for q in queries}

    def mean_objective(value, qids):
        vals = [_METRIC_FNS[objective](per_value[value][qid], qrels) for qid in qids]
        return sum(vals) / len(vals)

    fold_results = []
    all_test_lists = []
    for f in range(folds):
        train = [q.query_id for q in queries if fold_of[q.query_id] != f]
        test = [q.query_id for q in queries if fold_of[q.query_id] == f]
        best_value = None
        best_score = -math.inf
        for value in grid:  # grid order; first (smallest) wins ties
            s = mean_objective(value, train)
            if s > best_score:
                best_value, best_score = value, s
        test_lists = [per_value[best_value][qid] for qid in test]
        all_test_lists.extend(test_lists)
        report = evaluate_run(test_lists, qrels)
        fold_results.append({"fold": f, "best": best_value, "test_mean": report.mean})
    overall = evaluate_run(all_test_lists, qrels)
    return fold_results, overall.mean


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def parse_qrels(text: str) -> Qrels:
    """``qid 0 docid grade`` whitespace-separated, one judgment per line."""
    grades = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"qrels line {lineno}: expected 4 fields")
        qid, _, doc_id, grade = parts
        try:
            grades[(qid, doc_id)] = int(grade)
        except ValueError:
            raise FormatError(f"qrels line {lineno}: bad grade {grade!r}") from None
    if not grades:
        raise FormatError("empty qrels")
    return Qrels(grades=grades)


def format_qrels(qrels: Qrels) -> str:
    lines = [
        f"{qid} 0 {doc} {grade}"
        for (qid, doc), grade in sorted(qrels.grades.items())
    ]
    return "\n".join(lines) + "\n"


def parse_run(text: str) -> list[RankedList]:
    """Parse a 6-column run back into ranked lists (rank order kept)."""
    rows: dict[str, list[tuple[int, ScoredDoc]]] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(f"run line {lineno}: expected 6 fields")
        qid, _, doc_id, pos, score, _tag = parts
        try:
            rows.setdefault(qid, []).append(
                (int(pos), ScoredDoc(doc_id, float(score)))
            )
        except ValueError:
            raise FormatError(f"run line {lineno}: bad rank or score") from None
    if not rows:
        raise FormatError("empty run")
    out = []
    for qid in sorted(rows):
        entries = [sd for _, sd in sorted(rows[qid], key=lambda t: t[0])]
        out.append(RankedList(query_id=qid, entries=entries))
    return out
