"""Effectiveness metrics, qrels and run I/O, paired testing and tuning.

Metric conventions: nDCG uses the 2^grade - 1 gain with a 1/log2(rank+1)
discount; ERR normalizes by 2^max_grade of the judgment set; average
precision counts unretrieved relevant documents as misses; bpref ignores
unjudged documents entirely. Every metric lies in [0, 1].

A ranked list is columnar (``RankedList.doc_ids`` and ``scores``). ``Qrels``
holds each judgment once, in one per-query index: a grade by judged
document, with the counts and ideal DCG the metrics read. ``parse_qrels``
builds that index straight from the file's columns, and ``parse_run`` and
``parse_qrels`` intern query and document ids, so a run and its qrels share
one string per id. Each ranked list is read once into a vector of grades
(-1 where unjudged) that all six metrics share. Their sums run left to
right, as a loop over the list would add them. ``cv_tune`` keeps each
query's six metric values per grid value, not its ranked list.
A run file that lists one document twice for a query, and a qrels grade
outside 0..1023 (where the gain 2^grade - 1 is finite), a negative one
included, raise ``FormatError`` naming the line: a data error, exit code 2.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .errors import FormatError, UsageError
from .numerics import regularized_incomplete_beta
from .ranking import RankedList, rank as _rank

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
    "check_metrics",
    "check_tuning",
    "parse_qrels",
    "format_qrels",
    "parse_run",
]

METRICS = ("map", "p10", "ndcg", "ndcg10", "bpref", "err20")
_NO_SHARED_QUERIES = "run and qrels share no query ids"
MAX_GRADE = 1023  # the largest grade whose gain 2^g - 1 is finite
_GAIN = np.array([2.0**g - 1.0 for g in range(MAX_GRADE + 1)] + [0.0])  # [-1]: unjudged
_DISCOUNTS = np.array([math.log2(i + 1.0) for i in range(1, 1001)])


def _discounts(n: int) -> np.ndarray:
    """log2(i + 1) for ranks i = 1..n, each from ``math.log2``."""
    if n <= len(_DISCOUNTS):
        return _DISCOUNTS[:n]
    return np.array([math.log2(i + 1.0) for i in range(1, n + 1)])


def _sum(terms) -> float:
    """Left-to-right sum: ``np.cumsum`` is sequential, ``np.sum`` pairwise."""
    return float(np.cumsum(terms)[-1]) if len(terms) else 0.0


class _Judged(NamedTuple):
    """One query's judgments: grade by judged document, the relevant (R) and
    non-relevant (N) counts, the running DCG of the ideal grade order, and
    the largest grade of the whole qrels set (ERR's normaliser)."""

    grades: dict[str, int]
    R: int
    N: int
    ideal_dcg: np.ndarray
    max_grade: int


class Qrels:
    """Graded judgments, held once: indexed by query, then by document.

    ``Qrels(grades)`` reads a mapping keyed by (query id, doc id) and keeps
    no reference to it.
    """

    def __init__(self, grades: Mapping[tuple[str, str], int]):
        if any(not 0 <= g <= MAX_GRADE for g in grades.values()):
            raise UsageError(f"grades must lie in 0..{MAX_GRADE}")
        self._build((qid, doc_id, g) for (qid, doc_id), g in grades.items())

    @classmethod
    def _of(cls, judgments) -> Qrels:
        """From checked (qid, doc id, grade) triples."""
        qrels = cls.__new__(cls)
        qrels._build(judgments)
        return qrels

    def _build(self, judgments):
        by_query: dict[str, dict[str, int]] = {}
        for qid, doc_id, g in judgments:  # the last of a repeated pair wins
            by_query.setdefault(qid, {})[doc_id] = g
        self.max_grade: int = max((max(j.values()) for j in by_query.values()), default=0)
        self._by_query = {qid: self._index(judged) for qid, judged in by_query.items()}
        self._unjudged = self._index({})

    @property
    def grades(self) -> Mapping[tuple[str, str], int]:
        """Grade by (query id, doc id), in sorted order: a read-only view,
        rebuilt from the index on each read."""
        return MappingProxyType({
            (qid, doc_id): g
            for qid in sorted(self._by_query)
            for doc_id, g in sorted(self._by_query[qid].grades.items())
        })  # fmt: skip

    def _index(self, judged: dict[str, int]) -> _Judged:
        ideal = np.sort(np.fromiter(judged.values(), np.int64, len(judged)))[::-1]
        R = int(np.count_nonzero(ideal))
        ideal_dcg = np.cumsum(_GAIN[ideal] / _discounts(len(ideal)))
        return _Judged(judged, R, len(judged) - R, ideal_dcg, self.max_grade)

    def _graded(self, ranked: RankedList):
        """The grade at each rank of ``ranked`` (-1 where unjudged), and its
        query's judgments: what every metric reads."""
        j = self._by_query.get(ranked.query_id, self._unjudged)
        n = len(ranked.doc_ids)
        return np.fromiter(map(j.grades.get, ranked.doc_ids, repeat(-1)), np.int64, n), j

    def grade(self, qid: str, doc_id: str) -> int | None:
        """Grade of a judged document, None when unjudged."""
        return self._by_query.get(qid, self._unjudged).grades.get(doc_id)

    def query_ids(self):
        return set(self._by_query)


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


# Each metric is a kernel over a grade vector ``g`` and judgments ``j``,
# which ``_METRIC_FNS`` serves, and a public form on a ranked list.


def _ap(g, j: _Judged, depth: int = 1000) -> float:
    ranks = np.flatnonzero(g[:depth] > 0) + 1
    return _sum(np.arange(1, len(ranks) + 1) / ranks) / j.R if j.R else 0.0


def _ndcg(g, j: _Judged, cutoff: int | None = None) -> float:
    ideal, got = j.ideal_dcg[:cutoff], g[:cutoff]
    if not len(ideal) or ideal[-1] == 0.0:
        return 0.0
    return _sum(_GAIN[got] / _discounts(len(got))) / float(ideal[-1])


def _bpref(g, j: _Judged) -> float:
    # with no judged non-relevant document, none is ranked above
    nonrel_above = np.minimum(np.cumsum(g == 0)[g > 0], j.R)
    return _sum(1.0 - nonrel_above / (min(j.R, j.N) or 1)) / j.R if j.R else 0.0


def _err(g, j: _Judged, k: int = 20) -> float:
    r = _GAIN[g[:k]] / 2.0**j.max_grade
    keep_going = np.concatenate(([1.0], np.cumprod(1.0 - r)[:-1]))
    return _sum(keep_going * r / np.arange(1, len(r) + 1)) if j.max_grade else 0.0


def _precision(g, j: _Judged, k: int = 10) -> float:
    return np.count_nonzero(g[:k] > 0) / k if len(g) else 0.0


def average_precision(ranked: RankedList, qrels: Qrels, depth: int = 1000) -> float:
    """Mean of precision at each relevant retrieved rank, over R."""
    return _ap(*qrels._graded(ranked), depth)


def ndcg(ranked: RankedList, qrels: Qrels, cutoff: int | None = None) -> float:
    """Discounted cumulative gain over the ideal ordering's, at a cutoff."""
    return _ndcg(*qrels._graded(ranked), cutoff)


def bpref(ranked: RankedList, qrels: Qrels) -> float:
    """Binary preference over judged documents only."""
    return _bpref(*qrels._graded(ranked))


def err_at_k(ranked: RankedList, qrels: Qrels, k: int = 20) -> float:
    """Expected reciprocal rank with grade-probability stopping."""
    return _err(*qrels._graded(ranked), k)


def precision_at(ranked: RankedList, qrels: Qrels, k: int = 10) -> float:
    return _precision(*qrels._graded(ranked), k)


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
    "map": _ap,
    "p10": _precision,
    "ndcg": _ndcg,
    "ndcg10": lambda g, j: _ndcg(g, j, 10),
    "bpref": _bpref,
    "err20": _err,
}


def check_metrics(metrics, kind: str = "metric") -> None:
    """Raise ``UsageError`` naming the first of ``metrics`` not in ``METRICS``."""
    for m in metrics:
        if m not in _METRIC_FNS:
            raise UsageError(f"unknown {kind} {m!r}")


def check_tuning(grid, folds: int, objective: str) -> None:
    """``cv_tune``'s checks on its settings, which read no data."""
    check_metrics([objective], "objective")
    if not grid:
        raise UsageError("empty grid")
    if folds < 2:
        raise UsageError("need at least two folds")


def evaluate_run(ranked_lists, qrels: Qrels, metrics=METRICS) -> MetricReport:
    """Per-query and mean metric values over the qid intersection.

    Query ids present on only one side are flagged and skipped.
    """
    check_metrics(metrics)
    run_ids = {rl.query_id for rl in ranked_lists}
    qrel_ids = qrels.query_ids()
    common = run_ids & qrel_ids
    flags = []
    if run_ids - qrel_ids:
        flags.append(f"unjudged query ids skipped: {sorted(run_ids - qrel_ids)}")
    if qrel_ids - run_ids:
        flags.append(f"missing from run: {sorted(qrel_ids - run_ids)}")
    if not common:
        raise UsageError(_NO_SHARED_QUERIES)
    per_query: dict[str, dict[str, float]] = {m: {} for m in metrics}
    for rl in ranked_lists:
        if rl.query_id not in common:
            continue
        g, judged = qrels._graded(rl)
        if not judged.R:
            flags.append(f"query {rl.query_id} has no relevant judgments")
        for m in metrics:
            per_query[m][rl.query_id] = _METRIC_FNS[m](g, judged)
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
    check_tuning(grid, folds, objective)
    queries = sorted(queries, key=lambda q: q.query_id)
    for a, b in zip(queries, queries[1:]):
        if a.query_id == b.query_id:
            raise UsageError(f"query id {a.query_id!r} repeated")
    if len(queries) < folds:
        raise UsageError("need at least one query per fold")
    fold_of = {q.query_id: i * folds // len(queries) for i, q in enumerate(queries)}

    # rank every query once per grid value and keep its METRICS values, not
    # its list: what evaluate_run would give on the held-out lists
    fns = [_METRIC_FNS[m] for m in METRICS]
    rows: dict[float, dict[str, tuple[float, ...]]] = {}
    for value in grid:
        config = config_factory(value)
        rows[value] = {}
        for q in queries:
            g, j = qrels._graded(_rank(q, index, config, k))
            rows[value][q.query_id] = tuple(fn(g, j) for fn in fns)
    at = METRICS.index(objective)

    def means(kept):
        return {m: sum(column) / len(kept) for m, column in zip(METRICS, zip(*kept))}

    judged = qrels.query_ids()
    fold_results = []
    held_out = []  # each judged test query's values, in fold order
    for f in range(folds):
        train = [q.query_id for q in queries if fold_of[q.query_id] != f]
        test = [q.query_id for q in queries if fold_of[q.query_id] == f and q.query_id in judged]
        if not test:
            raise UsageError(_NO_SHARED_QUERIES)
        best_value = None
        best_score = -math.inf
        for value in grid:  # grid order; first (smallest) wins ties
            s = sum(rows[value][qid][at] for qid in train) / len(train)
            if s > best_score:
                best_value, best_score = value, s
        kept = [rows[best_value][qid] for qid in test]
        fold_results.append({"fold": f, "best": best_value, "test_mean": means(kept)})
        held_out += kept
    return fold_results, means(held_out)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


_SLICE = 1 << 16  # characters read at once, extended to the next "\n"


def _columns(text: str, name: str, width: int, kinds, line_fault):
    """Per (i, kind) of ``kinds``, field i of every non-blank line of a
    ``width``-field whitespace-separated file, converted by ``kind``: an
    ``int`` or ``float`` column is one numpy array (object-dtype Python ints
    where a rank or grade overflows int64), any other a list. The text is
    read a slice of whole lines at a time; ``str.split`` splits at every
    ``splitlines`` boundary too. A line of another width, or a field its
    kind rejects, raises the first bad line's message."""
    cols = [[] for _ in kinds]
    lo = 0
    try:
        while lo < len(text):
            hi = text.find("\n", lo + _SLICE) + 1 or len(text)
            part, lo = text[lo:hi], hi
            if set(map(len, map(str.split, part.splitlines()))) - {0, width}:
                _raise_first_fault(text, name, width, line_fault)
            fields = part.split()
            for col, (i, kind) in zip(cols, kinds):
                values = fields[i::width]
                if kind in (int, float):
                    col.append(_numbers(kind, values))
                else:
                    col += values if kind is str else map(kind, values)
    except ValueError:
        _raise_first_fault(text, name, width, line_fault)
    for c, (_, kind) in enumerate(kinds):  # one column's parts and whole at a time
        if kind in (int, float):
            cols[c] = np.concatenate(cols[c] or [np.empty(0, np.dtype(kind))])
    return cols


def _numbers(kind, values: list[str]) -> np.ndarray:
    try:
        return np.fromiter(map(kind, values), np.dtype(kind), len(values))
    except OverflowError:  # an int past int64, kept exact
        return np.array(list(map(kind, values)), dtype=object)


def _raise_first_fault(text: str, name: str, width: int, line_fault):
    """The line-by-line checks, for the first offending line's message: its
    width, then ``line_fault(fields, seen)``, where the checks share ``seen``."""
    seen = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if fields:
            msg = line_fault(fields, seen) if len(fields) == width else f"expected {width} fields"
            if msg:
                raise FormatError(f"{name} line {lineno}: {msg}")


def _qrels_line_fault(fields, seen):
    try:
        g = int(fields[3])
    except ValueError:
        return f"bad grade {fields[3]!r}"
    return None if 0 <= g <= MAX_GRADE else f"grade {fields[3]!r} outside 0..{MAX_GRADE}"


def _run_line_fault(fields, seen):
    qid, _, doc_id, pos, score, _tag = fields
    try:
        int(pos), float(score)
    except ValueError:
        return "bad rank or score"
    if (qid, doc_id) in seen:
        return f"document {doc_id!r} listed twice for query {qid!r}"
    seen.add((qid, doc_id))
    return None


def parse_qrels(text: str) -> Qrels:
    """``qid 0 docid grade`` whitespace-separated, one judgment per line;
    the last of a repeated (qid, docid) wins."""
    kinds = ((0, sys.intern), (2, sys.intern), (3, int))
    qids, doc_ids, grades = _columns(text, "qrels", 4, kinds, _qrels_line_fault)
    if not len(grades):
        raise FormatError("empty qrels")
    if not (0 <= grades.min() and grades.max() <= MAX_GRADE):
        _raise_first_fault(text, "qrels", 4, _qrels_line_fault)
    return Qrels._of(zip(qids, doc_ids, grades.tolist()))


def format_qrels(qrels: Qrels) -> str:
    lines = [f"{qid} 0 {doc} {grade}" for (qid, doc), grade in qrels.grades.items()]
    return "\n".join(lines) + "\n"


def parse_run(text: str) -> list[RankedList]:
    """Parse a 6-column run into ranked lists, by query id, each in rank
    order (file order among equal ranks). Listing a document twice for one
    query is an error."""
    kinds = ((0, sys.intern), (2, sys.intern), (3, int), (4, float))
    qids, doc_ids, ranks, scores = _columns(text, "run", 6, kinds, _run_line_fault)
    names = sorted(set(qids))
    code = dict(zip(names, range(len(names))))
    codes = np.fromiter(map(code.__getitem__, qids), np.int64, len(qids))
    del qids  # free each column once used: held together they set the peak
    order = np.lexsort((ranks, codes))  # stable: by (qid, rank), then file order
    bounds = [0, *np.cumsum(np.bincount(codes, minlength=len(names))).tolist()]
    del ranks, codes
    lists = []
    for qid, lo, hi in zip(names, bounds, bounds[1:]):
        at = order[lo:hi]
        docs = list(map(doc_ids.__getitem__, at.tolist()))
        if len(set(docs)) < len(docs):
            _raise_first_fault(text, "run", 6, _run_line_fault)
        lists.append(RankedList(qid, docs, scores[at]))
    if not lists:
        raise FormatError("empty run")
    return lists


