"""IR metrics, significance testing, file formats and tuning."""

import math
import sys

import numpy as np
import pytest

from adrank.corpus import QueryRecord, build_index
from adrank.errors import FormatError, UsageError
from adrank.evaluation import (
    Qrels,
    average_precision,
    bpref,
    cv_tune,
    err_at_k,
    evaluate_run,
    format_qrels,
    ndcg,
    paired_t_test,
    parse_qrels,
    parse_run,
    precision_at,
)
from adrank.ranking import RankedList, format_trec_run, parse_model_spec
from memory import peak_and_retained
from planted import build_crossover_corpus
from test_reference_oracles import ref_parse_run


def _rl(qid, *doc_ids):
    return RankedList(qid, list(doc_ids), np.arange(len(doc_ids), 0, -1, dtype=np.float64))


class TestAveragePrecision:
    def test_all_relevant_on_top(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 1, ("q", "c"): 0})
        assert average_precision(_rl("q", "a", "b", "c"), qr) == 1.0

    def test_hand_case(self):
        qr = Qrels({("q", "a"): 1, ("q", "c"): 1, ("q", "b"): 0, ("q", "x"): 0})
        ap = average_precision(_rl("q", "a", "b", "c"), qr)
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)
        assert ap == pytest.approx(0.833333, abs=1e-6)

    def test_none_retrieved(self):
        qr = Qrels({("q", "z"): 1})
        assert average_precision(_rl("q", "a", "b"), qr) == 0.0

    def test_unretrieved_relevant_counts_against(self):
        qr = Qrels({("q", "a"): 1, ("q", "z"): 1})
        assert average_precision(_rl("q", "a"), qr) == 0.5


class TestNdcg:
    def test_ideal_is_one(self):
        qr = Qrels({("q", "a"): 2, ("q", "b"): 1, ("q", "c"): 0})
        assert ndcg(_rl("q", "a", "b", "c"), qr) == pytest.approx(1.0)

    def test_hand_case(self):
        qr = Qrels({("q", "a"): 0, ("q", "b"): 1})
        assert ndcg(_rl("q", "a", "b"), qr) == pytest.approx(0.630930, abs=1e-6)

    def test_equal_grades_swap_invariant(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 1, ("q", "c"): 0})
        assert ndcg(_rl("q", "a", "b", "c"), qr) == ndcg(_rl("q", "b", "a", "c"), qr)

    def test_cutoff(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 1})
        val = ndcg(_rl("q", "x", "a"), qr, cutoff=1)
        assert val == 0.0

    def test_all_zero_grades(self):
        qr = Qrels({("q", "a"): 0})
        assert ndcg(_rl("q", "a"), qr) == 0.0


class TestBpref:
    def test_no_nonrelevant_above(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 1, ("q", "c"): 0})
        assert bpref(_rl("q", "a", "b", "c"), qr) == 1.0

    def test_single_inversion(self):
        qr = Qrels({("q", "bad"): 0, ("q", "good"): 1})
        assert bpref(_rl("q", "bad", "good"), qr) == 0.0

    def test_unjudged_ignored(self):
        qr = Qrels({("q", "bad"): 0, ("q", "good"): 1})
        with_unjudged = _rl("q", "u1", "bad", "u2", "good", "u3")
        without = _rl("q", "bad", "good")
        assert bpref(with_unjudged, qr) == bpref(without, qr)


class TestErr:
    def test_single_top_doc(self):
        qr = Qrels({("q", "a"): 1})
        assert err_at_k(_rl("q", "a"), qr) == pytest.approx(0.5)

    def test_all_zero(self):
        qr = Qrels({("q", "a"): 0})
        assert err_at_k(_rl("q", "a"), qr) == 0.0

    def test_perfect_doc_at_rank_two(self):
        qr = Qrels({("q", "z"): 0, ("q", "a"): 3})
        r = (2.0**3 - 1.0) / 2.0**3
        assert err_at_k(_rl("q", "z", "a"), qr) == pytest.approx(r / 2.0)

    def test_stopping_mass_decays(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 1})
        val = err_at_k(_rl("q", "a", "b"), qr)
        assert val == pytest.approx(0.5 + 0.5 * 0.5 / 2.0)


class TestMetricRangeAndMonotonicity:
    def test_all_metrics_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            docs = [f"d{i}" for i in range(12)]
            grades = {("q", d): int(g) for d, g in zip(docs, rng.integers(0, 3, 12))}
            qr = Qrels(grades)
            order = list(rng.permutation(docs))
            rl = _rl("q", *order)
            for val in (
                average_precision(rl, qr),
                ndcg(rl, qr),
                bpref(rl, qr),
                err_at_k(rl, qr),
                precision_at(rl, qr, 10),
            ):
                assert 0.0 <= val <= 1.0

    def test_swapping_relevant_upward_never_hurts(self):
        rng = np.random.default_rng(1)
        qr = Qrels({("q", f"d{i}"): int(g) for i, g in enumerate(rng.integers(0, 2, 10))})
        order = [f"d{i}" for i in rng.permutation(10)]
        rl = _rl("q", *order)
        for i in range(1, 10):
            above = qr.grade("q", order[i - 1]) or 0
            here = qr.grade("q", order[i]) or 0
            if here > above:
                swapped = order.copy()
                swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                rl2 = _rl("q", *swapped)
                assert average_precision(rl2, qr) >= average_precision(rl, qr)
                assert ndcg(rl2, qr) >= ndcg(rl, qr)
                assert err_at_k(rl2, qr) >= err_at_k(rl, qr)


class TestPairedT:
    def test_hand_case(self):
        d = np.array([1.5] * 5 + [0.5] * 5)
        d = (d - d.mean()) / d.std(ddof=1) + 1.0  # mean 1, sd 1
        t, p = paired_t_test(list(d), [0.0] * 10)
        assert t == pytest.approx(math.sqrt(10.0), rel=1e-12)
        assert p == pytest.approx(0.0115, abs=5e-4)

    def test_symmetric_differences(self):
        a = [1.0, -1.0, 2.0, -2.0]
        t, p = paired_t_test(a, [0.0] * 4)
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_shifted_with_tiny_noise(self):
        rng = np.random.default_rng(2)
        b = list(rng.uniform(0, 1, 30))
        a = [x + 1.0 + 1e-4 * rng.standard_normal() for x in b]
        t, p = paired_t_test(a, b)
        assert abs(t) > 100 and p < 1e-10

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        a = list(rng.uniform(size=12))
        b = list(rng.uniform(size=12))
        t1, p1 = paired_t_test(a, b)
        t2, p2 = paired_t_test(b, a)
        assert t1 == pytest.approx(-t2)
        assert p1 == pytest.approx(p2)

    def test_degenerate(self):
        t, p = paired_t_test([1.0, 2.0], [1.0, 2.0])
        assert math.isnan(t) and math.isnan(p)


class TestRoundTrips:
    def test_qrels(self):
        qr = Qrels({("q1", "a"): 2, ("q2", "b"): 0})
        assert parse_qrels(format_qrels(qr)).grades == qr.grades

    def test_grades_view_is_sorted_and_read_only(self):
        qr = parse_qrels("q2 0 b 1\nq1 0 z 0\nq2 0 a 3\nq1 0 c 2\nq2 0 b 2\n")
        assert list(qr.grades.items()) == [
            (("q1", "c"), 2), (("q1", "z"), 0), (("q2", "a"), 3), (("q2", "b"), 2)
        ]  # fmt: skip
        with pytest.raises(TypeError):
            qr.grades[("q1", "c")] = 0
        assert format_qrels(qr) == "q1 0 c 2\nq1 0 z 0\nq2 0 a 3\nq2 0 b 2\n"

    def test_readers_intern_ids(self):
        # a run and its qrels then share one string per id
        qrels = parse_qrels("q1 0 d7 1\nq2 0 d7 0\n")
        run = parse_run("q2 Q0 d7 1 2.0 t\n")
        (doc_id,) = run[0].doc_ids
        assert doc_id is sys.intern("d7")
        assert all(d is doc_id for _, d in qrels.grades)

    def test_run(self):
        lists = [_rl("q1", "a", "b"), _rl("q2", "c")]
        back = parse_run(format_trec_run(lists, tag="t"))
        assert [rl.query_id for rl in back] == ["q1", "q2"]
        assert back[0].doc_ids == ["a", "b"]
        assert back[0].scores.tolist() == [2.0, 1.0]

    def test_run_read_in_chunks(self):
        # more lines than parse_run reads in one slice, out of rank order
        lists = [_rl(f"q{i}", *(f"d{j}" for j in range(2500))) for i in range(8)]
        lines = format_trec_run(lists, tag="t").splitlines()
        back = parse_run("\n".join(lines[::-1]))
        assert [rl.query_id for rl in back] == [rl.query_id for rl in lists]
        assert all(b.doc_ids == a.doc_ids for a, b in zip(lists, back))
        assert all(b.scores.tolist() == a.scores.tolist() for a, b in zip(lists, back))
        lines[12_345] = lines[12_345].replace(" t", " t extra")
        with pytest.raises(FormatError, match="^run line 12346: expected 6 fields$"):
            parse_run("\n".join(lines))

    def test_bad_formats(self):
        with pytest.raises(FormatError):
            parse_qrels("q1 0 d\n")
        with pytest.raises(FormatError):
            parse_run("q1 Q0 d1 one 2.0 tag\n")
        with pytest.raises(FormatError):
            parse_qrels("")


def _rows(lists):
    return [(rl.query_id, rl.doc_ids, rl.scores.tolist()) for rl in lists]


class TestRunOrder:
    """Rows sort by (query id, rank), then file order, as the line-by-line
    reference sorts them: for ranks past int64, and across slices."""

    def test_ranks_past_int64(self):
        ranks = [2**63 + 1, 3, -(2**63) - 1, 2**63, -2]  # 2**63 and 2**63 + 1 are one float
        text = "".join(f"q1 Q0 d{i} {r} {i}.5 t\n" for i, r in enumerate(ranks)) + "q0 Q0 d9 1 0.5 t\n"
        back = parse_run(text)
        assert _rows(back) == ref_parse_run(text)
        assert back[1].doc_ids == ["d2", "d4", "d1", "d3", "d0"]

    def test_equal_ranks_keep_file_order(self):
        text = "q1 Q0 b 2 1 t\nq2 Q0 x 5 1 t\nq1 Q0 c 1 1 t\nq1 Q0 a 2 1 t\nq1 Q0 d 2 1 t\n"
        back = parse_run(text)
        assert _rows(back) == ref_parse_run(text)
        assert back[0].doc_ids == ["c", "b", "a", "d"]

    def test_rank_past_int64_in_a_later_slice(self):
        lines = [f"q{i % 3} Q0 d{i} {i // 3 % 7} 1.0 t" for i in range(12_000)]
        lines += ["q1 Q0 big 99999999999999999999 2.0 t", "q1 Q0 small -99999999999999999999 3.0 t"]
        text = "\n".join(lines)
        assert len(text) > 3 << 16
        assert _rows(parse_run(text)) == ref_parse_run(text)

    def test_fault_past_the_first_slice_names_its_line(self):
        lines = [f"q1 Q0 d{i} {i} 1.0 t" for i in range(10_000)]
        lines[7_000] = "q1 Q0 d7000 7000 one t"
        text = "\n".join(lines)
        assert len("\n".join(lines[:7_000])) > 1 << 16
        with pytest.raises(FormatError, match="^run line 7001: bad rank or score$"):
            parse_run(text)
        with pytest.raises(FormatError, match="^run line 7001: bad rank or score$"):
            ref_parse_run(text)


class TestRunMemory:
    """Peak memory of parse_run against a bound about a third above what
    the sliced parse measures on this run (60 000 lines: 100 queries of 600
    documents out of 10 000): 3.04 bytes a text byte. Splitting the whole
    text into lines and fields at once, with a Python int and float per
    field, measured 9.36."""

    def test_parse_run_peak(self):
        gen = np.random.default_rng(23)
        lists = [
            RankedList(f"q{i:03d}", [f"d{j:05d}" for j in gen.choice(10_000, 600, replace=False)],
                       np.sort(gen.random(600) * 20.0)[::-1])
            for i in range(100)
        ]  # fmt: skip
        text = format_trec_run(lists, tag="adrank")
        back, peak, _ = peak_and_retained(parse_run, text)
        assert [rl.doc_ids for rl in back] == [rl.doc_ids for rl in lists]
        assert peak / len(text) < 4.0


class TestEvaluateRun:
    def test_perfect_run(self):
        qr = Qrels({("q", "a"): 1, ("q", "b"): 0})
        report = evaluate_run([_rl("q", "a", "b")], qr)
        assert report.mean["map"] == 1.0
        assert report.mean["ndcg"] == 1.0

    def test_intersection_with_warning(self):
        qr = Qrels({("q1", "a"): 1, ("q9", "x"): 1})
        report = evaluate_run([_rl("q1", "a"), _rl("q2", "b")], qr)
        assert report.flags
        assert set(report.per_query["map"]) == {"q1"}

    def test_disjoint_rejected(self):
        qr = Qrels({("q9", "x"): 1})
        with pytest.raises(UsageError):
            evaluate_run([_rl("q1", "a")], qr)


class TestCvTune:
    @staticmethod
    def _corpus_with_crossover():
        index, queries, grades, factory = build_crossover_corpus()
        return index, queries, Qrels(grades), factory

    def test_single_value_grid(self):
        index, queries, qrels, factory = self._corpus_with_crossover()
        folds, _ = cv_tune(queries, qrels, index, factory, [2.0], folds=3)
        assert all(fr["best"] == 2.0 for fr in folds)

    def test_constant_objective_takes_smallest(self):
        index, queries, qrels, factory = self._corpus_with_crossover()
        constant = lambda c: factory(1.0)
        folds, _ = cv_tune(queries, qrels, index, constant, [0.5, 1.0, 2.0], folds=3)
        assert all(fr["best"] == 0.5 for fr in folds)

    def test_dominant_middle_value_chosen_every_fold(self):
        index, queries, qrels, factory = self._corpus_with_crossover()
        grid = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0]
        folds, test_mean = cv_tune(queries, qrels, index, factory, grid, folds=3)
        assert all(fr["best"] == 1.0 for fr in folds)
        assert test_mean["map"] == pytest.approx(1.0)

    def test_preconditions(self):
        index, queries, qrels, factory = self._corpus_with_crossover()
        with pytest.raises(UsageError):
            cv_tune(queries[:2], qrels, index, factory, [1.0], folds=3)
        with pytest.raises(UsageError):
            cv_tune(queries, qrels, index, factory, [], folds=3)
        for folds in (1, 0):  # one fold leaves no training queries
            with pytest.raises(UsageError):
                cv_tune(queries, qrels, index, factory, [1.0], folds=folds)

    def test_fold_without_judged_queries_rejected(self):
        # the held-out fold is a run that shares no query id with the qrels
        index, queries, qrels, factory = self._corpus_with_crossover()
        unjudged = [QueryRecord(f"q9{i}", ["pad"], "pad") for i in range(3)]
        with pytest.raises(UsageError, match="^run and qrels share no query ids$"):
            cv_tune(queries + unjudged, qrels, index, factory, [1.0], folds=3)

    def test_repeated_query_id_rejected(self):
        # each query's values are keyed by id, so a repeat would drop one
        index, queries, qrels, factory = self._corpus_with_crossover()
        repeat = QueryRecord(queries[1].query_id, ["pad"], "pad")
        with pytest.raises(UsageError, match=f"query id {repeat.query_id!r} repeated"):
            cv_tune(queries + [repeat], qrels, index, factory, [1.0], folds=3)


class TestEvaluationMemory:
    """Memory the qrels and tuning hold, in tracemalloc's count."""

    def test_qrels_retained_and_peak(self):
        """200 queries judge 100 documents each out of 3 000, so document ids
        repeat across queries: 53 bytes retained per judgment and a
        tracemalloc peak of 5.5 bytes per text byte, against 184 and 13.1
        when every judgment was held twice (a flat dict with tuple keys and
        the index) with an uninterned string per line. The bounds are about
        a quarter above the first two."""
        gen = np.random.default_rng(5)
        text = "".join(
            f"q{q:03d} 0 d{d:05d} {g}\n"
            for q in range(200)
            for d, g in zip(gen.choice(3_000, 100, replace=False), gen.integers(0, 3, 100))
        )
        qrels, peak, retained = peak_and_retained(parse_qrels, text)
        assert len(qrels.grades) == 20_000
        assert retained / 20_000 < 70.0
        assert peak / len(text) < 7.0

    def test_cv_tune_peak_flat_in_grid_size(self):
        """Six grid values against one, 30 queries whose lists hold about
        1 000 documents: each extra (grid value, query) pair raises the peak
        by about 0.2 KB of kept metric values. Keeping its ranked list, 16 KB
        of ids and scores, raised it by 17 KB. The bound is 2 KB."""
        gen = np.random.default_rng(11)
        words = [f"w{i}" for i in range(40)]
        index = build_index((f"d{i:05d}", " ".join(gen.choice(words, 30))) for i in range(3_000))
        queries = [
            QueryRecord(f"q{i:02d}", [words[i], words[(7 * i + 3) % 40]], "") for i in range(30)
        ]
        qrels = Qrels({
            (q.query_id, f"d{d:05d}"): int(g)
            for q in queries
            for d, g in zip(gen.choice(3_000, 50, replace=False), gen.integers(0, 3, 50))
        })  # fmt: skip
        factory = lambda c: parse_model_spec("PL2-Tdc", c=c)
        cv_tune(queries, qrels, index, factory, [1.0])  # first-call set-up off the books
        _, one, _ = peak_and_retained(cv_tune, queries, qrels, index, factory, [1.0])
        _, six, _ = peak_and_retained(cv_tune, queries, qrels, index, factory, [0.5, 1, 2, 4, 6, 8])
        assert (six - one) / (5 * len(queries)) < 2048


class TestNoRelevantFlag:
    def test_query_without_relevant_docs_scores_zero_and_flags(self):
        qr = Qrels({("q1", "a"): 1, ("q2", "b"): 0})
        report = evaluate_run([_rl("q1", "a"), _rl("q2", "b")], qr, ("map",))
        assert report.per_query["map"]["q2"] == 0.0
        assert any("q2" in f and "no relevant" in f for f in report.flags)


class TestQrelsIndex:
    def test_other_queries_leave_per_query_values_unchanged(self):
        run = [_rl("q1", "a", "b", "c", "d", "e")]
        own = {("q1", "a"): 2, ("q1", "c"): 1, ("q1", "d"): 0, ("q1", "x"): 1}
        # grades within q1's maximum, since ERR normalises by the global one
        other = {("q2", "a"): 0, ("q2", "b"): 2, ("q2", "c"): 1, ("q2", "z"): 0}
        alone = evaluate_run(run, Qrels(dict(own)))
        mixed = evaluate_run(run, Qrels({**other, **own}))
        assert mixed.per_query == alone.per_query
