"""Histogram series, log-log exponent estimation and subsampling."""

import math

import numpy as np
import pytest

from adrank.distributions import ModelId, Sample, random_sample
from adrank.empirics import (
    HistogramSeries,
    eccdf,
    log_binned_histogram,
    loglog_exponent_estimate,
    ols_fit,
    raw_histogram,
    subsample,
)
from adrank.errors import DomainError, SupportError, UsageError
from adrank.numerics import RandomSource
from test_corpus import observations


class TestRawHistogram:
    def test_hand_counts(self):
        s = Sample.of(np.array([1.0, 1.0, 2.0]), True)
        assert raw_histogram(s).points == [(1.0, 2 / 3), (2.0, 1 / 3)]

    def test_single_value(self):
        assert raw_histogram(Sample.of(np.array([5.0]), True)).points == [(5.0, 1.0)]

    def test_mass_sums_to_one(self):
        samp = random_sample(ModelId.POWERLAW, {"alpha": 2.5, "xmin": 1.0}, 20_000, RandomSource(1))
        ys = [y for _, y in raw_histogram(samp).points]
        assert sum(ys) == pytest.approx(1.0, abs=1e-9)

    def test_requires_discrete(self):
        with pytest.raises(SupportError):
            raw_histogram(Sample.of(np.array([1.5]), False))


class TestEccdf:
    def test_hand_counts_with_geq_convention(self):
        s = Sample.of(np.array([1.0, 1.0, 2.0]), True)
        assert eccdf(s).points == [(1.0, 1.0), (2.0, 1 / 3)]

    def test_single_value(self):
        assert eccdf(Sample.of(np.array([7.0]), True)).points == [(7.0, 1.0)]

    def test_last_point_is_max_multiplicity(self):
        s = Sample.of(np.array([1.0, 4.0, 4.0, 9.0, 9.0, 9.0]), True)
        assert eccdf(s).points[-1] == (9.0, 0.5)

    def test_complement_consistency(self):
        samp = random_sample(ModelId.POISSON, {"lam": 4.0}, 500, RandomSource(2))
        points = eccdf(samp).points
        vals = observations(samp)
        for x, y in points:
            frac_lt = float(np.mean(vals < x))
            assert y + frac_lt == pytest.approx(1.0, abs=1e-12)


class TestLogBinned:
    def test_edges_base_two(self):
        # bins for c=2, k=2 are [1,1], [2,3], [4,7]
        s = Sample.of(np.array([1.0, 2.0, 3.0, 4.0, 7.0]), True)
        series = log_binned_histogram(s, base=2, k=2)
        mids = [x for x, _ in series.points]
        assert mids == [1.0, math.sqrt(6.0), math.sqrt(28.0)]

    def test_hand_counts(self):
        s = Sample.of(np.array([1.0, 1.0, 2.0, 3.0]), True)
        series = log_binned_histogram(s, base=2, k=1)
        assert series.points == [(1.0, 0.5), (math.sqrt(6.0), 0.25)]

    def test_uniform_mass_flat(self):
        k = 3
        xs = np.arange(1, 2 ** (k + 1), dtype=np.float64)
        series = log_binned_histogram(Sample.of(xs, True), base=2, k=k)
        ys = [y for _, y in series.points]
        assert max(ys) == pytest.approx(min(ys))

    def test_partition_no_gaps(self):
        base, k = 3, 4
        edges = [(base**i, base ** (i + 1) - 1) for i in range(k + 1)]
        assert edges[0][0] == 1
        for (lo1, hi1), (lo2, _) in zip(edges, edges[1:]):
            assert lo2 == hi1 + 1

    def test_coverage_warning(self):
        s = Sample.of(np.array([1.0, 100.0]), True)
        series = log_binned_histogram(s, base=2, k=2)
        assert any("coverage" in note for note in series.notes)

    def test_empty_bins_dropped_and_noted(self):
        s = Sample.of(np.array([1.0, 64.0]), True)
        series = log_binned_histogram(s, base=2, k=6)
        assert any("dropped" in note for note in series.notes)
        assert all(y > 0 for _, y in series.points)


class TestOls:
    def test_line(self):
        fit = ols_fit([(0.0, 1.0), (1.0, 3.0), (2.0, 5.0)])
        assert fit.intercept == pytest.approx(1.0)
        assert fit.slope == pytest.approx(2.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_two_points(self):
        fit = ols_fit([(0.0, 0.0), (1.0, 1.0)])
        assert (fit.intercept, fit.slope) == (0.0, 1.0)

    def test_symmetric_residuals_leave_line_unchanged(self):
        noisy = []
        for x in np.linspace(0, 5, 10):
            y = 2.0 * x + 1.0
            noisy += [(x, y + 0.5), (x, y - 0.5)]
        fit = ols_fit(noisy)
        assert fit.slope == pytest.approx(2.0, abs=1e-9)
        assert fit.intercept == pytest.approx(1.0, abs=1e-9)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, 10, 40)
        y = 3.0 - 0.7 * x + rng.normal(0, 0.3, 40)
        fit = ols_fit(np.column_stack([x, y]))
        resid = y - (fit.intercept + fit.slope * x)
        assert abs(float(np.sum(resid))) < 1e-8
        assert abs(float(np.sum(x * resid))) < 1e-7

    def test_degenerate_x(self):
        with pytest.raises(DomainError):
            ols_fit([(1.0, 0.0), (1.0, 2.0)])


class TestLoglogExponent:
    def test_noiseless_power_series(self):
        xs = np.arange(1, 60, dtype=np.float64)
        series = HistogramSeries([(float(x), float(x**-2.5)) for x in xs], "raw_normalized")
        assert loglog_exponent_estimate(series) == pytest.approx(2.5, abs=1e-10)

    def test_eccdf_default_correction_is_plus_one(self):
        xs = np.arange(1, 60, dtype=np.float64)
        series = HistogramSeries([(float(x), float(x**-1.5)) for x in xs], "eccdf")
        assert loglog_exponent_estimate(series) == pytest.approx(2.5, abs=1e-10)

    def test_raw_histogram_underestimates(self):
        med = []
        for seed in range(15):
            samp = random_sample(ModelId.POWERLAW, {"alpha": 2.5, "xmin": 1.0}, 20_000, RandomSource(seed))
            med.append(loglog_exponent_estimate(raw_histogram(samp)))
        assert float(np.median(med)) < 2.0

    def test_nonpositive_coordinate_rejected(self):
        series = HistogramSeries([(1.0, 0.5), (2.0, 0.0)], "raw_normalized")
        with pytest.raises(DomainError):
            loglog_exponent_estimate(series)


class TestSubsample:
    def test_full_fraction_is_permutation(self):
        values = list(range(50))
        out = subsample(values, "simple", 1.0, RandomSource(1))
        assert sorted(out) == values
        assert out != values  # shuffled with overwhelming probability

    def test_exact_size_no_duplicates(self):
        out = subsample(list(range(1000)), "simple", 0.1, RandomSource(2))
        assert len(out) == 100
        assert len(set(out)) == 100

    def test_prefix_relationship(self):
        small = subsample(list(range(200)), "simple", 0.1, RandomSource(3))
        large = subsample(list(range(200)), "simple", 0.4, RandomSource(3))
        assert large[: len(small)] == small

    def test_systematic_size_and_determinism(self):
        a = subsample(list(range(1000)), "systematic", 0.1, RandomSource(4))
        b = subsample(list(range(1000)), "systematic", 0.1, RandomSource(4))
        assert a == b
        assert len(a) == 100

    def test_stratified(self):
        values = list(range(100))
        out = subsample(
            values, "stratified", 0.2, RandomSource(5), strata=[(0, 49), (50, 99)]
        )
        assert len(out) == 20
        assert sum(1 for v in out if v < 50) == 10

    def test_empty_stratum_rejected(self):
        with pytest.raises(UsageError):
            subsample([1, 2, 3], "stratified", 0.5, RandomSource(6), strata=[(10, 20), (0, 5)])

    def test_uncovered_input_rejected(self):
        with pytest.raises(UsageError):
            subsample([1, 2, 30], "stratified", 0.5, RandomSource(7), strata=[(0, 5)])

    def test_bad_fraction(self):
        with pytest.raises(DomainError):
            subsample([1, 2], "simple", 0.0, RandomSource(8))

    def test_subsampled_yule_still_selects_yule(self):
        master = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 30_000, RandomSource(9))
        vals = observations(master).tolist()
        from adrank.selection import build_vuong_table

        hits = 0
        for seed in range(5):
            sub = subsample(vals, "simple", 0.1, RandomSource(seed))
            samp = Sample.of(sub, True)
            table = build_vuong_table(
                samp,
                [ModelId.GEOMETRIC, ModelId.NEGATIVE_BINOMIAL, ModelId.POISSON,
                 ModelId.POWERLAW, ModelId.YULE_SIMON],
            )
            hits += table.best_discrete is ModelId.YULE_SIMON
        assert hits == 5
