"""Goodness-of-fit statistics and the pairwise selection procedure."""

import math

import numpy as np
import pytest
import scipy.integrate
from memory import peak_and_retained

from adrank import selection
from adrank.distributions import (
    FitOptions,
    FittedModel,
    ModelId,
    Sample,
    log_likelihood,
    mle_fit,
    nested_pairs,
    random_sample,
    weighted_sum,
)
from adrank.errors import BoundaryError, DomainError, SupportError, UsageError
from adrank.numerics import RandomSource, std_normal_cdf
from adrank.selection import (
    ad_statistic,
    aicc,
    build_vuong_table,
    ks_statistic,
    nested_lr_test,
    select_best,
    vuong_nonnested_test,
)

DISCRETE = [
    ModelId.GEOMETRIC,
    ModelId.NEGATIVE_BINOMIAL,
    ModelId.POISSON,
    ModelId.POWERLAW,
    ModelId.YULE_SIMON,
]


def _fake_fit(model, pointwise):
    """A fit of ``model`` whose log-density at the i-th of len(pointwise)
    observations, each seen once, is ``pointwise[i]``."""
    pw = np.asarray(pointwise, dtype=np.float64)
    sample = Sample(np.arange(pw.size), np.ones(pw.size), True)
    fit = FittedModel(model, {}, sample, float(np.sum(pw)), aicc=0.0)
    fit.log_density = lambda x: pw[x.astype(np.intp)]
    return fit


def _fit_of_size(model, n):
    """A fit of ``model`` on n copies of one observation."""
    return FittedModel(model, {}, Sample([0.0], [float(n)], True), 0.0, aicc=0.0)


class TestAicc:
    def test_hand_value(self):
        fit = _fit_of_size(ModelId.EXPONENTIAL, 10)
        assert aicc(fit) == pytest.approx(2.5)

    def test_correction_vanishes(self):
        fit = _fit_of_size(ModelId.EXPONENTIAL, 10_000_000)
        assert aicc(fit) == pytest.approx(2.0, abs=1e-5)

    def test_penalty_monotone_in_k(self):
        small = _fit_of_size(ModelId.EXPONENTIAL, 100)
        big = _fit_of_size(ModelId.GEV, 100)
        assert aicc(small) < aicc(big)

    def test_same_formula_as_the_fit(self):
        fit = mle_fit(ModelId.GAMMA, Sample.of(np.array([1.0, 2.0, 2.0, 5.0, 9.0]), False))
        assert aicc(fit) == fit.aicc

    def test_undefined_correction(self):
        fit = _fit_of_size(ModelId.EXPONENTIAL, 2)
        with pytest.raises(DomainError):
            aicc(fit)


class TestVuong:
    def test_identical_fits_degenerate(self):
        pw = np.array([-1.0, -2.0, -0.5])
        z, p, lr = vuong_nonnested_test(
            _fake_fit(ModelId.POISSON, pw), _fake_fit(ModelId.GEOMETRIC, pw)
        )
        assert math.isnan(z) and math.isnan(p)
        assert lr == 0.0

    def test_alternating_differences(self):
        a = _fake_fit(ModelId.POISSON, [1.0, -1.0, 1.0, -1.0])
        b = _fake_fit(ModelId.GEOMETRIC, [0.0, 0.0, 0.0, 0.0])
        z, p, lr = vuong_nonnested_test(a, b)
        assert lr == 0.0 and z == 0.0 and p == pytest.approx(1.0)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        pa = rng.normal(size=200)
        pb = rng.normal(size=200)
        f1 = _fake_fit(ModelId.POISSON, pa)
        f2 = _fake_fit(ModelId.GEOMETRIC, pb)
        z12, p12, lr12 = vuong_nonnested_test(f1, f2)
        z21, p21, lr21 = vuong_nonnested_test(f2, f1)
        assert z12 == pytest.approx(-z21)
        assert lr12 == pytest.approx(-lr21)
        assert p12 == pytest.approx(p21)

    def test_shared_constant_leaves_z_unchanged(self):
        rng = np.random.default_rng(3)
        pa, pb = rng.normal(size=100), rng.normal(size=100)
        z1, _, _ = vuong_nonnested_test(
            _fake_fit(ModelId.POISSON, pa), _fake_fit(ModelId.GEOMETRIC, pb)
        )
        z2, _, _ = vuong_nonnested_test(
            _fake_fit(ModelId.POISSON, pa + 5.0), _fake_fit(ModelId.GEOMETRIC, pb + 5.0)
        )
        assert z1 == pytest.approx(z2)

    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_z_uses_centred_variance(self, offset):
        # E[m^2] - E[m]^2 loses about 5 digits once the mean of m is 1e6
        rng = np.random.default_rng(3)
        pa, pb = rng.normal(size=100) + offset, rng.normal(size=100)
        z, _, _ = vuong_nonnested_test(
            _fake_fit(ModelId.POISSON, pa), _fake_fit(ModelId.GEOMETRIC, pb)
        )
        m = pa - pb
        assert z == pytest.approx(np.sum(m) / (math.sqrt(m.size) * np.std(m)), rel=1e-9)

    def test_poisson_vs_gaussian_simulation(self):
        hits = 0
        for seed in range(40):
            samp = random_sample(ModelId.POISSON, {"lam": 5.0}, 1000, RandomSource(seed))
            fp = mle_fit(ModelId.POISSON, samp)
            fg = mle_fit(ModelId.GAUSSIAN, samp)
            z, p, _ = vuong_nonnested_test(fp, fg)
            if z > 0 and p < 0.05:
                hits += 1
        assert hits >= 36  # >= 90%

    def test_size_mismatch(self):
        with pytest.raises(UsageError):
            vuong_nonnested_test(
                _fake_fit(ModelId.POISSON, np.zeros(3)),
                _fake_fit(ModelId.GEOMETRIC, np.zeros(4)),
            )


class TestNestedLr:
    def test_equal_likelihood(self):
        r = _fake_fit(ModelId.EXPONENTIAL, np.full(10, -1.0))
        f = _fake_fit(ModelId.GAMMA, np.full(10, -1.0))
        d, df, p = nested_lr_test(r, f)
        assert d == 0.0 and df == 1
        assert p == pytest.approx(1.0)

    def test_chi2_critical_value(self):
        # d = 3.841 on one degree of freedom sits at the 0.05 level
        r = _fake_fit(ModelId.EXPONENTIAL, np.full(10, -3.841 / 20.0))
        f = _fake_fit(ModelId.GAMMA, np.zeros(10))
        d, df, p = nested_lr_test(r, f)
        assert d == pytest.approx(3.841)
        assert p == pytest.approx(0.05, abs=5e-4)

    def test_gamma_data_prefers_full_model(self):
        samp = random_sample(ModelId.GAMMA, {"a": 3.0, "b": 1.0}, 10_000, RandomSource(4))
        fr = mle_fit(ModelId.EXPONENTIAL, samp)
        ff = mle_fit(ModelId.GAMMA, samp)
        _, _, p = nested_lr_test(fr, ff)
        assert p < 0.01

    def test_non_nested_pair_rejected(self):
        with pytest.raises(UsageError):
            nested_lr_test(
                _fake_fit(ModelId.POISSON, np.zeros(5)),
                _fake_fit(ModelId.GAUSSIAN, np.zeros(5)),
            )


class TestKs:
    def test_hand_enumeration(self):
        s = Sample.of(np.array([1.0, 2.0, 3.0]), False)
        assert ks_statistic(s, lambda x: np.clip(np.asarray(x) / 4.0, 0, 1)) == 0.25

    def test_quantile_construction(self):
        n = 99
        xs = np.array([(i + 1) / (n + 1) for i in range(n)])
        s = Sample.of(xs, False)
        d = ks_statistic(s, lambda x: np.clip(np.asarray(x), 0, 1))
        assert d <= 1.0 / (n + 1) + 1e-12

    def test_degenerate_mass_far_left(self):
        s = Sample.of(np.array([5.0]), False)
        d = ks_statistic(s, lambda x: np.ones_like(np.asarray(x, dtype=float)))
        assert d == 1.0

    def test_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = Sample.of(np.sort(rng.uniform(size=17)), False)
            d = ks_statistic(s, lambda x: np.clip(np.asarray(x), 0, 1))
            assert 0.0 <= d <= 1.0


class TestAd:
    def test_hand_single_point(self):
        s = Sample.of(np.array([0.5]), False)
        val = ad_statistic(s, lambda x: np.asarray(x, dtype=float))
        assert val == pytest.approx(-1.0 - 2.0 * math.log(0.5), abs=1e-9)
        assert val == pytest.approx(0.386294, abs=1e-6)

    def test_hand_two_points(self):
        s = Sample.of(np.array([0.25, 0.75]), False)
        val = ad_statistic(s, lambda x: np.asarray(x, dtype=float))
        assert val == pytest.approx(0.249341, abs=1e-6)

    def test_boundary_error(self):
        s = Sample.of(np.array([0.0, 0.5]), False)
        with pytest.raises(BoundaryError):
            ad_statistic(s, lambda x: np.asarray(x, dtype=float))

    def test_matches_weighted_quadrature(self):
        # the closed form must agree with direct integration of the
        # weighted squared CDF discrepancy for small uniform samples
        rng = np.random.default_rng(8)
        for n in (1, 2, 3, 5):
            x = np.sort(rng.uniform(0.05, 0.95, size=n))
            s = Sample.of(x, False)

            def integrand(t):
                fn = np.searchsorted(x, t, side="right") / n
                return (fn - t) ** 2 / (t * (1.0 - t))

            pieces = np.concatenate(([0.0], x, [1.0]))
            total = 0.0
            for a, b in zip(pieces[:-1], pieces[1:]):
                val, _ = scipy.integrate.quad(integrand, a, b, limit=200)
                total += val
            expected = n * total
            got = ad_statistic(s, lambda t: np.asarray(t, dtype=float))
            assert got == pytest.approx(expected, abs=1e-3)


class TestVuongTable:
    def test_structure_on_yule_data(self):
        samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 20_000, RandomSource(5))
        table = build_vuong_table(samp, options=FitOptions(restarts=0, tol=1e-6))
        assert len(table.models) == 16
        # one cell per unordered pair
        assert len(table.cells) == 16 * 15 // 2
        assert set(table.aicc_row) == set(table.models)
        # the exponential/yule cell must carry the yule-preferred sign:
        # column-model preference is a negative LR
        cell = table.cells[(ModelId.EXPONENTIAL, ModelId.YULE_SIMON)]
        assert cell.lr < 0
        assert table.best_discrete is ModelId.YULE_SIMON
        tsv = table.to_tsv()
        assert tsv.splitlines()[-1].startswith("AICc")
        assert "selected" in table.to_records()

    def test_nested_cells_use_lr_test(self):
        samp = random_sample(ModelId.GAMMA, {"a": 2.0, "b": 1.0}, 3000, RandomSource(6))
        table = build_vuong_table(
            samp,
            [ModelId.EXPONENTIAL, ModelId.GAMMA, ModelId.LOGNORMAL],
            options=FitOptions(restarts=0),
        )
        assert table.cells[(ModelId.EXPONENTIAL, ModelId.GAMMA)].method == "nested_lr"
        assert table.cells[(ModelId.GAMMA, ModelId.LOGNORMAL)].method == "vuong"

    def test_nested_pair_gives_one_verdict_in_either_order(self):
        # gamma(2) data, where the full model (gamma) beats its restriction
        samp = random_sample(ModelId.GAMMA, {"a": 2.0, "b": 1.0}, 100, RandomSource(6))
        opts = FitOptions(restarts=0)
        pair = [ModelId.EXPONENTIAL, ModelId.GAMMA]
        restricted_first = build_vuong_table(samp, pair, options=opts)
        full_first = build_vuong_table(samp, pair[::-1], options=opts)
        a = restricted_first.cells[tuple(pair)]
        b = full_first.cells[tuple(pair[::-1])]
        assert a.method == b.method == "nested_lr"
        assert 0.0 < b.p_value == a.p_value < 0.05
        assert b.lr == -a.lr > 0
        assert full_first.wins == restricted_first.wins == {ModelId.GAMMA: 1, ModelId.EXPONENTIAL: 0}
        assert full_first.best_overall is restricted_first.best_overall is ModelId.GAMMA

    def test_failures_recorded_and_excluded(self):
        samp = random_sample(ModelId.GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}, 2000, RandomSource(7))
        table = build_vuong_table(
            samp,
            [ModelId.GAUSSIAN, ModelId.POISSON, ModelId.LOGISTIC],
            options=FitOptions(restarts=0),
        )
        assert ModelId.POISSON in table.failures
        assert ModelId.POISSON not in table.models

    def test_all_fail_raises(self):
        samp = Sample.of(np.array([-1.5, -2.5, -3.5, -0.5]), False)
        with pytest.raises(SupportError):
            build_vuong_table(samp, [ModelId.POISSON, ModelId.GAMMA])

    def test_select_best_unanimous_winner(self):
        samp = random_sample(ModelId.GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}, 20_000, RandomSource(8))
        table = build_vuong_table(samp, options=FitOptions(restarts=0, tol=1e-6))
        overall, discrete, agree = select_best(table)
        assert overall is ModelId.GAUSSIAN
        assert isinstance(agree, bool)

    def test_tie_breaks_by_lower_aicc(self):
        samp = random_sample(ModelId.POISSON, {"lam": 3.0}, 500, RandomSource(9))
        table = build_vuong_table(samp, [ModelId.POISSON, ModelId.GEOMETRIC])
        # force a tie to exercise the tie-break path
        table.wins = {m: 0 for m in table.models}
        overall, _, _ = select_best(table)
        assert table.tie_broken_by_aicc
        assert table.aicc_row[overall] == min(table.aicc_row.values())

    def test_selection_consistency_grows_with_n(self):
        ns = (500, 5000)
        rates = []
        for n in ns:
            hits = 0
            for seed in range(8):
                samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, n, RandomSource(50 + seed))
                table = build_vuong_table(samp, DISCRETE, options=FitOptions(restarts=0))
                hits += table.best_discrete is ModelId.YULE_SIMON
            rates.append(hits)
        assert rates[1] >= rates[0]
        assert rates[1] >= 7


def _array_cell(f1, f2):
    """(lr, z, p, method) of a pair as the table computed them while every
    fit held its n-length log-density array: one whole-array difference m,
    lr = weighted_sum(c, m) and omega2 = weighted_sum(c, (m - lr/n)**2)/n."""
    sample = f1.sample
    c, n = sample.counts, sample.n
    m = f1.log_density(sample.support) - f2.log_density(sample.support)
    lr = weighted_sum(c, m)
    for restricted, full in ((f1, f2), (f2, f1)):
        if (restricted.model, full.model) in nested_pairs():
            return lr, None, nested_lr_test(restricted, full)[2], "nested_lr"
    with np.errstate(over="ignore"):
        omega2 = weighted_sum(c, (m - lr / n) ** 2) / n
    if omega2 <= 0.0:
        return lr, math.nan, math.nan, "indistinguishable"
    z = lr / (math.sqrt(n) * math.sqrt(omega2))
    return lr, z, 2.0 * (1.0 - std_normal_cdf(abs(z))), "vuong"


def _bits(x):
    return np.float64(x).tobytes()


class TestStreamedTableMatchesArrays:
    """The table streams the sample a block at a time; every cell must
    equal, bit for bit and sign of zero included, what the array-holding
    computation gives."""

    @staticmethod
    def _check(table):
        for (a, b), cell in table.cells.items():
            f1, f2 = table.fitted[a], table.fitted[b]
            lr, z, p, method = _array_cell(f1, f2)
            assert (cell.method, _bits(cell.lr), _bits(cell.p_value)) == (method, _bits(lr), _bits(p))
            if method != "nested_lr":
                assert [_bits(v) for v in vuong_nonnested_test(f1, f2)] == [_bits(z), _bits(p), _bits(lr)]

    @pytest.mark.parametrize("n, models", [
        (2_000, [ModelId.GAUSSIAN, ModelId.LOGISTIC, ModelId.EXPONENTIAL, ModelId.GAMMA]),
        (30_000, [ModelId.GAUSSIAN, ModelId.LOGISTIC, ModelId.LOGNORMAL, ModelId.EXPONENTIAL,
                  ModelId.GAMMA, ModelId.WEIBULL, ModelId.RAYLEIGH, ModelId.NAKAGAMI]),
    ])  # fmt: skip
    def test_real_samples(self, n, models):
        samp = random_sample(ModelId.GAUSSIAN, {"mu": 100.0, "sigma2": 225.0}, n, RandomSource(11))
        assert (n <= 8192) == (samp.support.size <= 8192) and samp.support.size != 3 * 8192
        table = build_vuong_table(samp, models, options=FitOptions(restarts=0))
        for fit in table.fitted.values():
            assert _bits(fit.total_loglik) == _bits(log_likelihood(fit.model, fit.params, samp)[0])
        self._check(table)

    def test_integer_sample(self):
        samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 20_000, RandomSource(12))
        table = build_vuong_table(samp, DISCRETE + [ModelId.EXPONENTIAL, ModelId.WEIBULL,
                                                    ModelId.LOGNORMAL], options=FitOptions(restarts=0))  # fmt: skip
        assert len(table.cells) == 28
        self._check(table)

    def test_zero_lr_and_zero_variance_pairs(self, monkeypatch):
        alternating = np.array([1.0, -1.0] * 5000)  # two blocks
        fakes = {
            ModelId.GAUSSIAN: _fake_fit(ModelId.GAUSSIAN, np.full(10_000, -0.0)),  # m of -0.0 against the zeros
            ModelId.POISSON: _fake_fit(ModelId.POISSON, np.zeros(10_000)),
            ModelId.GEOMETRIC: _fake_fit(ModelId.GEOMETRIC, np.zeros(10_000)),  # lr +0.0, indistinguishable
            ModelId.LOGISTIC: _fake_fit(ModelId.LOGISTIC, alternating),  # lr 0.0 with unit variance
            ModelId.YULE_SIMON: _fake_fit(ModelId.YULE_SIMON, -alternating),
        }
        monkeypatch.setattr(selection, "mle_fit", lambda model, sample, options=None: fakes[model])
        table = build_vuong_table(fakes[ModelId.POISSON].sample, list(fakes))
        cells = table.cells
        assert cells[(ModelId.POISSON, ModelId.GEOMETRIC)].method == "indistinguishable"
        assert cells[(ModelId.GAUSSIAN, ModelId.LOGISTIC)].lr == 0.0
        assert cells[(ModelId.LOGISTIC, ModelId.YULE_SIMON)].p_value == 1.0
        self._check(table)

    def test_negative_zero_lr(self, monkeypatch):
        # a one-term dot product keeps the sign of -0.0; a longer one does not
        fakes = {
            ModelId.GAUSSIAN: _fake_fit(ModelId.GAUSSIAN, [-0.0]),
            ModelId.POISSON: _fake_fit(ModelId.POISSON, [0.0]),
        }
        monkeypatch.setattr(selection, "mle_fit", lambda model, sample, options=None: fakes[model])
        table = build_vuong_table(fakes[ModelId.POISSON].sample, list(fakes))
        cell = table.cells[(ModelId.GAUSSIAN, ModelId.POISSON)]
        assert cell.method == "indistinguishable" and math.copysign(1.0, cell.lr) == -1.0
        self._check(table)


class TestTableMemory:
    def test_result_holds_no_copy_of_the_sample(self):
        # each fit refers to the caller's sample; the parent held one
        # 8-byte log-density per distinct value for every fitted model
        samp = random_sample(ModelId.GAUSSIAN, {"mu": 100.0, "sigma2": 225.0}, 60_000, RandomSource(13))
        assert samp.support.size >= 50_000
        table, _, retained = peak_and_retained(build_vuong_table, samp, list(ModelId), FitOptions(restarts=0))
        assert len(table.fitted) == 11
        assert retained / samp.support.size < 8.0
