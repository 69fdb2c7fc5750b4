"""Special functions against independent oracles, and the optimizer."""

import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from adrank.errors import DomainError, OptimizationInitError
from adrank.numerics import (
    OptimizationProblem,
    RandomSource,
    digamma,
    hurwitz_zeta,
    log_gamma,
    log_std_normal_cdf,
    nelder_mead_minimize,
    newton_root,
    regularized_incomplete_beta,
    regularized_incomplete_gamma_lower,
    std_normal_cdf,
    trigamma,
    zeta_jet,
)


class TestLogGamma:
    def test_trivial_values(self):
        assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_accuracy_on_contract_interval(self):
        x = np.linspace(0.5, 170.0, 4001)
        err = np.abs(log_gamma(x) - scipy.special.gammaln(x))
        assert np.max(err) < 1e-10

    def test_recurrence(self):
        x = np.linspace(0.5, 50.0, 500)
        lhs = log_gamma(x + 1.0)
        rhs = log_gamma(x) + np.log(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_small_arguments(self):
        x = np.linspace(1e-3, 0.5, 200)
        err = np.abs(log_gamma(x) - scipy.special.gammaln(x))
        assert np.max(err) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestPolygamma:
    GRID = np.concatenate([np.geomspace(1e-3, 1e6, 20_001), np.linspace(1.0, 12.0, 2_001)])

    @pytest.mark.parametrize(
        "ours, ref",
        [(digamma, scipy.special.digamma), (trigamma, lambda x: scipy.special.polygamma(1, x))],
    )
    def test_against_scipy(self, ours, ref):
        # relative, and absolute near digamma's root at 1.4616
        want = ref(self.GRID)
        err = np.abs(ours(self.GRID) - want) / np.maximum(np.abs(want), 1.0)
        assert np.max(err) <= 1e-14

    def test_scalars_and_known_values(self):
        assert isinstance(digamma(2.5), float) and isinstance(trigamma(np.float64(2.5)), float)
        assert digamma(1.0) == pytest.approx(-0.5772156649015329, rel=1e-15)
        assert trigamma(1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
        assert digamma(1e300) == pytest.approx(math.log(1e300), rel=1e-15)

    def test_domain(self):
        for fn in (digamma, trigamma):
            with pytest.raises(DomainError):
                fn(0.0)
            with pytest.raises(DomainError):
                fn(np.array([1.0, -2.0]))


class TestNewtonRoot:
    def test_quadratic_from_far_below_and_above(self):
        for x0 in (1e-6, 0.3, 5.0, 1e6):
            res = newton_root(lambda x: (x * x - 2.0, 2.0 * x), x0, 200)
            assert res.converged and res.root == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_bisection_takes_over_when_newton_leaves_the_bracket(self):
        # arctan's Newton steps diverge from x0 = 3 without the bracket
        res = newton_root(lambda x: (math.atan(x - 2.0), 1.0 / (1.0 + (x - 2.0) ** 2)), 6.0, 200)
        assert res.converged and res.root == pytest.approx(2.0, rel=1e-14)

    def test_flat_slope_bisects(self):
        seen = []

        def fd(x):
            seen.append(x)
            return x - 1.0, 0.0 if len(seen) == 1 else 1.0

        assert newton_root(fd, 4.0, 50).converged and seen[1] == 2.0  # halved towards 0

    def test_cap_and_non_finite_fail(self):
        res = newton_root(lambda x: (x * x - 2.0, 2.0 * x), 100.0, 3)
        assert not res.converged and res.iterations == 3
        res = newton_root(lambda x: (math.nan, 1.0), 1.0, 50)
        assert not res.converged and res.iterations == 1

    def test_no_root_doubles_until_the_cap(self):
        res = newton_root(lambda x: (-1.0 / x, 1.0 / (x * x)), 1.0, 40)
        assert not res.converged and res.root == 2.0**40


class TestHurwitzZeta:
    def test_basel(self):
        assert hurwitz_zeta(2.0, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-9)

    def test_apery(self):
        assert hurwitz_zeta(3.0, 1.0) == pytest.approx(1.2020569031595943, rel=1e-9)

    def test_shift(self):
        assert hurwitz_zeta(2.0, 2.0) == pytest.approx(
            math.pi**2 / 6.0 - 1.0, rel=1e-9
        )

    def test_shift_identity_grid(self):
        for alpha in (1.5, 2.0, 2.5, 3.7):
            for m in (2, 3, 7):
                partial = sum(k ** (-alpha) for k in range(1, m))
                lhs = hurwitz_zeta(alpha, float(m))
                rhs = hurwitz_zeta(alpha, 1.0) - partial
                assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_against_scipy(self):
        for alpha in (1.1, 1.5, 2.5, 4.0, 8.0):
            for q in (1.0, 2.0, 10.5, 1e4):
                assert hurwitz_zeta(alpha, q) == pytest.approx(
                    float(scipy.special.zeta(alpha, q)), rel=1e-9
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(1.0, 1.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)


def _mp_ln_z(alpha, q, head=40, terms=12):
    """ln(q^alpha zeta(alpha, q)) in mpmath: 40 terms summed directly and
    a 12-term Euler-Maclaurin tail, relative to q^-alpha. mpmath's own
    zeta loses digits in its alpha-derivatives for q of 1e3 and more."""
    a = q + head
    tail = a / (alpha - 1) + mpmath.mpf(1) / 2
    for k in range(1, terms + 1):
        tail += mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k) * mpmath.rf(alpha, 2 * k - 1) / a ** (2 * k - 1)
    z = mpmath.fsum((1 + n / q) ** -alpha for n in range(head)) + (a / q) ** -alpha * tail
    return mpmath.log(z)


def _mp_zeta_jet(alpha, q):
    """(ln Z, E[L], Var[L]) for Z = q^alpha zeta(alpha, q) and L = ln(X/q), in
    mpmath, the alpha-derivatives by mpmath.diffs."""
    with mpmath.workdps(40):
        ln_z, d1, d2 = mpmath.diffs(lambda t: _mp_ln_z(t, mpmath.mpf(q)), mpmath.mpf(alpha), 2)
        return ln_z, -d1, d2


class TestZetaJet:
    @pytest.mark.parametrize("alpha", [1.01, 1.5, 2.5, 7.0, 20.0, 50.0])
    def test_against_mpmath(self, alpha):
        # ln zeta, E[ln X] and Var[ln X]
        for q in (1.0, 2.0, 7.0, 30.0, 1e3, 12345.0, 1e6):
            ln_z, mean, var = zeta_jet(alpha, q)
            got = (float(ln_z) - alpha * math.log(q), float(mean) + math.log(q), float(var))
            with mpmath.workdps(40):
                w_ln_z, w_mean, w_var = _mp_zeta_jet(alpha, q)
                lq = mpmath.log(mpmath.mpf(q))
                want = (float(w_ln_z - alpha * lq), float(w_mean + lq), float(w_var))
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-14, abs=0.0), (alpha, q)

    @pytest.mark.parametrize("alpha", [1.01, 2.5, 50.0])
    def test_q_near_the_float_maximum(self, alpha):
        # relative to q^-alpha, where zeta itself underflows or ln X swamps L
        for q in (1e300, 1.7e308):
            for g, w in zip(zeta_jet(alpha, q), _mp_zeta_jet(alpha, q)):
                assert float(g) == pytest.approx(float(w), rel=1e-14, abs=0.0), (alpha, q)

    def test_arrays_are_the_scalars(self):
        q = np.array([1.0, 3.0, 17.0, 1e5])
        for got, want in zip(zeta_jet(2.5, q), zip(*(zeta_jet(2.5, v) for v in q))):
            assert got.tobytes() == np.array(want).tobytes()
        # the power-law sampler passes int(xmin), which can pass 2^64
        assert zeta_jet(2.5, 2**70) == zeta_jet(2.5, float(2**70))

    def test_huge_alpha_is_the_first_terms(self):
        # past alpha = 3(q + 16) the tail's series diverges: capped, it stays
        # finite, and far below the first terms
        ln_z, mean, var = zeta_jet(200.0, 1.0)
        assert float(ln_z) == pytest.approx(2.0**-200 + 3.0**-200, rel=1e-14, abs=0.0)
        assert float(mean) == pytest.approx(math.log(2.0) * 2.0**-200 + math.log(3.0) * 3.0**-200, rel=1e-14, abs=0.0)
        assert float(var) == pytest.approx(math.log(2.0) ** 2 * 2.0**-200, rel=1e-10, abs=0.0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        alpha=st.floats(1.01, 50.0),
        q=st.floats(1.0, 1e6),
    )
    def test_shift_recurrence(self, alpha, q):
        # zeta(alpha, q) = q^-alpha + zeta(alpha, q + 1), relative to q^-alpha:
        # Z(q) = 1 + (q/(q + 1))^alpha Z(q + 1)
        here, shifted = float(zeta_jet(alpha, q)[0]), float(zeta_jet(alpha, q + 1.0)[0])
        want = math.log1p(math.exp(shifted - alpha * math.log1p(1.0 / q)))
        assert here == pytest.approx(want, rel=1e-14, abs=1e-15)


class TestIncompleteGamma:
    def test_exponential_identity(self):
        for x in (0.0, 0.3, 1.0, 5.0):
            assert regularized_incomplete_gamma_lower(1.0, x) == pytest.approx(
                1.0 - math.exp(-x), abs=1e-12
            )

    def test_quadrature_oracle(self):
        a, x = 2.5, 2.5
        integrand = lambda t: t ** (a - 1) * math.exp(-t)
        integral, _ = scipy.integrate.quad(integrand, 0.0, x)
        expected = integral / math.exp(scipy.special.gammaln(a))
        assert regularized_incomplete_gamma_lower(a, x) == pytest.approx(
            expected, rel=1e-10
        )

    def test_monotone_and_limits(self):
        xs = np.linspace(0.0, 60.0, 300)
        vals = regularized_incomplete_gamma_lower(3.2, xs)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-14)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            regularized_incomplete_gamma_lower(0.0, 1.0)
        with pytest.raises(DomainError):
            regularized_incomplete_gamma_lower(1.0, -0.1)


class TestIncompleteBeta:
    def test_endpoints_and_uniform(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        assert regularized_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3)

    def test_symmetry(self):
        assert regularized_incomplete_beta(2.0, 2.0, 0.5) == pytest.approx(0.5)

    def test_reflection(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = rng.uniform(0.2, 8.0, 2)
            x = rng.uniform(0.01, 0.99)
            lhs = regularized_incomplete_beta(a, b, x)
            rhs = 1.0 - regularized_incomplete_beta(b, a, 1.0 - x)
            assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b = rng.uniform(0.2, 20.0, 2)
            x = rng.uniform(0.0, 1.0)
            assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                float(scipy.special.betainc(a, b, x)), abs=1e-11
            )


class TestNormalCdf:
    def test_values(self):
        assert std_normal_cdf(0.0) == 0.5
        assert std_normal_cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
        assert std_normal_cdf(-3.0) == pytest.approx(1.0 - std_normal_cdf(3.0), abs=1e-15)


class TestLogNormalCdf:
    def test_against_scipy(self):
        # far above 10, ln Phi(z) = -Q(z) inherits 2 z^2 times the rounding
        # of z / sqrt(2): about 1e-13 relative at 30, in scipy too
        z = np.concatenate([np.linspace(-60.0, 10.0, 7_001), [-1e5, -1e3, -20.0001, -19.9999]])
        want = scipy.special.log_ndtr(z)
        got = log_std_normal_cdf(z)
        assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-13
        assert log_std_normal_cdf(0.0) == math.log(0.5)
        assert isinstance(log_std_normal_cdf(-30.0), float)


class TestRandomSource:
    def test_identical_seeds_identical_streams(self):
        a = RandomSource(123).generator.uniform(size=1000)
        b = RandomSource(123).generator.uniform(size=1000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RandomSource(1).generator.uniform(size=10)
        b = RandomSource(2).generator.uniform(size=10)
        assert not np.array_equal(a, b)


class TestNelderMead:
    def test_quadratic_bowl(self):
        prob = OptimizationProblem(
            lambda v: (v[0] - 3.0) ** 2 + (v[1] + 1.0) ** 2, [0.0, 0.0]
        )
        res = nelder_mead_minimize(prob)
        assert res.converged
        assert np.allclose(res.argmin, [3.0, -1.0], atol=1e-6)

    def test_rosenbrock_with_restarts(self):
        prob = OptimizationProblem(
            lambda v: (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2, [-1.2, 1.0]
        )
        res = nelder_mead_minimize(prob, restarts=3)
        assert res.restarts_used >= 1
        assert np.allclose(res.argmin, [1.0, 1.0], atol=1e-4)

    def test_exponential_mle_matches_sample_mean(self):
        data = np.array([1.0, 2.0, 3.0])

        def negll(theta):
            mu = theta[0]
            return data.size * math.log(mu) + np.sum(data) / mu

        prob = OptimizationProblem(negll, [1.0], parameter_transforms=("log",))
        res = nelder_mead_minimize(prob)
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-6)

    def test_convex_quadratics_up_to_dim_4(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 4):
            for _ in range(3):
                m = rng.normal(size=(dim, dim))
                a = m @ m.T + dim * np.eye(dim)
                target = rng.uniform(-2.0, 2.0, size=dim)
                prob = OptimizationProblem(
                    lambda v, a=a, t=target: float((v - t) @ a @ (v - t)),
                    np.zeros(dim),
                )
                res = nelder_mead_minimize(prob, tol=1e-10)
                assert res.converged
                assert np.allclose(res.argmin, target, atol=1e-5)

    def test_transforms_keep_domain(self):
        # minimise over a positive and a unit-interval coordinate
        prob = OptimizationProblem(
            lambda v: (v[0] - 2.0) ** 2 + (v[1] - 0.25) ** 2,
            [1.0, 0.5],
            parameter_transforms=("log", "logit"),
        )
        res = nelder_mead_minimize(prob)
        assert res.argmin[0] == pytest.approx(2.0, abs=1e-6)
        assert res.argmin[1] == pytest.approx(0.25, abs=1e-6)

    def test_nonfinite_everywhere_is_init_error(self):
        prob = OptimizationProblem(lambda v: math.nan, [0.0])
        with pytest.raises(OptimizationInitError):
            nelder_mead_minimize(prob)

    def test_nonfinite_regions_are_rejected_not_replaced(self):
        # objective is -inf-free but undefined (NaN) left of 1; the minimum
        # at 1.5 must still be found starting from the defined side
        def f(v):
            if v[0] < 1.0:
                return math.nan
            return (v[0] - 1.5) ** 2

        res = nelder_mead_minimize(OptimizationProblem(f, [3.0]))
        assert res.argmin[0] == pytest.approx(1.5, abs=1e-6)
        assert math.isfinite(res.min_value)

    def test_iteration_cap_flags_nonconvergence(self):
        prob = OptimizationProblem(
            lambda v: (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2, [-1.2, 1.0]
        )
        res = nelder_mead_minimize(prob, max_iter=5, restarts=0)
        assert not res.converged

    def test_determinism(self):
        prob = OptimizationProblem(
            lambda v: (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2, [-1.2, 1.0]
        )
        r1 = nelder_mead_minimize(prob, rng=RandomSource(9))
        r2 = nelder_mead_minimize(prob, rng=RandomSource(9))
        assert np.array_equal(r1.argmin, r2.argmin)
        assert r1.min_value == r2.min_value
        assert r1.iterations == r2.iterations
