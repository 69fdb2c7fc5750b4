"""Newton fits of the six models with a profile score, of the GEV and of
the generalized Pareto, against scipy (a test-only oracle) and against the
Nelder-Mead simplex; the power law's and the generalized Pareto's near
k = 0 against mpmath roots of their scores, and the GEV's derivatives
through k = 0 against mpmath; ``_damped_newton``, the loop of the GEV
and the logistic, on small problems whose answers are known.

The six models have no other solver. The simplex they used before, from
the start points kept below and the transforms their declared parameter
domains give, stays a reference their likelihood must never fall below.
The GP keeps the simplex for integer samples only; on every sample the
GEV's Newton fit either converges, ends unconverged, or names the
direction in which its likelihood has no regular maximum."""

import functools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrank import distributions
from adrank.distributions import (
    ModelId,
    Sample,
    log_likelihood,
    mle_fit,
    random_sample,
    weighted_sum,
)
from adrank.errors import AdrankError, DegenerateSampleError
from adrank.numerics import RandomSource
from memory import peak_and_retained
from test_corpus import observations
from test_reference_oracles import _ref_gev_newton

NEWTON_MODELS = (
    ModelId.GAMMA,
    ModelId.LOGISTIC,
    ModelId.NAKAGAMI,
    ModelId.NEGATIVE_BINOMIAL,
    ModelId.WEIBULL,
    ModelId.YULE_SIMON,
)
GP = ModelId.GENERALIZED_PARETO
# the GEV's two ends with no regular maximum
GEV_WALL = "gev likelihood has no maximum with k > -1/2 on this sample"
GEV_RIDGE = "gev likelihood grows without bound on this sample as k grows"
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _reals(seed, n=20_000):
    # more distinct values than one block, so every sum has several blocks
    return Sample.of(np.random.default_rng(seed).normal(100.0, 15.0, n), False)


def _brentq(score, lo, hi):
    return scipy.optimize.brentq(score, lo, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps)


def _gamma_start(x, c):
    m, v = distributions._mean(x, c), distributions._var(x, c)
    return [max(m**2 / max(v, 1e-12), 1e-3), max(v / max(m, 1e-12), 1e-8)]


def _logistic_start(x, c):
    return [distributions._mean(x, c), math.sqrt(distributions._var(x, c)) * math.sqrt(3.0) / math.pi]


def _nakagami_start(x, c):
    x2 = x**2
    om, v = distributions._mean(x2, c), distributions._var(x2, c)
    return [max(om**2 / v if v > 0 else 1.0, 0.1), om]


def _negative_binomial_start(x, c):
    m, v = distributions._mean(x, c), distributions._var(x, c)
    if v <= m:
        v = m * 1.5 + 1e-6
    p0 = min(max(1.0 - m / v, 1e-4), 1.0 - 1e-4)
    return [max(m * (1.0 - p0) / p0, 1e-3), p0]


def _weibull_start(x, c):
    sd = math.sqrt(distributions._var(np.log(x), c))
    return [distributions._mean(x, c), 1.2 / sd if sd > 0 else 1.0]


def _yule_simon_start(x, c):
    m = distributions._mean(x, c)
    return [max(m / (m - 1.0), 0.05)] if m > 1.05 else [10.0]


# the simplex's start point of each Newton model, as it was when the
# simplex fitted these models (the GEV's on integer samples)
_SIMPLEX_START = {
    ModelId.GAMMA: _gamma_start,
    ModelId.GEV: distributions._gev_init,
    ModelId.LOGISTIC: _logistic_start,
    ModelId.NAKAGAMI: _nakagami_start,
    ModelId.NEGATIVE_BINOMIAL: _negative_binomial_start,
    ModelId.WEIBULL: _weibull_start,
    ModelId.YULE_SIMON: _yule_simon_start,
}


def _simplex_fit(model, sample):
    """The Nelder-Mead fit: from the reference start for a Newton model,
    from ``_gp_init`` for the GP."""
    spec = distributions._SPECS[model]
    start = _SIMPLEX_START.get(model, distributions._gp_init)
    x, c = sample.support, sample.counts
    params, _ = distributions._fit_by_simplex(spec, x, c, start(x, c))
    return params


def test_declared_domains_give_the_transforms_the_simplex_used():
    # the transforms each spec listed, and the test reference of the Newton
    # models, before they came from the parameter domains; without them the
    # optimizer would search every coordinate on the whole line
    listed = {
        ModelId.EXPONENTIAL: ("log",),
        ModelId.GAMMA: ("log", "log"),
        ModelId.GAUSSIAN: ("identity", "log"),
        ModelId.GEV: ("identity", "log", "identity"),
        ModelId.GENERALIZED_PARETO: ("identity", "log", "identity"),
        ModelId.GEOMETRIC: ("logit",),
        ModelId.INVERSE_GAUSSIAN: ("log", "log"),
        ModelId.LOGISTIC: ("identity", "log"),
        ModelId.LOGNORMAL: ("identity", "log"),
        ModelId.NAKAGAMI: ("log", "log"),
        ModelId.NEGATIVE_BINOMIAL: ("log", "logit"),
        ModelId.POISSON: ("log",),
        ModelId.RAYLEIGH: ("log",),
        ModelId.WEIBULL: ("log", "log"),
        ModelId.YULE_SIMON: ("log",),
    }
    derived = {
        model: tuple(domain.transform for _, domain in spec.params)
        for model, spec in distributions._SPECS.items()
        if model is not ModelId.POWERLAW  # the power law has no simplex fit
    }
    assert derived == listed


def _hex(params):
    return {name: float(v).hex() for name, v in params.items()}


def _spy_simplex(monkeypatch):
    calls = []
    simplex = distributions._fit_by_simplex

    def spy(*args):
        calls.append(args[0].model)
        return simplex(*args)

    monkeypatch.setattr(distributions, "_fit_by_simplex", spy)
    return calls


def _no_simplex(monkeypatch):
    def fail(*args):
        raise AssertionError("Newton fell back to the simplex")

    monkeypatch.setattr(distributions, "_fit_by_simplex", fail)


def _newton_models(sample):
    """The models a Newton fit serves on ``sample``: the GP's takes real
    samples only."""
    if distributions._is_integral(sample.support):
        return NEWTON_MODELS + (ModelId.GEV,)
    return NEWTON_MODELS + (ModelId.GEV, GP)


def _count_profiles(monkeypatch):
    calls = []
    profile = distributions._gp_profile

    def counted(*args):
        calls.append(args[-1])
        return profile(*args)

    monkeypatch.setattr(distributions, "_gp_profile", counted)
    return calls


@pytest.fixture(params=[11, 12])
def reals(request):
    return _reals(request.param)


class TestAgainstScipy:
    def test_gamma(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        for samp in (reals, random_sample(ModelId.GAMMA, {"a": 0.7, "b": 3.0}, 5000, RandomSource(4))):
            fit = mle_fit(ModelId.GAMMA, samp)
            a, _, scale = scipy.stats.gamma.fit(observations(samp), floc=0)
            assert fit.params["a"] == pytest.approx(a, rel=1e-10)
            assert fit.params["b"] == pytest.approx(scale, rel=1e-10)
            assert fit.converged

    def test_logistic(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        for samp in (reals, random_sample(ModelId.LOGISTIC, {"mu": 3.0, "sigma": 2.0}, 5000, RandomSource(5))):
            fit = mle_fit(ModelId.LOGISTIC, samp)
            loc, scale = scipy.stats.logistic.fit(observations(samp))
            assert fit.params["mu"] == pytest.approx(loc, rel=1e-10)
            assert fit.params["sigma"] == pytest.approx(scale, rel=1e-10)

    def test_weibull(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        x = observations(reals)
        lx = np.log(x)

        def score(b):
            w = (x / x.max()) ** b
            return np.sum(w * lx) / np.sum(w) - 1.0 / b - np.mean(lx)

        b = _brentq(score, 0.5, 50.0)
        a = np.mean(x**b) ** (1.0 / b)
        fit = mle_fit(ModelId.WEIBULL, reals)
        assert fit.params["b"] == pytest.approx(b, rel=1e-10)
        assert fit.params["a"] == pytest.approx(a, rel=1e-10)

    def test_negative_binomial(self, monkeypatch):
        _no_simplex(monkeypatch)
        samp = random_sample(ModelId.NEGATIVE_BINOMIAL, {"r": 3.5, "p": 0.4}, 20_000, RandomSource(6))
        x = observations(samp)
        m = np.mean(x)

        def score(r):
            return np.mean(scipy.special.digamma(x + r)) - scipy.special.digamma(r) + np.log(r / (r + m))

        r = _brentq(score, 0.1, 100.0)
        fit = mle_fit(ModelId.NEGATIVE_BINOMIAL, samp)
        assert fit.params["r"] == pytest.approx(r, rel=1e-10)
        assert fit.params["p"] == pytest.approx(m / (r + m), rel=1e-10)

    def test_yule_simon(self, monkeypatch):
        _no_simplex(monkeypatch)
        samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 20_000, RandomSource(7))
        x = observations(samp)

        def score(rho):
            return 1.0 / rho + scipy.special.digamma(rho + 1.0) - np.mean(
                scipy.special.digamma(x + rho + 1.0)
            )

        rho = _brentq(score, 0.1, 100.0)
        assert mle_fit(ModelId.YULE_SIMON, samp).params["p"] == pytest.approx(rho, rel=1e-10)

    def test_generalized_pareto(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        heavy = random_sample(GP, {"k": 0.3, "sigma": 2.0, "theta": 1.0}, 5000, RandomSource(9))
        for samp in (reals, heavy):
            x = observations(samp)
            y = x - x.min()
            y_max = y.max()

            def score(tau):  # d/dtau of -n (ln(k/tau) + k + 1), k = mean log1p(tau y)
                k = np.mean(np.log1p(tau * y))
                return y.size / tau - np.sum(y / (1.0 + tau * y)) * (1.0 + 1.0 / k)

            if samp is reals:  # short-tailed: the root lies next to tau = -1/y_max
                tau = _brentq(score, -(1.0 - 1e-9) / y_max, -(1.0 - 1e-3) / y_max)
            else:
                tau = _brentq(score, 0.01, 10.0)
            k = np.mean(np.log1p(tau * y))
            fit = mle_fit(GP, samp)
            assert fit.converged
            assert fit.params["theta"] == x.min()
            assert fit.params["k"] == pytest.approx(k, rel=1e-10)
            assert fit.params["sigma"] == pytest.approx(k / tau, rel=1e-10)

    def test_nakagami_is_the_gamma_fit_of_squares(self, reals):
        fit = mle_fit(ModelId.NAKAGAMI, reals)
        gamma = mle_fit(ModelId.GAMMA, Sample.of(observations(reals) ** 2, False))
        assert fit.params["mu"] == pytest.approx(gamma.params["a"], rel=1e-12)
        assert fit.params["omega"] == pytest.approx(
            gamma.params["a"] * gamma.params["b"], rel=1e-12
        )


class TestNewtonPath:
    def test_underdispersed_negative_binomial_raises(self, monkeypatch):
        # variance <= mean: the profile score has no finite root, and the
        # likelihood rises without bound as r grows
        _no_simplex(monkeypatch)
        for values in ([2.0, 3.0, 3.0, 4.0, 3.0, 2.0, 4.0, 3.0], [2.0] * 4, [0.0, 1.0, 0.0]):
            with pytest.raises(DegenerateSampleError, match="variance above its mean"):
                mle_fit(ModelId.NEGATIVE_BINOMIAL, Sample.of(np.array(values), True))

    @pytest.mark.parametrize(
        "model, values",
        [
            (ModelId.YULE_SIMON, [1.0] * 5),
            # two distinct values, but ln(mean) - mean(ln x) rounds to 0
            (ModelId.GAMMA, [3.0] * 5 + [np.nextafter(3.0, 4.0)]),
            (ModelId.NAKAGAMI, [3.0] * 5 + [np.nextafter(3.0, 4.0)]),
        ],
    )
    def test_score_without_a_finite_root_raises(self, model, values, monkeypatch):
        _no_simplex(monkeypatch)
        with pytest.raises(DegenerateSampleError):
            mle_fit(model, Sample.of(np.array(values), model is ModelId.YULE_SIMON))

    @pytest.mark.parametrize("model", NEWTON_MODELS + (GP,))
    def test_capped_fit_returns_its_last_point_unconverged(self, model, monkeypatch):
        if model is GP:  # integer samples go to the simplex
            samp = _reals(8, n=3000)
        else:
            samp = random_sample(ModelId.NEGATIVE_BINOMIAL, {"r": 3.5, "p": 0.4}, 3000, RandomSource(8))
            samp = Sample(samp.support + 1.0, samp.counts, True)
        _no_simplex(monkeypatch)
        with mock.patch.object(distributions, "_MAX_ITER", 1):
            fit = mle_fit(model, samp)
        assert not fit.converged and math.isfinite(fit.total_loglik)
        assert fit.params != mle_fit(model, samp).params


CLOSED_FORM_MODELS = {
    ModelId.EXPONENTIAL,
    ModelId.GAUSSIAN,
    ModelId.GEOMETRIC,
    ModelId.INVERSE_GAUSSIAN,
    ModelId.LOGNORMAL,
    ModelId.POISSON,
    ModelId.RAYLEIGH,
}


def test_simplex_is_reached_only_by_gp(monkeypatch):
    specs = distributions._SPECS
    assert {m for m in ModelId if specs[m].closed_fit is not None} == CLOSED_FORM_MODELS
    # the GEV's Newton stops at its k = -1/2 wall on this uniform sample
    uniform = Sample.of(np.random.default_rng(0).uniform(1.0, 2.0, 500), False)
    calls = _spy_simplex(monkeypatch)
    monkeypatch.setattr(distributions, "_MAX_ITER", 300)
    for sample, reached in (
        # every model hosts these positive integers
        (random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 500, RandomSource(3)), {GP}),
        (Sample.of(np.random.default_rng(4).gamma(2.0, 1.5, 500), False), set()),
        (uniform, set()),
    ):
        calls.clear()
        for model in ModelId:
            try:
                mle_fit(model, sample)
            except AdrankError:
                pass
        assert set(calls) == reached, reached
    with pytest.raises(DegenerateSampleError, match=GEV_WALL):
        mle_fit(ModelId.GEV, uniform)


# samples with at least two distinct values: with one, the continuous
# models have no finite MLE
_real_samples = (
    st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample.of(np.asarray(v), False))
)
# integer samples with at least one tie
_tied_counts = (
    st.lists(st.integers(0, 40), min_size=2, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample.of(np.asarray(v + v[:1], dtype=np.float64), True))
)


@_SETTINGS
@given(sample=st.one_of(_real_samples, _tied_counts))
def test_newton_models_never_call_the_simplex(sample):
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_simplex(mp)
        for model in _newton_models(sample):
            try:
                mle_fit(model, sample)
            except AdrankError:
                continue
    assert calls == []


_few_distinct_reals = (
    st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=12, unique=True)
    .map(lambda v: Sample.of(np.asarray(v), False))
    .filter(lambda s: not distributions._is_integral(s.support))
)


@_SETTINGS
@given(sample=_few_distinct_reals)
def test_gev_on_a_few_reals_converges_only_at_a_regular_maximum(sample):
    # the likelihood of a few values often has no regular maximum: the fit
    # then names the direction it grows in, or returns unconverged
    try:
        fit = mle_fit(ModelId.GEV, sample)
    except DegenerateSampleError as exc:
        assert str(exc) in (GEV_WALL, GEV_RIDGE)
        return
    assert fit.params["k"] > distributions._GEV_IRREGULAR_K or not fit.converged


def _log_density_terms(model, p, x):
    """The additive terms of the model's log-density at ``x``, one row each:
    their magnitudes bound the rounding error of the computed sum."""
    lg = scipy.special.gammaln
    if model is ModelId.GAMMA:
        a, b = p["a"], p["b"]
        return [a * math.log(b) + 0 * x, lg(a) + 0 * x, (a - 1.0) * np.log(x), x / b]
    if model is ModelId.LOGISTIC:
        mu, sigma = p["mu"], p["sigma"]
        s = np.abs(x - mu) / sigma
        return [x / sigma, mu / sigma + 0 * x, math.log(sigma) + 0 * x, 2.0 * np.log1p(np.exp(-s))]
    if model is ModelId.NAKAGAMI:
        mu, om = p["mu"], p["omega"]
        return [math.log(2.0) + 0 * x, mu * math.log(mu / om) + 0 * x, lg(mu) + 0 * x,
                (2.0 * mu - 1.0) * np.log(x), mu * x**2 / om]  # fmt: skip
    if model is ModelId.NEGATIVE_BINOMIAL:
        r, q = p["r"], p["p"]
        return [lg(r + x), lg(x + 1.0), lg(r) + 0 * x, x * math.log(q), r * math.log1p(-q) + 0 * x]
    if model is ModelId.WEIBULL:
        a, b = p["a"], p["b"]
        return [math.log(b) + 0 * x, math.log(a) + 0 * x, (b - 1.0) * np.log(x),
                (b - 1.0) * math.log(a) + 0 * x, (x / a) ** b]  # fmt: skip
    rho = p["p"]  # Yule-Simon: ln rho + ln G(x) + ln G(rho + 1) - ln G(x + rho + 1)
    return [math.log(rho) + 0 * x, lg(x), lg(rho + 1.0) + 0 * x, lg(x + rho + 1.0)]


def _rounding_bound(model, p, sample):
    """A few ulps of every term of the log-likelihood sum, summed."""
    terms = np.abs(_log_density_terms(model, p, sample.support)).sum(axis=0)
    return 8.0 * np.finfo(float).eps * float(np.dot(sample.counts, terms))


@_SETTINGS
@given(sample=st.one_of(_real_samples, _tied_counts))
# a + ln G(a) terms near 10^3 each, whose rounding outweighs 1e-12 relative
@example(sample=Sample.of(np.array([10.0, 9.0, 10.0]), True))
def test_newton_likelihood_never_below_simplex(sample):
    for model in NEWTON_MODELS:
        try:
            fit = mle_fit(model, sample)
        except AdrankError:
            continue  # outside the model's support
        try:
            params = _simplex_fit(model, sample)
            ref = log_likelihood(model, params, sample)[0]
        except AdrankError:
            continue
        if math.isfinite(ref):
            slack = _rounding_bound(model, fit.params, sample) + _rounding_bound(model, params, sample)
            assert fit.total_loglik >= ref - slack, model


# GP samples, most of which have an interior maximum: short lists of
# arbitrary reals mostly have none
_gp_samples = st.builds(
    lambda k, n, seed: random_sample(GP, {"k": k, "sigma": 1.0, "theta": 0.0}, n, RandomSource(seed)),
    st.floats(-0.45, 1.0),
    st.integers(20, 300),
    st.integers(0, 10_000),
)


@_SETTINGS
@given(sample=st.one_of(_real_samples.filter(lambda s: not distributions._is_integral(s.support)), _gp_samples))
def test_gp_newton_likelihood_never_below_simplex(sample):
    try:
        fit = mle_fit(GP, sample)
    except AdrankError:
        return  # too few values, or no finite MLE
    params = _simplex_fit(GP, sample)
    # with k <= -1 the likelihood grows without bound as the end of the
    # support nears the sample maximum: a simplex that goes there climbs a
    # ridge with no maximum, which the Newton fit excludes
    if params["k"] > -1.0:
        ref = log_likelihood(GP, params, sample)[0]
        assert fit.total_loglik >= ref - 1e-12 * abs(ref)


def _gev_sample(k, seed, n=5000):
    return random_sample(ModelId.GEV, {"k": k, "sigma": 2.0, "mu": 5.0}, n, RandomSource(seed))


def _gev_loglik(sample, k, sigma, mu):
    return log_likelihood(ModelId.GEV, {"k": k, "sigma": sigma, "mu": mu}, sample)[0]


class TestGevNewton:
    @pytest.mark.parametrize("seed", range(4))
    def test_derivatives_match_central_differences(self, seed):
        sample = _gev_sample(0.2, 20 + seed, n=400)
        gen = np.random.default_rng(seed)
        while True:
            theta = np.array(
                [gen.choice([-1.0, 1.0]) * gen.uniform(0.05, 0.4), gen.uniform(1.5, 3.0), gen.uniform(4.0, 6.0)]
            )
            if np.isfinite(_gev_loglik(sample, *theta)):
                break
        x, c = sample.support, sample.counts
        ll, grad, hess = distributions._gev_derivatives(x, c, float(np.sum(c)), *theta)
        assert ll == pytest.approx(_gev_loglik(sample, *theta), rel=1e-12)
        # steps where truncation and rounding errors are both near their least
        step1, step2 = 1e-5 * np.abs(theta), 1e-4 * np.abs(theta)
        for i in range(3):
            e_i = np.eye(3)[i] * step1[i]
            fd = (_gev_loglik(sample, *(theta + e_i)) - _gev_loglik(sample, *(theta - e_i))) / (2 * step1[i])
            assert grad[i] == pytest.approx(fd, rel=1e-7, abs=1e-9 * abs(ll) / theta[i])
            e_i = np.eye(3)[i] * step2[i]
            for j in range(3):
                e_j = np.eye(3)[j] * step2[j]
                fd2 = (
                    _gev_loglik(sample, *(theta + e_i + e_j))
                    - _gev_loglik(sample, *(theta + e_i - e_j))
                    - _gev_loglik(sample, *(theta - e_i + e_j))
                    + _gev_loglik(sample, *(theta - e_i - e_j))
                ) / (4 * step2[i] * step2[j])
                assert hess[i, j] == pytest.approx(fd2, abs=1e-5 * math.sqrt(abs(hess[i, i] * hess[j, j])))

    @pytest.mark.parametrize(
        "sample",
        [_gev_sample(0.3, 30), _gev_sample(-0.3, 31), _gev_sample(0.05, 32), _reals(13)],
        ids=["k=0.3", "k=-0.3", "k=0.05", "gaussian"],
    )
    def test_likelihood_against_scipy(self, sample, monkeypatch):
        _no_simplex(monkeypatch)
        fit = mle_fit(ModelId.GEV, sample)
        assert fit.converged
        k, sigma, mu = (fit.params[name] for name in ("k", "sigma", "mu"))
        ref = weighted_sum(
            sample.counts, scipy.stats.genextreme(-k, loc=mu, scale=sigma).logpdf(sample.support)
        )
        assert fit.total_loglik == pytest.approx(ref, rel=1e-12)

    def test_integer_sample_ends_on_the_ridge(self, monkeypatch):
        sample = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(9))
        x, c = sample.support, sample.counts
        # the simplex from the moment start, which fitted integer samples
        # before the Newton fit took them, stops up the ridge, where
        # c0 k ln(1 + k) > n, with the bits it had then
        params, _ = distributions._fit_by_simplex(
            distributions._SPECS[ModelId.GEV], x, c, distributions._gev_init(x, c)
        )
        assert _hex(params) == {"k": "0x1.76ea9d21b64e6p+2", "sigma": "0x1.06b04925e824ap-28",
                                "mu": "0x1.00000002cd774p+0"}  # fmt: skip
        assert c[0] * params["k"] * math.log1p(params["k"]) > sample.n
        calls = _spy_simplex(monkeypatch)
        with pytest.raises(DegenerateSampleError, match=GEV_RIDGE):
            mle_fit(ModelId.GEV, sample)
        assert calls == []

    def test_one_step_returns_its_unconverged_point(self, monkeypatch):
        sample = _gev_sample(0.3, 33)
        _no_simplex(monkeypatch)
        with mock.patch.object(distributions, "_MAX_ITER", 1):
            fit = mle_fit(ModelId.GEV, sample)
        assert not fit.converged
        assert fit.params == distributions._gev_newton(sample.support, sample.counts, 1)[0]
        assert fit.params != distributions._gev_newton(sample.support, sample.counts, 10_000)[0]

    @pytest.mark.parametrize("k", [0.0, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3, 1e-2, -1e-2, 0.05, -0.05, 0.2])
    def test_derivatives_through_k_zero_match_mpmath(self, k):
        # below and above the switch from the series in kz to the 1/k terms
        sample = _gev_sample(0.0, 50, n=20)
        x, c = sample.support, sample.counts
        theta = (k, 1.7, 4.4)  # away from the maximum, so no entry is near 0

        def loglik(*p):  # y/k = log1p(kz)/k does not cancel as k nears 0
            k, sigma, mu = p
            total = 0
            for xi, ci in zip(x, c):
                z = (mpmath.mpf(float(xi)) - mu) / sigma
                y_k = mpmath.log1p(k * z) / k if k else z
                total += int(ci) * (-mpmath.log(sigma) - (1 + k) * y_k - mpmath.exp(-y_k))
            return total

        with mpmath.workdps(30):
            p = [mpmath.mpf(v) for v in theta]
            grad = [mpmath.diff(loglik, p, tuple(int(i == m) for m in range(3))) for i in range(3)]
            hess = [
                [mpmath.diff(loglik, p, tuple(int(i == m) + int(j == m) for m in range(3))) for j in range(3)]
                for i in range(3)
            ]
            want = [float(loglik(*p))] + [float(v) for v in grad] + [float(v) for row in hess for v in row]
        ll, g, h = distributions._gev_derivatives(x, c, float(np.sum(c)), *theta)
        got = [ll, *g, *h.ravel()]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)

    def test_near_gumbel_sample_converges(self, monkeypatch):
        # Newton gave up on this sample at k = 0.0018307, where the 1/k terms
        # of the k-derivatives had lost their digits, and the simplex reached
        # a total log-likelihood of -45543.223100311654
        sample = _gev_sample(0.01, 3, n=20_000)
        _no_simplex(monkeypatch)
        fit = mle_fit(ModelId.GEV, sample)
        assert fit.converged and abs(fit.params["k"]) < 0.01
        assert fit.total_loglik >= -45543.223100311654 * (1.0 + 1e-12)

    def test_start_outside_the_support_moves_to_the_gumbel_case(self, monkeypatch):
        # a long lower tail: the lower end of the support at the start point,
        # k = 0.1, lies above the sample minimum
        sample = Sample.of(np.random.default_rng(37).standard_t(3, 3000), False)
        x, c = sample.support, sample.counts
        assert distributions._gev_derivatives(x, c, float(sample.n), *distributions._gev_init(x, c)) is None
        _no_simplex(monkeypatch)
        assert mle_fit(ModelId.GEV, sample).converged

    @pytest.mark.parametrize(
        "k, seed, n, fallback",
        # the simplex fallback's log-likelihood where the climb from the
        # moment start fails: it flagged the first sample converged at
        # k = 2.92 and left the second unconverged at k = 9.10; the second
        # converges only through the climb in (k, sigma, ln t(x0))
        [(3.0, 1, 200, -815.9142825617593), (6.0, 1, 50, -382.9854318052303)],
    )
    def test_heavy_tail_converges_from_the_quantile_start(self, k, seed, n, fallback, monkeypatch):
        sample = _gev_sample(k, seed, n=n)
        x, c = sample.support, sample.counts
        assert _ref_gev_newton(x, c, 10_000) is None  # the climb from the moment start
        _no_simplex(monkeypatch)
        fit = mle_fit(ModelId.GEV, sample)
        assert fit.converged and fit.params["k"] == pytest.approx(k, rel=0.1)
        assert fit.total_loglik >= fallback * (1.0 + 1e-12)

    def test_wall_from_the_moment_start_leaves_a_regular_maximum_to_the_quantile_start(self, monkeypatch):
        # the climb from the moment start ends against k = -1/2; the simplex
        # fallback stopped at k = 2.3145674548942967, log-likelihood
        # -70.44787523031076, a regular maximum
        values = [35.06, 41.818, 44.329, 125.577, 145.319, 540.376, 756.16, 809.944, 835.11, 894.365]
        sample = Sample.of(np.array(values), False)
        _no_simplex(monkeypatch)
        fit = mle_fit(ModelId.GEV, sample)
        assert fit.converged and fit.params["k"] == pytest.approx(2.3145674548942967, rel=1e-6)
        assert fit.total_loglik >= -70.44787523031076 * (1.0 + 1e-12)

    @pytest.mark.parametrize("theta", [(0.4, 1.5, -1.2), (3.0, 0.7, -9.0), (6.0, 2.0, -13.5)])
    def test_anchored_derivatives_match_central_differences(self, theta):
        # in (k, sigma, s = ln t(x0)); the last two near heavy-tail maxima
        sample = _gev_sample(theta[0], 40, n=300)
        x, c = sample.support, sample.counts
        evaluate = functools.partial(distributions._gev_derivatives, x, c, float(sample.n))
        anchored = functools.partial(distributions._gev_anchored, evaluate, float(x[0]))
        ll, grad, hess = anchored(*theta)
        theta = np.array(theta)
        # t(x0) = e^s keeps about 10 digits in mu at s = -13.5: larger steps
        step = 1e-4 * np.maximum(np.abs(theta), 1.0)
        for i in range(3):
            e_i = np.eye(3)[i] * step[i]
            (lp, gp, _), (lm, gm, _) = anchored(*(theta + e_i)), anchored(*(theta - e_i))
            assert grad[i] == pytest.approx((lp - lm) / (2 * step[i]), rel=1e-6, abs=1e-8 * abs(ll))
            scale = np.sqrt(np.abs(np.diag(hess)) * abs(hess[i, i]))
            assert hess[:, i] == pytest.approx((gp - gm) / (2 * step[i]), rel=1e-4, abs=1e-5 * scale.max())


def _concave_quadratic(x, y):
    # maximum 4 at (1, -3)
    ll = 4.0 - (x - 1.0) ** 2 - 2.0 * (y + 3.0) ** 2 + 0.5 * (x - 1.0) * (y + 3.0)
    grad = np.array([-2.0 * (x - 1.0) + 0.5 * (y + 3.0), -4.0 * (y + 3.0) + 0.5 * (x - 1.0)])
    return ll, grad, np.array([[-2.0, 0.5], [0.5, -4.0]])


def _unit_scales(*theta):
    return np.ones(len(theta))


class TestDampedNewton:
    def test_concave_quadratic_converges(self):
        theta, converged = distributions._damped_newton(_concave_quadratic, (40.0, 7.0), _unit_scales, 100)
        assert converged and theta == pytest.approx([1.0, -3.0], abs=1e-12)

    def test_start_outside_the_support_is_unconverged(self):
        theta, converged = distributions._damped_newton(lambda a: None, (2.0,), _unit_scales, 100)
        assert not converged and theta.tolist() == [2.0]

    def test_saddle_is_unconverged(self):
        def saddle(x, y):  # x^2 - y^2, stationary at the origin
            return x * x - y * y, np.array([2.0 * x, -2.0 * y]), np.array([[2.0, 0.0], [0.0, -2.0]])

        theta, converged = distributions._damped_newton(saddle, (0.0, 0.0), _unit_scales, 100)
        assert not converged and theta.tolist() == [0.0, 0.0]

    def test_step_outside_the_support_is_damped_away(self):
        # ln a - a, a > 0: the Newton step from a = 3 lands on a = -3
        trials = []

        def evaluate(a):
            trials.append(a)
            if not a > 0.0:
                return None
            return math.log(a) - a, np.array([1.0 / a - 1.0]), np.array([[-1.0 / (a * a)]])

        theta, converged = distributions._damped_newton(evaluate, (3.0,), _unit_scales, 100)
        assert trials[1] < 0.0
        assert converged and theta[0] == pytest.approx(1.0, abs=1e-12)

    def test_one_iteration_stops_unconverged(self):
        # the one step lands on the maximum, but only the next would confirm it
        theta, converged = distributions._damped_newton(_concave_quadratic, (40.0, 7.0), _unit_scales, 1)
        assert not converged and theta == pytest.approx([1.0, -3.0], abs=1e-12)


@pytest.mark.parametrize("model", [ModelId.LOGISTIC, ModelId.GEV])
def test_damped_newton_fits_hold_no_whole_sample_temporaries(model):
    # the logistic's own loop held its v, t, s and sv arrays for the whole
    # sample, 48 bytes per distinct value; every continuous fit takes 9 to
    # test the sample for integers
    sample = Sample.of(np.random.default_rng(902).normal(100.0, 15.0, 200_000), False)
    assert sample.support.size >= 60_000
    fit, peak, _ = peak_and_retained(mle_fit, model, sample)
    assert fit.converged
    assert peak / sample.support.size <= 16.0


# a twentieth of the default iterations: on samples of a few values, whose
# likelihood is unbounded, both fits run to the cap
_CAPPED = 500


@_SETTINGS
@given(sample=_real_samples.filter(lambda s: s.n >= 4 and not np.all(s.support == np.floor(s.support))))
def test_gev_newton_likelihood_never_below_simplex(sample):
    # compare only where the fit converged, on an interior maximum, as it
    # does wherever the Newton fit from before the two exits (kept verbatim
    # as the reference) converged; elsewhere the fit must end unconverged or
    # at one of the exits
    with mock.patch.object(distributions, "_MAX_ITER", _CAPPED):
        try:
            fit = mle_fit(ModelId.GEV, sample)
        except DegenerateSampleError as exc:
            fit = str(exc)
        if _ref_gev_newton(sample.support, sample.counts, _CAPPED) is not None:
            assert not isinstance(fit, str) and fit.converged, fit
        if fit in (GEV_WALL, GEV_RIDGE) or not fit.converged:
            return
        try:
            params = _simplex_fit(ModelId.GEV, sample)
        except AdrankError:
            return
    # the simplex may also end where the likelihood is unbounded: with
    # k <= -1/2, or up the k -> oo ridge, where the minimum's count c0 has
    # c0 k ln(1 + k) > n (``_gev_newton``)
    k = params["k"]
    if k <= distributions._GEV_IRREGULAR_K or sample.counts[0] * k * math.log1p(k) > sample.n:
        return
    ref = log_likelihood(ModelId.GEV, params, sample)[0]
    if math.isfinite(ref):
        assert fit.total_loglik >= ref - 1e-12 * abs(ref)


# Yule-Simon counts, heavy-tailed with most of the mass on x0 = 1, as the
# counts of terms are
_yule_counts = st.builds(
    lambda p, n, seed: random_sample(ModelId.YULE_SIMON, {"p": p}, n, RandomSource(seed)),
    st.floats(1.1, 3.0),
    st.integers(20, 2000),
    st.integers(0, 10_000),
)


@_SETTINGS
@given(sample=st.one_of(_tied_counts.filter(lambda s: s.n >= 4), _yule_counts))
def test_gev_on_integer_samples_never_calls_the_simplex(sample):
    # the Newton fit serves integer samples as it does real ones; where it
    # converges it is compared with the simplex from the moment start, which
    # fitted these samples before, at a regular end of that simplex
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_simplex(mp)
        try:
            fit = mle_fit(ModelId.GEV, sample)
        except DegenerateSampleError as exc:
            assert str(exc) in (GEV_WALL, GEV_RIDGE)
            fit = None
    assert calls == []
    if fit is None or not fit.converged:
        return
    params = _simplex_fit(ModelId.GEV, sample)
    k = params["k"]
    if k <= distributions._GEV_IRREGULAR_K or sample.counts[0] * k * math.log1p(k) > sample.n:
        return
    ref = log_likelihood(ModelId.GEV, params, sample)[0]
    if math.isfinite(ref):
        assert fit.total_loglik >= ref - 1e-12 * abs(ref)


def _gp_profile_at(sample, u):
    x, c = sample.support, sample.counts
    return distributions._gp_profile(x, c, float(np.sum(c)), float(x[0]), u)


class TestGpNewton:
    @pytest.mark.parametrize(
        "sample",
        [
            random_sample(GP, {"k": 0.3, "sigma": 2.0, "theta": 1.0}, 400, RandomSource(40)),
            random_sample(GP, {"k": -0.3, "sigma": 2.0, "theta": 1.0}, 400, RandomSource(41)),
            _reals(42, n=400),
        ],
        ids=["k=0.3", "k=-0.3", "gaussian"],
    )
    def test_profile_derivatives_match_central_differences(self, sample):
        x, c = sample.support, sample.counts
        y = x - x[0]
        for u in (-3.0, -0.7, 0.4, 2.0):
            ll, g, h, k, sigma = _gp_profile_at(sample, u)
            # the profile is the likelihood at theta = x[0] with k = s/n, sigma = k/tau
            assert ll == pytest.approx(
                log_likelihood(GP, {"k": k, "sigma": sigma, "theta": float(x[0])}, sample)[0], rel=1e-12
            )
            assert k == pytest.approx(weighted_sum(c, np.log1p(math.expm1(u) / y[-1] * y)) / sample.n, rel=1e-14)
            step = 1e-5
            up, down = _gp_profile_at(sample, u + step), _gp_profile_at(sample, u - step)
            assert g == pytest.approx((up[0] - down[0]) / (2 * step), rel=1e-6, abs=1e-9 * abs(ll))
            assert h == pytest.approx((up[1] - down[1]) / (2 * step), rel=1e-6, abs=1e-9 * abs(ll))

    def test_exponential_limit_at_tau_zero(self):
        # u = 0 is tau = 0, k = 0: the limits must join the values on either side
        sample = random_sample(ModelId.EXPONENTIAL, {"mu": 2.0}, 400, RandomSource(43))
        at = _gp_profile_at(sample, 0.0)
        x = observations(sample)
        assert at[3] == 0.0 and at[4] == pytest.approx(np.mean(x - x.min()), rel=1e-14)
        for step in (1e-4, -1e-4):
            near = _gp_profile_at(sample, step)
            for i in range(3):
                assert at[i] == pytest.approx(near[i], rel=1e-3, abs=1e-3 * abs(at[0]) * abs(step)), i

    def test_integer_sample_keeps_the_simplex_fit(self, monkeypatch):
        sample = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(9))
        spec = distributions._SPECS[GP]
        x, c = sample.support, sample.counts
        params, converged = distributions._fit_by_simplex(spec, x, c, distributions._gp_init(x, c))
        calls = _spy_simplex(monkeypatch)
        fit = mle_fit(GP, sample)
        assert calls == [GP]
        # the bits of the fit from before the GP's Newton fit stopped scanning
        # the sample for integers itself
        assert _hex(fit.params) == {"k": "0x1.1bd70c19d443ap+7", "sigma": "0x1.62ccdabf6ff26p-1010",
                                    "theta": "0x1.0000000000000p+0"}  # fmt: skip
        total, pointwise = log_likelihood(GP, params, sample)
        assert fit.params == params and fit.converged == converged
        assert fit.sample is sample and fit.total_loglik == total
        assert fit.log_density(sample.support).tobytes() == pointwise.tobytes()

    @pytest.mark.parametrize(
        "values, why",
        [
            # short-tailed: the likelihood rises as k falls to -1 and past it
            ([0.5, 1.5, 2.5, 3.25, 4.5], "as k falls below -1"),
            # most of the mass on the minimum: a spike there wins
            ([0.5, 0.5, 0.5, 2.25, 7.75], "as sigma collapses"),
        ],
    )
    def test_sample_without_a_maximum_raises(self, values, why, monkeypatch):
        _no_simplex(monkeypatch)
        with pytest.raises(DegenerateSampleError, match=why):
            mle_fit(GP, Sample.of(np.array(values), False))


# a GP fit of a few values ends in this many profile evaluations: the climb
# doubles its step to reach either end of the u line, and bisection then
# closes the bracket to 1e-12
_GP_FEW_VALUES_EVALS = 100


@_SETTINGS
@given(
    sample=st.lists(st.floats(1e-3, 1e3), min_size=4, max_size=6, unique=True)
    .filter(lambda v: not all(t == math.floor(t) for t in v))
    .map(lambda v: Sample.of(np.asarray(v), False))
)
def test_gp_fit_of_a_few_values_ends_within_few_profile_evaluations(sample):
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_profiles(mp)
        try:
            fit = mle_fit(GP, sample)
        except DegenerateSampleError:
            fit = None
    assert len(calls) <= _GP_FEW_VALUES_EVALS
    assert fit is None or fit.converged


def _mp_gp_k(sample, tau):
    """k = sum c log1p(tau y)/n at the mpmath root in tau of the GP profile
    score n/tau - a (1 + n/s), from ``tau``, with y = x - min x."""
    x, c = sample.support, sample.counts
    with mpmath.workdps(30):
        y = [mpmath.mpf(float(v)) for v in x - x[0]]
        w = [int(v) for v in c]
        n = sum(w)

        def s(t):
            return mpmath.fsum(ci * mpmath.log1p(t * yi) for yi, ci in zip(y, w))

        def score(t):
            a = mpmath.fsum(ci * yi / (1 + t * yi) for yi, ci in zip(y, w))
            return n / t - a * (1 + n / s(t))

        return float(s(mpmath.findroot(score, mpmath.mpf(tau))) / n)


# Seed 66's k is 6.8e-6, where the score is the difference of sums that
# nearly cancel: moving its largest value by 1e-12 of sum y moves the root's
# k by 8e-7 relative, so one rounding of a sum (1.1e-16) can move it by about
# 9e-11. The form n (sum c g(tau y)/s)/tau - a comes within 1.0e-12 of it,
# and of seeds 67 and 70 within 5e-15 and 4e-14; n/tau - a (1 + 1/k) was
# 5.0e-8, 1.2e-12 and 9.4e-12 from the roots.
@pytest.mark.parametrize("seed, rel", [(66, 1e-10), (67, 1e-12), (70, 1e-12)])
def test_gp_near_the_exponential_matches_the_mpmath_root(seed, rel):
    sample = Sample.of(np.random.default_rng(seed).exponential(2.0, 2000), False)
    fit = mle_fit(GP, sample)
    assert fit.converged
    want = _mp_gp_k(sample, fit.params["k"] / fit.params["sigma"])
    assert fit.params["k"] == pytest.approx(want, rel=rel, abs=0.0)


@pytest.mark.parametrize("ty", [0.0, 1e-300, -1e-9, 1e-5, -0.01, 0.0999, 0.19, -0.19, 0.2, 0.5, -0.5, 30.0])
def test_gp_gap_matches_mpmath(ty):
    t = np.array([ty])
    with mpmath.workdps(50):
        m = mpmath.mpf(ty)
        want = float(mpmath.log1p(m) - m / (1 + m))
    got = distributions._gp_gap(t, np.log1p(t), t / (1.0 + t))[0]
    assert got == pytest.approx(want, rel=4e-16 if abs(ty) < 0.2 else 4e-15, abs=0.0)


def _mp_plaw_alpha(sample, alpha0):
    """The mpmath root in alpha of the power-law score
    -zeta'(alpha, xmin)/zeta(alpha, xmin) = mean ln x, from ``alpha0``."""
    x, c = sample.support, sample.counts
    with mpmath.workdps(50):
        xmin = mpmath.mpf(float(x[0]))
        mean = mpmath.fsum(int(ci) * mpmath.log(mpmath.mpf(float(xi))) for xi, ci in zip(x, c)) / int(np.sum(c))
        return float(mpmath.findroot(lambda a: -mpmath.zeta(a, xmin, 1) / mpmath.zeta(a, xmin) - mean, alpha0))


_PLAW_SAMPLES = {
    "3 3 4 5 9 20 100": Sample.of(np.array([3.0, 3.0, 4.0, 5.0, 9.0, 20.0, 100.0]), True),
    # the counts of the CLI's golden fit digests
    "yule-20000": random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 20_000, RandomSource(17)),
    **{f"[1 2 3]e{e}": Sample.of(np.array([float(f"{m}e{e}") for m in (1, 2, 3)]), True) for e in (6, 50, 300)},
}


@pytest.mark.parametrize("name", list(_PLAW_SAMPLES))
def test_powerlaw_alpha_is_the_mpmath_root(name):
    sample = _PLAW_SAMPLES[name]
    fit = mle_fit(ModelId.POWERLAW, sample)
    assert fit.converged and fit.params["xmin"] == sample.support[0]
    assert fit.params["alpha"] == pytest.approx(_mp_plaw_alpha(sample, fit.params["alpha"]), rel=1e-12, abs=0.0)


def test_powerlaw_never_reaches_the_optimizer(monkeypatch):
    calls = []
    optimizer = distributions.nelder_mead_minimize

    def spy(problem, **kwargs):
        calls.append(problem)
        return optimizer(problem, **kwargs)

    monkeypatch.setattr(distributions, "nelder_mead_minimize", spy)
    for sample in (*_PLAW_SAMPLES.values(), Sample.of(np.array([1.0, 1.0, 2.0]), True)):
        assert mle_fit(ModelId.POWERLAW, sample).converged
    assert calls == []
    # the spy sees the fits that do reach the optimizer
    with mock.patch.object(distributions, "_MAX_ITER", 50):
        mle_fit(GP, _PLAW_SAMPLES["3 3 4 5 9 20 100"])
    assert len(calls) == 1
