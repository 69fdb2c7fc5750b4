"""Newton fits of the six models with a profile score and of the GEV,
against scipy (a test-only oracle) and against the Nelder-Mead simplex.

The six models have no other solver. The simplex they used before, from
the start points and transforms kept below, stays a reference their
likelihood must never fall below. The GEV keeps the simplex as its
fallback."""

import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from adrank import distributions
from adrank.distributions import (
    FitOptions,
    ModelId,
    Sample,
    log_likelihood,
    mle_fit,
    random_sample,
    weighted_sum,
)
from adrank.errors import AdrankError, DegenerateSampleError
from adrank.numerics import RandomSource

NEWTON_MODELS = (
    ModelId.GAMMA,
    ModelId.LOGISTIC,
    ModelId.NAKAGAMI,
    ModelId.NEGATIVE_BINOMIAL,
    ModelId.WEIBULL,
    ModelId.YULE_SIMON,
)
_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _reals(seed, n=20_000):
    # more distinct values than one block, so every sum has several blocks
    return Sample(np.random.default_rng(seed).normal(100.0, 15.0, n), False)


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


# the simplex's start point and transforms of each Newton model, as they
# were when the simplex fitted these models; without transforms the
# optimizer would search every coordinate on the whole line
_SIMPLEX_REFERENCE = {
    ModelId.GAMMA: (_gamma_start, ("log", "log")),
    ModelId.LOGISTIC: (_logistic_start, ("identity", "log")),
    ModelId.NAKAGAMI: (_nakagami_start, ("log", "log")),
    ModelId.NEGATIVE_BINOMIAL: (_negative_binomial_start, ("log", "logit")),
    ModelId.WEIBULL: (_weibull_start, ("log", "log")),
    ModelId.YULE_SIMON: (_yule_simon_start, ("log",)),
}


def _simplex_fit(model, sample, options=None):
    """The Nelder-Mead fit: from the reference start and transforms for a
    Newton model, from the spec's own for the GEV."""
    spec = distributions._SPECS[model]
    if model in _SIMPLEX_REFERENCE:
        start, transforms = _SIMPLEX_REFERENCE[model]
        spec = dataclasses.replace(spec, init_guess=start, transforms=transforms)
    x, c = sample.support, sample.counts
    params, _ = distributions._fit_by_simplex(
        spec, x, c, spec.init_guess(x, c), options or FitOptions()
    )
    return params


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


@pytest.fixture(params=[11, 12])
def reals(request):
    return _reals(request.param)


class TestAgainstScipy:
    def test_gamma(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        for samp in (reals, random_sample(ModelId.GAMMA, {"a": 0.7, "b": 3.0}, 5000, RandomSource(4))):
            fit = mle_fit(ModelId.GAMMA, samp)
            a, _, scale = scipy.stats.gamma.fit(samp.values, floc=0)
            assert fit.params["a"] == pytest.approx(a, rel=1e-10)
            assert fit.params["b"] == pytest.approx(scale, rel=1e-10)
            assert fit.converged

    def test_logistic(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        for samp in (reals, random_sample(ModelId.LOGISTIC, {"mu": 3.0, "sigma": 2.0}, 5000, RandomSource(5))):
            fit = mle_fit(ModelId.LOGISTIC, samp)
            loc, scale = scipy.stats.logistic.fit(samp.values)
            assert fit.params["mu"] == pytest.approx(loc, rel=1e-10)
            assert fit.params["sigma"] == pytest.approx(scale, rel=1e-10)

    def test_weibull(self, reals, monkeypatch):
        _no_simplex(monkeypatch)
        x = reals.values
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
        x = samp.values
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
        x = samp.values

        def score(rho):
            return 1.0 / rho + scipy.special.digamma(rho + 1.0) - np.mean(
                scipy.special.digamma(x + rho + 1.0)
            )

        rho = _brentq(score, 0.1, 100.0)
        assert mle_fit(ModelId.YULE_SIMON, samp).params["p"] == pytest.approx(rho, rel=1e-10)

    def test_nakagami_is_the_gamma_fit_of_squares(self, reals):
        fit = mle_fit(ModelId.NAKAGAMI, reals)
        gamma = mle_fit(ModelId.GAMMA, Sample(reals.values**2, False))
        assert fit.params["mu"] == pytest.approx(gamma.params["a"], rel=1e-12)
        assert fit.params["omega"] == pytest.approx(
            gamma.params["a"] * gamma.params["b"], rel=1e-12
        )


class TestNewtonPath:
    @pytest.mark.parametrize("model", NEWTON_MODELS)
    def test_optimizer_method_uses_newton_too(self, model, monkeypatch):
        samp = random_sample(ModelId.NEGATIVE_BINOMIAL, {"r": 3.5, "p": 0.4}, 3000, RandomSource(8))
        samp = Sample(samp.values + 1.0, True)
        _no_simplex(monkeypatch)
        auto = mle_fit(model, samp)
        assert mle_fit(model, samp, FitOptions(method="optimizer")).params == auto.params
        assert auto.converged

    def test_underdispersed_negative_binomial_raises(self, monkeypatch):
        # variance <= mean: the profile score has no finite root, and the
        # likelihood rises without bound as r grows
        _no_simplex(monkeypatch)
        for values in ([2.0, 3.0, 3.0, 4.0, 3.0, 2.0, 4.0, 3.0], [2.0] * 4, [0.0, 1.0, 0.0]):
            with pytest.raises(DegenerateSampleError, match="variance above its mean"):
                mle_fit(ModelId.NEGATIVE_BINOMIAL, Sample(np.array(values), True))

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
            mle_fit(model, Sample(np.array(values), model is ModelId.YULE_SIMON))

    @pytest.mark.parametrize("model", NEWTON_MODELS)
    def test_capped_fit_returns_its_last_point_unconverged(self, model, monkeypatch):
        samp = random_sample(ModelId.NEGATIVE_BINOMIAL, {"r": 3.5, "p": 0.4}, 3000, RandomSource(8))
        samp = Sample(samp.values + 1.0, True)
        _no_simplex(monkeypatch)
        fit = mle_fit(model, samp, FitOptions(max_iter=1))
        assert not fit.converged and math.isfinite(fit.total_loglik)
        assert fit.params != mle_fit(model, samp).params


def test_simplex_is_reached_exactly_by_the_specs_with_a_start(monkeypatch):
    # every model hosts these positive integers; "optimizer" sends the
    # closed-form models to the simplex, and the GEV goes there on integers
    sample = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 500, RandomSource(3))
    calls = _spy_simplex(monkeypatch)
    for model in ModelId:
        try:
            mle_fit(model, sample, FitOptions(method="optimizer", max_iter=300, restarts=0))
        except AdrankError:
            pass
    specs = distributions._SPECS
    assert sorted(set(calls)) == sorted(m for m in ModelId if specs[m].init_guess is not None)
    for model in calls:
        assert len(specs[model].transforms) == specs[model].arity
    assert not set(calls) & set(NEWTON_MODELS)


# samples with at least two distinct values: with one, the continuous
# models have no finite MLE
_real_samples = (
    st.lists(st.floats(1e-3, 1e3), min_size=3, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample(np.asarray(v), False))
)
# integer samples with at least one tie
_tied_counts = (
    st.lists(st.integers(0, 40), min_size=2, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample(np.asarray(v + v[:1], dtype=np.float64), True))
)


@_SETTINGS
@given(sample=st.one_of(_real_samples, _tied_counts))
def test_newton_models_never_call_the_simplex(sample):
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_simplex(mp)
        for model in NEWTON_MODELS:
            try:
                mle_fit(model, sample)
            except AdrankError:
                continue
    assert calls == []


@_SETTINGS
@given(sample=st.one_of(_real_samples, _tied_counts))
def test_newton_likelihood_never_below_simplex(sample):
    for model in NEWTON_MODELS:
        try:
            fit = mle_fit(model, sample)
        except AdrankError:
            continue  # outside the model's support
        try:
            ref = log_likelihood(model, _simplex_fit(model, sample), sample)[0]
        except AdrankError:
            continue
        if math.isfinite(ref):
            assert fit.total_loglik >= ref - 1e-12 * abs(ref), model


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

    def test_integer_sample_keeps_the_simplex_fit(self):
        sample = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(9))
        spec = distributions._SPECS[ModelId.GEV]
        x, c = sample.support, sample.counts
        assert spec.newton_fit(x, c, 10_000) is None
        fit = mle_fit(ModelId.GEV, sample)
        params, converged = distributions._fit_by_simplex(
            spec, x, c, spec.init_guess(x, c), FitOptions()
        )
        total, pointwise = log_likelihood(ModelId.GEV, params, sample)
        assert fit.params == params and fit.converged == converged
        assert fit.total_loglik == total and fit.pointwise_loglik.tobytes() == pointwise.tobytes()

    def test_one_step_falls_back_to_the_simplex(self, monkeypatch):
        sample = _gev_sample(0.3, 33)
        options = FitOptions(max_iter=1)
        calls = _spy_simplex(monkeypatch)
        fit = mle_fit(ModelId.GEV, sample, options)
        assert calls == [ModelId.GEV]
        assert fit.params == _simplex_fit(ModelId.GEV, sample, options)


# a twentieth of the default iterations: on samples of a few values, whose
# likelihood is unbounded, both fits run to the cap
_CAPPED = FitOptions(max_iter=500)


@_SETTINGS
@given(sample=_real_samples.filter(lambda s: s.n >= 4 and not np.all(s.support == np.floor(s.support))))
def test_gev_newton_likelihood_never_below_simplex(sample):
    try:
        ref = log_likelihood(ModelId.GEV, _simplex_fit(ModelId.GEV, sample, _CAPPED), sample)[0]
    except AdrankError:
        return
    fit = mle_fit(ModelId.GEV, sample, _CAPPED)  # must not fail where the simplex fits
    if math.isfinite(ref):
        assert fit.total_loglik >= ref - 1e-12 * abs(ref)
