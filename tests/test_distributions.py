"""Distribution definitions, fitting and sampling against oracles."""

import functools
import math
import operator

import numpy as np
import pytest
import scipy.integrate
import scipy.stats

from adrank import distributions
from adrank.distributions import (
    FitOptions,
    ModelId,
    Sample,
    arity,
    cdf,
    is_discrete_model,
    log_density,
    log_likelihood,
    mle_fit,
    nested_pairs,
    random_sample,
)
from adrank.errors import (
    ConfigError,
    DegenerateSampleError,
    ParameterError,
    SupportError,
    UsageError,
)
from adrank.numerics import RandomSource
from adrank.selection import ks_statistic

# one in-domain reference parameter set per model, reused across tests
REFERENCE_PARAMS = {
    ModelId.EXPONENTIAL: {"mu": 2.0},
    ModelId.GAMMA: {"a": 3.0, "b": 1.5},
    ModelId.GAUSSIAN: {"mu": 3.0, "sigma2": 4.0},
    ModelId.GEV: {"k": 0.3, "sigma": 2.0, "mu": 5.0},
    ModelId.GENERALIZED_PARETO: {"k": 0.3, "sigma": 2.0, "theta": 1.0},
    ModelId.GEOMETRIC: {"p": 0.5},
    ModelId.INVERSE_GAUSSIAN: {"mu": 2.0, "lam": 3.0},
    ModelId.LOGISTIC: {"mu": 1.0, "sigma": 2.0},
    ModelId.LOGNORMAL: {"mu": 1.0, "sigma2": 0.49},
    ModelId.NAKAGAMI: {"mu": 2.0, "omega": 3.0},
    ModelId.NEGATIVE_BINOMIAL: {"r": 3.5, "p": 0.4},
    ModelId.POISSON: {"lam": 4.0},
    ModelId.POWERLAW: {"alpha": 2.5, "xmin": 1.0},
    ModelId.RAYLEIGH: {"b": 2.0},
    ModelId.WEIBULL: {"a": 2.0, "b": 1.5},
    ModelId.YULE_SIMON: {"p": 1.5},
}

# scipy equivalents used as an independent oracle for density/CDF values
_SCIPY = {
    ModelId.EXPONENTIAL: lambda p: scipy.stats.expon(scale=p["mu"]),
    ModelId.GAMMA: lambda p: scipy.stats.gamma(p["a"], scale=p["b"]),
    ModelId.GAUSSIAN: lambda p: scipy.stats.norm(p["mu"], math.sqrt(p["sigma2"])),
    ModelId.GEV: lambda p: scipy.stats.genextreme(-p["k"], loc=p["mu"], scale=p["sigma"]),
    ModelId.GENERALIZED_PARETO: lambda p: scipy.stats.genpareto(
        p["k"], loc=p["theta"], scale=p["sigma"]
    ),
    ModelId.GEOMETRIC: lambda p: scipy.stats.geom(p["p"], loc=-1),
    ModelId.INVERSE_GAUSSIAN: lambda p: scipy.stats.invgauss(
        p["mu"] / p["lam"], scale=p["lam"]
    ),
    ModelId.LOGISTIC: lambda p: scipy.stats.logistic(p["mu"], p["sigma"]),
    ModelId.LOGNORMAL: lambda p: scipy.stats.lognorm(
        math.sqrt(p["sigma2"]), scale=math.exp(p["mu"])
    ),
    ModelId.NAKAGAMI: lambda p: scipy.stats.nakagami(
        p["mu"], scale=math.sqrt(p["omega"])
    ),
    ModelId.NEGATIVE_BINOMIAL: lambda p: scipy.stats.nbinom(p["r"], 1.0 - p["p"]),
    ModelId.POISSON: lambda p: scipy.stats.poisson(p["lam"]),
    ModelId.POWERLAW: lambda p: scipy.stats.zipf(p["alpha"]),  # for xmin = 1
    ModelId.RAYLEIGH: lambda p: scipy.stats.rayleigh(scale=p["b"]),
    ModelId.WEIBULL: lambda p: scipy.stats.weibull_min(p["b"], scale=p["a"]),
    ModelId.YULE_SIMON: lambda p: scipy.stats.yulesimon(p["p"]),
}


def _support_points(model):
    if is_discrete_model(model):
        lo = 1 if model in (ModelId.POWERLAW, ModelId.YULE_SIMON) else 0
        return np.arange(lo, lo + 12, dtype=np.float64)
    params = REFERENCE_PARAMS[model]
    dist = _SCIPY[model](params)
    qs = np.linspace(0.05, 0.95, 10)
    return dist.ppf(qs)


class TestLogDensityHandValues:
    def test_poisson_at_zero(self):
        assert log_density(ModelId.POISSON, {"lam": 2.0}, 0.0) == pytest.approx(-2.0)

    def test_powerlaw_basel_normalizer(self):
        val = log_density(ModelId.POWERLAW, {"alpha": 2.0, "xmin": 1.0}, 1.0)
        assert val == pytest.approx(math.log(6.0 / math.pi**2), abs=1e-9)

    def test_exponential_at_zero(self):
        assert log_density(ModelId.EXPONENTIAL, {"mu": 2.0}, 0.0) == pytest.approx(
            math.log(0.5)
        )

    def test_out_of_support_is_neg_inf(self):
        assert log_density(ModelId.GAMMA, {"a": 1.0, "b": 1.0}, -1.0) == -math.inf
        assert log_density(ModelId.POISSON, {"lam": 1.0}, 2.5) == -math.inf
        assert log_density(ModelId.YULE_SIMON, {"p": 1.0}, 0.0) == -math.inf

    def test_bad_params_raise(self):
        with pytest.raises(ParameterError):
            log_density(ModelId.POISSON, {"lam": -1.0}, 1.0)
        with pytest.raises(ParameterError):
            log_density(ModelId.POWERLAW, {"alpha": 0.9, "xmin": 1.0}, 1.0)
        with pytest.raises(ParameterError):
            log_density(ModelId.GEOMETRIC, {"p": 1.5}, 1.0)

    def test_against_scipy_all_models(self):
        for model, params in REFERENCE_PARAMS.items():
            xs = _support_points(model)
            mine = log_density(model, params, xs)
            dist = _SCIPY[model](params)
            theirs = (
                dist.logpmf(xs) if is_discrete_model(model) else dist.logpdf(xs)
            )
            assert np.allclose(mine, theirs, atol=1e-8), model


class TestCdf:
    def test_geometric_hand(self):
        assert cdf(ModelId.GEOMETRIC, {"p": 0.5}, 0.0) == pytest.approx(0.5)

    def test_exponential_at_mu(self):
        assert cdf(ModelId.EXPONENTIAL, {"mu": 3.0}, 3.0) == pytest.approx(
            1.0 - math.exp(-1.0)
        )

    def test_yule_hand_sum(self):
        assert cdf(ModelId.YULE_SIMON, {"p": 1.0}, 2.0) == pytest.approx(2.0 / 3.0)

    def test_right_continuous_steps(self):
        for model in (ModelId.POISSON, ModelId.GEOMETRIC, ModelId.YULE_SIMON):
            params = REFERENCE_PARAMS[model]
            assert cdf(model, params, 3.0) == cdf(model, params, 3.7)
            assert cdf(model, params, 3.0) > cdf(model, params, 2.9)

    def test_monotone_with_limits(self):
        for model, params in REFERENCE_PARAMS.items():
            xs = np.sort(_support_points(model))
            vals = cdf(model, params, xs)
            assert np.all(np.diff(vals) >= -1e-12), model
            assert np.all((vals >= 0.0) & (vals <= 1.0)), model

    def test_against_scipy_all_models(self):
        for model, params in REFERENCE_PARAMS.items():
            xs = _support_points(model)
            mine = cdf(model, params, xs)
            theirs = _SCIPY[model](params).cdf(xs)
            assert np.allclose(mine, theirs, atol=1e-8), model


    @pytest.mark.parametrize("ratio", np.geomspace(1e-2, 1e4, 13))
    def test_inverse_gaussian_large_shape_ratio(self, ratio):
        # exp(2 lam/mu) overflows past lam/mu = 355; the CDF must not turn NaN
        mu = 2.0
        params = {"mu": mu, "lam": ratio * mu}
        x = mu * np.concatenate(
            [np.geomspace(1e-3, 1e2, 300), 1.0 + np.linspace(-4.0, 6.0, 200) / math.sqrt(ratio)]
        )
        x = x[x > 0.0]
        want = _SCIPY[ModelId.INVERSE_GAUSSIAN](params).cdf(x)
        got = cdf(ModelId.INVERSE_GAUSSIAN, params, x)
        assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-16)

    def test_inverse_gaussian_overflowing_factor(self):
        got = cdf(ModelId.INVERSE_GAUSSIAN, {"mu": 1.0, "lam": 1000.0}, [0.9, 1.0, 1.1])
        assert np.all(np.isfinite(got)) and np.all(np.diff(got) > 0.0)


class TestLogLikelihood:
    def test_poisson_two_zeros(self):
        s = Sample(np.array([0.0, 0.0]), True)
        total, pw = log_likelihood(ModelId.POISSON, {"lam": 1.0}, s)
        assert total == pytest.approx(-2.0)
        assert pw.shape == s.support.shape
        assert np.dot(s.counts, pw) == total

    def test_exponential_hand(self):
        s = Sample(np.array([1.0, 2.0]), False)
        total, _ = log_likelihood(ModelId.EXPONENTIAL, {"mu": 1.0}, s)
        assert total == pytest.approx(-3.0)

    def test_gaussian_single_point(self):
        s = Sample(np.array([0.0]), False)
        total, _ = log_likelihood(ModelId.GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}, s)
        assert total == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_out_of_support_flags_total(self):
        s = Sample(np.array([1.0, -2.0]), False)
        total, pw = log_likelihood(ModelId.EXPONENTIAL, {"mu": 1.0}, s)
        assert total == -math.inf
        assert pw[s.support == -2.0][0] == -math.inf


class TestClosedFormFits:
    def test_exponential_mean(self):
        fit = mle_fit(ModelId.EXPONENTIAL, Sample(np.array([1.0, 2.0, 3.0]), False))
        assert fit.params["mu"] == pytest.approx(2.0)

    def test_poisson_mean(self):
        fit = mle_fit(ModelId.POISSON, Sample(np.array([0.0, 0.0, 3.0, 5.0]), True))
        assert fit.params["lam"] == pytest.approx(2.0)

    def test_gaussian_biased_variance(self):
        x = np.array([1.0, 2.0, 3.0, 6.0])
        fit = mle_fit(ModelId.GAUSSIAN, Sample(x, False))
        assert fit.params["mu"] == pytest.approx(3.0)
        assert fit.params["sigma2"] == pytest.approx(float(np.var(x)))

    def test_geometric(self):
        fit = mle_fit(ModelId.GEOMETRIC, Sample(np.array([0.0, 1.0, 2.0]), True))
        assert fit.params["p"] == pytest.approx(0.5)

    def test_rayleigh(self):
        x = np.array([1.0, 2.0, 2.0])
        fit = mle_fit(ModelId.RAYLEIGH, Sample(x, False))
        assert fit.params["b"] == pytest.approx(math.sqrt(np.sum(x**2) / 6.0))

    def test_lognormal(self):
        x = np.array([1.0, 2.0, 8.0])
        fit = mle_fit(ModelId.LOGNORMAL, Sample(x, False))
        assert fit.params["mu"] == pytest.approx(float(np.mean(np.log(x))))
        assert fit.params["sigma2"] == pytest.approx(float(np.var(np.log(x))))

    def test_perturbing_closed_form_does_not_improve(self):
        rng = RandomSource(21)
        for model in (ModelId.EXPONENTIAL, ModelId.POISSON, ModelId.GAUSSIAN,
                      ModelId.GEOMETRIC, ModelId.RAYLEIGH, ModelId.LOGNORMAL):
            samp = random_sample(model, REFERENCE_PARAMS[model], 2000, rng)
            fit = mle_fit(model, samp)
            for name, value in fit.params.items():
                for bump in (0.99, 1.01):
                    tweaked = dict(fit.params)
                    tweaked[name] = value * bump
                    total, _ = log_likelihood(model, tweaked, samp)
                    assert total <= fit.total_loglik + 1e-9

    def test_total_is_sum_of_pointwise(self):
        rng = RandomSource(3)
        samp = random_sample(ModelId.GAMMA, {"a": 2.0, "b": 1.0}, 500, rng)
        fit = mle_fit(ModelId.GAMMA, samp)
        assert fit.total_loglik == pytest.approx(
            float(np.sum(fit.pointwise_loglik)), rel=1e-8
        )


class TestOptimizerFits:
    def test_closed_form_agreement(self):
        # optimizer path must match closed forms within 1e-5 relative
        for seed in range(3):
            rng = RandomSource(100 + seed)
            for model in (
                ModelId.EXPONENTIAL,
                ModelId.POISSON,
                ModelId.GAUSSIAN,
                ModelId.INVERSE_GAUSSIAN,
            ):
                samp = random_sample(model, REFERENCE_PARAMS[model], 2000, rng)
                closed = mle_fit(model, samp)
                opt = mle_fit(model, samp, FitOptions(method="optimizer"))
                for name in closed.params:
                    assert opt.params[name] == pytest.approx(
                        closed.params[name], rel=1e-5
                    )

    def test_inverse_gaussian_closed_form(self):
        samp = random_sample(
            ModelId.INVERSE_GAUSSIAN, REFERENCE_PARAMS[ModelId.INVERSE_GAUSSIAN], 500,
            RandomSource(11),
        )
        x = samp.values
        fit = mle_fit(ModelId.INVERSE_GAUSSIAN, samp)
        assert fit.params["mu"] == pytest.approx(np.mean(x), rel=1e-13)
        assert fit.params["lam"] == pytest.approx(
            1.0 / (np.mean(1.0 / x) - 1.0 / np.mean(x)), rel=1e-10
        )

    def test_yule_recovery(self):
        samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 100_000, RandomSource(8))
        fit = mle_fit(ModelId.YULE_SIMON, samp)
        assert 1.45 <= fit.params["p"] <= 1.55

    def test_powerlaw_xmin_fixed_to_min(self):
        samp = random_sample(
            ModelId.POWERLAW, {"alpha": 2.5, "xmin": 3.0}, 5000, RandomSource(9)
        )
        fit = mle_fit(ModelId.POWERLAW, samp)
        assert fit.params["xmin"] == float(np.min(samp.values))

    def test_nonconvergence_is_flagged(self):
        samp = random_sample(ModelId.GAMMA, {"a": 3.0, "b": 1.5}, 500, RandomSource(10))
        fit = mle_fit(ModelId.GAMMA, samp, FitOptions(max_iter=3, restarts=0))
        assert not fit.converged


class TestFitPreconditions:
    def test_discrete_model_rejects_real_data(self):
        s = Sample(np.array([1.5, 2.5, 3.5]), False)
        with pytest.raises(SupportError):
            mle_fit(ModelId.POISSON, s)

    def test_continuous_on_integer_flagged(self):
        s = Sample(np.array([1.0, 2.0, 3.0, 4.0]), True)
        fit = mle_fit(ModelId.EXPONENTIAL, s)
        assert fit.continuous_on_integer_data

    def test_degenerate_sample(self):
        with pytest.raises(DegenerateSampleError):
            mle_fit(ModelId.GAUSSIAN, Sample(np.array([2.0, 2.0, 2.0]), False))
        with pytest.raises(DegenerateSampleError):
            mle_fit(ModelId.POISSON, Sample(np.array([0.0, 0.0]), True))

    @pytest.mark.parametrize("value", [2.0, 0.1])
    def test_constant_sample_has_no_inverse_gaussian_fit(self, value):
        samp = Sample(np.full(3, value), False)
        for options in (FitOptions(), FitOptions(method="optimizer")):
            with pytest.raises(DegenerateSampleError):
                mle_fit(ModelId.INVERSE_GAUSSIAN, samp, options)

    @pytest.mark.parametrize(
        "model",
        [
            ModelId.GAMMA,
            ModelId.GAUSSIAN,
            ModelId.GEV,
            ModelId.GENERALIZED_PARETO,
            ModelId.INVERSE_GAUSSIAN,
            ModelId.LOGISTIC,
            ModelId.LOGNORMAL,
            ModelId.NAKAGAMI,
            ModelId.POWERLAW,
            ModelId.WEIBULL,
        ],
    )
    def test_constant_sample_has_no_fit(self, model, monkeypatch):
        # each of these likelihoods grows without bound on one distinct value
        def fail(*args):
            raise AssertionError("a constant sample reached a fit")

        monkeypatch.setattr(distributions, "_fit_params", fail)
        monkeypatch.setattr(distributions, "_fit_powerlaw", fail)
        samples = [Sample(np.full(4, 2.0), True)]
        if not is_discrete_model(model):
            samples.append(Sample(np.full(4, 1.5), False))
        for samp in samples:
            for options in (FitOptions(), FitOptions(method="optimizer")):
                with pytest.raises(DegenerateSampleError, match="at least two distinct values"):
                    mle_fit(model, samp, options)

    def test_unknown_method_rejected(self):
        FitOptions(method="optimizer")
        for method in ("optimiser", "closed", ""):
            with pytest.raises(ConfigError):
                FitOptions(method=method)

    @pytest.mark.parametrize(
        "bad",
        [
            {"tol": 0.0},
            {"tol": -1e-8},
            {"tol": math.nan},
            {"tol": math.inf},
            {"max_iter": 0},
            {"max_iter": -5},
            {"restarts": -1},
            {"seed": -1},
        ],
    )
    def test_bad_numeric_settings_rejected(self, bad):
        with pytest.raises(ConfigError):
            FitOptions(**bad)

    def test_edge_numeric_settings_accepted(self):
        opts = FitOptions(tol=1e-300, max_iter=1, restarts=0, seed=0)
        fit = mle_fit(ModelId.WEIBULL, Sample(np.array([1.0, 2.0, 4.0, 7.0]), False), opts)
        assert not fit.converged

    def test_too_few_observations(self):
        with pytest.raises(DegenerateSampleError):
            mle_fit(ModelId.GAMMA, Sample(np.array([1.0, 2.0]), False))

    def test_record_serialization(self):
        fit = mle_fit(ModelId.EXPONENTIAL, Sample(np.array([1.0, 2.0, 3.0]), False))
        rec = fit.to_record()
        assert rec.startswith("model=exponential n=3 mu=2 ")
        assert "aicc=" in rec and "total_loglik=" in rec


def _blocked_dot(c, v):
    """One np.dot per block of distinct values, added left to right."""
    step = distributions._BLOCK
    dots = [float(np.dot(c[lo : lo + step], v[lo : lo + step])) for lo in range(0, c.size, step)]
    return functools.reduce(operator.add, dots)


class TestOptimizerObjective:
    """The optimizer's log-likelihood must be the one ``log_likelihood``
    defines, bit for bit."""

    BAD = -50.5  # outside the support of every model but these two
    WHOLE_LINE = {ModelId.GAUSSIAN, ModelId.LOGISTIC}

    @staticmethod
    def _sample(model):
        # more than two blocks of distinct values, the last one partial
        gen = np.random.default_rng(7)
        size = 3 * distributions._BLOCK - 1000
        if is_discrete_model(model):
            x = np.arange(1.0, size + 1.0)
        else:
            spec = distributions._SPECS[model]
            x = np.unique(spec.sample(REFERENCE_PARAMS[model], size + 500, gen))
        assert x.size > 20_000
        return x, gen.integers(1, 6, size=x.size).astype(np.float64)

    @pytest.mark.parametrize("model", list(ModelId))
    def test_blocked_equals_one_dot(self, model):
        spec = distributions._SPECS[model]
        x, c = self._sample(model)
        ref = REFERENCE_PARAMS[model]
        points = [ref] + [
            {k: v * f if k != "xmin" else v for k, v in ref.items()} for f in (0.7, 1.3)
        ]
        loglik = distributions._blocked_loglik(spec, x, c)
        for params in points:
            assert loglik(params) == _blocked_dot(c, log_density(model, params, x))
        assert math.isfinite(loglik(ref))
        xb, cb = np.insert(x, 0, self.BAD), np.insert(c, 0, 1.0)
        got = distributions._blocked_loglik(spec, xb, cb)(ref)
        assert got == _blocked_dot(cb, log_density(model, ref, xb))
        assert math.isfinite(got) if model in self.WHOLE_LINE else got == -math.inf


class TestSampling:
    def test_gaussian_mean_clt_bound(self):
        samp = random_sample(
            ModelId.GAUSSIAN, {"mu": 0.0, "sigma2": 1.0}, 100_000, RandomSource(1)
        )
        assert abs(float(np.mean(samp.values))) < 0.02

    def test_geometric_mean(self):
        samp = random_sample(ModelId.GEOMETRIC, {"p": 0.5}, 100_000, RandomSource(2))
        assert abs(float(np.mean(samp.values)) - 1.0) < 0.03

    def test_powerlaw_support_floor(self):
        samp = random_sample(
            ModelId.POWERLAW, {"alpha": 2.5, "xmin": 1.0}, 20_000, RandomSource(3)
        )
        assert float(np.min(samp.values)) == 1.0

    def test_determinism(self):
        a = random_sample(ModelId.WEIBULL, REFERENCE_PARAMS[ModelId.WEIBULL], 100, RandomSource(5))
        b = random_sample(ModelId.WEIBULL, REFERENCE_PARAMS[ModelId.WEIBULL], 100, RandomSource(5))
        assert np.array_equal(a.values, b.values)

    def test_empirical_cdf_converges(self):
        for model in (
            ModelId.GAMMA,
            ModelId.GEV,
            ModelId.LOGISTIC,
            ModelId.YULE_SIMON,
            ModelId.NEGATIVE_BINOMIAL,
        ):
            params = REFERENCE_PARAMS[model]
            samp = random_sample(model, params, 50_000, RandomSource(6))
            if is_discrete_model(model):
                # compare at integer support points instead of the KS gap
                xs = np.unique(samp.values)[:30]
                emp = np.array([np.mean(samp.values <= x) for x in xs])
                theo = cdf(model, params, xs)
                assert np.max(np.abs(emp - theo)) < 0.01, model
            else:
                d = ks_statistic(samp, lambda x, m=model, p=params: cdf(m, p, x))
                assert d < 0.01, model


class TestNormalization:
    def test_discrete_pmf_sums_to_one(self):
        bounds = {
            ModelId.GEOMETRIC: 200,
            ModelId.POISSON: 200,
            ModelId.NEGATIVE_BINOMIAL: 400,
            ModelId.YULE_SIMON: 2_000_000,
            ModelId.POWERLAW: 2_000_000,
        }
        for model, hi in bounds.items():
            params = REFERENCE_PARAMS[model]
            lo = 1 if model in (ModelId.POWERLAW, ModelId.YULE_SIMON) else 0
            xs = np.arange(lo, hi, dtype=np.float64)
            mass = float(np.sum(np.exp(log_density(model, params, xs))))
            # heavy-tailed models are summed to a bound and topped up with
            # the survival mass from the model's own CDF
            tail = 1.0 - cdf(model, params, float(hi - 1))
            assert mass + tail == pytest.approx(1.0, abs=1e-6), model
            assert mass <= 1.0 + 1e-9

    def test_continuous_density_integrates_to_one(self):
        for model in (
            ModelId.EXPONENTIAL,
            ModelId.GAMMA,
            ModelId.GAUSSIAN,
            ModelId.WEIBULL,
            ModelId.LOGISTIC,
            ModelId.NAKAGAMI,
        ):
            params = REFERENCE_PARAMS[model]
            pdf = lambda x, m=model, p=params: math.exp(log_density(m, p, float(x)))
            lo = -np.inf if model in (ModelId.GAUSSIAN, ModelId.LOGISTIC) else 0.0
            total, _ = scipy.integrate.quad(pdf, lo, np.inf, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6), model

    def test_cdf_density_consistency_random_intervals(self):
        rng = np.random.default_rng(12)
        for model in (ModelId.GAMMA, ModelId.GEV, ModelId.INVERSE_GAUSSIAN):
            params = REFERENCE_PARAMS[model]
            dist = _SCIPY[model](params)
            for _ in range(5):
                a, b = np.sort(dist.ppf(rng.uniform(0.05, 0.95, size=2)))
                pdf = lambda x, m=model, p=params: math.exp(log_density(m, p, float(x)))
                quad, _ = scipy.integrate.quad(pdf, a, b, limit=200)
                diff = cdf(model, params, float(b)) - cdf(model, params, float(a))
                assert quad == pytest.approx(diff, abs=1e-7), model

    def test_cdf_pmf_consistency_discrete(self):
        for model in (ModelId.POISSON, ModelId.YULE_SIMON, ModelId.NEGATIVE_BINOMIAL):
            params = REFERENCE_PARAMS[model]
            lo = 1 if model is ModelId.YULE_SIMON else 0
            a, b = lo + 1, lo + 7
            xs = np.arange(a, b + 1, dtype=np.float64)
            mass = float(np.sum(np.exp(log_density(model, params, xs))))
            diff = cdf(model, params, float(b)) - cdf(model, params, float(a - 1))
            assert mass == pytest.approx(diff, abs=1e-7), model


class TestNestedPairs:
    def test_exact_set(self):
        pairs = nested_pairs()
        assert len(pairs) == 5
        assert (ModelId.EXPONENTIAL, ModelId.GAMMA) in pairs
        assert (ModelId.EXPONENTIAL, ModelId.WEIBULL) in pairs
        assert (ModelId.EXPONENTIAL, ModelId.GENERALIZED_PARETO) in pairs
        assert (ModelId.GEOMETRIC, ModelId.NEGATIVE_BINOMIAL) in pairs
        assert (ModelId.RAYLEIGH, ModelId.WEIBULL) in pairs

    def test_absent_pair(self):
        assert (ModelId.POISSON, ModelId.GAUSSIAN) not in nested_pairs()


class TestSampleType:
    def test_discrete_flag_validated(self):
        with pytest.raises(UsageError):
            Sample(np.array([1.5]), True)
        with pytest.raises(UsageError):
            Sample(np.array([]), False)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        # np.unique would fold every NaN into one support point
        with pytest.raises(UsageError, match="non-finite"):
            Sample(np.array([1.0, bad, bad]), False)

    def test_arity(self):
        assert arity(ModelId.GEV) == 3
        assert arity(ModelId.POISSON) == 1
