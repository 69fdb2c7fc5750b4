"""The 16 parametric models: density/mass, CDF, likelihood, MLE, sampling.

Every model is described by a registry entry holding its parameter names
and domains, support, vectorized log-density and CDF, a sampler and
(where one exists) a closed-form maximum-likelihood fit. Models without a
closed form are fitted with the transformed Nelder-Mead optimizer on the
negative log-likelihood; support-violating proposals contribute -inf,
which the optimizer treats as a rejected move. Gamma and Nakagami evaluate
that likelihood from sums taken once per fit; the other models evaluate
their log-density over the distinct values in cache-sized blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSampleError,
    ParameterError,
    SupportError,
    UsageError,
)
from .numerics import (
    OptimizationProblem,
    RandomSource,
    hurwitz_zeta,
    log_gamma,
    nelder_mead_minimize,
    regularized_incomplete_beta,
    regularized_incomplete_gamma_lower,
    std_normal_cdf,
)

__all__ = [
    "ModelId",
    "Sample",
    "FittedModel",
    "FitOptions",
    "arity",
    "is_discrete_model",
    "log_density",
    "cdf",
    "log_likelihood",
    "mle_fit",
    "random_sample",
    "nested_pairs",
]

_NEG_INF = -np.inf
_EPS_K = 1e-12  # shape values below this are treated as the k -> 0 limit
# Distinct values per logpdf call in an optimizer objective: every numpy
# temporary is then 64 KiB, inside L2 cache and below glibc's 128 KiB mmap
# threshold, so it is not mapped, zero-filled and unmapped on each call.
_BLOCK = 8192


class ModelId(str, Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    GAUSSIAN = "gaussian"
    GEV = "gev"
    GENERALIZED_PARETO = "generalized_pareto"
    GEOMETRIC = "geometric"
    INVERSE_GAUSSIAN = "inverse_gaussian"
    LOGISTIC = "logistic"
    LOGNORMAL = "lognormal"
    NAKAGAMI = "nakagami"
    NEGATIVE_BINOMIAL = "negative_binomial"
    POISSON = "poisson"
    POWERLAW = "powerlaw"
    RAYLEIGH = "rayleigh"
    WEIBULL = "weibull"
    YULE_SIMON = "yule_simon"


@dataclass
class Sample:
    """An ordered multiset of numeric observations.

    Statistics read ``support`` (the sorted distinct values) and float
    ``counts``, derived once; ``values`` keeps the order given.
    ``is_discrete`` asserts that every value is an integer; fitting a
    discrete model to a sample that is not flagged discrete (or holds
    non-integral values) is a support error.
    """

    values: np.ndarray
    is_discrete: bool
    support: np.ndarray = field(init=False, repr=False)
    counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size == 0:
            raise UsageError("a sample needs at least one observation")
        if not np.all(np.isfinite(self.values)):
            raise UsageError("sample contains non-finite values")
        self.support, counts = np.unique(self.values, return_counts=True)
        self.counts = counts.astype(np.float64)
        if self.is_discrete and not _is_integral(self.support):
            raise UsageError("discrete sample contains non-integer values")

    @property
    def n(self) -> int:
        return int(self.values.size)


@dataclass
class FittedModel:
    """A model id, its MLE parameters and the likelihood bookkeeping:
    ``pointwise_loglik`` per distinct value, weighted by ``counts``."""

    model: ModelId
    params: dict[str, float]
    n: int
    total_loglik: float
    pointwise_loglik: np.ndarray
    counts: np.ndarray
    aicc: float
    converged: bool = True
    continuous_on_integer_data: bool = False

    def to_record(self) -> str:
        """Flat key=value text record."""
        parts = [f"model={self.model.value}", f"n={self.n}"]
        for name in _SPECS[self.model].param_names:
            parts.append(f"{name}={self.params[name]:.10g}")
        parts.append(f"total_loglik={self.total_loglik:.10g}")
        parts.append(f"aicc={self.aicc:.10g}")
        parts.append(f"converged={str(self.converged).lower()}")
        return " ".join(parts)


@dataclass
class FitOptions:
    allow_continuous_on_integer: bool = True
    method: str = "auto"  # "auto" uses closed forms where they exist
    tol: float = 1e-8
    max_iter: int = 10_000
    restarts: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("auto", "optimizer"):
            raise ConfigError(
                f"unknown fit method {self.method!r}; choose 'auto' or 'optimizer'"
            )


def _as_array(x):
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _safe_log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def _mean(x, c):  # of a sample given as distinct values x with counts c
    return float(np.dot(c, x) / np.sum(c))


def _var(x, c):
    return _mean((x - _mean(x, c)) ** 2, c)


# ---------------------------------------------------------------------------
# per-model definitions
# ---------------------------------------------------------------------------


@dataclass
class _ModelSpec:
    model: ModelId
    param_names: tuple[str, ...]
    discrete: bool
    validate: Callable[[dict], None]
    logpdf: Callable[[dict, np.ndarray], np.ndarray]
    cdf: Callable[[dict, np.ndarray], np.ndarray]
    sample: Callable[[dict, int, np.random.Generator], np.ndarray]
    support_check: Callable[[np.ndarray], bool]  # on the distinct values
    closed_fit: Callable[[np.ndarray, np.ndarray], dict] | None = None
    init_guess: Callable[[np.ndarray, np.ndarray], list[float]] | None = None
    transforms: tuple[str, ...] = ()
    # (x, c) -> (params -> total log-likelihood), from sums taken once per fit
    stats_loglik: Callable[[np.ndarray, np.ndarray], Callable[[dict], float]] | None = None

    @property
    def arity(self) -> int:
        return len(self.param_names)


def _positive(params, *names):
    for nm in names:
        if not params[nm] > 0.0:
            raise ParameterError(f"{nm} must be positive, got {params[nm]}")


def _is_integral(x):
    return bool(np.all(x == np.floor(x)))


# -- exponential ------------------------------------------------------------


def _exp_logpdf(p, x):
    mu = p["mu"]
    out = -math.log(mu) - x / mu
    return np.where(x >= 0.0, out, _NEG_INF)


def _exp_cdf(p, x):
    return np.where(x >= 0.0, 1.0 - np.exp(-np.maximum(x, 0.0) / p["mu"]), 0.0)


def _exp_fit(x, c):
    m = _mean(x, c)
    if m <= 0.0:
        raise DegenerateSampleError("exponential needs a positive mean")
    return {"mu": m}


# -- gamma --------------------------------------------------------------------


def _gamma_logpdf(p, x):
    a, b = p["a"], p["b"]
    out = np.where(
        x > 0.0,
        -a * math.log(b) - log_gamma(a) + (a - 1.0) * _safe_log(x) - x / b,
        _NEG_INF,
    )
    return out


def _gamma_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return regularized_incomplete_gamma_lower(p["a"], xa / p["b"])


def _gamma_stats_loglik(x, c):  # x > 0: the support check has run
    n, s_log, s_x = float(np.sum(c)), float(np.dot(c, np.log(x))), float(np.dot(c, x))

    def loglik(p):
        a, b = p["a"], p["b"]
        return -n * (a * math.log(b) + log_gamma(a)) + (a - 1.0) * s_log - s_x / b

    return loglik


# -- gaussian -----------------------------------------------------------------


def _gauss_logpdf(p, x):
    mu, s2 = p["mu"], p["sigma2"]
    return -0.5 * math.log(2.0 * math.pi * s2) - (x - mu) ** 2 / (2.0 * s2)


def _gauss_cdf(p, x):
    return std_normal_cdf((x - p["mu"]) / math.sqrt(p["sigma2"]))


def _gauss_fit(x, c):
    s2 = _var(x, c)
    if s2 <= 0.0:
        raise DegenerateSampleError("gaussian needs positive sample variance")
    return {"mu": _mean(x, c), "sigma2": s2}


# -- generalized extreme value ------------------------------------------------


def _gev_logpdf(p, x):
    k, sigma, mu = p["k"], p["sigma"], p["mu"]
    with np.errstate(all="ignore"):
        z = (x - mu) / sigma
        if abs(k) < _EPS_K:
            return -math.log(sigma) - z - np.exp(-z)
        t = 1.0 + k * z
        out = (
            -math.log(sigma)
            - (1.0 + 1.0 / k) * _safe_log(t)
            - np.power(np.maximum(t, 0.0), -1.0 / k)
        )
        return np.where(t > 0.0, out, _NEG_INF)


def _gev_cdf(p, x):
    k, sigma, mu = p["k"], p["sigma"], p["mu"]
    z = (x - mu) / sigma
    if abs(k) < _EPS_K:
        return np.exp(-np.exp(-z))
    t = 1.0 + k * z
    inside = np.exp(-np.power(np.maximum(t, 1e-300), -1.0 / k))
    if k > 0:
        return np.where(t > 0.0, inside, 0.0)
    return np.where(t > 0.0, inside, 1.0)


def _gev_sample(p, n, gen):
    k, sigma, mu = p["k"], p["sigma"], p["mu"]
    e = -np.log(gen.uniform(size=n))
    if abs(k) < _EPS_K:
        return mu - sigma * np.log(e)
    return mu + sigma * (np.power(e, -k) - 1.0) / k


def _gev_init(x, c):
    sd = math.sqrt(_var(x, c)) or 1.0
    sigma0 = sd * math.sqrt(6.0) / math.pi
    return [0.1, sigma0, _mean(x, c) - 0.5772 * sigma0]


# -- generalized pareto ---------------------------------------------------------


def _gp_logpdf(p, x):
    k, sigma, theta = p["k"], p["sigma"], p["theta"]
    with np.errstate(all="ignore"):
        z = (x - theta) / sigma
        if abs(k) < _EPS_K:
            return np.where(z >= 0.0, -math.log(sigma) - z, _NEG_INF)
        t = 1.0 + k * z
        out = -math.log(sigma) - (1.0 + 1.0 / k) * _safe_log(t)
        return np.where((z >= 0.0) & (t > 0.0), out, _NEG_INF)


def _gp_cdf(p, x):
    k, sigma, theta = p["k"], p["sigma"], p["theta"]
    z = np.maximum((x - theta) / sigma, 0.0)
    if abs(k) < _EPS_K:
        return 1.0 - np.exp(-z)
    t = 1.0 + k * z
    if k > 0:
        return 1.0 - np.power(t, -1.0 / k)
    return np.where(t > 0.0, 1.0 - np.power(np.maximum(t, 0.0), -1.0 / k), 1.0)


def _gp_sample(p, n, gen):
    k, sigma, theta = p["k"], p["sigma"], p["theta"]
    u = gen.uniform(size=n)
    if abs(k) < _EPS_K:
        return theta - sigma * np.log1p(-u)
    return theta + sigma * (np.power(1.0 - u, -k) - 1.0) / k


def _gp_init(x, c):
    lo = float(x[0])
    sd = math.sqrt(_var(x, c)) or 1.0
    return [0.1, sd, lo - 0.05 * sd]


# -- geometric (support N0, pmf (1-p)^x p) --------------------------------------


def _geo_validate(p):
    if not 0.0 < p["p"] <= 1.0:
        raise ParameterError("geometric needs 0 < p <= 1")


def _geo_logpdf(p, x):
    pr = p["p"]
    ok = (x >= 0.0) & (x == np.floor(x))
    if pr == 1.0:
        return np.where(ok & (x == 0.0), 0.0, _NEG_INF)
    return np.where(ok, x * math.log(1.0 - pr) + math.log(pr), _NEG_INF)


def _geo_cdf(p, x):
    k = np.floor(x)
    return np.where(k >= 0.0, 1.0 - (1.0 - p["p"]) ** (k + 1.0), 0.0)


def _geo_fit(x, c):
    return {"p": 1.0 / (1.0 + _mean(x, c))}


# -- inverse gaussian ------------------------------------------------------------


def _ig_logpdf(p, x):
    mu, lam = p["mu"], p["lam"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * (math.log(lam) - math.log(2.0 * math.pi) - 3.0 * _safe_log(x)) - (
            lam * (x - mu) ** 2
        ) / (2.0 * mu**2 * np.where(x > 0.0, x, 1.0))
    return np.where(x > 0.0, out, _NEG_INF)


def _ig_cdf(p, x):
    mu, lam = p["mu"], p["lam"]
    xp = np.maximum(x, 1e-300)
    r = np.sqrt(lam / xp)
    term = std_normal_cdf(r * (xp / mu - 1.0)) + np.exp(2.0 * lam / mu) * std_normal_cdf(
        -r * (xp / mu + 1.0)
    )
    return np.where(x > 0.0, term, 0.0)


def _ig_fit(x, c):
    m = _mean(x, c)
    inv = _mean(1.0 / x, c) - 1.0 / m
    if x.size < 2 or inv <= 0.0:
        raise DegenerateSampleError("inverse gaussian needs a non-constant sample")
    return {"mu": m, "lam": 1.0 / inv}


# -- logistic ---------------------------------------------------------------------


def _logi_logpdf(p, x):
    mu, sigma = p["mu"], p["sigma"]
    s = (x - mu) / sigma
    return -np.abs(s) - math.log(sigma) - 2.0 * np.log1p(np.exp(-np.abs(s)))


def _logi_cdf(p, x):
    s = (x - p["mu"]) / p["sigma"]
    return 1.0 / (1.0 + np.exp(-s))


def _logi_init(x, c):
    return [_mean(x, c), math.sqrt(_var(x, c)) * math.sqrt(3.0) / math.pi]


# -- log-normal -----------------------------------------------------------------


def _logn_logpdf(p, x):
    mu, s2 = p["mu"], p["sigma2"]
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = _safe_log(x)
        out = -lx - 0.5 * math.log(2.0 * math.pi * s2) - (lx - mu) ** 2 / (2.0 * s2)
    return np.where(x > 0.0, out, _NEG_INF)


def _logn_cdf(p, x):
    xp = np.maximum(x, 1e-300)
    return np.where(
        x > 0.0, std_normal_cdf((np.log(xp) - p["mu"]) / math.sqrt(p["sigma2"])), 0.0
    )


def _logn_fit(x, c):
    if x[0] <= 0.0:
        raise SupportError("log-normal requires positive observations")
    lx = np.log(x)
    s2 = _var(lx, c)
    if s2 <= 0.0:
        raise DegenerateSampleError("log-normal needs positive variance of ln x")
    return {"mu": _mean(lx, c), "sigma2": s2}


# -- nakagami --------------------------------------------------------------------


def _naka_logpdf(p, x):
    mu, om = p["mu"], p["omega"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            math.log(2.0)
            + mu * math.log(mu / om)
            - log_gamma(mu)
            + (2.0 * mu - 1.0) * _safe_log(x)
            - mu * x**2 / om
        )
    return np.where(x > 0.0, out, _NEG_INF)


def _naka_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return regularized_incomplete_gamma_lower(p["mu"], p["mu"] * xa**2 / p["omega"])


def _naka_stats_loglik(x, c):  # x > 0: the support check has run
    n, s_log, s_x2 = float(np.sum(c)), float(np.dot(c, np.log(x))), float(np.dot(c, x**2))

    def loglik(p):
        mu, om = p["mu"], p["omega"]
        return (
            n * (math.log(2.0) + mu * math.log(mu / om) - log_gamma(mu))
            + (2.0 * mu - 1.0) * s_log
            - mu * s_x2 / om
        )

    return loglik


def _naka_init(x, c):
    x2 = x**2
    om = _mean(x2, c)
    v = _var(x2, c)
    mu0 = om**2 / v if v > 0 else 1.0
    return [max(mu0, 0.1), om]


# -- negative binomial ------------------------------------------------------------


def _nbin_validate(p):
    if not p["r"] > 0.0:
        raise ParameterError("negative binomial needs r > 0")
    if not 0.0 < p["p"] < 1.0:
        raise ParameterError("negative binomial needs 0 < p < 1")


def _nbin_logpdf(p, x):
    r, pr = p["r"], p["p"]
    ok = (x >= 0.0) & (x == np.floor(x))
    xs = np.where(ok, x, 0.0)
    out = (
        log_gamma(r + xs)
        - log_gamma(xs + 1.0)
        - log_gamma(r)
        + xs * math.log(pr)
        + r * math.log(1.0 - pr)
    )
    return np.where(ok, out, _NEG_INF)


def _nbin_cdf(p, x):
    k = np.floor(x)
    return np.where(
        k >= 0.0,
        regularized_incomplete_beta(p["r"], np.maximum(k, 0.0) + 1.0, 1.0 - p["p"]),
        0.0,
    )


def _nbin_sample(p, n, gen):
    # numpy's p is the per-trial probability of *its* success, which plays
    # the role of our failure probability 1 - p
    return gen.negative_binomial(p["r"], 1.0 - p["p"], size=n).astype(np.float64)


def _nbin_init(x, c):
    m = _mean(x, c)
    v = _var(x, c)
    if v <= m:
        v = m * 1.5 + 1e-6
    p0 = min(max(1.0 - m / v, 1e-4), 1.0 - 1e-4)
    r0 = max(m * (1.0 - p0) / p0, 1e-3)
    return [r0, p0]


# -- poisson ----------------------------------------------------------------------


def _pois_logpdf(p, x):
    lam = p["lam"]
    ok = (x >= 0.0) & (x == np.floor(x))
    xs = np.where(ok, x, 0.0)
    out = xs * math.log(lam) - lam - log_gamma(xs + 1.0)
    return np.where(ok, out, _NEG_INF)


def _pois_cdf(p, x):
    k = np.floor(x)
    return np.where(
        k >= 0.0,
        1.0 - regularized_incomplete_gamma_lower(np.maximum(k, 0.0) + 1.0, p["lam"]),
        0.0,
    )


def _pois_fit(x, c):
    m = _mean(x, c)
    if m <= 0.0:
        raise DegenerateSampleError("poisson needs a positive mean")
    return {"lam": m}


# -- discrete power law -------------------------------------------------------------


def _plaw_validate(p):
    if not p["alpha"] > 1.0:
        raise ParameterError("power law needs alpha > 1")
    if p["xmin"] < 1.0 or p["xmin"] != math.floor(p["xmin"]):
        raise ParameterError("power law cutoff xmin must be a positive integer")


def _plaw_logpdf(p, x):
    alpha, xmin = p["alpha"], p["xmin"]
    lz = math.log(hurwitz_zeta(alpha, xmin))
    ok = (x >= xmin) & (x == np.floor(x))
    return np.where(ok, -alpha * _safe_log(np.where(ok, x, 1.0)) - lz, _NEG_INF)


def _plaw_cdf(p, x):
    alpha, xmin = p["alpha"], p["xmin"]
    z0 = hurwitz_zeta(alpha, xmin)
    k = np.floor(np.asarray(x, dtype=np.float64))
    out = np.zeros_like(k)
    for i, ki in np.ndenumerate(k):
        if ki >= xmin:
            out[i] = 1.0 - hurwitz_zeta(alpha, ki + 1.0) / z0
    return out


def _plaw_sample(p, n, gen):
    alpha, xmin = p["alpha"], int(p["xmin"])
    z0 = hurwitz_zeta(alpha, xmin)
    table = 1_000_000
    ks = np.arange(xmin, xmin + table, dtype=np.float64)
    pmf = np.exp(-alpha * np.log(ks)) / z0
    cum = np.cumsum(pmf)
    u = gen.uniform(size=n)
    idx = np.searchsorted(cum, u)
    out = xmin + idx.astype(np.float64)
    # beyond the table the continuous inverse is effectively exact
    tail = idx >= table
    if np.any(tail):
        top = float(cum[-1])
        v = (u[tail] - top) / max(1.0 - top, 1e-300)
        x0 = xmin + table - 0.5
        out[tail] = np.floor(x0 * np.power(1.0 - v, -1.0 / (alpha - 1.0)) + 0.5)
    return out


# -- rayleigh -----------------------------------------------------------------------


def _rayl_logpdf(p, x):
    b = p["b"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _safe_log(x) - 2.0 * math.log(b) - x**2 / (2.0 * b**2)
    return np.where(x > 0.0, out, _NEG_INF)


def _rayl_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return 1.0 - np.exp(-(xa**2) / (2.0 * p["b"] ** 2))


def _rayl_fit(x, c):
    s = float(np.dot(c, x**2))
    if s <= 0.0:
        raise DegenerateSampleError("rayleigh needs positive observations")
    return {"b": math.sqrt(s / (2.0 * np.sum(c)))}


# -- weibull ------------------------------------------------------------------------


def _wbl_logpdf(p, x):
    a, b = p["a"], p["b"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (
            math.log(b)
            - math.log(a)
            + (b - 1.0) * (_safe_log(x) - math.log(a))
            - np.power(np.maximum(x, 0.0) / a, b)
        )
    return np.where(x > 0.0, out, _NEG_INF)


def _wbl_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return 1.0 - np.exp(-np.power(xa / p["a"], p["b"]))


def _wbl_init(x, c):
    sd = math.sqrt(_var(np.log(x), c))
    b0 = 1.2 / sd if sd > 0 else 1.0
    return [_mean(x, c), b0]


# -- yule-simon (pmf p * B(x, p+1), support x >= 1) -----------------------------------


def _yule_logpdf(p, x):
    rho = p["p"]
    ok = (x >= 1.0) & (x == np.floor(x))
    xs = np.where(ok, x, 1.0)
    out = math.log(rho) + log_gamma(xs) + log_gamma(rho + 1.0) - log_gamma(xs + rho + 1.0)
    return np.where(ok, out, _NEG_INF)


def _yule_cdf(p, x):
    rho = p["p"]
    k = np.floor(np.asarray(x, dtype=np.float64))
    ok = k >= 1.0
    ks = np.where(ok, k, 1.0)
    # survival Pr(X > k) = k * B(k, p+1)
    logsurv = np.log(ks) + log_gamma(ks) + log_gamma(rho + 1.0) - log_gamma(ks + rho + 1.0)
    return np.where(ok, 1.0 - np.exp(logsurv), 0.0)


def _yule_sample(p, n, gen):
    w = gen.exponential(1.0 / p["p"], size=n)
    u = np.clip(np.exp(-w), 1e-15, 1.0)
    return gen.geometric(u).astype(np.float64)


def _yule_init(x, c):
    m = _mean(x, c)
    if m > 1.05:
        return [max(m / (m - 1.0), 0.05)]
    return [10.0]


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _nonneg_int(values):
    return _is_integral(values) and bool(np.all(values >= 0.0))


def _pos_int(values):
    return _is_integral(values) and bool(np.all(values >= 1.0))


def _pos_real(values):
    return bool(np.all(values > 0.0))


def _nonneg_real(values):
    return bool(np.all(values >= 0.0))


def _any_real(values):
    return True


_SPECS: dict[ModelId, _ModelSpec] = {}


def _register(spec: _ModelSpec):
    _SPECS[spec.model] = spec


_register(
    _ModelSpec(
        ModelId.EXPONENTIAL,
        ("mu",),
        False,
        lambda p: _positive(p, "mu"),
        _exp_logpdf,
        _exp_cdf,
        lambda p, n, g: g.exponential(p["mu"], size=n),
        _nonneg_real,
        closed_fit=_exp_fit,
        init_guess=lambda x, c: [max(_mean(x, c), 1e-8)],
        transforms=("log",),
    )
)

_register(
    _ModelSpec(
        ModelId.GAMMA,
        ("a", "b"),
        False,
        lambda p: _positive(p, "a", "b"),
        _gamma_logpdf,
        _gamma_cdf,
        lambda p, n, g: g.gamma(p["a"], p["b"], size=n),
        _pos_real,
        init_guess=lambda x, c: [
            max(_mean(x, c) ** 2 / max(_var(x, c), 1e-12), 1e-3),
            max(_var(x, c) / max(_mean(x, c), 1e-12), 1e-8),
        ],
        transforms=("log", "log"),
        stats_loglik=_gamma_stats_loglik,
    )
)

_register(
    _ModelSpec(
        ModelId.GAUSSIAN,
        ("mu", "sigma2"),
        False,
        lambda p: _positive(p, "sigma2"),
        _gauss_logpdf,
        _gauss_cdf,
        lambda p, n, g: g.normal(p["mu"], math.sqrt(p["sigma2"]), size=n),
        _any_real,
        closed_fit=_gauss_fit,
        init_guess=lambda x, c: [_mean(x, c), max(_var(x, c), 1e-8)],
        transforms=("identity", "log"),
    )
)

_register(
    _ModelSpec(
        ModelId.GEV,
        ("k", "sigma", "mu"),
        False,
        lambda p: _positive(p, "sigma"),
        _gev_logpdf,
        _gev_cdf,
        _gev_sample,
        _any_real,
        init_guess=_gev_init,
        transforms=("identity", "log", "identity"),
    )
)

_register(
    _ModelSpec(
        ModelId.GENERALIZED_PARETO,
        ("k", "sigma", "theta"),
        False,
        lambda p: _positive(p, "sigma"),
        _gp_logpdf,
        _gp_cdf,
        _gp_sample,
        _any_real,
        init_guess=_gp_init,
        transforms=("identity", "log", "identity"),
    )
)

_register(
    _ModelSpec(
        ModelId.GEOMETRIC,
        ("p",),
        True,
        _geo_validate,
        _geo_logpdf,
        _geo_cdf,
        lambda p, n, g: (g.geometric(p["p"], size=n) - 1).astype(np.float64),
        _nonneg_int,
        closed_fit=_geo_fit,
        init_guess=lambda x, c: [1.0 / (1.0 + _mean(x, c))],
        transforms=("logit",),
    )
)

_register(
    _ModelSpec(
        ModelId.INVERSE_GAUSSIAN,
        ("mu", "lam"),
        False,
        lambda p: _positive(p, "mu", "lam"),
        _ig_logpdf,
        _ig_cdf,
        lambda p, n, g: g.wald(p["mu"], p["lam"], size=n),
        _pos_real,
        closed_fit=_ig_fit,
        init_guess=lambda x, c: list(_ig_fit(x, c).values()),
        transforms=("log", "log"),
    )
)

_register(
    _ModelSpec(
        ModelId.LOGISTIC,
        ("mu", "sigma"),
        False,
        lambda p: _positive(p, "sigma"),
        _logi_logpdf,
        _logi_cdf,
        lambda p, n, g: g.logistic(p["mu"], p["sigma"], size=n),
        _any_real,
        init_guess=_logi_init,
        transforms=("identity", "log"),
    )
)

_register(
    _ModelSpec(
        ModelId.LOGNORMAL,
        ("mu", "sigma2"),
        False,
        lambda p: _positive(p, "sigma2"),
        _logn_logpdf,
        _logn_cdf,
        lambda p, n, g: g.lognormal(p["mu"], math.sqrt(p["sigma2"]), size=n),
        _pos_real,
        closed_fit=_logn_fit,
        init_guess=lambda x, c: [_mean(np.log(x), c), max(_var(np.log(x), c), 1e-8)],
        transforms=("identity", "log"),
    )
)

_register(
    _ModelSpec(
        ModelId.NAKAGAMI,
        ("mu", "omega"),
        False,
        lambda p: _positive(p, "mu", "omega"),
        _naka_logpdf,
        _naka_cdf,
        lambda p, n, g: np.sqrt(g.gamma(p["mu"], p["omega"] / p["mu"], size=n)),
        _pos_real,
        init_guess=_naka_init,
        transforms=("log", "log"),
        stats_loglik=_naka_stats_loglik,
    )
)

_register(
    _ModelSpec(
        ModelId.NEGATIVE_BINOMIAL,
        ("r", "p"),
        True,
        _nbin_validate,
        _nbin_logpdf,
        _nbin_cdf,
        _nbin_sample,
        _nonneg_int,
        init_guess=_nbin_init,
        transforms=("log", "logit"),
    )
)

_register(
    _ModelSpec(
        ModelId.POISSON,
        ("lam",),
        True,
        lambda p: _positive(p, "lam"),
        _pois_logpdf,
        _pois_cdf,
        lambda p, n, g: g.poisson(p["lam"], size=n).astype(np.float64),
        _nonneg_int,
        closed_fit=_pois_fit,
        init_guess=lambda x, c: [max(_mean(x, c), 1e-8)],
        transforms=("log",),
    )
)

_register(
    _ModelSpec(
        ModelId.POWERLAW,
        ("alpha", "xmin"),
        True,
        _plaw_validate,
        _plaw_logpdf,
        _plaw_cdf,
        _plaw_sample,
        _pos_int,
    )
)

_register(
    _ModelSpec(
        ModelId.RAYLEIGH,
        ("b",),
        False,
        lambda p: _positive(p, "b"),
        _rayl_logpdf,
        _rayl_cdf,
        lambda p, n, g: g.rayleigh(p["b"], size=n),
        _pos_real,
        closed_fit=_rayl_fit,
        init_guess=lambda x, c: [math.sqrt(float(np.dot(c, x**2)) / (2.0 * np.sum(c)))],
        transforms=("log",),
    )
)

_register(
    _ModelSpec(
        ModelId.WEIBULL,
        ("a", "b"),
        False,
        lambda p: _positive(p, "a", "b"),
        _wbl_logpdf,
        _wbl_cdf,
        lambda p, n, g: p["a"] * g.weibull(p["b"], size=n),
        _pos_real,
        init_guess=_wbl_init,
        transforms=("log", "log"),
    )
)

_register(
    _ModelSpec(
        ModelId.YULE_SIMON,
        ("p",),
        True,
        lambda p: _positive(p, "p"),
        _yule_logpdf,
        _yule_cdf,
        _yule_sample,
        _pos_int,
        init_guess=_yule_init,
        transforms=("log",),
    )
)


def arity(model: ModelId) -> int:
    return _SPECS[model].arity


def is_discrete_model(model: ModelId) -> bool:
    return _SPECS[model].discrete


def _validated(model: ModelId, params: dict) -> _ModelSpec:
    spec = _SPECS[model]
    missing = set(spec.param_names) - set(params)
    if missing:
        raise ParameterError(f"{model.value} missing parameters {sorted(missing)}")
    spec.validate(params)
    return spec


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------


def log_density(model: ModelId, params: dict, x):
    """ln f(x | params); out-of-support x gives -inf, bad params raise."""
    spec = _validated(model, params)
    arr = _as_array(x)
    out = spec.logpdf(params, arr)
    if np.isscalar(x):
        return float(out[0])
    return out


def cdf(model: ModelId, params: dict, x):
    """F(x | params), a right-continuous step function for discrete models."""
    spec = _validated(model, params)
    arr = _as_array(x)
    out = np.clip(spec.cdf(params, arr), 0.0, 1.0)
    if np.isscalar(x):
        return float(out[0])
    return out


def log_likelihood(model: ModelId, params: dict, sample: Sample):
    """Total log-likelihood of a sample and the log-density at each of its
    distinct values (``sample.support``), which ``sample.counts`` weight."""
    pointwise = np.atleast_1d(log_density(model, params, sample.support))
    return float(np.dot(sample.counts, pointwise)), pointwise


def random_sample(
    model: ModelId, params: dict, n: int, rng: RandomSource
) -> Sample:
    """n independent variates; deterministic given the seed of ``rng``."""
    spec = _validated(model, params)
    if n < 1:
        raise UsageError("need n >= 1")
    values = spec.sample(params, n, rng.generator)
    return Sample(values=values, is_discrete=spec.discrete)


def nested_pairs() -> list[tuple[ModelId, ModelId]]:
    """(restricted, full) pairs compared with the chi-square LR test."""
    return [
        (ModelId.EXPONENTIAL, ModelId.WEIBULL),
        (ModelId.EXPONENTIAL, ModelId.GAMMA),
        (ModelId.EXPONENTIAL, ModelId.GENERALIZED_PARETO),
        (ModelId.GEOMETRIC, ModelId.NEGATIVE_BINOMIAL),
        (ModelId.RAYLEIGH, ModelId.WEIBULL),
    ]


def _aicc_default(total_loglik: float, k: int, n: int) -> float:
    if n <= k + 1:
        return math.nan
    return -2.0 * total_loglik + 2.0 * k + 2.0 * k * (k + 1) / (n - k - 1)


def _check_fit_support(spec: _ModelSpec, sample: Sample, options: FitOptions) -> bool:
    """Returns the continuous-on-integer flag; raises on real violations."""
    if spec.discrete:
        if not sample.is_discrete or not spec.support_check(sample.support):
            raise SupportError(
                f"{spec.model.value} requires integer observations in its support"
            )
        return False
    if not spec.support_check(sample.support):
        raise SupportError(
            f"{spec.model.value} cannot host these observations"
        )
    if sample.is_discrete or _is_integral(sample.support):
        if not options.allow_continuous_on_integer:
            raise SupportError(
                f"{spec.model.value} is continuous and integer data was disallowed"
            )
        return True
    return False


def mle_fit(model: ModelId, sample: Sample, options: FitOptions | None = None) -> FittedModel:
    """Maximum-likelihood fit: closed form where one exists, otherwise the
    transformed Nelder-Mead optimizer on the negative log-likelihood.

    The power-law cutoff is fixed to min(sample) and never estimated; its
    exponent is optimized one-dimensionally. Optimizer non-convergence is
    flagged on the result, never silently ignored.
    """
    options = options or FitOptions()
    spec = _SPECS[model]
    if sample.n < spec.arity + 1:
        raise DegenerateSampleError(
            f"{model.value} needs at least {spec.arity + 1} observations"
        )
    cont_flag = _check_fit_support(spec, sample, options)

    x, c = sample.support, sample.counts
    converged = True
    if spec.closed_fit is not None and options.method == "auto":
        params = spec.closed_fit(x, c)
        _validated(model, params)
    elif model is ModelId.POWERLAW:
        params, converged = _fit_powerlaw(x, c, options)
    else:
        params, converged = _fit_by_optimizer(spec, x, c, options)

    total, pointwise = log_likelihood(model, params, sample)
    if not np.isfinite(total):
        raise DegenerateSampleError(
            f"{model.value} fit produced a non-finite likelihood"
        )
    return FittedModel(
        model=model,
        params=params,
        n=sample.n,
        total_loglik=total,
        pointwise_loglik=pointwise,
        counts=c,
        aicc=_aicc_default(total, spec.arity, sample.n),
        converged=converged,
        continuous_on_integer_data=cont_flag,
    )


def _fit_powerlaw(x: np.ndarray, c: np.ndarray, options: FitOptions):
    xmin = float(x[0])
    n = float(np.sum(c))
    sum_log = float(np.sum(c * np.log(x)))

    def negll(theta):
        alpha = 1.0 + theta[0]
        return alpha * sum_log + n * math.log(hurwitz_zeta(alpha, xmin))

    problem = OptimizationProblem(
        objective=negll, initial_point=[1.0], parameter_transforms=("log",)
    )
    res = nelder_mead_minimize(
        problem,
        tol=options.tol,
        max_iter=options.max_iter,
        restarts=options.restarts,
        rng=RandomSource(options.seed),
    )
    return {"alpha": 1.0 + float(res.argmin[0]), "xmin": xmin}, res.converged


def _blocked_loglik(logpdf, x: np.ndarray, c: np.ndarray):
    """params -> ``c @ logpdf(params, x)``, evaluating logpdf ``_BLOCK``
    values at a time into one buffer; the sum is the same single dot."""
    buf = np.empty_like(x)

    def loglik(params):
        for lo in range(0, x.size, _BLOCK):
            buf[lo : lo + _BLOCK] = logpdf(params, x[lo : lo + _BLOCK])
        return float(np.dot(c, buf))

    return loglik


def _fit_by_optimizer(spec: _ModelSpec, x: np.ndarray, c: np.ndarray, options: FitOptions):
    names = spec.param_names
    if spec.stats_loglik is not None:
        loglik = spec.stats_loglik(x, c)
    else:
        loglik = _blocked_loglik(spec.logpdf, x, c)

    def negll(theta):
        params = dict(zip(names, theta))
        try:
            spec.validate(params)
        except ParameterError:
            return math.inf
        return -loglik(params)

    guess = spec.init_guess(x, c)
    problem = OptimizationProblem(
        objective=negll,
        initial_point=guess,
        parameter_transforms=spec.transforms,
    )
    res = nelder_mead_minimize(
        problem,
        tol=options.tol,
        max_iter=options.max_iter,
        restarts=options.restarts,
        rng=RandomSource(options.seed),
    )
    params = dict(zip(names, (float(v) for v in res.argmin)))
    return params, res.converged
