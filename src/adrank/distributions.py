"""The 16 parametric models: density/mass, CDF, likelihood, MLE, sampling.

Every model is described by a registry entry holding its parameter names
and domains, its log-density as a support predicate plus a formula valid
wherever the predicate holds, its CDF, a sampler and (where one exists) a
closed-form maximum-likelihood fit. Weibull, gamma, Nakagami, negative
binomial, Yule-Simon and logistic solve their likelihood equations by
Newton's method on the profile score (the logistic in two dimensions) and
have no other solver. The generalized Pareto and the power law use the
transformed Nelder-Mead optimizer on the negative log-likelihood, and so
does the GEV whenever its damped three-dimensional Newton gives up (on
integer samples, near k = 0, or when its steps stall). Support-violating
proposals contribute -inf, which the optimizer treats as a rejected move;
its objective checks the support at the two ends of the sorted distinct
values and evaluates the formula over them in cache-sized blocks.

Every dot product over a sample goes through :func:`weighted_sum`, whose
result does not depend on the BLAS thread count.
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
    NumericalError,
    ParameterError,
    SupportError,
    UsageError,
)
from .numerics import (
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
    "weighted_sum",
    "mle_fit",
    "random_sample",
    "nested_pairs",
]

_NEG_INF = -np.inf
_EPS_K = 1e-12  # shape values below this are treated as the k -> 0 limit
# Distinct values per formula call in an optimizer objective: every numpy
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
        if not (math.isfinite(self.tol) and self.tol > 0.0):
            raise ConfigError(f"fit tol must be finite and positive, got {self.tol!r}")
        for name, least in (("max_iter", 1), ("restarts", 0), ("seed", 0)):
            if getattr(self, name) < least:
                raise ConfigError(
                    f"fit {name} must be at least {least}, got {getattr(self, name)!r}"
                )


def _as_array(x):
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def weighted_sum(c: np.ndarray, v: np.ndarray) -> float:
    """sum(c * v) as one dot product per ``_BLOCK`` values, added left to
    right in a Python float.

    OpenBLAS splits longer dot products over its threads, so one
    ``np.dot`` rounds differently with the thread count; a block of
    ``_BLOCK`` values is never split. Up to ``_BLOCK`` values this is one
    ``np.dot``, bit for bit.
    """
    total = float(np.dot(c[:_BLOCK], v[:_BLOCK]))
    for lo in range(_BLOCK, c.size, _BLOCK):
        total += float(np.dot(c[lo : lo + _BLOCK], v[lo : lo + _BLOCK]))
    return total


def _mean(x, c):  # of a sample given as distinct values x with counts c
    return weighted_sum(c, x) / float(np.sum(c))


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
    # ln f = log_formula(p, x) wherever in_support(p, x) holds, -inf elsewhere.
    # in_support is elementwise and gives the same answer on a Python float
    # as on a float64 element; for fixed p it holds on an interval of x.
    in_support: Callable[[dict, np.ndarray], np.ndarray]
    log_formula: Callable[[dict, np.ndarray], np.ndarray]
    cdf: Callable[[dict, np.ndarray], np.ndarray]
    sample: Callable[[dict, int, np.random.Generator], np.ndarray]
    # the part of in_support that every parameter value needs (p unused),
    # checked once per fit on the distinct values
    support_check: Callable[[None, np.ndarray], np.ndarray]
    closed_fit: Callable[[np.ndarray, np.ndarray], dict] | None = None
    # (x, c, max_iter) -> (params, converged) from the fit's own start point;
    # only the GEV's returns None, which leaves the sample to the simplex
    newton_fit: Callable[[np.ndarray, np.ndarray, int], tuple[dict, bool] | None] | None = None
    # the start point and per-parameter transforms of the Nelder-Mead simplex
    init_guess: Callable[[np.ndarray, np.ndarray], list[float]] | None = None
    transforms: tuple[str, ...] = ()

    @property
    def arity(self) -> int:
        return len(self.param_names)


def _positive(params, *names):
    for nm in names:
        if not params[nm] > 0.0:
            raise ParameterError(f"{nm} must be positive, got {params[nm]}")


def _is_integral(x):
    return bool(np.all(x == np.floor(x)))


def _everywhere(p, x):
    return np.full(np.shape(x), True)


def _nonneg_at(p, x):
    return x >= 0.0


def _positive_at(p, x):
    return x > 0.0


def _nonneg_int_at(p, x):
    return (x >= 0.0) & (x == np.floor(x))


def _pos_int_at(p, x):
    return (x >= 1.0) & (x == np.floor(x))


# -- exponential ------------------------------------------------------------


def _exp_formula(p, x):
    mu = p["mu"]
    return -math.log(mu) - x / mu


def _exp_cdf(p, x):
    return np.where(x >= 0.0, 1.0 - np.exp(-np.maximum(x, 0.0) / p["mu"]), 0.0)


def _exp_fit(x, c):
    m = _mean(x, c)
    if m <= 0.0:
        raise DegenerateSampleError("exponential needs a positive mean")
    return {"mu": m}


# -- gamma --------------------------------------------------------------------


def _gamma_formula(p, x):
    a, b = p["a"], p["b"]
    return -a * math.log(b) - log_gamma(a) + (a - 1.0) * np.log(x) - x / b


def _gamma_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return regularized_incomplete_gamma_lower(p["a"], xa / p["b"])


def _gamma_shape(model, s, a0, max_iter):
    """(a, converged) with ln a - psi(a) = s, the gamma shape equation with
    s = ln(mean x) - mean(ln x): Minka's generalized Newton ("Estimating a
    Gamma distribution", 2002), which is Newton's method in t = 1/a.

    Jensen's inequality makes s > 0 on every sample of two distinct values,
    but rounding can break it on a nearly constant one; there the shape
    grows without bound."""
    if not s > 0.0:
        raise DegenerateSampleError(f"{model.value} shape has no finite MLE on this sample")

    def fd(t):
        a = 1.0 / t
        return math.log(a) - digamma(a) - s, a * a * (trigamma(a) - t)

    res = newton_root(fd, 1.0 / a0, max_iter)
    return 1.0 / res.root, res.converged


def _gamma_newton(x, c, max_iter):  # x > 0: the support check has run
    n = float(np.sum(c))
    mean = weighted_sum(c, x) / n
    a0 = max(mean**2 / max(_var(x, c), 1e-12), 1e-3)  # the moment estimate
    s = math.log(mean) - weighted_sum(c, np.log(x)) / n
    a, converged = _gamma_shape(ModelId.GAMMA, s, a0, max_iter)
    return {"a": a, "b": mean / a}, converged


# -- gaussian -----------------------------------------------------------------


def _gauss_formula(p, x):
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


def _gev_in(p, x):
    k = p["k"]
    if abs(k) < _EPS_K:
        return _everywhere(p, x)
    return 1.0 + k * ((x - p["mu"]) / p["sigma"]) > 0.0


def _gev_formula(p, x):
    k, sigma, mu = p["k"], p["sigma"], p["mu"]
    z = (x - mu) / sigma
    if abs(k) < _EPS_K:
        return -math.log(sigma) - z - np.exp(-z)
    t = 1.0 + k * z
    return -math.log(sigma) - (1.0 + 1.0 / k) * np.log(t) - np.power(t, -1.0 / k)


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


# The k-derivatives of the GEV log-density cancel in 1/k^2 and 1/k^3 terms:
# at |k| = 1e-3 the second derivative keeps about 7 digits and the first
# about 10, and each further decade of k costs two and one more. Below this
# |k| the Newton fit gives up and leaves the sample to the simplex.
_GEV_NEWTON_MIN_K = 1e-3
# A maximum at k <= -1/2 is not regular (Smith, Biometrika 1985); the Newton
# fit treats such k like a point outside the support.
_GEV_IRREGULAR_K = -0.5
# Levenberg-Marquardt damping: the first after an undamped step, the factor
# after each rejected trial, and the largest before the fit gives up.
_LM_FIRST, _LM_GROWTH, _LM_CEILING = 1e-3, 4.0, 1e6


def _gev_derivatives(x, c, n, k, sigma, mu):
    """(log-likelihood, gradient, Hessian) in (k, sigma, mu), or None when
    a value lies outside the support or a sum is not finite.

    With z = (x - mu)/sigma, t = 1 + k z, y = ln t, w = e^(-y/k) and
    u = z/t, ln f = -ln sigma + h(z, k) with h = -(1 + 1/k) y - w; the
    sigma and mu derivatives follow from those of h by the chain rule. The
    nine weighted sums, and the log-likelihood's, are taken one ``_BLOCK``
    at a time and added left to right, as ``weighted_sum`` adds them.
    """
    for end in (x[0], x[-1]):  # t is monotone in x, so the ends decide
        if not 1.0 + k * ((float(end) - mu) / sigma) > 0.0:
            return None
    ik = 1.0 / k
    ik2 = ik * ik
    sums = [0.0] * 10
    for lo in range(0, x.size, _BLOCK):
        cb = c[lo : lo + _BLOCK]
        z = (x[lo : lo + _BLOCK] - mu) / sigma
        t = 1.0 + k * z
        y = np.log(t)
        w = np.exp(-y * ik)
        u = z / t
        a = 1.0 - w
        b = k + 1.0 - w
        w_k = w * (y * ik2 - u * ik)
        h_z = -b / t
        h_zz = (1.0 + k) * (k - w) / (t * t)
        h_zk = (w_k - 1.0 + b * u) / t
        h_k = a * y * ik2 - u * b * ik
        h_kk = (
            -w_k * y * ik2
            + a * u * ik2
            - 2.0 * a * y * ik2 * ik
            + u * u * b * ik
            - u * (1.0 - w_k) * ik
            + u * b * ik2
        )
        h_zzz = h_zz * z
        for i, v in enumerate(
            (-(1.0 + ik) * y - w, h_z, h_z * z, h_k, h_zz, h_zzz, h_zzz * z, h_zk, h_zk * z, h_kk)
        ):
            sums[i] += float(np.dot(cb, v))
    if not all(map(math.isfinite, sums)):
        return None
    s_h, s_z, s_zz, s_k, s_2, s_2z, s_2zz, s_zk, s_zkz, s_kk = sums
    grad = np.array([s_k, -(n + s_zz) / sigma, -s_z / sigma])
    i_s, i_s2 = 1.0 / sigma, 1.0 / (sigma * sigma)
    hess = np.array(
        [
            [s_kk, -s_zkz * i_s, -s_zk * i_s],
            [-s_zkz * i_s, (n + 2.0 * s_zz + s_2zz) * i_s2, (s_z + s_2z) * i_s2],
            [-s_zk * i_s, (s_z + s_2z) * i_s2, s_2 * i_s2],
        ]
    )
    return s_h - n * math.log(sigma), grad, hess


def _gev_newton(x, c, max_iter):
    """Damped Newton on the log-likelihood in (k, sigma, mu), with the
    analytic gradient and Hessian (Prescott & Walden, Biometrika 1980).

    Each trial solves (-H + lam diag|H|) d = g from lam = 0; while the trial
    point leaves the support, has k <= -1/2, overflows or lowers the
    log-likelihood beyond its rounding, lam grows fourfold, and past
    ``_LM_CEILING`` the fit fails. Every trial counts against ``max_iter``.
    It converges on an undamped step of at most 1e-12 of each parameter
    (of |mu| + sigma for mu) where -H is positive definite, and fails when
    such steps stop shrinking before that (rounding, not the optimum, then
    sets them), or when |k| falls below ``_GEV_NEWTON_MIN_K``.

    It starts from ``_gev_init``, the simplex's start point. On integer
    samples it fails at once: there the density likelihood has no interior
    maximum, as sigma collapses onto an atom.
    """
    if _is_integral(x):
        return None
    n = float(np.sum(c))
    theta = np.array(_gev_init(x, c), dtype=np.float64)
    with np.errstate(all="ignore"):
        cur = _gev_derivatives(x, c, n, *theta)
        if cur is None:
            return None
        lam, last = 0.0, math.inf
        for _ in range(max_iter):
            ll, grad, hess = cur
            try:
                d = np.linalg.solve(-hess + lam * np.diag(np.abs(np.diag(hess))), grad)
            except np.linalg.LinAlgError:  # singular
                d = None
            new = None
            if d is not None and np.all(np.isfinite(d)):
                trial = theta + d
                if lam == 0.0:
                    rel = max(
                        abs(d[0]) / abs(theta[0]),
                        abs(d[1]) / theta[1],
                        abs(d[2]) / (abs(theta[2]) + theta[1]),
                    )
                    if rel <= 1e-12:  # a maximum, not a saddle, if -H is positive definite
                        if not np.all(np.linalg.eigvalsh(-hess) > 0.0):
                            return None
                        return dict(zip(("k", "sigma", "mu"), map(float, trial))), True
                    if last < 1e-6 and rel > 0.5 * last:
                        return None
                    last = rel
                k, sigma, mu = map(float, trial)
                if abs(k) < _GEV_NEWTON_MIN_K:
                    return None
                if k > _GEV_IRREGULAR_K and sigma > 0.0:
                    new = _gev_derivatives(x, c, n, k, sigma, mu)
            if new is None or not new[0] >= ll - 1e-12 * abs(ll):
                lam = _LM_GROWTH * lam if lam else _LM_FIRST
                if lam > _LM_CEILING:
                    return None
                continue
            theta, cur, lam = trial, new, 0.0
    return None


# -- generalized pareto ---------------------------------------------------------


def _gp_in(p, x):
    k = p["k"]
    z = (x - p["theta"]) / p["sigma"]
    if abs(k) < _EPS_K:
        return z >= 0.0
    return (z >= 0.0) & (1.0 + k * z > 0.0)


def _gp_formula(p, x):
    k, sigma, theta = p["k"], p["sigma"], p["theta"]
    z = (x - theta) / sigma
    if abs(k) < _EPS_K:
        return -math.log(sigma) - z
    return -math.log(sigma) - (1.0 + 1.0 / k) * np.log(1.0 + k * z)


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


def _geo_in(p, x):
    if p["p"] == 1.0:  # all mass at 0
        return _nonneg_int_at(p, x) & (x == 0.0)
    return _nonneg_int_at(p, x)


def _geo_formula(p, x):
    pr = p["p"]
    if pr == 1.0:
        return np.zeros_like(x)
    return x * math.log(1.0 - pr) + math.log(pr)


def _geo_cdf(p, x):
    k = np.floor(x)
    return np.where(k >= 0.0, 1.0 - (1.0 - p["p"]) ** (k + 1.0), 0.0)


def _geo_fit(x, c):
    return {"p": 1.0 / (1.0 + _mean(x, c))}


# -- inverse gaussian ------------------------------------------------------------


def _ig_formula(p, x):
    mu, lam = p["mu"], p["lam"]
    return 0.5 * (math.log(lam) - math.log(2.0 * math.pi) - 3.0 * np.log(x)) - (
        lam * (x - mu) ** 2
    ) / (2.0 * mu**2 * x)


def _ig_cdf(p, x):
    mu, lam = p["mu"], p["lam"]
    xp = np.maximum(x, 1e-300)
    r = np.sqrt(lam / xp)
    # exp(2 lam/mu) Phi(-r (x/mu + 1)) in log space: the factor overflows
    # once 2 lam/mu passes 709, where the Phi factor has underflowed
    term = std_normal_cdf(r * (xp / mu - 1.0)) + np.exp(
        2.0 * lam / mu + log_std_normal_cdf(-r * (xp / mu + 1.0))
    )
    return np.where(x > 0.0, term, 0.0)


def _ig_fit(x, c):
    m = _mean(x, c)
    inv = _mean(1.0 / x, c) - 1.0 / m
    if not inv > 0.0:
        raise DegenerateSampleError("inverse gaussian needs a non-constant sample")
    return {"mu": m, "lam": 1.0 / inv}


# -- logistic ---------------------------------------------------------------------


def _logi_formula(p, x):
    mu, sigma = p["mu"], p["sigma"]
    s = (x - mu) / sigma
    return -np.abs(s) - math.log(sigma) - 2.0 * np.log1p(np.exp(-np.abs(s)))


def _logi_cdf(p, x):
    s = (x - p["mu"]) / p["sigma"]
    return 1.0 / (1.0 + np.exp(-s))


def _logi_newton(x, c, max_iter):
    """Two-dimensional Newton with the analytic gradient and Hessian.

    From the moment estimates (mu0, sigma0), and with v = (x - mu0)/sigma0,
    it works in a = sigma0/sigma and b = a (mu - mu0)/sigma0, where
    z = (x - mu)/sigma = a v - b and the log-likelihood is
    sum c ln f(z) + n ln a - n ln sigma0 with ln f(z) = -2 ln(2 cosh(z/2)).
    The logistic density is log-concave, so this is concave in (a, b)
    (Pratt, JASA 1981), and its derivatives are sums of tanh(z/2) and
    sech^2(z/2) terms. A step that
    lowers the log-likelihood beyond its rounding is halved; when 50
    halvings do not help, or the Hessian is not negative definite, the fit
    stops at its last point, unconverged.
    """
    n = float(np.sum(c))
    loglik = _blocked_loglik(_SPECS[ModelId.LOGISTIC], x, c)
    mu0, sigma0 = _mean(x, c), math.sqrt(_var(x, c)) * math.sqrt(3.0) / math.pi
    v = (x - mu0) / sigma0

    def params(a, b):
        return {"mu": mu0 + sigma0 * b / a, "sigma": sigma0 / a}

    a, b = 1.0, 0.0
    ll = loglik(params(a, b))
    for _ in range(max_iter):
        t = np.tanh(0.5 * (a * v - b))
        s = 1.0 - t * t  # sech^2(z/2)
        sv = s * v
        s_t, s_tv = weighted_sum(c, t), weighted_sum(c, t * v)
        s_s, s_sv, s_svv = weighted_sum(c, s), weighted_sum(c, sv), weighted_sum(c, sv * v)
        g_a, g_b = n / a - s_tv, s_t
        h_aa, h_ab, h_bb = -0.5 * s_svv - n / (a * a), 0.5 * s_sv, -0.5 * s_s
        det = h_aa * h_bb - h_ab * h_ab
        if not det > 0.0:
            break
        d_a = (h_ab * g_b - h_bb * g_a) / det
        d_b = (h_ab * g_a - h_aa * g_b) / det
        if a + d_a > 0.0:
            old, new = params(a, b), params(a + d_a, b + d_b)
            if abs(new["mu"] - old["mu"]) <= 1e-12 * (abs(old["mu"]) + old["sigma"]) and abs(
                new["sigma"] - old["sigma"]
            ) <= 1e-12 * old["sigma"]:
                return new, True
        for _ in range(50):
            if a + d_a > 0.0:
                new_ll = loglik(params(a + d_a, b + d_b))
                if new_ll >= ll - 1e-12 * abs(ll):
                    break
            d_a, d_b = 0.5 * d_a, 0.5 * d_b
        else:
            break
        a, b, ll = a + d_a, b + d_b, new_ll
    return params(a, b), False


# -- log-normal -----------------------------------------------------------------


def _logn_formula(p, x):
    mu, s2 = p["mu"], p["sigma2"]
    lx = np.log(x)
    return -lx - 0.5 * math.log(2.0 * math.pi * s2) - (lx - mu) ** 2 / (2.0 * s2)


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


def _naka_formula(p, x):
    mu, om = p["mu"], p["omega"]
    return (
        math.log(2.0)
        + mu * math.log(mu / om)
        - log_gamma(mu)
        + (2.0 * mu - 1.0) * np.log(x)
        - mu * x**2 / om
    )


def _naka_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return regularized_incomplete_gamma_lower(p["mu"], p["mu"] * xa**2 / p["omega"])


def _naka_newton(x, c, max_iter):  # x > 0: the support check has run
    # x^2 is gamma with shape mu and scale omega/mu
    n, x2 = float(np.sum(c)), x**2
    omega = weighted_sum(c, x2) / n
    v = _var(x2, c)
    mu0 = max(omega**2 / v if v > 0 else 1.0, 0.1)  # the moment estimate
    s = math.log(omega) - 2.0 * weighted_sum(c, np.log(x)) / n
    mu, converged = _gamma_shape(ModelId.NAKAGAMI, s, mu0, max_iter)
    return {"mu": mu, "omega": omega}, converged


# -- negative binomial ------------------------------------------------------------


def _nbin_validate(p):
    if not p["r"] > 0.0:
        raise ParameterError("negative binomial needs r > 0")
    if not 0.0 < p["p"] < 1.0:
        raise ParameterError("negative binomial needs 0 < p < 1")


def _nbin_formula(p, x):
    r, pr = p["r"], p["p"]
    return (
        log_gamma(r + x)
        - log_gamma(x + 1.0)
        - log_gamma(r)
        + x * math.log(pr)
        + r * math.log(1.0 - pr)
    )


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


def _nbin_newton(x, c, max_iter):
    """Newton in r on the profile score from the moment estimate. For fixed
    r the MLE of p is mean/(r + mean), which leaves
    mean psi(x + r) - psi(r) + ln(r/(r + mean)) = 0,
    positive below the root and negative above it. It has a finite root
    exactly when the variance exceeds the mean; otherwise the likelihood
    rises without bound as r grows."""
    n, m, v = float(np.sum(c)), _mean(x, c), _var(x, c)
    if not v > m:
        raise DegenerateSampleError("negative binomial needs a sample variance above its mean")
    p0 = min(max(1.0 - m / v, 1e-4), 1.0 - 1e-4)
    r0 = max(m * (1.0 - p0) / p0, 1e-3)

    def fd(r):  # minus the score, so that it increases through the root
        f = weighted_sum(c, digamma(x + r)) / n - digamma(r) + math.log(r / (r + m))
        d = weighted_sum(c, trigamma(x + r)) / n - trigamma(r) + 1.0 / r - 1.0 / (r + m)
        return -f, -d

    res = newton_root(fd, r0, max_iter)
    return {"r": res.root, "p": m / (res.root + m)}, res.converged


# -- poisson ----------------------------------------------------------------------


def _pois_formula(p, x):
    lam = p["lam"]
    return x * math.log(lam) - lam - log_gamma(x + 1.0)


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


def _plaw_in(p, x):
    return (x >= p["xmin"]) & (x == np.floor(x))


def _plaw_formula(p, x):
    alpha, xmin = p["alpha"], p["xmin"]
    return -alpha * np.log(x) - math.log(hurwitz_zeta(alpha, xmin))


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


def _rayl_formula(p, x):
    b = p["b"]
    return np.log(x) - 2.0 * math.log(b) - x**2 / (2.0 * b**2)


def _rayl_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return 1.0 - np.exp(-(xa**2) / (2.0 * p["b"] ** 2))


def _rayl_fit(x, c):
    s = weighted_sum(c, x**2)
    if s <= 0.0:
        raise DegenerateSampleError("rayleigh needs positive observations")
    return {"b": math.sqrt(s / (2.0 * np.sum(c)))}


# -- weibull ------------------------------------------------------------------------


def _wbl_formula(p, x):
    a, b = p["a"], p["b"]
    return (
        math.log(b)
        - math.log(a)
        + (b - 1.0) * (np.log(x) - math.log(a))
        - np.power(x / a, b)
    )


def _wbl_cdf(p, x):
    xa = np.maximum(x, 0.0)
    return 1.0 - np.exp(-np.power(xa / p["a"], p["b"]))


def _wbl_newton(x, c, max_iter):
    """Newton on the profile score in the shape b (Cohen, Technometrics
    1965): sum c y ln x / sum c y - 1/b - mean(ln x) = 0 with
    y = (x / x_max)^b <= 1, which cannot overflow; it increases in b. The
    scale is then a = x_max (sum c y / n)^(1/b). It starts from
    b = 1.2 / sd(ln x), near the Gumbel moment estimate pi / (sqrt 6 sd)."""
    n, lx = float(np.sum(c)), np.log(x)
    sd = math.sqrt(_var(lx, c))
    u = lx - math.log(x[-1])  # ln(x / x_max) <= 0, so y = e^(b u)
    u2, u_mean = u * u, weighted_sum(c, u) / n

    def fd(b):
        y = np.exp(b * u)
        cy = c * y
        s0 = weighted_sum(c, y)
        m1 = weighted_sum(cy, u) / s0
        return m1 - 1.0 / b - u_mean, weighted_sum(cy, u2) / s0 - m1 * m1 + (1.0 / b) ** 2

    res = newton_root(fd, 1.2 / sd if sd > 0 else 1.0, max_iter)
    b = res.root
    a = float(x[-1]) * (weighted_sum(c, np.exp(b * u)) / n) ** (1.0 / b)
    return {"a": a, "b": b}, res.converged


# -- yule-simon (pmf p * B(x, p+1), support x >= 1) -----------------------------------


def _yule_formula(p, x):
    rho = p["p"]
    return math.log(rho) + log_gamma(x) + log_gamma(rho + 1.0) - log_gamma(x + rho + 1.0)


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


def _yule_newton(x, c, max_iter):
    """Newton on the score 1/rho + psi(rho + 1) - mean psi(x + rho + 1),
    positive below the root and negative above it, from rho = m/(m - 1)
    (the moment estimate). A finite root needs a mean m above 1, which on
    the support x >= 1 fails only on a sample of ones."""
    n, m = float(np.sum(c)), _mean(x, c)
    if not m > 1.0:
        raise DegenerateSampleError("yule-simon needs a sample mean above 1")

    def fd(rho):  # minus the score, so that it increases through the root
        f = 1.0 / rho + digamma(rho + 1.0) - weighted_sum(c, digamma(x + rho + 1.0)) / n
        d = -((1.0 / rho) ** 2) + trigamma(rho + 1.0) - weighted_sum(c, trigamma(x + rho + 1.0)) / n
        return -f, -d

    res = newton_root(fd, max(m / (m - 1.0), 0.05) if m > 1.05 else 10.0, max_iter)
    return {"p": res.root}, res.converged


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


_SPECS: dict[ModelId, _ModelSpec] = {}


def _register(spec: _ModelSpec):
    _SPECS[spec.model] = spec


_register(
    _ModelSpec(
        ModelId.EXPONENTIAL,
        ("mu",),
        False,
        lambda p: _positive(p, "mu"),
        _nonneg_at,
        _exp_formula,
        _exp_cdf,
        lambda p, n, g: g.exponential(p["mu"], size=n),
        _nonneg_at,
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
        _positive_at,
        _gamma_formula,
        _gamma_cdf,
        lambda p, n, g: g.gamma(p["a"], p["b"], size=n),
        _positive_at,
        newton_fit=_gamma_newton,
    )
)

_register(
    _ModelSpec(
        ModelId.GAUSSIAN,
        ("mu", "sigma2"),
        False,
        lambda p: _positive(p, "sigma2"),
        _everywhere,
        _gauss_formula,
        _gauss_cdf,
        lambda p, n, g: g.normal(p["mu"], math.sqrt(p["sigma2"]), size=n),
        _everywhere,
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
        _gev_in,
        _gev_formula,
        _gev_cdf,
        _gev_sample,
        _everywhere,
        init_guess=_gev_init,
        newton_fit=_gev_newton,
        transforms=("identity", "log", "identity"),
    )
)

_register(
    _ModelSpec(
        ModelId.GENERALIZED_PARETO,
        ("k", "sigma", "theta"),
        False,
        lambda p: _positive(p, "sigma"),
        _gp_in,
        _gp_formula,
        _gp_cdf,
        _gp_sample,
        _everywhere,
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
        _geo_in,
        _geo_formula,
        _geo_cdf,
        lambda p, n, g: (g.geometric(p["p"], size=n) - 1).astype(np.float64),
        _nonneg_int_at,
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
        _positive_at,
        _ig_formula,
        _ig_cdf,
        lambda p, n, g: g.wald(p["mu"], p["lam"], size=n),
        _positive_at,
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
        _everywhere,
        _logi_formula,
        _logi_cdf,
        lambda p, n, g: g.logistic(p["mu"], p["sigma"], size=n),
        _everywhere,
        newton_fit=_logi_newton,
    )
)

_register(
    _ModelSpec(
        ModelId.LOGNORMAL,
        ("mu", "sigma2"),
        False,
        lambda p: _positive(p, "sigma2"),
        _positive_at,
        _logn_formula,
        _logn_cdf,
        lambda p, n, g: g.lognormal(p["mu"], math.sqrt(p["sigma2"]), size=n),
        _positive_at,
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
        _positive_at,
        _naka_formula,
        _naka_cdf,
        lambda p, n, g: np.sqrt(g.gamma(p["mu"], p["omega"] / p["mu"], size=n)),
        _positive_at,
        newton_fit=_naka_newton,
    )
)

_register(
    _ModelSpec(
        ModelId.NEGATIVE_BINOMIAL,
        ("r", "p"),
        True,
        _nbin_validate,
        _nonneg_int_at,
        _nbin_formula,
        _nbin_cdf,
        _nbin_sample,
        _nonneg_int_at,
        newton_fit=_nbin_newton,
    )
)

_register(
    _ModelSpec(
        ModelId.POISSON,
        ("lam",),
        True,
        lambda p: _positive(p, "lam"),
        _nonneg_int_at,
        _pois_formula,
        _pois_cdf,
        lambda p, n, g: g.poisson(p["lam"], size=n).astype(np.float64),
        _nonneg_int_at,
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
        _plaw_in,
        _plaw_formula,
        _plaw_cdf,
        _plaw_sample,
        _pos_int_at,
    )
)

_register(
    _ModelSpec(
        ModelId.RAYLEIGH,
        ("b",),
        False,
        lambda p: _positive(p, "b"),
        _positive_at,
        _rayl_formula,
        _rayl_cdf,
        lambda p, n, g: g.rayleigh(p["b"], size=n),
        _positive_at,
        closed_fit=_rayl_fit,
        init_guess=lambda x, c: list(_rayl_fit(x, c).values()),
        transforms=("log",),
    )
)

_register(
    _ModelSpec(
        ModelId.WEIBULL,
        ("a", "b"),
        False,
        lambda p: _positive(p, "a", "b"),
        _positive_at,
        _wbl_formula,
        _wbl_cdf,
        lambda p, n, g: p["a"] * g.weibull(p["b"], size=n),
        _positive_at,
        newton_fit=_wbl_newton,
    )
)

_register(
    _ModelSpec(
        ModelId.YULE_SIMON,
        ("p",),
        True,
        lambda p: _positive(p, "p"),
        _pos_int_at,
        _yule_formula,
        _yule_cdf,
        _yule_sample,
        _pos_int_at,
        newton_fit=_yule_newton,
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
    out = np.full(arr.shape, _NEG_INF)
    with np.errstate(all="ignore"):
        ok = spec.in_support(params, arr)
        out[ok] = spec.log_formula(params, arr[ok])
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
    return weighted_sum(sample.counts, pointwise), pointwise


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


# Models whose likelihood on a sample of one distinct value grows without
# bound as the fit collapses onto it (or, for the power law, as alpha grows),
# so that they have no finite MLE there.
_NO_MLE_ON_ONE_VALUE = frozenset(
    {
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
    }
)


def _check_fit_support(spec: _ModelSpec, sample: Sample) -> bool:
    """Returns the continuous-on-integer flag; raises on real violations."""
    hosted = bool(np.all(spec.support_check(None, sample.support)))
    if spec.discrete:
        if not sample.is_discrete or not hosted:
            raise SupportError(
                f"{spec.model.value} requires integer observations in its support"
            )
        return False
    if not hosted:
        raise SupportError(
            f"{spec.model.value} cannot host these observations"
        )
    return sample.is_discrete or _is_integral(sample.support)


def mle_fit(model: ModelId, sample: Sample, options: FitOptions | None = None) -> FittedModel:
    """Maximum-likelihood fit by the model's one solver: a closed form;
    Newton's method (on the profile score for Weibull, gamma, Nakagami,
    negative binomial and Yule-Simon, in two dimensions for the logistic);
    or the transformed Nelder-Mead optimizer on the negative log-likelihood
    (generalized Pareto, power law). The GEV alone has two: damped Newton
    with its analytic Hessian, and the optimizer from the same start point
    when Newton gives up, as it does at once on an integer sample, where
    the density likelihood has no interior maximum.

    ``method="optimizer"`` fits the closed-form models by the optimizer
    too. The power-law cutoff is fixed to min(sample) and never estimated;
    its exponent is optimized one-dimensionally. A model with no finite MLE
    on the sample raises :class:`DegenerateSampleError`: every model in
    ``_NO_MLE_ON_ONE_VALUE`` on a sample of one distinct value, before any
    fitting; the negative binomial when the variance is at most the mean;
    Yule-Simon when the mean is 1; gamma and Nakagami when their shape
    equation has no root after rounding. A Newton fit or optimizer that
    reaches ``max_iter``, or cannot improve on its last point, returns
    that point flagged ``converged=False``. A float overflow in a closed
    form, a start point or the likelihood raises :class:`NumericalError`;
    in the GEV Newton fit it only rejects the step.
    """
    options = options or FitOptions()
    spec = _SPECS[model]
    if sample.n < spec.arity + 1:
        raise DegenerateSampleError(
            f"{model.value} needs at least {spec.arity + 1} observations"
        )
    cont_flag = _check_fit_support(spec, sample)
    if model in _NO_MLE_ON_ONE_VALUE and sample.support.size < 2:
        raise DegenerateSampleError(f"{model.value} needs at least two distinct values")

    x, c = sample.support, sample.counts
    try:
        if model is ModelId.POWERLAW:
            params, converged = _fit_powerlaw(x, c, options)
        else:
            params, converged = _fit_params(spec, x, c, options)
        total, pointwise = log_likelihood(model, params, sample)
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"{model.value} fit overflowed: {exc}") from None
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
        zeta = hurwitz_zeta(alpha, xmin)
        if not zeta > 0.0:  # underflowed, as for an xmin near the float maximum
            return math.inf
        return alpha * sum_log + n * math.log(zeta)

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


def _blocked_loglik(spec: _ModelSpec, x: np.ndarray, c: np.ndarray):
    """params -> ``weighted_sum(c, log_density(params, x))`` for sorted
    distinct ``x``.

    The support is an interval and x is sorted, so x lies in it exactly
    when both ends do; otherwise some term is -inf and the true sum is -inf
    or NaN, which the optimizer rejects alike. Inside it, the formula is
    written ``_BLOCK`` values at a time into one buffer and summed by the
    same ``weighted_sum`` as ``log_likelihood``.
    """
    buf = np.empty_like(x)
    first, last = float(x[0]), float(x[-1])

    def loglik(params):
        with np.errstate(all="ignore"):
            if not (spec.in_support(params, first) and spec.in_support(params, last)):
                return _NEG_INF
            for lo in range(0, x.size, _BLOCK):
                buf[lo : lo + _BLOCK] = spec.log_formula(params, x[lo : lo + _BLOCK])
        return weighted_sum(c, buf)

    return loglik


def _fit_params(spec: _ModelSpec, x: np.ndarray, c: np.ndarray, options: FitOptions):
    """(params, converged). Closed forms, start points and the profile
    Newton fits raise FloatingPointError when a sum overflows; the GEV
    Newton fit and the simplex ignore it, so an overflowing trial point is
    only a rejected move."""
    with np.errstate(over="raise"):
        if spec.closed_fit is not None and options.method == "auto":
            params = spec.closed_fit(x, c)
            _validated(spec.model, params)
            return params, True
        if spec.newton_fit is not None:
            fit = spec.newton_fit(x, c, options.max_iter)
            if fit is not None:
                return fit
        guess = spec.init_guess(x, c)
    return _fit_by_simplex(spec, x, c, guess, options)


def _fit_by_simplex(spec: _ModelSpec, x: np.ndarray, c: np.ndarray, guess, options: FitOptions):
    names = spec.param_names
    loglik = _blocked_loglik(spec, x, c)

    def negll(theta):
        params = dict(zip(names, theta))
        try:
            spec.validate(params)
        except ParameterError:
            return math.inf
        return -loglik(params)

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
