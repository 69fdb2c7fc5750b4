"""The 16 parametric models: density/mass, CDF, likelihood, MLE, sampling.

Every model is described by a registry entry holding its parameters, each
declared once with its domain, its log-density as a support predicate
plus a formula valid wherever the predicate holds, its CDF, a sampler and
(where one exists) a closed-form maximum-likelihood fit. The domains give
the one parameter check and the simplex's per-coordinate transform
(identity, log or logit). A closed form has no other solver. Weibull,
gamma, Nakagami, negative binomial, Yule-Simon and the power law solve
their likelihood equations by Newton's method on the profile score, the
logistic and the GEV climb their likelihoods by ``_damped_newton``, and
none has another solver. On real-valued samples the generalized Pareto
climbs its profile likelihood at theta = min x by Newton's method; the
transformed Nelder-Mead optimizer fits its density on integer samples. Its
support-violating proposals contribute -inf, a rejected move; its
objective checks the support at the two ends of the sorted distinct
values and evaluates the formula over them in blocks.

Every dot product over a sample goes through ``_block_sums`` (one sum:
:func:`weighted_sum`), whose result does not depend on the BLAS thread
count.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
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
    log_beta,
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

__all__ = [
    "ModelId",
    "Sample",
    "FittedModel",
    "arity",
    "is_discrete_model",
    "log_density",
    "cdf",
    "log_likelihood",
    "weighted_sum",
    "mle_fit",
    "random_sample",
    "random_variates",
    "nested_pairs",
]

_NEG_INF = -np.inf
_EPS_K = 1e-12  # shape values below this are treated as the k -> 0 limit
# Distinct values per formula call in an optimizer objective: every numpy
# temporary is then 64 KiB, inside L2 cache and below glibc's 128 KiB mmap
# threshold, so it is not mapped, zero-filled and unmapped on each call.
_BLOCK = 8192
# The iteration cap of every Newton fit and of each run of the simplex.
_MAX_ITER = 10_000


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
    """A multiset of numeric observations: the sorted distinct values
    ``support``, their float ``counts`` and ``n``, the counts' sum;
    :meth:`Sample.of` counts raw observations. ``is_discrete`` asserts that
    every value is an integer; fitting a discrete model to a sample that
    is not flagged discrete (or holds non-integral values) is a support
    error.
    """

    support: np.ndarray
    counts: np.ndarray
    is_discrete: bool
    n: int = field(init=False)

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.float64)
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.support.ndim != 1 or self.support.size == 0:
            raise UsageError("a sample needs at least one observation")
        if self.counts.shape != self.support.shape:
            raise UsageError("support and counts differ in length")
        if not np.all(np.isfinite(self.support)):
            raise UsageError("sample contains non-finite values")
        if np.any(self.support[1:] <= self.support[:-1]):
            raise UsageError("support is not strictly increasing")
        if not _all_blocks(self.counts, lambda c: np.isfinite(c) & (c >= 1.0) & (c == np.floor(c))):
            raise UsageError("counts are not positive integers")
        if self.is_discrete and not _is_integral(self.support):
            raise UsageError("discrete sample contains non-integer values")
        self.n = int(self.counts.sum())

    @classmethod
    def of(cls, values, is_discrete: bool) -> Sample:
        """The sample of the observations ``values``, in any order."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise UsageError("a sample needs at least one observation")
        return cls(*np.unique(values, return_counts=True), is_discrete)


@dataclass
class FittedModel:
    """A model id, its MLE parameters and the likelihood bookkeeping.
    ``sample`` is the sample the model was fitted on, shared with the
    caller and never copied; the log-density at its distinct values is
    recomputed a block at a time wherever it is needed."""

    model: ModelId
    params: dict[str, float]
    sample: Sample
    total_loglik: float
    aicc: float
    converged: bool = True
    continuous_on_integer_data: bool = False

    @property
    def n(self) -> int:
        return self.sample.n

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """ln f(x) under the fitted parameters."""
        return log_density(self.model, self.params, x)

    def to_record(self) -> str:
        """Flat key=value text record."""
        parts = [f"model={self.model.value}", f"n={self.n}"]
        for name in _SPECS[self.model].names:
            parts.append(f"{name}={self.params[name]:.10g}")
        parts.append(f"total_loglik={self.total_loglik:.10g}")
        parts.append(f"aicc={self.aicc:.10g}")
        parts.append(f"converged={str(self.converged).lower()}")
        return " ".join(parts)


def _as_array(x):
    return np.atleast_1d(np.asarray(x, dtype=np.float64))


def _block_sums(c: np.ndarray, x: np.ndarray, terms) -> list[float]:
    """The sums of c * v for the arrays v that ``terms`` yields on a block
    of ``x``, and of (c * w) * v for the pairs (w, v) it yields (c * w is
    rounded first), each as one dot product per ``_BLOCK`` values, added
    left to right in a Python float. ``terms`` sees a block's values only,
    so no array the size of the sample is made.

    OpenBLAS splits longer dot products over its threads, so one
    ``np.dot`` rounds differently with the thread count; a block of
    ``_BLOCK`` values is never split.
    """
    sums = _dots(c[:_BLOCK], terms(x[:_BLOCK]))
    for lo in range(_BLOCK, x.size, _BLOCK):
        for i, d in enumerate(_dots(c[lo : lo + _BLOCK], terms(x[lo : lo + _BLOCK]))):
            sums[i] += d
    return sums


def _dots(cb, vs):
    return [float(np.dot(cb * v[0], v[1])) if isinstance(v, tuple) else float(np.dot(cb, v)) for v in vs]


def weighted_sum(c: np.ndarray, v: np.ndarray) -> float:
    """sum(c * v) by ``_block_sums``, whatever the BLAS thread count. Up to
    ``_BLOCK`` values this is one ``np.dot``, bit for bit."""
    return _block_sums(c, v, lambda vb: (vb,))[0]


def _mean(x, c, f=None):
    """The mean of x, or of f(x) with f applied a block at a time, over a
    sample given as distinct values x with counts c."""
    s = weighted_sum(c, x) if f is None else _block_sums(c, x, lambda xb: (f(xb),))[0]
    return s / float(np.sum(c))


def _var(x, c, f=None):
    """The variance of x, or of f(x), as ``_mean`` takes means."""
    m = _mean(x, c, f)
    return _mean(x, c, lambda xb: ((xb if f is None else f(xb)) - m) ** 2)


def _all_blocks(x, test):
    """Whether the elementwise ``test`` holds on every value of ``x``, taken
    a ``_BLOCK`` at a time."""
    return all(np.all(test(x[lo : lo + _BLOCK])) for lo in range(0, x.size, _BLOCK))


# Levenberg-Marquardt damping: the first after an undamped step, the factor
# after each rejected trial, and the largest before the fit gives up.
_LM_FIRST, _LM_GROWTH, _LM_CEILING = 1e-3, 4.0, 1e6


def _damped_newton(evaluate, theta, scales, max_iter, check=None):
    """Damped Newton ascent of a log-likelihood: (theta, converged).

    ``evaluate(*theta)`` gives (log-likelihood, gradient, Hessian), or None
    where theta lies outside the support or a sum is not finite; numpy's
    overflow is ignored, so it only makes a sum non-finite. Each trial
    solves (-H + lam diag|H|) d = g from lam = 0; while the trial point
    gives None or lowers the log-likelihood beyond its rounding, lam grows
    fourfold, and past ``_LM_CEILING`` the fit gives up. Every trial counts
    against ``max_iter``. It converges on an undamped step of at most 1e-12
    of ``scales(*theta)`` in each coordinate where -H is positive definite,
    and returns the step's end. Otherwise it returns its last point,
    unconverged: where evaluate gives None at the start, at a saddle, when
    such steps stop shrinking before 1e-12 (rounding, not the optimum, then
    sets them), and at ``max_iter``. ``check(theta)``, where given, sees
    each accepted point and may raise to end the climb there.
    """
    theta = np.asarray(theta, dtype=np.float64)
    with np.errstate(all="ignore"):
        cur = evaluate(*theta)
        if cur is None:
            return theta, False
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
                    rel = np.max(np.abs(d) / scales(*theta))
                    if rel <= 1e-12:  # a maximum, not a saddle, if -H is positive definite
                        return trial, bool(np.all(np.linalg.eigvalsh(-hess) > 0.0))
                    if last < 1e-6 and rel > 0.5 * last:
                        return theta, False
                    last = rel
                new = evaluate(*map(float, trial))
            if new is None or not new[0] >= ll - 1e-12 * abs(ll):
                lam = _LM_GROWTH * lam if lam else _LM_FIRST
                if lam > _LM_CEILING:
                    return theta, False
                continue
            theta, cur, lam = trial, new, 0.0
            if check is not None:
                check(theta)
    return theta, False


# ---------------------------------------------------------------------------
# per-model definitions
# ---------------------------------------------------------------------------


class _Domain(NamedTuple):
    """A parameter's domain, lo < value <= hi and an integer where
    ``integer`` says so, and the transform that maps the simplex's real
    coordinate onto it."""

    text: str
    lo: float
    hi: float
    transform: str | None = None
    integer: bool = False


_REAL = _Domain("real", -math.inf, math.inf, "identity")  # never checked: NaN passes
_POSITIVE = _Domain("positive", 0.0, math.inf, "log")
# below 1 is at most the largest float below 1
_UNIT_OPEN = _Domain("in (0, 1)", 0.0, math.nextafter(1.0, 0.0), "logit")
_UNIT = _Domain("in (0, 1]", 0.0, 1.0, "logit")
_ABOVE_ONE = _Domain("above 1", 1.0, math.inf)  # the power law has no simplex fit
# an integer above 0 is at least 1; the finite top keeps floor() defined
_POSITIVE_INT = _Domain("a positive integer", 0.0, sys.float_info.max, integer=True)


@dataclass
class _ModelSpec:
    model: ModelId
    # the parameters in record order, each with its domain
    params: tuple[tuple[str, _Domain], ...]
    discrete: bool
    # ln f = log_formula(p, x) wherever in_support(p, x) holds, -inf elsewhere.
    # in_support is elementwise and gives the same answer on a Python float
    # as on a float64 element; for fixed p it holds on an interval of x.
    in_support: Callable[[dict, np.ndarray], np.ndarray]
    log_formula: Callable[[dict, np.ndarray], np.ndarray]
    cdf: Callable[[dict, np.ndarray], np.ndarray]
    sample: Callable[[dict, int, np.random.Generator], np.ndarray]
    # the part of in_support that every parameter value needs (p unused),
    # checked once per fit at the ends of the distinct values; in_support
    # when None
    support_check: Callable[[None, np.ndarray], np.ndarray] | None = None
    closed_fit: Callable[[np.ndarray, np.ndarray], dict] | None = None
    # (x, c, max_iter) -> (params, converged) from the fit's own start point
    newton_fit: Callable[[np.ndarray, np.ndarray, int], tuple[dict, bool]] | None = None
    names: tuple[str, ...] = field(init=False)
    # (name, lo, hi, integer) of each parameter that is not real
    bounds: tuple[tuple[str, float, float, bool], ...] = field(init=False)

    def __post_init__(self):
        self.names = tuple(name for name, _ in self.params)
        self.bounds = tuple(
            (name, d.lo, d.hi, d.integer) for name, d in self.params if d is not _REAL
        )
        if self.support_check is None:
            self.support_check = self.in_support

    @property
    def arity(self) -> int:
        return len(self.params)


def _is_integral(x):
    return _all_blocks(x, lambda xb: xb == np.floor(xb))


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
    mean = _mean(x, c)
    a0 = max(mean**2 / max(_var(x, c), 1e-12), 1e-3)  # the moment estimate
    s = math.log(mean) - _mean(x, c, np.log)
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
    # np.power, not **: numpy's ** takes sqrt for the exponent 0.5, whose last bit can differ
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


# the probabilities exp(-e), exp(-1) and exp(-1/e) of ``_gev_quantile_start``
_GEV_QUANTILE_P = np.exp(-np.exp([1.0, 0.0, -1.0]))


def _gev_quantile_start(x, c):
    """[k, sigma, mu] through the sample quantiles x1, x2, x3 at
    ``_GEV_QUANTILE_P``, or None where two of them coincide. The GEV's
    quantile at p is mu + sigma (a^-k - 1)/k with a = -ln p, here e, 1 and
    1/e, so (x3 - x2)/(x2 - x1) = e^k, mu = x2 and
    sigma = k (x3 - x2)/(e^k - 1). Unlike ``_gev_init``, whose sigma is the
    sample's standard deviation, it is finite for every k, k >= 1/2 too.
    The running count is taken one block at a time."""
    targets = _GEV_QUANTILE_P * float(np.sum(c))
    picked, below = [], 0
    for lo in range(0, c.size, _BLOCK):
        cum = below + np.cumsum(c[lo : lo + _BLOCK])
        found = targets[len(picked) :][targets[len(picked) :] <= cum[-1]]
        picked.extend(float(x[lo + i]) for i in np.searchsorted(cum, found))
        below = cum[-1]
    x1, x2, x3 = picked
    if not x1 < x2 < x3:
        return None
    k = math.log((x3 - x2) / (x2 - x1))
    return [k, (x3 - x2) * (k / math.expm1(k) if k else 1.0), x2]


# Below this |k| the k-derivatives of the GEV log-density are written in
# log1p(q)/q, g(q)/q^2 and r(q)/q^3 of q = k z (``_gev_ratios``), which hold
# through k = 0; above it, in 1/k, 1/k^2 and 1/k^3 terms, which cancel as k
# nears 0: at |k| = 1e-3 the second derivative keeps about 7 digits and the
# first about 10, and each further decade of k costs two and one more. The
# Newton fit also measures its steps in k against at least this |k|.
_GEV_SERIES_K = 0.05
# A maximum at k <= -1/2 is not regular (Smith, Biometrika 1985); the Newton
# fit treats such k like a point outside the support.
_GEV_IRREGULAR_K = -0.5
# An unconverged end this close to k = -1/2 was stopped by that wall: a trial
# beyond it is rejected until the damping passes ``_LM_CEILING``, which leaves
# the last point within about 1e-6 of the wall (2e-6 at most on samples of 4
# to 11 arbitrary values); an end farther away stopped for another reason.
_GEV_WALL_GAP = 1e-3


def _odd_series(w):
    """S = sum over m = 1..8 of w^(m-1)/(2m+1), by Horner: the series in
    w = z^2, z = q/(2 + q), of log1p(q) = 2z (1 + w S), which
    ``_gev_ratios`` and ``_gp_gap`` take where |q| < ``_GP_GAP_SERIES``."""
    series = 0.0
    for m in range(8, 0, -1):
        series = series * w + 1.0 / (2 * m + 1)
    return series


def _gev_ratios(q):
    """(log1p(q)/q, g(q)/q^2, r(q)/q^3) with g(q) = log1p(q) - q/(1 + q)
    and r(q) = g(q) - q^2/(2 (1 + q)^2), whose limits at q = 0 are 1, 1/2
    and 1/3. Where |q| < ``_GP_GAP_SERIES`` they come from the series
    S = ``_odd_series(w)``, with z = q/(2 + q) and w = z^2:
    log1p(q) = 2z (1 + w S), g = 2z^2/(1 + z) + 2z^3 S and
    r = 2z^3/(1 + z)^2 + 2z^3 S, none of whose terms cancel."""
    ln1p_q, g_q, r_q = (np.empty_like(q) for _ in range(3))
    small = np.abs(q) < _GP_GAP_SERIES
    big = ~small
    qb = q[big]
    ln1p = np.log1p(qb)
    gap = ln1p - qb / (1.0 + qb)
    ln1p_q[big] = ln1p / qb
    g_q[big] = gap / qb**2
    r_q[big] = (gap - 0.5 * (qb / (1.0 + qb)) ** 2) / qb**3
    a = 1.0 / (2.0 + q[small])
    z = q[small] * a
    w = z * z
    series = _odd_series(w)
    ln1p_q[small] = 2.0 * a * (1.0 + w * series)
    g_q[small] = 2.0 * a * a * (1.0 / (1.0 + z) + z * series)
    r_q[small] = 2.0 * a * a * a * (1.0 / (1.0 + z) ** 2 + series)
    return ln1p_q, g_q, r_q


def _gev_derivatives(x, c, n, k, sigma, mu):
    """(log-likelihood, gradient, Hessian) in (k, sigma, mu), or None at
    k <= -1/2, sigma <= 0, a value outside the support or a non-finite sum.

    With z = (x - mu)/sigma, t = 1 + k z, y = ln t, w = e^(-y/k) and
    u = z/t, ln f = -ln sigma + h(z, k) with h = -(1 + 1/k) y - w; the
    sigma and mu derivatives follow from those of h by the chain rule.
    Below ``_GEV_SERIES_K``, with G = (y - k u)/k^2 = z^2 g(kz)/(kz)^2,
    w_k = w G, h_k = (1 - w) G - u and
    h_kk = u^2 - w G^2 - 2 (1 - w) z^3 r(kz)/(kz)^3 (``_gev_ratios``).
    The nine weighted sums, and the log-likelihood's, are ``_block_sums``.
    """
    if not (k > _GEV_IRREGULAR_K and sigma > 0.0):
        return None
    for end in (x[0], x[-1]):  # t is monotone in x, so the ends decide
        if not 1.0 + k * ((float(end) - mu) / sigma) > 0.0:
            return None
    series = abs(k) < _GEV_SERIES_K
    if not series:
        ik = 1.0 / k
        ik2 = ik * ik

    def terms(xb):
        z = (xb - mu) / sigma
        t = 1.0 + k * z
        u = z / t
        if series:
            ln1p_q, g_q, r_q = _gev_ratios(k * z)
            y_k = z * ln1p_q  # y/k
            w = np.exp(-y_k)
            a = 1.0 - w
            big_g = z * z * g_q
            w_k = w * big_g
            h = -(1.0 + k) * y_k - w
            h_k = a * big_g - u
            h_kk = u * u - w_k * big_g - 2.0 * a * z * z * z * r_q
            b = k + 1.0 - w
        else:
            y = np.log(t)
            w = np.exp(-y * ik)
            a = 1.0 - w
            b = k + 1.0 - w
            w_k = w * (y * ik2 - u * ik)
            h = -(1.0 + ik) * y - w
            h_k = a * y * ik2 - u * b * ik
            h_kk = (
                -w_k * y * ik2
                + a * u * ik2
                - 2.0 * a * y * ik2 * ik
                + u * u * b * ik
                - u * (1.0 - w_k) * ik
                + u * b * ik2
            )
        h_z = -b / t
        h_zz = (1.0 + k) * (k - w) / (t * t)
        h_zk = (w_k - 1.0 + b * u) / t
        h_zzz = h_zz * z
        return h, h_z, h_z * z, h_k, h_zz, h_zzz, h_zzz * z, h_zk, h_zk * z, h_kk

    sums = _block_sums(c, x, terms)
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


def _gev_anchored(evaluate, x0, k, sigma, s):
    """``evaluate`` (``_gev_derivatives``) in (k, sigma, s) for k > 0, with
    s = ln t(x0) at the sample minimum x0, so mu = x0 - sigma (e^s - 1)/k:
    the gradient J'g and the Hessian J'HJ + g_mu D, with J the Jacobian of
    (k, sigma, mu) and D the Hessian of mu. None at k <= 0."""
    if not k > 0.0:
        return None
    e, em1 = math.exp(s), math.expm1(s)
    cur = evaluate(k, sigma, x0 - sigma * em1 / k)
    if cur is None:
        return None
    ll, grad, hess = cur
    jac = np.eye(3)
    jac[2] = [sigma * em1 / k**2, -em1 / k, -sigma * e / k]
    d2mu = np.array(
        [
            [-2.0 * sigma * em1 / k**3, em1 / k**2, sigma * e / k**2],
            [em1 / k**2, 0.0, -e / k],
            [sigma * e / k**2, -e / k, -sigma * e / k],
        ]
    )
    return ll, jac.T @ grad, jac.T @ hess @ jac + grad[2] * d2mu


def _gev_newton(x, c, max_iter):
    """``_damped_newton`` on the log-likelihood in (k, sigma, mu), with the
    analytic gradient and Hessian (Prescott & Walden, Biometrika 1980).

    ``_gev_derivatives`` treats k <= -1/2 as outside the support. Steps are
    measured against max(|k|, ``_GEV_SERIES_K``) for k, sigma for sigma and
    |mu| + sigma for mu. A climb whose start's support misses a sample end,
    or whose k is at most -1/2, starts at k = 0 instead, whose support is
    the line.

    Up to three climbs run, each only where the ones before it did not
    converge. The first starts from ``_gev_init``, whose sigma is the
    sample's standard deviation, which a heavy tail (k >= 1/2) leaves
    without bound, so the second starts from ``_gev_quantile_start``. In (k, sigma, mu) a large k spreads
    the Hessian's eigenvalues over 11 decades and more (at k = 6), as the
    lower end mu - sigma/k closes on the sample minimum x0; so where the
    second climb ends away from the wall and the quantile start has k > 0,
    the third climbs from it in (k, sigma, s = ln t(x0)) (``_gev_anchored``,
    steps in s measured against max(|s|, 1)), then in (k, sigma, mu) from
    there. The last climb's end is the fit's.

    Two ends have no regular maximum, and raise
    :class:`DegenerateSampleError` where the last climb meets them. One is
    unconverged against the k = -1/2 wall (within ``_GEV_WALL_GAP``). The
    other runs up the k -> oo ridge, where the density's mode,
    t = (1 + k)^-k, sits on x0 (of count c0) as the lower end closes on it.
    There ln f(x0) grows like (k + 1) ln(k + 1) and every other
    observation's falls like -ln k, so the likelihood grows along the ridge
    once c0 k ln(1 + k) > n; an accepted point past that k ends the climb.
    Any other unconverged fit returns its last point.
    """
    n = float(np.sum(c))
    evaluate = functools.partial(_gev_derivatives, x, c, n)
    x0, c0 = float(x[0]), float(c[0])
    wall = DegenerateSampleError("gev likelihood has no maximum with k > -1/2 on this sample")

    def scales(k, sigma, mu):
        return max(abs(k), _GEV_SERIES_K), sigma, abs(mu) + sigma

    def on_ridge(theta):
        k = float(theta[0])
        if k > 0.0 and c0 * k * math.log1p(k) > n:
            raise DegenerateSampleError("gev likelihood grows without bound on this sample as k grows")

    def climb(k, sigma, mu):
        """(theta, converged, no_maximum), the last the exit that the end
        raises if it is the fit's."""
        if not (k > _GEV_IRREGULAR_K and all(1.0 + k * ((float(end) - mu) / sigma) > 0.0 for end in (x[0], x[-1]))):
            k = 0.0
        try:
            theta, converged = _damped_newton(evaluate, (k, sigma, mu), scales, max_iter, on_ridge)
        except DegenerateSampleError as ridge:
            return None, False, ridge
        if not converged and theta[0] < _GEV_IRREGULAR_K + _GEV_WALL_GAP:
            return None, False, wall
        return theta, converged, None

    theta, converged, no_maximum = climb(*_gev_init(x, c))
    start = None if converged else _gev_quantile_start(x, c)
    if start is not None:
        theta, converged, no_maximum = climb(*start)
        if not converged and no_maximum is not wall and start[0] > 0.0:
            k, sigma, mu = start
            t0 = 1.0 + k * ((x0 - mu) / sigma)
            (k, sigma, s), _ = _damped_newton(
                functools.partial(_gev_anchored, evaluate, x0),
                (k, sigma, math.log(t0) if t0 > 0.0 else 0.0),
                lambda k, sigma, s: (max(abs(k), _GEV_SERIES_K), sigma, max(abs(s), 1.0)),
                max_iter,
                on_ridge,
            )
            theta, converged, no_maximum = climb(k, sigma, x0 - sigma * math.expm1(s) / k)
    if no_maximum is not None:
        raise no_maximum
    return dict(zip(("k", "sigma", "mu"), map(float, theta))), converged


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


# The profile fit climbs in u = ln(1 + tau*y_max); past this u, e^u overflows.
_GP_U_MAX = math.log(np.finfo(np.float64).max)


# below this |tau y|, log1p(tau y) - tau y/(1 + tau y) is taken from its series
_GP_GAP_SERIES = 0.2


def _gp_gap(ty, ln1p, q_tau):
    """g(ty) = log1p(ty) - ty/(1 + ty), given ln1p = log1p(ty) and
    q_tau = ty/(1 + ty), without their cancellation at small |ty|: with
    z = ty/(2 + ty), g = 2z^2/(1 + z) + 2 sum over m >= 1 of
    z^(2m+1)/(2m+1), whose first omitted term is below 1e-17 of g where
    |ty| < ``_GP_GAP_SERIES``."""
    g = ln1p - q_tau
    small = np.abs(ty) < _GP_GAP_SERIES
    if np.any(small):
        z = ty[small] / (2.0 + ty[small])
        w = z * z
        g[small] = 2.0 * w / (1.0 + z) + 2.0 * z * w * _odd_series(w)
    return g


def _gp_profile(x, c, n, theta, u):
    """(l, dl/du, d2l/du2, k, sigma) of the profile log-likelihood at
    u = ln(1 + tau*y_max), tau = k/sigma, with theta = x[0], the sample
    minimum (y = x - theta, a block at a time), or None where k <= -1 or a
    value is not finite.

    With s = sum c log1p(tau y), a = sum c y/(1 + tau y) and
    b = sum c (y/(1 + tau y))^2, the profile MLE of k is s/n, sigma = k/tau
    and l = -n (ln sigma + k + 1), whose tau-derivatives are
    n/tau - a (1 + 1/k) and -n/tau^2 + b (1 + 1/k) + a^2/(n k^2). The first
    is taken as n sum c g(tau y)/(tau s) - a, g from ``_gp_gap``, whose
    terms do not cancel as k nears 0. The four sums are ``_block_sums``.
    At tau = 0 (k = 0, the exponential) the limits of l and its
    derivatives hold, from the moments m1..m3 of y: -n (ln m1 + 1),
    n (m2/(2 m1) - m1) and n (m2 - 2 m3/(3 m1) + m2^2/(4 m1^2)).
    """
    y_max = float(x[-1]) - theta
    tau = math.expm1(u) / y_max

    def terms(xb):
        yb = xb - theta
        ty = tau * yb
        ln1p = np.log1p(ty)
        q = yb / (1.0 + ty)
        return ln1p, q, q * q, _gp_gap(ty, ln1p, tau * q)

    s, a, b, gap = _block_sums(c, x, terms)
    k = s / n
    if k == 0.0:  # tau = 0, or so small that k rounds to 0
        m1, m2, m3 = a / n, b / n, _block_sums(c, x, lambda xb: ((xb - theta) ** 3,))[0] / n
        sigma = m1
        ll = -n * (math.log(m1) + 1.0)
        d1 = n * (0.5 * m2 / m1 - m1)
        d2 = n * (m2 - 2.0 * m3 / (3.0 * m1) + 0.25 * (m2 / m1) ** 2)
    else:
        sigma = k / tau
        if not (k > -1.0 and sigma > 0.0):
            return None
        r = 1.0 + 1.0 / k
        ll = -n * (math.log(sigma) + k + 1.0)
        d1 = n * (gap / s) / tau - a  # tau * s overflows as sigma collapses
        d2 = -n / tau / tau + b * r + a * a / n / k / k
    g = math.exp(u) / y_max  # dtau/du, and d2tau/du2
    res = (ll, d1 * g, d2 * g * g + d1 * g, k, sigma)
    return res if all(map(math.isfinite, res)) else None


def _gp_newton(x, c, max_iter):
    """Newton on the profile likelihood with theta at the sample minimum
    (Grimshaw, Technometrics 1993).

    For k > -1 each log-density term rises with theta up to x[0], so
    theta = x[0], and k and sigma profile out (``_gp_profile``). The fit
    climbs l over tau in (-1/y_max, inf), written u = ln(1 + tau*y_max),
    from tau = -1/(2 y_max). Its Newton step is Newton's on dl/du as a
    function of 1 + tau*y_max = e^u: near tau = -1/y_max, where the maxima
    of short-tailed samples lie, dl/du is nearly linear in e^u. A bracket
    holds the maximum: a point where l rises to the right is its lower end,
    one where l falls its upper end, and a trial point that lowers l by more
    than 1e-12 of it is never accepted but ends the bracket on its side. A
    step that leaves the bracket, or comes where l is not concave, is
    replaced by a step uphill that doubles each time, or by bisection once
    it would leave the bracket. Every trial counts against ``max_iter``.

    A trial point with k <= -1 is treated as outside the support: it ends
    the bracket on its side. There theta = x[0] is no longer the MLE, and
    the likelihood grows without bound as the upper end of the support
    nears the sample maximum (Smith, Biometrika 1985), so when the bracket
    closes on such a point the fit raises :class:`DegenerateSampleError`.
    So it does when the climb runs to u = ``_GP_U_MAX``, where sigma
    collapses onto the sample minimum. It converges on a Newton step of at
    most 1e-12 relative in tau, or a bracket that narrow around a point of
    either slope.
    """
    theta = float(x[0])
    profile = functools.partial(_gp_profile, x, c, float(np.sum(c)), theta)
    u, lo, hi = math.log(0.5), -math.inf, _GP_U_MAX
    lo_wall = hi_wall = True  # whether an end of the bracket excludes the maximum
    step, converged = 1.0, True
    with np.errstate(all="ignore"):
        # k >= ln(1/2) here, but tau overflows on a subnormal y_max
        cur = profile(u)
        if cur is None:
            raise DegenerateSampleError("generalized_pareto likelihood is not finite at its start")
        for _ in range(max_iter):
            ll, g, h = cur[:3]
            if g > 0.0:
                lo, lo_wall = u, False
            elif g < 0.0:
                hi, hi_wall = u, False
            w1 = math.expm1(u)  # tau * y_max
            if g == 0.0 or math.expm1(hi) - math.expm1(lo) <= 1e-12 * abs(w1):
                if (g < 0.0 and lo_wall) or (g > 0.0 and hi_wall):
                    raise DegenerateSampleError(
                        "generalized_pareto likelihood grows without bound on this sample"
                        + (" as k falls below -1" if g < 0.0 else " as sigma collapses")
                    )
                break
            r = g / h if h < 0.0 else math.nan
            trial = u + math.log1p(-r) if r < 1.0 else math.nan
            if lo < trial < hi:
                if abs(math.expm1(trial) - w1) <= 1e-12 * abs(w1):
                    break
            else:
                trial = u + step if g > 0.0 else u - step
                if not lo < trial < hi:
                    trial = 0.5 * (u + (hi if g > 0.0 else lo))
                step *= 2.0
            new = profile(trial)
            if new is None or new[0] < ll - 1e-12 * abs(ll):
                if trial > u:
                    hi, hi_wall = trial, new is None
                else:
                    lo, lo_wall = trial, new is None
                continue
            u, cur = trial, new
        else:
            converged = False
    return {"k": cur[3], "sigma": cur[4], "theta": theta}, converged


# -- geometric (support N0, pmf (1-p)^x p) --------------------------------------


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
    inv = _mean(x, c, lambda xb: 1.0 / xb) - 1.0 / m
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
    """``_damped_newton`` with the analytic gradient and Hessian.

    From the moment estimates (mu0, sigma0), and with v = (x - mu0)/sigma0,
    it works in a = sigma0/sigma and b = a (mu - mu0)/sigma0, where
    z = (x - mu)/sigma = a v - b and the log-likelihood is
    sum c ln f(z) + n ln a - n ln sigma0 with ln f(z) = -2 ln(2 cosh(z/2)).
    The logistic density is log-concave, so this is concave in (a, b)
    (Pratt, JASA 1981), and its derivatives are sums of tanh(z/2) and
    sech^2(z/2) terms. Each trial takes the log-likelihood and those five
    sums in one ``_block_sums`` pass, v a block at a time. Steps are
    measured against a in a and (|mu| + sigma) a/sigma0 in b, that is
    against sigma in sigma and |mu| + sigma in mu.
    """
    n = float(np.sum(c))
    mu0, sigma0 = _mean(x, c), math.sqrt(_var(x, c)) * math.sqrt(3.0) / math.pi
    if not sigma0 > 0.0:  # the variance underflows
        raise DegenerateSampleError("logistic needs positive sample variance")

    def params(a, b):
        return {"mu": mu0 + sigma0 * b / a, "sigma": sigma0 / a}

    def evaluate(a, b):
        if not a > 0.0:
            return None
        p = params(a, b)

        def terms(xb):
            v = (xb - mu0) / sigma0
            t = np.tanh(0.5 * (a * v - b))
            s = 1.0 - t * t  # sech^2(z/2)
            sv = s * v
            return _logi_formula(p, xb), t, t * v, s, sv, sv * v

        sums = _block_sums(c, x, terms)
        if not all(map(math.isfinite, sums)):
            return None
        ll, s_t, s_tv, s_s, s_sv, s_svv = sums
        h_ab = 0.5 * s_sv
        hess = np.array([[-0.5 * s_svv - n / (a * a), h_ab], [h_ab, -0.5 * s_s]])
        return ll, np.array([n / a - s_tv, s_t]), hess

    def scales(a, b):
        p = params(a, b)
        return a, (abs(p["mu"]) + p["sigma"]) * a / sigma0

    theta, converged = _damped_newton(evaluate, (1.0, 0.0), scales, max_iter)
    return params(*map(float, theta)), converged


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
    s2 = _var(x, c, np.log)
    if s2 <= 0.0:
        raise DegenerateSampleError("log-normal needs positive variance of ln x")
    return {"mu": _mean(x, c, np.log), "sigma2": s2}


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
    n, omega = float(np.sum(c)), _mean(x, c, np.square)
    if not omega > 0.0:  # every x^2 underflows
        raise DegenerateSampleError("nakagami needs observations whose squares are positive")
    v = _var(x, c, np.square)
    mu0 = max(omega**2 / v if v > 0 else 1.0, 0.1)  # the moment estimate
    s = math.log(omega) - 2.0 * _block_sums(c, x, lambda xb: (np.log(xb),))[0] / n
    mu, converged = _gamma_shape(ModelId.NAKAGAMI, s, mu0, max_iter)
    return {"mu": mu, "omega": omega}, converged


# -- negative binomial ------------------------------------------------------------


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
        s_f, s_d = _block_sums(c, x, lambda xb: (digamma(xb + r), trigamma(xb + r)))
        f = s_f / n - digamma(r) + math.log(r / (r + m))
        d = s_d / n - trigamma(r) + 1.0 / r - 1.0 / (r + m)
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


def _plaw_in(p, x):
    return (x >= p["xmin"]) & (x == np.floor(x))


def _plaw_formula(p, x):  # -alpha ln x - ln zeta(alpha, xmin)
    alpha, xmin = p["alpha"], p["xmin"]
    return -alpha * np.log(x) - (float(zeta_jet(alpha, xmin)[0]) - alpha * math.log(xmin))


def _plaw_cdf(p, x):  # 1 - zeta(alpha, k + 1)/zeta(alpha, xmin), in logs
    alpha, xmin = p["alpha"], p["xmin"]
    k = np.floor(x)
    q = np.clip(k, xmin, sys.float_info.max) + 1.0
    ln_ratio = zeta_jet(alpha, q)[0] - alpha * np.log1p((q - xmin) / xmin)
    return np.where(k >= xmin, -np.expm1(ln_ratio - zeta_jet(alpha, xmin)[0]), 0.0)


def _plaw_newton(x, c, max_iter):
    """Newton in s = alpha - 1 on f(s) = mean ln(x/xmin) - E_alpha[ln(X/xmin)],
    f' = Var_alpha[ln X] (Clauset, Shalizi & Newman, SIAM Review 2009), which
    rises from -inf at s = 0 to mean ln(x/xmin) > 0; from n / sum c ln(x/(xmin - 1/2))."""
    xmin = float(x[0])
    mean_l = _mean(x, c, lambda xb: np.log1p((xb - xmin) / xmin))

    def fd(s):
        _, mean, var = zeta_jet(1.0 + s, xmin)
        return mean_l - float(mean), float(var)

    res = newton_root(fd, 1.0 / (mean_l - math.log1p(-0.5 / xmin)), max_iter)
    return {"alpha": 1.0 + res.root, "xmin": xmin}, res.converged


# The power-law sampler inverts a cumulative pmf table of _PLAW_TABLE
# entries, built from _PLAW_CHUNK entries, doubling, only as far as the
# largest uniform draw needs.
_PLAW_CHUNK, _PLAW_TABLE = 4096, 1_000_000


def _plaw_sample(p, n, gen):
    alpha, xmin = p["alpha"], int(p["xmin"])
    z0 = hurwitz_zeta(alpha, xmin)
    u = gen.uniform(size=n)
    top_u = float(u.max(initial=0.0))
    # the prefix of the cumulative pmf that the largest draw needs: each
    # chunk continues the full table's one sequential np.cumsum from its
    # last sum, on the full table's ks, so the prefix keeps the table's bits
    chunks, size, last = [], 0, 0.0
    while size == 0 or (size < _PLAW_TABLE and last < top_u):
        hi = min(max(2 * size, _PLAW_CHUNK), _PLAW_TABLE)
        ks = np.arange(xmin, xmin + hi, dtype=np.float64)[size:]
        chunks.append(np.cumsum(np.concatenate(([last], np.exp(-alpha * np.log(ks)) / z0)))[1:])
        size, last = hi, float(chunks[-1][-1])
    cum = np.concatenate(chunks)
    idx = np.searchsorted(cum, u)
    out = xmin + idx.astype(np.float64)
    # beyond the table the continuous inverse is effectively exact
    tail = idx >= _PLAW_TABLE
    if np.any(tail):
        top = float(cum[-1])
        v = (u[tail] - top) / max(1.0 - top, 1e-300)
        x0 = xmin + _PLAW_TABLE - 0.5
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
    s = _block_sums(c, x, lambda xb: (np.square(xb),))[0]
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
    ln_max = math.log(x[-1])

    def u_of(xb):  # ln(x / x_max) <= 0, so y = e^(b u)
        return np.log(xb) - ln_max

    sd = math.sqrt(_var(x, c, np.log))
    u_mean = _mean(x, c, u_of)

    def fd(b):
        def terms(xb):
            u = u_of(xb)
            y = np.exp(b * u)
            return y, (y, u), (y, u * u)

        s0, s1, s2 = _block_sums(c, x, terms)
        m1 = s1 / s0
        return m1 - 1.0 / b - u_mean, s2 / s0 - m1 * m1 + (1.0 / b) ** 2

    res = newton_root(fd, 1.2 / sd if sd > 0 else 1.0, max_iter)
    b = res.root
    a = float(x[-1]) * _mean(x, c, lambda xb: np.exp(b * u_of(xb))) ** (1.0 / b)
    return {"a": a, "b": b}, res.converged


# -- yule-simon (pmf p * B(x, p+1), support x >= 1) -----------------------------------


# Stirling's series ln G(z) = (z - 1/2) ln z - z + ln(2 pi)/2 + sum_k c_k z^(1 - 2k),
# c_k = B_2k / (2k (2k - 1)); from z = 10 on, the first omitted term is
# below 1e-15
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360)
_STIRLING_MIN = 10.0


def _stirling_tail(z):
    w = (1.0 / z) ** 2  # z * z would overflow past 1e154
    s = 0.0
    for c in reversed(_STIRLING):
        s = s * w + c
    return s / z


def _yule_log_beta(x, rho):
    """ln B(x, rho + 1) = ln G(x) + ln G(a) - ln G(x + a), a = rho + 1, for
    x >= 1. The log-gammas of x and x + a cancel as x grows, and the
    rounded x + a keeps ever fewer digits of a (none past 2^53 a), so from
    x = _STIRLING_MIN on their difference is Stirling's:
    a - a ln x - (x + a - 1/2) log1p(a/x) plus the series tails, with no
    large term left to cancel."""
    a = rho + 1.0
    big = x >= _STIRLING_MIN
    xb = np.where(big, x, _STIRLING_MIN)
    far = log_gamma(a) + (
        a
        - a * np.log(xb)
        - (xb + (a - 0.5)) * np.log1p(a / xb)
        + (_stirling_tail(xb) - _stirling_tail(xb + a))
    )
    return np.where(big, far, log_beta(np.where(big, 1.0, x), a))


def _yule_formula(p, x):
    rho = p["p"]
    return math.log(rho) + _yule_log_beta(x, rho)


def _yule_cdf(p, x):
    rho = p["p"]
    k = np.floor(np.asarray(x, dtype=np.float64))
    ok = k >= 1.0
    ks = np.where(ok, k, 1.0)
    # survival Pr(X > k) = k * B(k, p+1)
    logsurv = np.log(ks) + _yule_log_beta(ks, rho)
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
        s_f, s_d = _block_sums(c, x, lambda xb: (digamma(xb + rho + 1.0), trigamma(xb + rho + 1.0)))
        f = 1.0 / rho + digamma(rho + 1.0) - s_f / n
        d = -((1.0 / rho) ** 2) + trigamma(rho + 1.0) - s_d / n
        return -f, -d

    res = newton_root(fd, max(m / (m - 1.0), 0.05) if m > 1.05 else 10.0, max_iter)
    return {"p": res.root}, res.converged


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


_SPECS: dict[ModelId, _ModelSpec] = {}


def _register(*args, **kwargs):
    spec = _ModelSpec(*args, **kwargs)
    _SPECS[spec.model] = spec


_register(
    ModelId.EXPONENTIAL,
    (("mu", _POSITIVE),),
    False,
    _nonneg_at,
    _exp_formula,
    _exp_cdf,
    lambda p, n, g: g.exponential(p["mu"], size=n),
    closed_fit=_exp_fit,
)

_register(
    ModelId.GAMMA,
    (("a", _POSITIVE), ("b", _POSITIVE)),
    False,
    _positive_at,
    _gamma_formula,
    _gamma_cdf,
    lambda p, n, g: g.gamma(p["a"], p["b"], size=n),
    newton_fit=_gamma_newton,
)

_register(
    ModelId.GAUSSIAN,
    (("mu", _REAL), ("sigma2", _POSITIVE)),
    False,
    _everywhere,
    _gauss_formula,
    _gauss_cdf,
    lambda p, n, g: g.normal(p["mu"], math.sqrt(p["sigma2"]), size=n),
    closed_fit=_gauss_fit,
)

_register(
    ModelId.GEV,
    (("k", _REAL), ("sigma", _POSITIVE), ("mu", _REAL)),
    False,
    _gev_in,
    _gev_formula,
    _gev_cdf,
    _gev_sample,
    _everywhere,
    newton_fit=_gev_newton,
)

_register(
    ModelId.GENERALIZED_PARETO,
    (("k", _REAL), ("sigma", _POSITIVE), ("theta", _REAL)),
    False,
    _gp_in,
    _gp_formula,
    _gp_cdf,
    _gp_sample,
    _everywhere,
    newton_fit=_gp_newton,
)

_register(
    ModelId.GEOMETRIC,
    (("p", _UNIT),),
    True,
    _geo_in,
    _geo_formula,
    _geo_cdf,
    lambda p, n, g: (g.geometric(p["p"], size=n) - 1).astype(np.float64),
    _nonneg_int_at,
    closed_fit=_geo_fit,
)

_register(
    ModelId.INVERSE_GAUSSIAN,
    (("mu", _POSITIVE), ("lam", _POSITIVE)),
    False,
    _positive_at,
    _ig_formula,
    _ig_cdf,
    lambda p, n, g: g.wald(p["mu"], p["lam"], size=n),
    closed_fit=_ig_fit,
)

_register(
    ModelId.LOGISTIC,
    (("mu", _REAL), ("sigma", _POSITIVE)),
    False,
    _everywhere,
    _logi_formula,
    _logi_cdf,
    lambda p, n, g: g.logistic(p["mu"], p["sigma"], size=n),
    newton_fit=_logi_newton,
)

_register(
    ModelId.LOGNORMAL,
    (("mu", _REAL), ("sigma2", _POSITIVE)),
    False,
    _positive_at,
    _logn_formula,
    _logn_cdf,
    lambda p, n, g: g.lognormal(p["mu"], math.sqrt(p["sigma2"]), size=n),
    closed_fit=_logn_fit,
)

_register(
    ModelId.NAKAGAMI,
    (("mu", _POSITIVE), ("omega", _POSITIVE)),
    False,
    _positive_at,
    _naka_formula,
    _naka_cdf,
    lambda p, n, g: np.sqrt(g.gamma(p["mu"], p["omega"] / p["mu"], size=n)),
    newton_fit=_naka_newton,
)

_register(
    ModelId.NEGATIVE_BINOMIAL,
    (("r", _POSITIVE), ("p", _UNIT_OPEN)),
    True,
    _nonneg_int_at,
    _nbin_formula,
    _nbin_cdf,
    _nbin_sample,
    newton_fit=_nbin_newton,
)

_register(
    ModelId.POISSON,
    (("lam", _POSITIVE),),
    True,
    _nonneg_int_at,
    _pois_formula,
    _pois_cdf,
    lambda p, n, g: g.poisson(p["lam"], size=n).astype(np.float64),
    closed_fit=_pois_fit,
)

_register(
    ModelId.POWERLAW,
    (("alpha", _ABOVE_ONE), ("xmin", _POSITIVE_INT)),
    True,
    _plaw_in,
    _plaw_formula,
    _plaw_cdf,
    _plaw_sample,
    _pos_int_at,
    newton_fit=_plaw_newton,
)

_register(
    ModelId.RAYLEIGH,
    (("b", _POSITIVE),),
    False,
    _positive_at,
    _rayl_formula,
    _rayl_cdf,
    lambda p, n, g: g.rayleigh(p["b"], size=n),
    closed_fit=_rayl_fit,
)

_register(
    ModelId.WEIBULL,
    (("a", _POSITIVE), ("b", _POSITIVE)),
    False,
    _positive_at,
    _wbl_formula,
    _wbl_cdf,
    lambda p, n, g: p["a"] * g.weibull(p["b"], size=n),
    newton_fit=_wbl_newton,
)

_register(
    ModelId.YULE_SIMON,
    (("p", _POSITIVE),),
    True,
    _pos_int_at,
    _yule_formula,
    _yule_cdf,
    _yule_sample,
    newton_fit=_yule_newton,
)


def arity(model: ModelId) -> int:
    return _SPECS[model].arity


def is_discrete_model(model: ModelId) -> bool:
    return _SPECS[model].discrete


def _out_of_domain(spec: _ModelSpec, params: dict) -> str | None:
    """What is wrong with the first parameter outside its declared domain,
    or None. The optimizer's objective calls this on every evaluation."""
    for name, lo, hi, integer in spec.bounds:
        v = params[name]
        if not (lo < v <= hi and (not integer or v == math.floor(v))):
            return f"{spec.model.value} parameter {name}={v} is not {dict(spec.params)[name].text}"
    return None


def _validated(model: ModelId, params: dict) -> _ModelSpec:
    """The model's spec, once ``params`` holds every parameter, each inside
    its declared domain."""
    spec = _SPECS[model]
    missing = set(spec.names) - set(params)
    if missing:
        raise ParameterError(f"{model.value} missing parameters {sorted(missing)}")
    fault = _out_of_domain(spec, params)
    if fault:
        raise ParameterError(fault)
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


def random_variates(model: ModelId, params: dict, n: int, rng: RandomSource) -> np.ndarray:
    """n independent variates in draw order; deterministic given the seed of ``rng``."""
    spec = _validated(model, params)
    if n < 1:
        raise UsageError("need n >= 1")
    return spec.sample(params, n, rng.generator)


def random_sample(model: ModelId, params: dict, n: int, rng: RandomSource) -> Sample:
    """The Sample of ``random_variates``."""
    return Sample.of(random_variates(model, params, n, rng), _SPECS[model].discrete)


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
    """Returns the continuous-on-integer flag; raises on real violations.

    A discrete model needs a sample flagged discrete, whose values
    ``Sample`` has checked to be integers. On those, as on the reals for a
    continuous model, the support check holds on an interval, so the two
    ends of the sorted distinct values decide it."""
    x = sample.support
    hosted = all(spec.support_check(None, float(end)) for end in (x[0], x[-1]))
    if spec.discrete:
        if not (sample.is_discrete and hosted):
            raise SupportError(
                f"{spec.model.value} requires integer observations in its support"
            )
        return False
    if not hosted:
        raise SupportError(
            f"{spec.model.value} cannot host these observations"
        )
    return sample.is_discrete or _is_integral(sample.support)


def mle_fit(model: ModelId, sample: Sample) -> FittedModel:
    """Maximum-likelihood fit by the model's one solver: a closed form; or
    Newton's method (on the profile score for Weibull, gamma, Nakagami,
    negative binomial, Yule-Simon and the power law, ``_damped_newton`` for
    the logistic and the GEV, on the profile likelihood at theta = min x for
    the generalized Pareto). On an integer sample the generalized Pareto
    density has no interior maximum, so it is fitted there by the
    transformed Nelder-Mead optimizer on the negative log-likelihood
    instead.

    The power-law cutoff is fixed to min(sample) and never estimated;
    its exponent is the root of its score. A model with no finite MLE
    on the sample raises :class:`DegenerateSampleError`: every model in
    ``_NO_MLE_ON_ONE_VALUE`` on a sample of one distinct value, before any
    fitting; the negative binomial when the variance is at most the mean;
    Yule-Simon when the mean is 1; gamma and Nakagami when their shape
    equation has no root after rounding; the logistic when the sample
    variance underflows to 0, and the Nakagami when every x^2 does; the
    generalized Pareto on a real sample whose profile likelihood has no
    maximum with k > -1, or is not finite at its start; the GEV where its
    last climb ends against the k = -1/2 wall, or runs up the ridge where k
    grows without bound (``_gev_newton``). A Newton fit or optimizer that
    reaches ``_MAX_ITER``, or cannot improve on its last point, returns that
    point flagged ``converged=False``. A float overflow in a closed form, a
    start point or the likelihood raises :class:`NumericalError`; in the
    damped and generalized Pareto Newton fits it only rejects the step.
    """
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
        params, converged = _fit_params(spec, x, c, cont_flag)
        total = _block_sums(c, x, lambda xb: (log_density(model, params, xb),))[0]
    except (OverflowError, FloatingPointError) as exc:
        raise NumericalError(f"{model.value} fit overflowed: {exc}") from None
    if not np.isfinite(total):
        raise DegenerateSampleError(
            f"{model.value} fit produced a non-finite likelihood"
        )
    return FittedModel(
        model=model,
        params=params,
        sample=sample,
        total_loglik=total,
        aicc=_aicc_default(total, spec.arity, sample.n),
        converged=converged,
        continuous_on_integer_data=cont_flag,
    )


def _blocked_loglik(spec: _ModelSpec, x: np.ndarray, c: np.ndarray):
    """params -> ``weighted_sum(c, log_density(params, x))`` for sorted
    distinct ``x``.

    The support is an interval and x is sorted, so x lies in it exactly
    when both ends, Python floats, do; otherwise some term is -inf and the
    true sum is -inf or NaN, which the optimizer rejects alike. Inside it,
    the formula is evaluated and summed one ``_BLOCK`` at a time by
    ``_block_sums``; up to ``_BLOCK`` values that is one ``np.dot``. This
    is the simplex's objective. Call it under ``np.errstate(all="ignore")``:
    an overflow only makes a trial point non-finite, which the simplex
    rejects.
    """
    in_support, formula = spec.in_support, spec.log_formula
    first, last = float(x[0]), float(x[-1])

    def loglik(params):
        if not (in_support(params, first) and in_support(params, last)):
            return _NEG_INF
        if x.size <= _BLOCK:  # one block, without _block_sums' calls
            return float(np.dot(c, formula(params, x)))
        return _block_sums(c, x, lambda xb: (formula(params, xb),))[0]

    return loglik


def _fit_params(spec: _ModelSpec, x: np.ndarray, c: np.ndarray, on_integers: bool):
    """(params, converged) from the model's one solver: the simplex for the
    GP's density ``on_integers``, the closed form or Newton fit everywhere
    else. Closed forms, start points and the profile Newton fits raise
    FloatingPointError when a sum overflows; the damped and generalized
    Pareto Newton fits and the simplex ignore it, so an overflowing trial
    point is only a rejected move."""
    with np.errstate(over="raise"):
        if spec.closed_fit is not None:
            params = spec.closed_fit(x, c)
            _validated(spec.model, params)
            return params, True
        if not (on_integers and spec.model is ModelId.GENERALIZED_PARETO):
            return spec.newton_fit(x, c, _MAX_ITER)
        return _fit_by_simplex(spec, x, c, _gp_init(x, c))


def _fit_by_simplex(spec: _ModelSpec, x: np.ndarray, c: np.ndarray, guess):
    names = spec.names
    loglik = _blocked_loglik(spec, x, c)

    def negll(theta):
        params = dict(zip(names, theta))
        return math.inf if _out_of_domain(spec, params) else -loglik(params)

    problem = OptimizationProblem(
        objective=negll,
        initial_point=guess,
        parameter_transforms=[domain.transform for _, domain in spec.params],
    )
    with np.errstate(all="ignore"):
        res = nelder_mead_minimize(problem, max_iter=_MAX_ITER)
    params = dict(zip(names, (float(v) for v in res.argmin)))
    return params, res.converged
