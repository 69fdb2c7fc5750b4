"""The log-densities, the Nelder-Mead simplex, the tokenizer and the index
build against the implementations they replace.

The reference code below is kept verbatim: every model's log-density as one
masked numpy expression (``np.where`` on the support, ``_safe_log`` and
substituted arguments), and a simplex that keeps its vertices in a numpy
array. The predicate-plus-formula densities, the two-end support check of
the optimizer objective and the list-based simplex must reproduce them bit
for bit; the objective's sum is the blocked reduction ``_blocked_dot``.

The regex tokenizer and the dense-id index build are kept verbatim too, as
``tokenize`` and ``build_index`` here; the program's translate-and-split
tokenizer must give the same tokens on any text, and its first-seen term
ids the same index bytes. So is the whole-array build that the one-buffer
build replaced, as ``_ref_build_index`` (calling ``corpus.tokenize``):
at any block size, every array, its dtype included, and the saved bytes
must be the same.

So are the per-entry effectiveness metrics, their set-building qrels and
the line-by-line run reader, changed only to read doc ids from a plain
list. The grade-vector metrics must give the same values bit for bit (on
an interpreter whose ``sum()`` adds left to right), and the columnar run
reader the same lists or the same message, except that it also rejects a
document listed twice for a query. The columnar qrels reader must give
the line-by-line one's grades or its message.

So are the GEV's and the logistic's own damped Newton loops, which
``_damped_newton`` replaced: the GEV's fit must keep its bits wherever
that loop converged, and the logistic's, whose steps ``np.linalg.solve``
now takes, must stay within 1e-14 relative.

So is the tuning loop that keeps every grid value's ranked lists and
scores the held-out ones with ``evaluate_run``. ``cv_tune``, which keeps
only each query's metric values, must give the same fold winners and
means, bit for bit, or the same message.
"""

import array
import collections
import functools
import itertools
import math
import operator
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from adrank import corpus, distributions, evaluation, numerics, ranking
from adrank.corpus import InvertedIndex, save_index
from adrank.distributions import (  # the underscored names: those the reference fits use
    _GEV_IRREGULAR_K,
    _GEV_SERIES_K,
    _GP_U_MAX,
    _LM_CEILING,
    _LM_FIRST,
    _LM_GROWTH,
    _SPECS,
    ModelId,
    Sample,
    _block_sums,
    _blocked_loglik,
    _gamma_shape,
    _gev_derivatives,
    _gev_init,
    _gp_gap,
    _is_integral,
    _mean,
    _var,
    arity,
    is_discrete_model,
    log_density,
    mle_fit,
    random_sample,
    weighted_sum,
)
from adrank.errors import (
    AdrankError,
    DegenerateSampleError,
    FormatError,
    IngestError,
    OptimizationInitError,
    SupportError,
    UsageError,
)
from adrank.numerics import (
    OptimizationProblem,
    RandomSource,
    hurwitz_zeta,
    log_gamma,
    nelder_mead_minimize,
    newton_root,
)
from planted import build_crossover_corpus
from test_distributions import simplex_from_closed_form

_NEG_INF = -np.inf
_EPS_K = 1e-12

# ---------------------------------------------------------------------------
# reference implementations
# ---------------------------------------------------------------------------


def _blocked_dot(c, v):
    """sum(c * v) as one np.dot per block of distinct values, added left to
    right: the reduction every likelihood sum uses, whatever the BLAS
    thread count."""
    step = distributions._BLOCK
    dots = [float(np.dot(c[lo : lo + step], v[lo : lo + step])) for lo in range(0, c.size, step)]
    return functools.reduce(operator.add, dots)


def _safe_log(x):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def _exp_logpdf(p, x):
    mu = p["mu"]
    out = -math.log(mu) - x / mu
    return np.where(x >= 0.0, out, _NEG_INF)


def _gamma_logpdf(p, x):
    a, b = p["a"], p["b"]
    out = np.where(
        x > 0.0,
        -a * math.log(b) - log_gamma(a) + (a - 1.0) * _safe_log(x) - x / b,
        _NEG_INF,
    )
    return out


def _gauss_logpdf(p, x):
    mu, s2 = p["mu"], p["sigma2"]
    return -0.5 * math.log(2.0 * math.pi * s2) - (x - mu) ** 2 / (2.0 * s2)


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


def _gp_logpdf(p, x):
    k, sigma, theta = p["k"], p["sigma"], p["theta"]
    with np.errstate(all="ignore"):
        z = (x - theta) / sigma
        if abs(k) < _EPS_K:
            return np.where(z >= 0.0, -math.log(sigma) - z, _NEG_INF)
        t = 1.0 + k * z
        out = -math.log(sigma) - (1.0 + 1.0 / k) * _safe_log(t)
        return np.where((z >= 0.0) & (t > 0.0), out, _NEG_INF)


def _geo_logpdf(p, x):
    pr = p["p"]
    ok = (x >= 0.0) & (x == np.floor(x))
    if pr == 1.0:
        return np.where(ok & (x == 0.0), 0.0, _NEG_INF)
    return np.where(ok, x * math.log(1.0 - pr) + math.log(pr), _NEG_INF)


def _ig_logpdf(p, x):
    mu, lam = p["mu"], p["lam"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = 0.5 * (math.log(lam) - math.log(2.0 * math.pi) - 3.0 * _safe_log(x)) - (
            lam * (x - mu) ** 2
        ) / (2.0 * mu**2 * np.where(x > 0.0, x, 1.0))
    return np.where(x > 0.0, out, _NEG_INF)


def _logi_logpdf(p, x):
    mu, sigma = p["mu"], p["sigma"]
    s = (x - mu) / sigma
    return -np.abs(s) - math.log(sigma) - 2.0 * np.log1p(np.exp(-np.abs(s)))


def _logn_logpdf(p, x):
    mu, s2 = p["mu"], p["sigma2"]
    with np.errstate(divide="ignore", invalid="ignore"):
        lx = _safe_log(x)
        out = -lx - 0.5 * math.log(2.0 * math.pi * s2) - (lx - mu) ** 2 / (2.0 * s2)
    return np.where(x > 0.0, out, _NEG_INF)


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


def _pois_logpdf(p, x):
    lam = p["lam"]
    ok = (x >= 0.0) & (x == np.floor(x))
    xs = np.where(ok, x, 0.0)
    out = xs * math.log(lam) - lam - log_gamma(xs + 1.0)
    return np.where(ok, out, _NEG_INF)


def _plaw_logpdf(p, x):
    alpha, xmin = p["alpha"], p["xmin"]
    lz = math.log(hurwitz_zeta(alpha, xmin))
    ok = (x >= xmin) & (x == np.floor(x))
    return np.where(ok, -alpha * _safe_log(np.where(ok, x, 1.0)) - lz, _NEG_INF)


def _rayl_logpdf(p, x):
    b = p["b"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _safe_log(x) - 2.0 * math.log(b) - x**2 / (2.0 * b**2)
    return np.where(x > 0.0, out, _NEG_INF)


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


def _yule_logpdf(p, x):
    rho = p["p"]
    ok = (x >= 1.0) & (x == np.floor(x))
    xs = np.where(ok, x, 1.0)
    # the log-beta is the program's own: it replaced a difference of log-gammas
    # that cancels at large x, and test_yule_log_beta_against_mpmath checks it
    out = math.log(rho) + distributions._yule_log_beta(xs, rho)
    return np.where(ok, out, _NEG_INF)


REFERENCE = {
    ModelId.EXPONENTIAL: _exp_logpdf,
    ModelId.GAMMA: _gamma_logpdf,
    ModelId.GAUSSIAN: _gauss_logpdf,
    ModelId.GEV: _gev_logpdf,
    ModelId.GENERALIZED_PARETO: _gp_logpdf,
    ModelId.GEOMETRIC: _geo_logpdf,
    ModelId.INVERSE_GAUSSIAN: _ig_logpdf,
    ModelId.LOGISTIC: _logi_logpdf,
    ModelId.LOGNORMAL: _logn_logpdf,
    ModelId.NAKAGAMI: _naka_logpdf,
    ModelId.NEGATIVE_BINOMIAL: _nbin_logpdf,
    ModelId.POISSON: _pois_logpdf,
    ModelId.POWERLAW: _plaw_logpdf,
    ModelId.RAYLEIGH: _rayl_logpdf,
    ModelId.WEIBULL: _wbl_logpdf,
    ModelId.YULE_SIMON: _yule_logpdf,
}


def _simplex_run(func, u0, tol, max_iter):
    """One Nelder-Mead run from u0. Returns (u_best, f_best, iters, ok)."""
    n = u0.size
    verts = [u0.copy()]
    for i in range(n):
        step = 0.05 * abs(u0[i]) + 0.1
        v = u0.copy()
        v[i] += step
        verts.append(v)
    verts = np.array(verts)
    fvals = np.array([func(v) for v in verts])
    if not np.any(np.isfinite(fvals)):
        raise OptimizationInitError(
            "objective non-finite at every initial simplex vertex"
        )

    iters = 0
    converged = False
    while iters < max_iter:
        order = np.argsort(fvals, kind="stable")
        verts, fvals = verts[order], fvals[order]
        best, worst = fvals[0], fvals[-1]
        diam = np.max(np.abs(verts[1:] - verts[0]))
        spread = worst - best
        if diam <= tol * (1.0 + np.max(np.abs(verts[0]))) and (
            spread <= tol * (1.0 + abs(best))
        ):
            converged = True
            break
        iters += 1
        centroid = np.mean(verts[:-1], axis=0)
        xr = centroid + (centroid - verts[-1])
        fr = func(xr)
        if fr < fvals[0]:
            xe = centroid + 2.0 * (centroid - verts[-1])
            fe = func(xe)
            if fe < fr:
                verts[-1], fvals[-1] = xe, fe
            else:
                verts[-1], fvals[-1] = xr, fr
        elif fr < fvals[-2]:
            verts[-1], fvals[-1] = xr, fr
        else:
            # contraction: an infinite (rejected) reflection lands here too
            if fr < fvals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (verts[-1] - centroid)
            fc = func(xc)
            if fc < min(fr, fvals[-1]):
                verts[-1], fvals[-1] = xc, fc
            else:
                # shrink towards the best vertex
                for i in range(1, n + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    fvals[i] = func(verts[i])
    order = np.argsort(fvals, kind="stable")
    return verts[order][0], fvals[order][0], iters, converged


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

_TINY, _HUGE = 1e-300, 1e300
# both sides of the k -> 0 switch, at and next to it
_KS = (0.3, -0.3, 0.5, -0.5, 0.0, 1e-13, -1e-13, _EPS_K, 1e-11, -1e-11, 2.0)

PARAMS = {
    ModelId.EXPONENTIAL: [{"mu": m} for m in (2.0, _TINY, _HUGE)],
    ModelId.GAMMA: [
        {"a": a, "b": b} for a in (3.0, 0.4, _TINY) for b in (1.5, _TINY, _HUGE)
    ],
    ModelId.GAUSSIAN: [{"mu": 3.0, "sigma2": s} for s in (4.0, _TINY, _HUGE)],
    ModelId.GEV: [
        {"k": k, "sigma": s, "mu": 1.0} for k in _KS for s in (2.0, _TINY, _HUGE)
    ],
    ModelId.GENERALIZED_PARETO: [
        {"k": k, "sigma": s, "theta": 1.0} for k in _KS for s in (2.0, _TINY, _HUGE)
    ],
    ModelId.GEOMETRIC: [{"p": p} for p in (0.5, 1.0, _TINY, 1.0 - 1e-16)],
    ModelId.INVERSE_GAUSSIAN: [
        {"mu": m, "lam": lam} for m in (2.0, _TINY, _HUGE) for lam in (3.0, _TINY, _HUGE)
    ],
    ModelId.LOGISTIC: [{"mu": 1.0, "sigma": s} for s in (2.0, _TINY, _HUGE)],
    ModelId.LOGNORMAL: [{"mu": 1.0, "sigma2": s} for s in (0.49, _TINY, _HUGE)],
    ModelId.NAKAGAMI: [
        {"mu": m, "omega": om} for m in (2.0, 0.3) for om in (3.0, _TINY, _HUGE)
    ],
    ModelId.NEGATIVE_BINOMIAL: [
        {"r": r, "p": p} for r in (3.5, _TINY, 1e6) for p in (0.4, 1e-12, 1.0 - 1e-12)
    ],
    ModelId.POISSON: [{"lam": lam} for lam in (4.0, _TINY, 1e6)],
    ModelId.POWERLAW: [
        {"alpha": a, "xmin": xm} for a in (2.5, 1.0 + 1e-9) for xm in (1.0, 3.0)
    ],
    ModelId.RAYLEIGH: [{"b": b} for b in (2.0, _TINY, _HUGE)],
    ModelId.WEIBULL: [
        {"a": a, "b": b} for a in (2.0, _TINY, _HUGE) for b in (1.5, 0.5, _HUGE)
    ],
    ModelId.YULE_SIMON: [{"p": p} for p in (1.5, _TINY, 1e6)],
}

_COMMON_X = [
    -math.inf, -_HUGE, -50.5, -3.0, -2.0, -1.0, -0.5, -_TINY, -0.0, 0.0, 5e-324,
    _TINY, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 5.0, 10.0, 100.0, 1e6, 1e15 + 0.5, _HUGE,
    math.inf, math.nan,
]


def _points(model, p):
    """Common points plus those where t or z is exactly 0 and its
    neighbours one ulp away."""
    pts = list(_COMMON_X)
    if model in (ModelId.GEV, ModelId.GENERALIZED_PARETO):
        loc = p["mu"] if model is ModelId.GEV else p["theta"]
        edges = [loc]  # z = 0
        if p["k"] != 0.0:
            edges.append(loc - p["sigma"] / p["k"])  # t = 0 up to rounding
        for e in edges:
            pts += [math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf)]
    return np.array(pts)


def _ref_log_density(model, p, x):
    with np.errstate(all="ignore"):
        return REFERENCE[model](p, np.asarray(x, dtype=np.float64))


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


_CASES = [(m, i) for m in ModelId for i in range(len(PARAMS[m]))]


def _case_id(case):
    return f"{case[0].value}-{case[1]}"


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_every_model_has_cases():
    assert set(PARAMS) == set(ModelId) == set(REFERENCE)


@pytest.mark.parametrize("case", _CASES, ids=_case_id)
def test_log_density_bitwise(case):
    model, i = case
    p = PARAMS[model][i]
    x = _points(model, p)
    try:
        want = _ref_log_density(model, p, x)
    except OverflowError:  # a Python-float power of a huge parameter
        with pytest.raises(OverflowError):
            log_density(model, p, x)
        return
    assert _same_bits(log_density(model, p, x), want)
    # one value at a time, as scalars
    for xi in x[::5]:
        got1 = log_density(model, p, float(xi))
        assert _same_bits(got1, _ref_log_density(model, p, np.array([xi]))[0])


def test_discrete_models_reject_non_integers():
    x = np.array([0.5, 1.5, 2.25, 3.0 + 2.0**-40, 7.0])
    for model in ModelId:
        if is_discrete_model(model):
            p = PARAMS[model][0]
            got = log_density(model, p, x)
            assert np.all(got[:4] == -np.inf) and np.isfinite(got[4]), model
            assert _same_bits(got, _ref_log_density(model, p, x))


def _block_sample(model, gen):
    """Sorted distinct values over more than two blocks, reaching below
    zero so that parameter changes move the support's edge through them."""
    size = 2 * distributions._BLOCK + 3000
    if is_discrete_model(model):
        x = np.arange(-2.0, size - 2.0)
    else:
        x = np.unique(gen.uniform(-30.0, 60.0, size=size))
    return x, gen.integers(1, 6, size=x.size).astype(np.float64)


def _objective_params(model, p, x):
    """The case's parameters, and location shifts that put the support's
    edge at the first value, inside the sample and at the last value."""
    out = [p]
    for name in ("mu", "theta"):
        if name in p and model in (ModelId.GEV, ModelId.GENERALIZED_PARETO):
            for at in (x[0], x[1], x[x.size // 3], x[-1]):
                shift = at + p["sigma"] / p["k"] if p["k"] != 0.0 else at
                out.append({**p, name: float(shift)})
                out.append({**p, name: float(at)})
    return out


@pytest.mark.parametrize("model", list(ModelId))
def test_objective_against_masked_sum(model):
    gen = np.random.default_rng(31)
    x, c = _block_sample(model, gen)
    spec = distributions._SPECS[model]
    finite = 0
    # from below 0, from 0 (the geometric with p = 1 is finite there up to
    # its last value) and inside the support of most cases
    for keep in (x == x, x >= 0.0, x > 3.5):
        xs, cs = x[keep], c[keep]
        loglik = distributions._blocked_loglik(spec, xs, cs)
        for p in PARAMS[model]:
            for q in _objective_params(model, p, xs):
                # the optimizer passes numpy scalars, whose powers overflow to inf
                q = {k: np.float64(v) for k, v in q.items()}
                # the objective runs under the caller's errstate
                with np.errstate(all="ignore"):
                    ref = _blocked_dot(cs, _ref_log_density(model, q, xs))
                    got = loglik(q)
                if math.isfinite(ref):
                    finite += 1
                    assert got == ref, (q, got, ref)
                else:
                    assert not math.isfinite(got), (q, got, ref)
    assert finite > 0


# -- simplex ------------------------------------------------------------------

_NEW_RUN = numerics._simplex_run


def _run_both(monkeypatch, call):
    """Run ``call`` with every simplex run made by both implementations on
    the same objective, check that they agree, and return ``call``'s result
    with the (new, reference) results of each run (None where both raised
    for a start with no finite vertex)."""
    runs = []

    def both(func, u0, f0, tol, max_iter):
        assert f0 == func(u0)
        try:
            new = _NEW_RUN(func, u0, f0, tol, max_iter)
        except OptimizationInitError:
            with pytest.raises(OptimizationInitError):
                _simplex_run(func, np.array(u0, dtype=np.float64), tol, max_iter)
            runs.append(None)
            raise
        ref = _simplex_run(func, np.array(u0, dtype=np.float64), tol, max_iter)
        runs.append((new, ref))
        return new

    monkeypatch.setattr(numerics, "_simplex_run", both)
    result = call()
    assert runs
    for new, ref in filter(None, runs):
        u, f, iters, ok = new
        ru, rf, riters, rok = ref
        assert np.array(u, dtype=np.float64).tobytes() == ru.tobytes()
        assert f == rf and iters == riters and ok == rok
    return result, runs


def _quadratic(v):
    return float(
        (v[0] - 1.5) ** 2 + 3.0 * (v[1] + 0.25) ** 2 + (v[0] - v[1]) * v[2] ** 2 + v[2] ** 2
    )


def _rosenbrock(v):
    return (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2


def _rippled(v):
    # contractions often fail here, so the simplex shrinks
    ripple = 0.3 * math.sin(40.0 * v[0]) * math.cos(40.0 * v[1])
    return (v[0] - 1.0) ** 2 + (v[1] + 0.5) ** 2 + ripple


def _walled(v):
    # +inf outside a disc and NaN in a slab: both are rejected moves
    if v[0] ** 2 + v[1] ** 2 > 4.0:
        return math.inf
    if 0.3 < v[1] < 0.35:
        return math.nan
    return (v[0] - 1.2) ** 2 + (v[1] - 0.9) ** 2 + 0.1 * v[0] * v[1]


@pytest.mark.parametrize(
    "objective, start, transforms, tol, max_iter",
    [
        (_quadratic, [0.0, 0.0, 0.5], ("identity", "identity", "identity"), 1e-10, 10_000),
        (_rosenbrock, [-1.2, 1.0], ("identity", "identity"), 1e-8, 10_000),
        (_rosenbrock, [-1.2, 1.0], ("identity", "identity"), 1e-8, 60),
        (_rosenbrock, [0.5, 0.7], ("log", "logit"), 1e-8, 10_000),
        (_rippled, [2.0, 2.0], ("identity", "identity"), 1e-9, 10_000),
        (_walled, [-1.0, -1.0], ("identity", "identity"), 1e-8, 10_000),
        (_walled, [0.0, 1.9], ("identity", "identity"), 1e-12, 10_000),
    ],
)
def test_simplex_matches_array_version(monkeypatch, objective, start, transforms, tol, max_iter):
    problem = OptimizationProblem(objective, start, parameter_transforms=transforms)
    res, runs = _run_both(
        monkeypatch,
        lambda: nelder_mead_minimize(problem, tol, max_iter, restarts=3, rng=RandomSource(5)),
    )
    assert len(runs) == 4
    assert math.isfinite(res.min_value)


def test_simplex_on_capped_gev_fit(monkeypatch):
    # the GEV density's simplex from its moment start on a small Yule
    # sample, one run capped at 2500 iterations: the search runs to the cap
    # without converging
    samp = random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 3000, RandomSource(4000))
    spec = distributions._SPECS[ModelId.GEV]
    x, c = samp.support, samp.counts
    loglik = _blocked_loglik(spec, x, c)

    def negll(theta):
        params = dict(zip(spec.names, theta))
        return math.inf if distributions._out_of_domain(spec, params) else -loglik(params)

    problem = OptimizationProblem(negll, _gev_init(x, c), [domain.transform for _, domain in spec.params])
    with np.errstate(all="ignore"):
        res, runs = _run_both(
            monkeypatch, lambda: nelder_mead_minimize(problem, tol=1e-6, max_iter=2500, restarts=0)
        )
    (u, f, iters, ok), _ = runs[0]
    assert len(runs) == 1 and iters == 2500 and not ok and not res.converged


def test_simplex_on_fit_with_restarts(monkeypatch):
    # mle_fit fits the GP on real samples by its profile Newton, so the
    # simplex is called directly, from the start it takes on integer samples
    samp = random_sample(
        ModelId.GENERALIZED_PARETO, {"k": 0.2, "sigma": 1.5, "theta": 0.5}, 400, RandomSource(8)
    )
    spec = distributions._SPECS[ModelId.GENERALIZED_PARETO]
    x, c = samp.support, samp.counts
    (params, _), runs = _run_both(
        monkeypatch,
        lambda: distributions._fit_by_simplex(spec, x, c, distributions._gp_init(x, c)),
    )
    assert len(runs) == 4
    assert math.isfinite(distributions.log_likelihood(ModelId.GENERALIZED_PARETO, params, samp)[0])


# -- the simplex objective ----------------------------------------------------
# The allocating GEV expression and the objective that built an array and
# looked up each transform on every evaluation, verbatim.

_TRANSFORMS = numerics._TRANSFORMS


def _ref_gev_formula(p, x):
    k, sigma, mu = p["k"], p["sigma"], p["mu"]
    z = (x - mu) / sigma
    if abs(k) < _EPS_K:
        return -math.log(sigma) - z - np.exp(-z)
    t = 1.0 + k * z
    return -math.log(sigma) - (1.0 + 1.0 / k) * np.log(t) - np.power(t, -1.0 / k)


def _ref_to_constrained(problem, u):
    return np.array(
        [_TRANSFORMS[t][0](ui) for t, ui in zip(problem.parameter_transforms, u)]
    )


def _ref_to_unconstrained(problem, theta):
    return np.array(
        [_TRANSFORMS[t][1](ti) for t, ti in zip(problem.parameter_transforms, theta)]
    )


def _ref_nelder_mead_minimize(problem, tol, max_iter, restarts, rng):
    gen = rng.generator

    def func(u: list[float]) -> float:
        val = problem.objective(_ref_to_constrained(problem, u))
        if not np.isfinite(val):
            return math.inf
        return float(val)

    u0 = _ref_to_unconstrained(
        problem, np.asarray(problem.initial_point, dtype=np.float64)
    ).tolist()
    f0 = func(u0)
    if not math.isfinite(f0):
        raise OptimizationInitError("objective non-finite at the initial point")

    best_u, best_f, total_iters, best_ok = numerics._simplex_run(func, u0, f0, tol, max_iter)
    used = 0
    for _ in range(restarts):
        used += 1
        jitter = gen.uniform(-1.0, 1.0, size=len(best_u))
        bu = np.array(best_u)
        start = (bu + jitter * (0.05 * np.abs(bu) + 0.05)).tolist()
        try:
            u, f, iters, ok = numerics._simplex_run(func, start, func(start), tol, max_iter)
        except OptimizationInitError:
            continue
        total_iters += iters
        if f < best_f:
            best_u, best_f, best_ok = u, f, ok

    return numerics.OptimizationResult(
        argmin=_ref_to_constrained(problem, best_u),
        min_value=best_f,
        iterations=total_iters,
        converged=best_ok,
        restarts_used=used,
    )


def _ref_blocked_loglik(spec, x, c):
    buf = np.empty_like(x)
    first, last = float(x[0]), float(x[-1])

    def loglik(params):
        with np.errstate(all="ignore"):
            if not (spec.in_support(params, first) and spec.in_support(params, last)):
                return _NEG_INF
            for lo in range(0, x.size, distributions._BLOCK):
                buf[lo : lo + distributions._BLOCK] = spec.log_formula(
                    params, x[lo : lo + distributions._BLOCK]
                )
        return distributions.weighted_sum(c, buf)

    return loglik


def _ref_fit_by_simplex(spec, x, c, guess):
    names = spec.names
    loglik = _ref_blocked_loglik(spec, x, c)

    def negll(theta):
        params = dict(zip(names, theta))
        return math.inf if distributions._out_of_domain(spec, params) else -loglik(params)

    problem = OptimizationProblem(
        objective=negll,
        initial_point=guess,
        parameter_transforms=[domain.transform for _, domain in spec.params],
    )
    res = _ref_nelder_mead_minimize(
        problem,
        tol=1e-8,
        max_iter=distributions._MAX_ITER,
        restarts=3,
        rng=RandomSource(0),
    )
    params = dict(zip(names, (float(v) for v in res.argmin)))
    return params, res.converged


def _fit_and_runs(fit, model, sample):
    """``fit(model, sample)``'s params and converged flag (and the
    total log-likelihood of an ``mle_fit``), or the error it raised, and the
    (iterations, converged) of each simplex run it made (None for a start
    with no finite vertex)."""
    runs = []

    def spy(func, u0, f0, tol, max_iter):
        try:
            out = _NEW_RUN(func, u0, f0, tol, max_iter)
        except OptimizationInitError:
            runs.append(None)
            raise
        runs.append(out[2:])
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_simplex_run", spy)
        try:
            got = fit(model, sample)
        except AdrankError as exc:
            return (type(exc), str(exc)), runs
    if isinstance(got, distributions.FittedModel):
        return (got.params, got.converged, got.total_loglik), runs
    return got, runs


_FIT_SAMPLES = [
    *(random_sample(ModelId.YULE_SIMON, {"p": 1.5}, 300, RandomSource(s)) for s in range(4000, 4006)),
    distributions.Sample.of(np.array([1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 7.0, 9.0]), True),
]
_CLOSED_FORM = [m for m in ModelId if distributions._SPECS[m].closed_fit is not None]


def _simplex_from_gev_init(model, sample):
    x, c = sample.support, sample.counts
    return distributions._fit_by_simplex(distributions._SPECS[model], x, c, _gev_init(x, c))


# "auto": the generalized Pareto's own fit, which reaches the simplex on
# these integer samples; "moment_start": the simplex from the GEV's moment
# start, ``_gev_init``; "optimizer": the simplex from the closed form
@pytest.mark.parametrize(
    "model, method",
    [(ModelId.GEV, "moment_start"), (ModelId.GENERALIZED_PARETO, "auto")]
    + [(m, "optimizer") for m in _CLOSED_FORM],
    ids=lambda v: getattr(v, "value", v),
)
def test_fits_match_the_array_building_objective(model, method):
    # the GEV runs to the iteration cap on these samples: 2500 keeps it short
    fits = {"auto": mle_fit, "moment_start": _simplex_from_gev_init, "optimizer": simplex_from_closed_form}
    fit = fits[method]
    spec = distributions._SPECS[model]
    simplex_runs = 0
    for sample in _FIT_SAMPLES:
        with mock.patch.object(distributions, "_MAX_ITER", 2500):
            got, runs = _fit_and_runs(fit, model, sample)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(distributions, "_fit_by_simplex", _ref_fit_by_simplex)
                if model is ModelId.GEV:
                    mp.setattr(spec, "log_formula", _ref_gev_formula)
                want, ref_runs = _fit_and_runs(fit, model, sample)
        assert got == want and runs == ref_runs, (sample.support, sample.counts)
        simplex_runs += len(runs)
    assert simplex_runs >= 4 * (len(_FIT_SAMPLES) - 1)


def test_gev_formula_matches_the_allocating_expression():
    gen = np.random.default_rng(41)
    x = np.concatenate(
        [gen.normal(0.0, 5.0, 500), gen.standard_cauchy(200), [0.0, -0.0, 1.0, 1e300, -1e300]]
    )
    tiny = [0.0, -0.0, 1e-13, -1e-13, math.nextafter(_EPS_K, 0.0), _EPS_K, -_EPS_K, 1e-300]
    ks = tiny + gen.normal(0.0, 1.0, 40).tolist() + (10.0 ** gen.uniform(-12, 1, 40)).tolist()
    for i, k in enumerate(ks):
        sigma = float(10.0 ** gen.uniform(-8.0, 8.0))
        mu = float(gen.normal(0.0, 10.0))
        # the optimizer passes numpy scalars, log_density Python floats
        for p in ({"k": k, "sigma": sigma, "mu": mu}, {"k": np.float64(k), "sigma": np.float64(sigma), "mu": np.float64(mu)}):
            with np.errstate(all="ignore"):
                got = distributions._gev_formula(p, x)
                want = _ref_gev_formula(p, x)
            assert _same_bits(got, want), p


# -- the damped Newton fits ---------------------------------------------------
# The GEV's Levenberg-Marquardt loop and the logistic's step-halving loop
# with its Cramer solve and whole-sample arrays, verbatim.


def _ref_gev_newton(x, c, max_iter):
    """Damped Newton on the log-likelihood in (k, sigma, mu), with the
    analytic gradient and Hessian (Prescott & Walden, Biometrika 1980).

    Each trial solves (-H + lam diag|H|) d = g from lam = 0; while the trial
    point leaves the support, has k <= -1/2, overflows or lowers the
    log-likelihood beyond its rounding, lam grows fourfold, and past
    ``_LM_CEILING`` the fit fails. Every trial counts against ``max_iter``.
    It converges on an undamped step of at most 1e-12 of each parameter
    (of max(|k|, ``_GEV_SERIES_K``) for k, of |mu| + sigma for mu) where -H
    is positive definite, and fails when such steps stop shrinking before
    that (rounding, not the optimum, then sets them), or at ``max_iter``.

    It starts from ``_gev_init``, the simplex's start point, or at k = 0,
    whose support is the line, where that start does not hold the sample.
    A failed fit returns None, which leaves the sample to the simplex; so
    does every integer sample, where the density likelihood has no interior
    maximum, as sigma collapses onto an atom.
    """
    if _is_integral(x):
        return None
    n = float(np.sum(c))
    theta = np.array(_gev_init(x, c), dtype=np.float64)
    with np.errstate(all="ignore"):
        cur = _gev_derivatives(x, c, n, *theta)
        if cur is None:
            theta[0] = 0.0
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
                        abs(d[0]) / max(abs(theta[0]), _GEV_SERIES_K),
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
                if k > _GEV_IRREGULAR_K and sigma > 0.0:
                    new = _gev_derivatives(x, c, n, k, sigma, mu)
            if new is None or not new[0] >= ll - 1e-12 * abs(ll):
                lam = _LM_GROWTH * lam if lam else _LM_FIRST
                if lam > _LM_CEILING:
                    return None
                continue
            theta, cur, lam = trial, new, 0.0
    return None


def _ref_logi_newton(x, c, max_iter):
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
    with np.errstate(all="ignore"):
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
                with np.errstate(all="ignore"):
                    new_ll = loglik(params(a + d_a, b + d_b))
                if new_ll >= ll - 1e-12 * abs(ll):
                    break
            d_a, d_b = 0.5 * d_a, 0.5 * d_b
        else:
            break
        a, b, ll = a + d_a, b + d_b, new_ll
    return params(a, b), False


def _newton_outcome(fit, sample, max_iter):
    """``fit``'s result, with overflow raising as under ``_fit_params``, or
    the type and message of the error it raised: where the sample variance
    underflows to 0, the logistic's start sigma0 is 0, and the reference
    raises ValueError after dividing by it, which warns."""
    try:
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            return fit(sample.support, sample.counts, max_iter)
    except (ValueError, FloatingPointError, AdrankError) as exc:
        return type(exc), str(exc)


def _check_newton_fits(sample, max_iter=10_000):
    """The GEV's fit has the reference's bits where the reference
    converges, and elsewhere, where the reference returns None (as it does
    on every integer sample), raises ``DegenerateSampleError``, ends
    unconverged, or converges with k > -1/2 from its later starts. The
    logistic's mu and sigma lie within 1e-14 of |mu| + sigma and of sigma of
    the reference's, which solved its 2x2 steps by Cramer's rule."""
    fits = (distributions._gev_newton, _ref_gev_newton)
    gev, ref_gev = (_newton_outcome(f, sample, max_iter) for f in fits)
    if ref_gev is None:
        assert gev[0] is DegenerateSampleError or gev[1] is False or gev[0]["k"] > _GEV_IRREGULAR_K
    else:
        assert gev[1] == ref_gev[1] and list(gev[0]) == list(ref_gev[0])
        assert _same_bits(list(gev[0].values()), list(ref_gev[0].values()))
    fits = (distributions._logi_newton, _ref_logi_newton)
    logi, ref_logi = (_newton_outcome(f, sample, max_iter) for f in fits)
    if isinstance(ref_logi[0], type):
        x, c = sample.support, sample.counts
        if ref_logi[0] is ValueError and _var(x, c) == 0.0:  # sigma0 = 0
            assert logi[0] is DegenerateSampleError
        else:
            assert logi == ref_logi
        return
    (mu, sigma), (ref_mu, ref_sigma) = logi[0].values(), ref_logi[0].values()
    assert logi[1] == ref_logi[1]
    assert abs(mu - ref_mu) <= 1e-14 * (abs(ref_mu) + ref_sigma)
    assert abs(sigma - ref_sigma) <= 1e-14 * ref_sigma


_newton_reals = (
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: distributions.Sample.of(np.asarray(v), False))
)
# integer samples with at least one tie, which the logistic's and the GEV's
# Newton fits take
_newton_counts = (
    st.lists(st.integers(0, 40), min_size=2, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: distributions.Sample.of(np.asarray(v + v[:1], dtype=np.float64), True))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sample=st.one_of(_newton_reals, _newton_counts))
def test_newton_fits_match_their_own_loops(sample):
    # the GEV's Newton runs to the cap on samples of a few distinct reals:
    # 1000 keeps those short
    _check_newton_fits(sample, max_iter=1000)


@pytest.mark.parametrize("seed", range(3))
def test_newton_fits_match_their_own_loops_over_blocks(seed):
    # more distinct values than one block, so every sum has several blocks
    gen = np.random.default_rng(5200 + seed)
    for values in (gen.normal(100.0, 15.0, 20_000), gen.gumbel(-3.0, 0.5, 20_000)):
        _check_newton_fits(distributions.Sample.of(values, False))


# ---------------------------------------------------------------------------
# the whole-sample fits, support check and readers, verbatim
# ---------------------------------------------------------------------------
# Before every sum over a sample took a ``_BLOCK`` of values at a time, these
# held arrays the size of the sample (ln x, x^2, x - theta and their powers,
# floor(x)), the whole counts file, np.unique's sorted copy of the values and
# a list of every key of a string table. Their docstrings are dropped.


def _ref_is_integral(x):
    return bool(np.all(x == np.floor(x)))


def _ref_var(x, c):
    return _mean((x - _mean(x, c)) ** 2, c)


def _ref_logn_fit(x, c):
    if x[0] <= 0.0:
        raise SupportError("log-normal requires positive observations")
    lx = np.log(x)
    s2 = _ref_var(lx, c)
    if s2 <= 0.0:
        raise DegenerateSampleError("log-normal needs positive variance of ln x")
    return {"mu": _mean(lx, c), "sigma2": s2}


def _ref_naka_newton(x, c, max_iter):  # x > 0: the support check has run
    # x^2 is gamma with shape mu and scale omega/mu
    n, x2 = float(np.sum(c)), x**2
    omega = weighted_sum(c, x2) / n
    if not omega > 0.0:  # every x^2 underflows
        raise DegenerateSampleError("nakagami needs observations whose squares are positive")
    v = _ref_var(x2, c)
    mu0 = max(omega**2 / v if v > 0 else 1.0, 0.1)  # the moment estimate
    s = math.log(omega) - 2.0 * weighted_sum(c, np.log(x)) / n
    mu, converged = _gamma_shape(ModelId.NAKAGAMI, s, mu0, max_iter)
    return {"mu": mu, "omega": omega}, converged


def _ref_wbl_newton(x, c, max_iter):
    n, lx = float(np.sum(c)), np.log(x)
    sd = math.sqrt(_ref_var(lx, c))
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


def _ref_gp_profile(y, c, n, y_max, u):
    tau = math.expm1(u) / y_max

    def terms(yb):
        ty = tau * yb
        ln1p = np.log1p(ty)
        q = yb / (1.0 + ty)
        return ln1p, q, q * q, _gp_gap(ty, ln1p, tau * q)

    s, a, b, gap = _block_sums(c, y, terms)
    k = s / n
    if k == 0.0:  # tau = 0, or so small that k rounds to 0
        m1, m2, m3 = a / n, b / n, weighted_sum(c, y**3) / n
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


def _ref_gp_newton(x, c, max_iter):
    if _ref_is_integral(x):
        return None
    n = float(np.sum(c))
    theta = float(x[0])
    y = x - theta
    y_max = float(y[-1])
    u, lo, hi = math.log(0.5), -math.inf, _GP_U_MAX
    lo_wall = hi_wall = True  # whether an end of the bracket excludes the maximum
    step, converged = 1.0, True
    with np.errstate(all="ignore"):
        # k >= ln(1/2) here, but tau overflows on a subnormal y_max
        cur = _ref_gp_profile(y, c, n, y_max, u)
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
            new = _ref_gp_profile(y, c, n, y_max, trial)
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


def _ref_check_fit_support(spec, sample):
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
    return sample.is_discrete or _ref_is_integral(sample.support)


def _ref_verify(doc_table, doc_len, term_table, offsets, post_doc, post_tf):
    try:
        term_table.decode("utf-8")
        ids = doc_table.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError("index string table is not valid UTF-8") from None
    # build_index's id rule, d.split() == [d] for every id: an empty id would
    # head the sorted ids, and whitespace would split the decoded table
    if ids[:1] in ("", "\0") or ids.split(None, 1) != [ids]:
        raise FormatError("a document id is empty or contains whitespace; re-run ingest")
    tables = (("document ids", doc_table, len(doc_len)), ("terms", term_table, len(offsets) - 1))
    for name, table, count in tables:
        keys = table.split(b"\0") if table else []
        if len(keys) != count:
            raise FormatError("index string tables do not match their counts")
        if any(map(operator.ge, keys, keys[1:])):  # UTF-8 byte order is code-point order
            raise FormatError(f"{name} are not sorted and unique")
    del keys
    if offsets[0] != 0 or offsets[-1] != len(post_doc) or np.any(np.diff(offsets) <= 0):
        raise FormatError("term offsets must rise from 0 to the posting count")
    N = len(doc_len)
    if np.any(post_doc >= N):
        raise FormatError("posting references unknown document")
    rising = post_doc[1:] > post_doc[:-1]
    rising[offsets[1:-1] - 1] = True  # a term's first posting may fall
    if not rising.all():
        raise FormatError("postings of a term are not strictly increasing")
    if np.any(post_tf < 1):
        raise FormatError("posting with zero term frequency")
    # each step's sums are exact integers in float64 below 2**53
    step = max(N, corpus._CHUNK)
    sums = np.zeros(N)
    for at in range(0, len(post_doc), step):
        sums += np.bincount(post_doc[at : at + step], weights=post_tf[at : at + step], minlength=N)
    if np.any(sums != doc_len):
        raise FormatError("document lengths do not match the postings")


def _ref_read_counts_file(path):
    counted = _ref_read_digit_lines(path)
    if counted is not None:
        return Sample(*counted, True)
    arr = corpus._load_counts_column(path)
    if arr is None:
        arr = corpus._read_counts_by_line(path)
    return Sample.of(arr, bool(np.all(arr == np.floor(arr))))


def _ref_read_digit_lines(path):
    data = Path(path).read_bytes()
    if not data.endswith(b"\n"):
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    counted = []  # per slice, its distinct values and their counts
    pos = 0
    while pos < raw.size:
        end = data.rfind(b"\n", pos, pos + corpus._DIGITS_CHUNK) + 1
        if end == 0:  # a line longer than a chunk
            return None
        digits = raw[pos:end] - np.uint8(ord("0"))  # a newline or any other byte is above 9
        ends = np.flatnonzero(raw[pos:end] == ord("\n"))
        lens = np.diff(ends, prepend=-1) - 1
        if np.count_nonzero(digits > 9) > ends.size or lens.min() < 1 or lens.max() > corpus._MAX_DIGITS:
            return None
        vals = digits[ends - 1].astype(np.float64)
        for place in range(1, int(lens.max())):
            longer = np.flatnonzero(lens > place)
            vals[longer] += digits[ends[longer] - 1 - place] * float(10**place)
        counted.append(np.unique(vals, return_counts=True))
        pos = end
    supports, counts = zip(*counted)
    support, at = np.unique(np.concatenate(supports), return_inverse=True)
    return support, np.bincount(at, weights=np.concatenate(counts))


def _hexed(outcome):
    """An outcome with every float, in dicts and tuples too, as its hex
    string, so that == compares bits."""
    if isinstance(outcome, float):
        return outcome.hex()
    if isinstance(outcome, dict):
        return {k: float(v).hex() for k, v in outcome.items()}
    if isinstance(outcome, tuple):
        return tuple(map(_hexed, outcome))
    return outcome


# (model, blocked fit, whole-sample reference), each called as (x, c, max_iter)
_BLOCKED_FITS = (
    (ModelId.WEIBULL, distributions._wbl_newton, _ref_wbl_newton),
    (ModelId.LOGNORMAL, lambda x, c, _: distributions._logn_fit(x, c), lambda x, c, _: _ref_logn_fit(x, c)),
    (ModelId.NAKAGAMI, distributions._naka_newton, _ref_naka_newton),
    (ModelId.GENERALIZED_PARETO, distributions._gp_newton, _ref_gp_newton),
    (None, lambda x, c, _: _var(x, c), lambda x, c, _: _ref_var(x, c)),
)


def _support_outcome(check, spec, sample):
    try:
        return check(spec, sample)
    except SupportError as exc:
        return str(exc)


def _check_blocked_fits(sample, max_iter=10_000):
    """Every model's support check, the four fits and the variance give the
    whole-sample references' bits, or the same error; the generalized
    Pareto's on real samples only, since ``mle_fit`` leaves integer samples
    to the simplex, where its reference returns None. Where a reference fit
    returns parameters with a finite total, ``mle_fit`` returns the same
    parameters and the total the reference's mle_fit summed."""
    x, c = sample.support, sample.counts
    n, theta = float(np.sum(c)), float(x[0])
    with np.errstate(all="ignore"):
        for u in (-1.0, 0.0, 0.5):  # u = 0 is tau = 0, the exponential limit
            new = distributions._gp_profile(x, c, n, theta, u)
            assert _hexed(new) == _hexed(_ref_gp_profile(x - theta, c, n, float(x[-1] - theta), u))
    for spec in _SPECS.values():
        checks = (distributions._check_fit_support, _ref_check_fit_support)
        new, ref = (_support_outcome(check, spec, sample) for check in checks)
        assert new == ref, spec.model
    for model, fit, ref_fit in _BLOCKED_FITS:
        if model is not None and isinstance(_support_outcome(_ref_check_fit_support, _SPECS[model], sample), str):
            continue  # mle_fit rejects the sample first
        if model is ModelId.GENERALIZED_PARETO and _is_integral(x):
            continue
        new, ref = (_newton_outcome(f, sample, max_iter) for f in (fit, ref_fit))
        assert _hexed(new) == _hexed(ref), model
        params = ref[0] if isinstance(ref, tuple) else ref
        if model is None or not isinstance(params, dict) or sample.n <= arity(model):
            continue
        total = _block_sums(c, x, lambda xb: (log_density(model, params, xb),))[0]
        if math.isfinite(total):
            with mock.patch.object(distributions, "_MAX_ITER", max_iter):
                fitted = mle_fit(model, sample)
            assert _hexed(fitted.params) == _hexed(params) and fitted.total_loglik.hex() == total.hex()


@st.composite
def _tied_reals(draw):
    """Reals with ties, shifted below 0 or not, scaled by 10^k, k in
    [-300, 300]: subnormal and overflowing squares included."""
    v = draw(st.lists(st.floats(0.0, 1e3), min_size=2, max_size=40))
    v += draw(st.lists(st.sampled_from(v), min_size=1, max_size=20))
    shift = draw(st.sampled_from([0.0, -500.0]))
    x = (np.asarray(v) + shift) * 10.0 ** draw(st.integers(-300, 300))
    assume(np.all(np.isfinite(x)) and np.unique(x).size >= 2)
    return distributions.Sample.of(x, False)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sample=st.one_of(_tied_reals(), _newton_reals, _newton_counts))
def test_blocked_fits_match_the_whole_sample_fits(sample):
    _check_blocked_fits(sample, max_iter=1000)


@pytest.mark.parametrize("seed", range(2))
def test_blocked_fits_match_the_whole_sample_fits_over_blocks(seed):
    # 2e4 to 4e4 values, so every sum and check has several blocks
    gen = np.random.default_rng(5300 + seed)
    reals = (
        gen.normal(100.0, 15.0, 20_000),
        np.round(gen.normal(100.0, 15.0, 40_000), 3),  # tied
        3.0 * gen.weibull(1.5, 20_000),
        gen.exponential(2.0, 20_000),
    )
    for values in reals:
        _check_blocked_fits(distributions.Sample.of(values, False))
    counts = gen.integers(1, 60_000, 40_000).astype(np.float64)
    for is_discrete in (True, False):
        _check_blocked_fits(distributions.Sample.of(counts, is_discrete))
    # integers through the first block, then reals
    _check_blocked_fits(distributions.Sample.of(np.concatenate([counts, gen.normal(1e5, 10.0, 100)]), False))


@pytest.fixture(scope="module")
def counts_path(tmp_path_factory):
    return tmp_path_factory.mktemp("counts") / "counts.txt"


def _reading(read, path):
    try:
        sample = read(path)
    except AdrankError as exc:
        return type(exc), str(exc)
    return sample.support.tobytes(), sample.counts.tobytes(), sample.is_discrete, sample.n


def _check_same_reading(path, text):
    """The streaming readers give the whole-file readers' bytes, or the
    same error."""
    path.write_text(text)
    assert _reading(corpus.read_counts_file, path) == _reading(_ref_read_counts_file, path)
    new, ref = corpus._read_digit_lines(path), _ref_read_digit_lines(path)
    assert (new is None) == (ref is None)
    if ref is not None:
        assert [a.tobytes() for a in new] == [a.tobytes() for a in ref]


_count_tokens = {
    "digits": st.one_of(st.integers(0, 99), st.integers(0, 10**15 - 1)).map(str),
    "reals": st.one_of(st.floats(0.0, 1e6).map(repr), st.sampled_from(["0.0", "-0.0", "2.5", "1e3"])),
    "odd": st.sampled_from(["", " 3 ", "007", "-1", "nan", "inf", "x", "1,2", "10000000000000000"]),
}


@st.composite
def _counts_texts(draw):
    """Files of digit lines, of reals (with both zeros) or of a mix with odd
    lines, with ties, with or without a last newline."""
    kind = draw(st.sampled_from(["digits", "reals", "mixed"]))
    token = st.one_of(*_count_tokens.values()) if kind == "mixed" else _count_tokens[kind]
    lines = draw(st.lists(token, max_size=30))
    if lines:
        lines += draw(st.lists(st.sampled_from(lines), max_size=10))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


@pytest.mark.parametrize("chunk", [5, 16, 1 << 16])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=_counts_texts())
@example(text="")
@example(text="3\n1\n3\n")
@example(text="3\n1\n3")
@example(text="0.0\n-0.0\n0.0\n")
@example(text="12345678901234\n2\n")
def test_streaming_reader_matches_the_whole_file_reader(counts_path, chunk, text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_DIGITS_CHUNK", chunk)
        _check_same_reading(counts_path, text)


def test_streaming_reader_matches_the_whole_file_reader_over_blocks(counts_path):
    # several _BLOCKs of values, and a digit file of many chunks
    gen = np.random.default_rng(5400)
    reals = gen.normal(100.0, 15.0, 30_000)
    counts = gen.geometric(0.001, 300_000)
    for text in (
        "".join(f"{v!r}\n" for v in reals.tolist()),
        "".join(f"{v!r}\n" for v in np.round(reals, 2).tolist()),  # tied
        "".join(f"{v}\n" for v in counts.tolist()),
        "".join(f"{v}\n" for v in counts.tolist()).rstrip("\n"),  # no last newline
    ):
        _check_same_reading(counts_path, text)


def _index_arrays(n_docs, n_terms):
    """Arrays that pass every check after the tables': each term one posting
    of frequency 1 in the first document."""
    doc_len = np.zeros(n_docs, dtype=np.int64)
    if n_docs:
        doc_len[0] = n_terms
    offsets = np.arange(n_terms + 1, dtype=np.int64)
    return doc_len, offsets, np.zeros(n_terms, dtype=np.uint32), np.ones(n_terms, dtype=np.uint32)


_clean_keys = st.sampled_from([b"a", b"b", b"c", b"\xc3\xa9"])
_dirty_keys = st.sampled_from([b"a", b"\xc3\xa9", b" ", b"\xc2\xa0", b"\xff", b"\xc3", b"\0"])


@st.composite
def _string_tables(draw):
    """(table, count): keys of a few letters, sorted and unique or not,
    with whitespace, bytes that are not UTF-8 and empty keys in some, a
    trailing NUL or not, and a count that is the key count or one off."""
    keys = draw(st.lists(st.lists(draw(st.sampled_from([_clean_keys, _dirty_keys])), max_size=4).map(b"".join), max_size=8))
    if draw(st.booleans()):
        keys = sorted(set(keys))
    table = b"\0".join(keys) + draw(st.sampled_from([b"", b"\0"]))
    count = len(table.split(b"\0")) if table else 0
    return table, max(count + draw(st.sampled_from([0, 0, 1, -1])), 0)


@pytest.mark.parametrize("chunk", [1, 3, 8])
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ids=_string_tables(), terms=_string_tables())
@example(ids=(b"", 0), terms=(b"", 0))
@example(ids=(b"d1\0d2", 2), terms=(b"", 0))
@example(ids=(b"d1\0d2", 2), terms=(b"a\0", 2))  # an empty last term
@example(ids=(b"\0d1", 2), terms=(b"a", 1))  # an empty first id
@example(ids=(b"d1\0d2", 2), terms=(b"abcdefgh\0b", 2))  # a key longer than a piece
def test_sliced_table_checks_match_the_whole_table_checks(chunk, ids, terms):
    doc_len, offsets, post_doc, post_tf = _index_arrays(ids[1], terms[1])
    outcomes = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_DIGITS_CHUNK", chunk)
        for verify in (corpus._verify, _ref_verify):
            try:
                outcomes.append(verify(ids[0], doc_len, terms[0], offsets, post_doc, post_tf))
            except FormatError as exc:
                outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# the regex tokenizer and the dense-id index build, verbatim
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    return _TOKEN_RE.findall(text.lower())


def build_index(documents) -> InvertedIndex:
    """Build the index from an iterable of (doc_id, text) pairs."""
    vocab: dict[str, int] = {}  # term -> id, in order of first occurrence
    doc_ids: list[str] = []
    lengths: list[int] = []
    token_ids = array.array("q")
    for doc_id, text in documents:
        ids = [vocab.setdefault(tok, len(vocab)) for tok in tokenize(text)]
        token_ids.extend(ids)
        doc_ids.append(doc_id)
        lengths.append(len(ids))
    if not doc_ids:
        raise IngestError("empty corpus: at least one document is required")
    # positions are ranks in sorted order, so the arrays do not depend on
    # the order documents arrive in
    doc_order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    doc_ids = [doc_ids[i] for i in doc_order]
    for a, b in zip(doc_ids, doc_ids[1:]):
        if a == b:
            raise IngestError(f"duplicate document id {a!r}")
    if any("\0" in d for d in doc_ids):
        raise IngestError("document ids may not contain NUL characters")
    seen = list(vocab)
    term_order = sorted(range(len(seen)), key=seen.__getitem__)
    N, V = len(doc_ids), len(seen)
    doc_pos = np.empty(N, dtype=np.int64)
    doc_pos[doc_order] = np.arange(N)
    term_pos = np.empty(V, dtype=np.int64)
    term_pos[term_order] = np.arange(V)
    # one key per token, ordered by (term position, document position)
    keys = term_pos[np.frombuffer(token_ids, dtype=np.int64)] * N
    keys += np.repeat(doc_pos, lengths)
    keys, post_tf = np.unique(keys, return_counts=True)
    offsets = np.zeros(V + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // N, minlength=V), out=offsets[1:])
    return InvertedIndex(
        "\0".join(doc_ids).encode("utf-8"),
        np.asarray(lengths, dtype=np.int64)[doc_order],
        "\0".join(seen[i] for i in term_order).encode("utf-8"),
        offsets,
        (keys % N).astype(np.uint32),
        post_tf.astype(np.uint32),
    )


# characters where lowercasing, the ASCII split or Python's whitespace
# differ: lone surrogates, NUL, NEL and NBSP, dotted capital I (lowercases
# to "i" plus a combining dot), the Kelvin sign (to "k"), sharp s and its
# capital, combining marks, a ligature, non-ASCII digits and letters
_SPECIAL = (
    "\ud800", "\udfff", "\0", "\x85", "\xa0", "\u0130", "\u212a", "\xdf", "\u1e9e",
    "\u0301", "\u0307", "\ufb01", "\u0663", "\u216b", "\xe9", "\u6771", "\u03a3",
)  # fmt: skip
_pieces = st.one_of(
    st.sampled_from(_SPECIAL),
    st.text(alphabet="aZ09_-' \t\n", max_size=4),
    st.text(max_size=3),
)
_texts = st.one_of(st.text(), st.lists(_pieces, max_size=16).map("".join))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text=_texts)
def test_tokens_match_the_regex(text):
    assert corpus.tokenize(text) == tokenize(text)


@pytest.mark.parametrize("char", _SPECIAL)
def test_special_characters_split_like_the_regex(char):
    for text in (char, f"ab{char}cd", f"X{char}9 {char}{char}k"):
        assert corpus.tokenize(text) == tokenize(text)


_corpus_ids = st.text(max_size=6).filter(lambda s: s.split() == [s] and "\0" not in s)
_corpus_texts = st.one_of(
    st.lists(st.sampled_from(["a", "b", "cc", "d9", "THE", "Stra\xdfe", "\u212aelvin"]), max_size=12)
    .map(" ".join),
    _texts,
)


@pytest.fixture(scope="module")
def index_paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("reference-index")
    names = itertools.count()
    return lambda: (root / f"{next(names)}.new", root / f"{next(names)}.ref")


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(docs=st.dictionaries(_corpus_ids, _corpus_texts, min_size=1, max_size=10))
def test_index_bytes_match_the_dense_id_build(index_paths, docs):
    new, ref = index_paths()
    save_index(corpus.build_index(docs.items()), new)
    save_index(build_index(docs.items()), ref)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize(
    "docs",
    [
        {"d1": "!!!", "d2": "", "d3": "- --"},
        {"a": "x y", "b": "", "c": "...", "d": "y z y", "e": ""},
        {"only": "word"},
        # term position * N + document position reaches 70 000**2 > 2**32,
        # which no key narrower than int64 holds
        {f"d{i:05d}": f"t{i:05d}" for i in range(70_000)},
    ],
    ids=["no-terms", "empty-between", "single-token", "keys-past-2**32"],
)
def test_index_bytes_match_on_edge_corpora(index_paths, docs):
    new, ref = index_paths()
    index = corpus.build_index(docs.items())
    save_index(index, new)
    save_index(build_index(docs.items()), ref)
    assert new.read_bytes() == ref.read_bytes()
    assert index.f_tc.dtype == corpus.load_index(new).f_tc.dtype == np.int64


def _ref_build_index(documents) -> InvertedIndex:
    """Build the index from an iterable of (doc_id, text) pairs.

    Beside the vocabulary and the documents' ids, then their encoded
    tables, the working set stays under about 17 bytes a token: the term id
    list, then int32 ids with the int64 sort keys, then the keys with their
    run boundaries and distinct values.
    """
    vocab = collections.defaultdict(itertools.count().__next__)  # term -> first-seen id
    doc_ids: list[str] = []
    lengths: list[int] = []
    ids = []  # per token, its term's first-seen id
    for doc_id, text in documents:
        tokens = corpus.tokenize(text)
        ids += map(vocab.__getitem__, tokens)
        doc_ids.append(doc_id)
        lengths.append(len(tokens))
    if not doc_ids:
        raise IngestError("empty corpus: at least one document is required")
    # positions are ranks in sorted order, so the arrays do not depend on
    # the order documents arrive in
    doc_order = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    doc_ids = [doc_ids[i] for i in doc_order]
    for a, b in zip(doc_ids, doc_ids[1:]):
        if a == b:
            raise IngestError(f"duplicate document id {a!r}")
    if any("\0" in d for d in doc_ids):
        raise IngestError("document ids may not contain NUL characters")
    for d in doc_ids:
        if d.split() != [d]:  # a run file separates its fields by whitespace
            raise IngestError(f"document id {d!r} is empty or contains whitespace")
    try:
        doc_table = "\0".join(doc_ids).encode("utf-8")
    except UnicodeEncodeError as e:  # a lone surrogate, as from an undecodable file name
        d = doc_ids[e.object.count("\0", 0, e.start)]
        raise IngestError(f"document id {d!r} cannot be encoded as UTF-8") from None
    terms = sorted(vocab)
    term_table = "\0".join(terms).encode("utf-8")
    N, V, n_tokens = len(doc_ids), len(terms), len(ids)
    doc_pos = np.empty(N, dtype=np.int32)
    doc_pos[doc_order] = np.arange(N)
    term_pos = np.empty(V, dtype=np.int64)  # sorted position by first-seen id
    term_pos[np.fromiter(map(vocab.__getitem__, terms), np.int64, V)] = np.arange(V)
    del vocab, terms, doc_ids  # the tables hold every string from here on
    ids = np.array(ids, dtype=np.int32)
    # one int64 key per token, term position * N + document position; V * N
    # may pass 2**31
    keys = term_pos[ids]
    del ids
    keys *= N
    keys += np.repeat(doc_pos, lengths)
    keys.sort()
    # a posting per run of equal keys; its tf is the run's length
    first = np.empty(n_tokens, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    uniq = keys[first]
    del keys
    starts = np.flatnonzero(first)
    del first
    post_tf = np.empty(len(uniq), dtype=np.uint32)
    np.subtract(starts[1:], starts[:-1], out=post_tf[:-1], casting="unsafe")
    post_tf[-1:] = n_tokens - starts[-1:]
    del starts
    post_doc = np.empty(len(uniq), dtype=np.uint32)
    np.remainder(uniq, N, out=post_doc, casting="unsafe")
    return InvertedIndex(
        doc_table,
        np.asarray(lengths, dtype=np.int64)[doc_order],
        term_table,
        np.searchsorted(uniq, np.arange(V + 1, dtype=np.int64) * N),
        post_doc,
        post_tf,
    )


def _check_same_build(docs, paths):
    """The one-buffer build and the whole-array build give the same arrays,
    dtypes and all, and the same file bytes."""
    new, ref = corpus.build_index(docs), _ref_build_index(docs)
    assert new.stats == ref.stats
    for name in ("doc_table", "term_table", "doc_len", "offsets", "post_doc", "post_tf", "f_tc"):
        a, b = getattr(new, name), getattr(ref, name)
        assert getattr(a, "dtype", None) == getattr(b, "dtype", None), name
        assert memoryview(a).tobytes() == memoryview(b).tobytes(), name
    new_path, ref_path = paths()
    save_index(new, new_path)
    save_index(ref, ref_path)
    assert new_path.read_bytes() == ref_path.read_bytes()


# few distinct words, so terms repeat within and across documents; with
# blocks of 1, 3 or 7 tokens, runs and documents span blocks
_block_docs = st.lists(
    st.tuples(_corpus_ids, st.lists(st.sampled_from(["a", "b", "cc", "d9", ""]), max_size=12).map(" ".join)),
    min_size=1,
    max_size=8,
    unique_by=lambda doc: doc[0],
)


@pytest.mark.parametrize("chunk", [1, 3, 7])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(docs=_block_docs)
@example(docs=[("only", "a")])
@example(docs=[("x", ""), ("y", "")])
@example(docs=[("e1", ""), ("one", "a a a a a a a a a"), ("e2", ""), ("two", "b a b a")])
def test_one_buffer_build_matches_the_whole_array_build(index_paths, chunk, docs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_CHUNK", chunk)
        _check_same_build(docs, index_paths)


def test_one_buffer_build_matches_past_2_31(index_paths):
    # 50 000 one-token documents over 50 000 terms: V * N = 2.5e9 > 2**31
    docs = [(f"d{i:05d}", f"t{(i * 7919) % 50_000:05d}") for i in range(50_000)]
    _check_same_build(docs, index_paths)


# ---------------------------------------------------------------------------
# the per-entry metrics, their qrels and the line-by-line run reader, verbatim
# but for a plain doc-id list in place of the per-entry objects
# ---------------------------------------------------------------------------


class RefQrels:
    def __init__(self, grades):
        self.grades = grades
        self._by_query = {}
        for (qid, doc_id), g in self.grades.items():
            self._by_query.setdefault(qid, {})[doc_id] = g
        self.max_grade = max(self.grades.values(), default=0)

    def _judged(self, qid):
        return self._by_query.get(qid, {})

    def grade(self, qid, doc_id):
        return self._judged(qid).get(doc_id)

    def relevant(self, qid):
        return {d for d, g in self._judged(qid).items() if g > 0}

    def nonrelevant(self, qid):
        return {d for d, g in self._judged(qid).items() if g == 0}


def ref_average_precision(qid, docs, qrels, depth=1000):
    rel = qrels.relevant(qid)
    if not rel:
        return 0.0
    hits = 0
    total = 0.0
    for i, doc_id in enumerate(docs[:depth], 1):
        if doc_id in rel:
            hits += 1
            total += hits / i
    return total / len(rel)


def _ref_dcg(grades):
    return sum((2.0**g - 1.0) / math.log2(i + 1.0) for i, g in enumerate(grades, 1))


def ref_ndcg(qid, docs, qrels, cutoff=None):
    judged = qrels._judged(qid)
    ideal = sorted(judged.values(), reverse=True)
    if cutoff is not None:
        ideal = ideal[:cutoff]
    idcg = _ref_dcg(ideal)
    if idcg == 0.0:
        return 0.0
    entries = docs if cutoff is None else docs[:cutoff]
    got = [judged.get(doc_id, 0) for doc_id in entries]
    return _ref_dcg(got) / idcg


def ref_bpref(qid, docs, qrels):
    rel = qrels.relevant(qid)
    nonrel = qrels.nonrelevant(qid)
    if not rel:
        return 0.0
    R, Nn = len(rel), len(nonrel)
    denom = min(R, Nn)
    total = 0.0
    nonrel_above = 0
    for doc_id in docs:
        if doc_id in nonrel:
            nonrel_above += 1
        elif doc_id in rel:
            penalty = min(nonrel_above, R) / denom if denom > 0 else 0.0
            total += 1.0 - penalty
    return total / R


def ref_err_at_k(qid, docs, qrels, k=20):
    if qrels.max_grade < 1:
        return 0.0
    norm = 2.0**qrels.max_grade
    err = 0.0
    keep_going = 1.0
    for i, doc_id in enumerate(docs[:k], 1):
        g = qrels.grade(qid, doc_id) or 0
        r = (2.0**g - 1.0) / norm
        err += keep_going * r / i
        keep_going *= 1.0 - r
    return err


def ref_precision_at(qid, docs, qrels, k=10):
    rel = qrels.relevant(qid)
    if not docs:
        return 0.0
    hits = sum(1 for doc_id in docs[:k] if doc_id in rel)
    return hits / k


REF_METRICS = {
    "map": lambda q, d, qr: ref_average_precision(q, d, qr),
    "p10": lambda q, d, qr: ref_precision_at(q, d, qr, 10),
    "ndcg": lambda q, d, qr: ref_ndcg(q, d, qr),
    "ndcg10": lambda q, d, qr: ref_ndcg(q, d, qr, 10),
    "bpref": ref_bpref,
    "err20": lambda q, d, qr: ref_err_at_k(q, d, qr, 20),
}


def ref_parse_run(text):
    rows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 6:
            raise FormatError(f"run line {lineno}: expected 6 fields")
        qid, _, doc_id, pos, score, _tag = parts
        try:
            rows.setdefault(qid, []).append((int(pos), doc_id, float(score)))
        except ValueError:
            raise FormatError(f"run line {lineno}: bad rank or score") from None
    if not rows:
        raise FormatError("empty run")
    out = []
    for qid in sorted(rows):
        entries = sorted(rows[qid], key=lambda t: t[0])
        out.append((qid, [t[1] for t in entries], [t[2] for t in entries]))
    return out


_POOL = [f"d{i}" for i in range(12)]
_qrels = st.dictionaries(
    st.tuples(st.sampled_from(["q0", "q1", "q2"]), st.sampled_from(_POOL[:9])),
    st.integers(0, 4),
    min_size=1,
    max_size=24,
)
# doc ids may repeat, as a list built through the API may hold them twice
_runs = st.lists(
    st.tuples(st.sampled_from(["q0", "q1", "q2", "q3"]), st.lists(st.sampled_from(_POOL), max_size=40)),
    min_size=1,
    max_size=4,
)


def _ranked(qid, docs):
    return evaluation.RankedList(qid, docs, np.arange(len(docs), 0, -1, dtype=np.float64))


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(grades=_qrels, runs=_runs, cut=st.integers(-3, 45))
@example(grades={("q0", "d0"): 0}, runs=[("q0", ["d0"])], cut=0)
@example(grades={("q0", "d0"): 2, ("q0", "d1"): 0}, runs=[("q0", [])], cut=1)
# longer than the discount table, which then computes the rest
@example(grades={("q0", "d0"): 1, ("q0", "d5"): 3, ("q0", "d1"): 0}, runs=[("q0", _POOL * 125)], cut=1200)
def test_metrics_equal_the_per_entry_reference(grades, runs, cut):
    qrels, ref = evaluation.Qrels(dict(grades)), RefQrels(dict(grades))
    for qid, docs in runs:
        rl = _ranked(qid, docs)
        assert evaluation.average_precision(rl, qrels, cut) == ref_average_precision(qid, docs, ref, cut)
        assert evaluation.ndcg(rl, qrels, cut) == ref_ndcg(qid, docs, ref, cut)
        assert evaluation.ndcg(rl, qrels) == ref_ndcg(qid, docs, ref)
        assert evaluation.bpref(rl, qrels) == ref_bpref(qid, docs, ref)
        assert evaluation.err_at_k(rl, qrels, cut) == ref_err_at_k(qid, docs, ref, cut)
        if cut or not docs:
            assert evaluation.precision_at(rl, qrels, cut) == ref_precision_at(qid, docs, ref, cut)
    lists = [_ranked(qid, docs) for qid, docs in runs]
    if {qid for qid, _ in runs} & qrels.query_ids():
        got = evaluation.evaluate_run(lists, qrels).per_query
        want = {m: {} for m in REF_METRICS}
        for qid, docs in runs:
            if qid in qrels.query_ids():
                for m, fn in REF_METRICS.items():
                    want[m][qid] = fn(qid, docs, ref)
        assert got == want


_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028"]
_SEPARATORS = [" ", "\t", "  ", "\xa0", " \t "]
_field = {
    "qid": st.sampled_from(["q1", "q2", "q10"]),
    "q0": st.sampled_from(["Q0", "0"]),
    "doc": st.sampled_from([f"d{i}" for i in range(25)]),
    "rank": st.one_of(
        st.integers(-3, 40).map(str),
        st.sampled_from(["+3", "03", "1_0", "\u0663", "1.5", "x", "99999999999999999999"]),
    ),
    "score": st.one_of(
        st.floats(allow_nan=True, allow_infinity=True).map(repr),
        st.sampled_from(["1e3", "-0", "nan", "-inf", "1_0.5", "abc", "0x1"]),
    ),
    "tag": st.sampled_from(["t", "run"]),
}
_valid_line = st.tuples(
    _field["qid"], _field["q0"], _field["doc"], st.integers(-3, 40).map(str),
    st.floats(allow_nan=False).map(repr), _field["tag"],
).map(list)  # fmt: skip
_run_line = st.one_of(
    _valid_line,
    st.tuples(*_field.values()).map(list),
    st.lists(st.sampled_from(["q1", "Q0", "d1", "1", "2.0", "t"]), max_size=8),
)


@st.composite
def _run_texts(draw):
    # half the texts are all well-formed lines, so that many parse
    lines = draw(st.lists(draw(st.sampled_from([_valid_line, _run_line])), max_size=12))
    text = ""
    for fields in lines:
        text += draw(st.sampled_from(["", " "])) + draw(st.sampled_from(_SEPARATORS)).join(fields)
        text += draw(st.sampled_from(_LINE_BREAKS))
    return text


def _outcome(parse, text):
    try:
        lists = parse(text)
    except FormatError as exc:
        return str(exc)
    return [(q, d, [x.hex() for x in s]) for q, d, s in lists]


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text=_run_texts())
@example(text="q1 Q0 a 1 3.0 t\nq1 Q0 a 2 2.0 t\n")
@example(text="q1 Q0 a 2 1.0 t\n\nq1 Q0 b 2 1.5 t\nq0 Q0 a 1 0.5 t\n")
def test_run_reader_equals_the_line_reference(text):
    got = _outcome(
        lambda t: [(rl.query_id, rl.doc_ids, rl.scores.tolist()) for rl in evaluation.parse_run(t)],
        text,
    )
    want = _outcome(ref_parse_run, text)
    twice = re.fullmatch(r"run line (\d+): document '(.*)' listed twice for query '(.*)'", str(got))
    if twice is None:
        assert got == want
        assert isinstance(want, str) or all(len(set(d)) == len(d) for _, d, _ in want)
        return
    # the one new rejection: that line repeats an earlier line's (query, doc)
    # pair, and the reference accepted every line up to it
    lineno, doc_id, qid = int(twice[1]), twice[2], twice[3]
    rows = [line.split() for line in text.splitlines()]
    assert [rows[lineno - 1][0], rows[lineno - 1][2]] == [qid, doc_id]
    assert any(r and r[0] == qid and r[2] == doc_id for r in rows[: lineno - 1])
    bad = re.match(r"run line (\d+):", str(want))
    assert bad is None or int(bad[1]) > lineno


def ref_parse_qrels(text):
    grades = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 4:
            raise FormatError(f"qrels line {lineno}: expected 4 fields")
        qid, _, doc_id, grade = parts
        try:
            g = int(grade)
        except ValueError:
            raise FormatError(f"qrels line {lineno}: bad grade {grade!r}") from None
        if not 0 <= g <= evaluation.MAX_GRADE:
            raise FormatError(f"qrels line {lineno}: grade {grade!r} outside 0..{evaluation.MAX_GRADE}")
        grades[(qid, doc_id)] = g
    if not grades:
        raise FormatError("empty qrels")
    return evaluation.Qrels(grades=grades)


_grade = st.one_of(
    st.integers(-2, 1030).map(str),
    st.sampled_from(["+3", "03", "1_0", "\u0663", "1.5", "x", "1023", "1024", "99999999999999999999"]),
)
_valid_qrels_line = st.tuples(
    _field["qid"], st.just("0"), st.sampled_from([f"d{i}" for i in range(6)]), st.integers(0, 4).map(str)
).map(list)
_qrels_line = st.one_of(
    _valid_qrels_line,
    st.tuples(_field["qid"], _field["q0"], _field["doc"], _grade).map(list),
    st.lists(st.sampled_from(["q1", "0", "d1", "1", "2"]), max_size=6),
)


@st.composite
def _qrels_texts(draw):
    # half the texts are all well-formed lines, with repeated pairs
    lines = draw(st.lists(draw(st.sampled_from([_valid_qrels_line, _qrels_line])), max_size=12))
    text = ""
    for fields in lines:
        text += draw(st.sampled_from(["", " "])) + draw(st.sampled_from(_SEPARATORS)).join(fields)
        text += draw(st.sampled_from(_LINE_BREAKS))
    return text


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(text=_qrels_texts())
@example(text="q1 0 a 1\nq1 0 b 2\nq1 0 a 0\n")
@example(text="q1 0 a 1\nq1 0 b -1\nq1 0 c x\n")
def test_qrels_reader_equals_the_line_reference(text):
    def outcome(parse):
        try:
            return dict(parse(text).grades)
        except FormatError as exc:
            return str(exc)

    assert outcome(evaluation.parse_qrels) == outcome(ref_parse_qrels)


# ---------------------------------------------------------------------------
# the tuning loop that keeps every grid value's ranked lists and scores the
# held-out ones with evaluate_run, verbatim
# ---------------------------------------------------------------------------


def ref_cv_tune(queries, qrels, index, config_factory, grid, folds=3, objective="map", k=1000):
    if objective not in evaluation._METRIC_FNS:
        raise UsageError(f"unknown objective {objective!r}")
    if not grid:
        raise UsageError("empty grid")
    if folds < 2:
        raise UsageError("need at least two folds")
    queries = sorted(queries, key=lambda q: q.query_id)
    for a, b in zip(queries, queries[1:]):
        if a.query_id == b.query_id:
            raise UsageError(f"query id {a.query_id!r} repeated")
    if len(queries) < folds:
        raise UsageError("need at least one query per fold")
    fold_of = {q.query_id: i * folds // len(queries) for i, q in enumerate(queries)}

    # rank every query once per grid value and score its objective once
    per_value = {}
    objective_of = {}
    for value in grid:
        config = config_factory(value)
        lists = per_value[value] = {q.query_id: ranking.rank(q, index, config, k) for q in queries}
        objective_of[value] = {
            qid: evaluation._METRIC_FNS[objective](*qrels._graded(rl)) for qid, rl in lists.items()
        }

    fold_results = []
    held_out = {m: {} for m in evaluation.METRICS}  # in fold order
    for f in range(folds):
        train = [q.query_id for q in queries if fold_of[q.query_id] != f]
        test = [q.query_id for q in queries if fold_of[q.query_id] == f]
        best_value = None
        best_score = -math.inf
        for value in grid:  # grid order; first (smallest) wins ties
            s = sum(objective_of[value][qid] for qid in train) / len(train)
            if s > best_score:
                best_value, best_score = value, s
        report = evaluation.evaluate_run([per_value[best_value][qid] for qid in test], qrels)
        fold_results.append({"fold": f, "best": best_value, "test_mean": report.mean})
        for m, values in report.per_query.items():
            held_out[m].update(values)
    return fold_results, {m: sum(v.values()) / len(v) for m, v in held_out.items()}


def _tuning_outcome(tune, *args, **kwargs):
    """Fold winners, held-out means and the mean over folds, with key order
    and float bits; or the UsageError message."""
    try:
        folds, mean = tune(*args, **kwargs)
    except UsageError as exc:
        return str(exc)
    bits = lambda means: [(m, v.hex()) for m, v in means.items()]
    return [(fr["fold"], fr["best"], bits(fr["test_mean"])) for fr in folds], bits(mean)


def _random_tuning_corpus(seed):
    """Forty documents of 5-60 words over eight terms, ten queries of one to
    three terms, and graded judgments for all but the last query."""
    gen = np.random.default_rng(seed)
    words = [f"t{i}" for i in range(8)]
    docs = [(f"d{i:02d}", " ".join(gen.choice(words, gen.integers(5, 61)))) for i in range(40)]
    index = corpus.build_index(docs)
    queries = [
        corpus.QueryRecord(f"q{i}", list(gen.choice(words, gen.integers(1, 4), replace=False)), "")
        for i in range(10)
    ]
    grades = {
        (q.query_id, f"d{d:02d}"): int(gen.integers(0, 4))
        for q in queries[:-1]
        for d in gen.choice(40, 15, replace=False)
    }
    return index, queries, evaluation.Qrels(grades)


@pytest.mark.parametrize("objective", evaluation.METRICS)
def test_cv_tune_equals_the_list_keeping_reference_on_the_crossover_corpus(objective):
    index, queries, grades, factory = build_crossover_corpus()
    qrels = evaluation.Qrels(grades)
    grid = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0]
    want = _tuning_outcome(ref_cv_tune, queries, qrels, index, factory, grid, 3, objective)
    assert _tuning_outcome(evaluation.cv_tune, queries, qrels, index, factory, grid, 3, objective) == want


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("objective", evaluation.METRICS)
def test_cv_tune_equals_the_list_keeping_reference_on_random_corpora(seed, objective):
    index, queries, qrels = _random_tuning_corpus(seed)
    pl2 = lambda c: ranking.parse_model_spec("PL2-Tdc", c=c)
    constant = lambda c: pl2(1.0)  # every grid value ties
    cases = [
        (pl2, [2.0, 0.5, 2.0, 8.0], 3, 1000),  # a repeated value ties with itself
        (pl2, [0.25, 1.0, 4.0], 4, 5),
        (constant, [3.0, 1.0, 2.0], 2, 1000),
        (pl2, [1.0], 10, 1000),  # the last fold holds only the unjudged query
    ]
    for factory, grid, folds, k in cases:
        args = (queries, qrels, index, factory, grid, folds, objective, k)
        got, want = _tuning_outcome(evaluation.cv_tune, *args), _tuning_outcome(ref_cv_tune, *args)
        assert got == want
        assert isinstance(want, tuple) or folds == 10
    assert want == "run and qrels share no query ids"
