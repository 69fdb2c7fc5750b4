"""Graphical-method data series, log-domain OLS exponent estimation and
random subsampling.

The three series builders correspond to the classic ways of eyeballing a
power law: the normalized raw histogram, the empirical complementary CDF
(closed at x, so y(min) = 1) and the logarithmically binned histogram
with width normalization. ``loglog_exponent_estimate`` turns any of them
into an exponent via least squares on the log-log points, applying the
known +1 correction for complementary-CDF series by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import Sample
from .errors import DomainError, SupportError, UsageError
from .numerics import RandomSource

__all__ = [
    "HistogramSeries",
    "OlsFit",
    "raw_histogram",
    "eccdf",
    "check_base",
    "log_binned_histogram",
    "ols_fit",
    "loglog_exponent_estimate",
    "subsample",
]


@dataclass
class HistogramSeries:
    points: list[tuple[float, float]]
    kind: str  # raw_normalized | eccdf | log_binned
    bin_base: int | None = None
    notes: list[str] = field(default_factory=list)

    def to_tsv(self, gnuplot_ready: bool = False) -> str:
        lines = []
        if gnuplot_ready:
            lines.append(f"# kind={self.kind}")
            for note in self.notes:
                lines.append(f"# {note}")
            lines.append("# x\ty")
        for x, y in self.points:
            lines.append(f"{x:.10g}\t{y:.10g}")
        return "\n".join(lines) + "\n"


@dataclass
class OlsFit:
    intercept: float
    slope: float
    r_squared: float


def raw_histogram(sample: Sample) -> HistogramSeries:
    """One point per distinct value with y = count / n."""
    if not sample.is_discrete:
        raise SupportError("raw histogram requires a discrete sample")
    n = sample.n
    points = [(float(v), c / n) for v, c in zip(sample.support, sample.counts)]
    return HistogramSeries(points=points, kind="raw_normalized")


def eccdf(sample: Sample) -> HistogramSeries:
    """At each distinct value x, the fraction of observations >= x."""
    n = sample.n
    at_least = n - (np.cumsum(sample.counts) - sample.counts)
    points = [(float(v), c / n) for v, c in zip(sample.support, at_least)]
    return HistogramSeries(points=points, kind="eccdf")


def check_base(base):
    """Reject a log-binning base that is not an integer >= 2."""
    if base < 2 or base != int(base):
        raise DomainError("base must be an integer >= 2")


def log_binned_histogram(sample: Sample, base: int = 2, k: int | None = None) -> HistogramSeries:
    """Bins [c^i, c^(i+1) - 1] for i = 0..k, width-normalized counts.

    Each point sits at the geometric midpoint of its bin; empty bins are
    dropped from the series (their logs are undefined downstream) and the
    drop is recorded in the notes, as is insufficient coverage of the
    sample maximum when ``k`` is given explicitly.
    """
    check_base(base)
    if not sample.is_discrete or sample.support[0] < 1:
        raise SupportError("log binning requires a positive discrete sample")
    vmax = float(sample.support[-1])
    notes: list[str] = []
    if k is None:
        k = max(int(math.ceil(math.log(vmax + 1) / math.log(base))) - 1, 0)
    elif base ** (k + 1) - 1 < vmax:
        notes.append(
            f"coverage warning: max value {vmax:g} exceeds last bin edge "
            f"{base ** (k + 1) - 1}"
        )
    n = sample.n
    points = []
    dropped = 0
    for i in range(k + 1):
        lo, hi = base**i, base ** (i + 1) - 1
        count = float(np.sum(sample.counts[(sample.support >= lo) & (sample.support <= hi)]))
        width = hi - lo + 1
        if count == 0:
            dropped += 1
            continue
        points.append((math.sqrt(lo * hi), count / (n * width)))
    if dropped:
        notes.append(f"dropped {dropped} empty bins")
    return HistogramSeries(points=points, kind="log_binned", bin_base=base, notes=notes)


def ols_fit(points) -> OlsFit:
    """Closed-form least squares line through (x, y) pairs."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise UsageError("need at least two points")
    x, y = pts[:, 0], pts[:, 1]
    sxx = float(np.sum((x - x.mean()) ** 2))
    if sxx == 0.0:
        raise DomainError("x values are all equal")
    b = float(np.sum((y - y.mean()) * (x - x.mean()))) / sxx
    a = float(y.mean() - b * x.mean())
    resid = y - (a + b * x)
    syy = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / syy if syy > 0 else 1.0
    return OlsFit(intercept=a, slope=b, r_squared=r2)


def loglog_exponent_estimate(series: HistogramSeries, correction: float | None = None) -> float:
    """OLS on (ln x, ln y); returns -slope + correction.

    The default correction is +1 for eccdf series (whose log-log slope is
    one less than the density exponent) and 0 otherwise.
    """
    if correction is None:
        correction = 1.0 if series.kind == "eccdf" else 0.0
    pts = np.asarray(series.points, dtype=np.float64)
    if np.any(pts <= 0.0):
        raise DomainError("log-log fit needs strictly positive coordinates")
    fit = ols_fit(np.log(pts))
    return -fit.slope + correction


def subsample(values, method: str, fraction: float, rng: RandomSource, strata=None):
    """Random subsample by one of three schemes, deterministic given seed.

    ``simple`` shuffles (Fisher-Yates, what the generator's permutation
    implements) and takes a prefix; the shuffle does not depend on the
    requested size, so for a fixed seed smaller fractions are prefixes of
    larger ones. ``stratified`` applies simple sampling within each stratum
    at the same fraction; ``systematic`` takes every ceil(1/fraction)-th
    element of a shuffled list from a random start. ``strata`` is a list of
    inclusive (lo, hi) value ranges that must cover the input. A numpy
    array is indexed as it is, without a copy, and gives an array; any
    other input is read into a list and gives a list, of the same draws.
    """
    if not isinstance(values, np.ndarray):
        values = list(values)
    n = len(values)
    if not n:
        raise UsageError("empty input")
    if not 0.0 < fraction <= 1.0:
        raise DomainError("fraction must be in (0, 1]")
    gen = rng.generator
    if method == "simple":
        picked = gen.permutation(n)[: max(1, int(round(fraction * n)))]
    elif method == "stratified":
        if not strata:
            raise UsageError("stratified sampling needs strata bounds")
        keys = np.asarray(values)
        parts = []
        assigned = 0
        for lo, hi in strata:
            member = np.flatnonzero((lo <= keys) & (keys <= hi))
            if not member.size:
                raise UsageError(f"empty stratum [{lo}, {hi}]")
            assigned += member.size
            size = max(1, int(round(fraction * member.size)))
            parts.append(member[gen.permutation(member.size)[:size]])
        if assigned < n:
            raise UsageError("strata do not cover the input")
        picked = np.concatenate(parts)
    elif method == "systematic":
        step = math.ceil(1.0 / fraction)
        perm = gen.permutation(n)
        picked = perm[int(gen.integers(0, step)) :: step]
    else:
        raise UsageError(f"unknown sampling method {method!r}")
    if isinstance(values, np.ndarray):
        return values[picked]
    return [values[i] for i in picked.tolist()]
