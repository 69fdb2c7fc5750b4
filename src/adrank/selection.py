"""Goodness-of-fit statistics and pairwise best-model selection.

The selection procedure fits every candidate model, compares each pair
with the chi-square likelihood-ratio test (nested pairs) or the
non-nested normal-approximation LR test (everything else), counts wins at
the significance level, and reports the winner overall and among the
discrete models alongside each model's AICc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    FitOptions,
    FittedModel,
    ModelId,
    Sample,
    _aicc_default,
    _block_sums,
    arity,
    is_discrete_model,
    mle_fit,
    nested_pairs,
)
from .errors import (
    AdrankError,
    BoundaryError,
    DomainError,
    UsageError,
)
from .numerics import regularized_incomplete_gamma_lower, std_normal_cdf

__all__ = [
    "ComparisonCell",
    "VuongTable",
    "aicc",
    "vuong_nonnested_test",
    "nested_lr_test",
    "ks_statistic",
    "ad_statistic",
    "build_vuong_table",
    "select_best",
]

def aicc(fitted: FittedModel) -> float:
    """AICc of a fitted model, -2L + 2k + 2k(k+1)/(n-k-1) (Hurvich & Tsai);
    lower is better. Undefined, so a :class:`DomainError`, for n <= k + 1."""
    k = arity(fitted.model)
    if fitted.n <= k + 1:
        raise DomainError("AICc correction undefined for n <= k + 1")
    return _aicc_default(fitted.total_loglik, k, fitted.n)


def _same_sample(fits) -> Sample:
    """The sample every fit in ``fits`` was fitted on; they must share one."""
    sample = fits[0].sample
    for f in fits[1:]:
        s = f.sample
        if s is not sample and not (
            np.array_equal(s.support, sample.support) and np.array_equal(s.counts, sample.counts)
        ):
            raise UsageError("models must be fitted on the same sample")
    return sample


def _pair_sums(fits: list[FittedModel], pairs, centres=None) -> list[float]:
    """For each (i, j) in ``pairs``, with m the log-density of ``fits[i]``
    minus that of ``fits[j]`` at each distinct value of their sample, the
    count-weighted sum of m, or, given each pair's centre, of
    (m - centre)**2.

    One pass over the sample, a ``_BLOCK`` of distinct values at a time:
    each fit's log-density is taken once per block and every pair's term
    is summed by ``_block_sums``, as :func:`weighted_sum` would sum the
    whole array, so no n-length array is ever held.
    """
    sample = _same_sample(fits)
    if not pairs:
        return []

    def terms(xb):
        dens = [f.log_density(xb) for f in fits]
        for k, (i, j) in enumerate(pairs):
            m = dens[i] - dens[j]
            yield m if centres is None else (m - centres[k]) ** 2

    with np.errstate(over="ignore"):  # differences past 1e154: omega2 = inf, z = 0
        return _block_sums(sample.counts, sample.support, terms)


def vuong_nonnested_test(f1: FittedModel, f2: FittedModel, sums=None):
    """Non-nested LR test on per-observation log-likelihood differences.

    Returns ``(z, p, lr)`` where positive z favours the first model. Each
    distinct value's difference m is weighted by its count. When the
    differences have zero (centred) variance the test is degenerate and z
    and p are NaN (the models are indistinguishable on this sample); when
    their variance overflows, z is 0 and p is 1. ``sums`` is the pair's
    (lr, sum of c * (m - lr/n)**2) where the caller has already taken
    them, as :func:`build_vuong_table` does for every pair at once.
    """
    n = f1.n
    if sums is None:
        (lr,) = _pair_sums([f1, f2], [(0, 1)])
        (spread,) = _pair_sums([f1, f2], [(0, 1)], [lr / n])
    else:
        lr, spread = sums
    omega2 = spread / n
    if omega2 <= 0.0:
        return math.nan, math.nan, lr
    z = lr / (math.sqrt(n) * math.sqrt(omega2))
    p = 2.0 * (1.0 - std_normal_cdf(abs(z)))
    return z, p, lr


def nested_lr_test(restricted: FittedModel, full: FittedModel):
    """Chi-square LR test for a (restricted, full) nested pair."""
    if (restricted.model, full.model) not in nested_pairs():
        raise UsageError(
            f"({restricted.model.value}, {full.model.value}) is not a nested pair"
        )
    _same_sample([restricted, full])
    d = max(0.0, -2.0 * (restricted.total_loglik - full.total_loglik))
    df = arity(full.model) - arity(restricted.model)
    p = 1.0 - regularized_incomplete_gamma_lower(df / 2.0, d / 2.0)
    return d, df, p


def ks_statistic(sample: Sample, cdf_fn) -> float:
    """Maximum gap between the empirical step CDF and a hypothesised CDF.

    Both one-sided gaps of the step function are taken at every distinct
    value; within a run of ties the gap is largest at the run's ends.
    """
    f0 = np.asarray(cdf_fn(sample.support), dtype=np.float64)
    cum = np.cumsum(sample.counts)
    hi, lo = cum / sample.n, (cum - sample.counts) / sample.n
    return float(np.max(np.maximum(np.abs(hi - f0), np.abs(lo - f0))))


def ad_statistic(sample: Sample, cdf_fn) -> float:
    """Anderson-Darling statistic over the ascending order statistics."""
    n, c = sample.n, sample.counts
    f0 = np.asarray(cdf_fn(sample.support), dtype=np.float64)
    if np.any(f0 <= 0.0) or np.any(f0 >= 1.0):
        raise BoundaryError("hypothesised CDF hit 0 or 1 at an observation")
    cum = np.cumsum(c)
    w = c * (2.0 * cum - c)  # sum of 2j - 1 over a run of ties: cum^2 - (cum - c)^2
    terms = w * np.log(f0) + (2.0 * n * c - w) * np.log(1.0 - f0)
    return float(-n - np.sum(terms) / n)


@dataclass
class ComparisonCell:
    row_model: ModelId
    col_model: ModelId
    lr: float
    p_value: float
    method: str  # vuong | nested_lr | indistinguishable


@dataclass
class VuongTable:
    models: list[ModelId]
    cells: dict[tuple[ModelId, ModelId], ComparisonCell]
    aicc_row: dict[ModelId, float]
    wins: dict[ModelId, int]
    best_overall: ModelId | None
    best_discrete: ModelId | None
    fitted: dict[ModelId, FittedModel]
    failures: dict[ModelId, str] = field(default_factory=dict)
    tie_broken_by_aicc: bool = False
    significance: float = 0.05

    def to_tsv(self) -> str:
        """Upper-triangular (p, LR) layout with an AICc row at the bottom."""
        header = ["model"]
        for m in self.models:
            header += [f"{m.value}:p", f"{m.value}:LR"]
        lines = ["\t".join(header)]
        for i, row in enumerate(self.models):
            cells = [row.value]
            for j, col in enumerate(self.models):
                if j <= i:
                    cells += ["", ""]
                else:
                    cell = self.cells[(row, col)]
                    if math.isnan(cell.p_value):
                        cells += ["na", f"{cell.lr:.6g}"]
                    else:
                        cells += [f"{cell.p_value:.4f}", f"{cell.lr:.6g}"]
            lines.append("\t".join(cells))
        aicc_cells = ["AICc"]
        for m in self.models:
            aicc_cells += [f"{self.aicc_row[m]:.6g}", ""]
        lines.append("\t".join(aicc_cells))
        return "\n".join(lines) + "\n"

    def to_records(self) -> str:
        """Line-delimited machine-readable dump of every cell and fit."""
        lines = []
        for m in self.models:
            lines.append("fit " + self.fitted[m].to_record())
        for m, reason in sorted(self.failures.items(), key=lambda kv: kv[0].value):
            lines.append(f"failure model={m.value} reason={reason!r}")
        for (row, col), cell in self.cells.items():
            lines.append(
                f"cell row={row.value} col={col.value} lr={cell.lr:.10g} "
                f"p={cell.p_value:.10g} method={cell.method}"
            )
        for m in self.models:
            lines.append(f"wins model={m.value} count={self.wins[m]}")
        lines.append(
            "selected overall="
            + (self.best_overall.value if self.best_overall else "none")
            + " discrete="
            + (self.best_discrete.value if self.best_discrete else "none")
        )
        return "\n".join(lines) + "\n"


def build_vuong_table(
    sample: Sample,
    models: list[ModelId] | None = None,
    options: FitOptions | None = None,
    significance: float = 0.05,
) -> VuongTable:
    """Fit, compare pairwise, and select: the full three-step procedure.

    Models that cannot be fitted on the sample are recorded as failures
    and excluded from the comparison. A model wins a comparison when it is
    preferred and p < ``significance``; for nested pairs the full model
    wins when the chi-square test rejects.
    """
    models = list(models) if models else list(ModelId)
    fitted: dict[ModelId, FittedModel] = {}
    failures: dict[ModelId, str] = {}
    errors: list[AdrankError] = []
    for m in models:
        try:
            fitted[m] = mle_fit(m, sample, options)
        except AdrankError as exc:
            failures[m] = str(exc)
            errors.append(exc)
    if not fitted:
        detail = "; ".join(f"{m.value}: {r}" for m, r in failures.items())
        # the narrowest error class every failure shares sets the exit code
        # and prefix; failures of different kinds share AdrankError (exit 2)
        kind = next(k for k in type(errors[0]).__mro__ if all(isinstance(e, k) for e in errors))
        raise kind(f"every candidate model failed to fit: {detail}")

    ok = [m for m in models if m in fitted]
    fits = [fitted[m] for m in ok]
    pairs = [(i, j) for i in range(len(ok)) for j in range(i + 1, len(ok))]
    nested = set(nested_pairs())
    # every pair's LR in one pass over the sample, then the centred spread
    # of the non-nested pairs' differences in a second
    lrs = _pair_sums(fits, pairs)
    vuong = [
        k for k, (i, j) in enumerate(pairs)
        if (ok[i], ok[j]) not in nested and (ok[j], ok[i]) not in nested
    ]
    spreads = _pair_sums(fits, [pairs[k] for k in vuong], [lrs[k] / sample.n for k in vuong])
    spread_of = dict(zip(vuong, spreads))

    wins = {m: 0 for m in ok}
    cells: dict[tuple[ModelId, ModelId], ComparisonCell] = {}
    for k, (i, j) in enumerate(pairs):
        a, b = ok[i], ok[j]
        if k in spread_of:
            z, p, lr = vuong_nonnested_test(fits[i], fits[j], (lrs[k], spread_of[k]))
            method = "indistinguishable" if math.isnan(z) else "vuong"
            winner = a if lr > 0 else b
        else:  # the full model wins when the chi-square test rejects
            restricted, full = (i, j) if (a, b) in nested else (j, i)
            _, _, p = nested_lr_test(fits[restricted], fits[full])
            lr, method, winner = lrs[k], "nested_lr", ok[full]
        cells[(a, b)] = ComparisonCell(a, b, lr, p, method)
        if p < significance:  # false for NaN
            wins[winner] += 1

    aicc_row = {m: fitted[m].aicc for m in ok}
    table = VuongTable(
        models=ok,
        cells=cells,
        aicc_row=aicc_row,
        wins=wins,
        best_overall=None,
        best_discrete=None,
        fitted=fitted,
        failures=failures,
        significance=significance,
    )
    table.best_overall, table.best_discrete, _ = _pick_winners(table)
    return table


def _pick_winners(table: VuongTable):
    def argbest(candidates):
        if not candidates:
            return None, False
        top = max(table.wins[m] for m in candidates)
        tied = [m for m in candidates if table.wins[m] == top]
        if len(tied) == 1:
            return tied[0], False
        best = min(tied, key=lambda m: (table.aicc_row[m], m.value))
        return best, True

    overall, tie1 = argbest(table.models)
    discrete, tie2 = argbest([m for m in table.models if is_discrete_model(m)])
    return overall, discrete, tie1 or tie2


def select_best(table: VuongTable):
    """Win-maximisers plus whether argmin-AICc agrees with the overall pick.

    Ties on wins are broken by lower AICc and flagged on the table;
    disagreement with the AICc ranking is reported, never resolved.
    """
    if not table.models:
        raise UsageError("empty table")
    overall, discrete, tie = _pick_winners(table)
    table.tie_broken_by_aicc = tie
    aicc_best = min(table.models, key=lambda m: (table.aicc_row[m], m.value))
    return overall, discrete, aicc_best == overall
