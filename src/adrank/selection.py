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
    arity,
    is_discrete_model,
    mle_fit,
    nested_pairs,
)
from .errors import AdrankError, BoundaryError, DomainError, SupportError, UsageError
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

def aicc(fitted: FittedModel, variant: str = "hurvich_tsai", phi: float = 2.0) -> float:
    """Information criterion of a fitted model; lower is better.

    ``hurvich_tsai`` (default) is -2L + 2k + 2k(k+1)/(n-k-1); ``bic_style``
    is -2L + k ln n; ``hq`` is -2L + phi*k*ln(ln n). Note the sign of the
    hq fit term is normalised so that lower remains better.
    """
    k = arity(fitted.model)
    n = fitted.n
    L = fitted.total_loglik
    if variant == "hurvich_tsai":
        if n <= k + 1:
            raise DomainError("AICc correction undefined for n <= k + 1")
        return -2.0 * L + 2.0 * k + 2.0 * k * (k + 1) / (n - k - 1)
    if variant == "bic_style":
        return -2.0 * L + k * math.log(n)
    if variant == "hq":
        if n <= math.e:
            raise DomainError("hq variant needs n > e")
        return -2.0 * L + phi * k * math.log(math.log(n))
    raise UsageError(f"unknown AICc variant {variant!r}")


def _log_ratio(f1: FittedModel, f2: FittedModel):
    """Per-distinct-value log-likelihood differences m and lr = sum(c * m)."""
    if f1.n != f2.n or not np.array_equal(f1.counts, f2.counts):
        raise UsageError("models must be fitted on the same sample")
    m = f1.pointwise_loglik - f2.pointwise_loglik
    return m, float(np.dot(f1.counts, m))


def vuong_nonnested_test(f1: FittedModel, f2: FittedModel):
    """Non-nested LR test on per-observation log-likelihood differences.

    Returns ``(z, p, lr)`` where positive z favours the first model. Each
    distinct value's difference is weighted by its count. When the
    differences have zero (centred) variance the test is degenerate and z
    and p are NaN (the models are indistinguishable on this sample).
    """
    m, lr = _log_ratio(f1, f2)
    n = f1.n
    omega2 = float(np.dot(f1.counts, (m - lr / n) ** 2)) / n
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
    if restricted.n != full.n:
        raise UsageError("models must be fitted on the same sample")
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


def _compare_pair(f1: FittedModel, f2: FittedModel) -> ComparisonCell:
    pair_nested = (f1.model, f2.model) in nested_pairs()
    pair_nested_rev = (f2.model, f1.model) in nested_pairs()
    if pair_nested or pair_nested_rev:
        _, lr = _log_ratio(f1, f2)
        if pair_nested:
            _, _, p = nested_lr_test(f1, f2)
        else:
            _, _, p = nested_lr_test(f2, f1)
        return ComparisonCell(f1.model, f2.model, lr, p, "nested_lr")
    z, p, lr = vuong_nonnested_test(f1, f2)
    if math.isnan(z):
        return ComparisonCell(f1.model, f2.model, lr, math.nan, "indistinguishable")
    return ComparisonCell(f1.model, f2.model, lr, p, "vuong")


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
    all_support = True
    for m in models:
        try:
            fitted[m] = mle_fit(m, sample, options)
        except AdrankError as exc:
            failures[m] = str(exc)
            all_support = all_support and isinstance(exc, SupportError)
    if not fitted:
        detail = "; ".join(f"{m.value}: {r}" for m, r in failures.items())
        if all_support:
            raise SupportError(f"every candidate model failed to fit: {detail}")
        raise UsageError(f"every candidate model failed to fit: {detail}")

    ok = [m for m in models if m in fitted]
    wins = {m: 0 for m in ok}
    cells: dict[tuple[ModelId, ModelId], ComparisonCell] = {}
    nested = set(nested_pairs())
    for i, a in enumerate(ok):
        for b in ok[i + 1 :]:
            cell = _compare_pair(fitted[a], fitted[b])
            cells[(a, b)] = cell
            if math.isnan(cell.p_value) or cell.p_value >= significance:
                continue
            if cell.method == "nested_lr":
                winner = b if (a, b) in nested else a
            else:
                winner = a if cell.lr > 0 else b
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
