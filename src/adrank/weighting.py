"""Term-informativeness weights, rule-based term classification and the
two-component mixture mass function.

The classifier is a plain threshold rule over the computed weights; it
replaces any external learned classifier, whose output can equally be
imported as an explicit term list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import InvertedIndex
from .errors import ConfigError, DomainError, UsageError
from .numerics import log_gamma

__all__ = [
    "TermWeights",
    "Condition",
    "ClassifierRule",
    "parse_rule",
    "term_weights",
    "z_measure",
    "rel_df",
    "term_classes",
    "non_informative_mask",
    "classify_terms",
    "mixture2_pmf",
]

_FEATURES = ("idf", "gain", "x_i", "burstiness", "ridf", "f_tc", "n_t")
_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@dataclass
class TermWeights:
    term: str
    idf: float
    gain: float
    x_i: float
    burstiness: float
    ridf: float
    f_tc: int
    n_t: int


def term_weights(term: str, index: InvertedIndex) -> TermWeights:
    """All five weighting scores of one vocabulary term.

    idf = -ln(n_t/N); gain = (n_t/N)(n_t/N - 1 - ln(n_t/N));
    x_i = f_tc - n_t; burstiness = f_tc/n_t and ridf subtracts from idf
    the value expected under a Poisson occurrence model,
    -ln(1 - exp(-f_tc/N)). Natural logs throughout; the base only rescales
    thresholds, never the induced ordering.
    """
    t = index.term_id(term)
    if t is None:
        raise UsageError(f"term {term!r} not in vocabulary")
    n_t = int(index.offsets[t + 1] - index.offsets[t])
    return _weights(term, int(index.f_tc[t]), n_t, index.stats.N)


def _weights(term: str, f_tc: int, n_t: int, N: int) -> TermWeights:
    ratio = n_t / N
    idf = -math.log(ratio)
    gain = ratio * (ratio - 1.0 - math.log(ratio))
    expected_idf = -math.log(1.0 - math.exp(-f_tc / N))
    return TermWeights(
        term=term,
        idf=idf,
        gain=gain,
        x_i=float(f_tc - n_t),
        burstiness=f_tc / n_t,
        ridf=idf - expected_idf,
        f_tc=f_tc,
        n_t=n_t,
    )


def term_classes(index: InvertedIndex) -> tuple[list[TermWeights], np.ndarray]:
    """The weights of each distinct (n_t, f_tc) pair, which fix all five
    scores, and the pair of every vocabulary term (an index into the list,
    in ``index.terms`` order). Class weights carry an empty ``term``.
    Classes are in increasing (n_t, f_tc) order."""
    n_t = np.diff(index.offsets)
    order = np.lexsort((index.f_tc, n_t))
    n_sorted, f_sorted = n_t[order], index.f_tc[order]
    del n_t
    first = np.ones(order.size, dtype=bool)  # of its class, in sorted order
    first[1:] = (n_sorted[1:] != n_sorted[:-1]) | (f_sorted[1:] != f_sorted[:-1])
    class_of = np.cumsum(first)
    class_of -= 1
    of_term = np.empty_like(order)
    of_term[order] = class_of
    del order, class_of
    N = index.stats.N
    classes = [
        _weights("", f, n, N)
        for n, f in zip(n_sorted[first].tolist(), f_sorted[first].tolist())
    ]
    return classes, of_term


def z_measure(lambda1: float, lambda2: float) -> float:
    """Separation of two rate parameters: (l1 - l2)/sqrt(l1 + l2)."""
    if lambda1 <= 0.0 or lambda2 <= 0.0:
        raise DomainError("z-measure needs positive rates")
    return (lambda1 - lambda2) / math.sqrt(lambda1 + lambda2)


def rel_df(r: int, R: int, n_t: int, N: int) -> float:
    """Relative document frequency: r/R - n_t/N."""
    if R < 1:
        raise DomainError("need at least one user-specified document")
    if not 0 <= r <= R:
        raise DomainError("r must lie in [0, R]")
    return r / R - n_t / N


@dataclass
class Condition:
    feature: str
    op: str
    value: float

    def __post_init__(self):
        if self.feature not in _FEATURES:
            raise ConfigError(
                f"unknown feature {self.feature!r}; choose from {_FEATURES}"
            )
        if self.op not in _OPS:
            raise ConfigError(f"unknown operator {self.op!r}")
        if math.isnan(self.value):  # every comparison with NaN is false
            raise ConfigError(f"threshold of {self.feature!r} is NaN")

    def matches(self, w: TermWeights) -> bool:
        return _OPS[self.op](getattr(w, self.feature), self.value)


@dataclass
class ClassifierRule:
    """Threshold conditions over term weights, combined by all/any.

    Terms matching the rule are assigned to ``target`` (by default the
    non-informative class, which is the side the cascade consumes); an
    empty condition list matches everything.
    """

    conditions: list[Condition] = field(default_factory=list)
    combine: str = "all"  # all = conjunction, any = disjunction
    target: str = "non_informative"

    def __post_init__(self):
        if self.combine not in ("all", "any"):
            raise ConfigError("combine must be 'all' or 'any'")
        if self.target not in ("non_informative", "informative"):
            raise ConfigError("target must be 'non_informative' or 'informative'")

    def matches(self, w: TermWeights) -> bool:
        if not self.conditions:
            return True
        hits = (c.matches(w) for c in self.conditions)
        return all(hits) if self.combine == "all" else any(hits)


def parse_rule(text: str, target: str = "non_informative") -> ClassifierRule:
    """Parse e.g. ``"ridf < 0.5 and burstiness < 3"`` into a rule.

    Mixing ``and`` with ``or`` in one rule is not supported.
    """
    text = text.strip()
    if not text or text == "all":
        return ClassifierRule(target=target)
    combine = "all"
    if " or " in text:
        if " and " in text:
            raise ConfigError("cannot mix 'and' and 'or' in one rule")
        combine = "any"
        chunks = text.split(" or ")
    else:
        chunks = text.split(" and ")
    conditions = []
    for chunk in chunks:
        parts = chunk.split()
        if len(parts) != 3:
            raise ConfigError(f"cannot parse condition {chunk!r}")
        feature, op, raw = parts
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"threshold {raw!r} is not a number") from None
        conditions.append(Condition(feature, op, value))
    return ClassifierRule(conditions=conditions, combine=combine, target=target)


def non_informative_mask(index: InvertedIndex, rule: ClassifierRule) -> np.ndarray:
    """Whether each vocabulary term, in ``index.terms`` order, is
    non-informative under ``rule``: it matches a rule whose target is the
    non-informative class, or fails one whose target is informative."""
    classes, of_term = term_classes(index)
    hits = np.array([rule.matches(w) for w in classes], dtype=bool)[of_term]
    return hits if rule.target == "non_informative" else ~hits


def classify_terms(index: InvertedIndex, rule: ClassifierRule):
    """Partition the vocabulary into (informative, non_informative)."""
    labelled = non_informative_mask(index, rule)
    terms = np.array(index.terms, dtype=object)
    return set(terms[~labelled]), set(terms[labelled])


def mixture2_pmf(kind: str, k: int, a: float, b: float, w1: float) -> float:
    """Two-component mixture mass w1*f(k|a) + (1-w1)*f(k|b).

    ``poisson`` components have support k >= 0; ``geometric`` uses the
    start-at-one form (1-p)^(k-1) p, so k >= 1 there.
    """
    if not 0.0 <= w1 <= 1.0:
        raise DomainError("w1 must lie in [0, 1]")
    if k != int(k):
        raise DomainError("k must be an integer")
    k = int(k)
    if kind == "poisson":
        if a <= 0.0 or b <= 0.0:
            raise DomainError("poisson rates must be positive")
        if k < 0:
            raise DomainError("poisson mixture needs k >= 0")
        lg = log_gamma(k + 1.0)
        f1 = math.exp(k * math.log(a) - a - lg)
        f2 = math.exp(k * math.log(b) - b - lg)
    elif kind == "geometric":
        if not (0.0 < a <= 1.0 and 0.0 < b <= 1.0):
            raise DomainError("geometric parameters must lie in (0, 1]")
        if k < 1:
            raise DomainError("the start-at-one geometric needs k >= 1")
        f1 = (1.0 - a) ** (k - 1) * a
        f2 = (1.0 - b) ** (k - 1) * b
    else:
        raise DomainError(f"unknown mixture kind {kind!r}")
    return w1 * f1 + (1.0 - w1) * f2
