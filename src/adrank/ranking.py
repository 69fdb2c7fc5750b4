"""Divergence-based document ranking with pluggable randomness models.

A ranking model is the product of two information functions: the improbable
occurrence of the normalized within-document frequency under a randomness
model (inf1 = -log2 P1), resized by the risk of accepting the term as a
descriptor (inf2 = 1 - P2). The adaptive variants plug the Yule-Simon or
continuous power-law mass into P1; the LL and SPL models use inf1 alone,
and a Dirichlet-smoothed query-likelihood scorer is included as the
standard baseline. Base-2 logs throughout the divergence family; the base
only scales scores uniformly and never reorders documents.

Scoring is term at a time over the index's posting arrays: each formula
below takes the array of one term's postings, and :func:`rank` is the one
entry point that adds them into a score per document and keeps the top k.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError, UsageError
from .numerics import log_gamma

if TYPE_CHECKING:  # annotations only: scoring a run needs no corpus code
    from .corpus import InvertedIndex, QueryRecord

__all__ = [
    "RANDOMNESS_MODELS",
    "ParamScheme",
    "RankingConfig",
    "RankedList",
    "normalized_tf",
    "model_parameter",
    "inf1",
    "inf2_risk",
    "rank",
    "parse_model_spec",
    "format_trec_run",
]

RANDOMNESS_MODELS = (
    "P",
    "G",
    "In",
    "IF",
    "Ine",
    "YuleADR",
    "PowerLawADR",
    "LL",
    "SPL",
    "LMDir",
)
_INF1_ONLY = ("LL", "SPL")
_SCHEMES = ("ttc", "tdc", "ttc2", "tdc2", "ttc_plus1", "tdc_plus1", "fixed")
_LOG2E = 1.0 / math.log(2.0)
_SPL_EPS = 1e-6
# the randomness models whose inf1 reads the scheme's parameter, and the value
# it must lie above: RankingConfig checks a fixed value, inf1 every value it scores
_PARAM_ABOVE = {"P": 0.0, "G": 0.0, "YuleADR": 0.0, "LL": 0.0, "PowerLawADR": 1.0}


@dataclass
class ParamScheme:
    kind: str
    value: float | None = None  # for kind == "fixed"

    def __post_init__(self):
        if self.kind not in _SCHEMES:
            raise ConfigError(f"unknown parameter scheme {self.kind!r}")
        if self.kind == "fixed" and (self.value is None or not math.isfinite(self.value)):
            raise ConfigError(f"fixed scheme needs a finite value, got {self.value}")


@dataclass
class RankingConfig:
    """Complete description of one ranking model."""

    randomness: str
    first_norm: str = "laplace"  # none | laplace | bernoulli
    second_norm: str = "logarithmic"  # none | uniform | logarithmic
    scheme: ParamScheme = field(default_factory=lambda: ParamScheme("tdc"))
    c: float = 1.0  # logarithmic second-normalisation parameter
    mu: float = 1000.0  # LMDir smoothing mass
    pl_xmin: float = 1.0  # PowerLawADR lower cutoff

    def __post_init__(self):
        if self.randomness not in RANDOMNESS_MODELS:
            raise ConfigError(f"unknown randomness model {self.randomness!r}")
        if self.first_norm not in ("none", "laplace", "bernoulli"):
            raise ConfigError(f"unknown first normalisation {self.first_norm!r}")
        if self.second_norm not in ("none", "uniform", "logarithmic"):
            raise ConfigError(f"unknown second normalisation {self.second_norm!r}")
        if self.randomness in _INF1_ONLY and self.first_norm != "none":
            raise ConfigError(
                f"{self.randomness} admits no first normalisation; use 'none'"
            )
        if self.randomness == "PowerLawADR" and self.scheme.kind not in (
            "ttc_plus1",
            "tdc_plus1",
            "fixed",
        ):
            raise ConfigError(
                "PowerLawADR needs a scheme producing an exponent > 1 "
                "(ttc_plus1, tdc_plus1 or fixed)"
            )
        floor = _PARAM_ABOVE.get(self.randomness)
        if self.scheme.kind == "fixed" and floor is not None and not self.scheme.value > floor:
            raise ConfigError(
                f"{self.randomness} randomness needs a fixed parameter above {floor:g}, "
                f"got {self.scheme.value:g}"
            )
        # written so that NaN and infinity fail too
        if self.second_norm == "logarithmic" and not 0.0 < self.c < math.inf:
            raise ConfigError(f"logarithmic normalisation needs a finite c > 0, got {self.c}")
        if not 0.0 < self.mu < math.inf:
            raise ConfigError(f"LMDir needs a finite mu > 0, got {self.mu}")
        if not 0.0 < self.pl_xmin < math.inf:
            raise ConfigError(f"PowerLawADR needs a finite pl_xmin > 0, got {self.pl_xmin}")


@dataclass(eq=False)
class RankedList:
    """One query's ranking as columns: rank i + 1 holds ``doc_ids[i]``, with
    score ``scores[i]`` of a float64 array."""

    query_id: str
    doc_ids: list[str]
    scores: np.ndarray
    skipped_terms: list[str] = field(default_factory=list)


def normalized_tf(f_td, doc_len, avg_l: float, config: RankingConfig):
    """Second normalisation of within-document frequencies.

    ``f_td`` and ``doc_len`` are equal-length arrays over one term's
    postings (scalars work too; the result is what numpy computes).
    """
    if config.second_norm == "none":
        return np.asarray(f_td, dtype=np.float64)
    if config.second_norm == "uniform":
        return f_td * avg_l / doc_len
    return f_td * np.log2(1.0 + config.c * avg_l / doc_len)


def model_parameter(scheme: ParamScheme, f_tc: int, n_t: int, N: int) -> float:
    """Per-term parameter value under the configured estimation scheme."""
    if scheme.kind == "ttc":
        return f_tc / N
    if scheme.kind == "tdc":
        return n_t / N
    if scheme.kind == "ttc2":
        return (f_tc / N) ** 2
    if scheme.kind == "tdc2":
        return (n_t / N) ** 2
    if scheme.kind == "ttc_plus1":
        return 1.0 + f_tc / N
    if scheme.kind == "tdc_plus1":
        return 1.0 + n_t / N
    return float(scheme.value)


def inf1(
    config: RankingConfig,
    f_hat,
    param: float,
    f_tc: int = 0,
    n_t: int = 0,
    N: int = 1,
):
    """First information content, -log2 P1, of normalized occurrence counts.

    ``f_hat`` is an array over one term's postings; the other arguments are
    per-term scalars, so each domain check runs once per term.
    """
    r = config.randomness
    if r in _PARAM_ABOVE and not param > _PARAM_ABOVE[r]:  # false for NaN too
        raise ConfigError(
            f"{r} randomness needs a parameter above {_PARAM_ABOVE[r]:g}, got {param:g}"
        )
    if r == "P":
        lam = param
        if np.any(f_hat <= 0.0):
            raise ConfigError("Poisson randomness needs f_hat > 0")
        out = (
            f_hat * np.log2(f_hat / lam)
            + (lam + 1.0 / (12.0 * f_hat) - f_hat) * _LOG2E
            + 0.5 * np.log2(2.0 * math.pi * f_hat)
        )
    elif r == "G":
        lam = param
        out = -math.log2(1.0 / (1.0 + lam)) - f_hat * math.log2(lam / (1.0 + lam))
    elif r == "In":
        out = f_hat * math.log2((N + 1.0) / (n_t + 0.5))
    elif r == "IF":
        out = f_hat * math.log2((N + 1.0) / (f_tc + 0.5)) + math.log2(f_tc / N)
    elif r == "Ine":
        expected = N * (1.0 - ((N - 1.0) / N) ** f_tc)
        out = f_hat * math.log2((N + 1.0) / (expected + 0.5))
    elif r == "YuleADR":
        p = param
        if np.any(f_hat <= 0.0):
            raise ConfigError("Yule randomness needs f_hat > 0")
        log_mass = (
            math.log(p) + log_gamma(f_hat) + log_gamma(p + 1.0) - log_gamma(f_hat + p + 1.0)
        )
        out = -log_mass * _LOG2E
    elif r == "PowerLawADR":
        alpha = param
        g = np.maximum(f_hat, config.pl_xmin)
        log_mass = (
            math.log(alpha - 1.0)
            + (alpha - 1.0) * math.log(config.pl_xmin)
            - alpha * np.log(g)
        )
        out = -log_mass * _LOG2E
    elif r == "LL":
        out = -np.log2(param / (param + f_hat))
    elif r == "SPL":
        lam = min(max(param, _SPL_EPS), 1.0 - _SPL_EPS)
        num = lam ** (f_hat / (f_hat + 1.0)) - lam
        above = num > 0.0
        out = np.where(above, -np.log2(np.where(above, num, 1.0) / (1.0 - lam)), 0.0)
    else:
        raise ConfigError(f"{r} has no first information function")
    return out


def inf2_risk(config: RankingConfig, f_hat, f_tc: int = 0, n_t: int = 0):
    """Risk resizing, 1 - P2, in [0, 1], of an array ``f_hat``.

    The Bernoulli estimate can stray outside [0, 1] for extreme statistics
    and is clamped rather than propagated as a negative risk.
    """
    if config.first_norm == "none":
        return 1.0
    if config.first_norm == "laplace":
        return 1.0 / (f_hat + 1.0)
    if n_t < 1:
        raise ConfigError("Bernoulli normalisation needs n_t >= 1")
    risk = 1.0 - (f_tc + 1.0) / (n_t * (f_hat + 1.0))
    return np.minimum(np.maximum(risk, 0.0), 1.0)


def _score_all(query: QueryRecord, index: InvertedIndex, config: RankingConfig):
    """Term-at-a-time scores of every document.

    Returns ``(scores, touched, skipped)``: the N-vector of scores, the mask
    of documents holding some query term (None for LMDir, which scores every
    document) and the query terms missing from the index. Each distinct
    term, in order of first occurrence, adds f_tq times its weight; the
    divergence models weight only the term's postings, LMDir every document
    (its smoothing mass where the term is absent).
    """
    counts: dict[str, int] = {}
    for t in query.terms:
        counts[t] = counts.get(t, 0) + 1
    stats = index.stats
    scores = np.zeros(stats.N)
    touched = None if config.randomness == "LMDir" else np.zeros(stats.N, dtype=bool)
    skipped = []
    for term, f_tq in counts.items():
        t = index.term_id(term)
        if t is None:
            skipped.append(term)
            continue
        lo, hi = index.offsets[t], index.offsets[t + 1]
        docs, f_td = index.post_doc[lo:hi], index.post_tf[lo:hi]
        doc_len = index.doc_len[docs]
        f_tc, n_t = int(index.f_tc[t]), int(hi - lo)
        if touched is None:
            p_c = f_tc / stats.total_terms
            weight = np.log(config.mu * p_c / (index.doc_len + config.mu))
            weight[docs] = np.log((f_td + config.mu * p_c) / (doc_len + config.mu))
            scores += f_tq * weight
            continue
        f_hat = normalized_tf(f_td, doc_len, stats.avg_l, config)
        param = model_parameter(config.scheme, f_tc, n_t, stats.N)
        i1 = inf1(config, f_hat, param, f_tc=f_tc, n_t=n_t, N=stats.N)
        scores[docs] += f_tq * (i1 * inf2_risk(config, f_hat, f_tc=f_tc, n_t=n_t))
        touched[docs] = True
    return scores, touched, skipped


def rank(
    query: QueryRecord, index: InvertedIndex, config: RankingConfig, k: int = 1000
) -> RankedList:
    """Top-k documents, scores descending, ties broken by ascending id."""
    if k < 1:
        raise UsageError("k must be >= 1")
    scores, touched, skipped = _score_all(query, index, config)
    docs = np.arange(index.stats.N) if touched is None else np.flatnonzero(touched)
    top = scores[docs]
    if len(top) > k:
        # keep every score tied with the k-th largest; the sort picks among them
        keep = top >= np.partition(top, len(top) - k)[len(top) - k]
        docs, top = docs[keep], top[keep]
    # positions follow id order, so the position breaks ties as the id would
    order = np.lexsort((docs, -top))[:k]
    return RankedList(query.query_id, index.doc_ids_at(docs[order]), top[order], skipped)


# ---------------------------------------------------------------------------
# compact model-spec strings, e.g. "YSL2-Tdc2", "PLL2-Tdc+1", "LMDir"
# ---------------------------------------------------------------------------

_SPEC_PREFIXES = [
    ("PowerLawADR", "PowerLawADR"),
    ("YuleADR", "YuleADR"),
    ("LMDir", "LMDir"),
    ("SPL", "SPL"),
    ("LL", "LL"),
    ("YS", "YuleADR"),
    ("PL", "PowerLawADR"),
    ("Ine", "Ine"),
    ("In", "In"),
    ("IF", "IF"),
    ("G", "G"),
    ("P", "P"),
]
_SCHEME_TOKENS = {
    "Ttc": "ttc",
    "Tdc": "tdc",
    "Ttc2": "ttc2",
    "Tdc2": "tdc2",
    "Ttc+1": "ttc_plus1",
    "Tdc+1": "tdc_plus1",
    "TtcPlus1": "ttc_plus1",
    "TdcPlus1": "tdc_plus1",
}
_NORM_RE = re.compile(r"^(?P<first>[LB]?)(?P<second>[012]?)$")


def parse_model_spec(
    spec: str,
    c: float = 1.0,
    mu: float = 1000.0,
    pl_xmin: float = 1.0,
) -> RankingConfig:
    """Parse a compact model name into a RankingConfig.

    Grammar: ``<randomness><L|B><1|2>-<scheme>``, where L/B choose the
    Laplace or Bernoulli resizing, the digit chooses uniform (1) or
    logarithmic (2) length normalisation, and the scheme suffix is one of
    Ttc, Tdc, Ttc2, Tdc2, Ttc+1, Tdc+1 or fixed:<value>. ``LMDir`` stands
    alone. For the LL and SPL models the conventional L in names like
    ``LLL2-Ttc`` is part of the family name and the first normalisation
    stays off.
    """
    spec = spec.strip()
    if spec == "LMDir" or spec.lower() == "lmdir":
        return RankingConfig(
            randomness="LMDir", first_norm="none", second_norm="none", mu=mu
        )
    head, sep, tail = spec.partition("-")
    if not sep:
        raise ConfigError(f"model spec {spec!r} is missing the -scheme suffix")
    # collect every (randomness, norm-tail) reading of the head; names like
    # PL2 (Poisson, Laplace, logarithmic) and PLL2 (power-law randomness,
    # Laplace, logarithmic) overlap, so an explicit first-norm letter wins,
    # then the longer randomness prefix
    parses = []
    for prefix, name in _SPEC_PREFIXES:
        if head.startswith(prefix):
            m = _NORM_RE.match(head[len(prefix) :])
            if m:
                parses.append((bool(m.group("first")), len(prefix), name, m))
    if not parses:
        raise ConfigError(f"cannot parse randomness model from {head!r}")
    parses.sort(key=lambda t: (t[0], t[1]), reverse=True)
    _, _, randomness, m = parses[0]
    first = {"L": "laplace", "B": "bernoulli", "": "none"}[m.group("first")]
    second = {"1": "uniform", "2": "logarithmic", "0": "none", "": "none"}[
        m.group("second")
    ]
    if randomness in _INF1_ONLY:
        # the L in LLL2/SPLL2 is conventional, not a first normalisation
        first = "none"
    if tail.startswith("fixed:"):
        raw = tail.split(":", 1)[1]
        try:
            scheme = ParamScheme("fixed", float(raw))
        except ValueError:
            raise ConfigError(f"fixed scheme value {raw!r} is not a number") from None
    elif tail in _SCHEME_TOKENS:
        scheme = ParamScheme(_SCHEME_TOKENS[tail])
    else:
        raise ConfigError(f"unknown parameter scheme suffix {tail!r}")
    return RankingConfig(
        randomness=randomness,
        first_norm=first,
        second_norm=second,
        scheme=scheme,
        c=c,
        mu=mu,
        pl_xmin=pl_xmin,
    )


def format_trec_run(ranked_lists, tag: str = "adrank") -> str:
    """Standard 6-column run: qid Q0 docid rank score tag; no lines, no bytes."""
    lines = []
    for rl in ranked_lists:
        for pos, (doc_id, score) in enumerate(zip(rl.doc_ids, rl.scores.tolist()), 1):
            lines.append(f"{rl.query_id} Q0 {doc_id} {pos} {score:.6f} {tag}")
    return "\n".join(lines) + "\n" if lines else ""
