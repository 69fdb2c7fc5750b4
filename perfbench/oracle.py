"""Independent oracles for the benchmark's correctness checks.

Nothing here imports the package under test. Scores are recomputed from
the generator's own token counts with ``math.lgamma`` and the formulas in
the ranking module's docstrings; the effectiveness metrics follow the
conventions stated in the evaluation module's docstring; likelihoods are
summed directly.
"""

from __future__ import annotations

import math

import numpy as np

_LOG2E = 1.0 / math.log(2.0)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def _term_weight(model: str, f_hat: float, n_t: int, N: int) -> float:
    """inf1 * inf2 for one (term, document): Laplace resizing 1/(f_hat+1)."""
    if model == "YSL2-Tdc2":
        p = (n_t / N) ** 2  # Yule-Simon parameter, Tdc2 scheme
        log_mass = math.log(p) + math.lgamma(f_hat) + math.lgamma(p + 1.0) - math.lgamma(f_hat + p + 1.0)
        inf1 = -log_mass * _LOG2E
    elif model == "PL2-Tdc":
        lam = n_t / N  # Poisson rate, Tdc scheme; Stirling form of -log2 P1
        inf1 = (
            f_hat * math.log2(f_hat / lam)
            + (lam + 1.0 / (12.0 * f_hat) - f_hat) * _LOG2E
            + 0.5 * math.log2(2.0 * math.pi * f_hat)
        )
    else:
        raise ValueError(f"no oracle for {model}")
    return inf1 / (f_hat + 1.0)


def divergence_scores(corpus, ranks, model: str, c: float = 1.0) -> dict[int, float]:
    """Score of every document holding a query term (doc index -> score).

    Terms are visited in order of first occurrence in the query and each
    contributes f_tq * inf1 * inf2 with the logarithmic length normalisation
    f_hat = tf * log2(1 + c * avg_l / doc_len)."""
    N = corpus.N
    avg_l = corpus.total_tokens / N
    f_tq: dict[int, int] = {}
    for r in ranks:
        f_tq[r] = f_tq.get(r, 0) + 1
    scores: dict[int, float] = {}
    doc_len = corpus.doc_len
    for r, mult in f_tq.items():
        docs, tfs = corpus.postings(r)
        n_t = docs.size
        cache: dict[tuple[int, int], float] = {}
        for d, tf in zip(docs.tolist(), tfs.tolist()):
            length = int(doc_len[d])
            w = cache.get((tf, length))
            if w is None:
                f_hat = tf * math.log2(1.0 + c * avg_l / length)
                w = cache[(tf, length)] = _term_weight(model, f_hat, n_t, N)
            scores[d] = scores.get(d, 0.0) + mult * w
    return scores


def lmdir_scores(corpus, ranks, mu: float = 1000.0) -> dict[int, float]:
    """Dirichlet-smoothed query log-likelihood of every document:
    sum_t f_tq * ln((tf + mu * f_tc / T) / (doc_len + mu))."""
    T = corpus.total_tokens
    length = corpus.doc_len.astype(np.float64)
    f_tq: dict[int, int] = {}
    for r in ranks:
        f_tq[r] = f_tq.get(r, 0) + 1
    total = np.zeros(corpus.N)
    for r, mult in f_tq.items():
        docs, tfs = corpus.postings(r)
        if docs.size == 0:
            continue  # term absent from the collection: no smoothing mass
        tf = np.zeros(corpus.N)
        tf[docs] = tfs
        p_c = float(tfs.sum()) / T
        total = total + mult * np.log((tf + mu * p_c) / (length + mu))
    return dict(enumerate(total.tolist()))


def check_ranked_list(entries, oracle: dict[int, float], doc_index, k: int, label: str) -> list[str]:
    """Check one ranked list ``[(doc_id, printed_score), ...]`` against
    oracle scores for every candidate document.

    Each printed score must equal the oracle's up to the 6-decimal print
    rounding. Order must be by (-score, doc id): documents whose oracle
    scores are exactly equal (identical term statistics) must appear in id
    order, others in descending oracle order with a relative tie tolerance
    of 1e-9. The list must hold min(k, candidates) documents and be the
    oracle's top set, up to the same tolerance at the cut-off."""
    errors = []
    want = min(k, len(oracle))
    if len(entries) != want:
        return [f"{label}: {len(entries)} entries, expected {want}"]
    got = []
    for doc_id, printed in entries:
        d = doc_index.get(doc_id)
        if d is None or d not in oracle:
            return [f"{label}: {doc_id} holds no query term"]
        s = oracle[d]
        if abs(printed - s) > 5e-7 + 1e-9 * abs(s):
            return [f"{label}: {doc_id} printed {printed} but oracle score is {s!r}"]
        got.append((d, s, doc_id))
    for (_, s1, id1), (_, s2, id2) in zip(got, got[1:]):
        if s1 == s2 and id1 > id2:
            return [f"{label}: tie {id1} before {id2}"]
        if s1 < s2 - 1e-9 * max(1.0, abs(s2)):
            return [f"{label}: {id1} ({s1!r}) ranked above {id2} ({s2!r})"]
    if want:
        cutoff = sorted(oracle.values(), reverse=True)[want - 1]
        tol = 1e-9 * max(1.0, abs(cutoff))
        listed = {d for d, _, _ in got}
        if any(s < cutoff - tol for _, s, _ in got):
            errors.append(f"{label}: a listed document scores below the top-{want} cut-off")
        if any(s > cutoff + tol and d not in listed for d, s in oracle.items()):
            errors.append(f"{label}: a document above the top-{want} cut-off is missing")
    return errors


def parse_run(text: str) -> dict[str, list[tuple[str, float]]]:
    """6-column run text -> qid -> [(doc_id, score)] in rank order."""
    rows: dict[str, list[tuple[int, str, float]]] = {}
    for line in text.splitlines():
        qid, _, doc_id, pos, score, _ = line.split()
        rows.setdefault(qid, []).append((int(pos), doc_id, float(score)))
    return {q: [(d, s) for _, d, s in sorted(r)] for q, r in rows.items()}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _dcg(gains) -> float:
    return sum((2.0**g - 1.0) / math.log2(i + 2.0) for i, g in enumerate(gains))


def query_metrics(docs: list[str], judged: dict[str, int], max_grade: int) -> dict[str, float]:
    """All six metrics of one ranked doc-id list.

    ``judged`` maps judged doc ids to grades for this query; grade > 0 is
    relevant. ``max_grade`` is the largest grade in the whole qrels set,
    which normalises ERR."""
    rel = {d for d, g in judged.items() if g > 0}
    R = len(rel)
    nonrel = len(judged) - R
    out = {}
    hits, ap = 0, 0.0
    for i, d in enumerate(docs[:1000], 1):
        if d in rel:
            hits += 1
            ap += hits / i
    out["map"] = ap / R if R else 0.0
    out["p10"] = sum(1 for d in docs[:10] if d in rel) / 10 if docs else 0.0
    for name, cut in (("ndcg", None), ("ndcg10", 10)):
        ideal = sorted(judged.values(), reverse=True)[:cut]
        idcg = _dcg(ideal)
        got = [judged.get(d, 0) for d in docs[:cut]]
        out[name] = _dcg(got) / idcg if idcg > 0 else 0.0
    if R:
        denom = min(R, nonrel)
        above, total = 0, 0.0
        for d in docs:
            if d in judged and d not in rel:
                above += 1
            elif d in rel:
                total += 1.0 - (min(above, R) / denom if denom else 0.0)
        out["bpref"] = total / R
    else:
        out["bpref"] = 0.0
    err, keep = 0.0, 1.0
    if max_grade >= 1:
        for i, d in enumerate(docs[:20], 1):
            r = (2.0 ** judged.get(d, 0) - 1.0) / 2.0**max_grade
            err += keep * r / i
            keep *= 1.0 - r
    out["err20"] = err
    return out


def per_query_metrics(run: dict, grades: dict[tuple[str, str], int]) -> dict[str, dict[str, float]]:
    """qid -> metric -> value over the queries present in run and qrels."""
    judged: dict[str, dict[str, int]] = {}
    for (q, d), g in grades.items():
        judged.setdefault(q, {})[d] = g
    max_grade = max(grades.values())
    return {
        q: query_metrics([d for d, _ in run[q]], judged[q], max_grade)
        for q in sorted(run)
        if q in judged
    }


def mean_metrics(per_query: dict[str, dict[str, float]], qids=None) -> dict[str, float]:
    qids = sorted(per_query) if qids is None else qids
    names = per_query[qids[0]].keys()
    return {m: sum(per_query[q][m] for q in qids) / len(qids) for m in names}


def paired_t(a, b) -> float:
    """Paired t statistic of a - b; NaN when the differences are constant."""
    d = [x - y for x, y in zip(a, b)]
    n = len(d)
    mean = sum(d) / n
    var = sum((x - mean) ** 2 for x in d) / (n - 1)
    return mean / math.sqrt(var / n) if var > 0 else math.nan


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------


def yule_loglik(values, counts, p: float) -> float:
    """Yule-Simon log-likelihood, pmf p * B(x, p + 1), over (value, count)."""
    lgp1 = math.lgamma(p + 1.0)
    logp = math.log(p)
    return math.fsum(
        c * (logp + math.lgamma(x) + lgp1 - math.lgamma(x + p + 1.0))
        for x, c in zip(values, counts)
    )


def yule_standard_error(values, counts, p: float) -> float:
    """1 / sqrt(observed information), the curvature taken by a central
    second difference of the log-likelihood."""
    h = 1e-4 * p
    curv = (yule_loglik(values, counts, p + h) - 2.0 * yule_loglik(values, counts, p) + yule_loglik(values, counts, p - h)) / (h * h)
    return 1.0 / math.sqrt(-curv)


def gaussian_mle(x: np.ndarray) -> tuple[float, float]:
    """Closed-form Gaussian MLE: mean and population variance."""
    return float(np.mean(x)), float(np.var(x))


def gaussian_logistic_lr(x: np.ndarray, gauss: dict, logistic: dict) -> float:
    """Sum over the sample of ln N(x | mu, sigma2) - ln Logistic(x | mu, sigma)."""
    mu, s2 = gauss["mu"], gauss["sigma2"]
    lg = -0.5 * np.log(2.0 * np.pi * s2) - (x - mu) ** 2 / (2.0 * s2)
    z = (x - logistic["mu"]) / logistic["sigma"]
    # logistic density e^-z / (s (1 + e^-z)^2), written for both signs of z
    ll = -np.abs(z) - np.log(logistic["sigma"]) - 2.0 * np.log1p(np.exp(-np.abs(z)))
    return math.fsum((lg - ll).tolist())
