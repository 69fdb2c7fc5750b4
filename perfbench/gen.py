"""Seeded input generators for the benchmark workloads.

Every generator draws from one ``numpy.random.Generator`` built from the
workload seed, so the same seed gives byte-identical input files. Each
generator also returns its own ground truth (token counts, postings,
samples), which the oracles in ``oracle.py`` read instead of anything the
program under test computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass
class Corpus:
    """A Zipf(1) corpus and its exact postings, held term-major (CSR)."""

    doc_ids: list[str]
    doc_len: np.ndarray  # int64, one per document, in doc-id order
    terms: list[str]  # term string per frequency rank (rank 1 at index 0)
    term_offset: np.ndarray  # CSR offsets into post_doc / post_tf, by rank index
    post_doc: np.ndarray  # doc index per posting, ascending within a term
    post_tf: np.ndarray  # within-document frequency per posting

    @property
    def N(self) -> int:
        return len(self.doc_ids)

    @property
    def total_tokens(self) -> int:
        return int(self.doc_len.sum())

    @property
    def n_postings(self) -> int:
        return int(self.post_doc.size)

    @property
    def vocab_size(self) -> int:
        """Number of distinct terms that occur at least once."""
        return int(np.count_nonzero(np.diff(self.term_offset)))

    def postings(self, rank_idx: int):
        lo, hi = self.term_offset[rank_idx], self.term_offset[rank_idx + 1]
        return self.post_doc[lo:hi], self.post_tf[lo:hi]


@dataclass
class Query:
    qid: str
    ranks: list[int]  # rank index (0-based) of each query term, in query order
    text: str


def zipf_corpus(
    rng: np.random.Generator,
    n_docs: int,
    vocab: int,
    doc_len: tuple[int, int],
    corpus_path: Path,
) -> Corpus:
    """Write a ``doc_id<TAB>text`` corpus whose tokens are i.i.d. Zipf(1)
    draws over ``vocab`` ranks; document lengths are uniform on the closed
    range ``doc_len``. The rank-to-term mapping is a seeded permutation, so
    term strings carry no rank information."""
    weights = 1.0 / np.arange(1, vocab + 1)
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    names = np.array([f"w{i:06d}" for i in rng.permutation(vocab)])
    lens = rng.integers(doc_len[0], doc_len[1] + 1, size=n_docs).astype(np.int64)
    ranks = np.searchsorted(cdf, rng.random(int(lens.sum())), side="right")
    ends = np.cumsum(lens)
    doc_ids = [f"d{i:06d}" for i in range(n_docs)]
    with open(corpus_path, "w", encoding="utf-8") as fh:
        start = 0
        for doc_id, end in zip(doc_ids, ends.tolist()):
            fh.write(doc_id + "\t" + " ".join(names[ranks[start:end]].tolist()) + "\n")
            start = end
    doc_of_token = np.repeat(np.arange(n_docs, dtype=np.int64), lens)
    keys, tf = np.unique(ranks.astype(np.int64) * n_docs + doc_of_token, return_counts=True)
    post_rank, post_doc = np.divmod(keys, n_docs)
    offset = np.zeros(vocab + 1, dtype=np.int64)
    np.cumsum(np.bincount(post_rank, minlength=vocab), out=offset[1:])
    return Corpus(doc_ids, lens, names.tolist(), offset, post_doc, tf.astype(np.int64))


def stratified_queries(
    rng: np.random.Generator,
    corpus: Corpus,
    n_queries: int,
    terms_per_query: int,
    rank_range: tuple[int, int],
    queries_path: Path,
) -> list[Query]:
    """Query terms drawn uniformly from the frequency ranks ``rank_range``
    (1-based, inclusive), stratified: the range is cut into one equal
    stratum per query term and one rank is drawn from each, then the draws
    are shuffled into queries. This keeps the total posting volume of a
    query batch nearly the same from seed to seed."""
    lo, hi = rank_range
    m = n_queries * terms_per_query
    edges = lo + (np.arange(m + 1) * (hi - lo + 1)) // m
    picks = edges[:-1] + (rng.random(m) * (edges[1:] - edges[:-1])).astype(np.int64)
    picks = rng.permutation(picks - 1).reshape(n_queries, terms_per_query)
    queries = []
    for i, row in enumerate(picks.tolist()):
        text = " ".join(corpus.terms[r] for r in row)
        queries.append(Query(f"q{i:04d}", row, text))
    queries_path.write_text("".join(f"{q.qid}\t{q.text}\n" for q in queries))
    return queries


def graded_qrels(
    rng: np.random.Generator,
    corpus: Corpus,
    queries: list[Query],
    judged_per_query: int,
    qrels_path: Path,
) -> dict[tuple[str, str], int]:
    """Pooled graded judgments, ``qid 0 docid grade``.

    Per query, documents holding query terms get a latent relevance (the
    number of distinct query terms they hold plus half the log of their
    summed term frequency plus Gumbel noise). Four fifths of the pool are
    the top documents by that latent value, graded 3/2/1 for the top 5/15/35
    per cent and 0 below; the rest of the pool are random documents that
    hold no query term, graded 0.
    """
    grades: dict[tuple[str, str], int] = {}
    for q in queries:
        matched = np.zeros(corpus.N, dtype=np.int64)
        tf_sum = np.zeros(corpus.N, dtype=np.int64)
        for r in dict.fromkeys(q.ranks):
            docs, tf = corpus.postings(r)
            matched[docs] += 1
            tf_sum[docs] += tf
        cand = np.flatnonzero(matched)
        latent = matched[cand] + 0.5 * np.log1p(tf_sum[cand]) + rng.gumbel(size=cand.size)
        n_top = min(cand.size, (4 * judged_per_query) // 5)
        top = cand[np.argsort(-latent, kind="stable")[:n_top]]
        cuts = np.ceil(np.array([0.05, 0.20, 0.55]) * n_top).astype(np.int64)
        for pos, d in enumerate(top.tolist()):
            grades[(q.qid, corpus.doc_ids[d])] = 3 - int(np.searchsorted(cuts, pos, side="right"))
        others = np.flatnonzero(matched == 0)
        n_rest = min(others.size, judged_per_query - n_top)
        for d in rng.choice(others, size=n_rest, replace=False).tolist():
            grades[(q.qid, corpus.doc_ids[d])] = 0
    lines = [f"{qid} 0 {doc} {g}\n" for (qid, doc), g in sorted(grades.items())]
    qrels_path.write_text("".join(lines))
    return grades


def yule_counts(rng: np.random.Generator, p: float, n: int, path: Path) -> np.ndarray:
    """Yule-Simon(p) counts by the exponential-geometric mixture: W ~
    Exp(rate p), X | W ~ Geometric(e^-W) on {1, 2, ...}."""
    w = rng.exponential(1.0 / p, size=n)
    x = rng.geometric(np.clip(np.exp(-w), 1e-15, 1.0)).astype(np.int64)
    path.write_text("\n".join(map(str, x.tolist())) + "\n")
    return x


def gaussian_reals(rng: np.random.Generator, mu: float, sd: float, n: int, path: Path) -> np.ndarray:
    """N(mu, sd^2) reals, written with ``repr`` so they read back exactly."""
    x = rng.normal(mu, sd, size=n)
    path.write_text("\n".join(map(repr, x.tolist())) + "\n")
    return x
