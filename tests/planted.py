"""Synthetic corpus builders shared by the test suite.

The planted retrieval corpus has three ingredients: a noise vocabulary
whose collection frequencies are i.i.d. Yule-Simon draws (materialized
exactly, token by token), a handful of disjoint query-term sets, and per
query a block of relevant documents carrying every query term at five
times the per-term density of the distractor documents, which carry
exactly one query term each. Noise documents never contain query terms,
so the candidate set of each query is fully controlled.

The crossover corpus is six one-term queries on which only the middle of
a grid of c values ranks every relevant document first.
"""

from __future__ import annotations

import numpy as np

from adrank import ModelId, RandomSource, random_variates

DOC_LEN = 30
REL_PER_QUERY = 20
DIS_PER_QUERY = 100
TERMS_PER_QUERY = 5
REL_TF = 5  # per query term; distractors carry one term once: 5x density


def build_planted_corpus(
    seed: int = 777,
    n_docs: int = 10_000,
    n_queries: int = 3,
    vocab: int = 100_000,
    yule_p: float = 1.5,
):
    """Returns (documents, queries, qrels_grades, noise_counts).

    ``documents`` is a list of (doc_id, text); ``queries`` a list of
    (query_id, text); ``qrels_grades`` maps (query_id, doc_id) to 0/1 for
    every planted document; ``noise_counts`` is the exact multiset of
    noise-term collection frequencies (the Yule draws).
    """
    # term i gets the i-th draw
    draws = random_variates(ModelId.YULE_SIMON, {"p": yule_p}, vocab, RandomSource(seed))
    counts = draws.astype(np.int64)
    terms = np.array([f"w{i:06d}" for i in range(vocab)])
    stream = np.repeat(terms, counts)
    gen = np.random.Generator(np.random.PCG64(seed + 1))
    gen.shuffle(stream)

    pos = 0

    def take(k: int) -> list[str]:
        nonlocal pos
        if pos + k > stream.size:
            raise RuntimeError("noise stream exhausted; enlarge the vocabulary")
        chunk = stream[pos : pos + k]
        pos += k
        return list(chunk)

    documents: list[tuple[str, str]] = []
    queries: list[tuple[str, str]] = []
    grades: dict[tuple[str, str], int] = {}
    doc_no = 0

    def add_doc(tokens: list[str]) -> str:
        nonlocal doc_no
        doc_id = f"d{doc_no:05d}"
        documents.append((doc_id, " ".join(tokens)))
        doc_no += 1
        return doc_id

    for q in range(n_queries):
        qid = f"q{q}"
        qterms = [f"qterm{q}x{j}" for j in range(TERMS_PER_QUERY)]
        queries.append((qid, " ".join(qterms)))
        planted_tf = TERMS_PER_QUERY * REL_TF
        for _ in range(REL_PER_QUERY):
            tokens = take(DOC_LEN - planted_tf) + [t for t in qterms for _ in range(REL_TF)]
            grades[(qid, add_doc(tokens))] = 1
        for i in range(DIS_PER_QUERY):
            tokens = take(DOC_LEN - 1) + [qterms[i % TERMS_PER_QUERY]]
            grades[(qid, add_doc(tokens))] = 0

    # spread the remaining noise stream over the noise documents, keeping
    # the collection frequency of every noise term exactly equal to its draw
    remaining_docs = n_docs - doc_no
    remaining_tokens = stream.size - pos
    base = remaining_tokens // remaining_docs
    extra = remaining_tokens - base * remaining_docs
    for i in range(remaining_docs):
        add_doc(take(base + (1 if i < extra else 0)))

    return documents, queries, grades, sorted(int(c) for c in counts)


def build_crossover_corpus():
    """Six queries engineered so the middle of the c grid wins.

    Low c under-normalizes the long relevant documents of the a-type
    queries; large c over-boosts the short non-relevant documents of
    the b-type queries; c = 1 is the only grid value that ranks every
    relevant document first.

    Returns (index, queries, qrels_grades, factory), where ``factory`` maps
    c to a ranking configuration that reads it.
    """
    from adrank.corpus import QueryRecord, build_index
    from adrank.ranking import ParamScheme, RankingConfig

    docs = []
    grades = {}
    queries = []
    avg = 100
    for i in range(3):
        # a-type: relevant doc repeats the term in a doc at twice the
        # average length, the non-relevant one carries a single mention
        # in a short document; small c under-compensates the length
        term = f"alpha{i}"
        docs.append((f"a{i}rel", " ".join([term] * 3 + ["pad"] * (2 * avg - 3))))
        docs.append((f"a{i}non", " ".join([term] + ["pad"] * 49)))
        qid = f"q{2 * i}a"
        queries.append(QueryRecord(qid, [term], term))
        grades[(qid, f"a{i}rel")] = 1
        grades[(qid, f"a{i}non")] = 0
        # b-type: relevant single mention at the average length versus
        # a double mention in a much longer document
        term = f"beta{i}"
        docs.append((f"b{i}rel", " ".join([term] + ["pad"] * (avg - 1))))
        docs.append((f"b{i}non", " ".join([term] * 2 + ["pad"] * (250 - 2))))
        qid = f"q{2 * i + 1}b"
        queries.append(QueryRecord(qid, [term], term))
        grades[(qid, f"b{i}rel")] = 1
        grades[(qid, f"b{i}non")] = 0
    # filler documents pin the average length near `avg`
    need = 30
    for j in range(need):
        docs.append((f"fill{j}", " ".join(["pad"] * avg)))
    index = build_index(docs)

    def factory(c):
        return RankingConfig(
            "LL",
            first_norm="none",
            second_norm="logarithmic",
            scheme=ParamScheme("fixed", 0.01),
            c=c,
        )

    return index, queries, grades, factory
