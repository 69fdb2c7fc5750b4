"""Document ingestion, inverted index statistics and sample extraction.

The index holds exactly the quantities the ranking formulas read: N,
average document length, collection and document frequencies per term and
per-document term frequencies. Construction is single-writer; afterwards
the index is immutable and safe for concurrent readers.
"""

from __future__ import annotations

import array
import bisect
import math
import os
import re
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import Sample
from .errors import FormatError, IngestError, UsageError

__all__ = [
    "TokenizerConfig",
    "CorpusStats",
    "TermStats",
    "InvertedIndex",
    "QueryRecord",
    "tokenize",
    "build_index",
    "extract_distribution",
    "save_index",
    "load_index",
    "read_counts_file",
    "iter_documents_from_dir",
    "iter_documents_from_tsv",
]

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_MAGIC = b"ADRX"
_VERSION = 2


@dataclass
class TokenizerConfig:
    stop_words: frozenset[str] = frozenset()
    remove_stop_words: bool = False  # off by default: no stop removal, no stemming


def tokenize(text: str, config: TokenizerConfig | None = None) -> list[str]:
    """Lowercase and split on non-alphanumeric runs."""
    config = config or TokenizerConfig()
    tokens = _TOKEN_RE.findall(text.lower())
    if config.remove_stop_words and config.stop_words:
        tokens = [t for t in tokens if t not in config.stop_words]
    return tokens


@dataclass
class CorpusStats:
    N: int
    total_terms: int
    vocab_size: int

    @property
    def avg_l(self) -> float:
        return self.total_terms / self.N


@dataclass
class TermStats:
    term: str
    f_tc: int  # collection frequency
    n_t: int  # document frequency


@dataclass
class QueryRecord:
    query_id: str
    terms: list[str]
    raw_text: str

    def __post_init__(self):
        if not self.terms:
            raise UsageError(f"query {self.query_id!r} is empty after tokenization")


class InvertedIndex:
    """Immutable columnar (CSR) index; :func:`save_index` writes these arrays.

    ``doc_ids`` and ``terms`` are sorted tuples, so a document's position is
    its rank in id order. ``doc_len`` (int64) is indexed by position. Term
    ``t`` owns the postings ``offsets[t]:offsets[t + 1]`` of ``post_doc``
    (uint32 document positions, increasing) and ``post_tf`` (uint32
    within-document frequencies, each >= 1).
    """

    def __init__(self, doc_ids, doc_len, terms, offsets, post_doc, post_tf):
        self.doc_ids: tuple[str, ...] = tuple(doc_ids)
        self.doc_len = doc_len
        self.terms: tuple[str, ...] = tuple(terms)
        self.offsets = offsets
        self.post_doc = post_doc
        self.post_tf = post_tf
        cum = np.concatenate(([0], np.cumsum(post_tf, dtype=np.int64)))
        self.f_tc = cum[offsets[1:]] - cum[offsets[:-1]]  # collection frequencies
        self.stats = CorpusStats(
            N=len(self.doc_ids),
            total_terms=int(doc_len.sum()),
            vocab_size=len(self.terms),
        )

    @property
    def vocabulary(self) -> tuple[str, ...]:
        return self.terms

    @property
    def doc_lengths(self) -> dict[str, int]:
        return dict(zip(self.doc_ids, self.doc_len.tolist()))

    def term_id(self, term: str) -> int | None:
        """Position of ``term`` in ``terms``, None when it is not indexed."""
        return _find(self.terms, term)

    def doc_position(self, doc_id: str) -> int | None:
        """Position of ``doc_id`` in ``doc_ids``, None when it is unknown."""
        return _find(self.doc_ids, doc_id)

    def _known_term(self, term: str) -> int:
        t = self.term_id(term)
        if t is None:
            raise UsageError(f"term {term!r} not in vocabulary")
        return t

    def term_stats(self, term: str) -> TermStats:
        t = self._known_term(term)
        n_t = int(self.offsets[t + 1] - self.offsets[t])
        return TermStats(term=term, f_tc=int(self.f_tc[t]), n_t=n_t)

    def has_term(self, term: str) -> bool:
        return self.term_id(term) is not None

    def postings(self, term: str) -> dict[str, int]:
        t = self._known_term(term)
        lo, hi = self.offsets[t], self.offsets[t + 1]
        docs = map(self.doc_ids.__getitem__, self.post_doc[lo:hi].tolist())
        return dict(zip(docs, self.post_tf[lo:hi].tolist()))

    def tf(self, term: str, doc_id: str) -> int:
        t, d = self.term_id(term), self.doc_position(doc_id)
        if t is None or d is None:
            return 0
        lo, hi = self.offsets[t], self.offsets[t + 1]
        j = lo + np.searchsorted(self.post_doc[lo:hi], d)
        return int(self.post_tf[j]) if j < hi and self.post_doc[j] == d else 0


def _find(keys: tuple[str, ...], key: str) -> int | None:
    i = bisect.bisect_left(keys, key)
    return i if i < len(keys) and keys[i] == key else None


def build_index(documents, config: TokenizerConfig | None = None) -> InvertedIndex:
    """Build the index from an iterable of (doc_id, text) pairs."""
    vocab: dict[str, int] = {}  # term -> id, in order of first occurrence
    doc_ids: list[str] = []
    lengths: list[int] = []
    token_ids = array.array("q")
    for doc_id, text in documents:
        ids = [vocab.setdefault(tok, len(vocab)) for tok in tokenize(text, config)]
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
        doc_ids,
        np.asarray(lengths, dtype=np.int64)[doc_order],
        [seen[i] for i in term_order],
        offsets,
        (keys % N).astype(np.uint32),
        post_tf.astype(np.uint32),
    )


def extract_distribution(source, prop: str) -> Sample:
    """Pull a discrete Sample of one distributional property.

    ``term_frequency`` and ``document_length`` read an index;
    ``query_frequency`` and ``query_length`` read an iterable of raw query
    strings. Query frequency counts occurrences of distinct normalized
    (lowercased, whitespace-collapsed) query strings; query length counts
    tokens per logged query.
    """
    if prop == "term_frequency":
        vals = source.f_tc
    elif prop == "document_length":
        vals = source.doc_len
    elif prop in ("query_frequency", "query_length"):
        queries = [q for q in source if q.strip()]
        if not queries:
            raise UsageError("empty query log")
        if prop == "query_frequency":
            counts: dict[str, int] = {}
            for q in queries:
                key = " ".join(q.lower().split())
                counts[key] = counts.get(key, 0) + 1
            vals = list(counts.values())
        else:
            vals = [len(tokenize(q)) for q in queries]
    else:
        raise UsageError(f"unknown property {prop!r}")
    if len(vals) == 0:
        raise UsageError("source is empty")
    return Sample(values=np.sort(np.asarray(vals, dtype=np.float64)), is_discrete=True)


# --------------------------------------------------------------------------
# persistence: the index arrays stored raw, little-endian, after a header
# --------------------------------------------------------------------------

# magic, version, CRC32 of every byte after the CRC field, document count,
# term count, posting count, byte lengths of the doc-id and term tables
_HEADER = struct.Struct("<4sIIIQQQQ")
_CRC_END = 12


def save_index(index: InvertedIndex, path):
    """Write the index atomically: a temporary file in the destination
    directory is renamed over ``path``, so a failed write leaves any
    previous file intact. The arrays are canonical (sorted ids and terms),
    so the bytes do not depend on ingestion order."""
    doc_table = "\0".join(index.doc_ids).encode("utf-8")
    term_table = "\0".join(index.terms).encode("utf-8")
    payload = [
        np.ascontiguousarray(index.doc_len, dtype="<i8"),
        np.ascontiguousarray(index.offsets, dtype="<i8"),
        np.ascontiguousarray(index.post_doc, dtype="<u4"),
        np.ascontiguousarray(index.post_tf, dtype="<u4"),
        doc_table,
        term_table,
    ]
    counts = (
        index.stats.N,
        index.stats.vocab_size,
        len(index.post_doc),
        len(doc_table),
        len(term_table),
    )
    crc = zlib.crc32(_HEADER.pack(_MAGIC, _VERSION, 0, *counts)[_CRC_END:])
    for part in payload:
        crc = zlib.crc32(part, crc)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, crc, *counts))
            for part in payload:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_index(path) -> InvertedIndex:
    """Read an index written by :func:`save_index`. The checksum and every
    structural invariant are verified; any problem raises FormatError and
    no partial index is returned."""
    blob = Path(path).read_bytes()
    if blob[:4] != _MAGIC:
        raise FormatError("not an index file (bad magic)")
    version = int.from_bytes(blob[4:8], "little")
    if len(blob) >= 8 and version != _VERSION:
        raise FormatError(f"unsupported index version {version}; re-run ingest")
    if len(blob) < _HEADER.size:
        raise FormatError("truncated index file")
    _, _, crc, n_docs, n_terms, n_post, id_bytes, term_bytes = _HEADER.unpack_from(blob)
    columns = (("<i8", n_docs), ("<i8", n_terms + 1), ("<u4", n_post), ("<u4", n_post))
    ids_at = _HEADER.size + sum(np.dtype(dt).itemsize * n for dt, n in columns)
    terms_at = ids_at + id_bytes
    if len(blob) < terms_at + term_bytes:
        raise FormatError("truncated index file")
    if len(blob) > terms_at + term_bytes:
        raise FormatError("trailing bytes after index payload")
    if zlib.crc32(memoryview(blob)[_CRC_END:]) != crc:
        raise FormatError("index checksum mismatch")
    arrays, at = [], _HEADER.size
    for dtype, count in columns:
        arrays.append(np.frombuffer(blob, dtype=dtype, count=count, offset=at))
        at += arrays[-1].nbytes
    doc_len, offsets, post_doc, post_tf = arrays
    try:
        doc_ids = blob[ids_at:terms_at].decode("utf-8").split("\0")
        terms = blob[terms_at:].decode("utf-8").split("\0") if n_terms else []
    except UnicodeDecodeError:
        raise FormatError("index string table is not valid UTF-8") from None
    if len(doc_ids) != n_docs or len(terms) != n_terms:
        raise FormatError("index string tables do not match their counts")
    _verify(doc_ids, doc_len, terms, offsets, post_doc, post_tf)
    return InvertedIndex(doc_ids, doc_len, terms, offsets, post_doc, post_tf)


def _verify(doc_ids, doc_len, terms, offsets, post_doc, post_tf):
    """Raise FormatError unless the arrays hold what build_index writes."""
    for name, keys in (("document ids", doc_ids), ("terms", terms)):
        if any(a >= b for a, b in zip(keys, keys[1:])):
            raise FormatError(f"{name} are not sorted and unique")
    if offsets[0] != 0 or offsets[-1] != len(post_doc) or np.any(np.diff(offsets) <= 0):
        raise FormatError("term offsets must rise from 0 to the posting count")
    if np.any(post_doc >= len(doc_ids)):
        raise FormatError("posting references unknown document")
    rising = post_doc[1:] > post_doc[:-1]
    rising[offsets[1:-1] - 1] = True  # a term's first posting may fall
    if not rising.all():
        raise FormatError("postings of a term are not strictly increasing")
    if np.any(post_tf < 1):
        raise FormatError("posting with zero term frequency")
    sums = np.bincount(post_doc, weights=post_tf, minlength=len(doc_ids))
    if np.any(sums != doc_len):
        raise FormatError("document lengths do not match the postings")


def read_counts_file(path) -> Sample:
    """One numeric observation per line; empty files are an error.

    Integers are the documented format; real values are accepted but mark
    the sample as non-discrete, which discrete-only operations reject.
    numpy's C reader parses the file; anything it rejects or reads as
    negative or non-finite goes through the per-line reader, which names
    the offending line.
    """
    arr = _load_counts_column(path)
    if arr is None:
        arr = _read_counts_by_line(path)
    return Sample(values=arr, is_discrete=bool(np.all(arr == np.floor(arr))))


def _load_counts_column(path) -> np.ndarray | None:
    try:
        with Path(path).open() as fh, warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arr = np.loadtxt(fh, dtype=np.float64, comments=None, delimiter=",", ndmin=2)
    except ValueError:
        return None
    if arr.shape[1] != 1 or arr.size == 0 or not np.all(np.isfinite(arr) & (arr >= 0.0)):
        return None
    return arr.ravel()


def _read_counts_by_line(path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            v = float(line)
        except ValueError:
            raise FormatError(f"line {lineno}: not a number: {line!r}") from None
        if not math.isfinite(v):
            raise FormatError(f"line {lineno}: not a finite number: {line!r}")
        if v < 0:
            raise FormatError(f"line {lineno}: negative count {line!r}")
        values.append(v)
    if not values:
        raise FormatError("counts file holds no observations")
    return np.asarray(values, dtype=np.float64)


def iter_documents_from_dir(path):
    """Plain-text corpus: one file per document, file stem = doc id."""
    root = Path(path)
    files = sorted(p for p in root.iterdir() if p.is_file())
    if not files:
        raise IngestError(f"no files under {root}")
    for p in files:
        yield p.stem, p.read_text(encoding="utf-8", errors="replace")


def iter_documents_from_tsv(path):
    """Line-delimited corpus: doc_id <TAB> text."""
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise FormatError(f"line {lineno}: expected doc_id<TAB>text")
            doc_id, text = line.split("\t", 1)
            yield doc_id, text
