"""Document ingestion, inverted index statistics and sample extraction.

The index holds exactly the quantities the ranking formulas read: N,
average document length, collection and document frequencies per term and
per-document term frequencies. They are read as columns only: the same
CSR arrays and string tables are written to disk, loaded back and scanned
by the scorers and the term weights, and ``term_id`` is the one lookup by
name. Construction is single-writer; afterwards the index is immutable and
safe for concurrent readers.
"""

from __future__ import annotations

import bisect
import collections
import itertools
import math
import operator
import os
import string
import struct
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import FormatError, IngestError, UsageError

if TYPE_CHECKING:  # distributions loads only where a Sample is built
    from .distributions import Sample

__all__ = [
    "CorpusStats",
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

# str.translate table: every ASCII character but [a-z0-9] becomes a space.
# tokenize first turns each non-ASCII code point into "?", so splitting the
# translated text yields exactly the runs the pattern [a-z0-9]+ matches
_SPLIT = "".join(
    c if c in string.ascii_lowercase + string.digits else " " for c in map(chr, range(128))
)

_MAGIC = b"ADRX"
_VERSION = 2

# Postings or tokens per step where a whole-array numpy call would copy
# every one of them: a step's copies stay within a few MiB
_CHUNK = 1 << 16
# Postings per step where loading an index casts them to 8-byte integers
# or floats (reduceat, bincount): a step's copies stay within 128 KiB,
# which on a small index is well below the file's size
_CAST_CHUNK = 1 << 13


def tokenize(text: str) -> list[str]:
    """Lowercase, then split into runs of ASCII ``[a-z0-9]``; every other
    character, non-ASCII letters included, separates tokens. There is no
    stop list and no stemming."""
    return text.lower().encode("ascii", "replace").decode("ascii").translate(_SPLIT).split()


@dataclass
class CorpusStats:
    N: int
    total_terms: int
    vocab_size: int

    @property
    def avg_l(self) -> float:
        return self.total_terms / self.N


@dataclass
class QueryRecord:
    query_id: str
    terms: list[str]
    raw_text: str

    def __post_init__(self):
        if not self.terms:
            raise UsageError(f"query {self.query_id!r} is empty after tokenization")


class InvertedIndex:
    """Immutable columnar (CSR) index in the layout :func:`save_index` writes.

    ``doc_table`` and ``term_table`` are the sorted document ids and terms,
    UTF-8 separated by NUL bytes (``doc_ids`` and ``terms`` decode a whole
    table), so a document's position is its rank in id order. ``doc_len``
    (int64) is indexed by position. Term ``t`` owns the postings
    ``offsets[t]:offsets[t + 1]`` of ``post_doc`` (uint32 document
    positions, increasing) and ``post_tf`` (uint32 within-document
    frequencies, each >= 1); ``f_tc`` holds each term's collection
    frequency and its document frequency is the length of its posting
    slice.
    """

    def __init__(self, doc_table, doc_len, term_table, offsets, post_doc, post_tf):
        self.doc_table, self.term_table = doc_table, term_table
        self._doc_at, self._term_at = _string_starts(doc_table), _string_starts(term_table)
        self.doc_len = doc_len
        self.offsets = offsets
        self.post_doc = post_doc
        self.post_tf = post_tf
        self.f_tc = _collection_frequencies(offsets, post_tf)
        self.stats = CorpusStats(len(doc_len), int(doc_len.sum()), len(offsets) - 1)

    doc_ids = property(lambda self: _strings(self.doc_table))
    terms = property(lambda self: _strings(self.term_table))

    def term_id(self, term: str) -> int | None:
        """Position of ``term``, None when absent: UTF-8 sorts in code-point order."""
        key, V = term.encode("utf-8", "surrogatepass"), self.stats.vocab_size
        table, at = self.term_table, memoryview(self._term_at)
        i = bisect.bisect_left(range(V), key, key=lambda i: table[at[i] : at[i + 1] - 1])
        return i if i < V and table[at[i] : at[i + 1] - 1] == key else None

    def doc_ids_at(self, docs: np.ndarray) -> list[str]:
        """The ids at positions ``docs``, gathered from the table and decoded at once."""
        starts = self._doc_at[docs]
        lens = self._doc_at[1:][docs] - starts
        at = np.repeat(starts - lens.cumsum() + lens, lens) + np.arange(lens.sum())
        got = np.frombuffer(self.doc_table, np.uint8).take(at, mode="clip")
        got[lens.cumsum() - 1] = 0  # each id's next byte: a NUL, but past the last id
        return got.tobytes().decode("utf-8").split("\0")[:-1]


def _strings(table) -> tuple[str, ...]:
    return tuple(table.decode("utf-8").split("\0")) if table else ()


def _string_starts(table) -> np.ndarray:
    """Start of each NUL-separated string of ``table``, then its length plus one."""
    nul = np.flatnonzero(np.frombuffer(table, np.uint8) == 0)
    return np.concatenate(([-1], nul, [len(table)])) + 1


def _collection_frequencies(offsets, post_tf) -> np.ndarray:
    """Each term's sum of ``post_tf`` over its postings, as int64.

    reduceat casts its whole input to int64 first, so the terms are summed
    a block at a time; a block holds at most ``_CAST_CHUNK`` postings or
    one term's. Every term owns at least one posting, so each reduceat segment
    is one term's slice.
    """
    f_tc = np.empty(len(offsets) - 1, dtype=np.int64)
    t = 0
    while t < len(f_tc):
        u = max(t + 1, int(np.searchsorted(offsets, offsets[t] + _CAST_CHUNK, "right")) - 1)
        lo, hi = offsets[t], offsets[u]
        f_tc[t:u] = np.add.reduceat(post_tf[lo:hi], offsets[t:u] - lo, dtype=np.int64)
        t = u
    return f_tc


def build_index(documents) -> InvertedIndex:
    """Build the index from an iterable of (doc_id, text) pairs.

    Beside the vocabulary and the documents' ids, then their encoded
    tables, the working set is about 9 bytes a token: one int64 buffer
    that holds each token's term id, then its sort key, then the postings
    (see :func:`_invert`), a byte of run mask, and blocks of ``_CHUNK``
    tokens. The buffer grows by a sixteenth at a time and is cut to the
    exact size twice, so the index keeps no slack.
    """
    vocab = collections.defaultdict(itertools.count().__next__)  # term -> first-seen id
    doc_ids: list[str] = []
    lengths: list[int] = []
    buf = np.empty(0, dtype=np.int64)  # per token, its term's first-seen id
    n_tokens = 0
    batch = []  # the ids not yet in buf: a list grows faster than an array
    for doc_id, text in documents:
        tokens = tokenize(text)
        batch += map(vocab.__getitem__, tokens)
        doc_ids.append(doc_id)
        lengths.append(len(tokens))
        if len(batch) >= _CHUNK:
            n_tokens = _append(buf, n_tokens, batch)
    buf.resize(_append(buf, n_tokens, batch), refcheck=False)
    del batch
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
    N, V = len(doc_ids), len(terms)
    doc_pos = np.empty(N, dtype=np.int32)
    doc_pos[doc_order] = np.arange(N)
    term_key = np.empty(V, dtype=np.int64)  # by first-seen id, the term's sorted position * N
    term_key[np.fromiter(map(vocab.__getitem__, terms), np.int64, V)] = np.arange(0, V * N, N)
    del vocab, terms, doc_ids  # the tables hold every string from here on
    lengths = np.asarray(lengths, dtype=np.int64)
    offsets = _invert(buf, term_key, doc_pos, lengths)
    P = int(offsets[-1])
    buf.resize(P, refcheck=False)  # no view of buf outlived _invert
    post = buf.view(np.uint32)  # the postings' documents, then their frequencies
    return InvertedIndex(doc_table, lengths[doc_order], term_table, offsets, post[:P], post[P:])


def _append(buf, n, batch) -> int:
    """Copy ``batch`` into ``buf`` after its first ``n`` items, and empty
    it; return the new count. ``buf`` grows in place by a sixteenth when
    full, so it must own its data and have no view."""
    k = len(batch)
    if n + k > len(buf):
        buf.resize(n + k + (n >> 4), refcheck=False)
    buf[n : n + k] = np.fromiter(batch, np.int64, k)
    batch.clear()
    return n + k


def _invert(keys, term_key, doc_pos, lengths) -> np.ndarray:
    """Turn ``keys``, each token's first-seen term id in arrival order, into
    the P postings in place, and return the term offsets.

    Sort-based inversion in memory (Zobel and Moffat, "Inverted files for
    text search engines", ACM Computing Surveys 2006), done inside the one
    buffer:
    - each id becomes the token's int64 sort key, term position * N +
      document position (V * N may pass 2**31), a block of documents at a
      time, and the keys are sorted in place;
    - each run of equal keys is a posting, and a mask marks each run's
      last token;
    - a first pass writes each run's document as uint32 over the buffer's
      4-byte words ``[0, P)``. A block's keys are copied out first, and
      its words end before the next block's keys begin;
    - a second pass writes the runs' lengths, read from the mask alone,
      over words ``[P, 2P)``.

    Beside the buffer only the mask holds a byte a token; every other
    temporary holds a block of ``_CHUNK`` tokens, or one document's.
    """
    N, V, n_tokens = len(doc_pos), len(term_key), len(keys)
    bounds = np.zeros(N + 1, dtype=np.int64)  # each document's first token
    np.cumsum(lengths, out=bounds[1:])
    d = 0
    while d < N:  # the documents d:e, at least one, within a block
        e = max(d + 1, int(np.searchsorted(bounds, bounds[d] + _CHUNK, "right")) - 1)
        block = keys[bounds[d] : bounds[e]]
        block[:] = term_key[block]
        block += np.repeat(doc_pos[d:e], lengths[d:e])
        d = e
    keys.sort()
    last = np.empty(n_tokens, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=last[:-1])
    last[-1:] = True
    heads = np.searchsorted(keys, np.arange(0, V * N, N))  # each term's first token
    words = keys.view(np.uint32)
    P = 0
    for a in range(0, n_tokens, _CHUNK):
        run = keys[a : a + _CHUNK][last[a : a + _CHUNK]]
        np.remainder(run, N, out=words[P : P + len(run)], casting="unsafe")
        P += len(run)
    post_tf = words[P : 2 * P]
    offsets = np.empty(V + 1, dtype=np.int64)
    offsets[V] = P
    runs, prev = 0, -1  # the runs ended so far; the last one's last token
    for a in range(0, n_tokens, _CHUNK):
        ends = np.flatnonzero(last[a : a + _CHUNK]) + a
        lo, hi = np.searchsorted(heads, (a, a + _CHUNK))
        offsets[lo:hi] = runs + np.searchsorted(ends, heads[lo:hi])
        if len(ends):
            post_tf[runs : runs + len(ends)] = np.diff(ends, prepend=prev)
            runs, prev = runs + len(ends), ends[-1]
    return offsets


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
    from .distributions import Sample

    return Sample.of(vals, True)


# --------------------------------------------------------------------------
# persistence: the index arrays stored raw, little-endian, after a header
# --------------------------------------------------------------------------

# magic, version, CRC32 of every byte after the CRC field, document count,
# term count, posting count, byte lengths of the doc-id and term tables
_HEADER = struct.Struct("<4sIIIQQQQ")
_CRC_END = 12
# then the arrays doc_len, offsets, post_doc and post_tf, and the two tables
_DTYPES = tuple(map(np.dtype, ("<i8", "<i8", "<u4", "<u4")))


def save_index(index: InvertedIndex, path):
    """Write the index atomically: a temporary file in the destination
    directory is renamed over ``path``, so a failed write leaves any
    previous file intact. The arrays are canonical (sorted ids and terms),
    so the bytes do not depend on ingestion order."""
    arrays = (index.doc_len, index.offsets, index.post_doc, index.post_tf)
    payload = [*map(np.ascontiguousarray, arrays, _DTYPES), index.doc_table, index.term_table]
    counts = (index.stats.N, index.stats.vocab_size, len(index.post_doc), *map(len, payload[4:]))
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
    """Read an index written by :func:`save_index`. The header's magic,
    version and sizes are checked against the file's size before the
    payload is read, so a file that is not an index is rejected without
    reading it whole. The checksum and every structural invariant are
    verified; any problem raises FormatError and no partial index is
    returned."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if head[:4] != _MAGIC:
            raise FormatError("not an index file (bad magic)")
        version = int.from_bytes(head[4:8], "little")
        if len(head) >= 8 and version != _VERSION:
            raise FormatError(f"unsupported index version {version}; re-run ingest")
        if len(head) < _HEADER.size:
            raise FormatError("truncated index file")
        _, _, crc, n_docs, n_terms, n_post, id_bytes, term_bytes = _HEADER.unpack(head)
        counts = (n_docs, n_terms + 1, n_post, n_post)  # Python ints: no size can wrap
        at = list(itertools.accumulate((t.itemsize * n for t, n in zip(_DTYPES, counts)), initial=0))
        size = at[-1] + id_bytes + term_bytes  # every byte after the header
        on_disk = os.fstat(fh.fileno()).st_size - _HEADER.size
        if on_disk < size:
            raise FormatError("truncated index file")
        if on_disk > size:
            raise FormatError("trailing bytes after index payload")
        blob, doc_table, term_table = fh.read(at[-1]), fh.read(id_bytes), fh.read(term_bytes)
    if len(blob) + len(doc_table) + len(term_table) < size:  # the file shrank after fstat
        raise FormatError("truncated index file")
    crc_read = zlib.crc32(blob, zlib.crc32(head[_CRC_END:]))
    if zlib.crc32(term_table, zlib.crc32(doc_table, crc_read)) != crc:
        raise FormatError("index checksum mismatch")
    doc_len, offsets, post_doc, post_tf = map(np.frombuffer, [blob] * 4, _DTYPES, counts, at)
    _verify(doc_table, doc_len, term_table, offsets, post_doc, post_tf)
    return InvertedIndex(doc_table, doc_len, term_table, offsets, post_doc, post_tf)


def _verify(doc_table, doc_len, term_table, offsets, post_doc, post_tf):
    """Raise FormatError unless the tables and arrays hold what build_index
    writes."""
    ids, terms = _scan_table(doc_table), _scan_table(term_table)
    if ids is None or terms is None:
        raise FormatError("index string table is not valid UTF-8")
    # build_index's id rule, d.split() == [d] for every id: an empty id would
    # head the sorted ids, and whitespace would split the decoded table
    if doc_table[:1] in (b"", b"\0") or ids[2]:
        raise FormatError("a document id is empty or contains whitespace; re-run ingest")
    tables = (("document ids", ids, len(doc_len)), ("terms", terms, len(offsets) - 1))
    for name, (keys, rising, _), count in tables:
        if keys != count:
            raise FormatError("index string tables do not match their counts")
        if not rising:
            raise FormatError(f"{name} are not sorted and unique")
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
    # each step's sums are exact integers in float64 below 2**53; bincount
    # casts a step's postings to intp and float64
    step = max(N, _CAST_CHUNK)
    sums = np.zeros(N)
    for at in range(0, len(post_doc), step):
        sums += np.bincount(post_doc[at : at + step], weights=post_tf[at : at + step], minlength=N)
    if np.any(sums != doc_len):
        raise FormatError("document lengths do not match the postings")


def _scan_table(table) -> tuple[int, bool, bool] | None:
    """(keys, rising, spaced) of a NUL-separated string table: its key
    count, whether the keys rise strictly in byte order, which for UTF-8 is
    code-point order, and whether any key holds whitespace; None where the
    table is not UTF-8. The table is read in pieces that each end at the
    first NUL after ``_DIGITS_CHUNK`` bytes, which no other UTF-8 sequence
    holds, and each piece's last key is carried to the next, so the table
    is never split into a list of all its keys."""
    n, rising, spaced, last, pos = 0, True, False, None, 0
    while table and pos <= len(table):
        end = table.find(b"\0", pos + _DIGITS_CHUNK)
        piece = table[pos : end if end >= 0 else len(table)]
        try:
            text = piece.decode("utf-8")
        except UnicodeDecodeError:
            return None
        keys = piece.split(b"\0")
        spaced = spaced or (bool(text) and text.split(None, 1) != [text])
        later = itertools.islice(keys, 1, None)
        rising = rising and (last is None or last < keys[0]) and not any(map(operator.ge, keys, later))
        n, last, pos = n + len(keys), keys[-1], pos + len(piece) + 1
        del piece, text, keys  # before the next piece's are made
    return n, rising, spaced


def read_counts_file(path) -> Sample:
    """One numeric observation per line; empty files are an error.

    Integers are the documented format; real values are accepted but mark
    the sample as non-discrete, which discrete-only operations reject.
    A file of newline-terminated lines of 1 to 15 ASCII digits is counted
    by vectorised arithmetic on its bytes. numpy's C reader parses any
    other file; anything it rejects or reads as negative or non-finite
    goes through the per-line reader, which names the offending line.
    """
    from .distributions import Sample, _is_integral

    counted = _read_digit_lines(path)
    if counted is not None:
        return Sample(*counted, True)
    arr = _load_counts_column(path)
    if arr is None:
        arr = _read_counts_by_line(path)
    # np.unique's distinct values and counts, without its sorted copy: each
    # run of equal values in the array, sorted in place, starts at a True of
    # one boundary mask
    arr.sort()
    first = np.empty(arr.size, dtype=bool)
    first[0] = True
    np.not_equal(arr[1:], arr[:-1], out=first[1:])
    support, starts, n = arr[first], np.flatnonzero(first), arr.size
    del arr, first
    counts = np.empty(starts.size)
    np.subtract(starts[1:], starts[:-1], out=counts[:-1])
    counts[-1] = n - starts[-1]
    del starts
    return Sample(support, counts, _is_integral(support))


# Bytes per parsing step of _read_digit_lines, and per piece of a string
# table that _verify checks. A step holds at most 2**15 lines, so each of
# its temporaries stays within 256 KiB whatever the file's size.
_DIGITS_CHUNK = 1 << 16
_MAX_DIGITS = 15  # 10**15 - 1 < 2**53: every such line is an exact float64


def _read_digit_lines(path) -> tuple[np.ndarray, np.ndarray] | None:
    """The distinct values and float counts of a file of newline-terminated
    lines of 1 to ``_MAX_DIGITS`` ASCII digits, or None for any other file.

    Each line's value is summed in float64 from its last digit up, one
    digit place per step over every line that long. Every partial sum is
    an integer below 2**53, so the value is exactly ``float(line)``. The
    file is read ``_DIGITS_CHUNK`` bytes at a time, each slice ending at its
    last newline. Each slice is counted with ``np.unique`` and the counts
    are merged once at the end, so neither the file nor its values are
    ever held whole.
    """
    counted = []  # per slice, its distinct values and their counts
    with open(path, "rb") as fh:
        data = fh.read(_DIGITS_CHUNK)
        while data:
            end = data.rfind(b"\n") + 1
            if end == 0:  # a line longer than a chunk, or a last line without a newline
                return None
            raw = np.frombuffer(data, dtype=np.uint8, count=end)
            digits = raw - np.uint8(ord("0"))  # a newline or any other byte is above 9
            ends = np.flatnonzero(raw == ord("\n"))
            lens = np.diff(ends, prepend=-1) - 1
            if np.count_nonzero(digits > 9) > ends.size or lens.min() < 1 or lens.max() > _MAX_DIGITS:
                return None
            vals = digits[ends - 1].astype(np.float64)
            for place in range(1, int(lens.max())):
                longer = np.flatnonzero(lens > place)
                vals[longer] += digits[ends[longer] - 1 - place] * float(10**place)
            counted.append(np.unique(vals, return_counts=True))
            data = data[end:] + fh.read(end)
    if not counted:  # an empty file
        return None
    supports, counts = zip(*counted)
    support, at = np.unique(np.concatenate(supports), return_inverse=True)
    return support, np.bincount(at, weights=np.concatenate(counts))


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
