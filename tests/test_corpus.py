"""Tokenization, index construction, extraction and persistence."""

import struct
import zlib

import numpy as np
import pytest

from adrank import corpus
from adrank.cli import main
from adrank.corpus import (
    InvertedIndex,
    QueryRecord,
    build_index,
    extract_distribution,
    iter_documents_from_dir,
    iter_documents_from_tsv,
    load_index,
    read_counts_file,
    save_index,
    tokenize,
)
from adrank.distributions import ModelId, random_variates
from adrank.errors import FormatError, IngestError, UsageError
from adrank.numerics import RandomSource
from adrank.weighting import term_weights
from memory import peak_and_retained
from planted import build_planted_corpus


def assert_same_index(a, b):
    assert a.doc_table == b.doc_table and a.term_table == b.term_table and a.stats == b.stats
    for name in ("doc_len", "offsets", "post_doc", "post_tf", "f_tc"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def observations(sample):
    """A sample's observations in ascending order."""
    return np.repeat(sample.support, sample.counts.astype(np.int64))


class TestTokenize:
    def test_lowercase_and_split(self):
        assert tokenize("A b, a!") == ["a", "b", "a"]

    def test_empty(self):
        assert tokenize("") == []

    def test_apostrophe_and_digits(self):
        assert tokenize("It's 42") == ["it", "s", "42"]


class TestBuildIndex:
    def test_hand_counts(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        assert idx.stats.N == 2
        assert idx.stats.avg_l == 2.5
        assert idx.stats.total_terms == 5
        assert idx.doc_ids == ("d1", "d2") and idx.terms == ("a", "b", "c")
        assert [idx.term_id(t) for t in ("a", "b", "c", "z")] == [0, 1, 2, None]
        assert idx.f_tc.tolist() == [2, 2, 1]
        assert np.diff(idx.offsets).tolist() == [1, 2, 1]  # n_t
        assert idx.doc_len.tolist() == [3, 2]
        # a: tf 2 in d1 and absent from d2; b: tf 1 in both; c: tf 1 in d2
        assert idx.post_doc.tolist() == [0, 0, 1, 1]
        assert idx.post_tf.tolist() == [2, 1, 1, 1]

    def test_empty_corpus_rejected(self):
        with pytest.raises(IngestError):
            build_index([])

    def test_duplicate_doc_id(self):
        with pytest.raises(IngestError):
            build_index([("d1", "a"), ("d1", "b")])

    def test_single_doc_idf_zero_downstream(self):
        idx = build_index([("d1", "x")])
        assert term_weights("x", idx).idf == 0.0

    def test_order_independence(self):
        docs = [("d1", "a b a"), ("d2", "b c"), ("d3", "c c c a")]
        assert_same_index(build_index(docs), build_index(list(reversed(docs))))

    def test_conservation(self):
        docs = [("d1", "a b a"), ("d2", "b c d e"), ("d3", "e")]
        idx = build_index(docs)
        total_from_terms = int(idx.f_tc.sum())
        assert total_from_terms == int(idx.doc_len.sum())
        assert total_from_terms == idx.stats.total_terms

    def test_stats_invariant(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        assert idx.stats.avg_l * idx.stats.N == idx.stats.total_terms


class TestExtractDistribution:
    def test_term_frequency(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        sample = extract_distribution(idx, "term_frequency")
        assert observations(sample).tolist() == [1.0, 2.0, 2.0]
        assert sample.is_discrete
        assert sample.n == idx.stats.vocab_size

    def test_document_length(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        sample = extract_distribution(idx, "document_length")
        assert observations(sample).tolist() == [2.0, 3.0]

    def test_query_log_properties(self):
        log = ["a b", "a b", "c"]
        qf = extract_distribution(log, "query_frequency")
        assert observations(qf).tolist() == [1.0, 2.0]
        ql = extract_distribution(log, "query_length")
        assert observations(ql).tolist() == [1.0, 2.0, 2.0]

    def test_query_normalization(self):
        log = ["New  York", "new york"]
        qf = extract_distribution(log, "query_frequency")
        assert observations(qf).tolist() == [2.0]

    def test_unknown_property(self):
        idx = build_index([("d1", "a")])
        with pytest.raises(UsageError):
            extract_distribution(idx, "nope")


class TestPersistence:
    def test_round_trip_small(self, tmp_path):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        path = tmp_path / "small.idx"
        save_index(idx, path)
        assert_same_index(load_index(path), idx)

    def test_round_trip_generated_corpus(self, tmp_path):
        rng = RandomSource(11)
        lengths = random_variates(ModelId.POISSON, {"lam": 30.0}, 2000, rng)
        gen = rng.generator
        vocab = np.array([f"t{i:05d}" for i in range(5000)])
        probs = np.arange(1, 5001, dtype=np.float64) ** -1.1
        probs /= probs.sum()
        docs = []
        for i, length in enumerate(lengths.astype(int)):
            toks = gen.choice(vocab, size=max(int(length), 1), p=probs)
            docs.append((f"doc{i:05d}", " ".join(toks)))
        idx = build_index(docs)
        path = tmp_path / "gen.idx"
        save_index(idx, path)
        assert_same_index(load_index(path), idx)

    def test_save_is_ingestion_order_independent(self, tmp_path):
        docs = [("d1", "a b a"), ("d2", "b c"), ("d3", "z")]
        save_index(build_index(docs), tmp_path / "a.idx")
        save_index(build_index(list(reversed(docs))), tmp_path / "b.idx")
        assert (tmp_path / "a.idx").read_bytes() == (tmp_path / "b.idx").read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_index(path)

    def test_truncation(self, tmp_path):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        path = tmp_path / "trunc.idx"
        save_index(idx, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(FormatError):
            load_index(path)

    def test_trailing_garbage(self, tmp_path):
        idx = build_index([("d1", "a")])
        path = tmp_path / "trail.idx"
        save_index(idx, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_index(path)

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_blocked_sums_match_whole_array_sums(self, tmp_path, monkeypatch, chunk):
        # f_tc and load's per-document sums go a block of postings at a
        # time; blocks this small split the postings at many places
        monkeypatch.setattr(corpus, "_CHUNK", chunk)
        index = build_index(_zipf_documents(5, 20, 30, seed=5))
        cum = np.concatenate(([0], np.cumsum(index.post_tf, dtype=np.int64)))
        assert index.f_tc.tolist() == (cum[index.offsets[1:]] - cum[index.offsets[:-1]]).tolist()
        path = tmp_path / "blocks.idx"
        save_index(index, path)
        assert_same_index(load_index(path), index)
        doc_len = index.doc_len.copy()
        doc_len[-1] += 1
        with pytest.raises(FormatError, match="lengths"):
            corpus._verify(index.doc_table, doc_len, index.term_table, index.offsets, index.post_doc, index.post_tf)


class TestCountsFile:
    def test_integers(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("3\n1\n\n2\n")
        sample = read_counts_file(path)
        assert observations(sample).tolist() == [1.0, 2.0, 3.0]
        assert sample.is_discrete

    def test_reals_marked_continuous(self, tmp_path):
        path = tmp_path / "real.txt"
        path.write_text("1.5\n2.0\n")
        assert not read_counts_file(path).is_discrete

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1\n-2\n")
        with pytest.raises(FormatError):
            read_counts_file(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("1\ntwo\n")
        with pytest.raises(FormatError):
            read_counts_file(path)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, bad):
        path = tmp_path / "nonfinite.txt"
        path.write_text(f"1\n2\n{bad}\n3\n")
        with pytest.raises(FormatError, match="line 3: not a finite number"):
            read_counts_file(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(FormatError):
            read_counts_file(path)

    # numpy's reader rejects or flags each of these; the per-line reader
    # then reports the line
    @pytest.mark.parametrize(
        "text, message",
        [
            ("1,2\n", "line 1: not a number: '1,2'"),
            ("3\n1 2\n", "line 2: not a number: '1 2'"),
            ("# c\n", "line 1: not a number: '# c'"),
            ("1\nnan\n", "line 2: not a finite number: 'nan'"),
            ("-3\n", "line 1: negative count '-3'"),
            ("", "counts file holds no observations"),
            (" \n\n\t\n", "counts file holds no observations"),
        ],
    )
    def test_rejection_messages(self, tmp_path, text, message):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(FormatError) as err:
            read_counts_file(path)
        assert str(err.value) == message

    # the digit-line fast path declines each of these, which reach numpy's
    # reader and the per-line reader as before
    @pytest.mark.parametrize(
        "data, want, code",
        [
            (b"3\n1\n\n2\n", [1.0, 2.0, 3.0], 0),  # a blank line
            (b"\n", "counts file holds no observations", 2),
            (b"", "counts file holds no observations", 2),
            (b"1\r\n2\r\n", [1.0, 2.0], 0),
            (b"1\n2", [1.0, 2.0], 0),  # no newline at the end
            (b"1234567890123456\n7\n", [7.0, 1234567890123456.0], 0),  # 16 digits
            (b"1\n+5\n", [1.0, 5.0], 0),
            (b" 5\n6\n", [5.0, 6.0], 0),
            (b"5 \n6\n", [5.0, 6.0], 0),
            (b"1.0\n2\n", [1.0, 2.0], 0),
            (b"-1\n2\n", "line 1: negative count '-1'", 2),
            ("\u0663\n4\n".encode(), [3.0, 4.0], 0),  # an Arabic-Indic 3, which float() reads
            (b"\xff\n", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte", 2),
        ],
    )
    def test_other_files_reach_the_previous_readers(self, tmp_path, capsys, data, want, code):
        path = tmp_path / "other.txt"
        path.write_bytes(data)
        assert corpus._read_digit_lines(path) is None
        try:
            got = observations(read_counts_file(path)).tolist()
        except (FormatError, UnicodeError) as exc:
            got = str(exc)
        assert got == want
        capsys.readouterr()
        assert main(["fit", "--input", str(path), "--models", "geometric"]) == code
        err = [line for line in capsys.readouterr().err.splitlines() if not line.startswith("#")]
        assert err == ([f"data error: {want}"] if code else [])

    def test_digit_lines_across_chunks(self, tmp_path):
        values = np.random.default_rng(3).integers(0, 10**15, size=60_000)
        text = "".join(f"{v:0{1 + v % 15}d}\n" for v in values.tolist())
        path = tmp_path / "big.txt"
        path.write_text(text)
        assert len(text) > 2 * corpus._DIGITS_CHUNK
        support, counts = corpus._read_digit_lines(path)
        want = np.unique(values.astype(np.float64), return_counts=True)
        assert support.tobytes() == want[0].tobytes()
        assert counts.tobytes() == want[1].astype(np.float64).tobytes()
        sample = read_counts_file(path)
        assert sample.support.tobytes() == support.tobytes()
        assert sample.counts.tobytes() == counts.tobytes()

    def test_underscore_digits_accepted(self, tmp_path):
        path = tmp_path / "underscore.txt"
        path.write_text("1_000\n2\n")
        sample = read_counts_file(path)
        assert observations(sample).tolist() == [2.0, 1000.0]
        assert sample.is_discrete


class TestDocumentReaders:
    def test_dir_reader(self, tmp_path):
        (tmp_path / "docA.txt").write_text("alpha beta")
        (tmp_path / "docB.txt").write_text("gamma")
        docs = list(iter_documents_from_dir(tmp_path))
        assert docs == [("docA", "alpha beta"), ("docB", "gamma")]

    def test_tsv_reader(self, tmp_path):
        path = tmp_path / "corpus.tsv"
        path.write_text("d1\ta b\nd2\tc\n")
        assert list(iter_documents_from_tsv(path)) == [("d1", "a b"), ("d2", "c")]

    def test_tsv_missing_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1 no tab here\n")
        with pytest.raises(FormatError):
            list(iter_documents_from_tsv(path))


class TestQueryRecord:
    def test_empty_after_tokenization_rejected(self):
        with pytest.raises(UsageError):
            QueryRecord("q1", [], "!!!")


class TestIndexFormat:
    """ADRX v2: a failed save keeps the old file; load verifies every invariant."""

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "keep.idx"
        save_index(build_index([("d1", "a b a")]), path)
        before = path.read_bytes()
        real_open = open

        class DiskFull:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(bytes(data)[:3])
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(corpus, "open", DiskFull, raising=False)
        with pytest.raises(OSError):
            save_index(build_index([("d2", "c d")]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["keep.idx"]

    def test_version_1_file_needs_reingest(self, tmp_path):
        path = tmp_path / "v1.idx"
        path.write_bytes(b"ADRX" + struct.pack("<II", 1, 0))
        with pytest.raises(FormatError, match="unsupported index version 1; re-run ingest"):
            load_index(path)

    def test_id_utf8_cannot_encode_named(self):
        # a lone surrogate, as an undecodable file name's stem holds, sorted
        # between two ids that encode
        with pytest.raises(IngestError, match=r"document id '\\udcffdoc' cannot be encoded as UTF-8"):
            build_index([("\U0001f600", "x"), ("\udcffdoc", "y"), ("a", "z")])

    def test_nul_in_doc_id_rejected(self):
        with pytest.raises(IngestError):
            build_index([("a\0b", "x")])

    @pytest.mark.parametrize("doc_id", ["", " ", "doc 1", "d1 ", "\td1", "a\nb", "a\xa0b", "a\x85b"])
    def test_id_a_run_file_would_split_rejected(self, doc_id):
        # run lines are split on whitespace, so such an id could not be read back
        with pytest.raises(IngestError, match="empty or contains whitespace"):
            build_index([("d0", "x"), (doc_id, "y")])

    @pytest.mark.parametrize("doc_id", ["", "doc 1", "d1 ", "d1\t2", "d1\xa02", "d1\x1f2"])
    def test_id_a_run_file_would_split_rejected_on_load(self, tmp_path, doc_id):
        # an index file written before build_index checked ids: save_index
        # writes the tables it is given, so the id rule is bypassed here
        index = build_index([("d0", "apple banana"), ("d1", "banana cherry")])
        doc_table = "\0".join(sorted(("d0", doc_id))).encode("utf-8")
        index = InvertedIndex(
            doc_table, index.doc_len, index.term_table, index.offsets, index.post_doc, index.post_tf
        )
        path = tmp_path / "old.idx"
        save_index(index, path)
        with pytest.raises(FormatError, match="empty or contains whitespace; re-run ingest"):
            load_index(path)

    # the two-document index below has N=2, V=3 (a, b, c) and P=4 postings
    # a:[d1 x2], b:[d1, d2], c:[d2]; each patch breaks one invariant and the
    # checksum is recomputed, so only the structural checks can catch it
    @pytest.mark.parametrize(
        "patch, message",
        [
            (lambda c: c["ids"].__setitem__(slice(None), b"d2\0d1"), "not sorted"),
            (lambda c: c["terms"].__setitem__(slice(None), b"a\0a\0c"), "not sorted"),
            (lambda c: c["ids"].__setitem__(slice(None), b"d1xd2"), "counts"),
            (lambda c: c["ids"].__setitem__(0, 0xFF), "UTF-8"),
            (lambda c: c["offsets"].__setitem__(1, 0), "offsets"),
            (lambda c: c["offsets"].__setitem__(3, 3), "offsets"),
            (lambda c: c["post_doc"].__setitem__(3, 7), "unknown document"),
            (lambda c: c["post_doc"].__setitem__(slice(1, 3), [1, 0]), "increasing"),
            (lambda c: c["post_tf"].__setitem__(2, 0), "zero term frequency"),
            (lambda c: c["doc_len"].__setitem__(0, 4), "lengths"),
        ],
    )
    def test_structural_corruption_rejected(self, tmp_path, patch, message):
        path = tmp_path / "c.idx"
        save_index(build_index([("d1", "a b a"), ("d2", "b c")]), path)
        blob = bytearray(path.read_bytes())
        at = 48  # header size; the CRC sits at bytes 8:12
        cols = {}
        for name, dtype, count in (
            ("doc_len", "<i8", 2),
            ("offsets", "<i8", 4),
            ("post_doc", "<u4", 4),
            ("post_tf", "<u4", 4),
        ):
            cols[name] = np.frombuffer(blob, dtype=dtype, count=count, offset=at)
            at += cols[name].nbytes
        cols["ids"] = memoryview(blob)[at : at + 5]
        cols["terms"] = memoryview(blob)[at + 5 :]
        patch(cols)
        cols.clear()
        blob[8:12] = struct.pack("<I", zlib.crc32(blob[12:]))
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=message):
            load_index(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "crc.idx"
        save_index(build_index([("d1", "a b a"), ("d2", "b c")]), path)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="checksum"):
            load_index(path)

    @pytest.fixture
    def bytes_read(self, monkeypatch):
        """The size of every read made through corpus's ``open``."""
        real_open = open
        sizes = []

        class Spy:
            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def fileno(self):
                return self.fh.fileno()

            def write(self, data):
                return self.fh.write(data)

            def read(self, size=-1):
                data = self.fh.read(size)
                sizes.append(len(data))
                return data

        monkeypatch.setattr(corpus, "open", Spy, raising=False)
        return sizes

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda idx: b"d1\t" + b"word " * 200_000, "bad magic"),
            (lambda idx: idx[:4] + struct.pack("<I", 1) + idx[8:], "unsupported index version 1"),
            (lambda idx: idx[:24] + struct.pack("<Q", 1 << 40) + idx[32:], "truncated"),
            (lambda idx: idx + bytes(1 << 20), "trailing bytes"),
        ],
    )
    def test_header_checked_before_the_payload_is_read(self, tmp_path, capsys, bytes_read, make, message):
        # a wrong path, such as the corpus itself, must not be read whole
        path = tmp_path / "x.idx"
        save_index(build_index([("d1", "a b a"), ("d2", "b c")]), path)
        path.write_bytes(make(path.read_bytes()))
        assert main(["stats", "--index", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert 0 < sum(bytes_read) <= 48

    def test_load_reads_each_byte_once(self, tmp_path, bytes_read):
        path = tmp_path / "ok.idx"
        index = build_index([("d1", "a b a"), ("d2", "b c")])
        save_index(index, path)
        assert_same_index(load_index(path), index)
        assert sum(bytes_read) == path.stat().st_size


def _zipf_documents(n_docs, length, vocab, seed):
    """Documents of ``length`` i.i.d. Zipf(1) words over ``vocab`` ranks."""
    gen = np.random.default_rng(seed)
    cdf = np.cumsum(1.0 / np.arange(1, vocab + 1))
    words = np.array([f"w{i:05d}" for i in gen.permutation(vocab)])
    ranks = np.searchsorted(cdf, gen.random((n_docs, length)) * cdf[-1]).clip(max=vocab - 1)
    return [(f"d{i:05d}", " ".join(words[row])) for i, row in enumerate(ranks)]


class TestMemory:
    """Peak memory of building and loading an index.

    On 5 000 documents of 150 words over 50 000 ranks (over 5e5 postings),
    the one-buffer build peaks at 18.4 bytes a token and the load at 1.5
    bytes a file byte; the bounds, 24.0 and 2.1, were set a tenth above an
    earlier blocked build's 21.8 and 1.9. Copying every posting at once to
    int64 or float64 (np.unique, cumsum, bincount) measured 41.4 and 3.4.
    That vocabulary's strings are much of the build's peak; over 2 000 ranks
    the buffer sets it (see ``test_build_peak_with_a_small_vocabulary``)."""

    def test_build_and_load_peaks(self, tmp_path):
        docs = _zipf_documents(5_000, 150, 50_000, seed=19)
        index, build_peak, _ = peak_and_retained(build_index, docs)
        assert len(index.post_doc) >= 500_000
        path = tmp_path / "zipf.idx"
        save_index(index, path)
        loaded, load_peak, _ = peak_and_retained(load_index, path)
        assert_same_index(loaded, index)
        assert build_peak / index.stats.total_terms < 24.0
        assert load_peak / path.stat().st_size < 2.1

    def test_build_peak_with_a_small_vocabulary(self):
        """With 2 000 ranks the build's peak is its per-token working set:
        11.7 bytes a token, the 8-byte buffer that holds the term ids, then
        the sort keys, then the postings, a byte of run mask and blocks of
        ``_CHUNK`` tokens. The whole-array build, a list of ids, then int32
        ids beside int64 keys, then the keys beside the distinct ones,
        measured 14.4. Both retain 5.2 bytes a token: the index's own
        arrays and tables, and nothing more."""
        docs = _zipf_documents(5_000, 150, 2_000, seed=19)
        index, peak, retained = peak_and_retained(build_index, docs)
        assert peak / index.stats.total_terms < 12.5
        arrays = ("doc_len", "offsets", "post_doc", "post_tf", "f_tc", "_doc_at", "_term_at")
        own = sum(getattr(index, name).nbytes for name in arrays) + len(index.doc_table) + len(index.term_table)
        assert retained < 1.01 * own

    def test_short_terms_retained(self, tmp_path):
        """A planted index (2 000 documents, 20 015 terms of 5 to 9
        characters) keeps its string tables as the file's bytes: 1.42
        bytes retained per file byte, against 2.93 when every term and id
        was its own str."""
        path = tmp_path / "planted.idx"
        save_index(build_index(build_planted_corpus(n_docs=2_000, vocab=20_000)[0]), path)
        index, _, retained = peak_and_retained(load_index, path)
        assert index.stats.vocab_size > 20_000
        assert retained / path.stat().st_size < 2.0

    def test_counts_file_peak_and_retained(self, tmp_path):
        """Reading 300 000 Yule draws (a 0.6 MB file, 10 slices, 310
        distinct values): tracemalloc peak 3.24 bytes per file byte and
        0.013 retained, against 8.82 and 3.93 when the reader held every
        value in a float64 array and ``Sample`` sorted a copy of it."""
        draws = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, 300_000, RandomSource(29))
        path = tmp_path / "counts.txt"
        path.write_text("".join(f"{int(v)}\n" for v in draws))
        size = path.stat().st_size
        assert size > 8 * corpus._DIGITS_CHUNK
        sample, peak, retained = peak_and_retained(read_counts_file, path)
        assert sample.n == 300_000
        assert peak / size < 4.0
        assert retained / size < 0.1

    def test_planted_load_peak(self, tmp_path):
        """Loading the planted index (2 000 documents, 20 015 terms, 0.8 MB)
        peaks at 1.65 bytes per file byte: the file's bytes, and beside them
        one piece of a string table and its keys, or a step of postings cast
        to 8 bytes. Splitting each table into a list of all its keys, and
        casting 65 536 postings a step, measured 2.41."""
        path = tmp_path / "planted.idx"
        save_index(build_index(build_planted_corpus(n_docs=2_000, vocab=20_000)[0]), path)
        index, peak, _ = peak_and_retained(load_index, path)
        assert index.stats.vocab_size > 20_000
        assert peak / path.stat().st_size < 1.8

    def test_digit_file_read_a_chunk_at_a_time(self, tmp_path):
        """A 2 MB file of 10^6 Yule draws peaks at 0.73 bytes per file
        byte, one ``_DIGITS_CHUNK``'s working set; reading the file whole
        measured 1.70."""
        draws = random_variates(ModelId.YULE_SIMON, {"p": 1.5}, 1_000_000, RandomSource(29))
        path = tmp_path / "counts.txt"
        path.write_text("".join(f"{int(v)}\n" for v in draws))
        size = path.stat().st_size
        assert size >= 2_000_000
        sample, peak, _ = peak_and_retained(read_counts_file, path)
        assert sample.n == 1_000_000 and sample.is_discrete
        assert peak / size < 1.0

    def test_reals_file_peak(self, tmp_path):
        """2e5 distinct N(100, 15^2) reals written with ``repr`` (3.7 MB)
        peak at 25.0 bytes per value: the array numpy reads, sorted in
        place (8), its boundary mask (1), and the distinct values and their
        run starts (8 + 8). Counting them with ``np.unique``, which sorts a
        copy, measured 42.0."""
        values = np.random.default_rng(902).normal(100.0, 15.0, 200_000)
        path = tmp_path / "reals.txt"
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        sample, peak, _ = peak_and_retained(read_counts_file, path)
        assert sample.support.size == values.size and not sample.is_discrete
        assert peak / values.size < 30.0
