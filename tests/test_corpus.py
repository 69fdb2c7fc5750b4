"""Tokenization, index construction, extraction and persistence."""

import struct
import zlib

import numpy as np
import pytest

from adrank import corpus
from adrank.corpus import (
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
from adrank.distributions import ModelId, random_sample
from adrank.errors import FormatError, IngestError, UsageError
from adrank.numerics import RandomSource
from adrank.weighting import term_weights


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
        assert idx.term_stats("a").f_tc == 2
        assert idx.term_stats("a").n_t == 1
        assert idx.term_stats("b").f_tc == 2
        assert idx.term_stats("b").n_t == 2
        assert idx.doc_lengths["d1"] == 3
        assert idx.tf("a", "d1") == 2
        assert idx.tf("a", "d2") == 0

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
        idx1 = build_index(docs)
        idx2 = build_index(list(reversed(docs)))
        assert idx1.stats == idx2.stats
        for t in idx1.vocabulary:
            assert idx1.term_stats(t) == idx2.term_stats(t)
            assert idx1.postings(t) == idx2.postings(t)

    def test_conservation(self):
        docs = [("d1", "a b a"), ("d2", "b c d e"), ("d3", "e")]
        idx = build_index(docs)
        total_from_terms = sum(idx.term_stats(t).f_tc for t in idx.vocabulary)
        assert total_from_terms == sum(idx.doc_lengths.values())
        assert total_from_terms == idx.stats.total_terms

    def test_stats_invariant(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        assert idx.stats.avg_l * idx.stats.N == idx.stats.total_terms


class TestExtractDistribution:
    def test_term_frequency(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        sample = extract_distribution(idx, "term_frequency")
        assert sorted(sample.values.tolist()) == [1.0, 2.0, 2.0]
        assert sample.is_discrete
        assert sample.n == idx.stats.vocab_size

    def test_document_length(self):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        sample = extract_distribution(idx, "document_length")
        assert sorted(sample.values.tolist()) == [2.0, 3.0]

    def test_query_log_properties(self):
        log = ["a b", "a b", "c"]
        qf = extract_distribution(log, "query_frequency")
        assert sorted(qf.values.tolist()) == [1.0, 2.0]
        ql = extract_distribution(log, "query_length")
        assert sorted(ql.values.tolist()) == [1.0, 2.0, 2.0]

    def test_query_normalization(self):
        log = ["New  York", "new york"]
        qf = extract_distribution(log, "query_frequency")
        assert qf.values.tolist() == [2.0]

    def test_unknown_property(self):
        idx = build_index([("d1", "a")])
        with pytest.raises(UsageError):
            extract_distribution(idx, "nope")


class TestPersistence:
    def test_round_trip_small(self, tmp_path):
        idx = build_index([("d1", "a b a"), ("d2", "b c")])
        path = tmp_path / "small.idx"
        save_index(idx, path)
        back = load_index(path)
        assert back.stats == idx.stats
        for t in idx.vocabulary:
            assert back.term_stats(t) == idx.term_stats(t)
            assert back.postings(t) == idx.postings(t)
        assert back.doc_lengths == idx.doc_lengths

    def test_round_trip_generated_corpus(self, tmp_path):
        rng = RandomSource(11)
        lengths = random_sample(ModelId.POISSON, {"lam": 30.0}, 2000, rng)
        gen = rng.generator
        vocab = np.array([f"t{i:05d}" for i in range(5000)])
        probs = np.arange(1, 5001, dtype=np.float64) ** -1.1
        probs /= probs.sum()
        docs = []
        for i, length in enumerate(lengths.values.astype(int)):
            toks = gen.choice(vocab, size=max(int(length), 1), p=probs)
            docs.append((f"doc{i:05d}", " ".join(toks)))
        idx = build_index(docs)
        path = tmp_path / "gen.idx"
        save_index(idx, path)
        back = load_index(path)
        assert back.stats == idx.stats
        for t in idx.vocabulary:
            assert back.term_stats(t) == idx.term_stats(t)

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


class TestCountsFile:
    def test_integers(self, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("3\n1\n\n2\n")
        sample = read_counts_file(path)
        assert sample.values.tolist() == [3.0, 1.0, 2.0]
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

    def test_underscore_digits_accepted(self, tmp_path):
        path = tmp_path / "underscore.txt"
        path.write_text("1_000\n2\n")
        sample = read_counts_file(path)
        assert sample.values.tolist() == [1000.0, 2.0]
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

    def test_nul_in_doc_id_rejected(self):
        with pytest.raises(IngestError):
            build_index([("a\0b", "x")])

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
