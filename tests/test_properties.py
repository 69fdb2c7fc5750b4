"""Property tests of index persistence: round trips and corruption."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrank.corpus import build_index, load_index, save_index
from adrank.errors import FormatError

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

_doc_ids = st.text(max_size=6).filter(lambda s: "\0" not in s)
_texts = st.one_of(
    st.lists(st.sampled_from(["a", "b", "cc", "d9", "straße", "x"]), max_size=10).map(
        " ".join
    ),
    st.text(max_size=20),
)
_corpora = st.dictionaries(_doc_ids, _texts, min_size=1, max_size=8)


@pytest.fixture(scope="module")
def fresh_path(tmp_path_factory):
    # ext4 flushes a file that is truncated or renamed over an existing one
    # (tens of ms each), so every write goes to a new name
    root = tmp_path_factory.mktemp("props")
    names = itertools.count()
    return lambda: root / f"{next(names)}.idx"


def _assert_same(a, b):
    assert a.doc_ids == b.doc_ids
    assert a.terms == b.terms
    assert a.stats == b.stats
    for name in ("doc_len", "offsets", "post_doc", "post_tf"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype
        np.testing.assert_array_equal(x, y)


@_SETTINGS
@given(docs=_corpora)
def test_save_load_round_trip(fresh_path, docs):
    index = build_index(docs.items())
    path = fresh_path()
    save_index(index, path)
    _assert_same(load_index(path), index)


@_SETTINGS
@given(docs=_corpora, data=st.data())
def test_flipped_bytes_raise_or_load_the_original(fresh_path, docs, data):
    index = build_index(docs.items())
    path = fresh_path()
    save_index(index, path)
    blob = bytearray(path.read_bytes())
    for _ in range(data.draw(st.integers(1, 4), label="flips")):
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        blob[at] ^= data.draw(st.integers(1, 255), label="mask")
    path = fresh_path()
    path.write_bytes(bytes(blob))
    try:
        back = load_index(path)
    except FormatError:
        return
    _assert_same(back, index)
