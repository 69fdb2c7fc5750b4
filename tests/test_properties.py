"""Property tests: index persistence (round trips and corruption), the
counts-file parser against per-line ``float()``, statistics over a
sample's (support, counts) form against the same formulas applied to every
observation of the expanded sample, and the optimizer's two-end support
check against the elementwise predicate."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adrank import distributions
from adrank.corpus import build_index, load_index, read_counts_file, save_index
from adrank.distributions import (
    ModelId,
    Sample,
    cdf,
    log_density,
    mle_fit,
)
from adrank.empirics import eccdf, log_binned_histogram, raw_histogram
from adrank.errors import BoundaryError, FormatError
from adrank.numerics import std_normal_cdf
from adrank.selection import ad_statistic, ks_statistic, vuong_nonnested_test

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


_number_lines = st.one_of(
    st.integers(0, 10**15).map(str),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
)
_pads = st.sampled_from(["", " ", "\t", " \t "])
_lines = st.one_of(
    st.tuples(_pads, _number_lines, _pads).map("".join),
    st.sampled_from(["", "", " ", "\t"]),  # blank lines
)


@_SETTINGS
@given(lines=st.lists(_lines, min_size=1, max_size=40), eol=st.sampled_from(["\n", "\r\n"]))
def test_counts_file_matches_float_per_line(fresh_path, lines, eol):
    text = eol.join(lines) + eol
    ref = [float(line) for line in text.splitlines() if line.strip()]
    path = fresh_path()
    path.write_bytes(text.encode())
    if not ref:
        with pytest.raises(FormatError):
            read_counts_file(path)
        return
    sample = read_counts_file(path)
    assert sample.values.tobytes() == np.asarray(ref, dtype=np.float64).tobytes()
    assert sample.is_discrete == all(v.is_integer() for v in ref)


# integer samples with at least two distinct values and at least one tie
_tied_counts = (
    st.lists(st.integers(1, 40), min_size=2, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample(np.asarray(v + v[:1], dtype=np.float64), True))
)


def _expanded(sample):
    return np.repeat(sample.support, sample.counts.astype(np.int64))


@_SETTINGS
@given(sample=_tied_counts)
def test_loglik_and_vuong_match_expanded_sample(sample):
    x = _expanded(sample)
    n = x.size
    fits = [mle_fit(m, sample) for m in (ModelId.POISSON, ModelId.GEOMETRIC, ModelId.GAUSSIAN)]
    for f in fits:
        ref = float(np.sum(log_density(f.model, f.params, x)))
        assert f.total_loglik == pytest.approx(ref, rel=1e-12)
    for f1, f2 in itertools.combinations(fits, 2):
        m = log_density(f1.model, f1.params, x) - log_density(f2.model, f2.params, x)
        lr_ref = float(np.sum(m))
        z_ref = lr_ref / (math.sqrt(n) * float(np.std(m)))
        p_ref = 2.0 * (1.0 - std_normal_cdf(abs(z_ref)))
        z, p, lr = vuong_nonnested_test(f1, f2)
        # a sum's rounding error is bounded relative to the sum of magnitudes
        assert lr == pytest.approx(lr_ref, rel=1e-12, abs=1e-12 * float(np.sum(np.abs(m))))
        assert z == pytest.approx(z_ref, rel=1e-12, abs=1e-12)
        assert p == pytest.approx(p_ref, rel=1e-12, abs=1e-12)


def _ks_reference(x, f0):
    n = x.size
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(hi - f0), np.abs(lo - f0))))


def _ad_reference(x, f0):
    n = x.size
    j = np.arange(1, n + 1)
    terms = (2 * j - 1) * (np.log(f0) + np.log(1.0 - f0[::-1]))
    return float(-n - np.sum(terms) / n)


@_SETTINGS
@given(sample=_tied_counts)
def test_ks_and_ad_match_expanded_sample(sample):
    x = _expanded(sample)
    for model in (ModelId.GEOMETRIC, ModelId.GAUSSIAN, ModelId.POISSON):
        params = mle_fit(model, sample).params
        fn = lambda v: cdf(model, params, v)  # noqa: E731
        f0 = fn(x)
        assert ks_statistic(sample, fn) == _ks_reference(x, f0)
        if np.any(f0 <= 0.0) or np.any(f0 >= 1.0):
            with pytest.raises(BoundaryError):
                ad_statistic(sample, fn)
        else:
            assert ad_statistic(sample, fn) == pytest.approx(
                _ad_reference(x, f0), rel=1e-12, abs=1e-12
            )


@_SETTINGS
@given(sample=_tied_counts, base=st.integers(2, 4))
def test_histograms_match_expanded_sample(sample, base):
    x = _expanded(sample)
    n = x.size
    vals, counts = np.unique(x, return_counts=True)
    assert raw_histogram(sample).points == [(float(v), c / n) for v, c in zip(vals, counts)]
    at_least = n - np.concatenate(([0], np.cumsum(counts)[:-1]))
    assert eccdf(sample).points == [(float(v), c / n) for v, c in zip(vals, at_least)]
    k = max(int(math.ceil(math.log(float(np.max(x)) + 1) / math.log(base))) - 1, 0)
    binned = []
    for i in range(k + 1):
        lo, hi = base**i, base ** (i + 1) - 1
        count = int(np.sum((x >= lo) & (x <= hi)))
        if count:
            binned.append((math.sqrt(lo * hi), count / (n * (hi - lo + 1))))
    assert log_binned_histogram(sample, base=base).points == binned


_SHIFTING_SUPPORT = (ModelId.GEV, ModelId.GENERALIZED_PARETO)


@st.composite
def _support_cases(draw):
    """(model, params, sorted sample). Half the cases use integer samples
    and dyadic k and sigma with the location at a sample point or at
    x + sigma/k, so that z or t = 1 + k*z is exactly 0 there."""
    model = draw(st.sampled_from(_SHIFTING_SUPPORT))
    loc = "mu" if model is ModelId.GEV else "theta"
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-64, 64), min_size=1, max_size=30))
        x = np.sort(np.asarray(x, dtype=np.float64))
        k = draw(st.sampled_from([-1.0, 1.0])) * 2.0 ** draw(st.integers(-3, 2))
        sigma = 2.0 ** draw(st.integers(-3, 3))
        at = float(x[draw(st.integers(0, x.size - 1))])
        where = draw(st.sampled_from([at, at + sigma / k]))
        return model, {"k": k, "sigma": sigma, loc: where}, x
    x = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    k = draw(
        st.one_of(
            st.floats(-5.0, 5.0),
            st.sampled_from([0.0, 1e-13, -1e-13, 1e-12, -1e-12, 1e-11, -1e-11]),
        )
    )
    sigma = draw(st.floats(1e-6, 1e6))
    return model, {"k": k, "sigma": sigma, loc: draw(st.floats(-1e6, 1e6))}, np.sort(x)


@_SETTINGS
@given(case=_support_cases())
def test_two_end_support_check_matches_elementwise(case):
    model, params, x = case
    spec = distributions._SPECS[model]
    with np.errstate(all="ignore"):
        ends = bool(spec.in_support(params, float(x[0]))) and bool(
            spec.in_support(params, float(x[-1]))
        )
        assert ends == bool(np.all(spec.in_support(params, x)))
