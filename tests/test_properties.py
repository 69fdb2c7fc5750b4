"""Property tests: index persistence (round trips and corruption), lookups
in a loaded index's string tables against the decoded tables, the
counts-file parser against per-line ``float()`` and its digit-line fast
path against numpy's column reader, statistics over a sample's (support,
counts) form against the same formulas applied to every observation of
the expanded sample, the optimizer's two-end support check against the
elementwise predicate, the declared parameter domains against the
per-model validators they replaced, every fit on samples at any scale of
the float range against ending in a result or an ``AdrankError``, and
subsampling an array against subsampling a list."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adrank import corpus, distributions
from adrank.corpus import QueryRecord, build_index, load_index, read_counts_file, save_index
from adrank.distributions import (
    FitOptions,
    ModelId,
    Sample,
    cdf,
    log_density,
    mle_fit,
)
from adrank.empirics import eccdf, log_binned_histogram, raw_histogram, subsample
from adrank.errors import AdrankError, BoundaryError, FormatError, ParameterError, UsageError
from adrank.numerics import RandomSource, std_normal_cdf
from adrank.ranking import parse_model_spec, rank
from adrank.selection import ad_statistic, ks_statistic, vuong_nonnested_test

_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)

# ids that survive a whitespace-separated run file: non-empty, no whitespace, no NUL
_doc_ids = st.text(max_size=6).filter(lambda s: s.split() == [s] and "\0" not in s)
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


# probes, mostly of text no index holds: non-ASCII text, lone surrogates
# (which UTF-8 cannot encode), a NUL, and text past every term
_absent = st.one_of(
    st.text(max_size=4),
    st.sampled_from(["\ud800", "\udcff", "stra\xdfe\udfff", "\xe9", "\u6771", "a\0b", "\U0010ffff", ""]),
)


@_SETTINGS
@given(docs=_corpora, data=st.data())
def test_tables_answer_as_their_decoded_strings(fresh_path, docs, data):
    path = fresh_path()
    save_index(build_index(docs.items()), path)
    index = load_index(path)
    terms, doc_ids = index.terms, index.doc_ids
    assert [index.term_id(t) for t in terms] == list(range(len(terms)))
    for probe in data.draw(st.lists(_absent, max_size=8), label="probes"):
        assert index.term_id(probe) == (terms.index(probe) if probe in terms else None)
    picks = data.draw(st.lists(st.integers(0, len(doc_ids) - 1), max_size=12), label="picks")
    for docs_at in (picks, picks + [len(doc_ids) - 1], [len(doc_ids) - 1], []):
        got = index.doc_ids_at(np.asarray(docs_at, dtype=np.int64))
        assert got == [doc_ids[i] for i in docs_at]


@_SETTINGS
@given(docs=st.dictionaries(_doc_ids, st.text("!? \xdf\u6771", max_size=6), min_size=1, max_size=8))
def test_an_index_without_terms_loads_and_ranks(fresh_path, docs):
    path = fresh_path()
    save_index(build_index(docs.items()), path)
    index = load_index(path)
    assert index.terms == () and index.stats.vocab_size == 0 and index.term_table == b""
    assert index.doc_ids == tuple(sorted(docs))
    # every query term is skipped: LMDir scores each document 0, in id order
    query = QueryRecord("q", ["a", "b", "a"], "a b a")
    lm = rank(query, index, parse_model_spec("LMDir"), k=5)
    assert lm.doc_ids == sorted(docs)[:5] and not lm.scores.any()
    assert lm.skipped_terms == ["a", "b"]
    assert rank(query, index, parse_model_spec("PL2-Tdc"), k=5).doc_ids == []


_number_lines = st.one_of(
    st.integers(0, 10**15).map(str),
    st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False).map(repr),
)
_pads = st.sampled_from(["", " ", "\t", " \t "])
_lines = st.one_of(
    st.tuples(_pads, _number_lines, _pads).map("".join),
    st.sampled_from(["", "", " ", "\t"]),  # blank lines
)


def _assert_counted(support, counts, ref):
    """``support`` and float ``counts`` are, bit for bit, the distinct
    values of the floats ``ref`` and their counts."""
    want = np.unique(np.asarray(ref, dtype=np.float64), return_counts=True)
    assert support.tobytes() == want[0].tobytes()
    assert counts.tobytes() == want[1].astype(np.float64).tobytes()


@_SETTINGS
@given(lines=st.lists(_lines, min_size=1, max_size=40), eol=st.sampled_from(["\n", "\r\n"]))
# the files the digit-line reader declines: a blank line, CRLF, a sign, an
# underscore, an Arabic-Indic digit, padding and a decimal point
@example(lines=["3", "1", "", "2"], eol="\n")
@example(lines=["1", "2", "1"], eol="\r\n")
@example(lines=["1", "+5"], eol="\n")
@example(lines=["1_000", "2"], eol="\n")
@example(lines=["\u0663", "4", "3"], eol="\n")
@example(lines=[" 5", "5 ", "6"], eol="\n")
@example(lines=["1.0", "2"], eol="\n")
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
    _assert_counted(sample.support, sample.counts, ref)
    assert sample.n == len(ref)
    assert sample.is_discrete == all(v.is_integer() for v in ref)


@_SETTINGS
@given(
    lines=st.lists(st.text("0123456789", min_size=1, max_size=15), min_size=1, max_size=60),
    chunk=st.sampled_from([16, 17, 64, corpus._DIGITS_CHUNK]),
)
@example(lines=["0" * 15, "9" * 15, "000000000000001", "0"], chunk=16)
@example(lines=["7", "123456789012345", "0", "7", "07", "99", "000000000000007"] * 3, chunk=17)
@example(lines=["5", "123456789012", "5"] * 8, chunk=16)  # 5 in every slice
def test_digit_lines_equal_the_column_reader(fresh_path, lines, chunk):
    # leading zeros and 15-digit values, counted in slices of a few lines too
    path = fresh_path()
    path.write_bytes("".join(f"{line}\n" for line in lines).encode())
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(corpus, "_DIGITS_CHUNK", chunk)
        support, counts = corpus._read_digit_lines(path)
    _assert_counted(support, counts, [float(line) for line in lines])
    _assert_counted(support, counts, corpus._load_counts_column(path))


# integer samples with at least two distinct values and at least one tie
_tied_counts = (
    st.lists(st.integers(1, 40), min_size=2, max_size=60)
    .filter(lambda v: len(set(v)) >= 2)
    .map(lambda v: Sample.of(np.asarray(v + v[:1], dtype=np.float64), True))
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


# The per-model validators that the declared parameter domains replaced,
# verbatim, as the oracle of the sets that ``_validated`` accepts.
def _positive(params, *names):
    for nm in names:
        if not params[nm] > 0.0:
            raise ParameterError(f"{nm} must be positive, got {params[nm]}")


def _geo_validate(p):
    if not 0.0 < p["p"] <= 1.0:
        raise ParameterError("geometric needs 0 < p <= 1")


def _nbin_validate(p):
    if not p["r"] > 0.0:
        raise ParameterError("negative binomial needs r > 0")
    if not 0.0 < p["p"] < 1.0:
        raise ParameterError("negative binomial needs 0 < p < 1")


def _plaw_validate(p):
    if not p["alpha"] > 1.0:
        raise ParameterError("power law needs alpha > 1")
    if p["xmin"] < 1.0 or p["xmin"] != math.floor(p["xmin"]):
        raise ParameterError("power law cutoff xmin must be a positive integer")


_VALIDATORS = {
    ModelId.EXPONENTIAL: (("mu",), lambda p: _positive(p, "mu")),
    ModelId.GAMMA: (("a", "b"), lambda p: _positive(p, "a", "b")),
    ModelId.GAUSSIAN: (("mu", "sigma2"), lambda p: _positive(p, "sigma2")),
    ModelId.GEV: (("k", "sigma", "mu"), lambda p: _positive(p, "sigma")),
    ModelId.GENERALIZED_PARETO: (("k", "sigma", "theta"), lambda p: _positive(p, "sigma")),
    ModelId.GEOMETRIC: (("p",), _geo_validate),
    ModelId.INVERSE_GAUSSIAN: (("mu", "lam"), lambda p: _positive(p, "mu", "lam")),
    ModelId.LOGISTIC: (("mu", "sigma"), lambda p: _positive(p, "sigma")),
    ModelId.LOGNORMAL: (("mu", "sigma2"), lambda p: _positive(p, "sigma2")),
    ModelId.NAKAGAMI: (("mu", "omega"), lambda p: _positive(p, "mu", "omega")),
    ModelId.NEGATIVE_BINOMIAL: (("r", "p"), _nbin_validate),
    ModelId.POISSON: (("lam",), lambda p: _positive(p, "lam")),
    ModelId.POWERLAW: (("alpha", "xmin"), _plaw_validate),
    ModelId.RAYLEIGH: (("b",), lambda p: _positive(p, "b")),
    ModelId.WEIBULL: (("a", "b"), lambda p: _positive(p, "a", "b")),
    ModelId.YULE_SIMON: (("p",), lambda p: _positive(p, "p")),
}

_param_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, math.inf, -math.inf, math.nan]),
    st.sampled_from([5e-324, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(-3, 3).map(float),
)


def _oracle_accepts(model, params):
    try:
        _VALIDATORS[model][1](params)
    except (ParameterError, ValueError, OverflowError):  # floor() of NaN or inf
        return False
    return True


def test_validators_cover_the_declared_parameters():
    for model, (names, _) in _VALIDATORS.items():
        assert distributions._SPECS[model].names == names


@settings(max_examples=3000, deadline=None, derandomize=True, database=None)
@given(model=st.sampled_from(list(ModelId)), data=st.data())
def test_declared_domains_accept_what_the_validators_accepted(model, data):
    names = _VALIDATORS[model][0]
    params = {name: data.draw(_param_values, label=name) for name in names}
    for value in (params, {k: np.float64(v) for k, v in params.items()}):
        try:
            distributions._validated(model, value)
            accepted = True
        except ParameterError:
            accepted = False
        assert accepted == _oracle_accepts(model, value), value


# 4 to 8 values, some of them 0, at one scale 10^k anywhere in the float
# range, from subnormal to near overflow
_scaled_samples = st.builds(
    lambda mantissas, k: np.array([m * 10.0**k for m in mantissas]),
    st.lists(st.one_of(st.just(0.0), st.floats(1.0, 1.75)), min_size=4, max_size=8),
    st.integers(-320, 308),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(values=_scaled_samples)
@example(values=np.array([0.0, 0.0, 4.500138108209585e-253]))  # the logistic's variance underflows
@example(values=np.array([1e-300, 2e-300, 3e-300]))  # the Nakagami's x^2 underflow
@example(values=np.array([0.0, 1e-313, 2e-313, 4e-313]))  # the GP's tau overflows
def test_every_fit_returns_or_raises_an_adrank_error(values):
    sample = Sample.of(values, bool(np.all(values == np.floor(values))))
    options = FitOptions(restarts=0, max_iter=200)
    for model in ModelId:
        try:
            mle_fit(model, sample, options)
        except AdrankError:
            pass


def _list_subsample(values, method, fraction, gen, strata):
    """Subsampling as it was written for Python lists, element by element."""

    def simple(vals, size):
        order = gen.permutation(len(vals))
        return [vals[i] for i in order[:size]]

    if method == "simple":
        return simple(values, max(1, int(round(fraction * len(values)))))
    if method == "systematic":
        step = math.ceil(1.0 / fraction)
        perm = simple(values, len(values))
        return perm[int(gen.integers(0, step)) :: step]
    out, assigned = [], 0
    for lo, hi in strata:
        member = [v for v in values if lo <= v <= hi]
        if not member:
            raise UsageError(f"empty stratum [{lo}, {hi}]")
        assigned += len(member)
        out.extend(simple(member, max(1, int(round(fraction * len(member))))))
    if assigned < len(values):
        raise UsageError("strata do not cover the input")
    return out


@_SETTINGS
@given(
    values=st.lists(st.integers(0, 60), min_size=1, max_size=80),
    method=st.sampled_from(["simple", "systematic", "stratified"]),
    fraction=st.floats(0.01, 1.0),
    seed=st.integers(0, 2**32 - 1),
    strata=st.sampled_from([[(0, 60)], [(0, 19), (20, 60)], [(0, 29), (30, 39), (40, 60)], [(0, 40)]]),
)
def test_subsample_draws_the_same_from_an_array_and_a_list(values, method, fraction, seed, strata):
    def draw(fn, vals):
        try:
            return fn(vals)
        except UsageError as exc:
            return str(exc)

    from_list = draw(lambda v: subsample(v, method, fraction, RandomSource(seed), strata), values)
    array = np.array(values, dtype=np.int64)
    from_array = draw(lambda v: subsample(v, method, fraction, RandomSource(seed), strata), array)
    reference = draw(lambda v: _list_subsample(v, method, fraction, RandomSource(seed).generator, strata), values)
    assert from_list == reference
    if isinstance(from_list, str):
        assert from_array == from_list
    else:
        assert from_array.dtype == np.int64 and from_array.tolist() == from_list
        assert array.tolist() == values  # sampled without being reordered
