"""Tests for the text-format parser, row normalization, synthetic problem
generation, and the portable counter-based RNG.

The RNG oracle is a pure-Python big-int reimplementation of splitmix64, so a
platform or numpy regression in the vectorized path cannot hide.
"""

import io
import logging
import math
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from hypothesis import given, settings, strategies as st

from pdbfw import data_io
from pdbfw.core_linalg import SparseDesignMatrix
from pdbfw.data_io import (Dataset, ParseError, PortableRng, SyntheticSpec,
                           generate_synthetic, normalize_rows, parse_libsvm)

_MASK = (1 << 64) - 1


def _splitmix_reference(seed, index):
    """Pure-Python splitmix64 draw at a given counter position (0-based)."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


# ---------------------------------------------------------------------------
# PortableRng


def test_rng_frozen_raw_draws():
    # [DERIVED] literals computed by the pure-Python reference above
    np.testing.assert_array_equal(
        PortableRng(0).raw(3),
        np.array([16294208416658607535, 7960286522194355700,
                  487617019471545679], dtype=np.uint64))
    np.testing.assert_array_equal(
        PortableRng(42).raw(3),
        np.array([13679457532755275413, 2949826092126892291,
                  5139283748462763858], dtype=np.uint64))


def test_rng_matches_pure_python_reference():
    for seed in (0, 1, 42, 2024, _MASK):
        got = PortableRng(seed).raw(16)
        want = [_splitmix_reference(seed & _MASK, i) for i in range(16)]
        assert got.tolist() == want


def test_rng_frozen_uniforms():
    # [DERIVED] ((raw >> 11) + 1) * 2^-53 at seed 0
    u = PortableRng(0).uniforms(2)
    assert u[0] == 0.8833108082136427
    assert u[1] == 0.4315279970485101


def test_rng_frozen_normals():
    # [DERIVED] Box-Muller at seed 5: an odd count draws one normal past it
    # and drops it, and either count spends 2 * ceil(count / 2) uniforms
    want = {7: ["0x1.0c2e25c61bff2p-1", "0x1.46634f257d722p+0",
                "-0x1.1a99e1fb88c47p-1", "0x1.075a488b5f8d0p-1",
                "0x1.b359dad4cc780p+0", "-0x1.3cc8d797512e7p-3",
                "-0x1.1268e71806a13p+1"],
            6: ["0x1.1e53b9f627664p+0", "0x1.9c6fdbc3f9b0ap-1",
                "0x1.25963dd51b7eep-2", "0x1.654f188604f9bp-1",
                "-0x1.3fcf53ac7ca5cp+0", "0x1.2a06eefad1e38p+0"]}
    next_uniform = {7: "0x1.b4afa8ea7ba7cp-2", 6: "0x1.f89bc83e37984p-1"}
    for count, hexes in want.items():
        rng = PortableRng(5)
        got = rng.normals(count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert [v.hex() for v in got.tolist()] == hexes
        assert rng.uniforms(1)[0].hex() == next_uniform[count]
    assert PortableRng(5).normals(7)[:3].round(8).tolist() == \
        [0.52378958, 1.27495284, -0.55195528]


def test_rng_counter_continuation():
    # draws are a pure function of (seed, counter): batching cannot matter
    split = PortableRng(7)
    merged = PortableRng(7)
    first = np.concatenate([split.raw(2), split.raw(3)])
    np.testing.assert_array_equal(first, merged.raw(5))


def test_rng_uniforms_half_open_interval():
    u = PortableRng(99).uniforms(10_000)
    assert np.all(u > 0.0)
    assert np.all(u <= 1.0)


def test_rng_normals_deterministic_and_sized():
    a = PortableRng(5).normals(7)
    b = PortableRng(5).normals(7)
    assert a.shape == (7,)
    np.testing.assert_array_equal(a, b)
    assert np.all(np.isfinite(a))


def test_rng_integers_bounds():
    draws = PortableRng(3).integers(1000, 13)
    assert draws.min() >= 0
    assert draws.max() < 13
    with pytest.raises(ValueError, match="upper"):
        PortableRng(3).integers(5, 0)
    with pytest.raises(ValueError, match="count"):
        PortableRng(3).raw(-1)


# ---------------------------------------------------------------------------
# Parser


def test_parse_frozen_two_row_example():
    # [DERIVED] hand-expanded: row 0 has entries at columns 1 and 3,
    # row 1 at column 2; width is the max seen index.
    ds = parse_libsvm(io.StringIO("+1 1:0.5 3:-2\n-1 2:1.0\n"))
    np.testing.assert_array_equal(ds.matrix.to_dense(),
                                  [[0.5, 0.0, -2.0], [0.0, 1.0, 0.0]])
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
    assert ds.matrix.nnz == 3


def test_parse_label_remap_zero_one():
    ds = parse_libsvm(io.StringIO("0 1:1\n1 1:2\n"))
    np.testing.assert_array_equal(ds.labels, [-1.0, 1.0])


def test_parse_label_remap_one_two():
    # the 1/2 convention maps class 1 to +1 and class 2 to -1
    ds = parse_libsvm(io.StringIO("1 1:1\n2 1:2\n"))
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])


def test_parse_regression_targets_untouched():
    ds = parse_libsvm(io.StringIO("0.5 1:1\n2.5 1:2\n"))
    np.testing.assert_array_equal(ds.labels, [0.5, 2.5])


def test_parse_skips_blank_lines():
    ds = parse_libsvm(io.StringIO("+1 1:1\n\n   \n-1 1:2\n"))
    assert ds.matrix.n_rows == 2


def test_parse_forced_column_count():
    ds = parse_libsvm(io.StringIO("+1 1:1\n"), n_cols=5)
    assert ds.matrix.to_dense().shape == (1, 5)


def test_parse_from_path_uses_filename(tmp_path, caplog):
    path = tmp_path / "tiny.txt"
    path.write_text("+1 1:1\n\n-1 1:2\n")
    with caplog.at_level(logging.INFO, logger="pdbfw.data_io"):
        ds = parse_libsvm(str(path), name="ignored")
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
    assert caplog.messages == [f"{path}: skipping empty line 2"]


def parse_error(text, lineno, fragment, n_cols=None):
    # the id names the three fields alone, as before n_cols was a field
    return pytest.param(text, lineno, fragment, n_cols,
                        id=f"{text}-{lineno}-{fragment}"
                        + ("" if n_cols is None else f"-n_cols={n_cols}"))


PARSE_ERRORS = [
    ("abc 1:1\n", 1, "bad label"),
    ("+1 novalue\n", 1, "index:value"),
    ("+1 1:abc\n", 1, "index:value"),
    ("+1 x:1\n", 1, "index:value"),
    ("+1 0:1\n", 1, "1-based"),
    ("+1 2:1 2:2\n", 1, "strictly increasing"),
    ("+1 3:1 2:1\n", 1, "strictly increasing"),
    ("+1 1:inf\n", 1, "non-finite"),
    ("+1 1:nan\n", 1, "non-finite"),
    ("+1 1:1\nbad 1:1\n", 2, "bad label"),
    ("", 1, "no samples"),
    ("\n\n", 1, "no samples"),
    # beyond int64: a ParseError with or without n_cols, not an OverflowError
    ("+1 1:1\n-1 99999999999999999999:1\n", 2, "index 99999999999999999999"),
    ("+1 1:1\n-1 99999999999999999999:1\n", 2, "index 99999999999999999999",
     5),
    ("nan 1:1\n", 1, "non-finite label 'nan'"),
    ("+1 1:1\ninf 1:1\n", 2, "non-finite label 'inf'"),
    # one pair with two colons, another with none: the colon count of the
    # line is right, the pairs are not
    ("+1 1:2:3 5\n", 1, "bad index:value pair '1:2:3'"),
    ("+1 5 1:2:3\n", 1, "expected index:value, got '5'"),
]


@pytest.mark.parametrize("text,lineno,fragment,n_cols",
                         [parse_error(*case) for case in PARSE_ERRORS])
def test_parse_errors_carry_line_numbers(text, lineno, fragment, n_cols):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_libsvm(io.StringIO(text), n_cols=n_cols)
    assert exc.value.line_number == lineno
    assert f"line {lineno}:" in str(exc.value)


@pytest.mark.parametrize("n_cols, fragment", [
    (True, "n_cols must be an integer"),
    (2.5, "n_cols must be an integer"),
    (3.0, "n_cols must be an integer"),
    (-1, "n_cols must be >= 0"),
])
def test_parse_rejects_a_bad_forced_width(n_cols, fragment):
    # checked before reading: not a ParseError on a line of the input
    with pytest.raises(ValueError, match=fragment) as exc:
        parse_libsvm(io.StringIO("+1 1:1\n"), n_cols=n_cols)
    assert not isinstance(exc.value, ParseError)


def test_parse_accepts_numpy_and_zero_forced_widths():
    # zero is the width a file of labels alone would be given anyway
    ds = parse_libsvm(io.StringIO("+1\n-1\n"), n_cols=0)
    assert ds.matrix.shape == (2, 0)
    ds = parse_libsvm(io.StringIO("+1 2:1\n"), n_cols=np.int64(3))
    assert ds.matrix.shape == (1, 3)


def test_parse_rejects_index_beyond_forced_width():
    # the error names the line that holds the index, not line 1
    with pytest.raises(ParseError, match="exceeds n_cols=2") as exc:
        parse_libsvm(io.StringIO("+1 1:1\n-1 2:1\n+1 1:1 3:1\n"), n_cols=2)
    assert exc.value.line_number == 3
    assert str(exc.value) == "line 3: index 3 exceeds n_cols=2"


# ---------------------------------------------------------------------------
# Batches: numpy casts and checks a batch of tokens at once, and a batch that
# fails is checked line by line for its first bad line


def parse_oracle(text, n_cols=None):
    """The parse token by token, as a reference: (labels, design), or the
    line number and message of the first ParseError."""
    rows, cols, vals, labels = [], [], [], []
    for lineno, line in enumerate(io.StringIO(text), start=1):
        fields = line.split()
        if not fields:
            continue
        try:
            label = float(fields[0])
        except ValueError:
            return lineno, f"bad label {fields[0]!r}"
        if not math.isfinite(label):
            return lineno, f"non-finite label {fields[0]!r}"
        prev = 0
        for token in fields[1:]:
            if ":" not in token:
                return lineno, f"expected index:value, got {token!r}"
            head, tail = token.split(":", 1)
            try:
                index, value = int(head), float(tail)
            except ValueError:
                return lineno, f"bad index:value pair {token!r}"
            if index < 1:
                return lineno, f"index {index} is not 1-based"
            if index >= 2 ** 63:
                return lineno, f"index {index} exceeds the int64 range"
            if n_cols is not None and index > n_cols:
                return lineno, f"index {index} exceeds n_cols={n_cols}"
            if index <= prev:
                return lineno, (f"index {index} not strictly increasing "
                                f"after {prev}")
            if not math.isfinite(value):
                return lineno, f"non-finite value in {token!r}"
            prev = index
            rows.append(len(labels))
            cols.append(index - 1)
            vals.append(value)
        labels.append(label)
    if not labels:
        return 1, "no samples in input"
    d = max(cols, default=-1) + 1 if n_cols is None else n_cols
    labels = np.array(labels)
    if set(labels.tolist()) == {0.0, 1.0}:
        labels = np.where(labels == 0.0, -1.0, 1.0)
    elif set(labels.tolist()) == {1.0, 2.0}:
        labels = np.where(labels == 1.0, 1.0, -1.0)
    coo = sp.coo_matrix((np.array(vals, dtype=np.float64),
                         (np.array(rows, dtype=np.int64),
                          np.array(cols, dtype=np.int64))),
                        shape=(len(labels), d))
    return labels, SparseDesignMatrix(coo)


def recorded(call):
    """call()'s result, or the ParseError it raised, and the texts of the
    warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = call()
        except ParseError as exc:
            result = exc
    return result, [str(w.message) for w in caught]


def assert_parses_as_oracle(text, n_cols=None):
    """parse_libsvm gives the oracle's labels and design bit for bit, or
    raises its ParseError on its line, with the same warnings: a value
    above about 1.3e154 overflows its row's squared norm, and numpy warns."""
    want, want_warnings = recorded(lambda: parse_oracle(text, n_cols))
    got, got_warnings = recorded(
        lambda: parse_libsvm(io.StringIO(text), n_cols=n_cols))
    assert got_warnings == want_warnings
    if isinstance(want[0], int):
        lineno, message = want
        assert isinstance(got, ParseError)
        assert got.line_number == lineno
        assert str(got) == f"line {lineno}: {message}"
        return
    labels, matrix = want
    assert got.labels.dtype == labels.dtype
    assert got.labels.tobytes() == labels.tobytes()
    assert got.matrix.shape == matrix.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.matrix._csr, name), getattr(matrix._csr, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name
    assert got.matrix.row_norms_sq.tobytes() == matrix.row_norms_sq.tobytes()


BAD_LABELS = ["abc", "nan", "-inf", "1e400", "1:1", "0x1", "1__0"]
BAD_PAIRS = ["x:1", "1:abc", "0:1", "-3:1", "1:2:3", "5", ":1", "1:", "1:nan",
             "1:-inf", "1:1e400", "99999999999999999999:1", "1.0:2", "1e1:2",
             "1:1:", "::"]
# accepted by int() and float(), and so by the numpy casts: a sign, digit
# groups, fullwidth and Arabic-Indic digits, signed and underflowing zeros
ODD_PAIRS = ["+2:1", "1_0:1", "３:2", "٣:1_5", "2:-0.0", "3:0",
             "4:1e-400", "7:.5", "8:5.", "9:-1E+3", "11:infinity"]


@st.composite
def libsvm_texts(draw):
    """Lines of good, odd and bad tokens between spaces and tabs, with blank
    lines and lines that hold a label alone; labels often {0,1} or {1,2}."""
    label = st.one_of(
        st.sampled_from(["0", "1", "2", "-1", "+1", "-0"]),
        st.floats(allow_nan=False, allow_infinity=False).map(repr))
    value = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    space = st.sampled_from([" ", "  ", "\t", " \t"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", "\t", " \t "])))
            continue
        cols = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
        tokens = [draw(label)] + [f"{j}:{draw(value)}" for j in cols]
        if draw(st.integers(0, 3)) == 0:
            tokens.insert(draw(st.integers(1, len(tokens))),
                          draw(st.sampled_from(ODD_PAIRS)))
        if draw(st.integers(0, 5)) == 0:
            at = draw(st.integers(0, len(tokens) - 1))
            tokens[at] = draw(st.sampled_from(BAD_PAIRS if at else BAD_LABELS))
        if len(tokens) > 2 and draw(st.integers(0, 5)) == 0:
            tokens[1], tokens[2] = tokens[2], tokens[1]
        lines.append(draw(space).lstrip(" ")
                     + "".join(t + draw(space) for t in tokens).rstrip(" "))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(libsvm_texts(), st.one_of(st.none(), st.integers(0, 14)),
       st.integers(1, 12))
def test_parse_matches_the_token_loop(text, n_cols, batch_tokens):
    # at the default batch size every text is one batch; small batches make
    # most texts span several
    assert_parses_as_oracle(text, n_cols)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data_io, "_BATCH_TOKENS", batch_tokens)
        assert_parses_as_oracle(text, n_cols)


def _rows_of_ten(count):
    """`count` lines of a label and ten pairs: eleven tokens a line."""
    pairs = " ".join(f"{j}:{j / 8!r}" for j in range(1, 11))
    return [f"{'+1' if i % 2 else '-1'} {pairs}\n" for i in range(count)]


def test_parse_names_a_bad_line_past_the_first_batch():
    lines = _rows_of_ten(1000)
    assert_parses_as_oracle("".join(lines))
    assert 899 * 11 > 2 * data_io._BATCH_TOKENS  # line 900 is in batch 3
    lines[899] = "+1 1:0.5 2:x 3:0.5\n"
    with pytest.raises(ParseError) as exc:
        parse_libsvm(io.StringIO("".join(lines)))
    assert str(exc.value) == "line 900: bad index:value pair '2:x'"


def test_parse_names_the_first_bad_line_of_a_batch():
    # a bad pair on line 1 and a bad label on line 2: line 1 is named
    with pytest.raises(ParseError) as exc:
        parse_libsvm(io.StringIO("+1 1:x\nabc 1:1\n+1 2:1\n"))
    assert str(exc.value) == "line 1: bad index:value pair '1:x'"


@pytest.mark.parametrize("text", ["", "\n" * 5000, "  \t\n" * 3])
def test_parse_blank_input_has_no_samples(text):
    # blank lines hold no tokens: the one batch ends with the input, empty
    # of samples
    with pytest.raises(ParseError) as exc:
        parse_libsvm(io.StringIO(text))
    assert str(exc.value) == "line 1: no samples in input"


def test_parse_ends_on_a_full_batch(monkeypatch):
    # eight lines of eleven tokens fill two batches of 44, and the batch
    # left at the end of the input is empty
    monkeypatch.setattr(data_io, "_BATCH_TOKENS", 44)
    assert_parses_as_oracle("".join(_rows_of_ten(8)))
    assert parse_libsvm(io.StringIO("".join(_rows_of_ten(8)))).matrix.nnz == 80


def test_parse_raises_when_a_batch_fails_only_the_array_checks(monkeypatch):
    # a batch that the casts or checks reject must hold a bad line; if the
    # line checks find none, the parser raises instead of accepting it
    monkeypatch.setattr(data_io, "_check_line", lambda *args: None)
    with pytest.raises(RuntimeError, match="array checks"):
        parse_libsvm(io.StringIO("+1 0:1\n"))


def _utf8_handle(data):
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def test_parse_names_a_bad_line_before_a_read_error():
    # the undecodable byte lies past the reader's first 8 KiB chunk and in
    # the batch of the bad line 1, which is named first, as it was when the
    # lines were checked as they were read
    long_line = b"+1 1:0." + b"1" * 200 + b"\n"
    with pytest.raises(ParseError) as exc:
        parse_libsvm(_utf8_handle(b"+1 0:1\n" + long_line * 100 + b"\xff\n"))
    assert str(exc.value) == "line 1: index 0 is not 1-based"
    with pytest.raises(UnicodeDecodeError):
        parse_libsvm(_utf8_handle(long_line * 100 + b"\xff\n"))


# ---------------------------------------------------------------------------
# Round trip through repr-formatted text


def _text(dense, labels):
    """The index:value text of a dense design, values written with repr."""
    lines = []
    for i in range(dense.shape[0]):
        parts = [repr(float(labels[i]))]
        for j in np.flatnonzero(dense[i]):
            parts.append(f"{j + 1}:{float(dense[i, j])!r}")
        lines.append(" ".join(parts) + "\n")
    return "".join(lines)


def test_write_then_parse_round_trips(tmp_path):
    # repr-formatted values survive the trip bit for bit, at every scale
    # and density, from a path and from an open handle
    rng = PortableRng(41)
    path = tmp_path / "roundtrip.txt"
    for trial in range(6):
        n, d = 12, 40
        keep = rng.uniforms(n * d).reshape(n, d) < 0.05 + 0.15 * trial
        dense = np.where(keep, rng.normals(n * d).reshape(n, d)
                         * 10.0 ** (trial - 3), 0.0)
        labels = rng.normals(n)
        path.write_text(_text(dense, labels))
        for source in (str(path), io.StringIO(path.read_text())):
            back = parse_libsvm(source, n_cols=d)
            np.testing.assert_array_equal(back.matrix.to_dense(), dense)
            np.testing.assert_array_equal(back.labels, labels)


def test_dataset_rejects_label_row_mismatch():
    from pdbfw.core_linalg import SparseDesignMatrix
    matrix = SparseDesignMatrix(np.eye(3))
    with pytest.raises(ValueError, match="labels"):
        Dataset(matrix=matrix, labels=np.zeros(2))


# ---------------------------------------------------------------------------
# Row normalization


def test_normalize_rows_frozen_three_four_five():
    # [DERIVED] (3, 4) has norm 5: scaled row is (0.6, 0.8)
    ds = parse_libsvm(io.StringIO("1 1:3 2:4\n"))
    out = normalize_rows(ds)
    np.testing.assert_allclose(out.matrix.to_dense(), [[0.6, 0.8]],
                               rtol=0, atol=1e-16)


def test_normalize_rows_leaves_zero_rows():
    ds = parse_libsvm(io.StringIO("1 1:3\n-1 2:0\n"), n_cols=2)
    out = normalize_rows(ds)
    np.testing.assert_array_equal(out.matrix.to_dense(),
                                  [[1.0, 0.0], [0.0, 0.0]])


def test_normalize_rows_idempotent():
    rng = PortableRng(17)
    from pdbfw.core_linalg import SparseDesignMatrix
    dense = rng.normals(20).reshape(4, 5) * 7.0
    ds = Dataset(matrix=SparseDesignMatrix(dense),
                 labels=np.ones(4))
    once = normalize_rows(ds)
    twice = normalize_rows(once)
    np.testing.assert_allclose(twice.matrix.to_dense(),
                               once.matrix.to_dense(), rtol=0, atol=1e-15)
    assert np.allclose(np.linalg.norm(once.matrix.to_dense(), axis=1), 1.0)


def _check_other_rows_keep_their_bits(ds, out, rescaled):
    # every other row is divided by the square root of its cached square
    norms = np.sqrt(ds.matrix.row_norms_sq)
    want = ds.matrix.to_dense() / np.where(norms > 0.0, norms, 1.0)[:, None]
    keep = np.arange(ds.matrix.n_rows) != rescaled
    assert np.array_equal(out.matrix.to_dense()[keep], want[keep])


def test_normalize_rows_rescales_a_row_whose_square_overflows():
    # 1e200 squared is inf: dividing by sqrt(inf) would zero the row
    with pytest.warns(RuntimeWarning, match="overflow"):
        ds = parse_libsvm(io.StringIO("1 1:1e200 2:1\n-1 1:3 3:4\n1 2:2\n"))
    assert np.isinf(ds.matrix.row_norms_sq[0])
    out = normalize_rows(ds)
    assert out.matrix.nnz == ds.matrix.nnz == 5
    np.testing.assert_array_equal(out.matrix.to_dense()[0],
                                  [1.0, 1e-200, 0.0])
    _check_other_rows_keep_their_bits(ds, out, rescaled=0)


def test_normalize_rows_rescales_a_row_whose_square_underflows():
    # 1e-170 squared is 0.0: the row would be left at norm 1.4e-170
    ds = parse_libsvm(io.StringIO("-1 1:3 3:4\n1 1:1e-170 2:1e-170\n"))
    assert ds.matrix.row_norms_sq[1] == 0.0
    out = normalize_rows(ds)
    assert out.matrix.nnz == ds.matrix.nnz == 4
    np.testing.assert_allclose(out.matrix.to_dense()[1],
                               [math.sqrt(0.5), math.sqrt(0.5), 0.0],
                               rtol=1e-15, atol=0)
    _check_other_rows_keep_their_bits(ds, out, rescaled=1)


def test_normalize_rows_rescales_a_row_whose_squares_are_subnormal():
    # 1e-160 squared is a subnormal 1e-320 that keeps a few digits: the
    # normalized row's norm was 1.0000056
    ds = parse_libsvm(io.StringIO("1 1:1e-160 2:1e-160\n-1 1:3 3:4\n"))
    assert 0.0 < ds.matrix.row_norms_sq[0] < np.finfo(float).tiny
    out = normalize_rows(ds)
    np.testing.assert_allclose(out.matrix.to_dense()[0],
                               [math.sqrt(0.5), math.sqrt(0.5), 0.0],
                               rtol=1e-15, atol=0)
    np.testing.assert_allclose(out.matrix.row_norms()[0], 1.0,
                               rtol=1e-15, atol=0)
    _check_other_rows_keep_their_bits(ds, out, rescaled=0)


def test_normalize_rows_copies_labels():
    ds = parse_libsvm(io.StringIO("1 1:3\n"))
    out = normalize_rows(ds)
    out.labels[0] = 99.0
    assert ds.labels[0] == 1.0


# ---------------------------------------------------------------------------
# Sparse inputs are never densified

_WIDE_D = 10 ** 7


def _refuse_dense(monkeypatch):
    def refuse(self):
        raise AssertionError(
            f"to_dense called on a {self.n_rows}x{self.n_cols} design")
    monkeypatch.setattr(SparseDesignMatrix, "to_dense", refuse)


def _row(matrix, i):
    """(column indices, values) of row i's stored nonzeros."""
    lo, hi = matrix._csr.indptr[i], matrix._csr.indptr[i + 1]
    return matrix._csr.indices[lo:hi], matrix._csr.data[lo:hi]


def _very_sparse_dataset():
    # 3 x 10^7 design with 5 nonzeros and an empty middle row; its dense
    # copy would take 240 MB
    matrix = SparseDesignMatrix(sp.coo_matrix(
        (np.array([3.0, -4.0, 12.0, 0.5, -1e-3]),
         (np.array([0, 0, 0, 2, 2]),
          np.array([4, 123_456, _WIDE_D - 1, 0, _WIDE_D - 2]))),
        shape=(3, _WIDE_D)))
    return Dataset(matrix=matrix, labels=np.array([1.0, -1.0, 0.25]))


def test_normalize_rows_never_densifies(monkeypatch):
    ds = _very_sparse_dataset()
    _refuse_dense(monkeypatch)
    out = normalize_rows(ds)
    # [DERIVED] row 0 is (3, -4, 12) with norm 13; the empty row stays empty
    cols, vals = _row(out.matrix, 0)
    np.testing.assert_array_equal(cols, [4, 123_456, _WIDE_D - 1])
    np.testing.assert_array_equal(vals, [3.0 / 13.0, -4.0 / 13.0, 12.0 / 13.0])
    assert _row(out.matrix, 1)[0].size == 0
    np.testing.assert_allclose(out.matrix.row_norms_sq, [1.0, 0.0, 1.0],
                               rtol=1e-15)
    assert out.matrix.shape == (3, _WIDE_D)
    assert out.matrix.nnz == 5


def test_parse_never_densifies(monkeypatch):
    _refuse_dense(monkeypatch)
    ds = parse_libsvm(io.StringIO("1.0 5:3.0 123457:-4.0 10000000:12.0\n"
                                  "-1.0\n"
                                  "0.25 1:0.5 9999999:-0.001\n"))
    want = _very_sparse_dataset()
    assert ds.matrix.shape == (3, _WIDE_D)
    for i in range(3):
        for got, expected in zip(_row(ds.matrix, i), _row(want.matrix, i)):
            np.testing.assert_array_equal(got, expected)
    np.testing.assert_array_equal(ds.labels, want.labels)


# ---------------------------------------------------------------------------
# Synthetic instances


def test_synthetic_sparse_deterministic_and_consistent():
    spec = SyntheticSpec(kind="sparse_regression", n=30, d=20,
                         true_sparsity_or_rank=4, noise_level=0.0, seed=9)
    ds1, x1 = generate_synthetic(spec)
    ds2, x2 = generate_synthetic(spec)
    np.testing.assert_array_equal(ds1.matrix.to_dense(),
                                  ds2.matrix.to_dense())
    np.testing.assert_array_equal(ds1.labels, ds2.labels)
    np.testing.assert_array_equal(x1, x2)
    assert np.count_nonzero(x1) == 4
    # noiseless targets are exactly the design applied to the truth
    np.testing.assert_array_equal(ds1.labels, ds1.matrix.to_dense() @ x1)


def test_synthetic_frozen_designs_targets_and_truths():
    # [DERIVED] recorded before the generator handed its array to the design
    # without a copy; the columns are the rows' entries in column order
    sparse = SyntheticSpec(kind="sparse_regression", n=3, d=4,
                           true_sparsity_or_rank=2, noise_level=0.5, seed=3)
    trace = SyntheticSpec(kind="trace_sensing", n=3, d=3, c=2,
                          true_sparsity_or_rank=1, noise_level=0.5, seed=3)
    want = {
        sparse: dict(
            rows=["0x1.398c910d1ea1cp-1", "0x1.644f330551ec3p-1",
                  "0x1.25f054e106e5dp-2", "-0x1.ee5c9c10939bap-3",
                  "-0x1.95ad9946ab56bp-2", "0x1.6ce2abfa5f587p-6",
                  "0x1.67555b4352cb6p-1", "-0x1.2ee6fb306270dp-1",
                  "-0x1.1e68a651a2c0dp-2", "-0x1.aa6f2e51d3b18p-1",
                  "-0x1.cffd338ecc475p-4", "-0x1.db15c4cb8164cp-2"],
            cols=["0x1.398c910d1ea1cp-1", "-0x1.95ad9946ab56bp-2",
                  "-0x1.1e68a651a2c0dp-2", "0x1.644f330551ec3p-1",
                  "0x1.6ce2abfa5f587p-6", "-0x1.aa6f2e51d3b18p-1",
                  "0x1.25f054e106e5dp-2", "0x1.67555b4352cb6p-1",
                  "-0x1.cffd338ecc475p-4", "-0x1.ee5c9c10939bap-3",
                  "-0x1.2ee6fb306270dp-1", "-0x1.db15c4cb8164cp-2"],
            norms=["0x1.fffffffffffffp-1", "0x1.fffffffffffffp-1",
                   "0x1.0000000000000p+0"],
            labels=["0x1.d19edc5d3c408p+0", "-0x1.31251bc57bbf8p+0",
                    "-0x1.9c8975128540fp-1"],
            truth=["0x1.de9a8cf303d69p-1", "0x1.38ed2cc6756a6p+0",
                   "0x0.0p+0", "0x0.0p+0"]),
        trace: dict(
            rows=["-0x1.443ffa7fdbeddp-1", "-0x1.75889ded8fe81p-1",
                  "0x1.0869cd597851dp-2", "0x1.14250f1b02b31p-1",
                  "0x1.49fb26b119ca9p-1", "-0x1.157d616a498fep-1",
                  "-0x1.b956f832aa8e6p-1", "0x1.8cf60b850937ep-5",
                  "0x1.025b143e9faf1p-1"],
            cols=["-0x1.443ffa7fdbeddp-1", "0x1.14250f1b02b31p-1",
                  "-0x1.b956f832aa8e6p-1", "-0x1.75889ded8fe81p-1",
                  "0x1.49fb26b119ca9p-1", "0x1.8cf60b850937ep-5",
                  "0x1.0869cd597851dp-2", "-0x1.157d616a498fep-1",
                  "0x1.025b143e9faf1p-1"],
            norms=["0x1.0000000000000p+0", "0x1.0000000000001p+0",
                   "0x1.0000000000001p+0"],
            labels=["-0x1.2395845c35edep-1", "-0x1.5884c23e84218p-1",
                    "0x1.a50f46727d90bp-2", "-0x1.afd7a1d8cb32cp-1",
                    "0x1.f9feecce847cdp-1", "-0x1.89a621eebdd8ap-1"],
            truth=["-0x1.a84fe6d373b10p-3", "0x1.4e63ed2b75fe0p-1",
                   "0x1.a942b4e9f8c2ep-6", "-0x1.4f23467ced7a6p-4",
                   "-0x1.ac2152c03fa69p-4", "0x1.516635924d3d2p-2"]),
    }
    for spec, hexes in want.items():
        ds, truth = generate_synthetic(spec)
        A = ds.matrix
        got = dict(rows=A._dense_rows, cols=A._dense_cols,
                   norms=A.row_norms_sq, labels=ds.labels, truth=truth)
        for name, values in got.items():
            assert [float(v).hex() for v in values.ravel().tolist()] == \
                hexes[name], (spec.kind, name)
        assert A._dense_cols.shape == (A.n_cols, A.n_rows)


def test_parse_frozen_csr_arrays():
    # [DERIVED] recorded before the parser handed its buffers to the design
    # without a copy: scipy's canonical CSR, with int32 indices
    ds = parse_libsvm(io.StringIO(
        "+1 2:0.25 5:-1.5e3\n-1 1:3\n\n+1 1:-0.125 3:7 4:1e-3\n"))
    csr = ds.matrix._csr
    assert csr.shape == (3, 5)
    assert [float(v).hex() for v in csr.data.tolist()] == [
        "0x1.0000000000000p-2", "-0x1.7700000000000p+10",
        "0x1.8000000000000p+1", "-0x1.0000000000000p-3",
        "0x1.c000000000000p+2", "0x1.0624dd2f1a9fcp-10"]
    assert csr.indices.tolist() == [1, 4, 0, 0, 2, 3]
    assert csr.indptr.tolist() == [0, 2, 3, 6]
    assert csr.indices.dtype == csr.indptr.dtype == np.int32
    assert csr.has_canonical_format
    assert [float(v).hex() for v in ds.matrix.row_norms_sq.tolist()] == [
        "0x1.12a8808000000p+21", "0x1.2000000000000p+3",
        "0x1.8820008637bd0p+5"]
    assert ds.labels.tolist() == [1.0, -1.0, 1.0]


def test_synthetic_rows_unit_norm():
    spec = SyntheticSpec(kind="sparse_regression", n=25, d=10, seed=2)
    ds, _ = generate_synthetic(spec)
    norms = np.linalg.norm(ds.matrix.to_dense(), axis=1)
    np.testing.assert_allclose(norms, 1.0, rtol=0, atol=1e-12)


def test_synthetic_noise_leaves_design_fixed():
    clean = SyntheticSpec(kind="sparse_regression", n=15, d=8, seed=4)
    noisy = SyntheticSpec(kind="sparse_regression", n=15, d=8, seed=4,
                          noise_level=0.5)
    ds_clean, x_clean = generate_synthetic(clean)
    ds_noisy, x_noisy = generate_synthetic(noisy)
    np.testing.assert_array_equal(ds_clean.matrix.to_dense(),
                                  ds_noisy.matrix.to_dense())
    np.testing.assert_array_equal(x_clean, x_noisy)
    assert not np.array_equal(ds_clean.labels, ds_noisy.labels)


def test_synthetic_trace_shapes_and_rank():
    spec = SyntheticSpec(kind="trace_sensing", n=40, d=12, c=9,
                         true_sparsity_or_rank=3, seed=6)
    ds, X0 = generate_synthetic(spec)
    assert ds.labels.shape == (40, 9)
    assert X0.shape == (12, 9)
    assert np.linalg.matrix_rank(X0) == 3
    np.testing.assert_array_equal(ds.labels, ds.matrix.to_dense() @ X0)


@pytest.mark.parametrize("kwargs,fragment", [
    (dict(kind="gaussian_mixture", n=5, d=5), "unknown synthetic kind"),
    (dict(kind="sparse_regression", n=0, d=5), ">= 1"),
    (dict(kind="trace_sensing", n=5, d=5), "column count"),
    (dict(kind="trace_sensing", n=5, d=5, c=0), "column count"),
    (dict(kind="sparse_regression", n=5, d=5, true_sparsity_or_rank=0),
     ">= 1"),
    (dict(kind="sparse_regression", n=5, d=3, true_sparsity_or_rank=4),
     "exceeds"),
    (dict(kind="trace_sensing", n=5, d=4, c=3, true_sparsity_or_rank=4),
     "exceeds"),
    (dict(kind="sparse_regression", n=5, d=5, noise_level=-0.1), ">= 0"),
    (dict(kind="sparse_regression", n=5, d=5, noise_level=np.nan), ">= 0"),
    (dict(kind="sparse_regression", n=True, d=5), "n must be an integer"),
    (dict(kind="sparse_regression", n=4.0, d=5), "n must be an integer"),
    (dict(kind="sparse_regression", n=5, d=2.5), "d must be an integer"),
    (dict(kind="sparse_regression", n=5, d=5, true_sparsity_or_rank=1.5),
     "true_sparsity_or_rank must be an integer"),
    (dict(kind="trace_sensing", n=5, d=5, c=3.0), "c must be an integer"),
    (dict(kind="trace_sensing", n=5, d=5, c=True), "c must be an integer"),
    (dict(kind="sparse_regression", n=5, d=5, seed=1.5),
     "seed must be an integer"),
    (dict(kind="sparse_regression", n=5, d=5, seed=False),
     "seed must be an integer"),
    (dict(kind="sparse_regression", n=5, d=5, noise_level=np.inf), ">= 0"),
    (dict(kind="sparse_regression", n=5, d=5, noise_level=True), ">= 0"),
    (dict(kind="sparse_regression", n=5, d=5, noise_level=np.True_), ">= 0"),
])
def test_synthetic_spec_validation(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        SyntheticSpec(**kwargs)


def test_synthetic_spec_accepts_numpy_integers():
    spec = SyntheticSpec(kind="trace_sensing", n=np.int64(6), d=np.int32(4),
                         c=np.int64(3), true_sparsity_or_rank=np.int64(2),
                         seed=np.int64(1))
    ds, X0 = generate_synthetic(spec)
    assert ds.labels.shape == (6, 3) and X0.shape == (4, 3)
