import csv
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from similearn.errors import DataFormatError
from similearn.io import read_labels, read_matrix, write_labels, write_matrix


def _reference_records(f, path):
    """``(record number, fields)`` from csv; its own errors raised as read_matrix raises them."""
    reader = csv.reader(f)
    try:
        yield from enumerate(reader, start=1)
    except csv.Error as e:
        line = reader.line_num
        raise DataFormatError(f"{path}: bad CSV on line {line}: {e}", line=line) from None


def _reference_read_matrix(path):
    """The per-value parser read_matrix replaced; read_matrix must agree with it."""
    rows = []
    width = None
    with open(path, newline="") as f:
        for lineno, row in _reference_records(f, path):
            if not row or all(x.strip() == "" for x in row):
                continue
            try:
                vals = [float(x) for x in row]
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric value on line {lineno}", line=lineno
                ) from None
            if width is None:
                width = len(vals)
            elif len(vals) != width:
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(vals)} columns, expected {width}",
                    line=lineno,
                )
            if not all(np.isfinite(v) for v in vals):
                raise DataFormatError(
                    f"{path}: non-finite value on line {lineno}", line=lineno
                )
            rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.array(rows, dtype=float)


# csv rejects a longer field; numpy's reader has no such limit
FIELD_LIMIT = csv.field_size_limit()


@st.composite
def _fields(draw, odd):
    x = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0)))
    token = draw(st.sampled_from(["%.17g", "%r"])) % x
    if odd:  # spellings that float() accepts and numpy's reader does not
        token = draw(st.sampled_from([token, "1_000", "\u0661"]))
    pad = draw(st.sampled_from(["", " ", "  ", "\f"]))
    token = pad + token + draw(st.sampled_from(["", " ", "\f"]))
    return f'"{token}"' if odd and draw(st.booleans()) else token


@st.composite
def _csv_texts(draw):
    """CSV text of finite doubles with blank lines, padding, quotes and at most one fault.

    It also holds what numpy's reader and csv with float() may read apart:
    form feeds, bare CR line ends and quoted fields that span lines.
    """
    # half the texts hold nothing numpy's reader rejects (quotes included) unless it is the fault
    odd = draw(st.booleans())
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_fields(odd), min_size=width, max_size=width),
                         min_size=1, max_size=6))
    fault = draw(st.sampled_from([None, "token", "ragged", "nonfinite", "trailing_comma",
                                  "empty_field", "comment", "bom", "oversize"]))
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    col = draw(st.integers(0, width - 1))
    if fault == "token":
        row[col] = draw(st.sampled_from(["x", "1.5.2", "0x10", "--1", "1e", "1,5",
                                         "1\x00", "1\f2", "1\x1c", "\x1f1"]))
    elif fault == "ragged":
        if width > 1 and draw(st.booleans()):
            row.pop()
        else:  # the extra field may also be non-finite: width is checked first
            row.append(draw(st.one_of(_fields(odd), st.sampled_from(["nan", "inf"]))))
    elif fault == "nonfinite":
        row[col] = draw(st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400"]))
    elif fault == "trailing_comma":
        row.append("")
    elif fault == "empty_field":
        row[col] = draw(st.sampled_from(["", " ", '""']))
    elif fault == "comment":
        row[0] = "#" + row[0]
    elif fault == "oversize":  # float() would take either field
        half = " " * (FIELD_LIMIT // 2 + 1)
        row[col] = draw(st.sampled_from([half + half + "1", f'"1{half}\n{half}"']))
    # the reference numbers records, not lines, so fields that span lines come after
    # the reported line: the faulty row, or the next one when a ragged first row sets the width
    for later in rows[at + 2 if fault else 0:]:
        if odd and draw(st.booleans()):
            later[draw(st.integers(0, width - 1))] = draw(
                st.sampled_from(['"1\n"', '"\r\n2.5 "', '" -3e2\r"']))
    blanks = st.lists(st.sampled_from(["", " ", "\t", " , "] if odd else [""]), max_size=2)
    lines = []
    for row in rows:
        lines += draw(blanks)
        lines.append(",".join(row))
    lines += draw(blanks)
    eol = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = "\ufeff" if fault == "bom" else ""
    return bom + eol.join(lines) + (eol if draw(st.booleans()) else "")


def _outcome(read, path):
    try:
        return read(path)
    except DataFormatError as e:
        return e.line, str(e)


@settings(max_examples=300, deadline=None)
@given(text=_csv_texts())
def test_matrix_matches_reference_parser(tmp_path_factory, text):
    p = tmp_path_factory.getbasetemp() / "property.csv"
    p.write_bytes(text.encode())
    want = _outcome(_reference_read_matrix, p)
    got = _outcome(read_matrix, p)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert got == want


# files on which numpy's reader and csv with float() part ways, or nearly do
EDGE_FILES = [
    b"1_000,2\n", "\u0661,\u0662.5\n".encode(), b"#1,2\n", b"1,2\n#\n3,4\n",
    b"\xef\xbb\xbf1,2\n", b"1\x00,2\n", b"1,2\n\x00\n", b"\f1,2\f\n", b"1\f2,3\n",
    b"1\x1c,2\n", b"1,\x1f2\n", b"1,2\r3,4\r", b"1,2\r\n\r\n3,4", b'"1\n",2\n3,4\n',
    b'"1"2,3\n', b'1"2",3\n', b"", b"\r\n\n", b"1,2\n \n3,4\n", b"1,2\n , \n3,4\n",
    b"nan,1\n", b"1,1e400\n", "1,2\n\xa0 3\u2000,4\n".encode(),
    b" " * FIELD_LIMIT + b"1,2\n", b" " * (FIELD_LIMIT - 1) + b"1,2\n",
    b'"1' + b" " * (FIELD_LIMIT // 2) + b"\n" + b" " * (FIELD_LIMIT // 2) + b'",2\n',
    b"1" + b" " * (FIELD_LIMIT // 2) + b"\f" + b" " * (FIELD_LIMIT // 2) + b",2\n",
]


@pytest.mark.parametrize("data", EDGE_FILES, ids=range(len(EDGE_FILES)))
def test_matrix_matches_reference_parser_on_edge_files(tmp_path, data):
    p = tmp_path / "edge.csv"
    p.write_bytes(data)
    want = _outcome(_reference_read_matrix, p)
    got = _outcome(read_matrix, p)
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray) and got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    else:
        assert got == want


def test_matrix_roundtrip_exact(tmp_path, rng):
    M = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    p = tmp_path / "m.csv"
    write_matrix(p, M)
    back = read_matrix(p)
    assert np.array_equal(back, M)


_EDGE_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
                1e-300, -3.3e-300, 1e300, -1.7976931348623157e308]


@st.composite
def _written_matrices(draw):
    """Matrices for write_matrix: exactly symmetric or not, float or int, in any layout."""
    n = draw(st.integers(0, 6))
    m = n if draw(st.booleans()) else draw(st.integers(0, 6))
    if draw(st.booleans()):
        values = st.one_of(st.floats(), st.sampled_from(_EDGE_FLOATS))
        dtype = float
    else:
        values, dtype = st.integers(-2**63, 2**63 - 1), np.int64
    M = np.array(draw(st.lists(values, min_size=n * m, max_size=n * m)), dtype=dtype)
    if dtype is float and draw(st.booleans()):  # all zeros, signs drawn
        M = np.where(draw(st.lists(st.booleans(), min_size=n * m, max_size=n * m)), -0.0, 0.0)
    M = M.reshape(n, m)
    if n == m and draw(st.booleans()):  # mirror the upper triangle bit for bit
        M = np.where(np.triu(np.ones((n, n), dtype=bool)), M, M.T)
        if n > 1 and dtype is float and draw(st.booleans()):  # one mirrored 0.0/-0.0 pair
            i, j = draw(st.permutations(range(n)))[:2]
            M[i, j], M[j, i] = 0.0, -0.0
    layout = draw(st.sampled_from(["c", "fortran", "T", "strided", "1-D"]))
    return {"c": M, "fortran": np.asfortranarray(M), "T": M.T, "strided": M[::2, ::2],
            "1-D": M.ravel()}[layout]


@settings(max_examples=300, deadline=None)
@given(M=_written_matrices())
@example(M=np.array([[1.0, 0.0, 2.0], [-0.0, 1.0, 3.0], [2.0, 3.0, 1.0]]))  # "-0" stays put
@example(M=np.array([[0.0, -0.0], [0.0, -0.0]]))
def test_write_matrix_matches_savetxt(tmp_path_factory, M):
    """The symmetric and the general path both write np.savetxt's bytes."""
    got, want = (tmp_path_factory.getbasetemp() / name for name in ("got.csv", "want.csv"))
    write_matrix(got, M)
    np.savetxt(want, np.atleast_2d(M), delimiter=",", fmt="%.17g")
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("symmetric, bound", [(True, 1.0), (False, 0.25)])
def test_write_matrix_memory(tmp_path, rng, symmetric, bound):
    """Beyond M, a symmetric write holds at most n^2 doubles and a general one a quarter of
    that: rows go out one at a time, never the whole matrix as Python floats."""
    n = 300
    M = rng.standard_normal((n, n)) * np.exp(rng.uniform(-20, 20, (n, n)))
    if symmetric:
        M = (M + M.T) / 2
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "m.csv", M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * n * n * 8


def test_matrix_blank_lines_skipped(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n\n3,4\n")
    np.testing.assert_allclose(read_matrix(p), [[1, 2], [3, 4]])


def test_matrix_ragged_row_names_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,4,5\n")
    with pytest.raises(DataFormatError) as err:
        read_matrix(p)
    assert err.value.line == 2
    assert "line 2" in str(err.value)


def test_matrix_non_numeric_names_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\n3,x\n")
    with pytest.raises(DataFormatError) as err:
        read_matrix(p)
    assert err.value.line == 2


def test_matrix_rejects_nonfinite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nnan,4\n")
    with pytest.raises(DataFormatError) as err:
        read_matrix(p)
    assert err.value.line == 2
    p.write_text("1,inf\n")
    with pytest.raises(DataFormatError):
        read_matrix(p)


def test_matrix_reports_first_bad_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1,2\nnan,4\n5,6\n7,8,9\n")
    with pytest.raises(DataFormatError) as err:
        read_matrix(p)
    assert err.value.line == 2


def test_matrix_reports_physical_line_after_multiline_field(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text('"1\n",2\n3,x\n')
    with pytest.raises(DataFormatError, match="line 3") as err:
        read_matrix(p)
    assert err.value.line == 3


def test_matrix_empty_file(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("")
    with pytest.raises(DataFormatError):
        read_matrix(p)


def test_labels_roundtrip(tmp_path):
    p = tmp_path / "y.csv"
    write_labels(p, [0, 2, 1, 1])
    assert np.array_equal(read_labels(p), [0, 2, 1, 1])


@pytest.mark.parametrize("labels", [[0, 2, 1, 1], [-3, 2**53 - 1], [7], []])
def test_write_labels_matches_savetxt(tmp_path, labels):
    write_labels(tmp_path / "got.csv", labels)
    np.savetxt(tmp_path / "want.csv", np.asarray(labels, dtype=int).reshape(-1, 1), fmt="%d")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_labels_roundtrip_at_a_gz_path(tmp_path):
    """A .gz path holds the same plain text, which read_labels reads back."""
    p = tmp_path / "y.csv.gz"
    write_labels(p, [0, 1, 1])
    assert p.read_bytes() == b"0\n1\n1\n"
    assert read_labels(p).tolist() == [0, 1, 1]


def test_labels_count_checked_after_the_integer_checks(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("0\n1.5\n")
    with pytest.raises(DataFormatError, match="non-integer label on line 2"):
        read_labels(p, 3)
    p.write_text("0\n1\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: label count 2 does not match "
                                          "sample count 3$"):
        read_labels(p, 3)
    assert read_labels(p, 2).tolist() == [0, 1]


def test_labels_must_be_single_column(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("0,1\n1,0\n")
    with pytest.raises(DataFormatError):
        read_labels(p)


def test_labels_must_be_integers(tmp_path):
    p = tmp_path / "y.csv"
    p.write_text("0\n1.5\n")
    with pytest.raises(DataFormatError) as err:
        read_labels(p)
    assert err.value.line == 2
    p.write_text("0\n\n1.5\n")
    with pytest.raises(DataFormatError) as err:
        read_labels(p)
    assert err.value.line == 3
    assert "line 3" in str(err.value)


@pytest.mark.parametrize("big", ["1e20", "-1e20", "9007199254740992"])
def test_labels_must_lie_below_2_to_the_53(tmp_path, big):
    # from 2**53 on, distinct integers can parse to one float and merge as labels
    p = tmp_path / "y.csv"
    p.write_text(f"0\n\n{big}\n")
    with pytest.raises(DataFormatError, match="magnitude >= 2\\*\\*53 on line 3") as err:
        read_labels(p)
    assert err.value.line == 3
    p.write_text("0\n9007199254740991\n-9007199254740991\n")
    assert read_labels(p).tolist() == [0, 2**53 - 1, 1 - 2**53]
