import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from similearn.errors import DataFormatError
from similearn.io import read_labels, read_matrix, write_labels, write_matrix


def _reference_read_matrix(path):
    """The per-value parser read_matrix replaced; read_matrix must agree with it."""
    rows = []
    width = None
    with open(path, newline="") as f:
        for lineno, row in enumerate(csv.reader(f), start=1):
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


@st.composite
def _fields(draw):
    x = draw(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(-0.0)))
    token = draw(st.sampled_from(["%.17g", "%r"])) % x
    pad = draw(st.sampled_from(["", " ", "  "]))
    token = pad + token + draw(st.sampled_from(["", " "]))
    return f'"{token}"' if draw(st.booleans()) else token


@st.composite
def _csv_texts(draw):
    """CSV text of finite doubles with blank lines, padding, quotes and at most one fault."""
    width = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(_fields(), min_size=width, max_size=width),
                         min_size=1, max_size=6))
    fault = draw(st.sampled_from(
        [None, "token", "ragged", "nonfinite", "trailing_comma", "empty_field"]))
    if fault is not None:
        row = draw(st.sampled_from(rows))
        col = draw(st.integers(0, width - 1))
        if fault == "token":
            row[col] = draw(st.sampled_from(["x", "1.5.2", "0x10", "--1", "1e", "1,5"]))
        elif fault == "ragged":
            if width > 1 and draw(st.booleans()):
                row.pop()
            else:  # the extra field may also be non-finite: width is checked first
                row.append(draw(st.one_of(_fields(), st.sampled_from(["nan", "inf"]))))
        elif fault == "nonfinite":
            row[col] = draw(st.sampled_from(["nan", "-nan", "inf", "-Infinity", "1e400"]))
        elif fault == "trailing_comma":
            row.append("")
        else:
            row[col] = draw(st.sampled_from(["", " ", '""']))
    blanks = st.lists(st.sampled_from(["", " ", "\t", " , "]), max_size=2)
    lines = []
    for row in rows:
        lines += draw(blanks)
        lines.append(",".join(row))
    lines += draw(blanks)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + (eol if draw(st.booleans()) else "")


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


def test_matrix_roundtrip_exact(tmp_path, rng):
    M = rng.standard_normal((7, 5)) * np.exp(rng.uniform(-20, 20, (7, 5)))
    p = tmp_path / "m.csv"
    write_matrix(p, M)
    back = read_matrix(p)
    assert np.array_equal(back, M)


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
