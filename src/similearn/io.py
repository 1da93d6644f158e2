"""CSV and JSON file handling.

Matrices travel as plain CSV with no header, one row per line, floats
written with enough digits to round-trip exactly. Labels are a
single-column CSV of integers. Parse errors always carry the offending
line number.
"""

import contextlib
import csv
import json
from itertools import islice

import numpy as np

from .errors import DataFormatError

# %.17g round-trips any IEEE double through text exactly
FLOAT_FMT = "%.17g"


def _records(f, path):
    """Yield ``(line, fields)`` for each non-blank CSV record of the open file ``f``.

    ``line`` is the physical file line on which the record ends.
    """
    reader = csv.reader(f)
    try:
        for row in reader:
            if row and not all(x.strip() == "" for x in row):
                yield reader.line_num, row
    except csv.Error as e:
        line = reader.line_num
        raise DataFormatError(f"{path}: bad CSV on line {line}: {e}", line=line) from None
    except UnicodeDecodeError as e:
        raise DataFormatError(f"{path}: not {e.encoding} text: {e.reason}") from None


def read_matrix(path) -> np.ndarray:
    """Read a 2-D numeric CSV; rejects ragged rows and non-finite values.

    Fields parse as ``float()`` parses them; the first bad line in file order is reported.
    """
    with open(path, newline="") as f:
        with contextlib.suppress(ValueError):  # UnicodeDecodeError included
            text = f.read()
            # numpy's C reader, quotes off so that no field spans lines, unless the file may
            # hold no data, \x1c-\x1f (blank to numpy, not to float()) or a line over csv's limit
            lines = text.replace("\r", "\n").split("\n")
            if 0 < max(map(len, lines)) <= csv.field_size_limit() and not any(
                    c in text for c in "\x1c\x1d\x1e\x1f"):
                f.seek(0)
                M = np.loadtxt(f, delimiter=",", ndmin=2, comments=None)
                if np.isfinite(M).all():
                    return M
        f.seek(0)
        rows = []
        for lineno, row in _records(f, path):
            try:
                vals = np.array(row, dtype=float)
            except ValueError:
                raise DataFormatError(
                    f"{path}: non-numeric value on line {lineno}", line=lineno
                ) from None
            if rows and len(vals) != len(rows[0]):
                raise DataFormatError(
                    f"{path}: line {lineno} has {len(vals)} columns, expected {len(rows[0])}",
                    line=lineno,
                )
            if not np.isfinite(vals).all():
                raise DataFormatError(
                    f"{path}: non-finite value on line {lineno}", line=lineno
                )
            rows.append(vals)
    if not rows:
        raise DataFormatError(f"{path}: no data rows")
    return np.vstack(rows)


def write_matrix(path, M):
    np.savetxt(path, np.atleast_2d(M), delimiter=",", fmt=FLOAT_FMT)


def read_labels(path) -> np.ndarray:
    """Read a single-column CSV of integer class ids below 2**53 in magnitude."""
    M = read_matrix(path)
    if M.shape[1] != 1:
        raise DataFormatError(f"{path}: labels must be a single column")
    vals = M[:, 0]
    # from 2**53 on, distinct integers can parse to the same float
    bad = np.flatnonzero((vals != np.round(vals)) | (np.abs(vals) >= 2.0**53))
    if bad.size:
        with open(path, newline="") as f:
            line, _ = next(islice(_records(f, path), int(bad[0]), None))
        what = "non-integer label" if abs(vals[bad[0]]) < 2.0**53 else "label of magnitude >= 2**53"
        raise DataFormatError(f"{path}: {what} on line {line}", line=line)
    return vals.astype(int)


def write_labels(path, labels):
    np.savetxt(path, np.asarray(labels, dtype=int).reshape(-1, 1), fmt="%d")


def read_json(path):
    """Parse a JSON file; bad JSON or undecodable bytes raise DataFormatError naming it."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as e:
            raise DataFormatError(f"{path}: not valid JSON: {e}", line=e.lineno) from None
        except UnicodeDecodeError as e:
            raise DataFormatError(f"{path}: not {e.encoding} text: {e.reason}") from None


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")
