"""Deterministic CSV output: UTF-8, LF endings, RFC-4180 quoting.

Comment lines are '#'-prefixed and carry the full parameter echo plus the
build identifier, so a written file is a reproducible record of its run.
No timestamps: identical inputs must produce identical bytes.

The body comes as blocks of columns, which a producer may compute while
earlier blocks are written. Each block is formatted column by column, in
slices of at most _CHUNK_ROWS rows, into a temp file next to the target,
which is moved into place only once every row is written: a failing run
leaves no partial CSV and an earlier file at the target untouched.

A column is written by one of three rules: a range of row numbers by repr,
a float64 array of native byte order by _float_cells, any other column value
by value through format_value. Floats take their shortest round-trip repr,
most of the cost of a trace. A float slice calls repr once per distinct bit
pattern, and maps the strings back to its rows, where at most half its
values are distinct: the service and sojourn columns of a trace, and its
peak-AoI column under deterministic arrivals. A strictly increasing slice,
such as a time column, calls repr on each cell at once; any other slice is
told by one sort of its bit patterns, about 1 % of the cost of its repr calls.
"""
from __future__ import annotations

import os

from . import __version__
from ._startup import np

_CHUNK_ROWS = 1 << 12


def build_identifier() -> str:
    return f"stinqos {__version__}"


def format_value(v) -> str:
    """Canonical scalar formatting; floats use shortest round-trip repr, and
    booleans and None their JSON spelling, so a header value reads back. A
    numpy scalar is taken as its Python value first."""
    if hasattr(v, "item"):
        v = v.item()
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _quote(cell: str) -> str:
    """Minimal quoting, as csv.writer(lineterminator="\\n") does it."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(col):
    """CSV cells of one column by the three rules. The float64 test reads
    the column's own dtype, never the lazy np, so list columns load no
    numpy; and only native byte order passes, as _float_cells reads bytes."""
    if isinstance(col, range):
        return map(repr, col)
    if hasattr(col, "dtype") and col.dtype.char == "d" and col.dtype.isnative:
        return _float_cells(col)
    return [_quote(format_value(v)) for v in col]


def _float_cells(col):
    """repr of each float of a native-order float64 column, called once per
    distinct value where at most half the values are distinct.

    Values are told apart by their bit patterns, on the column's own int64
    view, so -0.0 and 0.0, and NaNs of each sign and payload, keep their own
    strings, as repr on each cell gives them.
    """
    if np.all(col[1:] > col[:-1]):  # increasing: every value distinct
        return map(repr, col.tolist())
    bits = col.view(np.int64)
    keys = np.sort(bits)
    new = keys[1:] != keys[:-1]
    if 2 * (np.count_nonzero(new) + 1) > len(keys):
        return map(repr, col.tolist())
    distinct = keys[np.concatenate(([True], new))]
    strings = list(map(repr, distinct.view(np.float64).tolist()))
    rows = distinct.searchsorted(bits)
    return map(strings.__getitem__, rows.tolist())


def _write_block(fh, n_fields: int, columns) -> None:
    """The rows of one block, formatted _CHUNK_ROWS rows at a time; the
    cells of the last slice are gone before the next block is computed."""
    n_rows = len(columns[0]) if columns else 0
    if len(columns) != n_fields or any(len(c) != n_rows for c in columns):
        raise ValueError("need one column per field, all of equal length")
    for start in range(0, n_rows, _CHUNK_ROWS):
        cells = [_cells(c[start:start + _CHUNK_ROWS]) for c in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_csv(path, fieldnames, blocks, comments=()) -> None:
    """Write '#' comment lines, a header and the rows of every block.

    ``blocks`` is an iterable of blocks of rows; a block holds one sequence
    per field, all of one length. The first block is taken before the temp
    file is opened, so a producer's input checks run before any file
    exists. The file appears at ``path`` only when complete; on any error
    the temp file is removed and the error re-raised.
    """
    blocks = iter(blocks)
    columns = next(blocks, None)
    # a random name, which no killed run can have left, opened exclusively
    # so that no planted link is followed
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.writelines(f"# {line}\n" for line in comments)
            fh.write(",".join(map(_quote, fieldnames)) + "\n")
            while columns is not None:
                _write_block(fh, len(fieldnames), columns)
                columns = next(blocks, None)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def comment_lines(params: dict) -> list[str]:
    """One sorted key=value comment line per parameter, plus the build id."""
    lines = [f"build: {build_identifier()}"]
    for key in sorted(params):
        lines.append(f"{key}={format_value(params[key])}")
    return lines
