"""Deterministic CSV output: UTF-8, LF endings, RFC-4180 quoting.

Comment lines are '#'-prefixed and carry the full parameter echo plus the
build identifier, so a written file is a reproducible record of its run.
No timestamps: identical inputs must produce identical bytes.

The body comes as blocks of columns, which a producer may compute while
earlier blocks are written. Each block is formatted column by column, in
slices of at most _CHUNK_ROWS rows, into a temp file next to the target,
which is moved into place only once every row is written: a failing run
leaves no partial CSV and an earlier file at the target untouched.

Floats are written as their shortest round-trip repr, which is most of the
cost of a trace. A float slice calls repr once per distinct bit pattern, and
maps the strings back to its rows, where at most half its values are
distinct: the service and sojourn columns of a trace, and its peak-AoI
column under deterministic arrivals. A strictly increasing slice, such as a
time column, calls repr on each cell at once; any other slice is told by
one sort of its bit patterns, about 1 % of the cost of its repr calls.
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
    booleans and None their JSON spelling, so a header value reads back."""
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # builtin repr also for numpy scalars
    if hasattr(v, "item") and not isinstance(v, str):
        return format_value(v.item())
    return str(v)


def _quote(cell: str) -> str:
    """Minimal quoting, as csv.writer(lineterminator="\\n") does it."""
    if "," in cell or '"' in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(col):
    """CSV cells of one column; ranges and numeric arrays, known by their
    dtype, skip the per-cell dispatch. Integers, Python ints by then, go
    through repr: str's text, without the call through the str type."""
    if isinstance(col, range):
        return map(repr, col)
    kind = col.dtype.kind if hasattr(col, "dtype") else None
    if kind == "f" and col.dtype.itemsize <= 8:
        return _float_cells(col)
    if kind == "f":  # longdouble, which float64 keys would round
        return map(repr, col.tolist())
    if kind in ("i", "u"):
        return map(repr, col.tolist())
    return [_quote(format_value(v)) for v in col]


def _float_cells(col):
    """repr of each float of a float16, 32 or 64 column, called once per
    distinct value where at most half the values are distinct.

    Values are told apart by their float64 bit patterns, so -0.0 and 0.0,
    and NaNs of each sign and payload, keep their own strings, as repr on
    each cell gives them.
    """
    values = col.astype(np.float64)
    if np.all(values[1:] > values[:-1]):  # increasing: every value distinct
        return map(repr, col.tolist())
    keys = values.view(np.int64)
    keys.sort()
    new = keys[1:] != keys[:-1]
    if 2 * (np.count_nonzero(new) + 1) > len(keys):
        return map(repr, col.tolist())
    distinct = keys[np.concatenate(([True], new))]
    strings = list(map(repr, distinct.view(np.float64).tolist()))
    rows = distinct.searchsorted(col.astype(np.float64).view(np.int64))
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
