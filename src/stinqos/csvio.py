"""Deterministic CSV output: UTF-8, LF endings, RFC-4180 quoting.

Comment lines are '#'-prefixed and carry the full parameter echo plus the
build identifier, so a written file is a reproducible record of its run.
No timestamps: identical inputs must produce identical bytes.
"""
from __future__ import annotations

import csv
import io
from importlib import metadata


def build_identifier() -> str:
    try:
        version = metadata.version("stinqos")
    except metadata.PackageNotFoundError:
        version = "unreleased"
    return f"stinqos {version}"


def format_value(v) -> str:
    """Canonical scalar formatting; floats use shortest round-trip repr."""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(float(v))  # builtin repr also for numpy scalars
    if hasattr(v, "item") and not isinstance(v, str):
        return format_value(v.item())
    return str(v)


def render_csv(fieldnames, rows, comments=()) -> str:
    """Render rows to a CSV string with '#' comment header lines."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([format_value(row[k]) for k in fieldnames])
    return buf.getvalue()


def comment_lines(params: dict) -> list[str]:
    """One sorted key=value comment line per parameter, plus the build id."""
    lines = [f"build: {build_identifier()}"]
    for key in sorted(params):
        lines.append(f"{key}={format_value(params[key])}")
    return lines
