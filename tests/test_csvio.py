"""CSV writer tests: byte identity with csv.writer plus format_value per cell."""
import csv
import io
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import stinqos
from stinqos import aoi, channel, csvio
from stinqos.aoi import (
    ArrivalModel, ServiceModel, TRACE_FIELDS, sample_updates, trace_blocks,
    trace_columns,
)
from stinqos.csvio import format_value, write_csv
from trace_helper import whole_trace


def reference_csv(fieldnames, columns, comments=()):
    """Row-wise rendering with the csv module: the writer's reference."""
    buf = io.StringIO()
    for line in comments:
        buf.write(f"# {line}\n")
    writer = csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
    writer.writerow(fieldnames)
    for row in zip(*columns):
        writer.writerow([format_value(v) for v in row])
    return buf.getvalue()


def written(tmp_path, fieldnames, blocks, comments=()):
    out = tmp_path / "out.csv"
    write_csv(out, fieldnames, blocks, comments)
    return out.read_bytes().decode("utf-8")  # keeps a lone "\r" as written


def whole_columns(times):
    """The trace columns of drawn times in TRACE_FIELDS order, each
    spanning every row."""
    return list(whole_trace(*times).values())


def test_trace_across_chunk_edges(tmp_path):
    n = 2 * csvio._CHUNK_ROWS + 3
    times = sample_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                           n, np.random.default_rng(7))
    columns = whole_columns(times)
    comments = ["build: test", "n_updates=" + str(n)]
    got = written(tmp_path, TRACE_FIELDS, [columns], comments).split("\n")
    want = reference_csv(TRACE_FIELDS, columns, comments).split("\n")
    # the first differing line, not a diff of two megabyte strings
    diff = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), None)
    assert diff is None, (diff, got[diff], want[diff])
    assert len(got) == len(want) == len(comments) + n + 2


def test_trace_across_departure_blocks(tmp_path):
    # three blocks of the departure recursion plus 17 rows: the streamed,
    # chunked, column-wise writer equals the row-by-row csv.writer rendering
    # of the whole trace
    n = 3 * channel._BLOCK_ROWS + 17
    times = sample_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                           n, np.random.default_rng(8))
    got = written(tmp_path, TRACE_FIELDS, trace_columns(*times))
    assert got == reference_csv(TRACE_FIELDS, whole_columns(times))


def traced_peak(fn):
    """tracemalloc peak of one call, in bytes, above what is live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [20_000, 200_000])
def test_trace_memory_above_columns(tmp_path, n):
    # one block of whole columns is still formatted a slice of rows at a time
    times = sample_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                           n, np.random.default_rng(9))
    columns = whole_columns(times)
    peak = traced_peak(lambda: write_csv(tmp_path / "out.csv", TRACE_FIELDS, [columns]))
    assert peak < 2.5e6


def test_streamed_trace_memory(tmp_path):
    # only the arrival and service columns span the trace: 16 B per update
    n = 200_000

    def draw_and_write():
        arrivals, services = sample_updates(
            ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3), n,
            np.random.default_rng(10))
        write_csv(tmp_path / "out.csv", TRACE_FIELDS, trace_columns(arrivals, services))

    assert traced_peak(draw_and_write) <= 16 * n + 2.5e6


def test_producer_checks_run_before_file_is_opened(tmp_path):
    # decreasing arrivals: the ValueError of trace_columns' input checks, not
    # the FileNotFoundError of opening a file in a missing directory
    blocks = trace_columns(np.array([2.0, 1.0]), np.ones(2))
    with pytest.raises(ValueError, match="nondecreasing"):
        write_csv(tmp_path / "missing" / "out.csv", TRACE_FIELDS, blocks)


@pytest.mark.parametrize("column, row, value", [
    ("arrivals", aoi._TRACE_ROWS, 0.5),  # below the carried arrival
    ("services", aoi._TRACE_ROWS + 1, math.nan)])
def test_failure_in_later_block_leaves_no_file(tmp_path, column, row, value):
    # a decreasing arrival or a NaN service past the first block: the input
    # checks of that block fail while the temp file is being written
    n = 2 * aoi._TRACE_ROWS + 3
    times = {"arrivals": np.arange(1.0, n + 1), "services": np.ones(n)}
    times[column][row] = value
    rows = range(0, n, aoi._TRACE_ROWS)
    updates = [(times["arrivals"][i:i + aoi._TRACE_ROWS],
                times["services"][i:i + aoi._TRACE_ROWS]) for i in rows]
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", TRACE_FIELDS, trace_blocks(updates))
    assert list(tmp_path.iterdir()) == []


MIXED = {
    "float": [0.1, 1e-300, float("inf"), float("nan"), -0.0, 2.0 / 3.0, 1e16],
    "empty": ["", 1.5, "", "", 2.0, "", ""],
    "bool": [True, False, np.bool_(True), np.bool_(False), True, False, True],
    "int": [0, -1, 2 ** 70, np.int64(7), np.int32(-3), np.uint8(255), 12],
    "npscalar": [np.float64(0.1), np.float32(0.1), np.int16(4), np.float64(1e-7),
                 np.bool_(True), np.str_("x,y"), np.float64(-2.5)],
    "none": [None, "a,b", 'q"uote', "line\nbreak", "cr\rhere", " lead", "#hash"],
}


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 16384])
def test_mixed_type_columns(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    fields = list(MIXED) + ["f_arr", "f32_arr", "i_arr", "u_arr", "b_arr", "o_arr"]
    columns = list(MIXED.values()) + [
        np.linspace(-1.0, 1.0, 7) / 3.0,
        np.linspace(0.0, 1.0, 7, dtype=np.float32),
        np.arange(-3, 4, dtype=np.int32),
        np.arange(7, dtype=np.uint64) * 2 ** 60,
        np.arange(7) % 2 == 0,
        np.array([1.0, "", None, True, 2, "a,b", 0.5], dtype=object),
    ]
    assert written(tmp_path, fields, [columns]) == reference_csv(fields, columns)


def test_float_list_with_empty_cell_takes_per_cell_path(tmp_path):
    fields = ["a", "b"]
    columns = [[1.0, "", 2.5, np.float64(0.1)], [1, 2, 3, 4]]
    text = written(tmp_path, fields, [columns])
    assert text == reference_csv(fields, columns)
    assert text.split("\n")[2] == ",2"


def test_header_only_when_no_rows(tmp_path):
    fields = ["x", "a,b"]
    text = written(tmp_path, fields, [[[], np.zeros(0)]])
    assert text == reference_csv(fields, [[], []]) == 'x,"a,b"\n'


def test_columns_must_match_fields(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[[1, 2], [3]]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "out.csv", ["a", "b"], [[[1, 2]]])
    with pytest.raises(ValueError):  # a bad block after a good one
        write_csv(tmp_path / "out.csv", ["a", "b"], [[[1], [2]], [[1, 2], [3]]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("cell",
                         ["a,b", 'a"b', "a\nb", "a\rb", "", '""', " a", "#a"])
def test_quote_matches_csv_writer(cell):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n", quoting=csv.QUOTE_MINIMAL).writerow([cell, "x"])
    assert csvio._quote(cell) + ",x\n" == buf.getvalue()


def test_build_identifier_is_package_version():
    assert csvio.build_identifier() == f"stinqos {stinqos.__version__}"


def test_pyproject_version_is_package_version():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == stinqos.__version__
