"""CSV writer tests: byte identity with csv.writer plus format_value per cell."""
import csv
import io
import math
import struct
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import stinqos
from stinqos import aoi, channel, csvio
from stinqos.aoi import ArrivalModel, ServiceModel, TRACE_FIELDS, trace_blocks, update_blocks
from stinqos.csvio import format_value, write_csv
from trace_helper import column_blocks, whole_trace, whole_updates


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
    times = whole_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
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
    # twelve trace blocks of aoi._TRACE_ROWS rows plus 17 rows: the
    # streamed, chunked, column-wise writer equals the row-by-row csv.writer
    # rendering of the whole trace
    n = 3 * channel._BLOCK_ROWS + 17
    times = whole_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                          n, np.random.default_rng(8))
    got = written(tmp_path, TRACE_FIELDS, trace_blocks(column_blocks(*times)))
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
    times = whole_updates(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                          n, np.random.default_rng(9))
    columns = whole_columns(times)
    peak = traced_peak(lambda: write_csv(tmp_path / "out.csv", TRACE_FIELDS, [columns]))
    assert peak < 2.5e6


def test_streamed_trace_memory(tmp_path):
    # the streamed draw and its trace hold one block of rows at a time: no
    # column spans the updates
    n = 200_000

    def draw_and_write():
        updates = update_blocks(ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3),
                                n, np.random.default_rng(10))
        write_csv(tmp_path / "out.csv", TRACE_FIELDS, trace_blocks(updates))

    assert traced_peak(draw_and_write) <= 2.5e6


def test_producer_checks_run_before_file_is_opened(tmp_path):
    # decreasing arrivals: the ValueError of trace_blocks' input checks, not
    # the FileNotFoundError of opening a file in a missing directory
    blocks = trace_blocks([(np.array([2.0, 1.0]), np.ones(2))])
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
    updates = column_blocks(times["arrivals"], times["services"])
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


def integer_columns():
    """A range across a power of ten, and an array of each integer dtype
    holding 0, negatives where the dtype has them, and its extremes."""
    columns = {"range": range(10 ** 6 - 3, 10 ** 6 + 4)}
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        info = np.iinfo(dtype)
        columns[dtype.__name__] = np.array([0, -1, info.min, info.max, info.min + 1, 9, -10],
                                           dtype)
    for dtype in (np.uint8, np.uint16, np.uint32, np.uint64):
        info = np.iinfo(dtype)
        columns[dtype.__name__] = np.array([0, 1, info.max, info.max - 1, 9, 10, 99], dtype)
    return columns


@pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 16384])
def test_mixed_type_columns(tmp_path, monkeypatch, chunk_rows):
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    integers = integer_columns()
    bools = np.arange(7) % 2 == 0
    fields = list(MIXED) + ["f_arr", "f32_arr", "i_arr", "u_arr", "b_arr", "o_arr",
                            *integers]
    columns = list(MIXED.values()) + [
        np.linspace(-1.0, 1.0, 7) / 3.0,
        np.linspace(0.0, 1.0, 7, dtype=np.float32),
        np.arange(-3, 4, dtype=np.int32),
        np.arange(7, dtype=np.uint64) * 2 ** 60,
        bools,
        np.array([1.0, "", None, True, 2, "a,b", 0.5], dtype=object),
        *integers.values(),
    ]
    assert written(tmp_path, fields, [columns]) == reference_csv(fields, columns)
    # integer cells are str of each value, and bool cells their JSON spelling
    got = written(tmp_path, [*integers, "b_arr"], [[*integers.values(), bools]])
    rows = [line.split(",") for line in got.splitlines()[1:]]
    assert len(rows) == len(bools)
    for i, row in enumerate(rows):
        assert row == [str(int(c[i])) for c in integers.values()] + [
            "true" if bools[i] else "false"]


def _nan(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# values whose bit patterns differ where they compare equal, or whose repr is
# the same for several bit patterns: both zeros, NaNs of either sign and of
# another payload, the infinities, subnormals of either sign, and values
# that turn subnormal or infinite as float32
SPECIAL_FLOATS = [0.0, -0.0, math.nan, -math.nan, _nan(0x7FF8000000000001),
                  _nan(0xFFF0000000000001), math.inf, -math.inf, 5e-324, -5e-324,
                  1e-310, 1e-40, -1e-45, 3.5e38, 64.0, 0.1, 1.3]


@st.composite
def float_columns(draw):
    """One to three float columns of one length, each float64, float32, or
    a strided or reversed view of a float64 array; the values come either
    from a pool of one to five (most chunks repeat values) or from any
    float (most chunks are distinct)."""
    n = draw(st.integers(0, 60))
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(),
                         min_size=1, max_size=5))
    values = st.sampled_from(pool) if draw(st.booleans()) else st.floats()
    columns = []
    for _ in range(draw(st.integers(1, 3))):
        col = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
        layout = draw(st.sampled_from(["f8", "f4", "strided", "reversed"]))
        if layout == "f4":
            with np.errstate(over="ignore", invalid="ignore"):  # a signalling NaN
                col = col.astype(np.float32)
        elif layout == "strided":
            col = np.repeat(col, 3)[::3]
        elif layout == "reversed":
            col = col[::-1].copy()[::-1]
        columns.append(col)
    return columns


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=float_columns(), chunk_rows=st.integers(1, 64))
@example(columns=[np.array([0.0, -0.0, -0.0, 0.0, math.nan, -math.nan])], chunk_rows=4)
@example(columns=[np.zeros(0)], chunk_rows=1)
@example(columns=[np.array([-0.0], dtype=np.float32)], chunk_rows=1)
def test_float_cells_equal_per_cell_repr(tmp_path, monkeypatch, columns, chunk_rows):
    # repeats cross chunk edges, or a chunk holds the whole column; the
    # strings written once per distinct bit pattern are those of repr on
    # each cell
    monkeypatch.setattr(csvio, "_CHUNK_ROWS", chunk_rows)
    fields = [f"c{i}" for i in range(len(columns))]
    rows = zip(*(map(repr, col.tolist()) for col in columns))
    want = "".join(f"{','.join(row)}\n" for row in rows)
    got = written(tmp_path, fields, [columns])
    assert got == ",".join(fields) + "\n" + want


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


def test_public_names_are_pinned():
    # a public name is added or dropped on purpose, here and in __init__
    assert stinqos.__all__ == [
        "ArrivalModel", "BitArrival", "CodingSpec", "ConfigError", "DomainError",
        "ErrorModel", "InterfererField", "LinkBudget", "NumericError", "QoSReport",
        "Scenario", "ServiceModel", "ShadowedRicianParams", "StabilityError",
        "StinQosError", "SweepSpec", "aoi", "average_error", "channel",
        "conditional_error", "default_scenario", "delay_bound", "error_exponent",
        "error_exponent_closed_form", "errors", "experiments", "fbc", "optimize",
        "optimize_paoi_bound", "paoi_bound", "pathloss_factor", "place_interferers",
        "q_function", "run_sweep",
        "shadowed_rician_pdf", "sinr", "snc", "stability_check", "trace_blocks",
        "trace_violation_frequency", "update_blocks",
    ]


def test_public_names_resolve_to_their_submodules():
    # each name is resolved on first access, to its submodule's own object
    for name in stinqos.__all__:
        value = getattr(stinqos, name)
        if isinstance(value, type(stinqos)):
            assert value.__name__ == f"stinqos.{name}"
        else:
            assert getattr(sys.modules[value.__module__], name) is value


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from stinqos import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == stinqos.__all__


def test_dir_lists_public_names():
    assert set(stinqos.__all__) <= set(dir(stinqos))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="'stinqos' has no attribute 'nonesuch'"):
        stinqos.nonesuch


def test_default_scenario_has_one_home():
    assert stinqos.experiments.default_scenario is stinqos.channel.default_scenario
    assert stinqos.default_scenario is stinqos.channel.default_scenario
