"""Queue recursion and peak-AoI tests."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stinqos import aoi, channel
from stinqos.aoi import (
    ArrivalModel,
    ServiceModel,
    departure_rows,
    departure_times,
    departure_times_maxplus,
    geometric_attempts,
    sample_updates,
    trace_blocks,
    trace_columns,
    TRACE_FIELDS,
    update_blocks,
    violation_frequency,
)
from stinqos.csvio import write_csv
from stinqos.errors import DomainError, NumericError
from trace_helper import whole_trace, whole_updates

BLOCK = channel._BLOCK_ROWS
TRACE_BLOCK = aoi._TRACE_ROWS


EXAMPLE = (np.array([0.0, 3.0, 5.0]), np.array([4.0, 4.0, 4.0]))


def example_trace():
    return whole_trace(*EXAMPLE)


def simulated_trace(am, sm, n, rng):
    return whole_trace(*sample_updates(am, sm, n, rng))


def interarrival_span(trace, v, u):
    """Total gap arrivals[u] - arrivals[v] for updates 1 <= v <= u <= N."""
    return float(trace["arrival"][u - 1] - trace["arrival"][v - 1])


def service_span(trace, v, u):
    """Total service time of updates v..u inclusive."""
    return float(np.sum(trace["service"][v - 1 : u]))


def departures_whole_list(arrivals, services):
    """The one-pass recursion over whole-column lists: the oracle of the
    blocked departure_times."""
    dep = []
    prev = -math.inf
    for a, s in zip(arrivals.tolist(), services.tolist()):
        prev = (a if a > prev else prev) + s
        dep.append(prev)
    return np.array(dep, dtype=float)


def build_trace(arrivals, services):
    """The trace columns in TRACE_FIELDS order, each computed over whole
    columns: the oracle of the blocks of trace_columns."""
    dep = departures_whole_list(arrivals, services)
    soj = dep - arrivals
    return [np.arange(1, len(dep) + 1), arrivals, services, dep, soj,
            np.diff(arrivals, prepend=0.0) + soj]


def edge_queue(n, edge, rng):
    """Arrivals and services with, at every block edge e, a tie
    A[e] == D[e-1] (edge "tie") or a backlog A[e] < D[e-1] (edge "backlog"),
    and zero services at rows e and e + 1; elsewhere a mix of small integers
    (so ties and zeros recur) and exponential floats."""
    def times():
        return np.where(rng.random(n) < 0.5, rng.integers(0, 7, n),
                        rng.exponential(3.0, n))
    gaps, services = times(), times()
    arrivals = np.empty(n)
    a, d = 0.0, -math.inf
    for u in range(n):
        a += gaps[u]
        if u % BLOCK == BLOCK - 1:
            services[u] += 1.0  # D[e-1] > A[e-1], room for a backlog
        elif u and u % BLOCK == 0:
            a = d if edge == "tie" else arrivals[u - 1]
        if u and u % BLOCK in (0, 1):
            services[u] = 0.0
        arrivals[u] = a
        d = max(d, a) + services[u]
    return arrivals, services


class TestDepartures:
    def test_worked_example(self):
        tr = example_trace()
        np.testing.assert_array_equal(tr["departure"], [4.0, 8.0, 12.0])
        np.testing.assert_array_equal(tr["sojourn"], [4.0, 5.0, 7.0])

    def test_single_update(self):
        tr = whole_trace(np.array([2.5]), np.array([1.5]))
        assert tr["departure"][0] == 4.0

    def test_zero_services(self):
        a = np.array([1.0, 2.0, 7.0])
        np.testing.assert_array_equal(departure_times(a, np.zeros(3)), a)

    def test_lindley_equals_maxplus_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = np.cumsum(rng.exponential(10.0, 50))
            s = rng.exponential(4.0, 50)
            fast = departure_times(a, s)
            direct = departure_times_maxplus(a, s)
            assert np.array_equal(fast, direct)

    def test_fcfs_order(self):
        rng = np.random.default_rng(1)
        tr = simulated_trace(ArrivalModel.poisson(0.02), ServiceModel.arq(8, 0.2),
                             2000, rng)
        assert np.all(np.diff(tr["departure"]) > 0)

    def test_work_conservation(self):
        rng = np.random.default_rng(2)
        tr = simulated_trace(ArrivalModel.poisson(0.05), ServiceModel.fixed(10),
                             500, rng)
        assert np.sum(tr["service"]) <= (
            tr["departure"][-1] - tr["arrival"][0] + tr["service"][0] + 1e-9
        )


# Small integer values make ties A[u] == D[u-1] and zero services common.
_TIME = st.one_of(st.integers(0, 6).map(float),
                  st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def queue_rows(draw):
    """One arrival column and a (rows, N) service matrix."""
    n = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 5))
    gaps = draw(st.lists(_TIME, min_size=n, max_size=n))
    services = draw(st.lists(st.lists(_TIME, min_size=n, max_size=n),
                             min_size=rows, max_size=rows))
    return np.cumsum(gaps), np.array(services, dtype=float)


class TestBlockedDepartures:
    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_equal_to_whole_list_recursion(self, n, edge):
        arrivals, services = edge_queue(n, edge, np.random.default_rng(n))
        want = departures_whole_list(arrivals, services)
        edges = np.arange(BLOCK, n, BLOCK)
        if edge == "tie":
            assert np.all(arrivals[edges] == want[edges - 1])
        else:
            assert np.all(arrivals[edges] < want[edges - 1])
        assert np.all(services[edges] == 0.0)
        assert np.array_equal(departure_times(arrivals, services), want)

    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    def test_equal_to_maxplus_across_block_edge(self, edge):
        arrivals, services = edge_queue(BLOCK + 1, edge, np.random.default_rng(11))
        assert np.array_equal(departure_times(arrivals, services),
                              departure_times_maxplus(arrivals, services))

    def test_refuses_unequal_lengths(self):
        with pytest.raises(ValueError):
            departure_times(np.zeros(3), np.zeros(2))


def traced_peak(fn, *args):
    """tracemalloc peak of one call, in bytes, above what is live before it."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTraceMemory:
    N = 200_000

    def test_departure_times(self):
        rng = np.random.default_rng(12)
        arrivals = np.cumsum(rng.exponential(10.0, self.N))
        services = rng.exponential(8.0, self.N)
        assert traced_peak(departure_times, arrivals, services) < 8 * self.N + 2e6

    def test_violation_frequency(self):
        # the count over whole drawn columns: only the two columns span the
        # updates, 16 B per update, plus the allowance of one block of
        # test_trace_columns
        am, sm = ArrivalModel.poisson(1 / 256.0), ServiceModel.arq(64, 0.0047)
        n, rng = 100_000, np.random.default_rng(13)
        peak = traced_peak(lambda: violation_frequency(
            *sample_updates(am, sm, n, rng), 1500.0))
        assert peak < 16 * n + 160 * BLOCK

    def test_sample_updates(self):
        # the service uniforms are drawn a block at a time: the two columns
        # and one block, not a third column-sized array
        am, sm = ArrivalModel.poisson(1 / 300.0), ServiceModel.arq(64, 0.3)
        peak = traced_peak(sample_updates, am, sm, self.N, np.random.default_rng(16))
        assert peak < 16 * self.N + 1e6

    def test_trace_columns(self):
        # the input checks and the derived columns take one block at a time,
        # at a length where one temporary column would be 4 MB
        rng = np.random.default_rng(14)
        arrivals = np.cumsum(rng.exponential(10.0, 500_000))
        services = rng.exponential(8.0, 500_000)
        blocks = trace_columns(arrivals, services)
        assert traced_peak(lambda: [None for _ in blocks]) < 160 * BLOCK


class TestTraceColumns:
    """The blocks of trace_columns are the rows of the whole trace."""

    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_equal_to_build_trace(self, n, edge):
        arrivals, services = edge_queue(n, edge, np.random.default_rng(n + 1))
        want = build_trace(arrivals, services)
        assert [len(b[0]) for b in trace_columns(arrivals, services)] == [
            min(BLOCK, n - start) for start in range(0, n, BLOCK)]
        got = whole_trace(arrivals, services)
        for field, col in zip(TRACE_FIELDS, want):
            assert np.array_equal(got[field], col)
        # the block-wise count of fig4 against the whole peak-AoI column
        peak = got["peak_aoi"]
        for a_th in (0.0, 300.0, 1000.0, 150_000.0, float(np.median(peak))):
            assert violation_frequency(arrivals, services, a_th) == np.mean(peak > a_th)

    def test_input_checks_run_before_first_block(self):
        blocks = trace_columns(np.array([1.0, 0.5]), np.ones(2))
        with pytest.raises(ValueError):
            next(blocks)


MODEL_PAIRS = [
    (ArrivalModel.poisson(1 / 250.0), ServiceModel.arq(64, 0.3)),
    (ArrivalModel.poisson(1 / 250.0), ServiceModel.fixed(64)),
    (ArrivalModel.deterministic(80.0), ServiceModel.arq(64, 0.3)),
    (ArrivalModel.deterministic(80.0), ServiceModel.fixed(64)),
]


class TestUpdateBlocks:
    """The streamed draw and its trace are those of whole-column draws."""

    @pytest.mark.parametrize("n", [1, TRACE_BLOCK - 1, TRACE_BLOCK, TRACE_BLOCK + 1,
                                   3 * TRACE_BLOCK + 5])
    @pytest.mark.parametrize("am, sm", MODEL_PAIRS)
    def test_equal_to_whole_column_draw(self, am, sm, n):
        rng, ref_rng = np.random.default_rng(n), np.random.default_rng(n)
        blocks = list(update_blocks(am, sm, n, rng))
        want = whole_updates(am, sm, n, ref_rng)
        assert [len(a) for a, _ in blocks] == [
            min(TRACE_BLOCK, n - start) for start in range(0, n, TRACE_BLOCK)]
        for got, col in zip(zip(*blocks), want):
            assert np.array_equal(np.concatenate(got), col)
        assert rng.random() == ref_rng.random()  # same draws consumed
        trace = [np.concatenate(col) for col in zip(
            *trace_blocks(update_blocks(am, sm, n, np.random.default_rng(n))))]
        for col, want_col in zip(trace, whole_trace(*want).values()):
            assert np.array_equal(col, want_col)

    @pytest.mark.parametrize("n", [aoi.MAX_UPDATES + 1, 10 ** 20])
    def test_refuses_count_above_cap_before_any_draw(self, n):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(NumericError, match="cap"):
            update_blocks(*MODEL_PAIRS[0], n, rng)
        assert rng.bit_generator.state == state


class TestDepartureRows:
    @settings(max_examples=300, deadline=None)
    @given(queue_rows())
    # A[1] == D[0] and A[2] == D[1]: both ties; then zero services
    @example((np.array([0.0, 4.0, 8.0]), np.array([[4.0, 4.0, 0.0], [0.0, 0.0, 0.0]])))
    @example((np.array([2.5]), np.array([[1.5]])))
    def test_rows_equal_departure_times(self, case):
        arrivals, services = case
        expected = [departure_times(arrivals, row) for row in services]
        out = departure_rows(arrivals, services.copy())
        for row, exp in zip(out, expected):
            assert np.array_equal(row, exp)

    def test_overwrites_buffer(self):
        buf = np.array([[4.0, 4.0, 4.0]])
        assert departure_rows(np.array([0.0, 3.0, 5.0]), buf) is buf
        np.testing.assert_array_equal(buf, [[4.0, 8.0, 12.0]])

    @pytest.mark.parametrize("arrivals, services", [
        ([0.0, 2.0, 1.0], [1.0, 1.0, 1.0]),  # decreasing arrivals
        ([-1.0, 2.0, 3.0], [1.0, 1.0, 1.0]),  # negative arrival
        ([0.0, 2.0, 3.0], [1.0, -1.0, 1.0]),  # negative service
        ([0.0, 2.0, 3.0], [1.0, 1.0]),  # length mismatch
        ([[0.0, 2.0, 3.0]], [1.0, 1.0, 1.0]),  # arrivals not one column
        ([0.0, math.nan, 2.0], [1.0, 1.0, 1.0]),  # NaN arrival
        ([math.nan, 1.0, 2.0], [1.0, 1.0, 1.0]),  # NaN first arrival
        ([0.0, 1.0, math.inf], [1.0, 1.0, 1.0]),  # infinite arrival
        ([0.0, 2.0, 3.0], [1.0, math.nan, 1.0]),  # NaN service
        ([0.0, 2.0, 3.0], [1.0, 1.0, math.inf]),  # infinite service
    ])
    def test_input_checks_match_trace_columns(self, arrivals, services):
        arrivals, services = np.array(arrivals), np.array(services)
        with pytest.raises(ValueError):
            next(trace_columns(arrivals, services))
        with pytest.raises(ValueError):
            violation_frequency(arrivals, services, 0.0)
        with pytest.raises(ValueError):
            departure_rows(arrivals, np.array([services, services]))

    @pytest.mark.parametrize("column, value", [
        ("arrivals", math.nan), ("arrivals", math.inf),
        ("services", math.nan), ("services", math.inf)])
    def test_non_finite_time_past_first_block(self, column, value):
        times = {"arrivals": np.arange(BLOCK + 2.0), "services": np.ones(BLOCK + 2)}
        times[column][BLOCK + 1] = value
        with pytest.raises(ValueError, match="finite"):
            next(trace_columns(times["arrivals"], times["services"]))
        with pytest.raises(ValueError, match="finite"):
            departure_rows(times["arrivals"], times["services"][np.newaxis].copy())

    def test_trace_columns_refuses_service_matrix(self):
        with pytest.raises(ValueError):
            next(trace_columns(np.array([0.0, 1.0]), np.ones((2, 2))))

    def test_requires_float64_matrix(self):
        with pytest.raises(ValueError):
            departure_rows(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            departure_rows(np.array([0.0, 1.0]), np.array([[1, 1]]))


class TestSojournAndPeak:
    def test_sojourn_dual_form(self):
        rng = np.random.default_rng(3)
        tr = simulated_trace(ArrivalModel.poisson(0.05), ServiceModel.arq(4, 0.3),
                             200, rng)
        # max-plus dual: sojourn = max over v of service span minus gap span
        for u in (1, 17, 200):
            direct = max(
                service_span(tr, v, u) - interarrival_span(tr, v, u)
                for v in range(1, u + 1)
            )
            assert tr["sojourn"][u - 1] == pytest.approx(direct, rel=1e-12)

    def test_idle_system_sojourn_is_service(self):
        tr = simulated_trace(
            ArrivalModel.deterministic(100.0), ServiceModel.fixed(4), 50,
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(tr["sojourn"][1:], np.full(49, 4.0))

    def test_sojourn_lower_bound(self):
        rng = np.random.default_rng(4)
        tr = simulated_trace(ArrivalModel.poisson(0.05), ServiceModel.arq(4, 0.3),
                             500, rng)
        assert np.all(tr["sojourn"] >= tr["service"] - 1e-12)

    def test_peak_decomposition(self):
        tr = example_trace()
        np.testing.assert_allclose(tr["peak_aoi"], [4.0, 8.0, 9.0])
        gaps = np.diff(tr["arrival"], prepend=0.0)
        np.testing.assert_allclose(tr["peak_aoi"], gaps + tr["sojourn"])

    def test_deterministic_peak(self):
        tr = simulated_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 20,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr["peak_aoi"][1:], np.full(19, 14.0))

    def test_peak_lower_bound(self):
        rng = np.random.default_rng(5)
        tr = simulated_trace(ArrivalModel.poisson(0.01), ServiceModel.arq(16, 0.4),
                             500, rng)
        assert np.all(tr["peak_aoi"] >= tr["service"] - 1e-12)


class TestSimulateTrace:
    def test_deterministic_columns(self):
        tr = simulated_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 5,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr["arrival"], [10, 20, 30, 40, 50])
        np.testing.assert_allclose(tr["departure"], [14, 24, 34, 44, 54])

    def test_poisson_gap_moment(self):
        arrivals, _ = sample_updates(
            ArrivalModel.poisson(0.2), ServiceModel.fixed(1), 1_000_000,
            np.random.default_rng(6),
        )
        gaps = np.diff(arrivals, prepend=0.0)
        assert np.mean(gaps) == pytest.approx(5.0, rel=0.01)

    def test_arq_service_moment(self):
        _, services = sample_updates(
            ArrivalModel.deterministic(1000.0), ServiceModel.arq(8, 0.25),
            1_000_000, np.random.default_rng(7),
        )
        assert np.mean(services) == pytest.approx(8 / 0.75, rel=0.01)

    def test_deterministic_given_seed(self):
        t1 = simulated_trace(ArrivalModel.poisson(0.1), ServiceModel.arq(4, 0.2),
                             100, np.random.default_rng(8))
        t2 = simulated_trace(ArrivalModel.poisson(0.1), ServiceModel.arq(4, 0.2),
                             100, np.random.default_rng(8))
        np.testing.assert_array_equal(t1["peak_aoi"], t2["peak_aoi"])

    def test_geometric_attempts_coupling(self):
        u = np.random.default_rng(9).random(100_000)
        low = geometric_attempts(u, 0.05)
        high = geometric_attempts(u, 0.3)
        assert np.all(low <= high)
        assert np.mean(high) == pytest.approx(1 / 0.7, rel=0.01)

    def test_service_draws_leave_uniforms_unwritten(self):
        # coupled sweeps share one uniform array across error rates
        u = np.random.default_rng(10).random(1000)
        kept = u.copy()
        att = geometric_attempts(u, 0.3)
        services = ServiceModel.arq(64, 0.3).services_from_uniforms(u)
        assert np.array_equal(u, kept)
        assert np.array_equal(services, 64.0 * att)

    @pytest.mark.parametrize("n", [1, BLOCK, 3 * BLOCK + 17])
    @pytest.mark.parametrize("sm", [ServiceModel.arq(64, 0.3), ServiceModel.fixed(64)])
    def test_services_drawn_in_blocks_equal_one_draw(self, sm, n):
        rng, ref_rng = np.random.default_rng(15), np.random.default_rng(15)
        got = sm.sample_services(n, rng)
        want = sm.services_from_uniforms(ref_rng.random(n))
        assert np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # same draws consumed

    @pytest.mark.parametrize("eps", [1.0, 1.5, float("nan")])
    def test_geometric_attempts_refuses_certain_failure(self, eps):
        with pytest.raises(DomainError):
            geometric_attempts(np.array([0.5]), eps)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            ArrivalModel.poisson(0.0)
        with pytest.raises(DomainError):
            ArrivalModel.deterministic(-1.0)
        with pytest.raises(DomainError):
            ServiceModel.arq(4, 1.0)
        with pytest.raises(DomainError):
            ServiceModel.fixed(0)

    def test_subnormal_epsilon_is_zero(self):
        u = np.random.default_rng(4).random(1000)
        sm = ServiceModel.arq(4, 5e-324)
        assert sm.epsilon == 0.0
        assert np.array_equal(sm.services_from_uniforms(u),
                              ServiceModel.arq(4, 2.3e-308).services_from_uniforms(u))


class TestEmpiricalViolation:
    def test_zero_threshold(self):
        assert violation_frequency(*EXAMPLE, 0.0) == 1.0

    def test_above_max(self):
        tr = example_trace()
        assert violation_frequency(*EXAMPLE, float(np.max(tr["peak_aoi"])) + 1.0) == 0.0

    def test_strict_inequality(self):
        times = sample_updates(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 100,
            np.random.default_rng(0),
        )
        # every peak is exactly 14; strictness decides the boundary threshold
        assert violation_frequency(*times, 13.9) == 1.0
        assert violation_frequency(*times, 14.0) == 0.0

    def test_refuses_negative_threshold(self):
        with pytest.raises(DomainError):
            violation_frequency(*EXAMPLE, -1.0)


class TestTraceCsv:
    def test_export_columns(self, tmp_path):
        out = tmp_path / "trace.csv"
        write_csv(out, TRACE_FIELDS, trace_columns(*EXAMPLE))
        text = out.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "u,arrival,service,departure,sojourn,peak_aoi"
        assert lines[1] == "1,0.0,4.0,4.0,4.0,4.0"
        assert len(lines) == 4
