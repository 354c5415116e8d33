"""Queue recursion and peak-AoI tests."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stinqos import aoi, channel
from stinqos.aoi import (
    ArrivalModel,
    ServiceModel,
    departure_row,
    departure_times_maxplus,
    geometric_attempts,
    trace_blocks,
    trace_violation_frequency,
    TRACE_FIELDS,
    update_blocks,
)
from stinqos.csvio import write_csv
from stinqos.errors import DomainError, NumericError
from oracles import mg1_mean_peak_aoi
from trace_helper import column_blocks, whole_trace, whole_updates

BLOCK = channel._BLOCK_ROWS
TRACE_BLOCK = aoi._TRACE_ROWS


EXAMPLE = (np.array([0.0, 3.0, 5.0]), np.array([4.0, 4.0, 4.0]))


def example_trace():
    return whole_trace(*EXAMPLE)


def simulated_trace(am, sm, n, rng):
    return whole_trace(*whole_updates(am, sm, n, rng))


def interarrival_span(trace, v, u):
    """Total gap arrivals[u] - arrivals[v] for updates 1 <= v <= u <= N."""
    return float(trace["arrival"][u - 1] - trace["arrival"][v - 1])


def service_span(trace, v, u):
    """Total service time of updates v..u inclusive."""
    return float(np.sum(trace["service"][v - 1 : u]))


def departures_whole_list(arrivals, services):
    """The one-pass recursion over whole-column lists: the oracle of the
    departure column of trace_blocks."""
    dep = []
    prev = -math.inf
    for a, s in zip(arrivals.tolist(), services.tolist()):
        prev = (a if a > prev else prev) + s
        dep.append(prev)
    return np.array(dep, dtype=float)


def build_trace(arrivals, services):
    """The trace columns in TRACE_FIELDS order, each computed over whole
    columns: the oracle of the blocks of trace_blocks."""
    dep = departures_whole_list(arrivals, services)
    soj = dep - arrivals
    return [np.arange(1, len(dep) + 1), arrivals, services, dep, soj,
            np.diff(arrivals, prepend=0.0) + soj]


def blocked_departures(arrivals, services):
    """The departure column of trace_blocks fed the columns in blocks of
    aoi._TRACE_ROWS rows."""
    return np.concatenate(
        [block[3] for block in trace_blocks(column_blocks(arrivals, services))])


def edge_queue(n, edge, rng):
    """Arrivals and services with, at every edge e of blocks of
    aoi._TRACE_ROWS rows, a tie A[e] == D[e-1] (edge "tie") or a backlog
    A[e] < D[e-1] (edge "backlog"), and zero services at rows e and e + 1;
    elsewhere a mix of small integers (so ties and zeros recur) and
    exponential floats."""
    def times():
        return np.where(rng.random(n) < 0.5, rng.integers(0, 7, n),
                        rng.exponential(3.0, n))
    gaps, services = times(), times()
    arrivals = np.empty(n)
    a, d = 0.0, -math.inf
    for u in range(n):
        a += gaps[u]
        if u % TRACE_BLOCK == TRACE_BLOCK - 1:
            services[u] += 1.0  # D[e-1] > A[e-1], room for a backlog
        elif u and u % TRACE_BLOCK == 0:
            a = d if edge == "tie" else arrivals[u - 1]
        if u and u % TRACE_BLOCK in (0, 1):
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
        np.testing.assert_array_equal(whole_trace(a, np.zeros(3))["departure"], a)

    def test_lindley_equals_maxplus_exactly(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = np.cumsum(rng.exponential(10.0, 50))
            s = rng.exponential(4.0, 50)
            fast = whole_trace(a, s)["departure"]
            direct = departure_times_maxplus(a, s)
            assert np.array_equal(fast, direct)

    def test_fcfs_order(self):
        rng = np.random.default_rng(1)
        tr = simulated_trace(ArrivalModel.poisson(0.02), ServiceModel.arq(8, 0.2),
                             2000, rng)
        assert np.all(np.diff(tr["departure"]) > 0)

    def test_work_conservation(self):
        rng = np.random.default_rng(2)
        tr = simulated_trace(ArrivalModel.poisson(0.05), ServiceModel.arq(10, 0.0),
                             500, rng)
        assert np.sum(tr["service"]) <= (
            tr["departure"][-1] - tr["arrival"][0] + tr["service"][0] + 1e-9
        )


# Small integer values make ties A[u] == D[u-1] and zero services common.
_TIME = st.one_of(st.integers(0, 6).map(float),
                  st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False))


@st.composite
def queue_rows(draw):
    """One arrival column, a (rows, N) service matrix and a column 0..N at
    which to split them into two blocks."""
    n = draw(st.integers(1, 40))
    rows = draw(st.integers(1, 5))
    gaps = draw(st.lists(_TIME, min_size=n, max_size=n))
    services = draw(st.lists(st.lists(_TIME, min_size=n, max_size=n),
                             min_size=rows, max_size=rows))
    return np.cumsum(gaps), np.array(services, dtype=float), draw(st.integers(0, n))


class TestBlockedDepartures:
    """The departure carried across the block edges of trace_blocks."""

    # lengths about the multiples of BLOCK = 4 * TRACE_BLOCK rows, so that a
    # length spans several TRACE_BLOCK edges and may end one row past one
    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_equal_to_whole_list_recursion(self, n, edge):
        arrivals, services = edge_queue(n, edge, np.random.default_rng(n))
        want = departures_whole_list(arrivals, services)
        edges = np.arange(TRACE_BLOCK, n, TRACE_BLOCK)
        if edge == "tie":
            assert np.all(arrivals[edges] == want[edges - 1])
        else:
            assert np.all(arrivals[edges] < want[edges - 1])
        assert np.all(services[edges] == 0.0)
        assert np.array_equal(blocked_departures(arrivals, services), want)

    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    def test_equal_to_maxplus_across_block_edge(self, edge):
        arrivals, services = edge_queue(TRACE_BLOCK + 1, edge, np.random.default_rng(11))
        assert np.array_equal(blocked_departures(arrivals, services),
                              departure_times_maxplus(arrivals, services))

    def test_refuses_unequal_lengths(self):
        with pytest.raises(ValueError):
            next(trace_blocks([(np.zeros(3), np.zeros(2))]))


class TestTraceColumns:
    """The blocks of trace_blocks, and its one block of whole columns, are
    the rows of the whole trace."""

    @pytest.mark.parametrize("edge", ["tie", "backlog"])
    @pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17])
    def test_equal_to_build_trace(self, n, edge):
        arrivals, services = edge_queue(n, edge, np.random.default_rng(n + 1))
        want = build_trace(arrivals, services)
        blocks = list(trace_blocks(column_blocks(arrivals, services)))
        joined = [np.concatenate(col) for col in zip(*blocks)]
        whole = whole_trace(arrivals, services)
        for field, col, got in zip(TRACE_FIELDS, want, joined):
            assert np.array_equal(got, col)
            assert np.array_equal(whole[field], col)
        # the block-wise count of fig4 against the whole peak-AoI column
        peak = whole["peak_aoi"]
        for a_th in (0.0, 300.0, 1000.0, 150_000.0, float(np.median(peak))):
            assert trace_violation_frequency(blocks, a_th) == np.mean(peak > a_th)

    def test_input_checks_run_before_first_block(self):
        blocks = trace_blocks([(np.array([1.0, 0.5]), np.ones(2))])
        with pytest.raises(ValueError):
            next(blocks)


MODEL_PAIRS = [
    (ArrivalModel.poisson(1 / 250.0), ServiceModel.arq(64, 0.3)),
    (ArrivalModel.poisson(1 / 250.0), ServiceModel.arq(64, 0.0)),
    (ArrivalModel.deterministic(80.0), ServiceModel.arq(64, 0.3)),
    (ArrivalModel.deterministic(80.0), ServiceModel.arq(64, 0.0)),
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


def loaded_queue(load, n, rng):
    """Arrivals and services of n updates at ``load``: Poisson arrivals and
    services of 64 cu on average, some of 0 or 128, of which one update in
    128 arrives just as the one before departs, a tie A[u] == D[u-1]. At
    load 0, gaps of 100 cu against services of 0 or 64: no update waits."""
    services = rng.choice([0.0, 64.0, 64.0, 128.0], n) if load else rng.choice([0.0, 64.0], n)
    gaps = rng.exponential(64.0 / load, n) if load else np.full(n, 100.0)
    arrivals, a, d = np.empty(n), 0.0, -math.inf
    for u in range(n):
        a += gaps[u]
        if load and u % 128 == 5 and d > arrivals[u - 1]:
            a = d
        arrivals[u] = a
        d = max(d, a) + services[u]
    return arrivals, services


class TestSingleRowDepartures:
    """The one-row departures of trace_blocks, block by block with the
    departure and the arrival before each block carried, at loads from no
    wait to saturation: the list recursion and the max-plus form exactly."""

    @pytest.mark.parametrize("load, waiting", [
        (0.0, (0.0, 0.0)), (0.03, (0.01, 0.06)), (0.5, (0.35, 0.65)),
        (1.2, (0.95, 1.0))])
    def test_equal_to_list_recursion_and_maxplus(self, load, waiting):
        n = 2 * TRACE_BLOCK + 100
        arrivals, services = loaded_queue(load, n, np.random.default_rng(31))
        want = departures_whole_list(arrivals, services)
        waits = np.flatnonzero(arrivals[1:] <= want[:-1]) + 1
        assert waiting[0] <= len(waits) / n <= waiting[1]
        if load:
            assert np.any(arrivals[waits] == want[waits - 1])  # ties
        assert np.any(services[waits if load else slice(None)] == 0.0)
        prev, blocks = -math.inf, []
        for start in range(0, n, TRACE_BLOCK):
            cols = slice(start, start + TRACE_BLOCK)
            dep, prev = departure_row(arrivals[cols], services[cols], prev)
            assert prev == dep[-1]
            blocks.append(dep)
        got = np.concatenate(blocks)
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, departure_times_maxplus(arrivals, services))

    def test_backlog_across_block_edge(self):
        # gaps of 65 cu against services of 64, but for one service of 6400
        # in 2000: few updates start a wait, and each backlog drains by 1 cu
        # an update, so it outlasts the block it starts in
        n = 3 * TRACE_BLOCK
        arrivals = np.arange(1, n + 1) * 65.0
        services = np.where(np.arange(n) % 2000 == 7, 6400.0, 64.0)
        want = departures_whole_list(arrivals, services)
        got = np.concatenate([block[3] for block in trace_blocks(
            column_blocks(arrivals, services))])
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got, departure_times_maxplus(arrivals, services))
        assert np.count_nonzero(arrivals[1:] <= want[:-1]) > n // 2

    @pytest.mark.parametrize("n", [2, 40])
    def test_signed_zero_tie_takes_departure_branch(self, n):
        # A[1] == D[0] as 0.0 == -0.0: D[1] = D[0] + S[1] = -0.0, where
        # A[1] + S[1] would be 0.0; at n = 40 the other updates never wait
        arrivals = np.concatenate(([-0.0, 0.0], np.arange(1.0, n - 1.0)))
        services = np.concatenate(([-0.0, -0.0], np.full(n - 2, 0.5)))
        got, _ = departure_row(arrivals, services, -math.inf)
        want = departures_whole_list(arrivals, services)
        assert math.copysign(1.0, want[1]) == -1.0
        assert got.tobytes() == want.tobytes()


class TestDepartureRows:
    """departure_row on each service row of a matrix, whole and split in two
    blocks with the departure before the second carried, against the
    departure column of the whole trace."""

    @settings(max_examples=300, deadline=None)
    @given(queue_rows())
    # A[1] == D[0] and A[2] == D[1]: both ties; then zero services
    @example((np.array([0.0, 4.0, 8.0]), np.array([[4.0, 4.0, 0.0], [0.0, 0.0, 0.0]]), 2))
    @example((np.array([2.5]), np.array([[1.5]]), 0))
    def test_rows_equal_departure_times(self, case):
        arrivals, services, split = case
        kept = arrivals.copy(), services.copy()
        for row in services:
            want = whole_trace(arrivals, row)["departure"]
            got, last = departure_row(arrivals, row, -math.inf)
            assert got.tobytes() == want.tobytes() and last == want[-1]
            head, prev = departure_row(arrivals[:split], row[:split], -math.inf)
            tail, last = departure_row(arrivals[split:], row[split:], prev)
            assert prev == (want[split - 1] if split else -math.inf)
            assert np.concatenate([head, tail]).tobytes() == want.tobytes()
            assert last == want[-1]
        # neither column is written
        assert np.array_equal(arrivals, kept[0]) and np.array_equal(services, kept[1])

    def test_blocks_carry_departures_and_arrival(self):
        # the trace of blocks of 17, 1 and 32 rows against one block
        rng = np.random.default_rng(21)
        arrivals = np.cumsum(rng.exponential(10.0, 50))
        services = rng.exponential(9.0, 50)
        blocks = [(arrivals[cols], services[cols])
                  for cols in (slice(0, 17), slice(17, 18), slice(18, 50))]
        joined = [np.concatenate(col) for col in zip(*trace_blocks(blocks))]
        for got, want in zip(joined, whole_trace(arrivals, services).values()):
            assert got.tobytes() == want.tobytes()
        early = arrivals[17:].copy()
        early[0] = arrivals[16] - 1.0
        trace = trace_blocks([blocks[0], (early, services[17:])])
        next(trace)
        with pytest.raises(ValueError):  # below the arrival before the block
            next(trace)

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
            next(trace_blocks([(arrivals, services)]))

    @pytest.mark.parametrize("column, value", [
        ("arrivals", math.nan), ("arrivals", math.inf),
        ("services", math.nan), ("services", math.inf)])
    def test_non_finite_time_past_first_block(self, column, value):
        times = {"arrivals": np.arange(BLOCK + 2.0), "services": np.ones(BLOCK + 2)}
        times[column][BLOCK + 1] = value
        with pytest.raises(ValueError, match="finite"):
            list(trace_blocks(column_blocks(times["arrivals"], times["services"])))

    def test_trace_columns_refuses_service_matrix(self):
        with pytest.raises(ValueError):
            next(trace_blocks([(np.array([0.0, 1.0]), np.ones((2, 2)))]))


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
            ArrivalModel.deterministic(100.0), ServiceModel.arq(4, 0.0), 50,
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
            ArrivalModel.deterministic(10.0), ServiceModel.arq(4, 0.0), 20,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr["peak_aoi"][1:], np.full(19, 14.0))

    def test_peak_lower_bound(self):
        rng = np.random.default_rng(5)
        tr = simulated_trace(ArrivalModel.poisson(0.01), ServiceModel.arq(16, 0.4),
                             500, rng)
        assert np.all(tr["peak_aoi"] >= tr["service"] - 1e-12)


class TestMG1Mean:
    @pytest.mark.parametrize("rate, n, eps", [
        (1 / 256, 64, 0.004705), (1 / 4096, 64, 0.1), (1 / 300, 64, 0.3),
        (1 / 100, 64, 0.2),
    ])
    def test_trace_mean_against_exact_mean(self, rate, n, eps):
        # Poisson arrivals and ARQ service make an M/G/1 FCFS queue, whose
        # mean peak AoI is Pollaczek-Khinchine's; successive peaks are
        # correlated, so the standard error is that of 50 batch means
        am, sm = ArrivalModel.poisson(rate), ServiceModel.arq(n, eps)
        peaks = np.concatenate([block[-1] for block in trace_blocks(
            update_blocks(am, sm, 200_000, np.random.default_rng(1)))])
        means = peaks.reshape(50, -1).mean(axis=1)
        se = means.std(ddof=1) / math.sqrt(len(means))
        z = (means.mean() - mg1_mean_peak_aoi(rate, n, [(1.0, eps)])) / se
        assert abs(z) <= 4.5


class TestSimulateTrace:
    def test_deterministic_columns(self):
        tr = simulated_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.arq(4, 0.0), 5,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr["arrival"], [10, 20, 30, 40, 50])
        np.testing.assert_allclose(tr["departure"], [14, 24, 34, 44, 54])

    def test_poisson_gap_moment(self):
        arrivals, _ = whole_updates(
            ArrivalModel.poisson(0.2), ServiceModel.arq(1, 0.0), 1_000_000,
            np.random.default_rng(6),
        )
        gaps = np.diff(arrivals, prepend=0.0)
        assert np.mean(gaps) == pytest.approx(5.0, rel=0.01)

    def test_arq_service_moment(self):
        _, services = whole_updates(
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
    @pytest.mark.parametrize("sm", [ServiceModel.arq(64, 0.3), ServiceModel.arq(64, 0.0)])
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
            ServiceModel.arq(0, 0.0)
        with pytest.raises(DomainError, match="^unknown arrival model kind 'bursty'$"):
            ArrivalModel("bursty")

    def test_subnormal_epsilon_is_zero(self):
        u = np.random.default_rng(4).random(1000)
        sm = ServiceModel.arq(4, 5e-324)
        assert sm.epsilon == 0.0
        assert np.array_equal(sm.services_from_uniforms(u),
                              ServiceModel.arq(4, 2.3e-308).services_from_uniforms(u))


class TestEmpiricalViolation:
    def test_zero_threshold(self):
        assert trace_violation_frequency(trace_blocks([EXAMPLE]), 0.0) == 1.0

    def test_above_max(self):
        a_th = float(np.max(example_trace()["peak_aoi"])) + 1.0
        assert trace_violation_frequency(trace_blocks([EXAMPLE]), a_th) == 0.0

    def test_strict_inequality(self):
        times = whole_updates(
            ArrivalModel.deterministic(10.0), ServiceModel.arq(4, 0.0), 100,
            np.random.default_rng(0),
        )
        trace = list(trace_blocks([times]))
        # every peak is exactly 14; strictness decides the boundary threshold
        assert trace_violation_frequency(trace, 13.9) == 1.0
        assert trace_violation_frequency(trace, 14.0) == 0.0

    def test_refuses_negative_threshold(self):
        with pytest.raises(DomainError):
            trace_violation_frequency(trace_blocks([EXAMPLE]), -1.0)

    # no blocks, and one block of no rows
    @pytest.mark.parametrize("trace", [[], [[np.zeros(0)]]])
    def test_refuses_trace_without_rows(self, trace):
        with pytest.raises(DomainError, match="a trace with no rows"):
            trace_violation_frequency(trace, 1.0)


class TestTraceCsv:
    def test_export_columns(self, tmp_path):
        out = tmp_path / "trace.csv"
        write_csv(out, TRACE_FIELDS, trace_blocks([EXAMPLE]))
        text = out.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "u,arrival,service,departure,sojourn,peak_aoi"
        assert lines[1] == "1,0.0,4.0,4.0,4.0,4.0"
        assert len(lines) == 4
