"""Queue recursion and peak-AoI tests."""
import numpy as np
import pytest

from stinqos.aoi import (
    ArrivalModel,
    ServiceModel,
    build_trace,
    cumulative_interarrival,
    cumulative_service,
    departure_times,
    departure_times_maxplus,
    empirical_violation,
    geometric_attempts,
    simulate_trace,
    trace_columns,
    TRACE_FIELDS,
)
from stinqos.csvio import write_csv
from stinqos.errors import DomainError


def example_trace():
    return build_trace(np.array([0.0, 3.0, 5.0]), np.array([4.0, 4.0, 4.0]))


class TestCumulativeSpans:
    def test_interarrival(self):
        tr = build_trace(np.arange(10.0, 110.0, 10.0), np.ones(10))
        assert cumulative_interarrival(tr, 3, 3) == 0.0
        assert cumulative_interarrival(tr, 2, 5) == 30.0
        with pytest.raises(ValueError):
            cumulative_interarrival(tr, 5, 2)

    def test_interarrival_matches_telescoping(self):
        rng = np.random.default_rng(0)
        tr = simulate_trace(ArrivalModel.poisson(0.1), ServiceModel.fixed(2), 50, rng)
        gaps = np.diff(tr.arrivals, prepend=0.0)
        assert cumulative_interarrival(tr, 4, 20) == pytest.approx(
            tr.arrivals[19] - tr.arrivals[3], abs=0.0
        )
        assert tr.arrivals[19] - tr.arrivals[3] == pytest.approx(
            np.sum(gaps[4:20]), rel=1e-12
        )

    def test_service(self):
        tr = build_trace(np.arange(1.0, 11.0), np.full(10, 4.0))
        assert cumulative_service(tr, 3, 3) == 4.0
        assert cumulative_service(tr, 1, 3) == 12.0
        with pytest.raises(ValueError):
            cumulative_service(tr, 0, 3)


class TestDepartures:
    def test_worked_example(self):
        tr = example_trace()
        np.testing.assert_array_equal(tr.departures, [4.0, 8.0, 12.0])
        np.testing.assert_array_equal(tr.sojourns, [4.0, 5.0, 7.0])

    def test_single_update(self):
        tr = build_trace(np.array([2.5]), np.array([1.5]))
        assert tr.departures[0] == 4.0

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
        tr = simulate_trace(ArrivalModel.poisson(0.02), ServiceModel.arq(8, 0.2),
                            2000, rng)
        assert np.all(np.diff(tr.departures) > 0)

    def test_work_conservation(self):
        rng = np.random.default_rng(2)
        tr = simulate_trace(ArrivalModel.poisson(0.05), ServiceModel.fixed(10),
                            500, rng)
        assert np.sum(tr.services) <= (
            tr.departures[-1] - tr.arrivals[0] + tr.services[0] + 1e-9
        )


class TestSojournAndPeak:
    def test_sojourn_dual_form(self):
        rng = np.random.default_rng(3)
        tr = simulate_trace(ArrivalModel.poisson(0.05), ServiceModel.arq(4, 0.3),
                            200, rng)
        # max-plus dual: sojourn = max over v of service span minus gap span
        for u in (1, 17, 200):
            direct = max(
                cumulative_service(tr, v, u) - cumulative_interarrival(tr, v, u)
                for v in range(1, u + 1)
            )
            assert tr.sojourns[u - 1] == pytest.approx(direct, rel=1e-12)

    def test_idle_system_sojourn_is_service(self):
        tr = simulate_trace(
            ArrivalModel.deterministic(100.0), ServiceModel.fixed(4), 50,
            np.random.default_rng(0),
        )
        np.testing.assert_array_equal(tr.sojourns[1:], np.full(49, 4.0))

    def test_sojourn_lower_bound(self):
        rng = np.random.default_rng(4)
        tr = simulate_trace(ArrivalModel.poisson(0.05), ServiceModel.arq(4, 0.3),
                            500, rng)
        assert np.all(tr.sojourns >= tr.services - 1e-12)

    def test_peak_decomposition(self):
        tr = example_trace()
        np.testing.assert_allclose(tr.peak_aoi, [4.0, 8.0, 9.0])
        gaps = np.diff(tr.arrivals, prepend=0.0)
        np.testing.assert_allclose(tr.peak_aoi, gaps + tr.sojourns)

    def test_deterministic_peak(self):
        tr = simulate_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 20,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr.peak_aoi[1:], np.full(19, 14.0))

    def test_peak_lower_bound(self):
        rng = np.random.default_rng(5)
        tr = simulate_trace(ArrivalModel.poisson(0.01), ServiceModel.arq(16, 0.4),
                            500, rng)
        assert np.all(tr.peak_aoi >= tr.services - 1e-12)


class TestSimulateTrace:
    def test_deterministic_columns(self):
        tr = simulate_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 5,
            np.random.default_rng(0),
        )
        np.testing.assert_allclose(tr.arrivals, [10, 20, 30, 40, 50])
        np.testing.assert_allclose(tr.departures, [14, 24, 34, 44, 54])

    def test_poisson_gap_moment(self):
        tr = simulate_trace(
            ArrivalModel.poisson(0.2), ServiceModel.fixed(1), 1_000_000,
            np.random.default_rng(6),
        )
        gaps = np.diff(tr.arrivals, prepend=0.0)
        assert np.mean(gaps) == pytest.approx(5.0, rel=0.01)

    def test_arq_service_moment(self):
        tr = simulate_trace(
            ArrivalModel.deterministic(1000.0), ServiceModel.arq(8, 0.25),
            1_000_000, np.random.default_rng(7),
        )
        assert np.mean(tr.services) == pytest.approx(8 / 0.75, rel=0.01)

    def test_deterministic_given_seed(self):
        t1 = simulate_trace(ArrivalModel.poisson(0.1), ServiceModel.arq(4, 0.2),
                            100, np.random.default_rng(8))
        t2 = simulate_trace(ArrivalModel.poisson(0.1), ServiceModel.arq(4, 0.2),
                            100, np.random.default_rng(8))
        np.testing.assert_array_equal(t1.peak_aoi, t2.peak_aoi)

    def test_geometric_attempts_coupling(self):
        u = np.random.default_rng(9).random(100_000)
        low = geometric_attempts(u, 0.05)
        high = geometric_attempts(u, 0.3)
        assert np.all(low <= high)
        assert np.mean(high) == pytest.approx(1 / 0.7, rel=0.01)

    def test_model_validation(self):
        with pytest.raises(DomainError):
            ArrivalModel.poisson(0.0)
        with pytest.raises(DomainError):
            ArrivalModel.deterministic(-1.0)
        with pytest.raises(DomainError):
            ServiceModel.arq(4, 1.0)
        with pytest.raises(DomainError):
            ServiceModel.fixed(0)


class TestEmpiricalViolation:
    def test_zero_threshold(self):
        assert empirical_violation(example_trace(), 0.0) == 1.0

    def test_above_max(self):
        tr = example_trace()
        assert empirical_violation(tr, float(np.max(tr.peak_aoi)) + 1.0) == 0.0

    def test_strict_inequality(self):
        tr = simulate_trace(
            ArrivalModel.deterministic(10.0), ServiceModel.fixed(4), 100,
            np.random.default_rng(0),
        )
        # every peak is exactly 14; strictness decides the boundary threshold
        assert empirical_violation(tr, 13.9) == 1.0
        assert empirical_violation(tr, 14.0) == 0.0


class TestTraceCsv:
    def test_export_columns(self, tmp_path):
        tr = example_trace()
        out = tmp_path / "trace.csv"
        write_csv(out, TRACE_FIELDS, trace_columns(tr))
        text = out.read_text(encoding="utf-8")
        lines = text.strip().split("\n")
        assert lines[0] == "u,arrival,service,departure,sojourn,peak_aoi"
        assert lines[1] == "1,0.0,4.0,4.0,4.0,4.0"
        assert len(lines) == 4
