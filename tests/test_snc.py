"""Network-calculus transform, kernel, and bound tests."""
import math
import zlib
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stinqos import snc
from stinqos.aoi import (
    ArrivalModel,
    ServiceModel,
    geometric_attempts,
    trace_blocks,
    trace_violation_frequency,
)
from stinqos.errors import DomainError, NumericError, StabilityError
from stinqos.fbc import CodingSpec
from stinqos.snc import (
    BitArrival,
    QoSReport,
    _log_geometric_sum,
    _log_mellin_gap,
    _log_mellin_served,
    _log_mellin_service,
    delay_bound,
    log_paoi_kernel,
    optimize_paoi_bound,
    paoi_bound,
    paoi_theta_interval,
    stability_check,
)
from trace_helper import whole_updates


class TestInterarrivalTransform:
    def test_identity_at_one(self):
        for am in (ArrivalModel.poisson(1.0), ArrivalModel.deterministic(10.0)):
            assert math.exp(3 * _log_mellin_gap(0.0, am)) == 1.0

    def test_poisson_value(self):
        assert math.exp(_log_mellin_gap(0.5, ArrivalModel.poisson(1.0))) == \
            pytest.approx(2.0)

    def test_poisson_against_monte_carlo_mgf(self):
        am = ArrivalModel.poisson(1.0)
        rng = np.random.default_rng(0)
        gaps = rng.exponential(1.0, 1_000_000)
        mc = float(np.mean(np.exp(0.5 * gaps)))
        assert math.exp(_log_mellin_gap(0.5, am)) == pytest.approx(mc, rel=0.01)

    def test_deterministic_steps(self):
        am = ArrivalModel.deterministic(10.0)
        assert math.exp(2 * _log_mellin_gap(0.1, am)) == pytest.approx(math.e ** 2,
                                                                       rel=1e-12)

    def test_divergence(self):
        with pytest.raises(DomainError):
            _log_mellin_gap(1.1, ArrivalModel.poisson(1.0))


class TestServiceTransform:
    def test_identity_at_one(self):
        assert math.exp(4 * _log_mellin_service(0.0, ServiceModel.arq(10, 0.2))) == 1.0

    def test_fixed_value(self):
        assert math.exp(_log_mellin_service(0.01, ServiceModel.arq(100, 0.0))) == \
            pytest.approx(math.e, rel=1e-12)

    def test_arq_against_monte_carlo_mgf(self):
        sm = ServiceModel.arq(10, 0.1)
        analytic = math.exp(_log_mellin_service(0.05, sm))
        formula = 0.9 * math.exp(0.5) / (1 - 0.1 * math.exp(0.5))
        assert analytic == pytest.approx(formula, rel=1e-12)
        u = np.random.default_rng(1).random(1_000_000)
        services = 10 * geometric_attempts(u, 0.1)
        mc = float(np.mean(np.exp(0.05 * services)))
        assert analytic == pytest.approx(mc, rel=0.01)

    def test_divergence(self):
        sm = ServiceModel.arq(10, 0.1)
        with pytest.raises(DomainError):
            _log_mellin_service(math.log(10.0) / 10.0 + 1e-9, sm)

    @pytest.mark.parametrize(
        "mellin,args",
        [
            (_log_mellin_gap, (ArrivalModel.poisson(0.5),)),
            (_log_mellin_service, (ServiceModel.arq(5, 0.2),)),
            (_log_mellin_service, (ServiceModel.arq(7, 0.0),)),
        ],
    )
    def test_log_convexity(self, mellin, args):
        thetas = np.linspace(-0.7, 0.3, 21)
        logs = np.array([mellin(t, *args) for t in thetas])
        assert np.all(np.diff(logs, 2) >= -1e-9)


class TestPaoiKernel:
    def test_single_update_is_two_factor_product(self):
        am, sm = ArrivalModel.deterministic(10.0), ServiceModel.arq(4, 0.0)
        k = math.exp(log_paoi_kernel(0.05, 1, am, sm))
        expected = math.exp(_log_mellin_gap(0.05, am) + _log_mellin_service(0.05, sm))
        assert k == pytest.approx(expected, rel=1e-12)

    def test_hand_evaluated_three_terms(self):
        am, sm = ArrivalModel.deterministic(10.0), ServiceModel.arq(4, 0.0)
        hand = math.exp(0.5) * (
            math.exp(0.05 * 12) * math.exp(-0.05 * 20)
            + math.exp(0.05 * 8) * math.exp(-0.05 * 10)
            + math.exp(0.05 * 4)
        )
        assert math.exp(log_paoi_kernel(0.05, 3, am, sm)) == pytest.approx(hand,
                                                                           rel=1e-12)

    @staticmethod
    def mp_log_kernel(theta, u, period, n, eps):
        """log K(theta, u) of deterministic gaps of ``period`` and ARQ cycles
        of n at error eps, summed lag by lag in 50-digit arithmetic, with the
        log lag ratio."""
        with mpmath.workdps(50):
            theta, eps = mpmath.mpf(theta), mpmath.mpf(eps)
            e = mpmath.exp(theta * n)
            ms = (1 - eps) * e / (1 - eps * e)  # E[e^{theta S}]
            ratio = ms * mpmath.exp(-theta * period)
            total = sum(mpmath.exp(theta * period) * ms * ratio ** lag
                        for lag in range(u))
            return float(mpmath.log(total)), float(mpmath.log(ratio))

    def test_finite_sum_past_stable_edge(self):
        # a growing lag ratio, where the sum is taken from its largest term
        am, sm = ArrivalModel.deterministic(80.0), ServiceModel.arq(64, 0.1)
        theta = 0.9 * math.log(1 / 0.1) / 64  # below the service pole
        assert theta > paoi_theta_interval(am, sm)[1]
        want, log_ratio = self.mp_log_kernel(theta, 50, 80.0, 64, 0.1)
        assert log_ratio > 0.5
        assert log_paoi_kernel(theta, 50, am, sm) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("period", [64.0, 64.0 * (1 + 1e-15)])
    def test_finite_sum_of_ratio_rounding_to_one(self, period):
        # a lag ratio of 1 within 1e-14; exactly 1 takes the flat branch
        am, sm = ArrivalModel.deterministic(period), ServiceModel.arq(64, 0.0)
        want, log_ratio = self.mp_log_kernel(0.01, 1000, period, 64, 0.0)
        assert abs(log_ratio) < 1e-14
        assert log_paoi_kernel(0.01, 1000, am, sm) == pytest.approx(want, rel=1e-12)

    def test_steady_state_truncation(self):
        am, sm = ArrivalModel.poisson(1 / 256), ServiceModel.arq(64, 0.1)
        k_inf = math.exp(log_paoi_kernel(0.003, None, am, sm))
        k_1000 = math.exp(log_paoi_kernel(0.003, 1000, am, sm))
        assert abs(k_inf - k_1000) < 1e-9 * k_inf

    @pytest.mark.parametrize("am", [ArrivalModel.poisson(1 / 256),
                                    ArrivalModel.deterministic(256.0)])
    @pytest.mark.parametrize("frac", [1e-6, 1e-3, 0.5])
    def test_steady_state_equals_long_finite_sum(self, am, frac):
        # the steady state is the same series at u = inf, and r^(10^12)
        # rounds to 0 against 1
        sm = ServiceModel.arq(64, 0.1)
        theta = frac * paoi_theta_interval(am, sm)[1]
        assert log_paoi_kernel(theta, None, am, sm) == log_paoi_kernel(
            theta, 10 ** 12, am, sm)

    def test_truncation_horizon_doubling(self):
        am, sm = ArrivalModel.poisson(1 / 256), ServiceModel.arq(64, 0.1)
        # term ratio < 0.9 here; doubling the horizon moves nothing
        k_500 = math.exp(log_paoi_kernel(0.002, 500, am, sm))
        k_1000 = math.exp(log_paoi_kernel(0.002, 1000, am, sm))
        assert abs(k_1000 - k_500) < 1e-9 * k_500

    def test_divergence_detection(self):
        # mean service beats mean gap: the lag terms never decay
        am, sm = ArrivalModel.poisson(1 / 50), ServiceModel.arq(64, 0.2)
        with pytest.raises(StabilityError):
            log_paoi_kernel(0.001, None, am, sm)

    def test_feasible_interval(self):
        am, sm = ArrivalModel.poisson(1 / 256), ServiceModel.arq(64, 0.1)
        lo, hi = paoi_theta_interval(am, sm)
        assert lo == 0.0 and 0.0 < hi <= 1 / 256

    def test_interval_empty_when_unstable(self):
        with pytest.raises(StabilityError):
            paoi_theta_interval(ArrivalModel.poisson(1 / 50), ServiceModel.arq(64, 0.2))

    @staticmethod
    def mp_lag_root(rate, n, eps):
        """The positive root of the log lag ratio of Poisson gaps at ``rate``
        and ARQ cycles of n at error eps, in 50-digit arithmetic, bracketed
        around the heavy-traffic root 2(E[G] - E[S]) / (Var G + Var S)."""
        with mpmath.workdps(50):
            rate, eps = mpmath.mpf(rate), mpmath.mpf(eps)

            def log_ratio(theta):
                e = mpmath.exp(theta * n)
                return mpmath.log((1 - eps) * e / (1 - eps * e) / (1 + theta / rate))

            mean_s, var_s = n / (1 - eps), n * n * eps / (1 - eps) ** 2
            guess = 2 * (1 / rate - mean_s) / (1 / rate ** 2 + var_s)
            return float(mpmath.findroot(log_ratio, (guess / 2, 2 * guess),
                                         solver="anderson"))

    @pytest.mark.parametrize("gap, rel", [(1e-4, 1e-8), (1e-6, 1e-5), (1e-8, None),
                                          (1e-10, None)])
    def test_interval_edge_near_critical_load(self, gap, rel):
        # at load 1 - gap; rel None asks for the root within a factor of 2
        rate = (1.0 - gap) / 80.0  # arq(64, 0.2) takes 80 cu on average
        edge = paoi_theta_interval(ArrivalModel.poisson(rate), ServiceModel.arq(64, 0.2))[1]
        root = self.mp_lag_root(rate, 64, 0.2)
        if rel is None:
            assert 0.5 <= edge / root <= 2.0
        else:
            assert abs(edge / root - 1.0) <= rel


class TestGeometricSum:
    @pytest.mark.parametrize("log_r", [sign * size for sign in (1.0, -1.0)
                                       for size in (1e-15, 1e-13, 1e-300, 0.5)])
    @pytest.mark.parametrize("terms", [1, 1000, 10 ** 15, math.inf])
    def test_against_mpmath(self, log_r, terms):
        with mpmath.workdps(50):
            big_l = mpmath.mpf(log_r)
            exact = float(mpmath.log(mpmath.expm1(mpmath.mpf(terms) * big_l)
                                     / mpmath.expm1(big_l)))
        got = _log_geometric_sum(log_r, terms)
        if math.isinf(exact):
            assert got == exact
        else:
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact))

    def test_flat_series(self):
        assert _log_geometric_sum(0.0, 1000) == math.log(1000)
        assert _log_geometric_sum(0.0) == math.inf


DEFAULT_AM = ArrivalModel.poisson(1 / 256)
DEFAULT_SM = ServiceModel.arq(64, 0.1)


class TestPaoiBound:
    def test_zero_threshold(self):
        rep = paoi_bound(0.002, 0.0, 64, None, DEFAULT_AM, DEFAULT_SM)
        assert rep.bound_value == min(1.0, rep.kernel_value)

    def test_vanishing_theta_limit(self):
        rep = paoi_bound(1e-9, 1000.0, 64, 3, DEFAULT_AM, DEFAULT_SM)
        k0 = math.exp(log_paoi_kernel(1e-9, 3, DEFAULT_AM, DEFAULT_SM))
        assert rep.bound_value == pytest.approx(min(1.0, k0), rel=1e-9)

    def test_dominates_simulation(self):
        rng = np.random.default_rng(11)
        trace = list(trace_blocks([whole_updates(DEFAULT_AM, DEFAULT_SM, 100_000, rng)]))
        for a_th in (1000.0, 40_000.0, 120_000.0, 200_000.0):
            emp = trace_violation_frequency(trace, a_th)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / 100_000)
            rep = paoi_bound(0.0025, a_th, 64, None, DEFAULT_AM, DEFAULT_SM)
            assert rep.bound_value >= emp - 3 * se

    def test_refuses_negative_threshold(self):
        with pytest.raises(DomainError, match="^a_th must be >= 0, got -1e-300$"):
            paoi_bound(0.002, -1e-300, 64, None, DEFAULT_AM, DEFAULT_SM)

    def test_refuses_blocklength_below_one(self):
        with pytest.raises(DomainError, match="^blocklength must be >= 1, got 0$"):
            paoi_bound(0.002, 1000.0, 0, None, DEFAULT_AM, DEFAULT_SM)

    def test_clamped_and_raw(self):
        rep = paoi_bound(0.0005, 1000.0, 64, None, DEFAULT_AM, DEFAULT_SM)
        assert rep.bound_value == 1.0 and rep.raw_bound > 1.0


class TestDeterministicCorner:
    def test_fixed_service_deterministic_gaps(self):
        # peak AoI is exactly gap + service here, so the bound pair
        # (threshold below, threshold above) must straddle the atom
        am, sm = ArrivalModel.deterministic(100.0), ServiceModel.arq(20, 0.0)
        below = optimize_paoi_bound(100.0, 20, None, am, sm)
        above = optimize_paoi_bound(5000.0, 20, None, am, sm)
        assert below.bound_value == 1.0  # true violation probability is 1
        assert above.bound_value <= 1e-12  # true violation probability is 0

    @pytest.mark.parametrize("n, a_th, u", [(33, 346.3, 207), (64, 1000.0, None)])
    def test_search_finds_interior_minimum(self, n, a_th, u):
        # every theta is stable here, so the search takes its bracket from
        # the bound; it must reach the minimum of a log-spaced grid
        am, sm = ArrivalModel.deterministic(256.0), ServiceModel.arq(n, 0.0)
        rep = optimize_paoi_bound(a_th, n, u, am, sm)
        grid = np.logspace(-8.0, 2.0, 2001)
        best = min(paoi_bound(t, a_th, n, u, am, sm).raw_bound for t in grid.tolist())
        assert math.isfinite(rep.kernel_value)
        assert rep.raw_bound <= (1.0 + 1e-9) * best

    def test_kernel_overflow_keeps_bound_finite(self):
        am, sm = ArrivalModel.deterministic(100.0), ServiceModel.arq(20, 0.0)
        rep = paoi_bound(30.0, 1_000_000.0, 20, None, am, sm)
        assert math.isinf(rep.kernel_value)
        assert rep.raw_bound == 0.0 and rep.bound_value == 0.0


def _objective_bracket(objective, scale):
    """The bracket of a search over an edgeless stable set: doublings from
    ``scale`` while the objective decreases, at most 64, ending one past."""
    edge, prev = scale, objective(scale)
    for _ in range(64):
        edge *= 2.0
        cur = objective(edge)
        if cur >= prev:
            break
        prev = cur
    return edge


class TestEdgelessStableSets:
    """Every theta is stable, so the searches take their brackets from the
    objective and report them as the searched interval."""

    def test_dd1_interval_has_no_edge(self):
        am, sm = ArrivalModel.deterministic(256.0), ServiceModel.arq(64, 0.0)
        assert paoi_theta_interval(am, sm) == (0.0, math.inf)

    @pytest.mark.parametrize("alpha, eps", [(4.0, 0.0), (0.0, 0.1)],
                             ids=["error-free", "no-arrivals"])
    def test_delay_bracket_from_objective(self, alpha, eps):
        arrival = BitArrival.constant_rate(alpha)
        rep = delay_bound(2.0, arrival, CODING, eps)
        want = _objective_bracket(
            lambda t: _log_delay_kernel(t, 2.0, arrival, BITS, eps), 1.0 / BITS)
        assert math.isfinite(rep.params["theta_hi"])
        assert rep.params["theta_hi"] == want
        assert 0.0 < rep.theta < want

    def test_dd1_decreasing_objective_ends_at_bracket_end(self):
        # bound_queries' D/D/1 job at u = 64: a_th / n exceeds the gap plus
        # the service, so the log bound falls through all 64 doublings
        gap, a_th = 300.0, 150_000.0
        am, sm = ArrivalModel.deterministic(gap), ServiceModel.arq(64, 0.0)
        rep = optimize_paoi_bound(a_th, 64, 64, am, sm)
        t_ub = rep.params["theta_interval"][1]
        assert t_ub == 2.0 ** 64 / gap
        assert rep.theta == t_ub * (1.0 - 1e-9)
        assert rep.bound_value == 0.0 and math.isinf(rep.kernel_value)


class TestOptimizePaoiBound:
    def test_argmin_beats_feasibility_grid(self):
        a_th = 150_000.0
        rep = optimize_paoi_bound(a_th, 64, None, DEFAULT_AM, DEFAULT_SM)
        _, hi = paoi_theta_interval(DEFAULT_AM, DEFAULT_SM)
        grid = np.linspace(hi * 1e-3, hi * (1 - 1e-6), 100)
        bounds = [paoi_bound(t, a_th, 64, None, DEFAULT_AM, DEFAULT_SM).raw_bound
                  for t in grid]
        assert rep.raw_bound <= min(bounds) * (1 + 1e-9)

    def test_report_carries_theta_interval(self):
        rep = optimize_paoi_bound(150_000.0, 64, None, DEFAULT_AM, DEFAULT_SM)
        assert rep.params["theta_interval"] == (
            0.0, paoi_theta_interval(DEFAULT_AM, DEFAULT_SM)[1])
        assert rep.params["n"] == 64 and rep.params["u"] == "inf"

    def test_monotone_in_threshold(self):
        reps = [
            optimize_paoi_bound(a, 64, None, DEFAULT_AM, DEFAULT_SM).bound_value
            for a in (50_000.0, 100_000.0, 200_000.0, 400_000.0)
        ]
        assert all(reps[i + 1] <= reps[i] + 1e-15 for i in range(len(reps) - 1))

    def test_dominates_simulation(self):
        rng = np.random.default_rng(12)
        trace = list(trace_blocks([whole_updates(DEFAULT_AM, DEFAULT_SM, 100_000, rng)]))
        for a_th in (2000.0, 100_000.0, 250_000.0):
            emp = trace_violation_frequency(trace, a_th)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / 100_000)
            rep = optimize_paoi_bound(a_th, 64, None, DEFAULT_AM, DEFAULT_SM)
            assert rep.bound_value >= emp - 3 * se

    @pytest.mark.parametrize(
        "am,sm",
        [
            (DEFAULT_AM, DEFAULT_SM),
            (ArrivalModel.poisson(1 / 256), ServiceModel.arq(64, 0.25)),
            (ArrivalModel.poisson(1 / 400), ServiceModel.arq(100, 0.1)),
            (ArrivalModel.deterministic(256.0), ServiceModel.arq(64, 0.1)),
        ],
    )
    def test_dominance_under_perturbations(self, am, sm):
        n = sm.n
        rng = np.random.default_rng(zlib.crc32(f"{am.kind}/{sm.n}".encode()))
        trace = list(trace_blocks([whole_updates(am, sm, 100_000, rng)]))
        for a_th in (1000.0, 50_000.0, 150_000.0, 400_000.0):
            emp = trace_violation_frequency(trace, a_th)
            se = math.sqrt(max(emp * (1 - emp), 0.0) / 100_000)
            rep = optimize_paoi_bound(a_th, n, None, am, sm)
            assert rep.bound_value >= emp - 3 * se


class TestPaoiSearchCost:
    def test_kernel_calls(self, monkeypatch):
        # golden section alone takes 47 evaluations of the kernel over the
        # stable interval at its 1e-9 tolerance and two at its ends, and the
        # report one more; a guard grid would add 96
        calls = []
        kernel = snc.log_paoi_kernel

        def counting(theta, u, am, sm):
            calls.append(theta)
            return kernel(theta, u, am, sm)

        monkeypatch.setattr(snc, "log_paoi_kernel", counting)
        optimize_paoi_bound(150_000.0, 64, None, ArrivalModel.poisson(1 / 300),
                            ServiceModel.arq(64, 0.1))
        assert len(calls) <= 60


CODING = CodingSpec(blocklength=64, code_size=256)  # 8 bits per block
BITS = CODING.bits_per_block


class TestServiceProcessTransform:
    def test_identity_at_one(self):
        assert _log_mellin_served(0.0, BITS, 0.3) == 0.0

    def test_degenerate_channel(self):
        assert _log_mellin_served(0.6, BITS, 1.0) == 0.0

    def test_worked_value(self):
        val = math.exp(_log_mellin_served(0.5, BITS, 0.1))
        assert val == pytest.approx(0.1 + 0.9 * math.exp(-4.0), rel=1e-12)
        assert val == pytest.approx(0.11648, abs=1e-5)

    def test_log_convexity(self):
        thetas = 1.0 - np.linspace(0.1, 1.5, 20)
        logs = [_log_mellin_served(t, BITS, 0.2) for t in thetas]
        assert np.all(np.diff(logs, 2) >= -1e-9)

    @pytest.mark.parametrize("eps", [0.0, 1e-9, 0.05, 0.5, 0.999])
    def test_both_forms_match_mpmath(self, eps):
        # log1p near theta = 0, the direct sum once it falls below 1/2
        for theta in (1e-9, 1e-3, 0.05, 0.08, 0.1, 1.0, 3.0, 100.0):
            with mpmath.workdps(40):
                exact = mpmath.log(eps + (1 - mpmath.mpf(eps))
                                   * mpmath.exp(-mpmath.mpf(theta) * BITS))
            assert _log_mellin_served(theta, BITS, eps) == pytest.approx(
                float(exact), rel=1e-14)

    def test_average_error_outside_unit_interval(self):
        with pytest.raises(DomainError):
            _log_mellin_served(0.1, BITS, 1.5)


class TestReportParams:
    def test_item_assignment_raises(self):
        params = {"n": 64}
        rep = QoSReport(kind="aoi", theta=0.1, bound_value=0.5, threshold=1.0,
                        kernel_value=0.5, raw_bound=0.5, params=params)
        with pytest.raises(TypeError):
            rep.params["n"] = 128
        params["n"] = 128  # the report keeps a copy of the mapping given
        assert rep.params["n"] == 64

    def test_replace_gives_new_read_only_params(self):
        rep = optimize_paoi_bound(150_000.0, 64, None, ArrivalModel.poisson(1 / 4096),
                                  ServiceModel.arq(64, 0.01))
        assert rep.params["theta_interval"][0] == 0.0
        with pytest.raises(TypeError):
            rep.params["theta_interval"] = None
        moved = replace(rep, params={**rep.params, "extra": 1})
        assert moved.params["extra"] == 1 and "extra" not in rep.params
        with pytest.raises(TypeError):
            moved.params["extra"] = 2


class TestBitArrival:
    def test_identity_at_zero(self):
        for arrival in (BitArrival.constant_rate(4.0),
                        BitArrival.poisson_batch(0.5, 4.0)):
            assert arrival.log_mellin(0.0) == 0.0

    def test_means(self):
        assert BitArrival.constant_rate(4.0).mean_bits == 4.0
        assert BitArrival.poisson_batch(0.5, 6.0).mean_bits == 3.0

    def test_poisson_batch_against_monte_carlo_mgf(self):
        arrival = BitArrival.poisson_batch(0.5, 4.0)
        counts = np.random.default_rng(3).poisson(0.5, 1_000_000)
        mc = float(np.mean(np.exp(0.1 * 4.0 * counts)))
        assert math.exp(arrival.log_mellin(0.1)) == pytest.approx(mc, rel=0.01)

    def test_overflow_is_inf(self):
        assert BitArrival.poisson_batch(0.5, 4.0).log_mellin(1e3) == math.inf

    @pytest.mark.parametrize("kind,args", [
        ("constant_rate", {"alpha_bits": -1.0}),
        ("poisson_batch", {"rate": 0.0, "batch_bits": 4.0}),
        ("poisson_batch", {"rate": 0.5, "batch_bits": -4.0}),
        ("bursty", {}),
    ])
    def test_domain_checks(self, kind, args):
        with pytest.raises(DomainError):
            BitArrival(kind, **args)


class TestStabilityCheck:
    def test_stable(self):
        ok, margin = stability_check(0.5, BitArrival.constant_rate(0.0), CODING, 0.1)
        assert ok and margin < 1.0

    def test_unstable(self):
        # arrival transform 1.2 / M_S(1 - theta) at theta = 0.5: product 1.2
        alpha = (math.log(1.2) - _log_mellin_served(0.5, BITS, 0.1)) / 0.5
        ok, margin = stability_check(0.5, BitArrival.constant_rate(alpha), CODING, 0.1)
        assert (margin < 1.0) == ok

    def test_margin_monotone_in_arrival_rate(self):
        margins = []
        for alpha in (1.0, 2.0, 4.0, 6.0):
            _, margin = stability_check(0.3, BitArrival.constant_rate(alpha), CODING, 0.1)
            margins.append(margin)
        assert all(margins[i + 1] > margins[i] for i in range(len(margins) - 1))


class TestDelayKernel:
    def test_direct_formula(self):
        # kernel M_S(1-theta)^D_th / (1 - M_A(1+theta) M_S(1-theta)) at the
        # optimized theta
        arrival = BitArrival.constant_rate(4.0)
        rep = delay_bound(2.0, arrival, CODING, 0.1)
        log_ms = _log_mellin_served(rep.theta, BITS, 0.1)
        product = math.exp(arrival.log_mellin(rep.theta) + log_ms)
        ms = math.exp(log_ms)
        assert rep.params["stability_margin"] == product
        assert rep.kernel_value == pytest.approx(ms ** 2 / (1.0 - product), rel=1e-12)

    def test_stability_error_carries_margin(self):
        with pytest.raises(StabilityError) as info:
            delay_bound(2.0, BitArrival.constant_rate(50.0), CODING, 0.1)
        assert info.value.margin >= 1.0

    def test_finite_and_decreasing_in_d_th(self):
        arrival = BitArrival.constant_rate(4.0)  # below (1 - eps) * 8 bits
        vals = [
            delay_bound(d, arrival, CODING, 0.1).kernel_value
            for d in (0.0, 1.0, 2.0, 5.0, 10.0)
        ]
        assert all(math.isfinite(v) for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


class TestDelayBound:
    def test_zero_threshold_clamps_to_one(self):
        rep = delay_bound(0.0, BitArrival.constant_rate(4.0), CODING, 0.1)
        assert rep.bound_value == 1.0 and rep.raw_bound >= 1.0

    def test_nonincreasing_in_threshold(self):
        vals = [
            delay_bound(d, BitArrival.constant_rate(4.0), CODING, 0.1).bound_value
            for d in (0.0, 1.0, 3.0, 6.0, 10.0)
        ]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))

    def test_no_stable_theta(self):
        with pytest.raises(StabilityError):
            delay_bound(3.0, BitArrival.constant_rate(8.0), CODING, 0.1)

    @pytest.mark.parametrize("rate, batch", [(1e-100, 1e100), (1e-300, 1e300)])
    def test_stable_set_below_200_halvings(self, rate, batch):
        # load about 0.03, yet the batch transform outgrows the service's
        # past theta about 5 / batch, far below 2^-200 of the cap -ln(eps)
        rep = delay_bound(5.0, BitArrival.poisson_batch(rate, batch),
                          CodingSpec(64, 2 ** 32), 0.0047)
        assert 0.0 <= rep.bound_value <= 1.0
        assert 0.0 < rep.theta < rep.params["theta_hi"] < 10.0 / batch

    def test_no_stable_theta_down_to_least_normal_float(self):
        # the mean is 1 ulp below the service rate: every halving down to
        # the least normal float rounds the log product to >= 0
        arrival = BitArrival.poisson_batch(0.21224877435445327, 10.391279248773312)
        with pytest.raises(NumericError, match="^no stable theta in double precision"):
            delay_bound(1.0, arrival, CodingSpec(64, 16), 0.44861592886825)

    def test_poisson_batch_arrival_transform(self):
        arrival = BitArrival.poisson_batch(0.5, 4.0)
        assert arrival.log_mellin(0.0) == 0.0
        rep = delay_bound(3.0, arrival, CODING, 0.05)
        assert 0.0 <= rep.bound_value <= 1.0

    def test_negative_threshold_refused(self):
        with pytest.raises(DomainError):
            delay_bound(-2.0, BitArrival.constant_rate(4.0), CODING, 0.1)

    def test_report_carries_arrival_model(self):
        arrival = BitArrival.poisson_batch(0.5, 4.0)
        rep = delay_bound(3.0, arrival, CODING, 0.05)
        assert rep.params["arrival"] == arrival
        assert 0.0 < rep.theta < rep.params["theta_hi"]

    def test_error_free_link(self):
        # eps = 0: every block serves its bits, the stable set is unbounded
        # and the kernel tends to 0 as theta grows
        rep = delay_bound(2.0, BitArrival.constant_rate(4.0), CODING, 0.0)
        assert rep.bound_value == 0.0

    def test_zero_arrivals(self):
        # nothing arrives: the infimum M_S^d / (1 - M_S) is eps^d / (1 - eps)
        rep = delay_bound(2.0, BitArrival.constant_rate(0.0), CODING, 0.1)
        assert rep.kernel_value == pytest.approx(0.1 ** 2 / 0.9, rel=1e-9)


class TestExponentialDecaySlope:
    def test_log_bound_affine_in_threshold(self):
        # optimized bound: local slope of the log equals -theta*/n
        n = 64
        a_grid = np.linspace(200_000.0, 320_000.0, 7)
        reps = [optimize_paoi_bound(a, n, None, DEFAULT_AM, DEFAULT_SM) for a in a_grid]
        for i in range(len(a_grid) - 1):
            slope = (
                math.log(reps[i + 1].raw_bound) - math.log(reps[i].raw_bound)
            ) / (a_grid[i + 1] - a_grid[i])
            theta_mid = 0.5 * (reps[i].theta + reps[i + 1].theta)
            assert slope == pytest.approx(-theta_mid / n, rel=0.01)


# Property tests over both bit-arrival kinds, eps in [0, 0.5] and 2..32 bits
# per block. A load within 1e-12 of the service rate may leave no stable
# theta that double precision resolves; that is the one NumericError allowed.
bit_arrivals = st.one_of(
    st.builds(BitArrival.constant_rate, st.floats(0.0, 40.0)),
    st.builds(BitArrival.poisson_batch, st.floats(0.01, 4.0), st.floats(0.5, 40.0)),
)
bit_codings = st.sampled_from([4, 16, 256, 2 ** 16, 2 ** 32]).map(
    lambda m: CodingSpec(blocklength=64, code_size=m))
update_arrivals = st.one_of(
    st.builds(ArrivalModel.poisson, st.floats(1 / 400, 1 / 4)),
    st.builds(ArrivalModel.deterministic, st.floats(4.0, 400.0)),
)
update_services = st.one_of(
    st.builds(ServiceModel.arq, st.integers(1, 128), st.just(0.0)),
    st.builds(ServiceModel.arq, st.integers(1, 128), st.floats(0.0, 0.5)),
)


def _near_critical(mean, capacity):
    return mean > capacity * (1.0 - 1e-12)


def _linear_delay_kernel(theta, d_th, arrival, bits, eps):
    """M_S(1-theta)^d_th / (1 - M_A(1+theta) M_S(1-theta)) in 50 digits."""
    theta = mpmath.mpf(theta)
    with mpmath.workdps(50):
        ms = eps + (1 - mpmath.mpf(eps)) * mpmath.exp(-theta * bits)
        if arrival.kind == "constant_rate":
            ma = mpmath.exp(theta * arrival.alpha_bits)
        else:
            ma = mpmath.exp(arrival.rate * (mpmath.exp(theta * arrival.batch_bits) - 1))
        return ms ** d_th / (1 - ma * ms)


def _log_delay_kernel(theta, d_th, arrival, bits, eps):
    log_ms = _log_mellin_served(theta, bits, eps)
    log_p = arrival.log_mellin(theta) + log_ms
    return math.inf if log_p >= 0.0 else d_th * log_ms - math.log(-math.expm1(log_p))


def _optimized_paoi(a_th, n, am, sm):
    """Optimized bound, or None at a load within 1e-12 of critical."""
    try:
        return optimize_paoi_bound(a_th, n, None, am, sm).bound_value
    except NumericError:
        assert _near_critical(sm.mean_service, am.mean_gap)
        return None


class TestBoundProperties:
    @settings(max_examples=150, deadline=None)
    @given(bit_arrivals, bit_codings, st.floats(0.0, 0.5),
           st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    # a load of 1 - 1.1e-16, where the log product rounds at its own size
    # on the whole stable set
    @example(BitArrival.poisson_batch(3.9999999999999996, 0.5),
             CodingSpec(blocklength=64, code_size=4), 0.0, 0.0, 0.0)
    def test_delay_bound(self, arrival, spec, eps, d1, d2):
        bits = spec.bits_per_block
        capacity = (1.0 - eps) * bits
        if arrival.mean_bits >= capacity:
            with pytest.raises(StabilityError) as info:
                delay_bound(d1, arrival, spec, eps)
            assert info.value.margin >= 1.0
            return
        d_lo, d_hi = sorted((d1, d2))
        try:
            lo = delay_bound(d_lo, arrival, spec, eps)
        except NumericError:
            assert _near_critical(arrival.mean_bits, capacity)
            return
        hi = delay_bound(d_hi, arrival, spec, eps)
        # each search ends at its own theta; allow the oracle's tolerance
        assert hi.bound_value <= lo.bound_value * (1.0 + 1e-12)
        for rep in (lo, hi):
            exact = _linear_delay_kernel(rep.theta, rep.threshold, arrival, bits, eps)
            if 1e-300 < exact < 1e300:
                assert rep.kernel_value == pytest.approx(float(exact), rel=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(update_arrivals, update_services)
    # a subnormal epsilon, whose reciprocal overflows, is taken as 0
    @example(ArrivalModel.deterministic(4.0), ServiceModel.arq(1, 5e-324))
    def test_paoi_interval_nonempty_iff_stable(self, am, sm):
        if sm.mean_service >= am.mean_gap:
            with pytest.raises(StabilityError):
                paoi_theta_interval(am, sm)
            return
        try:
            lo, hi = paoi_theta_interval(am, sm)
        except NumericError:
            assert _near_critical(sm.mean_service, am.mean_gap)
            return
        assert lo == 0.0 < hi

    # the search has no guard grid: the convex log kernel must reach a fine
    # grid's minimum anyway
    @settings(max_examples=150, deadline=None)
    @given(bit_arrivals, bit_codings, st.floats(0.0, 0.5), st.floats(0.0, 20.0))
    def test_delay_theta_beats_fine_grid(self, arrival, spec, eps, d_th):
        bits = spec.bits_per_block
        if arrival.mean_bits >= (1.0 - eps) * bits:
            return
        try:
            rep = delay_bound(d_th, arrival, spec, eps)
        except NumericError:
            assert _near_critical(arrival.mean_bits, (1.0 - eps) * bits)
            return
        grid = np.linspace(0.0, rep.params["theta_hi"], 2003)[1:-1]
        best = min(_log_delay_kernel(t, d_th, arrival, bits, eps) for t in grid.tolist())
        assert rep.kernel_value <= (1.0 + 1e-12) * math.exp(best)

    # its peak-AoI twin: the search over (0, theta_ub) against 2001 interior
    # points, where a point whose lag ratio rounds to >= 1 has no bound
    @settings(max_examples=150, deadline=None)
    @given(update_arrivals, update_services, st.floats(0.0, 20_000.0),
           st.none() | st.integers(1, 256))
    def test_paoi_theta_beats_fine_grid(self, am, sm, a_th, u):
        if sm.mean_service >= am.mean_gap:
            return
        try:
            rep = optimize_paoi_bound(a_th, sm.n, u, am, sm)
        except NumericError:
            assert _near_critical(sm.mean_service, am.mean_gap)
            return
        grid = np.linspace(0.0, rep.params["theta_interval"][1], 2003)[1:-1]
        bounds = []
        for theta in grid.tolist():
            try:
                bounds.append(paoi_bound(theta, a_th, sm.n, u, am, sm).raw_bound)
            except StabilityError:
                pass
        assert rep.raw_bound <= (1.0 + 1e-12) * min(bounds)

    @settings(max_examples=100, deadline=None)
    @given(bit_arrivals, bit_codings, st.floats(0.0, 0.5), st.floats(0.0, 0.5),
           st.floats(0.0, 20.0))
    def test_delay_bound_nondecreasing_in_eps(self, arrival, spec, e1, e2, d_th):
        e_lo, e_hi = sorted((e1, e2))
        capacity = (1.0 - e_hi) * spec.bits_per_block
        if arrival.mean_bits >= capacity:
            return
        try:
            hi = delay_bound(d_th, arrival, spec, e_hi).bound_value
        except NumericError:
            assert _near_critical(arrival.mean_bits, capacity)
            return
        lo = delay_bound(d_th, arrival, spec, e_lo).bound_value
        assert lo <= hi * (1.0 + 1e-9)

    # thresholds in units of mean gap times blocklength, where the bound
    # leaves 1
    @settings(max_examples=100, deadline=None)
    @given(update_arrivals, update_services, st.floats(0.0, 60.0),
           st.floats(0.0, 60.0))
    def test_paoi_bound_nonincreasing_in_threshold(self, am, sm, x1, x2):
        if sm.mean_service >= am.mean_gap:
            return
        scale = am.mean_gap * sm.n
        lo = _optimized_paoi(min(x1, x2) * scale, sm.n, am, sm)
        if lo is not None:
            hi = _optimized_paoi(max(x1, x2) * scale, sm.n, am, sm)
            assert hi <= lo * (1.0 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(update_arrivals, st.integers(1, 128), st.floats(0.0, 0.5),
           st.floats(0.0, 0.5), st.floats(0.0, 60.0))
    def test_paoi_bound_nondecreasing_in_arq_epsilon(self, am, n, e1, e2, x):
        e_lo, e_hi = sorted((e1, e2))
        sm_lo, sm_hi = ServiceModel.arq(n, e_lo), ServiceModel.arq(n, e_hi)
        if sm_hi.mean_service >= am.mean_gap:
            return
        a_th = x * am.mean_gap * n
        hi = _optimized_paoi(a_th, n, am, sm_hi)
        if hi is not None:
            lo = _optimized_paoi(a_th, n, am, sm_lo)
            assert lo <= hi * (1.0 + 1e-9)
