"""Network-calculus transform, kernel, and bound tests."""
import math

import numpy as np
import pytest

from stinqos.aoi import (
    ArrivalModel,
    ServiceModel,
    geometric_attempts,
    sample_updates,
    violation_frequency,
)
from stinqos.errors import DomainError, StabilityError
from stinqos.fbc import CodingSpec
from stinqos.snc import (
    _log_mellin_gap,
    _log_mellin_service,
    constant_rate_arrival,
    delay_bound,
    log_paoi_kernel,
    mellin_service_process,
    optimize_paoi_bound,
    paoi_bound,
    paoi_theta_interval,
    poisson_batch_arrival,
    stability_check,
)


class TestInterarrivalTransform:
    def test_identity_at_one(self):
        for am in (ArrivalModel.poisson(1.0), ArrivalModel.deterministic(10.0)):
            assert math.exp(3 * _log_mellin_gap(1.0, am)) == 1.0

    def test_poisson_value(self):
        assert math.exp(_log_mellin_gap(1.5, ArrivalModel.poisson(1.0))) == \
            pytest.approx(2.0)

    def test_poisson_against_monte_carlo_mgf(self):
        am = ArrivalModel.poisson(1.0)
        rng = np.random.default_rng(0)
        gaps = rng.exponential(1.0, 1_000_000)
        mc = float(np.mean(np.exp(0.5 * gaps)))
        assert math.exp(_log_mellin_gap(1.5, am)) == pytest.approx(mc, rel=0.01)

    def test_deterministic_steps(self):
        am = ArrivalModel.deterministic(10.0)
        assert math.exp(2 * _log_mellin_gap(1.1, am)) == pytest.approx(math.e ** 2,
                                                                       rel=1e-12)

    def test_divergence(self):
        with pytest.raises(DomainError):
            _log_mellin_gap(2.1, ArrivalModel.poisson(1.0))


class TestServiceTransform:
    def test_identity_at_one(self):
        assert math.exp(4 * _log_mellin_service(1.0, ServiceModel.arq(10, 0.2))) == 1.0

    def test_fixed_value(self):
        assert math.exp(_log_mellin_service(1.01, ServiceModel.fixed(100))) == \
            pytest.approx(math.e, rel=1e-12)

    def test_arq_against_monte_carlo_mgf(self):
        sm = ServiceModel.arq(10, 0.1)
        analytic = math.exp(_log_mellin_service(1.05, sm))
        formula = 0.9 * math.exp(0.5) / (1 - 0.1 * math.exp(0.5))
        assert analytic == pytest.approx(formula, rel=1e-12)
        u = np.random.default_rng(1).random(1_000_000)
        services = 10 * geometric_attempts(u, 0.1)
        mc = float(np.mean(np.exp(0.05 * services)))
        assert analytic == pytest.approx(mc, rel=0.01)

    def test_divergence(self):
        sm = ServiceModel.arq(10, 0.1)
        with pytest.raises(DomainError):
            _log_mellin_service(1.0 + math.log(10.0) / 10.0 + 1e-9, sm)

    @pytest.mark.parametrize(
        "mellin,args",
        [
            (_log_mellin_gap, (ArrivalModel.poisson(0.5),)),
            (_log_mellin_service, (ServiceModel.arq(5, 0.2),)),
            (_log_mellin_service, (ServiceModel.fixed(7),)),
        ],
    )
    def test_log_convexity(self, mellin, args):
        thetas = np.linspace(0.3, 1.3, 21)
        logs = np.array([mellin(t, *args) for t in thetas])
        assert np.all(np.diff(logs, 2) >= -1e-9)


class TestPaoiKernel:
    def test_single_update_is_two_factor_product(self):
        am, sm = ArrivalModel.deterministic(10.0), ServiceModel.fixed(4)
        k = math.exp(log_paoi_kernel(0.05, 1, am, sm))
        expected = math.exp(_log_mellin_gap(1.05, am) + _log_mellin_service(1.05, sm))
        assert k == pytest.approx(expected, rel=1e-12)

    def test_hand_evaluated_three_terms(self):
        am, sm = ArrivalModel.deterministic(10.0), ServiceModel.fixed(4)
        hand = math.exp(0.5) * (
            math.exp(0.05 * 12) * math.exp(-0.05 * 20)
            + math.exp(0.05 * 8) * math.exp(-0.05 * 10)
            + math.exp(0.05 * 4)
        )
        assert math.exp(log_paoi_kernel(0.05, 3, am, sm)) == pytest.approx(hand,
                                                                           rel=1e-12)

    def test_steady_state_truncation(self):
        am, sm = ArrivalModel.poisson(1 / 256), ServiceModel.arq(64, 0.1)
        k_inf = math.exp(log_paoi_kernel(0.003, None, am, sm))
        k_1000 = math.exp(log_paoi_kernel(0.003, 1000, am, sm))
        assert abs(k_inf - k_1000) < 1e-9 * k_inf

    @pytest.mark.parametrize("am", [ArrivalModel.poisson(1 / 256),
                                    ArrivalModel.deterministic(256.0)])
    @pytest.mark.parametrize("frac", [1e-6, 1e-3, 0.5])
    def test_steady_state_equals_long_finite_sum(self, am, frac):
        # the finite-u value comes from the separate _log_geometric_sum path
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
        times = sample_updates(DEFAULT_AM, DEFAULT_SM, 100_000, rng)
        for a_th in (1000.0, 40_000.0, 120_000.0, 200_000.0):
            emp = violation_frequency(*times, a_th)
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / 100_000)
            rep = paoi_bound(0.0025, a_th, 64, None, DEFAULT_AM, DEFAULT_SM)
            assert rep.bound_value >= emp - 3 * se

    def test_clamped_and_raw(self):
        rep = paoi_bound(0.0005, 1000.0, 64, None, DEFAULT_AM, DEFAULT_SM)
        assert rep.bound_value == 1.0 and rep.raw_bound > 1.0


class TestDeterministicCorner:
    def test_fixed_service_deterministic_gaps(self):
        # peak AoI is exactly gap + service here, so the bound pair
        # (threshold below, threshold above) must straddle the atom
        am, sm = ArrivalModel.deterministic(100.0), ServiceModel.fixed(20)
        below = optimize_paoi_bound(100.0, 20, None, am, sm)
        above = optimize_paoi_bound(5000.0, 20, None, am, sm)
        assert below.bound_value == 1.0  # true violation probability is 1
        assert above.bound_value <= 1e-12  # true violation probability is 0

    def test_kernel_overflow_keeps_bound_finite(self):
        am, sm = ArrivalModel.deterministic(100.0), ServiceModel.fixed(20)
        rep = paoi_bound(30.0, 1_000_000.0, 20, None, am, sm)
        assert math.isinf(rep.kernel_value)
        assert rep.raw_bound == 0.0 and rep.bound_value == 0.0


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
        times = sample_updates(DEFAULT_AM, DEFAULT_SM, 100_000, rng)
        for a_th in (2000.0, 100_000.0, 250_000.0):
            emp = violation_frequency(*times, a_th)
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
        rng = np.random.default_rng(hash((am.kind, sm.n)) % 2 ** 32)
        times = sample_updates(am, sm, 100_000, rng)
        for a_th in (1000.0, 50_000.0, 150_000.0, 400_000.0):
            emp = violation_frequency(*times, a_th)
            se = math.sqrt(max(emp * (1 - emp), 0.0) / 100_000)
            rep = optimize_paoi_bound(a_th, n, None, am, sm)
            assert rep.bound_value >= emp - 3 * se


CODING = CodingSpec(blocklength=64, code_size=256)  # 8 bits per block


class TestServiceProcessTransform:
    def test_identity_at_one(self):
        assert mellin_service_process(1.0, CODING, 0.3) == 1.0

    def test_degenerate_channel(self):
        assert mellin_service_process(0.4, CODING, 1.0) == 1.0

    def test_worked_value(self):
        val = mellin_service_process(0.5, CODING, 0.1)
        assert val == pytest.approx(0.1 + 0.9 * math.exp(-4.0), rel=1e-12)
        assert val == pytest.approx(0.11648, abs=1e-5)

    def test_log_convexity(self):
        thetas = np.linspace(0.1, 1.5, 20)
        logs = [math.log(mellin_service_process(t, CODING, 0.2)) for t in thetas]
        assert np.all(np.diff(logs, 2) >= -1e-9)


class TestStabilityCheck:
    def test_stable(self):
        ok, margin = stability_check(0.5, lambda t: 1.0, CODING, 0.1)
        assert ok and margin < 1.0

    def test_unstable(self):
        ok, margin = stability_check(
            0.5, lambda t: 2.0 / mellin_service_process(0.5, CODING, 0.1) * 0.6,
            CODING, 0.1,
        )
        assert (margin < 1.0) == ok

    def test_margin_monotone_in_arrival_rate(self):
        margins = []
        for alpha in (1.0, 2.0, 4.0, 6.0):
            _, margin = stability_check(0.3, constant_rate_arrival(alpha), CODING, 0.1)
            margins.append(margin)
        assert all(margins[i + 1] > margins[i] for i in range(len(margins) - 1))


class TestDelayKernel:
    def test_direct_formula(self):
        # kernel M_S(1-theta)^D_th / (1 - M_A(1+theta) M_S(1-theta)) at the
        # optimized theta
        arrival = constant_rate_arrival(4.0)
        rep = delay_bound(2.0, arrival, CODING, 0.1)
        ms = mellin_service_process(1.0 - rep.theta, CODING, 0.1)
        product = arrival(1.0 + rep.theta) * ms
        assert rep.params["stability_margin"] == product
        assert rep.kernel_value == pytest.approx(ms ** 2 / (1.0 - product), rel=1e-12)

    def test_stability_error_carries_margin(self):
        with pytest.raises(StabilityError) as info:
            delay_bound(2.0, constant_rate_arrival(50.0), CODING, 0.1)
        assert info.value.margin >= 1.0

    def test_finite_and_decreasing_in_d_th(self):
        arrival = constant_rate_arrival(4.0)  # below (1 - eps) * 8 bits
        vals = [
            delay_bound(d, arrival, CODING, 0.1).kernel_value
            for d in (0.0, 1.0, 2.0, 5.0, 10.0)
        ]
        assert all(math.isfinite(v) for v in vals)
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


class TestDelayBound:
    def test_zero_threshold_clamps_to_one(self):
        rep = delay_bound(0.0, constant_rate_arrival(4.0), CODING, 0.1)
        assert rep.bound_value == 1.0 and rep.raw_bound >= 1.0

    def test_nonincreasing_in_threshold(self):
        vals = [
            delay_bound(d, constant_rate_arrival(4.0), CODING, 0.1).bound_value
            for d in (0.0, 1.0, 3.0, 6.0, 10.0)
        ]
        assert all(vals[i + 1] <= vals[i] + 1e-15 for i in range(len(vals) - 1))

    def test_no_stable_theta(self):
        with pytest.raises(StabilityError):
            delay_bound(3.0, constant_rate_arrival(8.0), CODING, 0.1)

    def test_poisson_batch_arrival_transform(self):
        arrival = poisson_batch_arrival(0.5, 4.0)
        assert arrival(1.0) == 1.0
        rep = delay_bound(3.0, arrival, CODING, 0.05)
        assert 0.0 <= rep.bound_value <= 1.0


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
