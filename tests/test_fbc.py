"""Finite-blocklength error and exponent tests."""
import math

import numpy as np
import pytest
from numpy.polynomial.laguerre import laggauss

from stinqos.channel import (
    InterfererField,
    LinkBudget,
    Scenario,
    ShadowedRicianParams,
)
from stinqos.errors import DomainError
from stinqos.experiments import default_scenario
from stinqos.fbc import (
    _interference_nodes,
    CodingSpec,
    ErrorModel,
    average_error,
    capacity_nats,
    conditional_error,
    dispersion,
    error_exponent,
    error_exponent_closed_form,
    error_exponent_samples,
    gallager_e0,
    gallager_e0_samples,
    q_function,
    sinr_quadrature,
    sinr_samples,
)


def q_series_oracle(x: float) -> float:
    """Q(x) from the error-function Maclaurin series (independent of erfc)."""
    t = x / math.sqrt(2.0)
    total = 0.0
    term = t
    k = 0
    while abs(term) > 1e-18:
        total += term / (2 * k + 1)
        k += 1
        term *= -t * t / k
    erf = 2.0 / math.sqrt(math.pi) * total
    return 0.5 * (1.0 - erf)


class TestNormalApproximationPieces:
    def test_capacity(self):
        assert capacity_nats(0.0) == 0.0
        assert capacity_nats(math.e - 1) == pytest.approx(1.0, rel=1e-14)
        assert capacity_nats(1.0) == pytest.approx(math.log(2), rel=1e-14)

    def test_dispersion(self):
        assert dispersion(0.0) == 0.0
        assert dispersion(1.0) == pytest.approx(0.75, rel=1e-14)
        assert dispersion(1e12) == pytest.approx(1.0, abs=1e-12)

    def test_q_function(self):
        assert q_function(0.0) == 0.5
        assert q_function(40.0) == 0.0
        assert q_function(1.0) == pytest.approx(q_series_oracle(1.0), abs=1e-12)
        assert q_function(1.0) == pytest.approx(0.1586553, abs=1e-7)
        assert q_function(-2.0) == pytest.approx(1.0 - q_function(2.0), abs=1e-14)


class TestConditionalError:
    def test_rate_equals_capacity(self):
        spec = CodingSpec(blocklength=250, code_size=2, rate=capacity_nats(1.0))
        assert conditional_error(1.0, spec) == pytest.approx(0.5, rel=1e-12)

    def test_worked_point(self):
        spec = CodingSpec(blocklength=100, code_size=2, rate=0.5)
        arg = (math.log(2) - 0.5) / math.sqrt(0.75 / 100)
        assert conditional_error(1.0, spec) == pytest.approx(
            q_series_oracle(arg), abs=1e-12
        )

    def test_zero_sinr_with_positive_rate(self):
        spec = CodingSpec(blocklength=100, code_size=2, rate=0.5)
        assert conditional_error(0.0, spec) == 1.0

    def test_array_with_zero_sinr_matches_scalars(self):
        spec = CodingSpec(blocklength=100, code_size=2, rate=0.5)
        gammas = np.array([0.0, 1.0, 0.0, 3.0, 1e-3])
        expected = [conditional_error(g, spec) for g in gammas]
        assert np.array_equal(conditional_error(gammas, spec), expected)
        assert conditional_error(np.zeros(3), spec).tolist() == [1.0, 1.0, 1.0]

    def test_zero_dispersion_corner(self):
        # 1 + gamma rounds to 1, so V = 0: the indicator on C vs R decides,
        # and C == R gives the midpoint instead of 0/0
        spec = CodingSpec(blocklength=64, code_size=2, rate=1e-17)
        errs = conditional_error(np.array([1e-17, 2e-17, 5e-18, 1.0]), spec)
        assert errs[:3].tolist() == [0.5, 0.0, 1.0]
        assert errs[3] == conditional_error(1.0, spec)

    def test_monotone_in_gamma_and_rate(self):
        spec = CodingSpec(blocklength=200, code_size=256)
        gammas = np.linspace(0.0, 5.0, 200)
        errs = conditional_error(gammas, spec)
        assert np.all(np.diff(errs) <= 1e-15)
        assert np.all((errs >= 0) & (errs <= 1))
        lo = CodingSpec(blocklength=200, code_size=2, rate=0.1)
        hi = CodingSpec(blocklength=200, code_size=2, rate=0.3)
        assert np.all(
            conditional_error(gammas, lo) <= conditional_error(gammas, hi) + 1e-15
        )

    def test_monotone_in_blocklength_below_capacity(self):
        gamma = 1.5
        rate = 0.5 * capacity_nats(gamma)
        errs = [
            conditional_error(gamma, CodingSpec(blocklength=n, code_size=2, rate=rate))
            for n in (50, 100, 200, 400, 800)
        ]
        assert all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))


def scenario_at(avg_snr_db: float, k: int, seed: int = 42) -> Scenario:
    return default_scenario(k=k, avg_snr_db=avg_snr_db, seed=seed)


class TestAverageError:
    def test_dead_channel_gives_one(self):
        p = ShadowedRicianParams(b=1e-12, m=1, omega=0.0)
        s = Scenario(
            satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=10.0),
            fading=p,
            interferers=InterfererField(count=0, r_inner_m=1.0, r_outer_m=2.0,
                                        carrier_hz=2e9),
            seed=1,
        )
        spec = CodingSpec(blocklength=100, code_size=256)
        res = average_error(s, spec, ErrorModel(method="monte_carlo",
                                                sample_budget=2000))
        assert res.value == 1.0

    @pytest.mark.parametrize("k,snr_db", [(0, 15.0), (1, 5.0), (4, 15.0)])
    def test_cross_method_agreement(self, k, snr_db):
        s = scenario_at(snr_db, k)
        spec = CodingSpec(blocklength=64, code_size=2 ** 32)
        quad = average_error(s, spec, ErrorModel(method="quadrature",
                                                 quad_tolerance=1e-7))
        mc = average_error(s, spec, ErrorModel(method="monte_carlo",
                                               sample_budget=100_000))
        assert mc.std_error is not None and mc.std_error > 0
        assert abs(quad.value - mc.value) <= 3 * mc.std_error

    def test_long_blocklength_limit(self):
        # strong line of sight: almost no mass where the rate beats capacity
        s = default_scenario(
            k=0, avg_snr_db=15.0, seed=2,
            fading=ShadowedRicianParams(b=0.01, m=20, omega=2.0),
        )
        spec = CodingSpec(blocklength=10 ** 6, code_size=2, rate=0.05)
        gam, wts = sinr_quadrature(s)
        below = wts[capacity_nats(gam) <= spec.rate].sum()
        assert below < 1e-6  # failure mass is negligible at this rate
        res = average_error(s, spec, ErrorModel(method="quadrature",
                                                quad_tolerance=1e-7))
        assert res.value <= 1e-3

    def test_monte_carlo_reports_standard_error(self):
        s = scenario_at(15.0, 1)
        spec = CodingSpec(blocklength=64, code_size=2 ** 32)
        res = average_error(s, spec, ErrorModel(method="monte_carlo",
                                                sample_budget=5000))
        assert res.method == "monte_carlo" and res.std_error > 0

    def test_model_validation(self):
        with pytest.raises(DomainError):
            ErrorModel(method="monte_carlo", sample_budget=10)
        with pytest.raises(DomainError):
            ErrorModel(quad_tolerance=0.5)
        with pytest.raises(DomainError):
            ErrorModel(method="bogus")


class TestGallagerE0:
    def test_zero_rho(self):
        assert gallager_e0_samples(0.0, [1.0, 2.0], 100) == 0.0

    def test_point_mass_collapse(self):
        # expectation collapses for a deterministic SINR
        for rho in (0.25, 0.5, 1.0):
            expected = rho * math.log(1.0 + 1.0 / (1.0 + rho))
            assert gallager_e0_samples(rho, [1.0], 500) == pytest.approx(
                expected, rel=1e-12
            )

    def test_large_n_no_underflow(self):
        val = gallager_e0_samples(1.0, [0.01, 5.0], 10 ** 7)
        assert math.isfinite(val) and val > 0

    def test_against_extended_precision_monte_carlo(self):
        s = scenario_at(15.0, 1)
        rho, n = 0.5, 200
        e0 = gallager_e0(rho, s, n, ErrorModel(method="quadrature",
                                               quad_tolerance=1e-9))
        draws = np.concatenate([
            np.asarray(sinr_samples(s, 100_000, stream_index=i), dtype=np.longdouble)
            for i in range(10)
        ])
        vals = (1.0 + draws / (1.0 + rho)) ** (-n * rho)
        mean = vals.mean()
        se = float(vals.std(ddof=1) / math.sqrt(vals.size))
        mc_e0 = -float(np.log(mean)) / n
        # translate the 3-SE band on the inner mean into an E0 band
        lo = -float(np.log(mean + 3 * se)) / n
        hi = -float(np.log(mean - 3 * se)) / n
        assert lo <= e0 <= hi

    def test_quadrature_grid_concave_nondecreasing(self):
        s = scenario_at(15.0, 1)
        em = ErrorModel(method="quadrature", quad_tolerance=1e-9)
        gam, wts = sinr_quadrature(s)
        rhos = np.linspace(0.0, 1.0, 21)
        e0 = np.array([gallager_e0_samples(r, gam, 300, wts) for r in rhos])
        d1 = np.diff(e0)
        d2 = np.diff(e0, 2)
        assert np.all(d1 >= -1e-8)
        assert np.all(d2 <= 1e-8)


class TestErrorExponent:
    def test_point_mass_rate_above_capacity(self):
        theta, rho = error_exponent_samples(np.array([1.0]), capacity_nats(1.0), 500)
        assert theta == 0.0 and rho == 0.0

    def test_point_mass_against_grid_oracle(self):
        rate, n = 0.2, 500
        theta, rho_star = error_exponent_samples(np.array([1.0]), rate, n)
        rhos = np.linspace(0.0, 1.0, 10_001)
        vals = rhos * np.log1p(1.0 / (1.0 + rhos)) - rhos * rate
        oracle = float(np.max(vals))
        assert theta == pytest.approx(oracle, abs=1e-9)
        assert theta == pytest.approx(math.log(1.5) - 0.2, abs=1e-9)
        assert rho_star == pytest.approx(1.0, abs=1e-5)

    def test_nonincreasing_in_rate(self):
        s = scenario_at(15.0, 1)
        em = ErrorModel(method="quadrature", quad_tolerance=1e-8)
        thetas = []
        for rate in (0.1, 0.2, 0.4, 0.8):
            spec = CodingSpec(blocklength=200, code_size=2, rate=rate)
            thetas.append(error_exponent(s, spec, em).theta)
        assert all(thetas[i + 1] <= thetas[i] + 1e-12 for i in range(len(thetas) - 1))

    def test_exponent_dominates_point_mass_error_within_factor_ten(self):
        # Chernoff-style decay vs the normal approximation at half capacity
        gamma = 1.0
        rate = 0.5 * capacity_nats(gamma)
        for n in (200, 500, 1000):
            theta, _ = error_exponent_samples(np.array([gamma]), rate, n)
            spec = CodingSpec(blocklength=n, code_size=2, rate=rate)
            eps = conditional_error(gamma, spec)
            bound = math.exp(-n * theta)
            assert eps <= bound <= 10.0 * eps


def interference_moments(c, r_max):
    """Raw moments of sum_j c_j E_j, E_j ~ Exp(1), from its cumulants.

    kappa_r = (r-1)! sum_j c_j^r and m_r = sum_i C(r-1, i-1) kappa_i m_{r-i}.
    """
    kappa = [0.0] + [math.factorial(r - 1) * float(np.sum(c ** r))
                     for r in range(1, r_max + 1)]
    m = [1.0]
    for r in range(1, r_max + 1):
        m.append(sum(math.comb(r - 1, i - 1) * kappa[i] * m[r - i]
                     for i in range(1, r + 1)))
    return m


class TestInterferenceRule:
    @pytest.mark.parametrize("k", [2, 5, 7, 10])
    @pytest.mark.parametrize("seed", [1, 2, 3, 101, 12345])
    def test_against_closed_form_law(self, k, seed):
        field = default_scenario(k, seed=seed).placed().interferers
        c = field.coefficients()
        i_a, iw = _interference_nodes(field)
        assert np.all(i_a >= 0) and np.all(iw > 0)
        assert abs(iw.sum() - 1.0) <= 1e-13
        for r, moment in enumerate(interference_moments(c, 12)):
            assert np.sum(iw * i_a ** r) == pytest.approx(moment, rel=1e-11)
        for s_mean in (0.1, 1.0):
            s = s_mean / c.sum()
            laplace = float(np.prod(1.0 / (1.0 + s * c)))
            assert np.sum(iw * np.exp(-s * i_a)) == pytest.approx(laplace, rel=1e-12)

    def test_k0_and_k1_are_the_plain_rules(self):
        i_a, iw = _interference_nodes(default_scenario(0, seed=1).placed().interferers)
        assert np.array_equal(i_a, np.zeros(1)) and np.array_equal(iw, np.ones(1))
        field = default_scenario(1, seed=1).placed().interferers
        x, w = laggauss(32)
        i_a, iw = _interference_nodes(field)
        assert np.array_equal(i_a, field.coefficients()[0] * x)
        assert np.array_equal(iw, w)


def theorem_example_scenario() -> Scenario:
    return Scenario(
        satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=10.0),
        fading=ShadowedRicianParams(b=0.126, m=10, omega=0.835),
        interferers=InterfererField(count=1, r_inner_m=2e3, r_outer_m=1e4,
                                    carrier_hz=2e9, tx_snr_db=0.0),
        rx_antennas=2,
        seed=0,
    )


class TestClosedForm:
    def test_zero_when_rate_hits_log_ratio(self):
        s = theorem_example_scenario()
        log_ratio = math.log((2 * 10 * 2 + 2 * 2 * 1 + 1) / (2 * 2 * 1 + 1))
        spec = CodingSpec(blocklength=100, code_size=2, rate=log_ratio)
        assert error_exponent_closed_form(s, spec).theta == 0.0

    def test_reference_point(self):
        s = theorem_example_scenario()
        spec = CodingSpec(blocklength=100, code_size=2, rate=1.0)
        # independent high-precision evaluation of the same link budget
        num = (math.log(45.0 / 5.0) - 1.0) ** 2
        den = 4.0 - 2.0 * 5.0 / 45.0
        assert error_exponent_closed_form(s, spec).theta == pytest.approx(
            num / den, rel=1e-14
        )
        assert error_exponent_closed_form(s, spec).theta == pytest.approx(
            0.37942, abs=1e-4
        )

    def test_strictly_increasing_in_satellite_snr(self):
        spec = CodingSpec(blocklength=100, code_size=2, rate=1.0)
        thetas = []
        for p_s_db in (8.0, 10.0, 12.0, 14.0):
            s = Scenario(
                satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=p_s_db),
                fading=ShadowedRicianParams(b=0.126, m=10, omega=0.835),
                interferers=InterfererField(count=1, r_inner_m=2e3, r_outer_m=1e4,
                                            carrier_hz=2e9, tx_snr_db=0.0),
                rx_antennas=2,
                seed=0,
            )
            thetas.append(error_exponent_closed_form(s, spec).theta)
        assert all(thetas[i + 1] > thetas[i] for i in range(len(thetas) - 1))

    def test_decreasing_in_rate(self):
        s = theorem_example_scenario()
        thetas = [
            error_exponent_closed_form(
                s, CodingSpec(blocklength=100, code_size=2, rate=r)
            ).theta
            for r in (0.5, 1.0, 1.5, 2.0)
        ]
        assert all(thetas[i + 1] < thetas[i] for i in range(len(thetas) - 1))

    def test_trend_agreement_with_numeric(self):
        # both exponents move the same way in rate and in satellite SNR
        em = ErrorModel(method="quadrature", quad_tolerance=1e-8)
        numeric_by_rate, closed_by_rate = [], []
        s = scenario_at(15.0, 1)
        for rate in (0.2, 0.5):
            spec = CodingSpec(blocklength=200, code_size=2, rate=rate)
            numeric_by_rate.append(error_exponent(s, spec, em).theta)
            closed_by_rate.append(error_exponent_closed_form(s, spec).theta)
        assert numeric_by_rate[1] <= numeric_by_rate[0]
        assert closed_by_rate[1] <= closed_by_rate[0]
        spec = CodingSpec(blocklength=200, code_size=2, rate=0.2)
        numeric_by_snr = [
            error_exponent(scenario_at(snr, 1), spec, em).theta for snr in (10.0, 20.0)
        ]
        closed_by_snr = [
            error_exponent_closed_form(scenario_at(snr, 1), spec).theta
            for snr in (10.0, 20.0)
        ]
        assert numeric_by_snr[1] >= numeric_by_snr[0]
        assert closed_by_snr[1] >= closed_by_snr[0]
