"""Finite-blocklength error and exponent tests."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial.laguerre import laggauss

from stinqos import channel, fbc
from stinqos.channel import (
    InterfererField,
    LinkBudget,
    Scenario,
    ShadowedRicianParams,
)
from stinqos.errors import DomainError
from stinqos.experiments import SweepSpec, default_scenario, run_fig5
from stinqos.fbc import (
    _interference_nodes,
    CodingSpec,
    ErrorModel,
    average_error,
    conditional_error,
    error_exponent,
    error_exponent_closed_form,
    error_exponent_samples,
    gallager_e0_samples,
    q_function,
    sinr_quadrature,
    sinr_samples,
)
from trace_helper import block_mean, traced_peak


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
        # the error is 1/2 where the rate equals the capacity ln(1 + gamma)
        for gamma, rate in ((math.e - 1, 1.0), (1.0, math.log(2))):
            spec = CodingSpec(blocklength=250, code_size=2, rate=rate)
            assert conditional_error(gamma, spec) == pytest.approx(0.5, rel=1e-12)

    def test_dispersion(self):
        # one dispersion sqrt(V / n) below capacity the error is Q(1), with
        # V = 1 - (1 + gamma)^-2: 0.75 at gamma = 1, about 1 at gamma = 1e12
        n = 300
        for gamma, v in ((1.0, 0.75), (1e12, 1.0)):
            rate = math.log1p(gamma) - math.sqrt(v / n)
            spec = CodingSpec(blocklength=n, code_size=2, rate=rate)
            assert conditional_error(gamma, spec) == pytest.approx(
                q_series_oracle(1.0), abs=1e-12)

    def test_q_function(self):
        assert q_function(0.0) == 0.5
        assert q_function(40.0) == 0.0
        assert q_function(1.0) == pytest.approx(q_series_oracle(1.0), abs=1e-12)
        assert q_function(1.0) == pytest.approx(0.1586553, abs=1e-7)
        assert q_function(-2.0) == pytest.approx(1.0 - q_function(2.0), abs=1e-14)


class TestConditionalError:
    def test_rate_equals_capacity(self):
        spec = CodingSpec(blocklength=250, code_size=2, rate=math.log1p(1.0))
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
        rate = 0.5 * math.log1p(gamma)
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
        below = wts[np.log1p(gam) <= spec.rate].sum()
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


def unblocked_channel_gain(p: ShadowedRicianParams, rng, size=None):
    """sample_channel_gain as one whole-array draw: the oracle of the blocks."""
    a = (np.sqrt(rng.gamma(shape=p.m, scale=p.omega / p.m, size=size))
         if p.omega > 0 else np.zeros(size if size is not None else ()))
    phi = rng.uniform(0.0, 2.0 * np.pi, size=size)
    sd = math.sqrt(p.b)
    re = a * np.cos(phi) + rng.normal(0.0, sd, size=size)
    im = a * np.sin(phi) + rng.normal(0.0, sd, size=size)
    gain = re * re + im * im
    return float(gain) if size is None else gain


def unblocked_sinr_samples(s: Scenario, n_draws: int) -> np.ndarray:
    """sinr_samples with the whole (n_draws, K) gain matrix and one ``@``."""
    rng = s.rng(channel.STREAM_CHANNEL, 0)
    h = unblocked_channel_gain(s.fading, rng, size=n_draws)
    k = s.interferers.count
    if k:
        gains = rng.exponential(1.0, size=(n_draws, k))
        i_a = gains @ s.interferer_coefficients
    else:
        i_a = np.zeros(n_draws)
    return s.satellite_coefficient * h / (i_a + 1.0)


BLOCK = channel._BLOCK_ROWS
MC_SPEC = CodingSpec(blocklength=128, code_size=2 ** 192)


def fading_scenario(k: int, m: float) -> Scenario:
    return default_scenario(k=k, seed=7,
                            fading=ShadowedRicianParams(b=0.126, m=m, omega=0.835))


class TestBlockedMonteCarlo:
    """The Monte Carlo SINR path runs in blocks of rows and gives the bits of
    the whole-array formulas."""

    @pytest.mark.parametrize("size", [None, (3, 5), 1000, 3 * BLOCK + 17])
    @pytest.mark.parametrize("p", [ShadowedRicianParams(0.126, 10, 0.835),
                                   ShadowedRicianParams(0.063, 2.5, 0.000897),
                                   ShadowedRicianParams(0.4, 1, 0.0)])
    def test_channel_gain_draws(self, p, size):
        rng, ref_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = channel.sample_channel_gain(p, rng, size=size)
        want = unblocked_channel_gain(p, ref_rng, size=size)
        if size is None:
            assert isinstance(got, float) and got == want
        else:
            assert got.shape == want.shape and np.array_equal(got, want)
        assert rng.random() == ref_rng.random()  # same draws consumed

    @pytest.mark.parametrize("n", [1000, BLOCK, 3 * BLOCK + 17])
    @pytest.mark.parametrize("m", [10, 10.5])
    @pytest.mark.parametrize("k", [0, 1, 3, 8, 10])
    def test_sinr_and_average_error(self, k, m, n):
        s = fading_scenario(k, m)
        gam = unblocked_sinr_samples(s, n)
        assert np.array_equal(sinr_samples(s, n), gam)
        errs = conditional_error(gam, MC_SPEC)
        res = average_error(s, MC_SPEC, ErrorModel("monte_carlo", sample_budget=n))
        std_error = float(np.std(errs, ddof=1) / math.sqrt(n))
        if n <= BLOCK:  # one block: np.mean and np.std bit for bit
            assert res.value == float(np.mean(errs))
            assert res.std_error == std_error
        else:  # a sum of block sums; squared deviations merged across blocks
            assert res.value == block_mean(errs, BLOCK)
            assert res.std_error == pytest.approx(std_error, rel=1e-12)

    def test_memory_does_not_grow_with_budget(self):
        # one block of draws at any sample_budget; at K interferers the block
        # of their gains, 8 * K B per row, is the only part that grows
        def peak(s, n):
            return traced_peak(average_error, s, MC_SPEC,
                               ErrorModel("monte_carlo", sample_budget=n))

        peaks = {}
        for k in (0, 10):
            s = fading_scenario(k, 10)
            peak(s, 1000)  # fills caches
            peaks[k] = [peak(s, n) for n in (200_000, 800_000)]
            assert abs(peaks[k][1] - peaks[k][0]) < 8 * BLOCK, peaks
        assert max(peaks[10]) - max(peaks[0]) <= 8 * BLOCK * 10, peaks


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
        gam, wts = sinr_quadrature(s, n_panels=192)
        e0 = gallager_e0_samples(rho, gam, n, wts)
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
        theta, rho = error_exponent_samples(np.array([1.0]), math.log1p(1.0), 500)
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

    # The search has no guard grid, so E0 must be concave in rho wherever it
    # runs: K 0..10, integer and non-integer m, 0..30 dB, n 1..2000, and both
    # laws. Rates run from 5 % to 120 % of E0'(0) = E[ln(1 + gamma)].
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10),
           st.one_of(st.integers(2, 12).map(float), st.floats(2.0, 12.0)),
           st.floats(0.0, 30.0), st.integers(1, 2000),
           st.sampled_from(["quadrature", "monte_carlo"]), st.floats(0.05, 1.2))
    def test_concave_e0_and_supremum_beats_grid(self, k, m, snr_db, n, method, frac):
        fading = ShadowedRicianParams(b=0.126, m=m, omega=0.835)
        s = default_scenario(k=k, avg_snr_db=snr_db, seed=7, fading=fading)
        if method == "quadrature":
            gam, wts = sinr_quadrature(s)
        else:
            gam, wts = sinr_samples(s, 20_000), None
        rhos = np.linspace(0.0, 1.0, 201)
        e0 = np.array([gallager_e0_samples(r, gam, n, wts) for r in rhos])
        assert np.all(np.diff(e0, 2) <= 1e-12 * np.max(np.abs(e0)))
        rate = frac * float(np.average(np.log1p(gam), weights=wts))
        theta, rho_star = error_exponent_samples(gam, rate, n, wts)
        assert theta >= np.max(e0 - rhos * rate) - 1e-9
        assert 0.0 <= rho_star <= 1.0

    def test_exponent_dominates_point_mass_error_within_factor_ten(self):
        # Chernoff-style decay vs the normal approximation at half capacity
        gamma = 1.0
        rate = 0.5 * math.log1p(gamma)
        for n in (200, 500, 1000):
            theta, _ = error_exponent_samples(np.array([gamma]), rate, n)
            spec = CodingSpec(blocklength=n, code_size=2, rate=rate)
            eps = conditional_error(gamma, spec)
            bound = math.exp(-n * theta)
            assert eps <= bound <= 10.0 * eps


class TestExponentSearchCost:
    def test_fig5_e0_calls_per_blocklength(self, monkeypatch):
        # golden section alone takes 32 evaluations of E0 over [0, 1] at its
        # 1e-6 tolerance, one more at rho = 1 and one for the 192-panel drift
        # check; a guard grid would add 64
        calls = []
        e0 = fbc.gallager_e0_samples

        def counting(rho, gammas, n, weights=None):
            calls.append(n)
            return e0(rho, gammas, n, weights)

        monkeypatch.setattr(fbc, "gallager_e0_samples", counting)
        n_grid = (100, 500, 2000)
        run_fig5(SweepSpec(figure="fig5", n_grid=n_grid, seed=1))
        assert sorted(set(calls)) == list(n_grid)
        assert max(calls.count(n) for n in n_grid) <= 40


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
        c = default_scenario(k, seed=seed).interferer_coefficients
        i_a, iw = _interference_nodes(c)
        assert np.all(i_a >= 0) and np.all(iw > 0)
        assert abs(iw.sum() - 1.0) <= 1e-13
        for r, moment in enumerate(interference_moments(c, 12)):
            assert np.sum(iw * i_a ** r) == pytest.approx(moment, rel=1e-11)
        for s_mean in (0.1, 1.0):
            s = s_mean / c.sum()
            laplace = float(np.prod(1.0 / (1.0 + s * c)))
            assert np.sum(iw * np.exp(-s * i_a)) == pytest.approx(laplace, rel=1e-12)

    def test_built_once_per_job(self, monkeypatch):
        # average_error tries several panel counts and error_exponent two;
        # the interference rule does not depend on them
        builds = []

        def counting(coefficients):
            builds.append(coefficients)
            return _interference_nodes(coefficients)

        monkeypatch.setattr(fbc, "_interference_nodes", counting)
        s, spec = default_scenario(5, seed=1), CodingSpec(blocklength=64, code_size=256)
        for job in (average_error, error_exponent):
            builds.clear()
            job(s, spec, ErrorModel(method="quadrature"))
            assert len(builds) == 1, job.__name__

    def test_k0_and_k1_are_the_plain_rules(self):
        i_a, iw = _interference_nodes(default_scenario(0, seed=1).interferer_coefficients)
        assert np.array_equal(i_a, np.zeros(1)) and np.array_equal(iw, np.ones(1))
        c = default_scenario(1, seed=1).interferer_coefficients
        x, w = laggauss(32)
        i_a, iw = _interference_nodes(c)
        assert np.array_equal(i_a, c[0] * x)
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
