"""Channel model tests: density, special function, sampling, geometry."""
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from stinqos import channel
from stinqos.channel import (
    InterfererField,
    LinkBudget,
    MAX_INTERFERERS,
    Scenario,
    ShadowedRicianParams,
    SPEED_OF_LIGHT,
    STREAM_PLACEMENT,
    log_hyp1f1_integer,
    pathloss_factor,
    place_interferers,
    shadowed_rician_pdf,
    sinr,
    srician_quad_nodes,
)
from stinqos.errors import DomainError, NumericError
from stinqos.experiments import default_scenario

import oracles


def hyp1f1_series_oracle(m: float, z: float, terms: int = 200) -> float:
    """Raw power series sum_k (m)_k z^k / (k!)^2, truncated at `terms`."""
    total = 0.0
    term = 1.0
    for k in range(terms):
        total += term
        term *= (m + k) * z / ((k + 1) ** 2)
    return total


class TestHyp1f1:
    def test_zero_argument(self):
        assert np.exp(log_hyp1f1_integer(3, 0.0)) == 1.0

    def test_m1_is_exp(self):
        assert np.exp(log_hyp1f1_integer(1, 2.0)) == pytest.approx(math.e ** 2,
                                                                   rel=1e-14)

    def test_m2_against_series_oracle(self):
        assert np.exp(log_hyp1f1_integer(2, 1.0)) == pytest.approx(
            hyp1f1_series_oracle(2, 1.0), rel=1e-13
        )
        assert np.exp(log_hyp1f1_integer(2, 1.0)) == pytest.approx(2 * math.e, rel=1e-13)

    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20])
    @pytest.mark.parametrize("z", [0.3, 1.7, 9.2])
    def test_integer_m_grid_against_series(self, m, z):
        assert np.exp(log_hyp1f1_integer(m, z)) == pytest.approx(
            hyp1f1_series_oracle(m, z, terms=400), rel=1e-12
        )

    def test_non_integer_fallback(self):
        assert np.exp(log_hyp1f1_integer(2.5, 1.3)) == pytest.approx(
            hyp1f1_series_oracle(2.5, 1.3), rel=1e-12
        )

    # m of the acceptance fading grid, then non-integer m (Kummer transform)
    @pytest.mark.parametrize("m", [1, 2, 5, 10, 20, 0.5, 2.5, 10.5, 19.4])
    def test_log_against_mpmath(self, m):
        z = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 41)])
        got = log_hyp1f1_integer(m, z)
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.log(mpmath.hyp1f1(m, 1, zi))) for zi in z])
        assert np.all(np.abs(got - ref) <= 1e-14 * np.maximum(1.0, np.abs(ref)))

    def test_non_integer_overflow_raises(self):
        with pytest.raises(NumericError):
            log_hyp1f1_integer(250.5, 1e5)

    def test_vectorized(self):
        z = np.array([0.0, 1.0, 2.0])
        out = np.exp(log_hyp1f1_integer(2, z))
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestShadowedRicianPdf:
    def test_value_at_zero_is_alpha(self):
        p = ShadowedRicianParams(b=0.3, m=4, omega=1.2)
        alpha = math.exp(p.log_alpha)
        assert shadowed_rician_pdf(0.0, p) == pytest.approx(alpha, rel=1e-14)

    def test_exponential_special_case_normalizes(self):
        p = ShadowedRicianParams(b=0.5, m=1, omega=1.0)
        val, err = quad(lambda x: shadowed_rician_pdf(x, p), 0, np.inf)
        assert abs(val - 1.0) < 1e-6
        # m=1 collapses to an exponential with mean omega + 2b
        x = np.linspace(0.0, 10.0, 50)
        expected = np.exp(-x / 2.0) / 2.0
        assert np.allclose(shadowed_rician_pdf(x, p), expected, rtol=1e-12)

    def test_series_oracle_point(self):
        p = ShadowedRicianParams(b=0.126, m=10, omega=0.835)
        expected = math.exp(p.log_alpha) * math.exp(-p.beta * 1.0) * hyp1f1_series_oracle(
            10, p.delta * 1.0
        )
        assert shadowed_rician_pdf(1.0, p) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", range(1, 21))
    def test_normalization_grid(self, m):
        p = ShadowedRicianParams(b=0.25, m=m, omega=0.9)
        val, err = quad(lambda x: shadowed_rician_pdf(x, p), 0, np.inf, limit=200)
        assert abs(val - 1.0) < 1e-6

    @pytest.mark.parametrize("b,omega", [(0.126, 0.835), (0.5, 2.0)])
    @pytest.mark.parametrize("m", [1, 5, 20])
    def test_normalization_over_power_grid(self, b, omega, m):
        p = ShadowedRicianParams(b=b, m=m, omega=omega)
        val, err = quad(lambda x: shadowed_rician_pdf(x, p), 0, np.inf, limit=200)
        assert abs(val - 1.0) < 1e-6

    @pytest.mark.parametrize("m", [0.5, 2, 10, 10.5, 1e4, 1e6, 1e12, 1e12 + 0.5])
    def test_log_alpha_against_mpmath(self, m):
        p = ShadowedRicianParams(b=0.126, m=m, omega=0.835)
        assert abs(p.log_alpha - oracles.shadowed_rician_log_alpha(0.126, m, 0.835)) <= 1e-15

    # the default law, non-integer m, Rayleigh-like m = 1, strong LOS with
    # weak scatter, and m far past any small-integer range
    @pytest.mark.parametrize("b, m, omega", [
        (0.126, 10, 0.835), (0.126, 10.5, 0.835), (0.25, 2, 0.5), (0.126, 1, 0.835),
        (1e-3, 50, 1.0), (0.05, 3.5, 2.0), (0.126, 1e4, 0.835), (0.126, 1e6, 0.835)])
    def test_against_mpmath_oracle(self, b, m, omega):
        p = ShadowedRicianParams(b=b, m=m, omega=omega)
        x_max = channel._support_cut(p)
        x = np.concatenate([[0.0], np.geomspace(x_max * 1e-12, x_max, 40)])
        ref = np.array([oracles.shadowed_rician_pdf(xi, b, m, omega) for xi in x])
        assert np.all(np.abs(shadowed_rician_pdf(x, p) - ref) <= 2e-13 * ref)

    def test_derived_parameter_domains(self):
        p = ShadowedRicianParams(b=0.126, m=10, omega=0.835)
        assert math.exp(p.log_alpha) > 0 and p.beta > 0 and 0 <= p.delta < p.beta

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            ShadowedRicianParams(b=0.0, m=1, omega=1.0)
        with pytest.raises(DomainError):
            ShadowedRicianParams(b=0.5, m=0.3, omega=1.0)
        with pytest.raises(DomainError):
            ShadowedRicianParams(b=0.5, m=1, omega=-0.1)

    def test_refuses_negative_gain(self):
        p = ShadowedRicianParams(b=0.126, m=10, omega=0.835)
        with pytest.raises(DomainError, match="^channel power gain must be >= 0$"):
            shadowed_rician_pdf([1.0, -1e-300], p)


class TestSampling:
    def test_no_los_is_exponential(self):
        p = ShadowedRicianParams(b=0.4, m=1, omega=0.0)
        rng = np.random.default_rng(3)
        g = oracles.unblocked_channel_gain(p, rng, size=200_000)
        assert np.mean(g) == pytest.approx(2 * 0.4, rel=0.01)
        # exponential second moment: E X^2 = 2 (E X)^2
        assert np.mean(g ** 2) == pytest.approx(2 * (2 * 0.4) ** 2, rel=0.03)

    def test_mean_identity(self):
        p = ShadowedRicianParams(b=0.126, m=10, omega=0.835)
        rng = np.random.default_rng(11)
        g = oracles.unblocked_channel_gain(p, rng, size=1_000_000)
        assert np.mean(g) == pytest.approx(p.mean_power, rel=0.01)

    def test_ks_distance_against_quadrature_cdf(self):
        p = ShadowedRicianParams(b=0.126, m=10, omega=0.835)
        rng = np.random.default_rng(5)
        n = 100_000
        g = np.sort(oracles.unblocked_channel_gain(p, rng, size=n))
        edges, cdf_grid = oracles.srician_cdf_grid(p)
        cdf = np.interp(g, edges, cdf_grid, left=0.0, right=1.0)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - steps + 1.0 / n)))
        assert ks < 0.01


class TestQuadratureNodes:
    def test_mass_and_mean(self):
        p = ShadowedRicianParams(b=0.1, m=5, omega=2.0)
        x, w = srician_quad_nodes(p, 144)
        assert abs(np.sum(w) - 1.0) < 1e-9
        assert np.sum(w * x) == pytest.approx(p.mean_power, rel=1e-9)


class TestPathloss:
    def test_unit_free_space(self):
        # pick d so the free-space ratio is exactly 1
        f = 1.0e9
        d = SPEED_OF_LIGHT / (4 * math.pi * f)
        l = LinkBudget(carrier_hz=f, distance_m=d)
        assert pathloss_factor(l) == pytest.approx(1.0, rel=1e-12)

    def test_inverse_square(self):
        l1 = LinkBudget(carrier_hz=2e9, distance_m=1000.0)
        l2 = LinkBudget(carrier_hz=2e9, distance_m=2000.0)
        assert pathloss_factor(l1) == pytest.approx(4 * pathloss_factor(l2), rel=1e-12)

    def test_reference_value(self):
        l = LinkBudget(carrier_hz=2e9, distance_m=1e6)
        expected = (SPEED_OF_LIGHT / (4 * math.pi * 2e9 * 1e6)) ** 2
        assert pathloss_factor(l) == pytest.approx(expected, rel=1e-14)
        assert pathloss_factor(l) == pytest.approx(1.425e-16, rel=1e-3)

    def test_scale_law(self):
        for d in (1e3, 5e4, 2e6):
            l = LinkBudget(carrier_hz=2e9, distance_m=d, gain_tx_dbi=7.0)
            assert pathloss_factor(l) * d ** 2 == pytest.approx(
                pathloss_factor(LinkBudget(carrier_hz=2e9, distance_m=1.0,
                                           gain_tx_dbi=7.0)),
                rel=1e-12,
            )

    def test_invalid(self):
        with pytest.raises(DomainError):
            LinkBudget(carrier_hz=0.0, distance_m=1.0)
        with pytest.raises(DomainError):
            LinkBudget(carrier_hz=1e9, distance_m=0.0)

    @pytest.mark.parametrize("db", [4000, 3090.0, np.float64(4000.0), math.inf])
    def test_db_overflow_is_domain_error(self, db):
        with pytest.raises(DomainError, match=f"{db} dB"):
            LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=db).tx_snr

    def test_db_conversion_near_float_max(self):
        assert LinkBudget(carrier_hz=2e9, distance_m=1e6,
                          tx_snr_db=3080.0).tx_snr == 10.0 ** 308.0


def _field(count=3, tx_snr_db=0.0):
    return InterfererField(
        count=count, r_inner_m=2000.0, r_outer_m=10000.0,
        carrier_hz=2e9, tx_snr_db=tx_snr_db,
    )


class TestPlacement:
    def test_empty(self):
        assert len(place_interferers(_field(0), np.random.default_rng(0))) == 0

    def test_support(self):
        d = place_interferers(_field(500), np.random.default_rng(1))
        assert np.all(d >= 2000.0) and np.all(d <= 10000.0)

    def test_area_uniform_moment(self):
        # 10^6 placements from one stream, in fields of at most the cap
        rng = np.random.default_rng(2)
        field = InterfererField(count=1000, r_inner_m=2e3, r_outer_m=1e4,
                                carrier_hz=2e9)
        d = np.concatenate([place_interferers(field, rng) for _ in range(1000)])
        expected = (2e3 ** 2 + 1e4 ** 2) / 2
        assert np.mean(d ** 2) == pytest.approx(expected, rel=0.005)

    def test_count_cap(self):
        assert _field(MAX_INTERFERERS).count == MAX_INTERFERERS
        with pytest.raises(DomainError, match=f"cap of {MAX_INTERFERERS}"):
            _field(MAX_INTERFERERS + 1)

    def test_bad_radii(self):
        with pytest.raises(DomainError):
            InterfererField(count=1, r_inner_m=5e3, r_outer_m=2e3, carrier_hz=2e9)


class TestAggregateInterference:
    def test_empty_field(self):
        assert np.zeros(0) @ _field(0).coefficients(np.zeros(0)) == 0.0

    def test_single_term(self):
        # make phi = 1 by choosing the unit free-space distance, P_t/sigma^2 = 2
        d_unit = SPEED_OF_LIGHT / (4 * math.pi * 2e9)
        f = InterfererField(count=1, r_inner_m=d_unit / 2, r_outer_m=2 * d_unit,
                            carrier_hz=2e9, tx_snr_db=10 * math.log10(2.0))
        c = f.coefficients(np.array([d_unit]))
        assert np.array([0.5]) @ c == pytest.approx(1.0, rel=1e-12)

    def test_monte_carlo_mean(self):
        f = _field(4)
        c = f.coefficients(place_interferers(f, np.random.default_rng(3)))
        rng = np.random.default_rng(4)
        gains = rng.exponential(1.0, size=(100_000, 4))
        values = gains @ c
        assert np.mean(values) == pytest.approx(np.sum(c), rel=0.01)


class TestInterfererCoefficients:
    @pytest.mark.parametrize("k", range(11))
    def test_equal_to_per_distance_pathloss(self, k):
        s = default_scenario(k=k, seed=k)
        f = replace(_field(k, tx_snr_db=97.3), gain_tx_dbi=3.0, gain_rx_dbi=-1.5)
        cases = [
            (s.interferers, place_interferers(s.interferers, s.rng(STREAM_PLACEMENT)),
             s.interferer_coefficients),
            (f, place_interferers(f, np.random.default_rng(k)), None),
        ]
        for f, d, got in cases:
            want = np.array([pathloss_factor(LinkBudget(
                carrier_hz=f.carrier_hz, distance_m=x, gain_tx_dbi=f.gain_tx_dbi,
                gain_rx_dbi=f.gain_rx_dbi)) for x in d])
            got = f.coefficients(d) if got is None else got
            assert got.shape == (k,) and np.array_equal(got, want * f.tx_snr)


def _scenario(tx_snr_db=10.0, seed=7):
    return Scenario(
        satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=tx_snr_db),
        fading=ShadowedRicianParams(b=0.126, m=10, omega=0.835),
        interferers=_field(1),
        rx_antennas=2,
        seed=seed,
    )


class TestSinr:
    def test_no_interference(self):
        s = _scenario()
        expected = s.satellite_coefficient * 2.0
        assert sinr(s, 2.0, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_gain(self):
        assert sinr(_scenario(), 0.0, 3.0) == 0.0

    def test_ratio(self):
        s = _scenario()
        assert sinr(s, 1.0, 4.0) == pytest.approx(s.satellite_coefficient / 5.0, rel=1e-12)

    def test_monotonicity_property(self):
        s = _scenario()
        rng = np.random.default_rng(8)
        for _ in range(200):
            h, ia = rng.exponential(1.0), rng.exponential(1.0)
            dh, dia = rng.exponential(0.5), rng.exponential(0.5)
            assert sinr(s, h + dh, ia) > sinr(s, h, ia)
            assert sinr(s, h, ia + dia) < sinr(s, h, ia)

    def test_placement_is_frozen_per_seed(self):
        f = _field(4)
        rayleigh = ShadowedRicianParams(b=0.5, m=1.0, omega=0.0)
        s1 = Scenario(satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6),
                      fading=rayleigh, interferers=f, seed=9)
        s2 = Scenario(satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6),
                      fading=rayleigh, interferers=f, seed=9)
        np.testing.assert_array_equal(
            s1.interferer_coefficients, s2.interferer_coefficients
        )

    @pytest.mark.parametrize("h_gain, i_a", [(-1.0, 0.0), (1.0, [0.0, -1e-300])])
    def test_refuses_negative_gain_or_interference(self, h_gain, i_a):
        with pytest.raises(DomainError, match="^h_gain and i_a must be >= 0$"):
            sinr(_scenario(), h_gain, i_a)

    # config refuses such a seed first, so no command reaches this refusal
    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_refuses_seed_outside_64_bits(self, seed):
        with pytest.raises(DomainError, match="^seed must be an unsigned 64-bit integer"):
            _scenario(seed=seed)
