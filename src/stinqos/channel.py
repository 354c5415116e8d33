"""Satellite downlink channel model.

Shadowed-Rician fading for the satellite link (Nakagami-distributed LOS
amplitude plus complex-Gaussian multipath), Rayleigh terrestrial interferers
placed uniformly by area in an annulus around the destination, free-space
pathloss, and the resulting SINR. Provides both density evaluation and
random sampling so that analytic and Monte Carlo pipelines can cross-check
each other.

All powers are carried noise-normalized (divided by the noise variance), so
the SINR denominator is ``interference + 1``.
"""
from __future__ import annotations

import copy
import itertools
import math
import sys
from dataclasses import dataclass, replace
from functools import cached_property

from ._startup import _special, np
from .errors import DomainError, NumericError

SPEED_OF_LIGHT = 3.0e8  # m/s, free-space value used throughout

# Deterministic sub-stream labels hung off a scenario's or a sweep's seed.
STREAM_PLACEMENT = 0
STREAM_CHANNEL = 1
STREAM_TRACE = 2
_STREAM_SWEEP_EPS = 10
_STREAM_SWEEP_TRACE = 11

# Interferers a scenario may hold, refused before placement draws anything:
# 100 times fig. 3's K = 10. A Monte Carlo block of their gains, 2^14 rows
# of K float64 values (125 MiB at the cap), is the largest allocation of
# the Monte Carlo paths, and the quadrature adds interferers one at a time.
MAX_INTERFERERS = 1000


# ---------------------------------------------------------------------------
# The confluent hypergeometric function 1F1(m; 1; z)
# ---------------------------------------------------------------------------

def log_hyp1f1_integer(m: float, z):
    """log of 1F1(m; 1; z) for every m > 0 and z >= 0, as z + log(1F1(1 - m;
    1; -z)) by Kummer's transformation, so large z does not overflow.

    Raises:
        NumericError: if that is not finite (roughly m >= 50 with z > 1e4).
    """
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = z + np.log(_special().hyp1f1(1.0 - m, 1.0, -z))
    if not np.all(np.isfinite(out)):
        raise NumericError(f"1F1(m={m}; 1; z) overflows for z up to {np.max(z):g}")
    return out


# ---------------------------------------------------------------------------
# Shadowed-Rician fading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShadowedRicianParams:
    """Shadowed-Rician fading parameters for the satellite link.

    Attributes:
        b: average multipath half-power (linear); the scattered component
            has per-dimension variance b.
        m: Nakagami shadowing parameter of the LOS amplitude, >= 0.5.
        omega: average LOS power (linear), >= 0.
    """

    b: float
    m: float
    omega: float

    def __post_init__(self):
        if not self.b > 0:
            raise DomainError(f"fading b must be > 0, got {self.b}")
        if not self.m >= 0.5:
            raise DomainError(f"fading m must be >= 0.5, got {self.m}")
        if self.omega < 0:
            raise DomainError(f"fading omega must be >= 0, got {self.omega}")

    @property
    def log_alpha(self) -> float:
        """log alpha, finite where alpha itself underflows (small b, large m)."""
        return (-self.m * math.log1p(self.omega / (2.0 * self.b * self.m))
                - math.log(2.0 * self.b))

    @property
    def beta(self) -> float:
        return 1.0 / (2.0 * self.b)

    @property
    def delta(self) -> float:
        two_bm = 2.0 * self.b * self.m
        return self.omega / (2.0 * self.b * (two_bm + self.omega))

    @property
    def mean_power(self) -> float:
        """E|h|^2 = omega + 2b."""
        return self.omega + 2.0 * self.b


def shadowed_rician_pdf(x, p: ShadowedRicianParams):
    """Density of the satellite channel power gain |h|^2.

    ``alpha * exp(-beta x) * 1F1(m; 1; delta x)``, evaluated in log domain
    so strong-LOS parameter sets do not overflow.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise DomainError("channel power gain must be >= 0")
    log_pdf = (
        p.log_alpha - p.beta * x + log_hyp1f1_integer(p.m, p.delta * x)
    )
    out = np.exp(log_pdf)
    return float(out) if out.ndim == 0 else out


_PANEL_NODES = 8  # Gauss-Legendre nodes per panel of every fading rule


def _support_cut(p: ShadowedRicianParams) -> float:
    """60 / (beta - delta), where the density envelope of decay rate
    beta - delta leaves less than ~1e-20 mass: the upper end of every
    tabulated fading rule. A rate that rounds to 0 is a NumericError."""
    decay = p.beta - p.delta
    if not decay > 60.0 / sys.float_info.max:
        raise NumericError(f"fading decay rate beta - delta = {decay:g} leaves "
                           f"no finite support to tabulate")
    return 60.0 / decay


def _panel_rule(p: ShadowedRicianParams, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and density weights, each of shape (panels, _PANEL_NODES), of
    the Gauss-Legendre rule on each panel between consecutive ``edges``;
    weights that do not sum to unit mass are a NumericError."""
    from numpy.polynomial.legendre import leggauss

    gl_x, gl_w = leggauss(_PANEL_NODES)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    x = mid[:, None] + half[:, None] * gl_x[None, :]
    w = (half[:, None] * gl_w[None, :]) * shadowed_rician_pdf(x, p)
    mass = float(np.sum(w))
    if not abs(mass - 1.0) <= 1e-7:
        raise NumericError(f"fading quadrature captured mass {mass:.12g}, expected 1",
                           achieved=abs(mass - 1.0))
    return x, w


def srician_quad_nodes(p: ShadowedRicianParams,
                       n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre panel rule for expectations against the fading density.

    Returns nodes x and weights w with ``sum(w_i g(x_i)) ~ E[g(|h|^2)]``.
    Panels are geometrically spaced over twelve decades below the support
    cut, so integrands with sharp features deep in the fade region (e.g.
    decoding-error sigmoids) stay resolved at any SNR scale.
    """
    x_max = _support_cut(p)
    x, w = _panel_rule(p, np.concatenate(
        [[0.0], np.geomspace(x_max * 1e-12, x_max, n_panels)]))
    return x.ravel(), w.ravel()


# Rows per block of the Monte Carlo SINR path. Blocks start at multiples of
# this power of two: drawn one after another they give the draws of one big
# draw, and a block's ``@`` adds in the order of the whole matrix's.
_BLOCK_ROWS = 1 << 14


def _joined(blocks, n: int) -> np.ndarray:
    """The blocks of a stream of n values, filled in turn into one array."""
    out, start = np.empty(n), 0
    for block in blocks:
        out[start:start + len(block)] = block
        start += len(block)
    return out


def _drawn_blocks(rng: np.random.Generator, n: int, rows: int, *draws):
    """Yield, for each block of at most ``rows`` of rows 0..n-1, a list of
    one block of each of ``draws``, functions called as draw(size, rng), in
    the stream order of one whole draw of n rows of each in turn: each draw
    but the last reads a copy of ``rng`` taken where its whole draw would
    start, while ``rng`` draws and discards those rows. numpy's Generator
    carries no state between variates, so the blocks are the rows of whole
    draws bit for bit."""
    streams = []
    for draw in draws[:-1]:
        streams.append(copy.deepcopy(rng))
        for start in range(0, n, rows):  # rng skips the rows its copy yields
            draw(min(rows, n - start), rng)
    streams.append(rng)
    for start in range(0, n, rows):
        yield [draw(min(rows, n - start), r) for draw, r in zip(draws, streams)]


def _gain_blocks(p: ShadowedRicianParams, rng: np.random.Generator, n: int, *draws):
    """_drawn_blocks of 2^14 rows of n draws of |h|^2, then of ``draws``.

    h = A e^{j phi} + Z, with A Nakagami-m of spread omega (A^2 ~ Gamma(m,
    omega/m)), phi uniform and Z complex Gaussian of per-dimension variance
    b, so |h|^2 follows the shadowed-Rician density by construction. The
    columns are drawn in the order gamma, uniform, normal, normal.
    """
    sd = math.sqrt(p.b)

    def amplitude(size, rng):  # no draw without LOS
        return (np.sqrt(rng.gamma(shape=p.m, scale=p.omega / p.m, size=size))
                if p.omega > 0 else np.zeros(size))

    def phase(size, rng):
        return rng.uniform(0.0, 2.0 * np.pi, size=size)

    def scatter(size, rng):
        return rng.normal(0.0, sd, size=size)

    def gain(amp, phi, re, im, *rest):
        re += amp * np.cos(phi)
        im += amp * np.sin(phi)
        return [re * re + im * im, *rest]

    # starmap holds no block once it is passed on, so the consumer's next
    # draw finds only the blocks the consumer itself still holds
    return itertools.starmap(gain, _drawn_blocks(
        rng, n, _BLOCK_ROWS, amplitude, phase, scatter, scatter, *draws))


# ---------------------------------------------------------------------------
# Link budget, interferer field, scenario
# ---------------------------------------------------------------------------

def _db_to_linear(db: float) -> float:
    """Linear power of a dB value; refuses one whose power overflows a float."""
    try:
        linear = 10.0 ** (float(db) / 10.0)
    except OverflowError:
        linear = math.inf
    if linear == math.inf:
        raise DomainError(f"{db} dB overflows a float as a linear power")
    return linear


@dataclass(frozen=True)
class LinkBudget:
    """Free-space link budget for one transmitter-destination pair.

    Attributes:
        carrier_hz: carrier frequency (Hz).
        distance_m: transmitter-destination distance (m).
        gain_tx_dbi / gain_rx_dbi: antenna gains (dBi).
        tx_snr_db: transmit SNR P/sigma^2 (dB), noise-normalized power.
    """

    carrier_hz: float
    distance_m: float
    gain_tx_dbi: float = 0.0
    gain_rx_dbi: float = 0.0
    tx_snr_db: float = 0.0

    def __post_init__(self):
        if not self.carrier_hz > 0:
            raise DomainError(f"carrier_hz must be > 0, got {self.carrier_hz}")
        if not self.distance_m > 0:
            raise DomainError(f"distance_m must be > 0, got {self.distance_m}")

    @property
    def tx_snr(self) -> float:
        """Transmit SNR, linear."""
        return _db_to_linear(self.tx_snr_db)


def pathloss_factor(l: LinkBudget) -> float:
    """Free-space power attenuation (c / 4 pi f d)^2 times linearized gains;
    a factor that overflows a float is a DomainError."""
    try:
        free_space = SPEED_OF_LIGHT / (4.0 * math.pi * l.carrier_hz * l.distance_m)
        factor = free_space ** 2 * _db_to_linear(l.gain_tx_dbi + l.gain_rx_dbi)
    except (OverflowError, ZeroDivisionError):
        factor = math.inf
    if not factor < math.inf:
        raise DomainError(f"pathloss factor at carrier_hz={l.carrier_hz}, "
                          f"distance_m={l.distance_m} overflows a float")
    return factor


@dataclass(frozen=True)
class InterfererField:
    """K terrestrial interferers in an annulus around the destination.

    Every interferer shares the carrier, gain and power entries; only the
    distance, drawn by place_interferers, differs.
    """

    count: int
    r_inner_m: float
    r_outer_m: float
    carrier_hz: float
    gain_tx_dbi: float = 0.0
    gain_rx_dbi: float = 0.0
    tx_snr_db: float = 0.0

    def __post_init__(self):
        if self.count < 0:
            raise DomainError(f"interferer count must be >= 0, got {self.count}")
        if self.count > MAX_INTERFERERS:
            raise DomainError(f"interferer count {self.count} exceeds the cap of "
                              f"{MAX_INTERFERERS}")
        if not self.carrier_hz > 0:
            raise DomainError(f"carrier_hz must be > 0, got {self.carrier_hz}")
        if not 0 < self.r_inner_m < self.r_outer_m:
            raise DomainError(
                f"annulus radii must satisfy 0 < r_inner_m < r_outer_m, "
                f"got r_inner_m={self.r_inner_m}, r_outer_m={self.r_outer_m}"
            )
        if float(self.r_outer_m) * self.r_outer_m == math.inf:
            raise DomainError(f"r_outer_m={self.r_outer_m} squared overflows a float")

    @property
    def tx_snr(self) -> float:
        return _db_to_linear(self.tx_snr_db)

    def coefficients(self, distances_m) -> np.ndarray:
        """Received-power coefficients phi_j * P_t (linear) of interferers at
        ``distances_m``; none at all for no distance."""
        d = np.asarray(distances_m, dtype=float)
        if not d.size:
            return np.zeros(0)
        with np.errstate(over="ignore"):
            coef = ((SPEED_OF_LIGHT / (4.0 * math.pi * self.carrier_hz * d)) ** 2
                    * _db_to_linear(self.gain_tx_dbi + self.gain_rx_dbi) * self.tx_snr)
        if not np.all(coef < math.inf):  # a power that overflows a float
            raise DomainError(f"interferer power at carrier_hz={self.carrier_hz} "
                              f"overflows a float")
        return coef


def place_interferers(f: InterfererField, rng: np.random.Generator) -> np.ndarray:
    """Draw K interferer distances uniformly by area over the annulus."""
    u = rng.random(f.count)
    return np.sqrt(f.r_inner_m ** 2 + u * (f.r_outer_m ** 2 - f.r_inner_m ** 2))


@dataclass(frozen=True)
class Scenario:
    """Full link-level scenario: satellite link, interferer field, receiver.

    ``seed`` drives every random element (placement, channel draws, traces)
    through independent deterministic sub-streams.
    """

    satellite: LinkBudget
    fading: ShadowedRicianParams
    interferers: InterfererField
    rx_antennas: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.rx_antennas < 1:
            raise DomainError(f"rx_antennas must be >= 1, got {self.rx_antennas}")
        if not 0 <= self.seed < 2 ** 64:
            raise DomainError("seed must be an unsigned 64-bit integer")

    def rng(self, stream: int, index: int = 0) -> np.random.Generator:
        """Independent generator for one named sub-stream of this scenario."""
        return _stream_rng(self.seed, stream, index)

    @cached_property
    def interferer_coefficients(self) -> np.ndarray:
        """Received-power coefficients of the interferers, placed once from
        the placement stream; read-only, as every consumer shares them."""
        d = place_interferers(self.interferers, self.rng(STREAM_PLACEMENT))
        coef = self.interferers.coefficients(d)
        coef.flags.writeable = False
        return coef

    @property
    def satellite_coefficient(self) -> float:
        """phi_s * P_s: received satellite power per unit channel gain."""
        return pathloss_factor(self.satellite) * self.satellite.tx_snr


def _stream_rng(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    """Generator of sub-stream (``stream``, ``index``) of ``seed``."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, index)))


def sinr(s: Scenario, h_gain, i_a):
    """SINR phi_s P_s |h|^2 / (I_a + 1) with noise-normalized powers."""
    h_gain = np.asarray(h_gain, dtype=float)
    i_a = np.asarray(i_a, dtype=float)
    if np.any(h_gain < 0) or np.any(i_a < 0):
        raise DomainError("h_gain and i_a must be >= 0")
    out = s.satellite_coefficient * h_gain / (i_a + 1.0)
    return float(out) if out.ndim == 0 else out


def tx_snr_db_for_avg_rx_snr(
    link: LinkBudget, fading: ShadowedRicianParams, target_db: float
) -> float:
    """Transmit SNR (dB) that yields the requested average received SNR."""
    phi = pathloss_factor(link)
    return target_db - 10.0 * math.log10(phi * fading.mean_power)


# Default link geometry: 1000 km satellite downlink at 2 GHz with a 20 dBi
# satellite antenna; interferers in the 2-10 km annulus.
_DEFAULT_CARRIER_HZ = 2.0e9
_DEFAULT_SAT_DISTANCE_M = 1.0e6
_DEFAULT_SAT_GAIN_DBI = 20.0
_DEFAULT_R_IN_M = 2.0e3
_DEFAULT_R_OUT_M = 10.0e3
_DEFAULT_FADING = dict(b=0.126, m=10.0, omega=0.835)


def default_scenario(
    k: int = 1,
    avg_snr_db: float = 15.0,
    inr_db: float = -3.0,
    seed: int = 12345,
    rx_antennas: int = 2,
    fading: ShadowedRicianParams | None = None,
) -> Scenario:
    """Canonical scenario: requested average received SNR on the satellite
    link and per-interferer INR at the annulus RMS distance."""
    fading = fading or ShadowedRicianParams(**_DEFAULT_FADING)
    sat = LinkBudget(
        carrier_hz=_DEFAULT_CARRIER_HZ,
        distance_m=_DEFAULT_SAT_DISTANCE_M,
        gain_tx_dbi=_DEFAULT_SAT_GAIN_DBI,
    )
    sat = replace(sat, tx_snr_db=tx_snr_db_for_avg_rx_snr(sat, fading, avg_snr_db))
    d_rms = math.sqrt(0.5 * (_DEFAULT_R_IN_M ** 2 + _DEFAULT_R_OUT_M ** 2))
    phi_rms = pathloss_factor(
        LinkBudget(carrier_hz=_DEFAULT_CARRIER_HZ, distance_m=d_rms))
    interferers = InterfererField(
        count=k,
        r_inner_m=_DEFAULT_R_IN_M,
        r_outer_m=_DEFAULT_R_OUT_M,
        carrier_hz=_DEFAULT_CARRIER_HZ,
        tx_snr_db=inr_db - 10.0 * math.log10(phi_rms),
    )
    return Scenario(
        satellite=sat,
        fading=fading,
        interferers=interferers,
        rx_antennas=rx_antennas,
        seed=seed,
    )
