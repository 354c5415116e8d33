"""Scenario sweeps: peak AoI vs interferer count, bound vs exponent grids,
and the hybrid-vs-satellite-only comparison.

Sweeps share paired random-number streams across grid points so the
qualitative comparisons (more interferers, higher SNR, terrestrial assist)
hold elementwise per update, not just on noisy averages:

  * one uniform per update drives the ARQ attempt count through the inverse
    CDF, so a larger decoding error probability never yields fewer attempts;
  * interferer positions are nested in K, so adding a base station never
    reduces the interference any Monte Carlo draw sees.

Random streams derive from the sweep seed and fixed stream labels. Every
figure runs in the calling process and computes its shared inputs once per
sweep: fig3 and stin_psn draw their error gains and each replication's
updates one block at a time, so their memory does not grow with
error_draws or n_updates, and run the trace's block step on each service
row of a block in turn, so it does not grow with the grid points either;
fig4 computes its models and the simulated violation frequency once and
loops over theta; fig5 builds its scenario and error model once and loops
over the blocklength grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from . import aoi, channel
from ._startup import np
from .aoi import (
    ArrivalModel,
    ServiceModel,
    geometric_attempts,
    trace_blocks,
    trace_violation_frequency,
    update_blocks,
)
from .channel import default_scenario
from .errors import ConfigError, DomainError, NumericError
from .fbc import (
    CodingSpec,
    ErrorModel,
    average_error,
    conditional_error,
    error_exponent,
    error_exponent_closed_form,
)
from .snc import paoi_bound

# Error draws a fig3 or stin_psn sweep may take. The error table holds one
# block of 2^14 draws of each gain whatever the count, so the cap bounds
# time: at the default grids it takes about 0.11 s per 10^5 draws on one
# CPU of a 2-CPU VM, so about 2 minutes at the cap.
MAX_ERROR_DRAWS = 10 ** 8

# Replications a fig3 or stin_psn sweep may run. Each adds one float per
# service row to the sums that _sweep_means keeps (44 rows at the default
# grids) and at least one block pass, so 10^4 one-update replications take
# about 3 s on a 2-CPU VM; the updates of all replications together fall
# under aoi.MAX_UPDATES.
MAX_REPLICATIONS = 10 ** 4

# (K, SNR) grid points, len(k_grid) * len(snr_points_db), a fig3 or
# stin_psn sweep may hold: about 45 times the default 22. Memory does not
# grow with the points, so the cap bounds time: the error table and the
# block steps of every replication grow with them.
MAX_GRID_POINTS = 1000


@dataclass(frozen=True)
class SweepSpec:
    """Grid definition for one figure-style sweep."""

    figure: str
    seed: int = 12345
    replications: int = 3
    # fig3 / stin_psn
    k_grid: tuple = tuple(range(0, 11))
    snr_points_db: tuple = (5.0, 15.0)
    n_updates: int = 20_000
    arrival_mean_gap_cu: float = 4096.0
    relay_prob: float = 0.5
    relay_boost_db: float = 10.0
    slot_scaling: bool = True
    error_draws: int = 100_000
    # fig4
    theta_grid: tuple = tuple(0.0014 + i * (0.0030 - 0.0014) / 19 for i in range(20))
    a_th_cu: float = 150_000.0
    fig4_mean_gap_cu: float = 256.0
    fig4_n_updates: int = 100_000
    # fig5
    n_grid: tuple = (100, 200, 500, 1000, 2000)
    # shared link/coding knobs
    avg_snr_db: float = 15.0
    inr_db: float = -3.0
    fig_k: int = 1
    blocklength: int = 64
    code_size: int = 2 ** 32
    quad_tolerance: float = 1e-7

    def __post_init__(self):
        if self.figure not in _RUNNERS:
            raise ConfigError(
                f"unknown figure {self.figure!r}; expected one of {tuple(_RUNNERS)}"
            )
        for key in ("replications", "n_updates", "error_draws", "fig4_n_updates"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in ("arrival_mean_gap_cu", "fig4_mean_gap_cu"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        if self.figure in ("fig3", "stin_psn"):
            if not self.k_grid:
                raise ConfigError("k_grid must be nonempty")
            if min(self.k_grid) < 0:
                raise ConfigError(f"k_grid values must be >= 0, got {min(self.k_grid)}")
            if not self.snr_points_db:
                raise ConfigError("snr_points_db must be nonempty")
        if self.figure == "fig4":
            if not self.theta_grid:
                raise ConfigError("theta_grid must be nonempty")
            if not all(t > 0 for t in self.theta_grid):
                raise ConfigError(f"theta_grid values must be > 0, got {min(self.theta_grid)}")
        if self.figure == "fig5":
            if not self.n_grid:
                raise ConfigError("n_grid must be nonempty")
            if min(self.n_grid) < 1:
                raise ConfigError(f"n_grid values must be >= 1, got {min(self.n_grid)}")
        if not 0.0 <= self.relay_prob <= 1.0:
            raise ConfigError("relay_prob must be in [0, 1]")


# ---------------------------------------------------------------------------
# fig3 and stin_psn: coupled decoding errors and one block step per
# service row over the (K, SNR) grid
# ---------------------------------------------------------------------------

_SYSTEMS = ("stin", "psn")  # axis 1 of _sweep_means: hybrid, satellite-only


def _coupled_error_table(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """eps_sat[k_idx, snr_idx] and eps_ter[k_idx, snr_idx] on shared draws.

    One satellite-fading draw set, one Rayleigh relay draw set, and one
    nested interferer-gain matrix serve every grid point, so both tables are
    elementwise monotone: nondecreasing in K, decreasing in SNR.

    The satellite gains, the (error_draws, k_max) interferer gains and the
    relay gains are channel._gain_blocks, and each probability is the sum of
    its block sums over error_draws, which for one block is np.mean.
    """
    # received-SNR targets enter directly; the link budget realizes the same
    # calibration through tx_snr_db_for_avg_rx_snr
    snr_sat = [channel._db_to_linear(s) for s in spec.snr_points_db]
    snr_ter = [channel._db_to_linear(s + spec.relay_boost_db) for s in spec.snr_points_db]
    k_max = max(spec.k_grid)
    base = default_scenario(
        k=k_max, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    )
    coeff = base.interferer_coefficients

    def interferers(size, rng):
        return rng.exponential(1.0, size=(size, k_max))

    def relay(size, rng):  # Rayleigh power, unit mean
        return rng.exponential(1.0, size=size)

    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    sums = np.zeros((2, len(spec.k_grid), len(spec.snr_points_db)))
    for h_sat, e_gains, h_ter in channel._gain_blocks(
            base.fading, base.rng(channel._STREAM_SWEEP_EPS), spec.error_draws,
            interferers, relay):
        for ki, k in enumerate(spec.k_grid):
            i_a = e_gains[:, :k] @ coeff[:k] if k else 0.0
            for si in range(len(spec.snr_points_db)):
                gam_sat = snr_sat[si] / base.fading.mean_power * h_sat / (1.0 + i_a)
                sums[0, ki, si] += np.sum(conditional_error(gam_sat, coding))
                gam_ter = snr_ter[si] * h_ter / (1.0 + i_a)
                sums[1, ki, si] += np.sum(conditional_error(gam_ter, coding))
        del h_sat, e_gains, h_ter, i_a, gam_sat, gam_ter  # before the next draw
    eps_sat, eps_ter = sums / spec.error_draws
    return eps_sat, eps_ter


def _uniforms(size: int, rng: np.random.Generator) -> np.ndarray:
    """rng.random(size), in the draw(size, rng) form of channel._drawn_blocks."""
    return rng.random(size)


def _sweep_means(spec: SweepSpec, eps_sat: np.ndarray, eps_ter: np.ndarray) -> np.ndarray:
    """Per-replication mean peak AoI, shape (points, 2, replications).

    Points are the (K, SNR) grid in row-major order, K outer; axis 1 follows
    _SYSTEMS. A replication draws its arrival times and its two per-update
    uniform streams, which drive the ARQ attempts everywhere and the relay
    decision, one block of 2^12 updates at a time in the stream order of
    one whole draw of each. A block's gaps are checked and taken once,
    and each hybrid and satellite-only service row of every grid point runs
    the trace's aoi._block_step on them, carrying each row's departure and
    the last arrival across block edges. The peak AoI of each row equals
    the peak_aoi column of trace_blocks on that row, bit for bit, as both
    run the same step, and its mean is the sum of its per-block sums in
    block order over n_updates, which for one block is np.mean of the
    row. A hybrid row that can never relay, at K = 0 or relay_prob 0, is
    its point's satellite-only row: it runs no step and takes that row's
    sums.
    """
    points = list(np.ndindex(eps_sat.shape))
    relays = np.array([spec.k_grid[ki] >= 1 and spec.relay_prob > 0 for ki, _ in points])
    for (ki, si), relay in zip(points, relays):  # refuse before any draw
        for link, eps in (("satellite", eps_sat[ki, si]),
                          ("relay", eps_ter[ki, si] if relay else 0.0)):
            if not eps < 1.0:
                raise DomainError(
                    f"{link} decoding error probability is {eps} at "
                    f"K={spec.k_grid[ki]}, SNR={spec.snr_points_db[si]} dB; "
                    f"ARQ never delivers an update"
                )
    n = spec.n_updates
    arrival = ArrivalModel.poisson(1.0 / spec.arrival_mean_gap_cu)
    sums = np.zeros((2 * len(points), spec.replications))
    for rep in range(spec.replications):
        rng = channel._stream_rng(spec.seed, channel._STREAM_SWEEP_TRACE, rep)
        dep_prev, arr_prev = [-math.inf] * len(sums), 0.0
        for arrivals, u_att, v_route in aoi._arrival_blocks(arrival, n, rng,
                                                            _uniforms, _uniforms):
            gaps = aoi._block_gaps(arrivals, arr_prev)
            for p, (ki, si) in enumerate(points):
                k = spec.k_grid[ki]
                slot_cu = float(spec.blocklength * (max(k, 1) if spec.slot_scaling else 1))
                att_psn = geometric_attempts(u_att, eps_sat[ki, si])
                rows = [(2 * p + 1, att_psn)]
                if relays[p]:
                    att_ter = geometric_attempts(u_att, eps_ter[ki, si])
                    rows.append((2 * p, np.where(v_route < spec.relay_prob, att_ter, att_psn)))
                for r, att in rows:
                    *_, peak, dep_prev[r] = aoi._block_step(arrivals, gaps, slot_cu * att,
                                                            dep_prev[r])
                    sums[r, rep] += peak.sum()
            arr_prev = arrivals[-1]
    sums = sums.reshape(len(points), 2, spec.replications)
    sums[~relays, 0] = sums[~relays, 1]
    return sums / n


def _sweep_points(spec: SweepSpec):
    """Each (K, SNR) grid point, K outer, as (k, snr_db, eps_sat, eps_ter,
    mean, half): the mean peak AoI over r replications and 1.96 standard
    errors of that mean (1.96 s / sqrt(r), 0 for r = 1), each a pair ordered
    as _SYSTEMS. The half-width is a normal one: at the default r = 3 the
    interval covers the mean about 78 % of the time, not 95 %."""
    # refuse before any work
    if spec.replications > MAX_REPLICATIONS:
        raise NumericError(f"{spec.replications} replications exceed the cap of "
                           f"{MAX_REPLICATIONS} per sweep")
    aoi._check_update_count(spec.replications * spec.n_updates)
    if spec.error_draws > MAX_ERROR_DRAWS:
        raise NumericError(f"{spec.error_draws} error draws exceed the cap of "
                           f"{MAX_ERROR_DRAWS} per sweep")
    points = len(spec.k_grid) * len(spec.snr_points_db)
    if points > MAX_GRID_POINTS:
        raise NumericError(f"{points} grid points (k_grid times snr_points_db) "
                           f"exceed the cap of {MAX_GRID_POINTS} per sweep")
    eps_sat, eps_ter = _coupled_error_table(spec)
    reps = _sweep_means(spec, eps_sat, eps_ter)
    mean = reps.mean(axis=2)
    half = (
        1.96 * reps.std(axis=2, ddof=1) / math.sqrt(spec.replications)
        if spec.replications > 1
        else np.zeros_like(mean)
    )
    for p, (ki, si) in enumerate(np.ndindex(eps_sat.shape)):
        yield (spec.k_grid[ki], spec.snr_points_db[si], float(eps_sat[ki, si]),
               float(eps_ter[ki, si]), mean[p].tolist(), half[p].tolist())


def run_fig3(spec: SweepSpec) -> list[dict]:
    """Mean peak AoI (cu) vs interferer count for the hybrid and
    satellite-only systems at each SNR point."""
    return [
        {
            "k": k,
            "snr_db": snr_db,
            "system": system,
            "mean_paoi_cu": mean[i],
            "ci_half_width_cu": half[i],
            "eps_sat": eps_sat,
            "eps_ter": eps_ter,
            "replications": spec.replications,
        }
        for k, snr_db, eps_sat, eps_ter, mean, half in _sweep_points(spec)
        for i, system in enumerate(_SYSTEMS)
    ]


def compare_stin_psn(spec: SweepSpec) -> list[dict]:
    """Paired-seed mean peak AoI comparison, hybrid vs satellite-only."""
    return [
        {
            "k": k,
            "snr_db": snr_db,
            "mean_paoi_stin_cu": stin,
            "mean_paoi_psn_cu": psn,
            "advantage_cu": psn - stin,
        }
        for k, snr_db, _, _, (stin, psn), _ in _sweep_points(spec)
    ]


# ---------------------------------------------------------------------------
# fig4 and fig5
# ---------------------------------------------------------------------------

def fig4_models(spec: SweepSpec) -> tuple[ArrivalModel, ServiceModel, float]:
    """Arrival/service models of the bound-vs-simulation comparison.

    The ARQ error probability is the scenario's average decoding error
    (quadrature), which couples the queueing picture to the link model.
    """
    scen = default_scenario(
        k=spec.fig_k, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    )
    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    eps = average_error(
        scen, coding, ErrorModel(method="quadrature", quad_tolerance=spec.quad_tolerance)
    ).value
    am = ArrivalModel.poisson(1.0 / spec.fig4_mean_gap_cu)
    sm = ServiceModel.arq(spec.blocklength, eps)
    return am, sm, eps


def run_fig4(spec: SweepSpec) -> list[dict]:
    """Analytic peak-AoI violation bound vs empirical frequency over the
    exponent grid at a fixed threshold. The models and the simulated
    violation frequency are computed once; only the bound depends on theta.
    The bounds come first, so a theta that has none is refused before any
    update is drawn."""
    am, sm, eps = fig4_models(spec)
    reports = [paoi_bound(theta, spec.a_th_cu, spec.blocklength, None, am, sm)
               for theta in spec.theta_grid]
    rng = channel._stream_rng(spec.seed, channel._STREAM_SWEEP_TRACE)
    trace = trace_blocks(update_blocks(am, sm, spec.fig4_n_updates, rng))
    empirical = trace_violation_frequency(trace, spec.a_th_cu)
    return [{"theta": theta, "bound": rep.bound_value, "empirical": empirical,
             "a_th": spec.a_th_cu, "kernel": rep.kernel_value, "eps": eps}
            for theta, rep in zip(spec.theta_grid, reports)]


def run_fig5(spec: SweepSpec) -> list[dict]:
    """Numeric error-rate exponent vs blocklength next to the n-free
    closed-form approximation, at a fixed coding rate."""
    scen = default_scenario(
        k=spec.fig_k, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    )
    rate = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size).rate
    em = ErrorModel(method="quadrature", quad_tolerance=spec.quad_tolerance)
    codings = [CodingSpec(blocklength=n, code_size=spec.code_size, rate=rate)
               for n in spec.n_grid]
    exponents = [error_exponent(scen, coding, em) for coding in codings]
    return [{"n": n, "theta_numeric": theta,
             "theta_closed_form": error_exponent_closed_form(scen, coding),
             "rho_star": rho_star, "rate_nats": rate}
            for n, coding, (theta, rho_star) in zip(spec.n_grid, codings, exponents)]


_RUNNERS = {"fig3": run_fig3, "fig4": run_fig4, "fig5": run_fig5,
            "stin_psn": compare_stin_psn}


def run_sweep(spec: SweepSpec) -> list[dict]:
    """Run the spec's figure: its rows, each a dict keyed in column order."""
    return _RUNNERS[spec.figure](spec)

