"""Scenario sweeps: peak AoI vs interferer count, bound vs exponent grids,
and the hybrid-vs-satellite-only comparison.

Sweeps share paired random-number streams across grid points so the
qualitative comparisons (more interferers, higher SNR, terrestrial assist)
hold elementwise per update, not just on noisy averages:

  * one uniform per update drives the ARQ attempt count through the inverse
    CDF, so a larger decoding error probability never yields fewer attempts;
  * interferer positions are nested in K, so adding a base station never
    reduces the interference any Monte Carlo draw sees.

Per-point streams derive from (seed, grid index), so results are identical
no matter how the points are scheduled across workers. Worker processes
serve only the fig4 and fig5 grid points. fig3 and stin_psn run in one
process as one batched departure pass per replication, over a buffer of
2 * len(k_grid) * len(snr_points_db) x n_updates float64 values.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import channel
from .aoi import (
    ArrivalModel,
    ServiceModel,
    departure_rows,
    departure_times,
    empirical_violation,
    geometric_attempts,
    simulate_trace,
)
from .channel import (
    InterfererField,
    LinkBudget,
    Scenario,
    ShadowedRicianParams,
    pathloss_factor,
    tx_snr_db_for_avg_rx_snr,
)
from .errors import ConfigError, DomainError
from .fbc import (
    CodingSpec,
    ErrorModel,
    average_error,
    conditional_error,
    error_exponent,
    error_exponent_closed_form,
)
from .snc import paoi_bound

SECONDS_PER_CU = 1e-6  # 2PSK at 1 Mbps: one channel use per microsecond

# RNG stream labels under the sweep seed
_STREAM_EPS = 10
_STREAM_TRACE = 11

FIGURES = ("fig3", "fig4", "fig5", "stin_psn")

# Default link geometry: 1000 km satellite downlink at 2 GHz with a 20 dBi
# satellite antenna; interferers in the 2-10 km annulus.
_DEFAULT_CARRIER_HZ = 2.0e9
_DEFAULT_SAT_DISTANCE_M = 1.0e6
_DEFAULT_SAT_GAIN_DBI = 20.0
_DEFAULT_R_IN_M = 2.0e3
_DEFAULT_R_OUT_M = 10.0e3
_DEFAULT_FADING = dict(b=0.126, m=10.0, omega=0.835)


def cu_to_seconds(cu: float) -> float:
    """Presentation-layer conversion; all internal times stay in channel uses."""
    return cu * SECONDS_PER_CU


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
    template = InterfererField(
        count=max(k, 1),
        r_inner_m=_DEFAULT_R_IN_M,
        r_outer_m=_DEFAULT_R_OUT_M,
        carrier_hz=_DEFAULT_CARRIER_HZ,
    )
    phi_rms = pathloss_factor(template.budget_at(d_rms))
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
        if self.figure not in FIGURES:
            raise ConfigError(
                f"unknown figure {self.figure!r}; expected one of {FIGURES}"
            )
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.n_updates < 1:
            raise ConfigError("n_updates must be >= 1")
        if self.error_draws < 1:
            raise ConfigError("error_draws must be >= 1")
        if self.figure in ("fig3", "stin_psn"):
            if not self.k_grid:
                raise ConfigError("k_grid must be nonempty")
            if min(self.k_grid) < 0:
                raise ConfigError(f"k_grid values must be >= 0, got {min(self.k_grid)}")
            if not self.snr_points_db:
                raise ConfigError("snr_points_db must be nonempty")
        if self.figure == "fig4" and not self.theta_grid:
            raise ConfigError("theta_grid must be nonempty")
        if self.figure == "fig5" and not self.n_grid:
            raise ConfigError("n_grid must be nonempty")
        if not 0.0 <= self.relay_prob <= 1.0:
            raise ConfigError("relay_prob must be in [0, 1]")

    def echo(self) -> dict:
        d = asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = ";".join(str(v) for v in value)
        return d


@dataclass
class Table:
    """Sweep result: column names, row dicts, and the parameter echo."""

    fieldnames: list
    rows: list
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Coupled decoding-error estimates across (K, SNR) grids
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _coupled_error_table(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """eps_sat[k_idx, snr_idx] and eps_ter[k_idx, snr_idx] on shared draws.

    One satellite-fading draw set, one Rayleigh relay draw set, and one
    nested interferer-gain matrix serve every grid point, so both tables are
    elementwise monotone: nondecreasing in K, decreasing in SNR. Cached:
    every grid point reads the same tables.
    """
    k_max = max(spec.k_grid)
    base = default_scenario(
        k=k_max, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    ).placed()
    coeff = base.interferers.coefficients()
    rng = base.rng(_STREAM_EPS)
    draws = spec.error_draws
    h_sat = channel.sample_channel_gain(base.fading, rng, size=draws)
    e_gains = rng.exponential(1.0, size=(draws, k_max)) if k_max else np.zeros((draws, 0))
    h_ter = rng.exponential(1.0, size=draws)  # Rayleigh power, unit mean

    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    eps_sat = np.empty((len(spec.k_grid), len(spec.snr_points_db)))
    eps_ter = np.empty_like(eps_sat)
    for ki, k in enumerate(spec.k_grid):
        i_a = e_gains[:, :k] @ coeff[:k] if k else 0.0
        for si, snr_db in enumerate(spec.snr_points_db):
            # received-SNR targets enter directly; the link budget realizes
            # the same calibration through tx_snr_db_for_avg_rx_snr
            a_sat = 10.0 ** (snr_db / 10.0) / base.fading.mean_power
            gam_sat = a_sat * h_sat / (1.0 + i_a)
            eps_sat[ki, si] = float(np.mean(conditional_error(gam_sat, coding)))
            a_ter = 10.0 ** ((snr_db + spec.relay_boost_db) / 10.0)
            gam_ter = a_ter * h_ter / (1.0 + i_a)
            eps_ter[ki, si] = float(np.mean(conditional_error(gam_ter, coding)))
    return eps_sat, eps_ter


def _rep_draws(spec: SweepSpec, rep: int):
    """Arrival times and the two per-update uniform streams for one
    replication; shared by every grid point so comparisons stay paired."""
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(_STREAM_TRACE, rep))
    )
    arrival = ArrivalModel.poisson(1.0 / spec.arrival_mean_gap_cu)
    gaps = arrival.sample_gaps(spec.n_updates, rng)
    u_att = rng.random(spec.n_updates)  # drives ARQ attempts everywhere
    v_route = rng.random(spec.n_updates)  # drives the relay decision
    return np.cumsum(gaps), u_att, v_route


@lru_cache(maxsize=8)
def _sweep_means(spec: SweepSpec) -> dict:
    """Per-replication mean peak AoI of every (K, SNR) point and system.

    Returns {(ki, si): {"psn": [...], "stin": [...]}}. Each replication is
    one pass of departure_rows over a (2 * points, n_updates) buffer that
    holds the satellite-only and hybrid service rows of every grid point;
    the buffer is allocated once and reused by every replication. The
    results equal build_trace row by row, bit for bit.
    """
    eps_sat, eps_ter = _coupled_error_table(spec)
    points = [(ki, si) for ki in range(len(spec.k_grid))
              for si in range(len(spec.snr_points_db))]
    for ki, si in points:  # refuse before allocating
        relay = spec.k_grid[ki] >= 1 and spec.relay_prob > 0
        for link, eps in (("satellite", eps_sat[ki, si]),
                          ("relay", eps_ter[ki, si] if relay else 0.0)):
            if not eps < 1.0:
                raise DomainError(
                    f"{link} decoding error probability is {eps} at "
                    f"K={spec.k_grid[ki]}, SNR={spec.snr_points_db[si]} dB; "
                    f"ARQ never delivers an update"
                )
    means = {point: {"psn": [], "stin": []} for point in points}
    buf = np.empty((2 * len(points), spec.n_updates))
    for rep in range(spec.replications):
        arrivals, u_att, v_route = _rep_draws(spec, rep)
        for p, (ki, si) in enumerate(points):
            k = spec.k_grid[ki]
            slot_cu = float(spec.blocklength * (max(k, 1) if spec.slot_scaling else 1))
            att_psn = geometric_attempts(u_att, eps_sat[ki, si])
            use_relay = (v_route < spec.relay_prob) & (k >= 1)
            att_stin = (
                np.where(use_relay, geometric_attempts(u_att, eps_ter[ki, si]), att_psn)
                if use_relay.any() else att_psn
            )
            np.multiply(slot_cu, att_psn, out=buf[2 * p])
            np.multiply(slot_cu, att_stin, out=buf[2 * p + 1])
        departure_rows(arrivals, buf)
        buf -= arrivals  # sojourns
        buf += np.diff(arrivals, prepend=0.0)  # peak AoI: gap plus sojourn
        for p, point in enumerate(points):
            means[point]["psn"].append(float(np.mean(buf[2 * p])))
            means[point]["stin"].append(float(np.mean(buf[2 * p + 1])))
    return means


def _point_means(spec: SweepSpec, ki: int, si: int) -> dict:
    """Mean peak AoI for one (K, SNR) grid point, both systems, all reps."""
    eps_sat, eps_ter = _coupled_error_table(spec)
    out = {"eps_sat": float(eps_sat[ki, si]), "eps_ter": float(eps_ter[ki, si])}
    for system, vals in _sweep_means(spec)[ki, si].items():
        arr = np.asarray(vals)
        half = (
            1.96 * float(np.std(arr, ddof=1)) / math.sqrt(spec.replications)
            if spec.replications > 1
            else 0.0
        )
        out[system] = (float(np.mean(arr)), half)
    return out


def _fig3_point(args) -> list:
    spec, ki, si = args
    point = _point_means(spec, ki, si)
    rows = []
    for system in ("stin", "psn"):
        mean, half = point[system]
        rows.append(
            {
                "k": spec.k_grid[ki],
                "snr_db": spec.snr_points_db[si],
                "system": system,
                "mean_paoi_cu": mean,
                "ci_half_width_cu": half,
                "eps_sat": point["eps_sat"],
                "eps_ter": point["eps_ter"],
                "replications": spec.replications,
            }
        )
    return rows


def _stin_psn_point(args) -> list:
    spec, ki, si = args
    point = _point_means(spec, ki, si)
    stin, _ = point["stin"]
    psn, _ = point["psn"]
    return [
        {
            "k": spec.k_grid[ki],
            "snr_db": spec.snr_points_db[si],
            "mean_paoi_stin_cu": stin,
            "mean_paoi_psn_cu": psn,
            "advantage_cu": psn - stin,
        }
    ]


def _grid_tasks(spec: SweepSpec):
    return [
        (spec, ki, si)
        for ki in range(len(spec.k_grid))
        for si in range(len(spec.snr_points_db))
    ]


def _pmap(fn, tasks, workers: int) -> list:
    """Map fig4 or fig5 grid points to results, optionally across processes.

    Every task recomputes its inputs from (seed, grid index), so scheduling
    cannot change any output; results come back in task order. fig3 and
    stin_psn do not come here: their grid points are rows of one batched
    pass (_sweep_means).
    """
    if workers <= 1:
        return [fn(t) for t in tasks]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))


def run_fig3(spec: SweepSpec, workers: int = 1) -> Table:
    """Mean peak AoI (cu) vs interferer count for the hybrid and
    satellite-only systems at each SNR point. ``workers`` is accepted and
    unused: the grid runs as one batched pass."""
    rows = [r for task in _grid_tasks(spec) for r in _fig3_point(task)]
    fields = ["k", "snr_db", "system", "mean_paoi_cu", "ci_half_width_cu",
              "eps_sat", "eps_ter", "replications"]
    return Table(fieldnames=fields, rows=rows, meta=spec.echo())


def compare_stin_psn(spec: SweepSpec, workers: int = 1) -> Table:
    """Paired-seed mean peak AoI comparison, hybrid vs satellite-only;
    ``workers`` is unused, as in run_fig3."""
    rows = [r for task in _grid_tasks(spec) for r in _stin_psn_point(task)]
    fields = ["k", "snr_db", "mean_paoi_stin_cu", "mean_paoi_psn_cu", "advantage_cu"]
    return Table(fieldnames=fields, rows=rows, meta=spec.echo())


@lru_cache(maxsize=8)
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


@lru_cache(maxsize=8)
def _fig4_empirical(spec: SweepSpec) -> float:
    am, sm, _ = fig4_models(spec)
    rng = np.random.default_rng(
        np.random.SeedSequence(spec.seed, spawn_key=(_STREAM_TRACE, 0))
    )
    trace = simulate_trace(am, sm, spec.fig4_n_updates, rng)
    return empirical_violation(trace, spec.a_th_cu)


def _fig4_point(args) -> list:
    spec, theta = args
    am, sm, eps = fig4_models(spec)
    rep = paoi_bound(theta, spec.a_th_cu, spec.blocklength, None, am, sm)
    return [
        {
            "theta": theta,
            "bound": rep.bound_value,
            "empirical": _fig4_empirical(spec),
            "a_th": spec.a_th_cu,
            "kernel": rep.kernel_value,
            "eps": eps,
        }
    ]


def run_fig4(spec: SweepSpec, workers: int = 1) -> Table:
    """Analytic peak-AoI violation bound vs empirical frequency over the
    exponent grid at a fixed threshold."""
    tasks = [(spec, theta) for theta in spec.theta_grid]
    rows = [r for chunk in _pmap(_fig4_point, tasks, workers) for r in chunk]
    fields = ["theta", "bound", "empirical", "a_th", "kernel", "eps"]
    return Table(fieldnames=fields, rows=rows, meta=spec.echo())


def _fig5_point(args) -> list:
    spec, n = args
    scen = default_scenario(
        k=spec.fig_k, avg_snr_db=spec.avg_snr_db, inr_db=spec.inr_db, seed=spec.seed
    )
    base = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    em = ErrorModel(method="quadrature", quad_tolerance=spec.quad_tolerance)
    coding = CodingSpec(blocklength=n, code_size=spec.code_size, rate=base.rate)
    numeric = error_exponent(scen, coding, em)
    closed = error_exponent_closed_form(scen, coding)
    return [
        {
            "n": n,
            "theta_numeric": numeric.theta,
            "theta_closed_form": closed.theta,
            "rho_star": numeric.params["rho_star"],
            "rate_nats": base.rate,
        }
    ]


def run_fig5(spec: SweepSpec, workers: int = 1) -> Table:
    """Numeric error-rate exponent vs blocklength next to the n-free
    closed-form approximation, at a fixed coding rate."""
    tasks = [(spec, n) for n in spec.n_grid]
    rows = [r for chunk in _pmap(_fig5_point, tasks, workers) for r in chunk]
    fields = ["n", "theta_numeric", "theta_closed_form", "rho_star", "rate_nats"]
    return Table(fieldnames=fields, rows=rows, meta=spec.echo())


def run_sweep(spec: SweepSpec, workers: int = 1) -> Table:
    runner = {
        "fig3": run_fig3,
        "fig4": run_fig4,
        "fig5": run_fig5,
        "stin_psn": compare_stin_psn,
    }[spec.figure]
    return runner(spec, workers=workers)


# ---------------------------------------------------------------------------
# Slotted bit-queue simulation for the delay bound cross-check
# ---------------------------------------------------------------------------

def _backlog(alpha_bits: float, served: np.ndarray) -> np.ndarray:
    """Bits left after blocks 0..T of the slotted queue, starting empty.

    The Lindley recursion q_t = max(0, q_{t-1} + alpha - s_t) is the
    departure recursion q_t = max(q_{t-1}, s_t - alpha) + (alpha - s_t) fed
    from a zero-length virtual block 0; it is exact whenever alpha and the
    served bits are integers.
    """
    excess = np.concatenate([[0.0], served - alpha_bits])
    return departure_times(excess, -excess)


def simulate_delay_violation(
    alpha_bits: float,
    bits_per_block: float,
    eps: float,
    n_blocks: int,
    d_th_list,
    rng: np.random.Generator,
) -> dict:
    """Empirical violation frequency of the per-block FIFO delay.

    Each block delivers bits_per_block with probability 1 - eps and nothing
    otherwise; alpha_bits arrive at the start of every block. The delay of
    block t counts the extra blocks until the service accumulated from t
    onward covers the backlog present at t plus t's own arrivals. The
    backlog recursion accounts for idle slots, which a raw cumulative
    service comparison would wrongly bank.
    """
    if not 0.0 <= eps < 1.0:
        raise DomainError(f"eps must be in [0, 1), got {eps}")
    extra = int(max(d_th_list)) + 10
    total = n_blocks + extra
    served = bits_per_block * (rng.random(total) >= eps)
    cpot = np.concatenate([[0.0], np.cumsum(served)])  # cpot[t] = service through block t
    backlog = _backlog(alpha_bits, served[:n_blocks])  # bits left after block t
    # work ahead of and including block t's arrivals, to be cleared by service
    # starting at block t
    targets = cpot[: n_blocks] + backlog[: n_blocks] + alpha_bits
    tau = np.searchsorted(cpot, targets, side="left")  # first block index covering it
    t_idx = np.arange(1, n_blocks + 1)
    if np.any(tau > total):
        raise DomainError(
            "service never caught up with arrivals; system looks unstable"
        )
    delay = tau - t_idx
    return {float(d): float(np.mean(delay > d)) for d in d_th_list}


def queue_growth_ratio(
    alpha_bits: float,
    bits_per_block: float,
    eps: float,
    n_blocks: int,
    rng: np.random.Generator,
) -> float:
    """Mean backlog of the second half over the first half of the horizon.

    Near 1 for a stable queue; about 3 when the backlog grows linearly.
    """
    served = bits_per_block * (rng.random(n_blocks) >= eps)
    backlog = _backlog(alpha_bits, served)[1:]
    half = n_blocks // 2
    first = float(np.mean(backlog[:half]))
    second = float(np.mean(backlog[half:]))
    return second / max(first, 1e-12)
