"""Job lists of the benchmark's four workloads, generated from a workload seed.

Each job is one JSON config for ``python -m stinqos``. The same seed gives
the same jobs. Jobs whose outputs are analytic (quadrature, bounds) draw
their inputs from one of ``N_VARIANTS`` variants of the seed, so that every
seed has reference values recorded in ``reference.json``; simulation-only
jobs use the full seed.
"""
from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass

DEFAULT_SEED = 1
N_VARIANTS = 8

WHY = {
    "trace_export": "aoi-sim traces of 1.5e6 updates in all: the only "
                    "output-bound path, where CSV rendering and per-row dicts "
                    "dominate",
    "figure_sweeps": "fig3, stin_psn, fig4 and fig5 sweeps at default grids "
                     "plus fig3 on 2 workers: the Lindley loop, the coupled "
                     "error table and the process pool",
    "link_error": "error and exponent jobs in quadrature at K 0..5, m 10 and "
                  "10.5, each error paired with Monte Carlo: the fbc, channel "
                  "and optimize layers",
    "bound_queries": "16 short paoi-bound and delay-bound jobs: start-up, the "
                     "snc kernels and the theta search set the job time",
}

MC_DRAWS = 1_000_000
# six equal aoi-sim jobs, 1.5e6 updates in all: equal sizes keep the median
# job a typical one
TRACE_UPDATES = 250_000
_SAT_TX_SNR_DB = 153.1  # 15 dB average received SNR for the default fading
_INTF_TX_SNR_DB = 112.6  # -3 dB INR at the annulus RMS distance


@dataclass
class Job:
    """One CLI run: its config, worker count and what its check needs.

    ``ref_fields`` are the CSV columns compared with ``reference.json``;
    ``pair`` names the Monte Carlo job a quadrature error is checked against;
    ``may_refuse`` marks the known-failing paper-range job (quadrature at
    K >= 7 exits 4 with a numeric error).
    """

    name: str
    config: dict
    workers: int = 1
    ref_fields: tuple = ()
    pair: str | None = None
    may_refuse: bool = False

    def key(self) -> str:
        text = json.dumps([self.config, self.workers], sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def variant_seed(seed: int) -> int:
    return 1000 + seed % N_VARIANTS


def _scenario(k: int, m: float) -> dict:
    return {
        "satellite": {"carrier_hz": 2.0e9, "distance_m": 1.0e6,
                      "gain_tx_dbi": 20.0, "gain_rx_dbi": 0.0,
                      "tx_snr_db": _SAT_TX_SNR_DB},
        "fading": {"b": 0.126, "m": m, "omega": 0.835},
        "interferers": {"count": k, "r_inner_m": 2000.0, "r_outer_m": 10000.0,
                        "carrier_hz": 2.0e9, "tx_snr_db": _INTF_TX_SNR_DB},
        "rx_antennas": 2,
    }


def trace_export(seed: int) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for i in range(3):
        jobs.append(Job(f"aoi_poisson_arq_{i}", {
            "command": "aoi-sim", "seed": rng.randrange(2 ** 32),
            "params": {"n_updates": TRACE_UPDATES,
                       "arrival": {"kind": "poisson",
                                   "rate": 1.0 / rng.uniform(2000.0, 6000.0)},
                       "service": {"kind": "arq", "n": 64,
                                   "epsilon": rng.uniform(0.05, 0.3)}},
        }))
        jobs.append(Job(f"aoi_det_fixed_{i}", {
            "command": "aoi-sim", "seed": rng.randrange(2 ** 32),
            "params": {"n_updates": TRACE_UPDATES,
                       "arrival": {"kind": "deterministic",
                                   "period": rng.uniform(66.0, 100.0)},
                       "service": {"kind": "fixed", "n": 64}},
        }))
    return jobs


def figure_sweeps(seed: int) -> list[Job]:
    sim_seed = random.Random(seed).randrange(2 ** 32)
    vseed = variant_seed(seed)

    def sweep(figure, s):
        return {"command": "sweep", "seed": s, "params": {"figure": figure, "seed": s}}

    return [
        Job("fig3", sweep("fig3", sim_seed)),
        Job("stin_psn", sweep("stin_psn", sim_seed)),
        Job("fig4", sweep("fig4", vseed), ref_fields=("bound", "kernel", "eps")),
        Job("fig5", sweep("fig5", vseed),
            ref_fields=("theta_numeric", "theta_closed_form")),
        Job("fig3_workers2", sweep("fig3", sim_seed), workers=2),
    ]


def link_error(seed: int) -> list[Job]:
    vseed = variant_seed(seed)
    jobs = []

    def error_pair(k, m, may_refuse=False):
        base = {"command": "error", "seed": vseed, "scenario": _scenario(k, m)}
        mc = f"error_mc_k{k}_m{m}"
        jobs.append(Job(f"error_quad_k{k}_m{m}", base,
                        ref_fields=() if may_refuse else ("avg_error",),
                        pair=mc, may_refuse=may_refuse))
        jobs.append(Job(mc, dict(base, error_model={
            "method": "monte_carlo", "sample_budget": MC_DRAWS})))

    for k in range(6):
        for m in (10, 10.5):
            error_pair(k, m)
    for k in range(4):
        for m in (10, 10.5):
            jobs.append(Job(f"exponent_quad_k{k}_m{m}", {
                "command": "exponent", "seed": vseed, "scenario": _scenario(k, m)},
                ref_fields=("theta_numeric", "theta_closed_form")))
    error_pair(random.Random(seed).randint(7, 10), 10, may_refuse=True)
    return jobs


def bound_queries(seed: int) -> list[Job]:
    vseed = variant_seed(seed)
    rng = random.Random(vseed)
    jobs = []
    gap = rng.uniform(200.0, 400.0)
    eps = rng.uniform(0.05, 0.2)
    arrivals = {"poisson": {"kind": "poisson", "rate": 1.0 / gap},
                "det": {"kind": "deterministic", "period": gap}}
    services = {"arq": {"kind": "arq", "n": 64, "epsilon": eps},
                "fixed": {"kind": "fixed", "n": 64},
                "scenario": None}
    # theta "opt" searches the feasible interval; a number c is the fixed
    # theta c / gap, inside the feasible interval of every model pair here
    paoi = [
        ("poisson", "arq", "opt", "inf"), ("det", "arq", "opt", "inf"),
        ("poisson", "fixed", "opt", "inf"), ("det", "fixed", "opt", 64),
        ("poisson", "arq", "opt", 32), ("poisson", "scenario", "opt", "inf"),
        ("poisson", "arq", 0.3, "inf"), ("det", "arq", 0.5, 16),
        ("poisson", "fixed", 0.5, 128),
    ]
    for a, s, theta, u in paoi:
        params = {"a_th_cu": rng.uniform(1.0e5, 2.0e5), "u": u,
                  "arrival": arrivals[a]}
        if services[s] is not None:
            params["service"] = services[s]
        params["theta"] = "optimize" if theta == "opt" else theta / gap
        jobs.append(Job(f"paoi_{a}_{s}_{theta}_{u}", {
            "command": "paoi-bound", "seed": vseed, "params": params},
            ref_fields=("bound", "kernel")))
    delay = [
        ("constant_rate", 1, 5.0), ("constant_rate", 1, 10.0),
        ("poisson_batch", 1, 5.0), ("poisson_batch", 1, 8.0),
        ("constant_rate", 2, 6.0), ("poisson_batch", 3, 6.0),
        ("constant_rate", 0, 3.0),
    ]
    for kind, k, d_th in delay:
        params = {"arrival_kind": kind, "d_th_blocks": d_th}
        if kind == "constant_rate":
            params["alpha_bits"] = rng.uniform(16.0, 24.0)
        else:
            params["rate_per_block"] = rng.uniform(0.5, 0.8)
            params["batch_bits"] = rng.uniform(20.0, 28.0)
        jobs.append(Job(f"delay_{kind}_k{k}_d{d_th:g}", {
            "command": "delay-bound", "seed": vseed,
            "scenario": {"k": k}, "params": params},
            ref_fields=("bound", "kernel")))
    return jobs


WORKLOADS = {
    "trace_export": trace_export,
    "figure_sweeps": figure_sweeps,
    "link_error": link_error,
    "bound_queries": bound_queries,
}
