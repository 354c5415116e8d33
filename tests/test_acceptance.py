"""Acceptance suite: one test per exit criterion, with stated tolerances.

Each test prints a PASS line on success (run with -s or check the captured
output); a failed assertion is the FAIL signal. Runtime limits from the
criteria are asserted alongside the numeric checks.
"""
import json
import math
import time

import numpy as np
import pytest

from stinqos.aoi import (
    departure_times,
    departure_times_maxplus,
    sample_updates,
    violation_frequency,
)
from stinqos.channel import (
    ShadowedRicianParams,
    sample_channel_gain,
    shadowed_rician_pdf,
    srician_cdf_grid,
)
from stinqos.cli import main
from stinqos.errors import StabilityError
from stinqos.experiments import (
    SweepSpec,
    default_scenario,
    fig4_models,
    queue_growth_ratio,
    run_fig3,
    simulate_delay_violation,
)
from stinqos.fbc import (
    CodingSpec,
    ErrorModel,
    average_error,
    error_exponent_closed_form,
    error_exponent_samples,
    gallager_e0_samples,
    sinr_quadrature,
)
from stinqos.experiments import run_fig5
from stinqos.snc import (
    constant_rate_arrival,
    delay_bound,
    optimize_paoi_bound,
    paoi_bound,
    stability_check,
)
from scipy.integrate import quad


def _announce(num: int, message: str) -> None:
    print(f"PASS criterion {num}: {message}")


FADING_GRID = [
    (0.126, 1, 0.835),
    (0.25, 2, 0.5),
    (0.1, 5, 2.0),
    (0.126, 10, 0.835),
    (0.3, 20, 1.5),
]


def test_criterion_1_channel_fidelity():
    start = time.time()
    n = 100_000
    for b, m, omega in FADING_GRID:
        p = ShadowedRicianParams(b=b, m=m, omega=omega)
        mass, _ = quad(lambda x: shadowed_rician_pdf(x, p), 0, np.inf, limit=200)
        assert abs(mass - 1.0) < 1e-6, f"normalization off for m={m}"
        rng = np.random.default_rng(202 + m)
        g = np.sort(sample_channel_gain(p, rng, size=n))
        edges, cdf_grid = srician_cdf_grid(p)
        cdf = np.interp(g, edges, cdf_grid, left=0.0, right=1.0)
        steps = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - steps)), np.max(np.abs(cdf - steps + 1.0 / n)))
        assert ks < 0.01, f"KS {ks} too large for m={m}"
    elapsed = time.time() - start
    assert elapsed < 30.0
    _announce(1, f"KS < 0.01 and unit mass on {len(FADING_GRID)} fading sets "
                 f"({elapsed:.1f} s)")


CROSS_SCENARIOS = [(0, 5.0), (0, 25.0), (1, 15.0), (4, 5.0), (4, 25.0),
                   (7, 15.0), (10, 25.0)]


def test_criterion_2_fbc_cross_validation():
    start = time.time()
    worst = 0.0
    for k, snr_db in CROSS_SCENARIOS:
        s = default_scenario(k=k, avg_snr_db=snr_db, seed=101)
        rate = 0.5 * np.log1p(10 ** (snr_db / 10.0))
        spec = CodingSpec(blocklength=64, code_size=2, rate=rate)
        quad_res = average_error(s, spec, ErrorModel(quad_tolerance=1e-8))
        mc_res = average_error(
            s, spec, ErrorModel(method="monte_carlo", sample_budget=100_000)
        )
        z = abs(quad_res.value - mc_res.value) / mc_res.std_error
        worst = max(worst, z)
        assert z <= 3.0, f"K={k}, SNR={snr_db}: |z| = {z:.2f} > 3"
    elapsed = time.time() - start
    assert elapsed < 60.0
    _announce(2, f"Monte Carlo and quadrature agree within 3 SE on "
                 f"{len(CROSS_SCENARIOS)} scenarios (worst |z| = {worst:.2f}, "
                 f"{elapsed:.1f} s)")


def test_criterion_3_maxplus_oracle():
    rng = np.random.default_rng(33)
    for _ in range(1000):
        arrivals = np.cumsum(rng.exponential(10.0, 50))
        services = rng.exponential(4.0, 50)
        fast = departure_times(arrivals, services)
        direct = departure_times_maxplus(arrivals, services)
        assert np.array_equal(fast, direct)
    _announce(3, "O(N) departure recursion equals the direct max-plus "
                 "evaluation exactly on 1000 random traces of N=50")


def test_criterion_4_paoi_bound_dominance():
    start = time.time()
    spec = SweepSpec(figure="fig4")
    am, sm, eps = fig4_models(spec)
    n = spec.blocklength
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(11, 0)))
    times = sample_updates(am, sm, 100_000, rng)

    a_grid = np.linspace(120_000.0, 300_000.0, 20)
    theta_grid = np.asarray(spec.theta_grid)
    assert len(theta_grid) == 20

    optimized = []
    for a_th in a_grid:
        emp = violation_frequency(*times, a_th)
        se = math.sqrt(max(emp * (1 - emp), 0.0) / 100_000)
        opt = optimize_paoi_bound(a_th, n, None, am, sm)
        optimized.append(opt)
        assert opt.bound_value >= emp - 3 * se, f"dominance fails at a_th={a_th}"
        bounds = [paoi_bound(t, a_th, n, None, am, sm).bound_value
                  for t in theta_grid]
        assert all(bounds[i + 1] < bounds[i] for i in range(len(bounds) - 1)), \
            f"bound not strictly decreasing in theta at a_th={a_th}"

    # log-bound slope vs threshold matches -theta*/n in the linear regime
    upper = range(len(a_grid) // 2, len(a_grid) - 1)
    for i in upper:
        slope = (
            math.log(optimized[i + 1].raw_bound) - math.log(optimized[i].raw_bound)
        ) / (a_grid[i + 1] - a_grid[i])
        theta_mid = 0.5 * (optimized[i].theta + optimized[i + 1].theta)
        assert abs(slope - (-theta_mid / n)) <= 0.01 * theta_mid / n
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(4, f"optimized bound dominates simulation on the 20x20 grid, "
                 f"decreases strictly in theta, slope = -theta*/n within 1% "
                 f"({elapsed:.1f} s)")


def test_criterion_5_delay_bound_dominance():
    start = time.time()
    spec = SweepSpec(figure="fig4")
    _, _, eps = fig4_models(spec)
    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    alpha = 28.0  # below the (1 - eps) * 32 bit service rate
    arrival = constant_rate_arrival(alpha)
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(13,)))
    d_grid = list(range(10))
    emp = simulate_delay_violation(alpha, coding.bits_per_block, eps, 100_000,
                                   d_grid, rng)
    for d in d_grid:
        rep = delay_bound(float(d), arrival, coding, eps)
        assert rep.bound_value >= emp[float(d)], f"delay dominance fails at D={d}"

    # pushing the arrival rate past the stability point must blow the margin
    # above 1 and make the simulated backlog grow without bound
    bad_alpha = 40.0
    ok, margin = stability_check(0.1, constant_rate_arrival(bad_alpha), coding, eps)
    assert not ok and margin > 1.0
    with pytest.raises(StabilityError):
        delay_bound(5.0, constant_rate_arrival(bad_alpha), coding, eps)
    g_stable = queue_growth_ratio(alpha, coding.bits_per_block, eps, 100_000,
                                  np.random.default_rng(55))
    g_unstable = queue_growth_ratio(bad_alpha, coding.bits_per_block, eps, 100_000,
                                    np.random.default_rng(55))
    assert g_stable < 1.5 and g_unstable > 2.0
    elapsed = time.time() - start
    assert elapsed < 120.0
    _announce(5, f"delay bound dominates simulation at 10 thresholds and the "
                 f"stability margin separates the divergent regime "
                 f"(growth {g_stable:.2f} vs {g_unstable:.2f}, {elapsed:.1f} s)")


def test_criterion_6_fig3_trends():
    start = time.time()
    spec = SweepSpec(figure="fig3", k_grid=tuple(range(0, 11)),
                     snr_points_db=(5.0, 15.0))
    table = run_fig3(spec)
    by = {(r["k"], r["snr_db"], r["system"]): r["mean_paoi_cu"] for r in table.rows}
    ks = list(range(1, 11))
    for snr in (5.0, 15.0):
        for system in ("stin", "psn"):
            seq = [by[(k, snr, system)] for k in ks]
            assert all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1)), \
                f"{system} not nondecreasing in K at {snr} dB"
    for k in ks:
        for system in ("stin", "psn"):
            assert by[(k, 15.0, system)] < by[(k, 5.0, system)], \
                f"{system} not decreasing from 5 to 15 dB at K={k}"
    for k in range(0, 11):
        for snr in (5.0, 15.0):
            assert by[(k, snr, "stin")] <= by[(k, snr, "psn")], \
                f"hybrid worse than satellite-only at K={k}, {snr} dB"
    elapsed = time.time() - start
    assert elapsed < 180.0
    _announce(6, f"peak AoI nondecreasing in K, decreasing in SNR, and hybrid "
                 f"<= satellite-only at every grid point ({elapsed:.1f} s)")


def test_criterion_7_fig5_trends_and_point_check():
    start = time.time()
    table = run_fig5(SweepSpec(figure="fig5", n_grid=(100, 200, 500, 1000, 2000)))
    numeric = [r["theta_numeric"] for r in table.rows]
    closed = [r["theta_closed_form"] for r in table.rows]
    assert all(numeric[i + 1] <= numeric[i] + 1e-12 for i in range(len(numeric) - 1))
    assert len(set(closed)) == 1
    assert all(v >= 0.0 for v in numeric + closed)

    s = default_scenario(k=1, avg_snr_db=15.0, seed=1)
    base = CodingSpec(blocklength=100, code_size=2, rate=1.0)
    rates = (0.5, 1.0, 1.5)
    theta_by_rate = [
        error_exponent_closed_form(
            s, CodingSpec(blocklength=100, code_size=2, rate=r)
        ).theta
        for r in rates
    ]
    assert theta_by_rate[0] > theta_by_rate[1] > theta_by_rate[2]

    from stinqos.channel import InterfererField, LinkBudget, Scenario

    def snr_scenario(p_s_db: float) -> Scenario:
        return Scenario(
            satellite=LinkBudget(carrier_hz=2e9, distance_m=1e6, tx_snr_db=p_s_db),
            fading=ShadowedRicianParams(b=0.126, m=10, omega=0.835),
            interferers=InterfererField(count=1, r_inner_m=2e3, r_outer_m=1e4,
                                        carrier_hz=2e9, tx_snr_db=0.0),
            rx_antennas=2,
            seed=0,
        )

    theta_by_ps = [
        error_exponent_closed_form(snr_scenario(db), base).theta
        for db in (8.0, 10.0, 12.0)
    ]
    assert theta_by_ps[0] < theta_by_ps[1] < theta_by_ps[2]

    # reference point: N_R=2, K=1, P_s=10, P_t=1, R*=1 nat
    point = error_exponent_closed_form(snr_scenario(10.0), base).theta
    expected = (math.log(9.0) - 1.0) ** 2 / (4.0 - 2.0 / 9.0)
    assert abs(point - expected) < 1e-12
    assert abs(point - 0.37942) < 1e-4
    elapsed = time.time() - start
    _announce(7, f"numeric exponent nonincreasing in n, closed form n-free with "
                 f"the right monotonicities, point check {point:.5f} ({elapsed:.1f} s)")


def test_criterion_8_gallager_structure():
    start = time.time()
    scenarios = [
        default_scenario(k=0, avg_snr_db=5.0, seed=301),
        default_scenario(k=0, avg_snr_db=25.0, seed=302),
        default_scenario(k=1, avg_snr_db=15.0, seed=303),
        default_scenario(k=4, avg_snr_db=10.0, seed=304),
        default_scenario(k=2, avg_snr_db=20.0, seed=305),
    ]
    rhos = np.linspace(0.0, 1.0, 21)
    for s in scenarios:
        gam, wts = sinr_quadrature(s)
        e0 = np.array([gallager_e0_samples(r, gam, 300, wts) for r in rhos])
        assert np.all(np.diff(e0) >= -1e-8), "E0 not nondecreasing"
        assert np.all(np.diff(e0, 2) <= 1e-8), "E0 not concave"

    # point-mass channel: zero exponent at or above capacity
    for gamma in (0.5, 1.0, 4.0):
        theta, rho = error_exponent_samples(
            np.array([gamma]), np.log1p(gamma), 500
        )
        assert theta == 0.0 and rho == 0.0
        theta2, _ = error_exponent_samples(
            np.array([gamma]), 1.5 * np.log1p(gamma), 500
        )
        assert theta2 == 0.0

    theta, _ = error_exponent_samples(np.array([1.0]), 0.2, 500)
    assert abs(theta - (math.log(1.5) - 0.2)) < 1e-6
    elapsed = time.time() - start
    _announce(8, f"E0 concave nondecreasing on 5 scenarios, zero exponent at "
                 f"capacity, deterministic point check within 1e-6 ({elapsed:.1f} s)")


def test_criterion_9_reproducibility(tmp_path):
    start = time.time()
    cfg = {
        "command": "sweep",
        "seed": 77,
        "output": str(tmp_path / "a.csv"),
        "params": {
            "figure": "fig3",
            "k_grid": [0, 2, 4],
            "replications": 2,
            "n_updates": 3000,
            "error_draws": 20_000,
        },
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([str(path)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main([str(path)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == first

    cfg2 = dict(cfg, output=str(tmp_path / "b.csv"))
    path2 = tmp_path / "cfg2.json"
    path2.write_text(json.dumps(cfg2), encoding="utf-8")
    assert main([str(path2), "--workers", "2"]) == 0
    body_a = [l for l in (tmp_path / "a.csv").read_text().split("\n")
              if not l.startswith("# output")]
    body_b = [l for l in (tmp_path / "b.csv").read_text().split("\n")
              if not l.startswith("# output")]
    assert body_a == body_b
    elapsed = time.time() - start
    _announce(9, f"reruns are byte-identical and worker count does not change "
                 f"the output ({elapsed:.1f} s)")
