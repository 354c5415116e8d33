"""Acceptance suite: one test per exit criterion, with stated tolerances.

Each test prints a PASS line on success (run with -s or check the captured
output); a failed assertion is the FAIL signal. Runtime limits from the
criteria are asserted alongside the numeric checks.
"""
import json
import math
import time

import mpmath
import numpy as np
import pytest

from stinqos.aoi import (departure_times_maxplus, trace_blocks, trace_violation_frequency,
                         update_blocks)
from stinqos import fbc
from stinqos.channel import ShadowedRicianParams, shadowed_rician_pdf
from stinqos.cli import main
from stinqos.errors import StabilityError
from stinqos.experiments import (
    SweepSpec,
    default_scenario,
    fig4_models,
    run_fig3,
)
from stinqos.fbc import (
    CodingSpec,
    ErrorModel,
    average_error,
    error_exponent_closed_form,
    error_exponent_samples,
    gallager_e0_samples,
)
from stinqos.experiments import run_fig5
from stinqos.snc import (
    BitArrival,
    delay_bound,
    optimize_paoi_bound,
    paoi_bound,
    stability_check,
)
from scipy.integrate import quad
from oracles import (
    block_delays,
    delay_backlog_law,
    delay_violation_exact,
    mg1_sojourn_tail,
    paoi_violation_exact,
    queue_growth_ratio,
    simulate_delay_violation,
    srician_cdf_grid,
    unblocked_channel_gain,
)
from trace_helper import whole_trace, whole_updates


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
        g = np.sort(unblocked_channel_gain(p, rng, size=n))
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
        fast = whole_trace(arrivals, services)["departure"]
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
    trace = list(trace_blocks([whole_updates(am, sm, 100_000, rng)]))

    a_grid = np.linspace(120_000.0, 300_000.0, 20)
    theta_grid = np.asarray(spec.theta_grid)
    assert len(theta_grid) == 20

    optimized = []
    for a_th in a_grid:
        emp = trace_violation_frequency(trace, a_th)
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


def test_criterion_4_paoi_bound_against_exact_tail():
    # criterion 4's models and stream against the queue's exact stationary
    # peak-AoI tail, which criterion 4's 10^5-update simulation sees as 0
    # from 3,000 cu on
    spec = SweepSpec(figure="fig4")
    am, sm, eps = fig4_models(spec)
    n, rate = spec.blocklength, am.rate
    a_grid = [1_000.0, 2_000.0, 3_000.0, 10_000.0, 30_000.0, 100_000.0, 120_000.0,
              200_000.0, 300_000.0]
    exact = [paoi_violation_exact(rate, sm.n, eps, a) for a in a_grid]
    bound = [optimize_paoi_bound(a, n, None, am, sm) for a in a_grid]
    for a, e, rep in zip(a_grid, exact, bound):
        assert e > 0
        assert rep.bound_value >= e, f"bound below the exact tail at a_th={a}"
    # the whole inverted transform against its sum over attempt counts K = k,
    # where y = a - k n > 0, and P(K >= k) where y <= 0
    for a, e in zip(a_grid[:2], exact):
        ks = range(1, math.ceil(a / sm.n))
        by_k = sum((1 - eps) * eps ** (k - 1) * (1 - (1 - math.exp(-rate * (a - k * sm.n)))
                   * (1 - mg1_sojourn_tail(rate, sm.n, eps, a - k * sm.n))) for k in ks)
        assert abs(by_k + eps ** len(ks) - e) <= 1e-9 * e

    # the simulated sojourn and peak-AoI tails against the exact ones
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(11, 0)))
    n_updates, batches = 1_000_000, 20
    sojourn, peak = (np.concatenate(col) for col in zip(*(
        block[-2:] for block in trace_blocks(update_blocks(am, sm, n_updates, rng)))))
    y_grid = [100.0, 150.0, 200.0, 300.0]
    checks = [(sojourn, y_grid, [mg1_sojourn_tail(rate, sm.n, eps, y) for y in y_grid]),
              (peak, a_grid, exact)]
    checked = 0
    for column, grid, tail in checks:
        for a, e in zip(grid, tail):
            hits = column > a
            if np.count_nonzero(hits) < 100:
                continue
            # violations cluster, so the standard error is of batch means
            se = np.std(hits.reshape(batches, -1).mean(axis=1), ddof=1) / math.sqrt(batches)
            assert abs(np.mean(hits) - float(e)) <= 3.0 * se, f"simulation off at {a} cu"
            checked += 1
    assert checked >= 6
    tightness = ", ".join(f"{float(mpmath.log10(rep.raw_bound / e)):.1f}"
                          for rep, e in zip(bound, exact))
    _announce(4, f"peak-AoI bound above the exact stationary tail at a_th = "
                 f"1,000..300,000 cu (log10 raw bound/exact: {tightness}), simulated "
                 f"sojourn and peak AoI within 3 batch-means SE at {checked} thresholds")


def test_criterion_5_delay_bound_dominance():
    start = time.time()
    spec = SweepSpec(figure="fig4")
    _, _, eps = fig4_models(spec)
    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    alpha = 28.0  # below the (1 - eps) * 32 bit service rate
    arrival = BitArrival.constant_rate(alpha)
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
    ok, margin = stability_check(0.1, BitArrival.constant_rate(bad_alpha), coding, eps)
    assert not ok and margin > 1.0
    with pytest.raises(StabilityError):
        delay_bound(5.0, BitArrival.constant_rate(bad_alpha), coding, eps)
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


def test_criterion_5_delay_bound_against_exact_tail():
    # criterion 5's model and stream against the queue's exact stationary
    # tail, which the 10^5-block simulation sees as 0 from D = 2 on
    spec = SweepSpec(figure="fig4")
    _, _, eps = fig4_models(spec)
    coding = CodingSpec(blocklength=spec.blocklength, code_size=spec.code_size)
    alpha, bits = 28, int(coding.bits_per_block)
    arrival = BitArrival.constant_rate(float(alpha))
    pi = delay_backlog_law(alpha, bits, eps)
    d_grid = list(range(10))
    exact = [delay_violation_exact(alpha, bits, eps, d, pi) for d in d_grid]
    bound = [delay_bound(float(d), arrival, coding, eps).raw_bound for d in d_grid]
    for d in d_grid:
        assert exact[d] > 0.0
        assert min(1.0, bound[d]) >= exact[d], f"bound below the exact tail at D={d}"
    # the bound decays per block as the exact tail does
    bound_decay = math.log(bound[3] / bound[4])
    exact_decay = math.log(exact[3] / exact[4])
    assert abs(bound_decay - exact_decay) <= 0.05 * exact_decay

    def stream():
        return np.random.default_rng(np.random.SeedSequence(spec.seed, spawn_key=(13,)))

    n_blocks, batches = 100_000, 20
    emp = simulate_delay_violation(float(alpha), float(bits), eps, n_blocks, d_grid,
                                   stream())
    delays = block_delays(float(alpha), float(bits), eps, n_blocks, max(d_grid) + 10,
                          stream())
    checked = 0
    for d in d_grid:
        hits = delays > d
        assert np.mean(hits) == emp[float(d)]
        if np.count_nonzero(hits) < 100:
            continue
        # violations cluster, so the standard error is of batch means
        se = np.std(hits.reshape(batches, -1).mean(axis=1), ddof=1) / math.sqrt(batches)
        assert abs(emp[float(d)] - exact[d]) <= 3.0 * se, f"simulation off at D={d}"
        checked += 1
    assert checked >= 1
    tightness = ", ".join(f"{math.log10(b / e):.1f}" for b, e in zip(bound, exact))
    _announce(5, f"delay bound above the exact stationary tail at D = 0..9 "
                 f"(log10 raw bound/exact: {tightness}), decay per block "
                 f"{bound_decay:.2f} vs exact {exact_decay:.2f}")


def test_criterion_6_fig3_trends():
    start = time.time()
    spec = SweepSpec(figure="fig3", k_grid=tuple(range(0, 11)),
                     snr_points_db=(5.0, 15.0))
    table = run_fig3(spec)
    by = {(r["k"], r["snr_db"], r["system"]): r["mean_paoi_cu"] for r in table}
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
    numeric = [r["theta_numeric"] for r in table]
    closed = [r["theta_closed_form"] for r in table]
    assert all(numeric[i + 1] <= numeric[i] + 1e-12 for i in range(len(numeric) - 1))
    assert len(set(closed)) == 1
    assert all(v >= 0.0 for v in numeric + closed)

    s = default_scenario(k=1, avg_snr_db=15.0, seed=1)
    base = CodingSpec(blocklength=100, code_size=2, rate=1.0)
    rates = (0.5, 1.0, 1.5)
    theta_by_rate = [
        error_exponent_closed_form(
            s, CodingSpec(blocklength=100, code_size=2, rate=r)
        )
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
        error_exponent_closed_form(snr_scenario(db), base)
        for db in (8.0, 10.0, 12.0)
    ]
    assert theta_by_ps[0] < theta_by_ps[1] < theta_by_ps[2]

    # reference point: N_R=2, K=1, P_s=10, P_t=1, R*=1 nat
    point = error_exponent_closed_form(snr_scenario(10.0), base)
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
        gam, wts = next(fbc._sinr_rules(s, (96,)))
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
