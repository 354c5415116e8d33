"""Sweep table tests: trends, pairing, reproducibility."""
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stinqos.cli import main
from stinqos.csvio import write_csv
from stinqos.errors import ConfigError, DomainError, NumericError
from stinqos import aoi, channel, experiments
from stinqos.aoi import geometric_attempts, trace_blocks, trace_violation_frequency
from stinqos.experiments import (
    _SYSTEMS,
    SweepSpec,
    _coupled_error_table,
    _sweep_means,
    default_scenario,
    fig4_models,
    run_fig3,
    run_fig4,
    run_fig5,
    run_sweep,
    compare_stin_psn,
)
from oracles import (_backlog, mg1_mean_peak_aoi, queue_growth_ratio,
                     simulate_delay_violation)
from trace_helper import (block_mean, traced_peak, whole_error_table,
                          whole_rep_draws, whole_trace, whole_updates)


def small_fig3_spec(**kw):
    base = dict(
        figure="fig3",
        replications=2,
        n_updates=4000,
        k_grid=(0, 1, 3, 6),
        error_draws=20_000,
    )
    base.update(kw)
    return SweepSpec(**base)


def table_lookup(tab, keys):
    return {tuple(r[k] for k in keys): r for r in tab}


class TestFig3:
    def test_trends(self):
        tab = run_fig3(small_fig3_spec())
        by = table_lookup(tab, ("k", "snr_db", "system"))
        ks = [1, 3, 6]
        for snr in (5.0, 15.0):
            for system in ("stin", "psn"):
                seq = [by[(k, snr, system)]["mean_paoi_cu"] for k in ks]
                assert all(seq[i] <= seq[i + 1] for i in range(len(seq) - 1))
        for k in (0, 1, 3, 6):
            for system in ("stin", "psn"):
                assert (
                    by[(k, 15.0, system)]["mean_paoi_cu"]
                    <= by[(k, 5.0, system)]["mean_paoi_cu"]
                )

    def test_k0_hybrid_equals_satellite_only(self):
        tab = run_fig3(small_fig3_spec())
        by = table_lookup(tab, ("k", "snr_db", "system"))
        for snr in (5.0, 15.0):
            assert by[(0, snr, "stin")]["mean_paoi_cu"] == \
                by[(0, snr, "psn")]["mean_paoi_cu"]

    def test_relay_disabled_gives_identical_systems(self):
        tab = run_fig3(small_fig3_spec(relay_prob=0.0))
        by = table_lookup(tab, ("k", "snr_db", "system"))
        for k in (0, 1, 3, 6):
            for snr in (5.0, 15.0):
                assert by[(k, snr, "stin")]["mean_paoi_cu"] == \
                    by[(k, snr, "psn")]["mean_paoi_cu"]

    def test_single_replication_has_zero_half_width(self):
        tab = run_fig3(small_fig3_spec(replications=1, k_grid=(0, 2),
                                       n_updates=1000, error_draws=5000))
        assert len(tab) == 8
        assert all(r["ci_half_width_cu"] == 0.0 and r["mean_paoi_cu"] > 0.0
                   for r in tab)

    def test_half_width_shrinks_with_replications(self):
        # 4x replications should halve the width, within 20 percent; the
        # counts are large enough that the width estimate itself concentrates
        lo = run_fig3(small_fig3_spec(replications=64, k_grid=(2,),
                                      snr_points_db=(15.0,), n_updates=1000,
                                      error_draws=10_000))
        hi = run_fig3(small_fig3_spec(replications=256, k_grid=(2,),
                                      snr_points_db=(15.0,), n_updates=1000,
                                      error_draws=10_000))
        w_lo = lo[0]["ci_half_width_cu"]
        w_hi = hi[0]["ci_half_width_cu"]
        assert w_hi / w_lo == pytest.approx(0.5, rel=0.2)


def block_start_shares(arrivals, services, departures, block=aoi._TRACE_ROWS):
    """The share of each block's updates that start a wait, as
    aoi.departure_row counts them: the first update where it arrives no
    later than the departure before the block, any other where it arrives
    no later than the one before it would depart unqueued. A block where the
    share is a quarter or more is start-heavy, and the short-gap sweep below
    checks such blocks against the whole trace as well as the others."""
    starts = np.concatenate(([False], arrivals[1:] <= arrivals[:-1] + services[:-1]))
    edges = np.arange(block, len(arrivals), block)
    starts[edges] = arrivals[edges] <= departures[edges - 1]
    return [np.mean(starts[i:i + block]) for i in range(0, len(arrivals), block)]


class TestBatchedSweep:
    @pytest.mark.parametrize("slot_scaling, gap_cu", [
        pytest.param(True, None, id="True"), pytest.param(False, None, id="False"),
        # gaps short enough that some rows' blocks are start-heavy, with a
        # quarter or more of starts, so those go through the check too
        pytest.param(True, 300.0, id="short-gap")])
    def test_means_equal_one_trace_per_row(self, slot_scaling, gap_cu):
        # one whole trace per row, the oracle of the sweep's block-by-block
        # departures, on whole drawn columns over two trace blocks and five
        # rows; each mean adds its per-block sums in block order
        gap = {} if gap_cu is None else {"arrival_mean_gap_cu": gap_cu}
        spec = small_fig3_spec(k_grid=(0, 2, 5), n_updates=2 * aoi._TRACE_ROWS + 5,
                               relay_prob=0.3, slot_scaling=slot_scaling, **gap)
        eps_sat, eps_ter = _coupled_error_table(spec)
        batched = _sweep_means(spec, eps_sat, eps_ter)
        n_snr = len(spec.snr_points_db)
        assert batched.shape == (len(spec.k_grid) * n_snr, 2, spec.replications)
        shares = []
        for rep in range(spec.replications):
            arrivals, u_att, v_route = whole_rep_draws(spec, rep)
            for ki, k in enumerate(spec.k_grid):
                for si in range(n_snr):
                    att_sat = geometric_attempts(u_att, eps_sat[ki, si])
                    att_ter = geometric_attempts(u_att, eps_ter[ki, si])
                    use_relay = (v_route < spec.relay_prob) & (k >= 1)
                    att_stin = np.where(use_relay, att_ter, att_sat)
                    slots = max(k, 1) if slot_scaling else 1
                    for system, att in (("psn", att_sat), ("stin", att_stin)):
                        trace = whole_trace(arrivals,
                                            float(spec.blocklength * slots) * att)
                        row = batched[ki * n_snr + si, _SYSTEMS.index(system)]
                        assert row[rep] == block_mean(trace["peak_aoi"],
                                                      aoi._TRACE_ROWS)
                        shares += block_start_shares(arrivals, trace["service"],
                                                     trace["departure"])
        if gap_cu is not None:  # start-heavy blocks and others both checked
            assert min(shares) < 0.25 <= max(shares)

    def test_error_table_equals_whole_draws(self):
        # two blocks of channel._BLOCK_ROWS draws and five more
        spec = small_fig3_spec(k_grid=(0, 1, 4, 7), relay_prob=0.3,
                               error_draws=2 * channel._BLOCK_ROWS + 5)
        got, want = _coupled_error_table(spec), whole_error_table(spec)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_sweep_memory_does_not_grow_with_updates(self):
        # one block of draws and one block step at any n_updates; whole
        # columns would add 3.2 MB at 2^16 updates
        spec = small_fig3_spec(replications=1, k_grid=(0, 2), snr_points_db=(15.0,),
                               error_draws=1000)
        eps = _coupled_error_table(spec)
        peaks = [traced_peak(_sweep_means, replace(spec, n_updates=n), *eps)
                 for n in (1 << 12, 1 << 12, 1 << 16)]  # the first fills caches
        assert peaks[2] - peaks[1] < 0.5e6, peaks

    def test_sweep_memory_does_not_grow_with_grid(self):
        # one block step at a time at any number of grid points; a block of
        # two service rows per point would add 6.4 MB from 2 to 100 points
        spec = small_fig3_spec(replications=1, n_updates=1 << 12, snr_points_db=(15.0,),
                               error_draws=1000)
        peaks = []
        for k_grid in ((0, 1), (0, 1), tuple(range(100))):  # the first fills caches
            grid = replace(spec, k_grid=k_grid)
            peaks.append(traced_peak(_sweep_means, grid, *_coupled_error_table(grid)))
        assert peaks[2] - peaks[1] < 1e6, peaks

    def test_error_table_memory_per_draw(self):
        # one block of each gain at any error_draws: whole satellite and
        # relay gains would add 16 B per draw, 1.6 MB from 2^15 to 2^17 draws
        spec = small_fig3_spec(k_grid=(0, 5, 10), snr_points_db=(15.0,))
        peaks = [traced_peak(_coupled_error_table, replace(spec, error_draws=n))
                 for n in (1 << 15, 1 << 15, 1 << 17)]  # the first fills caches
        assert peaks[2] - peaks[1] < 0.5e6, peaks

    def test_error_table_holds_one_block(self):
        # a block of draws at k_max 10 is 15 columns of 2^14 float64 values
        # (the interferer gains, amplitude, phase, two scatter columns and
        # the relay gains); a block still held while the next is drawn would
        # make the peak about twice that
        spec = small_fig3_spec(k_grid=(0, 10), snr_points_db=(15.0,),
                               error_draws=3 * channel._BLOCK_ROWS)
        _coupled_error_table(spec)
        peak = traced_peak(_coupled_error_table, spec)
        assert peak < 1.6 * 15 * 8 * channel._BLOCK_ROWS, peak

    @pytest.mark.parametrize("figure", ["fig3", "stin_psn", "fig4", "fig5"])
    def test_workers_start_no_process_pool(self, tmp_path, monkeypatch, figure):
        # --workers is accepted and ignored: every figure runs in this
        # process and writes the same bytes as at --workers 1
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("process pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        params = {"figure": figure, "k_grid": [0, 2], "n_updates": 500,
                  "error_draws": 20_000, "fig4_n_updates": 2000,
                  "n_grid": [100, 200]}
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"command": "sweep", "seed": 5,
                                      "params": params}), encoding="utf-8")
        bodies = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.csv"
            assert main([str(config), "--output", str(out),
                         "--workers", workers]) == 0
            bodies.append([line for line in out.read_text().split("\n")
                           if not line.startswith("# output=")])
        assert bodies[0] == bodies[1]

    @pytest.mark.parametrize("override", [{"snr_points_db": (-400.0,)},
                                          {"relay_boost_db": -400.0}])
    def test_certain_decoding_failure_is_domain_error(self, override):
        spec = small_fig3_spec(n_updates=200, error_draws=1000, **override)
        with pytest.raises(DomainError):
            run_fig3(spec)

    def test_unused_certain_relay_failure_is_harmless(self):
        # with the relay never taken, its error probability never matters
        spec = small_fig3_spec(relay_prob=0.0, relay_boost_db=-400.0,
                               n_updates=200, error_draws=1000)
        by = table_lookup(run_fig3(spec), ("k", "snr_db", "system"))
        for k in spec.k_grid:
            for snr in spec.snr_points_db:
                assert by[(k, snr, "stin")]["eps_ter"] == 1.0
                assert by[(k, snr, "stin")]["mean_paoi_cu"] == \
                    by[(k, snr, "psn")]["mean_paoi_cu"]


class TestStinPsn:
    def test_hybrid_never_worse(self):
        tab = compare_stin_psn(small_fig3_spec(figure="stin_psn"))
        assert all(r["advantage_cu"] >= 0.0 for r in tab)

    def test_advantage_widens_at_low_snr(self):
        tab = compare_stin_psn(small_fig3_spec(figure="stin_psn"))
        by = table_lookup(tab, ("k", "snr_db"))
        for k in (1, 3, 6):
            assert by[(k, 5.0)]["advantage_cu"] >= by[(k, 15.0)]["advantage_cu"]


class TestMG1Mean:
    def test_rows_against_exact_mean(self):
        # each (K, SNR, system) point is an M/G/1 FCFS queue: Poisson
        # arrivals and ARQ service with the row's own decoding errors, so
        # its mean peak AoI is Pollaczek-Khinchine's; the points share their
        # streams, so the bound on |z| is a family-wise one
        spec = SweepSpec(figure="fig3", replications=20)
        rate = 1.0 / spec.arrival_mean_gap_cu
        rows = run_fig3(spec)
        assert len(rows) == 44
        for row in rows:
            k = row["k"]
            slot = spec.blocklength * (max(k, 1) if spec.slot_scaling else 1)
            p_relay = spec.relay_prob if row["system"] == "stin" and k >= 1 else 0.0
            exact = mg1_mean_peak_aoi(rate, slot, [(p_relay, row["eps_ter"]),
                                                   (1.0 - p_relay, row["eps_sat"])])
            z = (row["mean_paoi_cu"] - exact) / (row["ci_half_width_cu"] / 1.96)
            assert abs(z) <= 4.5, f"{row['system']} at K={k}, {row['snr_db']} dB: z={z:.2f}"
        # stin_psn reports the same means, so the same check holds for it
        by = table_lookup(rows, ("k", "snr_db", "system"))
        for r in compare_stin_psn(replace(spec, figure="stin_psn")):
            assert r["mean_paoi_stin_cu"] == by[(r["k"], r["snr_db"], "stin")]["mean_paoi_cu"]
            assert r["mean_paoi_psn_cu"] == by[(r["k"], r["snr_db"], "psn")]["mean_paoi_cu"]


class TestFig4:
    def test_columns_and_trends(self):
        tab = run_fig4(SweepSpec(figure="fig4"))
        assert list(tab[0])[:4] == ["theta", "bound", "empirical", "a_th"]
        bounds = [r["bound"] for r in tab]
        assert all(bounds[i + 1] < bounds[i] for i in range(len(bounds) - 1))
        empirical = {r["empirical"] for r in tab}
        assert len(empirical) == 1  # simulation does not depend on theta
        assert all(r["bound"] >= r["empirical"] for r in tab)

    def test_empirical_equals_whole_column_count(self):
        # the streamed draw and count over three trace blocks and five rows
        # against the count over whole drawn columns
        spec = SweepSpec(figure="fig4", fig4_n_updates=3 * aoi._TRACE_ROWS + 5,
                         a_th_cu=1000.0, theta_grid=(0.002,))
        rng = np.random.default_rng(
            np.random.SeedSequence(spec.seed, spawn_key=(channel._STREAM_SWEEP_TRACE, 0)))
        am, sm, _ = fig4_models(spec)
        times = whole_updates(am, sm, spec.fig4_n_updates, rng)
        want = trace_violation_frequency(trace_blocks([times]), spec.a_th_cu)
        assert want > 0
        assert run_fig4(spec)[0]["empirical"] == want

    def test_unbounded_theta_refused_before_any_draw(self, monkeypatch):
        # theta = 1 lies past the stable interval of the default models
        drawn, update_blocks = [], experiments.update_blocks
        monkeypatch.setattr(experiments, "update_blocks",
                            lambda *args: drawn.append(args) or update_blocks(*args))
        with pytest.raises(DomainError, match="service transform diverges"):
            run_fig4(SweepSpec(figure="fig4", theta_grid=(0.002, 1.0)))
        assert drawn == []


class TestGridCap:
    @pytest.mark.parametrize("figure", ["fig3", "stin_psn"])
    @pytest.mark.parametrize("k_count, snr_count", [(101, 10), (1, 1001), (1001, 1)])
    def test_refused_before_the_error_table(self, monkeypatch, figure, k_count,
                                            snr_count):
        def reached(spec):
            raise AssertionError("the error table was built")

        monkeypatch.setattr(experiments, "_coupled_error_table", reached)
        spec = SweepSpec(figure=figure, k_grid=tuple(range(k_count)),
                         snr_points_db=tuple(float(s) for s in range(snr_count)))
        with pytest.raises(NumericError, match=f"cap of {experiments.MAX_GRID_POINTS}"):
            run_sweep(spec)

    def test_grid_at_the_cap_is_run(self, monkeypatch):
        class Reached(Exception):
            pass

        def reached(spec):
            raise Reached

        monkeypatch.setattr(experiments, "_coupled_error_table", reached)
        spec = SweepSpec(figure="fig3", k_grid=tuple(range(100)),
                         snr_points_db=tuple(float(s) for s in range(10)))
        assert len(spec.k_grid) * len(spec.snr_points_db) == experiments.MAX_GRID_POINTS
        with pytest.raises(Reached):
            run_sweep(spec)


class TestFig5:
    def test_columns_and_trends(self):
        tab = run_fig5(SweepSpec(figure="fig5"))
        numeric = [r["theta_numeric"] for r in tab]
        closed = [r["theta_closed_form"] for r in tab]
        assert all(numeric[i + 1] <= numeric[i] + 1e-12 for i in range(len(numeric) - 1))
        assert len(set(closed)) == 1
        assert all(v >= 0.0 for v in numeric + closed)


def csv_text(path, table):
    """The table written with write_csv and read back."""
    columns = [[row[k] for row in table] for k in table[0]]
    write_csv(path, list(table[0]), [columns])
    return path.read_text(encoding="utf-8")


class TestReproducibility:
    def test_byte_identical_rerun(self, tmp_path):
        spec = small_fig3_spec()
        t1 = run_sweep(spec)
        t2 = run_sweep(spec)
        c1 = csv_text(tmp_path / "1.csv", t1)
        c2 = csv_text(tmp_path / "2.csv", t2)
        assert c1 == c2


class TestSweepSpecValidation:
    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            SweepSpec(figure="fig9")

    def test_empty_grid(self):
        with pytest.raises(ConfigError):
            SweepSpec(figure="fig3", k_grid=())

    @pytest.mark.parametrize("figure", ["fig3", "stin_psn"])
    @pytest.mark.parametrize("grid", [{"k_grid": (-1, 2)}, {"k_grid": (0, -3)},
                                      {"snr_points_db": ()}])
    def test_negative_k_and_empty_snr_grid(self, figure, grid):
        with pytest.raises(ConfigError):
            SweepSpec(figure=figure, **grid)


class TestDefaultScenario:
    def test_received_snr_calibration(self):
        s = default_scenario(k=2, avg_snr_db=12.0, seed=3)
        avg_rx_snr = s.satellite_coefficient * s.fading.mean_power
        assert 10 * math.log10(avg_rx_snr) == pytest.approx(12.0, abs=1e-9)

    def test_interferer_count(self):
        assert default_scenario(k=4).interferers.count == 4


class TestDelaySimulation:
    def test_no_failures_no_delay(self):
        rng = np.random.default_rng(0)
        out = simulate_delay_violation(4.0, 8.0, 0.0, 10_000, [0, 1, 2], rng)
        assert out[0.0] == 0.0

    def test_violation_decreasing_in_threshold(self):
        rng = np.random.default_rng(1)
        out = simulate_delay_violation(28.0, 32.0, 0.01, 100_000, list(range(8)), rng)
        vals = [out[float(d)] for d in range(8)]
        assert all(vals[i + 1] <= vals[i] for i in range(len(vals) - 1))
        assert vals[0] > 0.0

    def test_eps_validation(self):
        with pytest.raises(DomainError):
            simulate_delay_violation(1.0, 8.0, 1.0, 100, [0], np.random.default_rng(0))

    def test_backlog_equals_lindley_loop_for_integer_bits(self):
        served = 32.0 * (np.random.default_rng(3).random(20_000) >= 0.15)
        for alpha in (20.0, 28.0, 40.0):
            q, expected = 0.0, [0.0]
            for s in served:
                q = max(0.0, q + alpha - s)
                expected.append(q)
            assert np.array_equal(_backlog(alpha, served), np.array(expected))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 64), st.lists(st.integers(0, 64), min_size=1, max_size=500))
    # 64 / 3 served bits per block on average: loads 20 and 28 over it fall
    # below and above 1
    @example(20, [32, 0, 32] * 100)
    @example(28, [32, 0, 32] * 100)
    def test_backlog_closed_form_equals_lindley_loop(self, alpha, served):
        q, expected = 0.0, [0.0]
        for s in served:
            q = max(0.0, q + alpha - s)
            expected.append(q)
        got = _backlog(float(alpha), np.array(served, dtype=float))
        assert np.array_equal(got, np.array(expected))

    def test_growth_ratio_separates_regimes(self):
        stable = queue_growth_ratio(20.0, 32.0, 0.05, 100_000,
                                    np.random.default_rng(2))
        unstable = queue_growth_ratio(40.0, 32.0, 0.05, 100_000,
                                      np.random.default_rng(2))
        assert stable < 1.5
        assert unstable > 2.0
