"""CLI and configuration tests: parsing, dispatch, exit codes, determinism."""
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest

import stinqos
from stinqos import _startup, aoi, channel, cli, csvio, experiments, fbc
from stinqos.aoi import TRACE_FIELDS
from stinqos.cli import main
from stinqos.config import (
    apply_overrides, build_arrival, build_config, build_service, parse_config,
)
from stinqos.errors import ConfigError, DomainError
from stinqos.snc import QoSReport
from trace_helper import whole_trace, whole_updates


def write_config(tmp_path, payload, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


THEOREM_CONFIG = {
    "command": "exponent",
    "seed": 7,
    "scenario": {
        "satellite": {"carrier_hz": 2.0e9, "distance_m": 1.0e6, "tx_snr_db": 10.0},
        "fading": {"b": 0.126, "m": 10, "omega": 0.835},
        "interferers": {"count": 1, "r_inner_m": 2000.0, "r_outer_m": 10000.0,
                        "carrier_hz": 2.0e9, "tx_snr_db": 0.0},
        "rx_antennas": 2,
    },
    "coding": {"blocklength": 100, "code_size": 2, "rate": 1.0},
}


class TestParseConfig:
    def test_minimal_config_populates_defaults(self):
        rc = parse_config('{"command": "error", "seed": 1}')
        assert rc.output == "error.csv"
        assert rc.coding.blocklength == 64
        assert rc.error_model.method == "quadrature"
        assert rc.scenario.interferers.count == 1
        assert any("scenario=default" in d for d in rc.defaults_used)

    def test_bad_json(self):
        with pytest.raises(ConfigError) as info:
            parse_config("{not json")
        assert "line" in str(info.value)

    def test_radii_validation_names_both_keys(self):
        raw = {
            "command": "error",
            "seed": 1,
            "scenario": {
                "satellite": {"carrier_hz": 2e9, "distance_m": 1e6},
                "fading": {"b": 0.5, "m": 1, "omega": 1.0},
                "interferers": {"count": 1, "r_inner_m": 9000.0,
                                "r_outer_m": 2000.0, "carrier_hz": 2e9},
            },
        }
        with pytest.raises(ConfigError) as info:
            build_config(raw)
        msg = str(info.value)
        assert "r_inner_m" in msg and "r_outer_m" in msg

    def test_unknown_key_suggests_nearest(self):
        with pytest.raises(ConfigError) as info:
            build_config({"command": "error", "seed": 1,
                          "scenario": {"snr_db_typo": 3}})
        msg = str(info.value)
        assert "snr_db_typo" in msg and "nearest known key" in msg

    def test_unknown_command_suggests_nearest(self):
        with pytest.raises(ConfigError) as info:
            build_config({"command": "exponnent", "seed": 1})
        assert "exponent" in str(info.value)

    def test_seed_validation(self):
        for bad in (-1, 2 ** 64, 1.5, "zero", True):
            with pytest.raises(ConfigError):
                build_config({"command": "error", "seed": bad})

    def test_overrides(self):
        raw = {"command": "error", "seed": 1, "coding": {"blocklength": 64,
                                                         "code_size": 256}}
        apply_overrides(raw, ["coding.blocklength=128", "seed=9"])
        assert raw["coding"]["blocklength"] == 128 and raw["seed"] == 9
        with pytest.raises(ConfigError):
            apply_overrides(raw, ["coding={}"])
        with pytest.raises(ConfigError):
            apply_overrides(raw, ["noequalsign"])


class TestDispatch:
    def test_exponent_csv_contains_closed_form(self, tmp_path, capsys):
        cfg = dict(THEOREM_CONFIG, output=str(tmp_path / "exp.csv"))
        assert main([write_config(tmp_path, cfg)]) == 0
        text = (tmp_path / "exp.csv").read_text()
        value = float(text.strip().split("\n")[-1].split(",")[-1])
        assert value == pytest.approx(0.37942, abs=1e-4)

    def test_bound_row_field_order(self):
        rep = QoSReport(kind="delay", theta=0.4, bound_value=0.01, threshold=5.0,
                        kernel_value=0.01, raw_bound=0.01)
        fields, [columns] = cli._bound_table(rep, 9)
        assert fields == ["kind", "theta", "threshold", "kernel", "bound",
                          "stable", "seed"]
        assert [c[0] for c in columns] == ["delay", 0.4, 5.0, 0.01, 0.01, True, 9]

    def test_identical_runs_identical_bytes(self, tmp_path):
        cfg = dict(THEOREM_CONFIG, output=str(tmp_path / "a.csv"))
        path = write_config(tmp_path, cfg)
        assert main([path]) == 0
        first = (tmp_path / "a.csv").read_bytes()
        assert main([path]) == 0
        assert (tmp_path / "a.csv").read_bytes() == first

    def test_error_command(self, tmp_path):
        cfg = {"command": "error", "seed": 3, "output": str(tmp_path / "e.csv"),
               "error_model": {"method": "monte_carlo", "sample_budget": 5000}}
        assert main([write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "e.csv").read_text().strip().split("\n")
        header = [l for l in lines if not l.startswith("#")][0]
        assert header == "avg_error,std_error,achieved_tol,method"

    # integer and non-integer m share one 1F1 evaluation, so an m far past
    # the paper's range computes and lands next to its m + 0.5 neighbour
    @pytest.mark.parametrize("m", [10 ** 4 + 1, 1e6, 1e12, 1e12 + 0.5])
    def test_error_at_large_fading_m_matches_its_neighbour(self, tmp_path, capsys, m):
        errors = []
        for fading_m in (m, m + 0.5):
            scenario = dict(THEOREM_CONFIG["scenario"],
                            fading={"b": 0.126, "m": fading_m, "omega": 0.835})
            cfg = {"command": "error", "seed": 1, "output": str(tmp_path / "e.csv"),
                   "scenario": scenario}
            assert main([write_config(tmp_path, cfg)]) == 0
            lines = (tmp_path / "e.csv").read_text().strip().split("\n")
            row = [l for l in lines if not l.startswith("#")][1]
            errors.append(float(row.split(",")[0]))
        assert capsys.readouterr().err == ""
        assert 0.0 < errors[0] == pytest.approx(errors[1], rel=1e-6)

    def test_aoi_sim_trace(self, tmp_path):
        cfg = {"command": "aoi-sim", "seed": 5, "output": str(tmp_path / "t.csv"),
               "params": {"n_updates": 50,
                          "arrival": {"kind": "deterministic", "period": 500.0},
                          "service": {"kind": "fixed", "n": 64}}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rows = [l for l in (tmp_path / "t.csv").read_text().strip().split("\n")
                if not l.startswith("#")]
        assert rows[0] == "u,arrival,service,departure,sojourn,peak_aoi"
        assert len(rows) == 51

    def test_aoi_sim_equals_row_by_row_reference(self, tmp_path):
        # three writer chunks plus 17 rows of a streamed trace, against the
        # csv.writer rendering of the whole trace columns
        n = 3 * csvio._CHUNK_ROWS + 17
        cfg = {"command": "aoi-sim", "seed": 6, "output": str(tmp_path / "t.csv"),
               "params": {"n_updates": n,
                          "arrival": {"kind": "poisson", "rate": 1 / 300.0},
                          "service": {"kind": "arq", "n": 64, "epsilon": 0.3}}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rc = build_config(cfg)
        am = build_arrival(rc.params["arrival"], [])
        sm = build_service(rc.params["service"], [], rc)
        times = whole_updates(am, sm, n, rc.scenario.rng(channel.STREAM_TRACE))
        trace = whole_trace(*times)
        text = (tmp_path / "t.csv").read_bytes().decode("utf-8")
        comments = [line for line in text.split("\n") if line.startswith("#")]
        want = io.StringIO()
        want.writelines(line + "\n" for line in comments)
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(TRACE_FIELDS)
        for u, row in enumerate(zip(trace["arrival"], trace["service"], trace["departure"],
                                    trace["sojourn"], trace["peak_aoi"]), start=1):
            writer.writerow([u] + [csvio.format_value(v) for v in row])
        assert text == want.getvalue()

    def test_paoi_bound_optimize(self, tmp_path):
        cfg = {"command": "paoi-bound", "seed": 5, "output": str(tmp_path / "b.csv"),
               "params": {"a_th_cu": 150_000.0, "theta": "optimize",
                          "arrival": {"kind": "poisson", "rate": 1 / 256},
                          "service": {"kind": "arq", "n": 64, "epsilon": 0.1}}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rows = [l for l in (tmp_path / "b.csv").read_text().strip().split("\n")
                if not l.startswith("#")]
        assert rows[0] == "kind,theta,threshold,kernel,bound,stable,seed"
        fields = rows[1].split(",")
        assert fields[0] == "aoi" and 0.0 < float(fields[4]) <= 1.0

    def test_paoi_kernel_up_to_the_largest_float(self, tmp_path):
        # the log kernel is about 709.5, below log(float max) = 709.78: the
        # kernel is written as a float, and the bound still rounds to 0
        cfg = {"command": "paoi-bound", "seed": 1, "output": str(tmp_path / "b.csv"),
               "params": {"a_th_cu": 40_000.0, "u": 64, "theta": 4.927083333333333,
                          "arrival": {"kind": "deterministic", "period": 80.0},
                          "service": {"kind": "fixed", "n": 64}}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rows = [l for l in (tmp_path / "b.csv").read_text().strip().split("\n")
                if not l.startswith("#")]
        assert rows[1] == "aoi,4.927083333333333,40000.0,1.3549863193146328e+308,0.0,true,1"

    # ARQ(64, 0.2) takes 80 cu on average. Within about 1e-5 of that mean
    # gap the lag ratio rounds to 1 on part of the stable interval; the
    # search skips those theta instead of refusing a stable queue.
    @pytest.mark.parametrize("rate", [0.0124999, (1 - 1e-6) / 80, (1 - 1e-8) / 80])
    def test_paoi_bound_near_critical_load(self, tmp_path, rate):
        cfg = {"command": "paoi-bound", "seed": 1, "output": str(tmp_path / "b.csv"),
               "params": {"a_th_cu": 100_000.0,
                          "arrival": {"kind": "poisson", "rate": rate},
                          "service": {"kind": "arq", "n": 64, "epsilon": 0.2}}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rows = [l for l in (tmp_path / "b.csv").read_text().strip().split("\n")
                if not l.startswith("#")]
        fields = rows[1].split(",")
        assert fields[0] == "aoi" and float(fields[1]) > 0.0
        assert float(fields[4]) == 1.0

    def test_delay_bound_stability_exit_code_no_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        cfg = {"command": "delay-bound", "seed": 5, "output": str(out),
               "params": {"alpha_bits": 40.0, "d_th_blocks": 3.0}}
        assert main([write_config(tmp_path, cfg)]) == 3
        assert not out.exists()
        assert "category=stability" in capsys.readouterr().err

    def test_delay_bound_negative_threshold_domain_exit_code(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        cfg = {"command": "delay-bound", "seed": 1, "output": str(out),
               "params": {"d_th_blocks": -2.0}}
        assert main([write_config(tmp_path, cfg)]) == 3
        assert not out.exists()
        assert "category=domain" in capsys.readouterr().err

    def test_underflowing_fading_alpha_numeric_exit_code(self, tmp_path, capsys):
        # alpha = (2bm / (2bm + omega))^m / 2b underflows to 0 here; the
        # density stays in log domain and the 1F1 overflow is reported
        out = tmp_path / "e.csv"
        scenario = json.loads(json.dumps(THEOREM_CONFIG["scenario"]))
        scenario["fading"] = {"b": 1e-5, "m": 100.5, "omega": 10.0}
        cfg = {"command": "error", "seed": 1, "output": str(out),
               "scenario": scenario}
        assert main([write_config(tmp_path, cfg)]) == 4
        assert not out.exists()
        assert "category=numeric" in capsys.readouterr().err

    def test_unreached_quadrature_tolerance_numeric_exit_code(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        cfg = {"command": "error", "seed": 1, "output": str(out),
               "scenario": {"k": 3}, "error_model": {"quad_tolerance": 1e-300}}
        assert main([write_config(tmp_path, cfg)]) == 4
        assert not out.exists()
        assert "category=numeric SINR quadrature did not reach tolerance 1e-300" \
            in capsys.readouterr().err

    def test_unreached_exponent_tolerance_numeric_exit_code(self, tmp_path, capsys):
        # the exponent climbs the same panel ladder and refuses the same way
        out = tmp_path / "x.csv"
        cfg = {"command": "exponent", "seed": 7, "output": str(out),
               "scenario": {"k": 7}, "error_model": {"quad_tolerance": 1e-300}}
        assert main([write_config(tmp_path, cfg)]) == 4
        assert not out.exists()
        assert "category=numeric SINR quadrature did not reach tolerance 1e-300" \
            in capsys.readouterr().err

    def test_sweep_seed_conflict_config_exit_code(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        cfg = {"command": "sweep", "seed": 11, "output": str(out),
               "params": {"figure": "fig5", "n_grid": [100], "seed": 12}}
        assert main([write_config(tmp_path, cfg)]) == 2
        assert not out.exists()
        assert "params.seed" in capsys.readouterr().err
        cfg["params"]["seed"] = 11  # equal seeds are accepted
        assert main([write_config(tmp_path, cfg)]) == 0

    @pytest.mark.parametrize("command,params,key", [
        ("aoi-sim", {"n_updates": "10"}, "params.n_updates"),
        ("aoi-sim", {"n_updates": 1.5}, "params.n_updates"),
        ("paoi-bound", {"a_th_cu": "x"}, "params.a_th_cu"),
        ("paoi-bound", {"u": "x"}, "params.u"),
        ("paoi-bound", {"theta": "abc"}, "params.theta"),
        ("delay-bound", {"d_th_blocks": None}, "params.d_th_blocks"),
        ("delay-bound", {"alpha_bits": "28"}, "params.alpha_bits"),
        ("aoi-sim", {"arrival": {"kind": "poisson", "rate": "x"}},
         "params.arrival.rate"),
        ("aoi-sim", {"service": {"epsilon": "0.1"}}, "params.service.epsilon"),
        ("sweep", {"figure": "fig5", "n_grid": "x"}, "params.n_grid"),
        ("sweep", {"figure": "fig3", "replications": "2"}, "params.replications"),
        ("error", {"method": "monte_carlo", "sample_budget": 100000.0},
         "error_model.sample_budget"),
        ("error", {"k": 1.5}, "scenario.k"),
        ("error", {"rx_antennas": 2.5}, "scenario.rx_antennas"),
        ("error", dict(THEOREM_CONFIG["scenario"],
                       interferers={"count": 1.5, "r_inner_m": 2000.0,
                                    "r_outer_m": 10000.0, "carrier_hz": 2.0e9}),
         "scenario.interferers.count"),
        ("error", dict(THEOREM_CONFIG["scenario"], satellite="abc"),
         "scenario.satellite"),
        ("error", dict(THEOREM_CONFIG["scenario"], satellite=[1]),
         "scenario.satellite"),
        ("error", {"blocklength": 64.5, "code_size": 256}, "coding.blocklength"),
        ("error", {"blocklength": True, "code_size": 256}, "coding.blocklength"),
        ("paoi-bound", {"a_th_cu": float("nan")}, "params.a_th_cu"),
        ("error", {"avg_snr_db": float("nan")}, "scenario.avg_snr_db"),
        ("sweep", {"figure": "fig3", "snr_points_db": [float("nan")]},
         "params.snr_points_db"),
        ("paoi-bound", "a_th_cu=Infinity", "params.a_th_cu"),
        ("paoi-bound", {"a_th_cu": 10 ** 400}, "params.a_th_cu"),
        ("aoi-sim", {"arrival": {"kind": "uniform", "rate": 0.01}},
         "params.arrival.kind"),
        ("paoi-bound", {"service": {"kind": "harq", "n": 64}}, "params.service.kind"),
        ("delay-bound", "arrival_kind=bursty", "params.arrival_kind"),
        # integers that a float cannot hold, at int keys
        ("aoi-sim", {"service": {"kind": "arq", "n": 10 ** 400, "epsilon": 0.1}},
         "params.service.n"),
        ("paoi-bound", {"service": {"kind": "fixed", "n": 10 ** 400}}, "params.service.n"),
        ("paoi-bound", {"service": {"kind": "arq", "n": 10 ** 400, "epsilon": 0.1}},
         "params.service.n"),
        ("paoi-bound", {"u": 10 ** 400}, "params.u"),
        ("paoi-bound", {"blocklength": 10 ** 400, "code_size": 256}, "coding.blocklength"),
        ("exponent", {"rx_antennas": 10 ** 400}, "scenario.rx_antennas"),
        ("sweep", {"figure": "fig3", "blocklength": 10 ** 400}, "params.blocklength"),
        ("sweep", {"figure": "fig4", "blocklength": -10 ** 400}, "params.blocklength"),
        ("sweep", {"figure": "fig5", "n_grid": [10 ** 400]}, "params.n_grid"),
        ("sweep", {}, "params.figure"),
        ("error", "", "output"),
        ("error", "x=1", "seed.x"),
    ])
    def test_params_value_type_config_exit_code(self, tmp_path, capsys,
                                                 command, params, key):
        # ``params`` is the content of the block that the key's first part
        # names, or, as KEY=VALUE text, a ``--set`` override of one key of
        # that block
        out = tmp_path / "p.csv"
        block = key.split(".")[0]
        cfg = {"command": command, "seed": 1, "output": str(out)}
        if isinstance(params, str) and "=" in params:
            argv = ["--set", f"{block}.{params}"]
        else:
            cfg[block], argv = params, []
        assert main([write_config(tmp_path, cfg), *argv]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and key in err

    def test_empty_output_flag_config_exit_code(self, tmp_path, capsys):
        # an empty --output is refused like an empty "output", not ignored
        out = tmp_path / "p.csv"
        cfg = {"command": "error", "seed": 1, "output": str(out)}
        assert main([write_config(tmp_path, cfg), "--output", ""]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and "output must be a nonempty path" in err

    @pytest.mark.parametrize("key", ["n_updates", "error_draws",
                                     "arrival_mean_gap_cu", "fig4_mean_gap_cu",
                                     "fig4_n_updates", "theta_grid", "n_grid",
                                     "replications", "relay_prob"])
    def test_empty_sweep_config_exit_code(self, tmp_path, capsys, key, monkeypatch):
        # refused before any work: no figure runner is reached
        monkeypatch.setattr(experiments, "_RUNNERS", dict.fromkeys(
            experiments._RUNNERS, lambda spec: pytest.fail("the sweep ran")))
        figure, value = {"fig4_n_updates": ("fig4", 0), "theta_grid": ("fig4", [0.0]),
                         "n_grid": ("fig5", [0]),
                         "relay_prob": ("fig3", 1.5)}.get(key, ("fig3", 0))
        out = tmp_path / "s.csv"
        cfg = {"command": "sweep", "seed": 1, "output": str(out),
               "params": {"figure": figure, "snr_points_db": [5.0], key: value}}
        assert main([write_config(tmp_path, cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and key in err

    @pytest.mark.parametrize("params", [{"k_grid": [-1, 2]}, {"snr_points_db": []},
                                        {"theta_grid": [], "figure": "fig4"},
                                        {"n_grid": [], "figure": "fig5"}])
    def test_bad_sweep_grid_config_exit_code(self, tmp_path, capsys, params):
        out = tmp_path / "s.csv"
        cfg = {"command": "sweep", "seed": 1, "output": str(out),
               "params": dict({"figure": "fig3", "n_updates": 200,
                               "error_draws": 1000}, **params)}
        assert main([write_config(tmp_path, cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and next(iter(params)) in err

    @pytest.mark.parametrize("params", [{"snr_points_db": [-400]},
                                        {"relay_boost_db": -400}])
    def test_certain_decoding_failure_domain_exit_code(self, tmp_path, capsys,
                                                       params):
        out = tmp_path / "s.csv"
        cfg = {"command": "sweep", "seed": 3, "output": str(out),
               "params": dict({"figure": "fig3", "n_updates": 200,
                               "error_draws": 1000}, **params)}
        assert main([write_config(tmp_path, cfg)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=domain" in err and "ARQ never delivers" in err

    @pytest.mark.parametrize("command,blocks", [
        ("sweep", {"params": {"figure": "fig3", "snr_points_db": [4000]}}),
        ("sweep", {"params": {"figure": "fig3", "relay_boost_db": 4000}}),
        ("sweep", {"params": {"figure": "fig4", "inr_db": 4000}}),
        ("sweep", {"params": {"figure": "fig5", "avg_snr_db": 4000}}),
        ("error", {"scenario": dict(THEOREM_CONFIG["scenario"], satellite={
            "carrier_hz": 2.0e9, "distance_m": 1.0e6, "tx_snr_db": 4000})}),
    ] + [(command, {"scenario": {key: 4000}})
         for command in ("error", "exponent", "delay-bound")
         for key in ("avg_snr_db", "inr_db")])
    def test_db_overflow_domain_exit_code(self, tmp_path, capsys, command, blocks):
        out = tmp_path / "o.csv"
        cfg = dict(blocks, command=command, seed=3, output=str(out))
        assert main([write_config(tmp_path, cfg)]) == 3
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=domain" in err and "dB overflows" in err

    def test_quadrature_error_beyond_six_interferers(self, tmp_path):
        out = tmp_path / "e.csv"
        cfg = {"command": "error", "seed": 1, "output": str(out),
               "scenario": {"k": 7}}
        assert main([write_config(tmp_path, cfg)]) == 0
        rows = [l for l in out.read_text().strip().split("\n")
                if not l.startswith("#")]
        assert rows[0] == "avg_error,std_error,achieved_tol,method"
        assert len(rows) == 2 and rows[1].endswith(",quadrature")

    def test_missing_config_io_exit_code(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.json")]) == 5
        assert "category=io" in capsys.readouterr().err

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"command": "error", "seed": 1,
                                       "bogus_key": 2})
        assert main([path]) == 2
        assert "category=config" in capsys.readouterr().err

    def test_uncategorised_error_propagates(self, tmp_path, capsys, monkeypatch):
        # an exception of no failure category is a fault of the program, not
        # of the run: it leaves main as raised, with no category line and
        # no CSV
        fault = RuntimeError("not a run failure")

        def failing_dispatch(rc):
            raise fault

        monkeypatch.setattr(cli, "dispatch", failing_dispatch)
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "t.csv"))
        with pytest.raises(RuntimeError) as raised:
            main([write_config(tmp_path, cfg)])
        assert raised.value is fault
        assert "error: category=" not in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("route", ["config", "flag"])
    @pytest.mark.parametrize("brk", ["\n", "\r", "\0", "\ud800", "\udcff"])
    def test_output_line_break_config_exit_code(self, tmp_path, capsys, route, brk):
        # the output path is echoed in a '#' comment line: a line break in
        # it would start a line that a '#'-skipping reader takes as the header.
        # No file name holds a NUL, and the header is UTF-8 text, which holds
        # neither a lone surrogate nor a byte that argv escaped to one
        out = str(tmp_path / f"a{brk}b.csv")
        cfg = {"command": "aoi-sim", "seed": 1, "params": {"n_updates": 3}}
        if route == "config":
            cfg["output"], argv = out, []
        else:
            cfg["output"], argv = str(tmp_path / "ok.csv"), ["--output", out]
        assert main([write_config(tmp_path, cfg), *argv]) == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]
        err = capsys.readouterr().err
        assert "category=config" in err
        assert ("line break" if brk in "\n\r" else "UTF-8 text without a NUL") in err

    @pytest.mark.parametrize("text,argv,message", [
        ('{"command": "error", "seed": 1, "params": %s}'
         % ("[" * 100_000 + "]" * 100_000), [], "config nests too deeply"),
        ('{"command": "error", "seed": 1}', ["--set", "params.x=" + "[" * 100_000],
         "override 'params.x' nests too deeply"),
        ('{"command": "error", "seed": 1, "scenario": {"k": %s}}' % ("1" * 5000),
         [], "config cannot be decoded"),
        ('{"command": "error", "seed": 1', [], "config is not valid JSON"),
        ('[]', [], "config root must be a JSON object"),
        (b'{"command": "error", "seed": 1, "output": "\xff.csv"}', [],
         "config is not UTF-8 text"),
        ('{"command": "error", "seed": 1}'.encode("utf-16"), [],
         "config is not UTF-8 text"),
    ], ids=["deep-file", "deep-set", "long-integer", "truncated", "array-root",
            "latin-1-bytes", "utf-16"])
    def test_undecodable_config_exit_code(self, tmp_path, capsys, text, argv,
                                          message):
        config = tmp_path / "run.json"
        if isinstance(text, bytes):
            config.write_bytes(text)
        else:
            config.write_text(text, encoding="utf-8")
        out = tmp_path / "e.csv"
        assert main([str(config), "--output", str(out), *argv]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and message in err

    def test_cli_set_overrides_scalar(self, tmp_path):
        cfg = dict(THEOREM_CONFIG)
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / "o.csv")
        assert main([path, "--set", "coding.rate=2.0", "--output", out]) == 0
        text = (tmp_path / "o.csv").read_text()
        assert "# coding.rate_nats=2.0" in text

    def test_sweep_command_with_workers(self, tmp_path):
        cfg = {"command": "sweep", "seed": 11, "output": str(tmp_path / "s1.csv"),
               "params": {"figure": "fig5", "n_grid": [100, 200]}}
        assert main([write_config(tmp_path, cfg, "s1.json")]) == 0
        cfg2 = dict(cfg, output=str(tmp_path / "s2.csv"))
        assert main([write_config(tmp_path, cfg2, "s2.json"), "--workers", "2"]) == 0
        body1 = [l for l in (tmp_path / "s1.csv").read_text().split("\n")
                 if not l.startswith("# output")]
        body2 = [l for l in (tmp_path / "s2.csv").read_text().split("\n")
                 if not l.startswith("# output")]
        assert body1 == body2


AOI_SIM_DET = {"command": "aoi-sim", "seed": 1,
               "params": {"arrival": {"kind": "deterministic", "period": 80.0},
                          "service": {"kind": "fixed", "n": 64}}}


class TestHeaderRecordsRun:
    """The '#' header names every value a run used, defaults included."""

    # the parameters of each command; a model omitted from arrival and
    # service is named by the default note of the model built in its place
    PARAMS = {
        "error": [],
        "exponent": [],
        "aoi-sim": ["n_updates", "arrival", "service"],
        "paoi-bound": ["a_th_cu", "u", "theta", "arrival", "service"],
        "delay-bound": ["d_th_blocks", "arrival_kind", "alpha_bits"],
    }

    @staticmethod
    def header(tmp_path, cfg) -> dict:
        cfg = dict(cfg, output=str(tmp_path / "h.csv"))
        assert main([write_config(tmp_path, cfg)]) == 0
        lines = (tmp_path / "h.csv").read_text().splitlines()
        return dict(line[2:].split("=", 1) for line in lines
                    if line.startswith("# ") and "=" in line)

    @staticmethod
    def model_fields(header) -> set:
        return {f"{path}.{f.name}" for path, cls in (
            ("scenario.satellite", channel.LinkBudget),
            ("scenario.fading", channel.ShadowedRicianParams),
            ("scenario.interferers", channel.InterfererField),
            ("error_model", fbc.ErrorModel),
        ) for f in fields(cls)} - set(header)

    @pytest.mark.parametrize("command", sorted(PARAMS))
    def test_every_command_parameter(self, tmp_path, command):
        header = self.header(tmp_path, {"command": command, "seed": 1})
        notes = [v.split("=", 1)[0] for k, v in header.items()
                 if k.startswith("default.")]
        scalars = {k for k in header if k.startswith("params.")}
        want = [p for p in self.PARAMS[command] if p not in ("arrival", "service")]
        assert sorted(scalars) == sorted(f"params.{p}" for p in want)
        for p in set(self.PARAMS[command]) - set(want):
            assert notes.count(p) == 1, (p, notes)
        assert self.model_fields(header) == set()
        assert {"coding.blocklength", "coding.code_size", "coding.rate_nats",
                "scenario.rx_antennas"} <= set(header)

    def test_every_sweep_field(self, tmp_path):
        header = self.header(tmp_path, {"command": "sweep", "seed": 3,
                                        "params": {"figure": "fig5"}})
        assert {k for k in header if k.startswith("params.")} == {
            f"params.{f.name}" for f in fields(experiments.SweepSpec)}
        assert header["params.seed"] == "3"
        assert header["params.n_grid"] == "[100, 200, 500, 1000, 2000]"
        # a sweep builds no scenario, coding or error model, so it echoes none
        assert not [k for k in header if k.startswith(
            ("scenario.", "coding.", "error_model.", "default."))]

    @pytest.mark.parametrize("key, block", [
        ("scenario", {"k": 2}), ("coding", {"blocklength": 128, "code_size": 4}),
        ("error_model", {"method": "quadrature"})])
    def test_sweep_refuses_link_blocks(self, tmp_path, capsys, key, block):
        # a sweep sets its link by params keys; a top-level block would be
        # echoed in the header but never used
        cfg = {"command": "sweep", "seed": 1, "output": str(tmp_path / "s.csv"),
               "params": {"figure": "fig5", "n_grid": [100]}, key: block}
        assert main([write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert f"category=config a sweep takes no {key!r} block" in err
        for param in ("blocklength", "code_size", "fig_k", "avg_snr_db", "inr_db",
                      "quad_tolerance"):
            assert f"params.{param}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_every_interferer_field(self, tmp_path):
        scenario = json.loads(json.dumps(THEOREM_CONFIG["scenario"]))
        scenario["interferers"]["gain_tx_dbi"] = 10.0
        header = self.header(tmp_path, dict(THEOREM_CONFIG, command="error",
                                            scenario=scenario))
        assert self.model_fields(header) == set()
        interferers = {k.rsplit(".", 1)[1]: v for k, v in header.items()
                       if k.startswith("scenario.interferers.")}
        assert len(interferers) == 7
        assert interferers["gain_tx_dbi"] == "10.0"
        assert interferers["gain_rx_dbi"] == "0.0"
        assert interferers["carrier_hz"] == "2000000000.0"


    def test_fixed_service_refuses_epsilon(self, tmp_path, capsys):
        # a fixed service is ARQ at epsilon 0: an epsilon there would be
        # echoed in the header but never used
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "t.csv"), params=dict(
            AOI_SIM_DET["params"], service={"kind": "fixed", "n": 64, "epsilon": 0.5}))
        assert main([write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert "category=config params.service.epsilon" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", ["aoi-sim", "paoi-bound"])
    @pytest.mark.parametrize("arrival, key", [
        ({"kind": "deterministic", "period": 80.0, "rate": 0.5}, "rate"),
        ({"kind": "poisson", "rate": 0.004, "period": 80.0}, "period")])
    def test_arrival_refuses_other_kind_key(self, tmp_path, capsys, command,
                                            arrival, key):
        cfg = dict(AOI_SIM_DET, command=command, output=str(tmp_path / "t.csv"),
                   params=dict(AOI_SIM_DET["params"], arrival=arrival))
        assert main([write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        assert (f"category=config params.arrival.{key} is not a parameter of "
                f"kind {arrival['kind']!r}") in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("params, key", [
        ({"arrival_kind": "poisson_batch", "alpha_bits": 5.0}, "alpha_bits"),
        ({"arrival_kind": "constant_rate", "rate_per_block": 0.5}, "rate_per_block"),
        ({"arrival_kind": "constant_rate", "batch_bits": 20.0}, "batch_bits"),
        ({"batch_bits": 20.0}, "batch_bits")])  # constant_rate by default
    def test_delay_bound_refuses_other_kind_key(self, tmp_path, capsys, params, key):
        cfg = {"command": "delay-bound", "seed": 1, "output": str(tmp_path / "d.csv"),
               "params": params}
        assert main([write_config(tmp_path, cfg)]) == 2
        err = capsys.readouterr().err
        kind = params.get("arrival_kind", "constant_rate")
        assert f"category=config params.{key} is not a parameter of kind {kind!r}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", ["aoi-sim", "paoi-bound"])
    @pytest.mark.parametrize("service, noted", [
        ({}, True), ({"kind": "fixed"}, True), ({"kind": "arq", "epsilon": 0.1}, True),
        ({"kind": "fixed", "n": 32}, False), (None, False)])
    def test_service_n_default_noted(self, tmp_path, command, service, noted):
        # a service block without n runs at coding.blocklength; a config
        # without one says so in its service note already
        params = {"n_updates": 10} if command == "aoi-sim" else {}
        if service is not None:
            params["service"] = service
        header = self.header(tmp_path, {"command": command, "seed": 1, "params": params,
                                        "coding": {"blocklength": 32, "code_size": 256}})
        notes = [v for k, v in header.items() if k.startswith("default.")]
        assert ("service.n=32 (coding.blocklength)" in notes) == noted
        assert notes.count("service=arq(n=coding.blocklength, epsilon=from scenario)") \
            == (service is None)


class TestAoiSimMemory:
    def test_peak_does_not_grow_with_updates(self, tmp_path):
        # an in-process aoi-sim holds one block of its draw and trace at any
        # length: 2^17 updates peak within 0.5 MB of 2^13 updates, where
        # whole drawn columns would add 2 MB
        def peak(n):
            cfg = {"command": "aoi-sim", "seed": 3, "output": str(tmp_path / "t.csv"),
                   "params": {"n_updates": n,
                              "arrival": {"kind": "poisson", "rate": 1 / 300.0},
                              "service": {"kind": "arq", "n": 64, "epsilon": 0.3}}}
            rc = build_config(cfg)
            tracemalloc.start()
            try:
                cli.dispatch(rc)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1 << 13)  # the first run also fills one-time caches
        small, large = peak(1 << 13), peak(1 << 17)
        assert large - small < 0.5e6, (small, large)


class TestAtomicWrite:
    def test_failure_after_first_chunk_keeps_existing_target(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t.csv"
        out.write_bytes(b"earlier run\r\n")
        cfg = json.loads(json.dumps(AOI_SIM_DET))
        cfg["output"] = str(out)
        cfg["params"]["n_updates"] = csvio._CHUNK_ROWS + 5
        cells, calls = csvio._cells, []

        def failing_cells(col):
            calls.append(len(col))
            if len(calls) > len(TRACE_FIELDS):  # second chunk
                assert list(tmp_path.glob("*.tmp"))  # first chunk is streaming
                raise OSError(28, "No space left on device")
            return cells(col)

        monkeypatch.setattr(csvio, "_cells", failing_cells)
        assert main([write_config(tmp_path, cfg)]) == 5
        assert calls == [csvio._CHUNK_ROWS] * len(TRACE_FIELDS) + [5]
        assert "category=io" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier run\r\n"
        assert not list(tmp_path.glob("*.tmp"))

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_worker_failure_keeps_existing_target(self, tmp_path, capsys, workers,
                                                  monkeypatch):
        # the fig5 grid fails at n = 200, after the row at n = 100
        exponent = experiments.error_exponent

        def failing_exponent(scen, coding, em):
            if coding.blocklength == 200:
                raise DomainError("no exponent at n = 200")
            return exponent(scen, coding, em)

        monkeypatch.setattr(experiments, "error_exponent", failing_exponent)
        out = tmp_path / "s.csv"
        out.write_bytes(b"earlier run\r\n")
        cfg = {"command": "sweep", "seed": 11, "output": str(out),
               "params": {"figure": "fig5", "n_grid": [100, 200]}}
        assert main([write_config(tmp_path, cfg), "--workers", workers]) == 3
        assert "category=domain" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier run\r\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_trace_failure_after_first_block_keeps_existing_target(
            self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "t.csv"
        out.write_bytes(b"earlier run\r\n")
        cfg = json.loads(json.dumps(AOI_SIM_DET))
        cfg["output"] = str(out)
        cfg["params"]["n_updates"] = 2 * channel._BLOCK_ROWS
        trace_blocks = aoi.trace_blocks

        def failing_blocks(updates):
            yield next(trace_blocks(updates))
            assert list(tmp_path.glob("*.tmp"))  # the first block is streaming
            raise DomainError("no second block")

        monkeypatch.setattr(aoi, "trace_blocks", failing_blocks)
        assert main([write_config(tmp_path, cfg)]) == 3
        assert "category=domain no second block" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier run\r\n"
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_updates_refused_before_temp_file(self, tmp_path, monkeypatch, capsys):
        opened = []
        monkeypatch.setattr(csvio, "open", lambda *a, **k: opened.append(a),
                            raising=False)
        cfg = json.loads(json.dumps(AOI_SIM_DET))
        cfg["output"] = str(tmp_path / "t.csv")
        cfg["params"]["n_updates"] = 0
        assert main([write_config(tmp_path, cfg)]) == 3
        assert "category=domain need at least one update" in capsys.readouterr().err
        assert opened == []
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command, params", [
        ("aoi-sim", {"n_updates": 10 ** 20}),
        ("aoi-sim", {"n_updates": aoi.MAX_UPDATES + 1}),
        ("sweep", {"figure": "fig4", "fig4_n_updates": 10 ** 20, "theta_grid": [0.002]}),
        ("sweep", {"figure": "fig3", "n_updates": 10 ** 20}),
        ("sweep", {"figure": "stin_psn", "n_updates": aoi.MAX_UPDATES + 1}),
        ("sweep", {"figure": "fig3", "error_draws": 10 ** 20}),
        ("sweep", {"figure": "stin_psn", "error_draws": experiments.MAX_ERROR_DRAWS + 1}),
        ("sweep", {"figure": "fig3", "replications": 2 ** 64}),
        ("sweep", {"figure": "stin_psn", "replications": 10 ** 8, "n_updates": 100}),
        ("sweep", {"figure": "fig3", "replications": experiments.MAX_REPLICATIONS,
                   "n_updates": aoi.MAX_UPDATES // experiments.MAX_REPLICATIONS + 1}),
    ])
    def test_update_count_above_cap_numeric_exit_code(self, tmp_path, capsys,
                                                      monkeypatch, command, params):
        # a fig3 or stin_psn sweep is refused before its error table is built;
        # the updates of all its replications fall under the update cap
        monkeypatch.setattr(experiments, "_coupled_error_table", None)
        cfg = dict(AOI_SIM_DET, command=command, output=str(tmp_path / "t.csv"))
        cfg["params"] = dict(AOI_SIM_DET["params"], **params)
        if command == "sweep":
            del cfg["params"]["arrival"], cfg["params"]["service"]
        if "error_draws" in params:
            cap = experiments.MAX_ERROR_DRAWS
        elif params.get("replications", 0) > experiments.MAX_REPLICATIONS:
            cap = experiments.MAX_REPLICATIONS
        else:
            cap = aoi.MAX_UPDATES
        assert main([write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert "category=numeric" in err and f"cap of {cap}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("figure", ["fig3", "stin_psn"])
    def test_grid_above_cap_numeric_exit_code(self, tmp_path, capsys, monkeypatch,
                                              figure):
        # 101 x 10 points, refused before the error table is built
        monkeypatch.setattr(experiments, "_coupled_error_table", None)
        cfg = {"command": "sweep", "seed": 1, "output": str(tmp_path / "t.csv"),
               "params": {"figure": figure, "k_grid": list(range(101)),
                          "snr_points_db": [float(s) for s in range(10)]}}
        assert main([write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert "category=numeric 1010 grid points" in err
        assert f"cap of {experiments.MAX_GRID_POINTS}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("command", ["error", "exponent"])
    @pytest.mark.parametrize("budget", [fbc.MAX_SAMPLE_BUDGET + 1, 10 ** 11])
    def test_sample_budget_above_cap_numeric_exit_code(self, tmp_path, capsys,
                                                       command, budget):
        cfg = {"command": command, "seed": 1, "output": str(tmp_path / "t.csv"),
               "error_model": {"method": "monte_carlo", "sample_budget": budget}}
        assert main([write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        # the exponent's own, lower cap refuses it first
        cap = fbc._MAX_EXPONENT_DRAWS if command == "exponent" else fbc.MAX_SAMPLE_BUDGET
        assert f"category=numeric {budget} Monte Carlo draws exceed the cap of " \
            f"{cap}" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("budget", [10 ** 7 + 1, 10 ** 8])
    def test_exponent_draws_above_cap_numeric_exit_code(self, tmp_path, capsys,
                                                        monkeypatch, budget):
        # the exponent holds every draw at once: 341 MB of RSS at 10^7
        monkeypatch.setattr(fbc, "sinr_samples",
                            lambda *args: pytest.fail("the exponent drew"))
        cfg = {"command": "exponent", "seed": 1, "output": str(tmp_path / "t.csv"),
               "error_model": {"method": "monte_carlo", "sample_budget": budget}}
        assert main([write_config(tmp_path, cfg)]) == 4
        err = capsys.readouterr().err
        assert f"category=numeric {budget} Monte Carlo draws exceed the cap of " \
            f"{10 ** 7}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("cfg, code", [
        ({"command": "error", "scenario": {"k": 10 ** 8}}, 2),
        ({"command": "exponent", "scenario": {"k": channel.MAX_INTERFERERS + 1}}, 2),
        ({"command": "error",
          "scenario": dict(THEOREM_CONFIG["scenario"], interferers=dict(
              THEOREM_CONFIG["scenario"]["interferers"], count=10 ** 8))}, 2),
        ({"command": "sweep", "params": {"figure": "fig3", "k_grid": [10 ** 8]}}, 3),
        ({"command": "sweep", "params": {"figure": "stin_psn", "k_grid": [0, 10 ** 8]}}, 3),
    ])
    def test_interferer_count_above_cap_typed_exit_code(self, tmp_path, capsys,
                                                        cfg, code):
        cfg = dict(cfg, seed=1, output=str(tmp_path / "t.csv"))
        assert main([write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        assert f"exceeds the cap of {channel.MAX_INTERFERERS}" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    @pytest.mark.parametrize("cfg, code, message", [
        ({"command": "aoi-sim", "params": {
            "arrival": {"kind": "deterministic", "period": 1e308}}},
         3, "category=domain arrival times must be finite"),
        ({"command": "aoi-sim", "params": {"arrival": {"kind": "poisson", "rate": 1e-308}}},
         3, "category=domain arrival times must be finite"),
        ({"command": "sweep", "params": {"figure": "fig3", "arrival_mean_gap_cu": 1e308,
                                         "n_updates": 200, "error_draws": 1000}},
         3, "category=domain arrival times must be finite"),
        # a theta below the arrival rate 1e-308, so that the bound is not
        # refused before the trace is drawn
        ({"command": "sweep", "params": {"figure": "fig4", "fig4_mean_gap_cu": 1e308,
                                         "fig4_n_updates": 200, "theta_grid": [1e-310]}},
         3, "category=domain arrival times must be finite"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], fading={
            "b": 0.126, "m": 10, "omega": 1e17})},
         4, "category=numeric fading decay rate beta - delta = 0"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], fading={
            "b": 1e-3, "m": 50, "omega": 1.0})},
         4, "category=numeric fading quadrature captured mass"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], interferers=dict(
            THEOREM_CONFIG["scenario"]["interferers"], r_outer_m=1e155))},
         2, "category=config r_outer_m=1e+155 squared overflows"),
        ({"command": "exponent", "scenario": dict(THEOREM_CONFIG["scenario"], satellite={
            "carrier_hz": 4817.0, "distance_m": 5.8e-249})},
         3, "category=domain pathloss factor"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], satellite={
            "carrier_hz": 1e-200, "distance_m": 1e-200})},
         3, "category=domain pathloss factor"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], interferers=dict(
            THEOREM_CONFIG["scenario"]["interferers"], carrier_hz=0.0))},
         2, "category=config carrier_hz must be > 0"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], interferers=dict(
            THEOREM_CONFIG["scenario"]["interferers"], carrier_hz=1e-300))},
         3, "category=domain interferer power at carrier_hz=1e-300 overflows"),
        ({"command": "error", "coding": {"blocklength": 0, "code_size": 256}},
         2, "category=config blocklength must be >= 1"),
        ({"command": "error", "coding": {"blocklength": 64, "code_size": 256,
                                         "rate": -1.0}},
         2, "category=config rate must be > 0"),
        ({"command": "error", "scenario": dict(THEOREM_CONFIG["scenario"], interferers=dict(
            THEOREM_CONFIG["scenario"]["interferers"], count=-1))},
         2, "category=config interferer count must be >= 0"),
        ({"command": "paoi-bound", "params": {"theta": 0.0}},
         3, "category=domain theta must be > 0"),
        ({"command": "paoi-bound", "params": {"theta": -0.001}},
         3, "category=domain theta must be > 0"),
        ({"command": "paoi-bound", "params": {"u": 0}},
         3, "category=domain update index must be >= 1"),
    ], ids=["deterministic-period", "poisson-rate", "fig3-gap", "fig4-gap",
            "fading-decay", "fading-mass", "annulus-radius", "pathloss", "pathloss-underflow",
            "interferer-carrier-zero", "interferer-power", "blocklength-zero",
            "rate-negative", "interferer-count-negative", "theta-zero",
            "theta-negative", "update-index-zero"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_typed_exit_code(self, tmp_path, capsys, cfg, code, message):
        # each of the first eleven but fading-mass once ended in a traceback:
        # arrival times beyond the float range, a fading decay rate that
        # rounds to 0, an annulus radius whose square overflows, a pathloss
        # factor that does, by an overflow or by a product carrier_hz *
        # distance_m of 0, and an interferer carrier of 0 or one so low that
        # its power overflows. fading-mass is a strong-LOS law whose support
        # cut leaves the quadrature 2.7 % of its mass short. The last six are
        # refusals of the coding, interferer and peak-AoI models that a config
        # reaches and no other test runs
        cfg = dict(cfg, seed=1, output=str(tmp_path / "t.csv"))
        assert main([write_config(tmp_path, cfg)]) == code
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_unencodable_output_path_printed_escaped(self, tmp_path, monkeypatch):
        # main prints through whatever sys.stdout is, and changes nothing of it
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        out = tmp_path / "\u00e9.csv"
        assert main([write_config(tmp_path, AOI_SIM_DET), "--output", str(out)]) == 0
        assert out.exists() and (stdout.encoding, stdout.errors) == ("ascii", "strict")
        stdout.flush()
        assert stdout.buffer.getvalue() == (
            f"wrote {str(out)[:-5]}\\xe9.csv\n".encode("ascii"))

    def test_missing_output_directory_io_exit_code(self, tmp_path, capsys):
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "missing" / "t.csv"))
        config = write_config(tmp_path, cfg)
        assert main([config]) == 5
        assert "category=io" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_temp_file_of_killed_run_left_alone(self, tmp_path):
        # a run killed mid-write, under the PID this run has, left its temp
        planted = tmp_path / f"t.csv.{os.getpid()}.tmp"
        planted.write_bytes(b"killed run\n")
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "t.csv"))
        assert main([write_config(tmp_path, cfg)]) == 0
        assert ",".join(TRACE_FIELDS) in (tmp_path / "t.csv").read_text().splitlines()
        assert planted.read_bytes() == b"killed run\n"
        assert list(tmp_path.glob("*.tmp")) == [planted]

    def test_file_mode_follows_umask(self, tmp_path):
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "t.csv"))
        config = write_config(tmp_path, cfg)
        old = os.umask(0o027)
        try:
            assert main([config]) == 0
            with open(tmp_path / "plain.csv", "w"):
                pass
        finally:
            os.umask(old)
        assert (os.stat(tmp_path / "t.csv").st_mode
                == os.stat(tmp_path / "plain.csv").st_mode)
        assert not list(tmp_path.glob("*.tmp"))


class TestStartupImports:
    """Modules that only some commands need stay out of the others' start-up."""

    PAOI = {"command": "paoi-bound", "seed": 1,
            "params": {"arrival": {"kind": "deterministic", "period": 300.0}}}

    @staticmethod
    def fresh_stdout(code, *argv) -> str:
        """The standard output of a fresh process that runs ``code``."""
        src = str(Path(stinqos.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, check=True).stdout

    @classmethod
    def modules_after(cls, tmp_path, cfg=None, module="stinqos.cli") -> set:
        """The modules loaded by a fresh process that imports ``module`` and,
        given a config, runs it through stinqos.cli.main."""
        code = f"import sys, {module}\n"
        argv = []
        if cfg is not None:
            cfg = dict(cfg, output=str(tmp_path / "out.csv"))
            argv = [write_config(tmp_path, cfg)]
            code += "assert stinqos.cli.main(sys.argv[1:]) == 0\n"
        code += "print(*sys.modules)"
        return set(cls.fresh_stdout(code, *argv).splitlines()[-1].split())

    @classmethod
    def loaded_after(cls, tmp_path, cfg=None) -> set:
        """Of scipy and importlib.metadata, those loaded by a fresh process
        that imports stinqos.cli and, given a config, runs it."""
        return cls.modules_after(tmp_path, cfg) & {"scipy", "importlib.metadata"}

    ARQ = {"kind": "arq", "n": 64, "epsilon": 0.1}

    SUBMODULES = " ".join(f"stinqos.{p.stem}" for p in
                          Path(stinqos.__file__).parent.glob("*.py")
                          if p.stem != "__init__")

    @pytest.mark.parametrize("module, cfg, absent", [
        ("stinqos", None, SUBMODULES),
        ("stinqos.cli", None, "stinqos.experiments stinqos.snc stinqos.aoi "
                              "numpy.polynomial difflib scipy"),
        ("stinqos.cli", dict(PAOI, params=dict(PAOI["params"], service=ARQ)),
         "stinqos.experiments numpy.polynomial difflib scipy"),
        ("stinqos.cli", {"command": "delay-bound", "seed": 1},
         "stinqos.experiments stinqos.aoi"),
        ("stinqos.cli", {"command": "error", "seed": 1},
         "stinqos.experiments stinqos.snc stinqos.aoi"),
        ("stinqos.cli", {"command": "exponent", "seed": 1},
         "stinqos.experiments stinqos.snc stinqos.aoi"),
        ("stinqos.cli", dict(AOI_SIM_DET, params=dict(AOI_SIM_DET["params"],
                                                      n_updates=1000, service=ARQ)),
         "stinqos.experiments stinqos.snc numpy.polynomial scipy"),
    ], ids=["import-stinqos", "import-cli", "paoi-bound", "delay-bound", "error",
            "exponent", "aoi-sim"])
    def test_command_loads_only_its_layers(self, tmp_path, module, cfg, absent):
        loaded = self.modules_after(tmp_path, cfg, module)
        assert module in loaded
        assert loaded.isdisjoint(absent.split())

    def test_sweep_loads_the_sweep_layer(self, tmp_path):
        cfg = {"command": "sweep", "seed": 1,
               "params": {"figure": "fig5", "n_grid": [100]}}
        assert "stinqos.experiments" in self.modules_after(tmp_path, cfg)

    @pytest.mark.parametrize("cfg", [
        None,
        dict(PAOI, params=dict(PAOI["params"], service={"kind": "arq", "n": 64,
                                                       "epsilon": 0.1})),
        dict(PAOI, params=dict(PAOI["params"], service={"kind": "fixed", "n": 64})),
        dict(AOI_SIM_DET, params=dict(AOI_SIM_DET["params"], n_updates=1000)),
    ], ids=["import", "paoi-bound-epsilon", "paoi-bound-fixed", "aoi-sim"])
    def test_no_scipy_or_metadata(self, tmp_path, cfg):
        assert self.loaded_after(tmp_path, cfg) == set()

    def test_error_run_loads_scipy(self, tmp_path):
        assert "scipy" in self.loaded_after(tmp_path, {"command": "error", "seed": 1})

    # A lazy numpy submodule is registered under its own name but never run,
    # so each is marked by a module that only running it loads.
    UNUSED_NUMPY = ("numpy.f2py.f2py2e numpy.testing._private.utils numpy.ma.core "
                    "charset_normalizer")

    @pytest.mark.parametrize("cfg", [
        {"command": "error", "seed": 1},
        {"command": "exponent", "seed": 1},
        {"command": "delay-bound", "seed": 1},
        {"command": "sweep", "seed": 1, "params": {"figure": "fig5", "n_grid": [100]}},
    ], ids=["error", "exponent", "delay-bound", "sweep-fig5"])
    def test_scipy_runs_skip_unused_numpy_submodules(self, tmp_path, cfg):
        loaded = self.modules_after(tmp_path, cfg)
        assert "scipy.special" in loaded
        assert loaded.isdisjoint(self.UNUSED_NUMPY.split())

    def test_unused_numpy_submodules_work_on_first_use(self):
        out = self.fresh_stdout(
            "import os, sys\n"
            "from stinqos import _startup\n"
            "_startup._special()\n"
            "assert 'numpy.ma.core' not in sys.modules\n"
            "import numpy\n"
            "print(numpy.ma.masked_array([1., 2.], mask=[0, 1]).sum())\n"
            "numpy.testing.assert_equal(numpy.arange(2), [0, 1])\n"
            "print(os.path.isdir(numpy.f2py.get_include()))\n")
        assert out.split() == ["1.0", "True"]

    def test_special_touches_nothing_once_scipy_is_loaded(self, monkeypatch):
        import numpy
        import scipy.special

        monkeypatch.delattr(numpy, "ma")
        modules = dict(sys.modules)
        assert _startup._special() is scipy.special
        assert "ma" not in vars(numpy)
        assert sys.modules == modules

    # scipy's xp_capabilities parses the docstring of each special function
    # it registers with scipy._lib._array_api.FunctionDoc, a numpydoc parser
    # that stinqos swaps out for its first import of scipy.special. The
    # printed check holds once the parser is scipy's own again, or where
    # scipy (before 1.16) has none there to swap.
    PARSER_RESTORED = ("from scipy._lib import _array_api, _docscrape\n"
                       "print(getattr(_array_api, 'FunctionDoc', _docscrape.FunctionDoc)"
                       " is _docscrape.FunctionDoc)\n")

    def test_error_run_parses_no_docstring(self, tmp_path):
        cfg = {"command": "error", "seed": 1, "output": str(tmp_path / "out.csv")}
        out = self.fresh_stdout(
            "import sys, stinqos.cli\n"
            "from scipy._lib import _docscrape\n"
            "parses = []\n"
            "init = _docscrape.FunctionDoc.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    parses.append(args)\n"
            "    init(self, *args, **kwargs)\n"
            "_docscrape.FunctionDoc.__init__ = counted\n"
            "assert stinqos.cli.main(sys.argv[1:]) == 0\n"
            "print(len(parses))\n" + self.PARSER_RESTORED, write_config(tmp_path, cfg))
        assert out.split()[-2:] == ["0", "True"]

    def test_scipy_loaded_first_takes_the_plain_import(self, tmp_path):
        # a process that imported scipy.special itself: stinqos touches
        # nothing, and the run writes the same rows as through the swap
        cfg = {"command": "error", "seed": 1}
        plain, swapped = tmp_path / "plain.csv", tmp_path / "swapped.csv"
        out = self.fresh_stdout(
            "import sys, scipy.special\n"
            "from stinqos import _startup, cli\n"
            "modules, doc = dict(sys.modules), scipy.special.erfc.__doc__\n"
            "assert _startup._special() is scipy.special\n"
            "assert sys.modules == modules and scipy.special.erfc.__doc__ == doc\n"
            "assert cli.main(sys.argv[1:]) == 0\n" + self.PARSER_RESTORED,
            write_config(tmp_path, dict(cfg, output=str(plain))))
        assert out.split()[-1] == "True"
        self.fresh_stdout("import sys, stinqos.cli\n"
                          "assert stinqos.cli.main(sys.argv[1:]) == 0\n",
                          write_config(tmp_path, dict(cfg, output=str(swapped))))

        def rows(path):
            return [line for line in path.read_text().splitlines()
                    if not line.startswith("#")]

        assert rows(plain) == rows(swapped)
        assert len(rows(plain)) == 2

    def test_failing_swap_falls_back_to_plain_import(self):
        out = self.fresh_stdout(
            "from stinqos import _startup\n"
            "def fail(self, func):\n"
            "    raise RuntimeError('needs the parser')\n"
            "_startup._UnparsedDoc.__init__ = fail\n"
            "print(_startup._special().erfc(0.0) == 1.0)\n" + self.PARSER_RESTORED)
        assert out.split() == ["True", "True"]

    # the special functions stinqos calls, and scipy's capabilities table
    SPECIAL_STATE = (
        "from scipy._lib import _array_api\n"
        "table = getattr(_array_api, 'xp_capabilities_table', {})\n"
        "print(special.erfc is special._ufuncs.erfc,"
        " special.hyp1f1 is special._ufuncs.hyp1f1, special.erfc in table,"
        " sorted(f.__name__ for f in table))\n")

    def test_swap_keeps_ufuncs_and_capabilities_table(self):
        # all as a plain import gives them, but for scipy's array-API note,
        # which the swap leaves out of each docstring
        plain = self.fresh_stdout("import scipy.special as special\n" + self.SPECIAL_STATE)
        swapped = self.fresh_stdout(
            "from stinqos import _startup\n"
            "special = _startup._special()\n" + self.SPECIAL_STATE +
            "print('Array API Standard Support' in special.erfc.__doc__)\n")
        assert swapped.splitlines() == [plain.rstrip("\n"), "False"]
        assert swapped.startswith("True True ")

    def test_stand_in_gives_back_the_docstring(self):
        # as xp_capabilities uses the parser: the Notes section takes the
        # note, and the text after the signature line becomes the docstring
        def func():
            """Summary.

            Notes
            -----
            Kept as written.
            """

        for f in (func, lambda: None):
            doc = _startup._UnparsedDoc(f)
            doc["Notes"].append("note")
            assert str(doc).split("\n", 1)[1] == (f.__doc__ or "")

    # numpy._core marks a loaded numpy: the lazy module that stands for
    # numpy until its first use is registered as "numpy" itself
    @pytest.mark.parametrize("cfg", [
        None,
        dict(PAOI, params=dict(PAOI["params"], service=ARQ)),
        dict(PAOI, params=dict(PAOI["params"], service={"kind": "fixed", "n": 64})),
    ], ids=["import", "paoi-bound-epsilon", "paoi-bound-fixed"])
    def test_no_numpy(self, tmp_path, cfg):
        assert "numpy._core" not in self.modules_after(tmp_path, cfg)

    def test_importing_every_layer_loads_no_numpy(self, tmp_path):
        loaded = self.modules_after(
            tmp_path, module="stinqos.cli, stinqos.aoi, stinqos.snc, stinqos.experiments")
        assert "stinqos.experiments" in loaded
        assert loaded.isdisjoint({"numpy._core", "scipy"})

    def test_aoi_sim_run_loads_numpy(self, tmp_path):
        cfg = dict(AOI_SIM_DET, params=dict(AOI_SIM_DET["params"], n_updates=1000))
        assert "numpy._core" in self.modules_after(tmp_path, cfg)


class TestProcessEntry:
    """``python -m stinqos`` ends through cli.run: flushed output, then
    os._exit with main's code; main itself returns and never exits."""

    PAOI = dict(TestStartupImports.PAOI, params=dict(
        TestStartupImports.PAOI["params"], service={"kind": "fixed", "n": 64}))

    @staticmethod
    def spawn(tmp_path, cfg, module="stinqos", stdout_closed=False,
              stdout=subprocess.PIPE, unbuffered=False):
        """Run one config in a fresh process with its output piped (stdout
        to ``stdout``), block-buffered unless ``unbuffered``, or with its
        stdout closed."""
        cfg = dict(cfg, output=str(tmp_path / "out.csv"))
        src = str(Path(stinqos.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return subprocess.run([sys.executable, "-m", module, write_config(tmp_path, cfg)],
                              env=env, stdout=stdout, stderr=subprocess.PIPE,
                              text=True,
                              preexec_fn=(lambda: os.close(1)) if stdout_closed else None)

    @pytest.mark.parametrize("module", ["stinqos", "stinqos.cli"])
    def test_run_flushes_and_matches_main(self, tmp_path, module):
        res = self.spawn(tmp_path, self.PAOI, module)
        out = tmp_path / "out.csv"
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout.endswith(f"wrote {out}\n")
        spawned = out.read_bytes()
        out.unlink()
        assert main([str(tmp_path / "run.json")]) == 0
        assert out.read_bytes() == spawned

    def test_unencodable_output_path_printed_escaped(self, tmp_path):
        # stdout's encoding cannot hold the path: the line is escaped, and
        # the complete run still exits 0
        out = tmp_path / "\u00e9.csv"
        src = str(Path(stinqos.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="ascii")
        res = subprocess.run([sys.executable, "-m", "stinqos",
                              write_config(tmp_path, self.PAOI), "--output", str(out)],
                             env=env, capture_output=True)
        assert (res.returncode, res.stderr) == (0, b"")
        assert res.stdout == f"wrote {str(out)[:-5]}\\xe9.csv\n".encode("ascii")
        assert out.read_text().startswith("# build:")

    def test_run_without_stdout(self, tmp_path):
        # a process started with its stdout closed has sys.stdout None
        res = self.spawn(tmp_path, self.PAOI, stdout_closed=True)
        assert (res.returncode, res.stderr) == (0, "")
        assert (tmp_path / "out.csv").read_text().startswith("# build:")

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_run_with_stdout_reader_gone(self, tmp_path, unbuffered):
        # the read end of stdout's pipe is closed before the run starts, so
        # the "wrote" line has no reader; the CSV is in place all the same
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            res = self.spawn(tmp_path, self.PAOI, stdout=write_end, unbuffered=unbuffered)
        finally:
            os.close(write_end)
        assert (res.returncode, res.stderr) == (0, "")
        assert (tmp_path / "out.csv").read_text().startswith("# build:")

    def test_config_error_exit_code(self, tmp_path):
        res = self.spawn(tmp_path, dict(self.PAOI, command="paoi-bund"))
        assert res.returncode == 2
        assert [line.split()[:2] for line in res.stderr.splitlines()] == [
            ["error:", "category=config"]]
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

    def test_refused_size_exit_code(self, tmp_path):
        res = self.spawn(tmp_path, dict(AOI_SIM_DET, params=dict(
            AOI_SIM_DET["params"], n_updates=aoi.MAX_UPDATES + 1)))
        assert res.returncode == 4
        assert res.stderr.startswith("error: category=numeric")
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
