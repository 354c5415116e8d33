"""CLI and configuration tests: parsing, dispatch, exit codes, determinism."""
import json
import os

import pytest

from stinqos import csvio
from stinqos.aoi import TRACE_FIELDS
from stinqos.cli import main
from stinqos.config import apply_overrides, build_config, parse_config
from stinqos.errors import ConfigError


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

    def test_delay_bound_stability_exit_code_no_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        cfg = {"command": "delay-bound", "seed": 5, "output": str(out),
               "params": {"alpha_bits": 40.0, "d_th_blocks": 3.0}}
        assert main([write_config(tmp_path, cfg)]) == 3
        assert not out.exists()
        assert "category=stability" in capsys.readouterr().err

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
    ])
    def test_params_value_type_config_exit_code(self, tmp_path, capsys,
                                                 command, params, key):
        out = tmp_path / "p.csv"
        cfg = {"command": command, "seed": 1, "output": str(out), "params": params}
        assert main([write_config(tmp_path, cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and key in err

    @pytest.mark.parametrize("key", ["n_updates", "error_draws"])
    def test_empty_sweep_config_exit_code(self, tmp_path, capsys, key):
        out = tmp_path / "s.csv"
        cfg = {"command": "sweep", "seed": 1, "output": str(out),
               "params": {"figure": "fig3", "snr_points_db": [5.0], key: 0}}
        assert main([write_config(tmp_path, cfg)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert "category=config" in err and key in err

    @pytest.mark.parametrize("params", [{"k_grid": [-1, 2]}, {"snr_points_db": []}])
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

    def test_missing_output_directory_io_exit_code(self, tmp_path, capsys):
        cfg = dict(AOI_SIM_DET, output=str(tmp_path / "missing" / "t.csv"))
        config = write_config(tmp_path, cfg)
        assert main([config]) == 5
        assert "category=io" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.json"]

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
