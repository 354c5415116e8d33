"""Golden outputs: the CSV data rows of a fixed set of cheap CLI runs.

Each config's data rows (the lines that do not start with '#') must hash to
the committed SHA-256. The '#' header is left out because it carries the
build identifier, which depends on whether the package is installed. A
change that moves any of these numbers must say by how much and re-record
the hash. Together the configs run every public function of the library.
"""
import hashlib
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stinqos
from stinqos import csvio
from stinqos.cli import main
from replay import header_config, replayed_lines, run_csv


def _scenario(k, m):
    return {
        "satellite": {"carrier_hz": 2.0e9, "distance_m": 1.0e6,
                      "gain_tx_dbi": 20.0, "tx_snr_db": 153.1},
        "fading": {"b": 0.126, "m": m, "omega": 0.835},
        "interferers": {"count": k, "r_inner_m": 2000.0, "r_outer_m": 10000.0,
                        "carrier_hz": 2.0e9, "tx_snr_db": 112.6},
        "rx_antennas": 2,
    }


GOLDEN = {
    "error_k1_m10": (
        {"command": "error", "seed": 1, "scenario": _scenario(1, 10)},
        "a639d0a98551ee6813f6d0550e1c84c3b5b21fa5453b1a10a8d153911dc84be4",
    ),
    "error_k1_m10.5": (
        {"command": "error", "seed": 1, "scenario": _scenario(1, 10.5)},
        "e15f730be074a38e90626f955f1ca4446aa8eb6863b96889d82b67866e97796b",
    ),
    "error_k3_m10": (
        {"command": "error", "seed": 1, "scenario": _scenario(3, 10)},
        "26af0ef48eac20f1ec3dbdfb3c7a3da3df2bee70bdfcb5232c949a00b8802f71",
    ),
    "error_k8_m10": (
        {"command": "error", "seed": 1, "scenario": _scenario(8, 10)},
        "eb6113f63a81c711de298d7956f7085ffca18aa144f8b3e0557f13c7d59ba9bb",
    ),
    # three blocks of 2^14 Monte Carlo draws and five more, so the mean and
    # standard error are merged across block edges
    "error_k3_m10_monte_carlo_blocks": (
        {"command": "error", "seed": 1, "scenario": _scenario(3, 10),
         "error_model": {"method": "monte_carlo", "sample_budget": 3 * 2 ** 14 + 5}},
        "7e11cdd2b55a01e42d71c9822513d4ed8d41f44b38fa441155c01d40a3394ba0",
    ),
    "exponent_k3_m10": (
        {"command": "exponent", "seed": 1, "scenario": _scenario(3, 10)},
        "babc519b6e6c7a0f459972229d44197f00bce1a349e8c84561d6c555da9b7c04",
    ),
    # three blocks of 2^14 Monte Carlo SINR draws and five more, joined
    # into the one column that the exponent's search reads
    "exponent_k3_m10_monte_carlo_blocks": (
        {"command": "exponent", "seed": 1, "scenario": _scenario(3, 10),
         "error_model": {"method": "monte_carlo", "sample_budget": 3 * 2 ** 14 + 5}},
        "1312420762f1c2b126f41875582a88d29890ef3a78fe9f5561e31f964926f14e",
    ),
    "exponent_k0": (
        {"command": "exponent", "seed": 1, "scenario": _scenario(0, 10)},
        "d86098d9bfb02c749459db419cda302930c52c352373ca7821d467f9819093fc",
    ),
    "aoi_sim": (
        {"command": "aoi-sim", "seed": 1, "params": {"n_updates": 2000}},
        "55d02516d542891e102360b01934acb14849dcf3d72b39753b06ee5d3296a947",
    ),
    "aoi_sim_det_fixed": (
        {"command": "aoi-sim", "seed": 1,
         "params": {"n_updates": 40000,
                    "arrival": {"kind": "deterministic", "period": 80.0},
                    "service": {"kind": "fixed", "n": 64}}},
        "87fbe998d2e62b6578ca078926fd747239f450b19f3dbc3a5a061aab152587c4",
    ),
    # three trace blocks of 2^14 rows and five more, so the draw order of
    # the gaps and the service uniforms is pinned across block edges
    "aoi_sim_poisson_arq_blocks": (
        {"command": "aoi-sim", "seed": 1,
         "params": {"n_updates": 3 * 2 ** 14 + 5,
                    "arrival": {"kind": "poisson", "rate": 0.004},
                    "service": {"kind": "arq", "n": 64, "epsilon": 0.3}}},
        "9be52f7305d2548d71a9eec5a2077db95acfd6a348d80e219c374edf306f4543",
    ),
    "sweep_fig3": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "fig3", "n_updates": 2000, "error_draws": 5000}},
        "f39f95767b00912f409c5135e10fa1e1ac3c24a1a73d95e19a6ae6187d7a9dc5",
    ),
    # two blocks of update draws and of error draws and five more, so each
    # mean and error probability is a sum of block sums
    "sweep_fig3_blocks": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "fig3", "n_updates": 2 * 2 ** 12 + 5,
                    "error_draws": 2 * 2 ** 14 + 5, "k_grid": [0, 1, 3],
                    "relay_prob": 0.3}},
        "31d98c6b9bf46f7f96c41c889f263728dd916aeaabbfdff3b78e6e8020430c66",
    ),
    "sweep_stin_psn": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "stin_psn", "n_updates": 2000, "error_draws": 5000}},
        "4c3a3c99cdf75ffd1912480ffc851cb41a8989169105ed806acfaf30237d8a08",
    ),
    # a threshold low enough that the empirical column is nonzero (0.0036)
    "sweep_fig4": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "fig4", "fig4_n_updates": 20000, "a_th_cu": 1500.0}},
        "92d8f73d95f2b1b38968c336246599ac7b670b06e1572a189f15b5d023e253f6",
    ),
    "sweep_fig5": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "fig5", "n_grid": [100, 500]}},
        "673f4bfcef4ab5d2f88cb536c67c300aabf29af66434afef21d21f736aa4e7b0",
    ),
    "paoi_bound": (
        {"command": "paoi-bound", "seed": 1},
        "d15c544b293f4948ef7ecd8dc9f137658ede6d9b80501acb9c6ffa5b0c56f403",
    ),
    # a fixed theta inside the stable interval (0, 1/256), steady state
    "paoi_bound_poisson_arq_theta": (
        {"command": "paoi-bound", "seed": 1,
         "params": {"theta": 0.002, "a_th_cu": 150000.0,
                    "arrival": {"kind": "poisson", "rate": 1 / 256},
                    "service": {"kind": "arq", "n": 64, "epsilon": 0.1}}},
        "12c66a39d941b12166f4cf5bc88bade3dea1f9cfa186fef37ce11b9abcdb9ebb",
    ),
    # a fixed theta and the finite sum over 64 lags
    "paoi_bound_det_fixed_u64": (
        {"command": "paoi-bound", "seed": 1,
         "params": {"theta": 0.01, "u": 64, "a_th_cu": 40000.0,
                    "arrival": {"kind": "deterministic", "period": 80.0},
                    "service": {"kind": "fixed", "n": 64}}},
        "75651f1b75bae0d6b463dfbf1ea46bfe6ff632b886f3b81bc3e7db7c406a0741",
    ),
    "delay_bound": (
        {"command": "delay-bound", "seed": 1},
        "3ebee6727350996e0ed85e34376f713473632dcfaab3328e08b44b921a67e903",
    ),
    # the Poisson batch arrival of the bit-domain delay bound
    "delay_bound_poisson_batch": (
        {"command": "delay-bound", "seed": 1,
         "params": {"arrival_kind": "poisson_batch", "rate_per_block": 0.6,
                    "batch_bits": 24.0, "d_th_blocks": 6.0}},
        "e32446b862014d01668d7d0f108304c5a50ce070c34ec52f46cb1f17a3b1ab7c",
    ),
}


def data_rows_sha256(path) -> str:
    text = path.read_text(encoding="utf-8")
    rows = [l for l in text.splitlines(keepends=True) if not l.startswith("#")]
    return hashlib.sha256("".join(rows).encode("utf-8")).hexdigest()


def is_written_kind(col) -> bool:
    """Whether a column is of a kind the commands write: a range, a float64
    array of native byte order, or a list."""
    if isinstance(col, np.ndarray):
        return col.dtype == np.float64 and col.dtype.isnative
    return isinstance(col, (range, list))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_rows_match_golden_hash(name, tmp_path, monkeypatch):
    # every column reaching the writer is one of the three kinds it keeps a
    # rule for; another kind would be written per value, but is seen here
    config, expected = GOLDEN[name]
    out = tmp_path / "out.csv"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config, output=str(out))), encoding="utf-8")
    cells, columns = csvio._cells, []
    monkeypatch.setattr(csvio, "_cells", lambda col: columns.append(col) or cells(col))
    assert main([str(path)]) == 0
    assert data_rows_sha256(out) == expected
    assert columns and all(map(is_written_kind, columns)), {
        str(getattr(c, "dtype", type(c))) for c in columns if not is_written_kind(c)}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_header_replays_to_same_lines(name, tmp_path):
    # the header read back as a config runs to the same header and rows
    text = run_csv(GOLDEN[name][0], tmp_path, "run")
    replay = run_csv(header_config(text), tmp_path, "replay")
    assert replayed_lines(replay) == replayed_lines(text)


# One golden config of each command, and of the error command's Monte Carlo
# blocks and the peak-AoI bound's fixed service, each run by ``python -m
# stinqos`` in a fresh process. There stinqos loads numpy on first use; in
# this process the tests have imported it already.
FRESH_PROCESS = ("error_k1_m10", "error_k3_m10_monte_carlo_blocks", "exponent_k3_m10",
                 "aoi_sim", "delay_bound", "paoi_bound", "paoi_bound_det_fixed_u64",
                 "sweep_fig3")


@pytest.mark.parametrize("name", FRESH_PROCESS)
def test_fresh_process_matches_golden_hash(name, tmp_path):
    config, expected = GOLDEN[name]
    out = tmp_path / "out.csv"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config, output=str(out))), encoding="utf-8")
    src = str(Path(stinqos.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-m", "stinqos", str(path)], cwd=tmp_path,
                   env=dict(os.environ, PYTHONPATH=src), capture_output=True, check=True)
    assert data_rows_sha256(out) == expected


# Public names no golden run calls: the max-plus departure oracle, which the
# benchmark's trace check imports, and the process entry around cli.main
UNREACHED = {"aoi.departure_times_maxplus", "cli.run"}


def public_code(module) -> dict:
    """The code object of each public function that ``module`` defines, and
    of each public method, classmethod, staticmethod and property getter of
    its classes, by dotted name within the package."""
    prefix = module.__name__.removeprefix("stinqos.")
    found = {}
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        members = vars(value).items() if inspect.isclass(value) else [(None, value)]
        for attr, member in members:
            if attr is not None and attr.startswith("_"):
                continue
            # a classmethod or staticmethod, a property, a cached_property
            for unwrap in ("__func__", "fget", "func"):
                member = getattr(member, unwrap, member)
            if inspect.isfunction(member):
                found[".".join(filter(None, (prefix, name, attr)))] = member.__code__
    return found


def test_golden_runs_reach_every_public_function(tmp_path):
    # a public function that only tests call belongs in tests/
    candidates = {}
    for info in pkgutil.iter_modules(stinqos.__path__):
        if not info.name.startswith("_"):
            candidates.update(public_code(
                importlib.import_module(f"stinqos.{info.name}")))
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for name, (config, _) in GOLDEN.items():
            run_csv(config, tmp_path, name)
    finally:
        sys.setprofile(None)
    assert {name for name, code in candidates.items() if code not in called} == UNREACHED
