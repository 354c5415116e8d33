"""Golden outputs: the CSV data rows of a fixed set of cheap CLI runs.

Each config's data rows (the lines that do not start with '#') must hash to
the committed SHA-256. The '#' header is left out because it carries the
build identifier, which depends on whether the package is installed. A
change that moves any of these numbers must say by how much and re-record
the hash.
"""
import hashlib
import json

import pytest

from stinqos.cli import main


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
        "9bde01c07bd3e201f05198febf109d16e3f186cf4fedf934a777818b18224c83",
    ),
    "error_k1_m10.5": (
        {"command": "error", "seed": 1, "scenario": _scenario(1, 10.5)},
        "0693d098317abe98596f6643b25be9d9d002d5ee76db2d7684a059dcc7f68abb",
    ),
    "error_k3_m10": (
        {"command": "error", "seed": 1, "scenario": _scenario(3, 10)},
        "c0be7d5dbf5d8fb44eb78a91124de193bcabd975548dbf5c7ec1a69a52ff8c73",
    ),
    "error_k8_m10": (
        {"command": "error", "seed": 1, "scenario": _scenario(8, 10)},
        "884bc3f6dd07769788182926d3eb8bd0f8f2b8f70d7f0cdc315b0e6b47b52a98",
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
        "6ae654de0306a23859d4c984858e425bcb73c8bb3af30af4d0fb506fa2b6d048",
    ),
    "exponent_k0": (
        {"command": "exponent", "seed": 1, "scenario": _scenario(0, 10)},
        "359b4ac9108b3f30f7b6591539e82af727a50fd70ccdbc37fd91f1e64d140ba7",
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
        "89d199517ecc9b936e1600171ab57093fc5035cc6c2b38ad8f6bef87b2b4be2a",
    ),
    "sweep_fig5": (
        {"command": "sweep", "seed": 1,
         "params": {"figure": "fig5", "n_grid": [100, 500]}},
        "75361387780d59ad7fa14520101de6313fc9557638c1e61cf10bd6c296adab5b",
    ),
    "paoi_bound": (
        {"command": "paoi-bound", "seed": 1},
        "8fce221bf73f4dad3c1f252078356af7711696e74f82d662adf3e7dd320dd7ef",
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_data_rows_match_golden_hash(name, tmp_path):
    config, expected = GOLDEN[name]
    out = tmp_path / "out.csv"
    path = tmp_path / "run.json"
    path.write_text(json.dumps(dict(config, output=str(out))), encoding="utf-8")
    assert main([str(path)]) == 0
    assert data_rows_sha256(out) == expected
