"""Batch command-line front-end.

One JSON configuration file describes one run; flags only override scalar
fields. Results are written as a single CSV whose '#' comment header echoes
the fully resolved configuration, so (config, seed) -> output bytes is a
pure function.

Exit codes: 0 ok, 2 config error, 3 domain/stability error, 4 numeric
error, 5 io error.
"""
from __future__ import annotations

import argparse
import sys

from . import channel, csvio
from .aoi import sample_updates, trace_columns, TRACE_FIELDS
from .config import (
    RunConfig,
    apply_overrides,
    build_arrival,
    build_config,
    build_service,
    decode_json,
    echo_params,
)
from .errors import ConfigError, DomainError, NumericError, StabilityError
from .experiments import SweepSpec, run_sweep
from .fbc import average_error, error_exponent, error_exponent_closed_form
from .reports import REPORT_FIELDS, report_row
from .snc import BitArrival, delay_bound, optimize_paoi_bound, paoi_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _block(fields, rows) -> list:
    """The row dicts as the one block of a CSV: one list per field, in
    ``fields`` order."""
    return [[[row[k] for row in rows] for k in fields]]


def _run_error(rc: RunConfig):
    res = average_error(rc.scenario, rc.coding, rc.error_model)
    fields = ["avg_error", "std_error", "achieved_tol", "method"]
    row = {
        "avg_error": res.value,
        "std_error": "" if res.std_error is None else res.std_error,
        "achieved_tol": "" if res.achieved_tol is None else res.achieved_tol,
        "method": res.method,
    }
    return fields, _block(fields, [row])


def _run_exponent(rc: RunConfig):
    numeric = error_exponent(rc.scenario, rc.coding, rc.error_model)
    closed = error_exponent_closed_form(rc.scenario, rc.coding)
    fields = ["blocklength", "rate_nats", "theta_numeric", "rho_star",
              "theta_closed_form"]
    row = {
        "blocklength": rc.coding.blocklength,
        "rate_nats": rc.coding.rate,
        "theta_numeric": numeric.theta,
        "rho_star": numeric.params["rho_star"],
        "theta_closed_form": closed.theta,
    }
    return fields, _block(fields, [row])


def _run_aoi_sim(rc: RunConfig):
    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    n_updates = rc.params.get("n_updates", 10_000)
    arrivals, services = sample_updates(am, sm, n_updates,
                                        rc.scenario.rng(channel.STREAM_TRACE))
    return TRACE_FIELDS, trace_columns(arrivals, services)


def _run_paoi_bound(rc: RunConfig):
    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    a_th = rc.params.get("a_th_cu", 150_000.0)
    u = rc.params.get("u", "inf")
    u = None if u == "inf" else int(u)
    theta = rc.params.get("theta", "optimize")
    n = rc.coding.blocklength
    if theta == "optimize":
        report = optimize_paoi_bound(a_th, n, u, am, sm)
    else:
        report = paoi_bound(float(theta), a_th, n, u, am, sm)
    row = report_row(report, seed=rc.seed)
    return REPORT_FIELDS, _block(REPORT_FIELDS, [row])


def _run_delay_bound(rc: RunConfig):
    if rc.params.get("arrival_kind", "constant_rate") == "constant_rate":
        arrival = BitArrival.constant_rate(rc.params.get("alpha_bits", 28.0))
    else:
        arrival = BitArrival.poisson_batch(
            rc.params.get("rate_per_block", 1.0),
            rc.params.get("batch_bits", 28.0),
        )
    d_th = rc.params.get("d_th_blocks", 5.0)
    eps = average_error(rc.scenario, rc.coding, rc.error_model).value
    report = delay_bound(d_th, arrival, rc.coding, eps)
    row = report_row(report, seed=rc.seed)
    return REPORT_FIELDS, _block(REPORT_FIELDS, [row])


def _run_sweep(rc: RunConfig):
    if rc.params.get("seed", rc.seed) != rc.seed:
        raise ConfigError(
            f"params.seed={rc.params['seed']} conflicts with seed={rc.seed}; "
            f"omit params.seed or give both the same value"
        )
    params = dict(rc.params, seed=rc.seed)
    for key in ("k_grid", "snr_points_db", "theta_grid", "n_grid"):
        if key in params and isinstance(params[key], list):
            params[key] = tuple(params[key])
    spec = SweepSpec(**params)
    table = run_sweep(spec)
    return table.fieldnames, _block(table.fieldnames, table.rows)


_RUNNERS = {
    "error": _run_error,
    "exponent": _run_exponent,
    "aoi-sim": _run_aoi_sim,
    "paoi-bound": _run_paoi_bound,
    "delay-bound": _run_delay_bound,
    "sweep": _run_sweep,
}


def dispatch(rc: RunConfig) -> str:
    """Run the configured command and write its CSV; returns the path.

    Every command but aoi-sim computes its one block of rows before any file
    is opened; aoi-sim draws its arrivals and services first and computes
    the rest of its trace one block at a time while the CSV is written. The
    CSV goes to a temp file that replaces ``rc.output`` only when complete,
    so a failing run leaves no partial output behind.
    """
    fields, blocks = _RUNNERS[rc.command](rc)
    csvio.write_csv(rc.output, fields, blocks,
                    csvio.comment_lines(echo_params(rc)))
    return rc.output


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stinqos",
        description="Statistical QoS bounds and simulations for "
                    "satellite-terrestrial links under finite blocklength coding.",
    )
    parser.add_argument("config", help="path to the JSON run configuration")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        dest="overrides",
        help="override a scalar config field by dotted path "
             "(e.g. --set coding.blocklength=128)",
    )
    parser.add_argument("--output", help="override the output CSV path")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and has no effect; every command "
             "runs in one process",
    )
    args = parser.parse_args(argv)

    def fail(category: str, code: int, exc: Exception) -> int:
        print(f"error: category={category} {exc}", file=sys.stderr)
        return code

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        return fail("io", EXIT_IO, exc)

    try:
        raw = decode_json(text, "config")
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        raw = apply_overrides(raw, args.overrides)
        if args.output:
            raw["output"] = args.output
        rc = build_config(raw)
    except ConfigError as exc:
        return fail("config", EXIT_CONFIG, exc)

    try:
        path = dispatch(rc)
    except ConfigError as exc:
        return fail("config", EXIT_CONFIG, exc)
    except (DomainError, StabilityError) as exc:
        return fail("stability" if isinstance(exc, StabilityError) else "domain",
                    EXIT_DOMAIN, exc)
    except NumericError as exc:
        return fail("numeric", EXIT_NUMERIC, exc)
    except OSError as exc:
        return fail("io", EXIT_IO, exc)
    print(f"wrote {path}")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
