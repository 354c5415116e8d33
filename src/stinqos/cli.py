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
import os
import sys

from . import channel, csvio
from .aoi import TRACE_FIELDS, trace_blocks, update_blocks
from .config import RunConfig, build_arrival, build_service, echo_params, parse_config
from .errors import ConfigError, DomainError, NumericError, StabilityError
from .experiments import SweepSpec, run_sweep
from .fbc import average_error, error_exponent, error_exponent_closed_form
from .reports import report_row
from .snc import BitArrival, delay_bound, optimize_paoi_bound, paoi_bound

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_NUMERIC = 4
EXIT_IO = 5


def _table(rows) -> tuple[list, list]:
    """Row dicts as a CSV's fields and its one block: the fields are the
    first row's keys in order, and a None value is an empty cell."""
    fields = list(rows[0])
    return fields, [[["" if row[k] is None else row[k] for row in rows]
                     for k in fields]]


def _run_error(rc: RunConfig):
    res = average_error(rc.scenario, rc.coding, rc.error_model)
    return _table([{"avg_error": res.value, "std_error": res.std_error,
                    "achieved_tol": res.achieved_tol, "method": res.method}])


def _run_exponent(rc: RunConfig):
    numeric = error_exponent(rc.scenario, rc.coding, rc.error_model)
    closed = error_exponent_closed_form(rc.scenario, rc.coding)
    return _table([{"blocklength": rc.coding.blocklength, "rate_nats": rc.coding.rate,
                    "theta_numeric": numeric.theta, "rho_star": numeric.params["rho_star"],
                    "theta_closed_form": closed.theta}])


def _run_aoi_sim(rc: RunConfig):
    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    updates = update_blocks(am, sm, rc.params["n_updates"],
                            rc.scenario.rng(channel.STREAM_TRACE))
    return TRACE_FIELDS, trace_blocks(updates)


def _run_paoi_bound(rc: RunConfig):
    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    a_th, u, theta = rc.params["a_th_cu"], rc.params["u"], rc.params["theta"]
    u = None if u == "inf" else int(u)
    n = rc.coding.blocklength
    report = (optimize_paoi_bound(a_th, n, u, am, sm) if theta == "optimize"
              else paoi_bound(float(theta), a_th, n, u, am, sm))
    return _table([report_row(report, seed=rc.seed)])


def _run_delay_bound(rc: RunConfig):
    p = rc.params
    if p["arrival_kind"] == "constant_rate":
        arrival = BitArrival.constant_rate(p["alpha_bits"])
    else:
        arrival = BitArrival.poisson_batch(p["rate_per_block"], p["batch_bits"])
    eps = average_error(rc.scenario, rc.coding, rc.error_model).value
    report = delay_bound(p["d_th_blocks"], arrival, rc.coding, eps)
    return _table([report_row(report, seed=rc.seed)])


def _run_sweep(rc: RunConfig):
    spec = SweepSpec(**{k: tuple(v) if isinstance(v, list) else v
                        for k, v in rc.params.items()})
    return _table(run_sweep(spec))


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
    is opened. aoi-sim checks its update count against aoi.MAX_UPDATES
    before any draw, then draws its updates and computes its trace one
    block of rows at a time while the CSV is written, so it holds one block
    whatever the count. The CSV goes to a temp file that replaces
    ``rc.output`` only when complete, so a failing run leaves no partial
    output behind.
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
        rc = parse_config(text, args.overrides, args.output)
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


def run() -> None:
    """Process entry of ``python -m stinqos`` and the console script.

    Runs main() on sys.argv, flushes standard output and error (each that
    the process was started with), and ends the process with os._exit: a
    finished run has written and closed its CSV, so module teardown, the
    shutdown garbage collections and the library destructors would only cost
    time. An exception out of main() or out of a flush (argparse's
    SystemExit included) ends the process the ordinary way.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
