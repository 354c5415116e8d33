"""Batch command-line front-end.

One JSON configuration file describes one run; flags only override scalar
fields. Results are written as a single CSV whose '#' comment header echoes
the fully resolved configuration, so (config, seed) -> output bytes is a
pure function.

A run exits 0; a failure exits with the code that ``_FAILURES`` gives it.
"""
from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import csvio
from .config import RunConfig, build_arrival, build_service, echo_params, parse_config
from .errors import ConfigError, DomainError, NumericError, StabilityError

# Each runner imports the layers only its command uses (channel, fbc, aoi,
# snc, the sweep layer), so a run loads no more than its command needs.

# The category and exit code of each failure a run reports; the first
# class that matches decides, and any other exception propagates
_FAILURES = ((ConfigError, "config", 2),
             (StabilityError, "stability", 3),
             (DomainError, "domain", 3),
             (NumericError, "numeric", 4),
             (OSError, "io", 5))


def _table(rows) -> tuple[list, list]:
    """Row dicts as a CSV's fields and its one block: the fields are the
    first row's keys in order, and a None value is an empty cell."""
    fields = list(rows[0])
    return fields, [[["" if row[k] is None else row[k] for row in rows]
                     for k in fields]]


def _bound_table(report, seed):
    """The one-row table of a peak-AoI or delay bound. A query with no
    stable theta is refused, so every bound row is stable."""
    return _table([{"kind": report.kind, "theta": report.theta,
                    "threshold": report.threshold, "kernel": report.kernel_value,
                    "bound": report.bound_value, "stable": True, "seed": seed}])


def _run_error(rc: RunConfig):
    from .fbc import average_error

    res = average_error(rc.scenario, rc.coding, rc.error_model)
    return _table([{"avg_error": res.value, "std_error": res.std_error,
                    "achieved_tol": res.achieved_tol, "method": res.method}])


def _run_exponent(rc: RunConfig):
    from .fbc import error_exponent, error_exponent_closed_form

    theta, rho_star = error_exponent(rc.scenario, rc.coding, rc.error_model)
    closed = error_exponent_closed_form(rc.scenario, rc.coding)
    return _table([{"blocklength": rc.coding.blocklength, "rate_nats": rc.coding.rate,
                    "theta_numeric": theta, "rho_star": rho_star,
                    "theta_closed_form": closed}])


def _run_aoi_sim(rc: RunConfig):
    from .aoi import TRACE_FIELDS, trace_blocks, update_blocks
    from .channel import STREAM_TRACE

    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    updates = update_blocks(am, sm, rc.params["n_updates"],
                            rc.scenario.rng(STREAM_TRACE))
    return TRACE_FIELDS, trace_blocks(updates)


def _run_paoi_bound(rc: RunConfig):
    from .snc import optimize_paoi_bound, paoi_bound

    am = build_arrival(rc.params.get("arrival"), rc.defaults_used)
    sm = build_service(rc.params.get("service"), rc.defaults_used, rc)
    a_th, u, theta = rc.params["a_th_cu"], rc.params["u"], rc.params["theta"]
    u = None if u == "inf" else int(u)
    n = rc.coding.blocklength
    report = (optimize_paoi_bound(a_th, n, u, am, sm) if theta == "optimize"
              else paoi_bound(float(theta), a_th, n, u, am, sm))
    return _bound_table(report, rc.seed)


def _run_delay_bound(rc: RunConfig):
    from .fbc import average_error
    from .snc import BitArrival, delay_bound

    p = rc.params
    if p["arrival_kind"] == "constant_rate":
        arrival = BitArrival.constant_rate(p["alpha_bits"])
    else:
        arrival = BitArrival.poisson_batch(p["rate_per_block"], p["batch_bits"])
    eps = average_error(rc.scenario, rc.coding, rc.error_model).value
    report = delay_bound(p["d_th_blocks"], arrival, rc.coding, eps)
    return _bound_table(report, rc.seed)


def _run_sweep(rc: RunConfig):
    from .experiments import SweepSpec, run_sweep

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

    try:
        with open(args.config, "rb") as fh:
            rc = parse_config(fh.read(), args.overrides, args.output)
        path = dispatch(rc)
    except Exception as exc:
        for cls, category, code in _FAILURES:
            if isinstance(exc, cls):
                print(f"error: category={category} {exc}", file=sys.stderr)
                return code
        raise
    # a character standard output cannot encode is written backslash-escaped,
    # and a reader of standard output that has gone ends the output, so a
    # run that wrote its CSV still exits 0
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    with contextlib.suppress(BrokenPipeError):
        print(f"wrote {path}".encode(encoding, "backslashreplace").decode(encoding))
    return 0


def run() -> None:
    """Process entry of ``python -m stinqos`` and the console script.

    Runs main() on sys.argv, flushes standard output and error (each that
    the process was started with), and ends the process with os._exit: a
    finished run has written and closed its CSV, so module teardown, the
    shutdown garbage collections and the library destructors would only cost
    time. A flush to a reader that has gone ends that stream's output; any
    other exception out of main() or out of a flush (argparse's SystemExit
    included) ends the process the ordinary way.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(BrokenPipeError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
