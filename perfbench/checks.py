"""Output checks of the benchmark jobs, run outside the timed region.

``check_pass`` returns one verdict per job: ``"ok"``, ``"refused"`` for the
known-failing paper-range job when it exits with the numeric-error code, or
a string that says why the job failed.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

EXIT_NUMERIC = 4
MAXPLUS_PREFIX = 4096  # departures checked against the max-plus form
ORACLE_PREFIX = 64  # rows on which the library's O(N^3) oracle is run too


def read_csv(path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("".join(lines))))
    return rows[0], rows[1:]


def read_columns(path) -> dict:
    """Numeric CSV as {column: float array}; fields must be plain numbers."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    start = 0
    while text.startswith("#", start):
        start = text.index("\n", start) + 1
    header_end = text.index("\n", start)
    fields = text[start:header_end].split(",")
    body = text[header_end + 1:].replace("\n", ",")
    values = np.fromstring(body, sep=",") if body else np.zeros(0)
    table = values.reshape(-1, len(fields))
    return {name: table[:, i] for i, name in enumerate(fields)}


def maxplus_departures(arrivals, services) -> np.ndarray:
    """Max-plus departures max_{v<=u} (A[v] + S[v] + ... + S[u]), O(N^2).

    Each candidate sum is extended by one addition per step in the same
    order as ``aoi.departure_times_maxplus``, so the floats are identical.
    """
    n = len(arrivals)
    sums = np.empty(n)
    out = np.empty(n)
    for u in range(n):
        sums[:u] += services[u]
        sums[u] = arrivals[u] + services[u]
        out[u] = sums[: u + 1].max()
    return out


def check_trace(job, path) -> str:
    from stinqos.aoi import departure_times_maxplus

    col = read_columns(path)
    n = job.config["params"]["n_updates"]
    if len(col["u"]) != n:
        return f"{len(col['u'])} rows, expected {n}"
    if not np.array_equal(col["u"], np.arange(1, n + 1)):
        return "u column is not 1..N"
    arr, svc, dep = col["arrival"], col["service"], col["departure"]
    if not np.all(np.isfinite(dep)):
        return "non-finite departure"
    if not np.array_equal(col["sojourn"], dep - arr):
        return "sojourn != departure - arrival"
    if not np.array_equal(col["peak_aoi"], np.diff(arr, prepend=0.0) + col["sojourn"]):
        return "peak_aoi != gap + sojourn"
    m = min(n, MAXPLUS_PREFIX)
    expect = maxplus_departures(arr[:m], svc[:m])
    k = min(m, ORACLE_PREFIX)
    if not np.array_equal(expect[:k], departure_times_maxplus(arr[:k], svc[:k])):
        return "max-plus prefix disagrees with aoi.departure_times_maxplus"
    if not np.array_equal(dep[:m], expect):
        return f"departures differ from the max-plus form in the first {m} rows"
    return "ok"


def _close(value: float, ref: float, tol: float) -> bool:
    return value == ref or abs(value - ref) <= tol * max(1.0, abs(ref))


def check_reference(job, rows, fields, reference, tol) -> str:
    ref = reference.get(job.key())
    if ref is None:
        return "no reference value recorded for this config"
    got = [{f: float(r[fields.index(f)]) for f in job.ref_fields} for r in rows]
    if len(got) != len(ref):
        return f"{len(got)} rows, reference has {len(ref)}"
    for i, (g, r) in enumerate(zip(got, ref)):
        for f in job.ref_fields:
            if not _close(g[f], r[f], tol):
                return f"row {i} {f}={g[f]!r} outside {tol:g} of reference {r[f]!r}"
    return "ok"


def _tolerance(job) -> float:
    cfg = job.config
    if cfg["command"] == "sweep":
        return 1e-7  # SweepSpec.quad_tolerance default
    return cfg.get("error_model", {}).get("quad_tolerance", 1e-6)


def _row(fields, rows) -> dict:
    return {f: rows[0][i] for i, f in enumerate(fields)}


def _check_table(job, fields, rows) -> str:
    cmd = job.config["command"]
    if not rows:
        return "empty output"
    if cmd == "error":
        r = _row(fields, rows)
        if not 0.0 <= float(r["avg_error"]) <= 1.0:
            return f"avg_error {r['avg_error']} outside [0, 1]"
    elif cmd == "exponent":
        r = _row(fields, rows)
        if not (float(r["theta_numeric"]) >= 0.0 and 0.0 <= float(r["rho_star"]) <= 1.0):
            return f"theta {r['theta_numeric']} or rho {r['rho_star']} out of range"
    elif cmd in ("paoi-bound", "delay-bound"):
        r = _row(fields, rows)
        if not (0.0 <= float(r["bound"]) <= 1.0 and float(r["theta"]) > 0.0
                and r["stable"] == "true"):
            return f"bound {r['bound']}, theta {r['theta']}, stable {r['stable']}"
    elif cmd == "sweep":
        figure = job.config["params"]["figure"]
        if figure == "fig3":
            return _check_fig3(fields, rows)
        if figure == "fig5":
            theta = [float(r[fields.index("theta_numeric")]) for r in rows]
            if any(b > a + 1e-12 for a, b in zip(theta, theta[1:])):
                return "fig5 exponent increases with blocklength"
    return "ok"


def _check_fig3(fields, rows) -> str:
    """Coupled draws make mean peak AoI nondecreasing in K (K >= 1)."""
    by = {}
    for r in rows:
        d = dict(zip(fields, r))
        by.setdefault((d["snr_db"], d["system"]), []).append(
            (int(d["k"]), float(d["mean_paoi_cu"])))
    for key, seq in by.items():
        vals = [v for k, v in sorted(seq) if k >= 1]
        if any(b < a for a, b in zip(vals, vals[1:])):
            return f"mean peak AoI decreases in K at {key}"
    return "ok"


def check_pass(jobs, results, reference) -> list[str]:
    """Verdict per job for one pass over a workload."""
    by_name = {job.name: (job, res) for job, res in zip(jobs, results)}
    return [_check_job(job, res, by_name, reference)
            for job, res in zip(jobs, results)]


def _check_job(job, res, by_name, reference) -> str:
    if res.exit_code != 0:
        if job.may_refuse and res.exit_code == EXIT_NUMERIC \
                and "category=numeric" in res.stderr:
            return "refused"
        return f"exit {res.exit_code}: {res.stderr.strip()[-200:]}"
    if job.config["command"] == "aoi-sim":
        return check_trace(job, res.csv_path)
    fields, rows = read_csv(res.csv_path)
    verdict = _check_table(job, fields, rows)
    if verdict == "ok" and job.ref_fields:
        verdict = check_reference(job, rows, fields, reference, _tolerance(job))
    if verdict == "ok" and job.pair:
        verdict = _check_pair(fields, rows, *by_name[job.pair])
    if verdict == "ok" and job.workers > 1:
        with open(res.csv_path, "rb") as fh:
            mine = fh.read()
        twin = next(r for j, r in by_name.values()
                    if j.config == job.config and j.workers == 1)
        with open(twin.csv_path, "rb") as fh:
            if fh.read() != mine:
                return f"CSV differs from the --workers 1 CSV of {job.config['params']['figure']}"
    return verdict


def _check_pair(fields, rows, mc_job, mc_res) -> str:
    """Quadrature average error within 3 standard errors of Monte Carlo."""
    if mc_res.exit_code != 0:
        return f"paired Monte Carlo job {mc_job.name} failed"
    quad = float(_row(fields, rows)["avg_error"])
    mc_fields, mc_rows = read_csv(mc_res.csv_path)
    mc = _row(mc_fields, mc_rows)
    mean, se = float(mc["avg_error"]), float(mc["std_error"])
    if not (se > 0.0 and math.isfinite(se)):
        return f"Monte Carlo standard error {se!r}"
    z = abs(quad - mean) / se
    if z > 3.0:
        return f"quadrature {quad!r} is {z:.2f} SE from Monte Carlo {mean!r}"
    return "ok"
