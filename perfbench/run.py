#!/usr/bin/env python3
"""Benchmark of the stinqos command line, end to end and layer by layer.

Run from the root of a checkout (no install needed, ``src/`` is used):

    python3 perfbench/run.py --workload link_error --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py``): trace_export, figure_sweeps, link_error,
bound_queries. Each job is a fresh ``python -m stinqos`` subprocess and jobs
run one at a time, a closed loop with one client; only the fig3
``--workers 2`` job uses two processes.

``--trace 0`` makes round(seconds / nominal pass time) passes over the
workload's jobs (at least one) and reports the end-to-end metrics. A job's
time is its fastest ok repeat in the run, spawn to exit, in reference
seconds (see below):

* ``wall_s``: one pass over the workload's ok jobs at those times;
* ``job_p50_s``, ``job_p90_s``: median and 90th percentile over the jobs
  (the printed lines state how many jobs lie beyond p90);
* ``setup_s``: median spawn-to-exit time of ``import stinqos.cli``;
* ``peak_rss_mb``: largest per-job peak RSS, from ``os.wait4`` of that job.
  For the ``--workers 2`` job the kernel reports the largest peak among the
  job and the pool workers it reaped, not their sum.

Reference seconds: the speed of a shared machine drifts by tens of percent
over minutes, and a whole run drifts with it. So this process and every
single-process job run on one CPU, a fixed pure-Python loop (``probe``) is
timed on that CPU before each job and after the last, and every end-to-end
time is scaled by ``PROBE_REF_S / median(probe times of the run)``. A change
to the program does not change the probe, so its gains show in full. The
printed lines give the raw times and the scale too.

``--trace 1`` runs one untraced pass and one traced pass (``traced_job.py``
wraps every public function of the package) and reports the per-layer
metrics: self times (``busy_s``), exact counts, the import split from
``python -X importtime``, and the tracing overhead.

Every job's output is checked outside the timed region (``checks.py``).
Jobs that fail count in ``fail_ratio`` and not in the timings. The
quadrature ``error`` job at K >= 7 of link_error is a known failure of the
program (exit 4, numeric error): it is run, printed in ``fail_ratio`` and
the run record, and counted as expected rather than in ``failed``.
The last line of standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import checks
from workloads import WHY, WORKLOADS, DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SPAWNS = 5
PROBE_REF_S = 0.1  # probe time that defines one reference second
ALL_CPUS = os.sched_getaffinity(0)
JOB_CPU = max(ALL_CPUS)
# Pass time of each workload on a 2-CPU machine; a run makes
# round(seconds / this) passes, so that the number of repeats a job's
# fastest time is taken from does not depend on how busy the machine is.
NOMINAL_PASS_S = {"trace_export": 18.0, "figure_sweeps": 9.0,
                  "link_error": 38.0, "bound_queries": 8.0}
IMPORT_PROBE = "import stinqos.cli"

END_TO_END_UNITS = {"wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = ("startup", "config", "channel", "fbc", "optimize", "snc", "aoi",
          "experiments", "csvio", "cli")
FUNCTION_METRICS = {
    "config.build_config": ("busy_s",),
    "cli.dispatch": ("busy_s",),
    "csvio.render_csv": ("busy_s", "rows", "bytes"),
    "aoi.trace_rows": ("busy_s", "rows"),
    "aoi.departure_times": ("busy_s", "calls", "updates"),
    "aoi.build_trace": ("busy_s",),
    "aoi.simulate_trace": ("busy_s",),
    "experiments.run_sweep": ("busy_s",),
    "channel.sample_channel_gain": ("busy_s", "draws"),
    "channel.shadowed_rician_pdf": ("busy_s", "calls", "points"),
    "channel.log_hyp1f1_integer": ("busy_s",),
    "channel.srician_quad_nodes": ("busy_s", "calls"),
    "fbc.sinr_quadrature": ("busy_s", "calls", "nodes", "bytes_computed"),
    "fbc.average_error": ("busy_s",),
    "fbc.conditional_error": ("busy_s", "evals"),
    "fbc.gallager_e0_samples": ("busy_s", "calls", "node_evals"),
    "fbc.error_exponent": ("busy_s",),
    "optimize.grid_then_golden": ("busy_s", "calls", "objective_evals"),
    "snc.optimize_paoi_bound": ("busy_s",),
    "snc.paoi_theta_interval": ("busy_s",),
    "snc.log_paoi_kernel": ("calls",),
    "snc.delay_bound": ("busy_s",),
}


def per_layer_units() -> dict:
    """Name -> unit of every per-layer metric, in report order."""
    units = {"startup.import_s": "s", "startup.scipy_import_s": "s",
             "trace.overhead_ratio": "ratio", "trace.job_s": "s",
             "trace.unattributed_s": "s"}
    units.update({f"{layer}.busy_s": "s" for layer in LAYERS})
    for fn, quantities in FUNCTION_METRICS.items():
        for q in quantities:
            units[f"{fn}.{q}"] = {"busy_s": "s", "bytes": "B",
                                  "bytes_computed": "B"}.get(q, "count")
    return units


class SetupError(Exception):
    """The program cannot be started from this checkout."""


@dataclass
class Result:
    wall_s: float
    exit_code: int
    rss_mb: float
    stderr: str
    csv_path: Path


def job_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # one thread per job, so that only the --workers 2 job uses both CPUs
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def probe() -> float:
    """Seconds a fixed pure-Python loop takes: the speed of this CPU now."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - start


def spawn(argv, cwd: Path, env: dict, all_cpus: bool = False) -> Result:
    """Run one process to its end; wall time spawn to exit, its own rusage.

    The child inherits the caller's CPU; ``all_cpus`` lets it use every CPU
    the benchmark started with.
    """
    err_path = cwd / "stderr.txt"
    widen = (lambda: os.sched_setaffinity(0, ALL_CPUS)) if all_cpus else None
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=widen)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                  err_path.read_text(errors="replace"), cwd / "out.csv")


class Runner:
    """Runs the jobs of one workload, each in its own directory under WORK."""

    def __init__(self, workload: str, jobs):
        self.workload = workload
        self.jobs = jobs
        self.env = job_env()
        self.dirs = []
        for i, job in enumerate(jobs):
            d = WORK / f"{i:02d}_{job.name}"
            d.mkdir(parents=True)
            (d / "config.json").write_text(
                json.dumps(dict(job.config, output="out.csv")))
            self.dirs.append(d)

    def argv(self, job, traced: bool, d: Path) -> list:
        if traced:
            return [sys.executable, str(HERE / "traced_job.py"),
                    str(d / "spans.json"), job.name, "config.json"]
        extra = ["--workers", str(job.workers)] if job.workers > 1 else []
        return [sys.executable, "-m", "stinqos", "config.json"] + extra

    def run_pass(self, traced: bool = False):
        """One pass; returns (summed job seconds, jobs run, their results,
        probe times before each job and after the last)."""
        chosen = [(j, d) for j, d in zip(self.jobs, self.dirs)
                  if not (traced and j.workers > 1)]
        for _, d in chosen:
            for name in ("out.csv", "spans.json"):
                (d / name).unlink(missing_ok=True)
        results, probes = [], [probe()]
        for j, d in chosen:
            results.append(spawn(self.argv(j, traced, d), d, self.env, j.workers > 1))
            probes.append(probe())
        wall = sum(r.wall_s for r in results)
        return wall, [j for j, _ in chosen], results, probes


def spawn_checked(argv) -> Result:
    res = spawn(argv, WORK, job_env())
    if res.exit_code != 0:
        raise SetupError(f"{' '.join(argv[1:])} exited {res.exit_code}: "
                         f"{res.stderr.strip()[-500:]}")
    return res


def parse_importtime(stderr: str) -> tuple[float, float]:
    """Seconds spent importing stinqos and, within it, scipy.

    ``-X importtime`` prints each module after the modules it imported, two
    spaces deeper per level; cumulative times of the outermost stinqos and
    scipy entries are summed.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, _, cum, name = line.replace("import time:", "|", 1).split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cum) * 1e-6))
    package = scipy = 0.0
    ancestors = []
    for depth, name, cum in reversed(entries):
        del ancestors[depth:]
        if depth == 0 and name.split(".")[0] == "stinqos":
            package += cum
        if name.split(".")[0] == "scipy" and not any(
                a.split(".")[0] == "scipy" for a in ancestors):
            scipy += cum
        ancestors.append(name)
    return package, scipy


def tally(jobs, results, verdicts) -> dict:
    """Counts and ok-job samples of one or more passes."""
    out = {"attempted": len(results), "failed": 0, "refused": 0,
           "nonzero_exit": 0, "times": [], "rss": [], "failures": []}
    for job, res, verdict in zip(jobs, results, verdicts):
        out["nonzero_exit"] += res.exit_code != 0
        if verdict == "ok":
            out["times"].append((job.name, res.wall_s))
            out["rss"].append(res.rss_mb)
        elif verdict == "refused":
            out["refused"] += 1
        else:
            out["failed"] += 1
            out["failures"].append(f"{job.name}: {verdict}")
    return out


def merge(a: dict, b: dict) -> dict:
    return {k: a[k] + b[k] for k in a}


def report_failures(t: dict, jobs) -> None:
    refusals = sorted({j.name for j in jobs if j.may_refuse})
    bad = t["failed"] + t["refused"]
    print(f"fail_ratio = {bad / t['attempted']:.6g} ({bad}/{t['attempted']} jobs; "
          f"{t['refused']} known refusals of {refusals or 'none'}, "
          f"{t['failed']} unexpected failures, {t['nonzero_exit']} non-zero exits)")
    for line in t["failures"]:
        print(f"  FAILED {line}")


def timed_run(runner: Runner, seconds: float, reference: dict):
    """End-to-end metrics from passes that take about ``seconds`` in all.

    A job's time is its fastest ok repeat in the run: other tenants of the
    machine only ever add time. ``wall_s`` is one pass at those times.
    """
    setup, probes = [], [probe()]
    for _ in range(SETUP_SPAWNS):
        setup.append(spawn_checked([sys.executable, "-c", IMPORT_PROBE]).wall_s)
        probes.append(probe())
    passes = max(1, round(seconds / NOMINAL_PASS_S[runner.workload]))
    tallies, measured = None, 0.0
    for _ in range(passes):
        wall, jobs, results, pass_probes = runner.run_pass()
        t = tally(jobs, results, checks.check_pass(jobs, results, reference))
        tallies = t if tallies is None else merge(tallies, t)
        measured += wall
        probes += pass_probes
    scale = PROBE_REF_S / statistics.median(probes)
    best = {}
    for name, wall in tallies["times"]:
        best[name] = min(wall, best.get(name, math.inf))
    times = sorted(best.values())
    if not times:
        raise SetupError("no job of the workload succeeded: "
                         + "; ".join(tallies["failures"][:3]))
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] \
        if len(times) > 1 else times[0]
    raw = {
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": p90,
        "setup_s": statistics.median(setup),
    }
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = max(tallies["rss"])
    fastest = f"fastest of {passes} passes"
    samples = {
        "wall_s": f"{len(times)} ok jobs, each at its {fastest}",
        "job_p50_s": f"n={len(times)} jobs, {fastest}",
        "job_p90_s": f"n={len(times)} jobs, {fastest}, "
                     f"{sum(x > p90 for x in times)} beyond",
        "setup_s": f"n={len(setup)} spawns",
        "peak_rss_mb": f"max of n={len(tallies['rss'])} job runs",
    }
    for name, value in metrics.items():
        unscaled = f"; raw {raw[name]:.6g} s" if name in raw else ""
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]} "
              f"({samples[name]}{unscaled})")
    print(f"measured {measured:.2f} s of jobs in {passes} passes; probe median "
          f"{statistics.median(probes):.5f} s over {len(probes)} probes, "
          f"scale {scale:.5f}")
    report_failures(tallies, runner.jobs)
    return metrics, tallies


def traced_run(runner: Runner, reference: dict):
    splits = [parse_importtime(spawn_checked(
        [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE]).stderr)
        for _ in range(SETUP_SPAWNS)]
    _, jobs, plain, _ = runner.run_pass()
    t_plain = tally(jobs, plain, checks.check_pass(jobs, plain, reference))
    _, tjobs, traced, _ = runner.run_pass(traced=True)
    t_traced = tally(tjobs, traced, checks.check_pass(tjobs, traced, reference))

    self_s, counts, job_s = defaultdict(float), defaultdict(int), 0.0
    for job, res in zip(tjobs, traced):
        path = res.csv_path.with_name("spans.json")
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        for _, _, name, start, end, own in data["spans"]:
            self_s[name] += own
            if name == "job":
                job_s += end - start
        for key, n in data["counts"].items():
            counts[key] += n
    plain_by_name = {j.name: r.wall_s for j, r in zip(jobs, plain)}
    overhead = (sum(r.wall_s for r in traced)
                / sum(plain_by_name[j.name] for j in tjobs))

    module_s = defaultdict(float)
    for name, own in self_s.items():
        if name != "job":
            module_s[name.split(".")[0]] += own
    metrics = {
        "startup.import_s": statistics.median(s[0] for s in splits),
        "startup.scipy_import_s": statistics.median(s[1] for s in splits),
        "trace.overhead_ratio": overhead,
        "trace.job_s": job_s,
        "trace.unattributed_s": self_s["job"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = module_s[layer]
    for fn, quantities in FUNCTION_METRICS.items():
        for q in quantities:
            metrics[f"{fn}.{q}"] = self_s[fn] if q == "busy_s" else counts[f"{fn}.{q}"]

    print(f"traced job time {job_s:.4f} s over {len(tjobs)} jobs = layer self "
          f"times {sum(module_s.values()):.4f} s + unattributed {self_s['job']:.4f} s")
    for module, own in sorted(module_s.items(), key=lambda kv: -kv[1]):
        print(f"  {module:12s} {own:10.4f} s  {100 * own / job_s:5.1f} %")
    print(f"  {'unattributed':12s} {self_s['job']:10.4f} s  "
          f"{100 * self_s['job'] / job_s:5.1f} %")
    for name, own in sorted(self_s.items(), key=lambda kv: -kv[1])[:12]:
        print(f"  top self time: {name} {own:.4f} s")
    t = merge(t_plain, t_traced)
    report_failures(t, runner.jobs)
    return metrics, t


def run_record(workload: str, seed: int, jobs) -> dict:
    import numpy
    import scipy

    cpu_max = Path("/sys/fs/cgroup/cpu.max")
    return {
        "workload": workload, "seed": seed, "why": WHY[workload],
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max.read_text().strip() if cpu_max.exists() else None,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "known_failing": [f"{j.name}: quadrature error at K >= 7 exits 4 "
                          f"(numeric error), counted in fail_ratio"
                          for j in jobs if j.may_refuse],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stinqos" / "__init__.py").is_file():
        print(f"error: no stinqos sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the checks read outputs with stinqos.aoi
    jobs = WORKLOADS[args.workload](args.seed)
    print("run record: " + json.dumps(run_record(args.workload, args.seed, jobs)))
    reference = json.loads((HERE / "reference.json").read_text())

    shutil.rmtree(WORK, ignore_errors=True)
    os.sched_setaffinity(0, {JOB_CPU})
    try:
        runner = Runner(args.workload, jobs)
        if args.trace:
            metrics, t = traced_run(runner, reference)
            units = per_layer_units()
        else:
            metrics, t = timed_run(runner, args.seconds, reference)
            units = END_TO_END_UNITS
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({
        "correct": t["failed"] == 0,
        "attempted": t["attempted"],
        "failed": t["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
