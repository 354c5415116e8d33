"""Record the reference values that the benchmark's checks compare against.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

Runs every job that has reference fields, for every seed variant, and
rewrites ``perfbench/reference.json`` (config key -> one dict per CSV row).
Record again only when a job's config changes, never to absorb a change in
the program's numbers.
"""
import json
import shutil
import sys

import checks
import run
from workloads import N_VARIANTS, WORKLOADS


def main() -> int:
    reference = {}
    try:
        for variant in range(N_VARIANTS):
            for workload, make_jobs in WORKLOADS.items():
                jobs = [j for j in make_jobs(variant) if j.ref_fields]
                if not jobs:
                    continue
                shutil.rmtree(run.WORK, ignore_errors=True)
                _, _, results, _ = run.Runner(workload, jobs).run_pass()
                for job, res in zip(jobs, results):
                    if res.exit_code != 0:
                        print(f"{workload} {job.name}: exit {res.exit_code} "
                              f"{res.stderr.strip()[-300:]}", file=sys.stderr)
                        return 1
                    fields, rows = checks.read_csv(res.csv_path)
                    reference[job.key()] = [
                        {f: float(r[fields.index(f)]) for f in job.ref_fields}
                        for r in rows]
                print(f"variant {variant} {workload}: {len(jobs)} jobs")
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    (run.HERE / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
