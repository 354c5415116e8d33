"""Run one stinqos CLI job in this process with every public function traced.

Usage: python traced_job.py SPANS_JSON JOB_ID CLI_ARG...

The import of ``stinqos.cli`` is the ``startup.import`` span; the whole job
is the root span ``job``, whose self time is the part no layer accounts for.
Spans and counts are written to SPANS_JSON when the job ends; the exit code
is the CLI's.
"""
import json
import sys

from tracer import Tracer


def main() -> int:
    out_path, job_id, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer()
    with tracer.span("job"):
        with tracer.span("startup.import"):
            import stinqos.cli
        tracer.install()
        code = stinqos.cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job_id, "exit": code, "spans": tracer.spans,
                   "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
