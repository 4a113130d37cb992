"""Run one posetlab CLI command in this fresh process.

Usage: python3 job.py META TRACE JOB -- <posetlab arguments>

Imports ``posetlab.cli`` (with ``src`` on ``PYTHONPATH``), notes the
monotonic time at which the CLI is ready, runs the command exactly as
``python -m posetlab.cli`` would, and on exit writes a JSON document to
META: the ready time and, when TRACE is 1, the job's spans and
counters. stdout and the exit status are the CLI's own.
"""

import json
import sys
import time


def main() -> None:
    import posetlab.cli as cli

    ready_ns = time.monotonic_ns()
    meta_path, trace, job = sys.argv[1:4]
    if sys.argv[4:5] != ["--"]:
        raise SystemExit("usage: job.py META TRACE JOB -- <posetlab arguments>")
    tracer = None
    if trace == "1":
        import tracing

        tracer = tracing.install(job)
    sys.argv = ["posetlab"] + sys.argv[5:]
    try:
        cli.main()
    finally:
        meta = {"ready_ns": ready_ns}
        if tracer is not None:
            meta["trace"] = tracer.report({"incidence.memo_entries": tracing.memo_entries()})
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)


if __name__ == "__main__":
    main()
