"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 perfbench/child.py < job.json > result.json`` with
``PYTHONPATH`` naming the checkout's ``src``.  The first statements import
permfib and the CLI, so the monotonic time printed as ``ready`` marks the
end of set-up; the parent subtracts the time it started the process.  The
job is read only after that.  A job ``{"probe": true}`` stops there.
"""

import time

import permfib  # noqa: F401
import permfib.cli  # noqa: F401

READY = time.monotonic()

import json  # noqa: E402
import sys  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    job = json.load(sys.stdin)
    result = {"ready": READY, "permfib": permfib.__file__}
    if not job.get("probe"):
        tracer = tracing.install() if job["trace"] else None
        start = time.perf_counter()
        result["ops"] = workloads.run_job(job["ops"], tracer)
        result["verdict_s"] = time.perf_counter() - start
        if tracer is not None:
            result["layers"] = tracer.metrics()
            tracer.write_spans(job["spans"])
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
