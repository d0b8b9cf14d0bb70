"""Benchmark of the permfib command-line program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload perm-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30   # every metric of every workload

Each repetition of a workload runs in a fresh, single-threaded interpreter
(``child.py``), so no ``lru_cache`` or Fibonacci table carries over between
repetitions: a repetition pays what one CLI user pays.  Children run one at
a time, closed loop, pinned to one CPU.  Repetitions continue until
``--seconds`` are used up; each metric is the median over the repetitions of
the run, and ``setup_s`` also counts extra import-only children.

Times are measured from outside the program (wall clock around the child,
CPU time and peak memory from ``wait4``) and then expressed in seconds of a
reference machine: each time is multiplied by ``REFERENCE_BURST_S`` over the
median duration of the yardstick bursts (``yardstick.py``) sampled on the
same CPU while that child ran, or, for the latency of one operation, around
that operation (at least ``MIN_BURSTS`` bursts).  The raw times and the
scales are in the record line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-module metrics of the
traced ones, plus the tracing overhead; spans go to ``perfbench/out``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
seed, the interpreter, the CPU count, why the workload was chosen, the raw
times and any problems found in the outputs.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from yardstick import REFERENCE_BURST_S  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("verdict_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)

OVERHEAD = ("trace.overhead_s", "s")

#: Import-only children started before each repetition, for setup_s.
PROBES_PER_REP = 3

#: Seconds between two yardstick bursts.
SAMPLE_INTERVAL_S = 0.05

#: A scale rests on at least this many bursts, taken around the timed interval.
MIN_BURSTS = 5

#: A run, set-up included, ends within this many seconds.
RUN_LIMIT_S = 170.0


class SetupError(Exception):
    """The checkout cannot run the program at all."""


class Child:
    """Outcome of one child interpreter, measured from outside."""

    def __init__(self, started: float, ended: float, cpu_s: float, rss_mb: float,
                 code: int, payload: dict[str, Any] | None, stderr: str) -> None:
        self.started = started
        self.ended = ended
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.code = code
        self.payload = payload or {}
        self.stderr = stderr
        self.scale = 1.0
        self.latencies: list[float] = []  # of each operation, scaled

    @property
    def ok(self) -> bool:
        return self.code == 0 and "ready" in self.payload

    @property
    def setup_s(self) -> float:
        return self.payload["ready"] - self.started

    @property
    def verdict_s(self) -> float:
        return self.payload["verdict_s"]


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    for name in ("PERMFIB_MAX_N", "PYTHONDONTWRITEBYTECODE", "PYTHONSTARTUP"):
        env.pop(name, None)
    return env


def spawn(job: dict[str, Any], deadline: float) -> Child:
    """Run child.py on one job; CPU time and memory come from wait4."""
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryFile("w+", dir=OUT) as stdin, \
            tempfile.TemporaryFile("w+", dir=OUT) as stdout, \
            tempfile.TemporaryFile("w+", dir=OUT) as stderr:
        json.dump(job, stdin)
        stdin.seek(0)
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py")],
            stdin=stdin, stdout=stdout, stderr=stderr, cwd=ROOT, env=child_env(),
        )
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout.seek(0)
        stderr.seek(0)
        try:
            payload = json.load(stdout)
        except ValueError:
            payload = None
        err = stderr.read()
    return Child(started, ended, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, payload, err)


class Yardstick:
    """The sampler of yardstick.py, running beside the children on their CPU."""

    def __init__(self) -> None:
        OUT.mkdir(exist_ok=True)
        self._out = tempfile.TemporaryFile("w+", dir=OUT)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "yardstick.py"), str(SAMPLE_INTERVAL_S)],
            stdin=subprocess.PIPE, stdout=self._out, stderr=subprocess.DEVNULL, cwd=ROOT,
        )
        self._times: list[float] = []
        self._durations: list[float] = []

    def __enter__(self) -> "Yardstick":
        return self

    def __exit__(self, *exc) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._out.seek(0)
        try:
            samples = sorted(json.load(self._out))
        except ValueError:
            samples = []
        self._out.close()
        self._times = [t for t, _ in samples]
        self._durations = [d for _, d in samples]

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per measured second around [start, end]."""
        if len(self._times) < MIN_BURSTS:
            raise SetupError("the yardstick sampler recorded too few bursts")
        pad = 0.0
        while True:
            low = bisect.bisect_left(self._times, start - pad)
            high = bisect.bisect_right(self._times, end + pad)
            if high - low >= MIN_BURSTS:
                return REFERENCE_BURST_S / statistics.median(self._durations[low:high])
            pad = max(2 * pad, SAMPLE_INTERVAL_S)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks, as ``method='inclusive'``."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def check_checkout() -> None:
    if not (SRC / "permfib" / "__init__.py").is_file():
        raise SetupError(f"no permfib sources under {SRC}")


def pin_to_one_cpu() -> None:
    """Children and the yardstick inherit this, so they share one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_children(workload: str, seed: int, seconds: int, trace: bool):
    """Start probes and repetitions until the time is used; return them all."""
    deadline = time.monotonic() + RUN_LIMIT_S
    ops = workloads.build_job(workload, seed)
    spans = OUT / f"spans-{workload}-seed{seed}.jsonl"

    warm = spawn({"probe": True}, deadline)  # writes bytecode caches; not measured
    if not warm.ok:
        raise SetupError(f"permfib does not import:\n{warm.stderr}")
    if not Path(warm.payload["permfib"]).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported permfib from {warm.payload['permfib']}, not {SRC}")

    probes: list[Child] = []
    plain: list[Child] = []
    traced: list[Child] = []
    with Yardstick() as yardstick:
        begin = time.monotonic()
        while True:
            if not trace:
                probes += [spawn({"probe": True}, deadline) for _ in range(PROBES_PER_REP)]
            plain.append(spawn({"ops": ops, "trace": False}, deadline))
            if trace:
                traced.append(spawn({"ops": ops, "trace": True, "spans": str(spans)}, deadline))
            elapsed = time.monotonic() - begin
            per_rep = elapsed / len(plain)
            if elapsed + per_rep > seconds or time.monotonic() + 1.5 * per_rep > deadline:
                break
    for child in probes + plain + traced:
        child.scale = yardstick.scale(child.started, child.ended)
        child.latencies = [
            op["latency_s"] * yardstick.scale(op["start"], op["start"] + op["latency_s"])
            for op in child.payload.get("ops", [])
        ]
    return ops, probes, plain, traced


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict[str, Any]:
    """One run of one workload; returns the result and its record."""
    ops, probes, plain, traced = run_children(workload, seed, seconds, trace)

    attempted = failed = 0
    problems: list[str] = []
    for child in plain + traced:
        results = child.payload.get("ops") if child.ok else None
        if results is None:
            attempted += len(ops)
            failed += len(ops)
            problems.append(f"child exited {child.code}: {child.stderr.strip()[-300:]}")
            continue
        attempted += len(results)
        for result in results:
            if result["problems"]:
                failed += 1
                problems.extend(result["problems"])

    good = [c for c in plain if c.ok]
    good_traced = [c for c in traced if c.ok]
    setups = [c for c in probes + good if c.ok]
    median = statistics.median
    metrics: dict[str, dict[str, Any]] = {}
    if trace and good and good_traced:
        for name, (_, unit) in good_traced[0].payload["layers"].items():
            exponent = {"s": 1, "1/s": -1}.get(unit, 0)
            value = median(c.payload["layers"][name][0] * c.scale**exponent for c in good_traced)
            metrics[name] = {"value": value, "unit": unit}
        overhead = median(c.verdict_s * c.scale for c in good_traced) - \
            median(c.verdict_s * c.scale for c in good)
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
    elif good and not trace:
        values = {
            "setup_s": median(c.setup_s * c.scale for c in setups),
            "verdict_s": median(c.verdict_s * c.scale for c in good),
            "cpu_s": median(c.cpu_s * c.scale for c in good),
            "peak_rss_mb": median(c.rss_mb for c in good),
            "ops_per_s": median(len(ops) / (c.verdict_s * c.scale) for c in good),
            "op_p50_ms": 1000 * median(percentile(c.latencies, 50) for c in good),
            "op_p99_ms": 1000 * median(percentile(c.latencies, 99) for c in good),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    record = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "trace": int(trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "operations_per_repetition": len(ops),  # samples behind each op percentile
        "setup_samples": len(setups),
        "raw_setup_s": median(c.setup_s for c in setups) if setups else None,
        "raw_verdicts_s": [c.verdict_s for c in good],
        "raw_cpu_s": [c.cpu_s for c in good],
        "raw_traced_verdicts_s": [c.verdict_s for c in good_traced],
        "scales": [c.scale for c in good + good_traced],
        "failed_ratio": failed / attempted if attempted else 0.0,
        "problems": problems[:5],
    }
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"record": record, "result": result}


def print_metrics(workload: str, outcome: dict[str, Any]) -> None:
    record, result = outcome["record"], outcome["result"]
    for name, metric in result["metrics"].items():
        print(f"{workload:13s} {name:32s} {metric['value']:>16.6f} {metric['unit']}")
    print(
        f"{workload:13s} {'failed_ratio':32s} {record['failed_ratio']:>16.6f} "
        f"({result['failed']} of {result['attempted']} operations)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        check_checkout()
        pin_to_one_cpu()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        outcomes = {}
        for name in names:
            outcomes[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print_metrics(name, outcomes[name])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        print(json.dumps({name: o["record"] for name, o in outcomes.items()}))
        print(json.dumps({name: o["result"] for name, o in outcomes.items()}))
    else:
        print(json.dumps(outcomes[args.workload]["record"]))
        print(json.dumps(outcomes[args.workload]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
