"""Samples the speed of the CPU the benchmark children run on.

Usage: ``python3 perfbench/yardstick.py INTERVAL_S``.  Every INTERVAL_S the
process runs a fixed burst of interpreter work twice and records the
monotonic start time and duration of the second run (about a
millisecond); the first refills the caches, so the second measures the
speed a warm, long-running process gets.  When its stdin closes it
prints the samples as one JSON list of ``[start, duration]`` pairs.

The parent pins itself, the children and this sampler to one CPU, so a burst
measures the speed that CPU offers to the child running at that moment.  On
a shared host that speed moves by a third or more for seconds to minutes at
a time (other tenants, not the program), which no number of repetitions
averages away; dividing by the burst time removes most of it.  The burst is fixed
code that never calls permfib, so a change to the program cannot move it.
"""

import itertools
import json
import select
import sys
import time

#: Median duration of one burst on the reference machine, a 2-vCPU Xeon
#: sandbox with Python 3.11; timings are reported in seconds of that machine.
REFERENCE_BURST_S = 0.001


def burst() -> int:
    """Peak counts over every permutation of six letters, like the program's sweeps."""
    total = 0
    for p in itertools.permutations(range(6)):
        total += sum(1 for i in range(2, 6) if p[i - 2] < p[i - 1] > p[i])
    return total


def main() -> int:
    interval = float(sys.argv[1])
    clock = time.monotonic
    samples = []
    while not select.select([sys.stdin], [], [], interval)[0]:
        burst()  # refills the caches the child has evicted; only the second counts
        start = clock()
        burst()
        samples.append((start, clock() - start))
    json.dump(samples, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
