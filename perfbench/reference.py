"""A fixed reference kernel, timed in its own process to gauge the host's speed.

    python3 perfbench/reference.py

Each line read from standard input holds a count n; the process runs the
kernel n times and writes the mean wall time of one run, in seconds, as one
line.  It ends at end of input.

The kernel does the kinds of work paretoc's analysis does: small linear solves
and array reductions in a Python loop, and a hash table of small keys that
grows to tens of megabytes and is then sorted.  The host this benchmark was
written on changes speed by up to 2x over seconds to minutes, and such a
change slows this kernel much as it slows the program.  run.py times the
kernel before and after each workload run, for about a tenth of the run's
time, and between the steps of a refinement run, and gives the run's time
relative to the kernel's.  The kernel calls nothing in paretoc, so a change to
the program leaves it alone, and it runs in its own process, so its memory
stays out of the benchmark's peak resident set.
"""

import sys
import time

import numpy as np

ROWS, KEYS = 2000, 120   # about 0.15 s on a 2.1 GHz Xeon vCPU


def inputs():
    rng = np.random.default_rng(20100201)
    return rng.random((ROWS, 3, 3)) + 3.0 * np.eye(3), rng.random((ROWS, 3))


def kernel(a, b) -> float:
    t = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(ROWS):
        x = np.linalg.solve(a[i], b[i])
        acc += float(x @ x) + float(np.abs(a[i]).max())
        for j in range(KEYS):
            table[(i, j)] = acc * j
    sorted(table.values())
    return time.perf_counter() - t


def main():
    a, b = inputs()
    kernel(a, b)  # warm up
    for line in sys.stdin:
        n = int(line)
        print(repr(sum(kernel(a, b) for _ in range(n)) / n), flush=True)


if __name__ == "__main__":
    main()
