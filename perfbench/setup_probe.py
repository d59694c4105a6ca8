"""Print the set-up time of one workload, measured in this fresh process.

    python3 perfbench/setup_probe.py --workload refine2d_polyline --seed 3

Set-up is everything before a run: imports, problem lookup, input generation
and any reference complex.  run.py starts this script several times and
reports the median as ``setup_s``.
"""

import time

T0 = time.perf_counter()  # before any import

import argparse  # noqa: E402

import workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]
    wl.inputs_for(args.seed)
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
