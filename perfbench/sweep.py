"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/sweep.py --seeds 10 [--workloads grid2d_noncv ...] [--out FILE]

For every workload, runs ``run.py`` once per seed (seeds 1..N) with the
``run_seconds`` of BENCHMARK.json and prints, per metric, the median, the
quartiles and the spread (third minus first quartile, as a share of the
median) next to the metric's bound.  ``--out`` writes the same summary, plus
every run's values, as JSON: compare two such files, taken on the same
machine, to judge a change.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads", nargs="+", default=names)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    metrics = bench["per_layer" if args.trace else "end_to_end"]

    summary = {}
    for wl in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: incorrect output", file=sys.stderr)
            runs.append({"seed": seed, **result})
        rows = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"]
                      for r in runs if m["name"] in r["metrics"]]
            if len(values) < 2:
                continue
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else 0.0
            rows[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                               "bound": m.get("bound"), "unit": m["unit"]}
            bound = f"bound {m['bound']:.2f}" if "bound" in m else ""
            print(f"{wl:20s} {m['name']:34s} median {med:10.5g} {m['unit']:5s} "
                  f"spread {spread:6.3f} {bound}", flush=True)
        summary[wl] = {"metrics": rows, "runs": runs,
                       "failed": sum(r["failed"] for r in runs),
                       "attempted": sum(r["attempted"] for r in runs)}
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
