"""Record the expected output of every workload and input set.

    python3 perfbench/record_baseline.py --commit <commit id>

Runs each workload once per input set and writes ``perfbench/baseline.json``:
the SHA-256 of the serialized complex, strata counts, marker counts per kind,
component count and, for refinement workloads, the final max minor and
Hausdorff distance.  run.py counts a run whose digest differs as failed.  Run
this only at a commit whose output is the accepted reference.
"""

import argparse
import json
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--commit", required=True, help="commit the outputs are recorded at")
    args = ap.parse_args()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    doc = {"commit": args.commit, "workloads": {}}
    for wl in workloads.WORKLOADS.values():
        digests = {}
        for input_set in range(wl.input_sets):
            path = out / f"{wl.name}.json"
            outcome = wl.run(wl.setup(input_set), str(path))
            digests[str(input_set)] = workloads.digest(outcome, path)
            print(wl.name, input_set, digests[str(input_set)]["sha256"], flush=True)
        doc["workloads"][wl.name] = {"input_sets": wl.input_sets, "digests": digests}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
