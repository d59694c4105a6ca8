"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid3d_tri --seed 0 --seconds 36 --trace 0

Runs the workload in a loop for ``--seconds`` seconds, checks every run's
output against ``baseline.json`` and prints a readable summary followed, as
the last line, by one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json, and each run is bracketed by runs of a fixed reference kernel,
so that its time can be given relative to the host's speed at that moment.
With ``--trace 1`` plain and traced runs alternate and the metrics are the
per-layer ones, derived from spans recorded around the calls into each layer.
``perfbench/out/<workload>.trace.json.gz`` then holds every run's wall time,
each traced run's per-layer metrics and the spans of the first traced run.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here, before any import

import argparse  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_SAMPLES = 5    # this process plus four fresh probe processes
CHILD_TIMEOUT_S = 120
REF_SHARE = 0.1      # reference kernel time taken after a run, as a share of the run
END_TO_END = {"wall_rel": "ref", "iter_rel": "ref", "setup_s": "s", "peak_rss_mb": "MB"}


class Reference:
    """The reference kernel of reference.py, served by a child process."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __call__(self, n: int = 1) -> float:
        """Mean time of ``n`` kernel runs, in seconds."""
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("perfbench: the reference process ended early")
        return float(line)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty list."""
    v = sorted(values)
    k = (len(v) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (k - lo)


def tail(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100.0 >= 10:
            return f"p{p} {percentile(values, p):.4f}"
    return "no percentile has ten samples beyond it"


def setup_probe(workload, seed) -> float:
    """Set-up time of the workload, measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
         "--seed", str(seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return float(proc.stdout.split()[-1])


def load_expected(workload, input_sets) -> dict:
    """input set -> its recorded output digest."""
    doc = json.loads((HERE / "baseline.json").read_text())
    try:
        return {i: doc["workloads"][workload]["digests"][str(i)] for i in input_sets}
    except KeyError as e:
        raise SystemExit(f"perfbench: no recorded output for {workload} input set {e}")


def check_declared(trace: bool) -> dict:
    """name -> unit of this mode's metrics, which BENCHMARK.json must declare."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}
    ours = {n: unit for n, (unit, _) in PER_LAYER.items()} if trace else END_TO_END
    if declared != ours:
        raise SystemExit("perfbench: metrics do not match BENCHMARK.json")
    return ours


class Runner:
    def __init__(self, workload, inputs, expected, tracer=None, reference=None):
        self.wl = workload
        self.inputs = inputs
        self.expected = expected
        self.tracer = tracer
        self.reference = reference
        self.out = OUT / f"{workload.name}.json"
        self.runs = []   # dicts: traced, input_set, ok, wall, refs, steps, history, run_id, metrics

    def one(self, traced: bool):
        input_set, inputs = self.inputs[len(self.runs) % len(self.inputs)]
        expected = self.expected[input_set]
        run = {"traced": traced, "ok": False, "run_id": None, "input_set": input_set}
        try:
            if traced:
                first = not any(r["traced"] for r in self.runs)
                with self.tracer.installed(inputs, keep_spans=first) as traced_inputs:
                    run["run_id"] = self.tracer.run_id
                    outcome, run["wall"], run["metrics"] = self.tracer.run(
                        self.wl.run, traced_inputs, str(self.out))
            elif self.reference:
                pauses = []   # (reference kernel time, pause time) between steps

                def pause():
                    t = time.perf_counter()
                    ref = self.reference()
                    pauses.append((ref, time.perf_counter() - t))

                run["pause_refs"] = pauses
                t = time.perf_counter()
                outcome = self.wl.run(dict(inputs, pause=pause), str(self.out))
                run["wall"] = time.perf_counter() - t - sum(d for _, d in pauses)
            else:
                t = time.perf_counter()
                outcome = self.wl.run(inputs, str(self.out))
                run["wall"] = time.perf_counter() - t
            got = workloads.digest(outcome, self.out)
            run["ok"] = got == expected
            if not run["ok"]:
                diff = {k: (got.get(k), expected.get(k))
                        for k in set(got) | set(expected)
                        if got.get(k) != expected.get(k)}
                print(f"perfbench: output check failed (got, expected): {diff}", file=sys.stderr)
            run["steps"] = outcome.steps
            run["history"] = outcome.history
        except Exception:
            traceback.print_exc()
            run.setdefault("wall", float("nan"))
        self.runs.append(run)

    def loop(self, seconds: float, modes):
        """Run rounds of ``modes`` while the next round is expected to end in time."""
        deadline = time.perf_counter() + seconds
        ref = self.reference() if self.reference else None
        while True:
            start = time.perf_counter()
            for traced in modes:
                self.one(traced)
                if ref is not None:
                    run = self.runs[-1]
                    n = max(1, round(REF_SHARE * run["wall"] / ref)) if math.isfinite(run["wall"]) else 1
                    after = self.reference(n)
                    # before the run, between its steps, after it
                    run["refs"] = [ref, *(r for r, _ in run.pop("pause_refs")), after]
                    ref = after
            now = time.perf_counter()
            if now + (now - start) > deadline:
                break


def warm_up():
    """Touch every layer once on tiny inputs, so lazy set-up is not timed."""
    p = workloads.problems.registry_get("noncv")
    tess = workloads.tessellation.kuhn_tessellation(p.domain_box, [8, 8])
    state = workloads.refinement.initial_state(p, tess)
    workloads.refinement.iterate(state, scheme="polyline", reference=state.complex)
    lo, hi = p.domain_box[:, 0], p.domain_box[:, 1]
    points = lo + workloads.np.random.default_rng(0).random((40, 2)) * (hi - lo)
    workloads.tessellation.build_delaunay(points)
    workloads.constrained.analyze_constrained(
        workloads.problems.registry_get("sphere_proj"), workloads.constrained.icosphere(1))
    workloads.complex_io.save_complex(OUT / "warm_up.json", state.complex)


def report_plain(runner, setup_samples):
    # A run's relative time is its wall time over the mean reference kernel
    # time before, during and after it; a step's, its time over the mean of
    # the kernel times on either side of it.  Steps of one run differ in cost
    # (refinement iterations grow), so a run contributes its mean step.
    ok = [r for r in runner.runs if r["ok"]] or runner.runs
    walls = [r["wall"] for r in ok]
    refs = [x for r in ok for x in r["refs"]]
    steps = [s for r in ok for s in r.get("steps", [])] or [float("nan")]
    step_means = [statistics.fmean(r["steps"]) for r in ok if r.get("steps")] or [float("nan")]
    wall_rel = [r["wall"] / statistics.fmean(r["refs"]) for r in ok]
    iter_rel = [statistics.fmean(s / ((a + b) / 2.0)
                                 for s, a, b in zip(r["steps"], r["refs"], r["refs"][1:]))
                for r in ok if r.get("steps")] or [float("nan")]
    ref_s = statistics.median(refs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_rel": statistics.median(wall_rel),
        "iter_rel": statistics.median(iter_rel),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": rss_mb,
    }
    print(f"  wall_rel     median {values['wall_rel']:.4f} ref, {tail(wall_rel)} (n={len(wall_rel)})")
    print(f"  iter_rel     median of run means {values['iter_rel']:.4f} ref (n={len(iter_rel)})")
    print(f"  wall_s       median {statistics.median(walls):.4f} s, {tail(walls)} (n={len(walls)})")
    print(f"  iter_s       median of run means {statistics.median(step_means):.4f} s"
          f" (n={len(step_means)}); over all steps p50 {statistics.median(steps):.4f} s,"
          f" p90 {percentile(steps, 90):.4f} s, {tail(steps)} (n={len(steps)})")
    print(f"  ref_s        reference kernel, median {ref_s:.4f} s,"
          f" range {min(refs):.4f}-{max(refs):.4f} s (n={len(refs)})")
    print(f"  setup_s      median {values['setup_s']:.4f} s (n={len(setup_samples)})")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    last = ok[-1].get("history") or []
    if last:
        print(f"  final_max_minor {last[-1].max_minor!r}")
        if last[-1].hausdorff_to_ref is not None:
            print(f"  final_hausdorff {last[-1].hausdorff_to_ref!r}")
    return values


def report_traced(runner, tracer, seed):
    traced = [r for r in runner.runs if r["traced"] and r["ok"]]
    plain = [r["wall"] for r in runner.runs if not r["traced"] and r["ok"]]
    metrics = {k: statistics.fmean(r["metrics"][k] for r in traced)
               for k in traced[0]["metrics"]} if traced else {}
    if metrics and plain:
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.fmean(plain)
    absent = tracer.absent_metrics()
    for name in PER_LAYER:
        if name in absent:
            metrics.pop(name, None)
            print(f"  {name:38s} absent (a wrapped function no longer exists)")
        elif name in metrics:
            print(f"  {name:38s} {metrics[name]:.6g} {PER_LAYER[name][0]}")
    names = sorted({s[4] for s in tracer.spans})
    index = {n: i for i, n in enumerate(names)}
    with gzip.open(OUT / f"{runner.wl.name}.trace.json.gz", "wt", compresslevel=1) as fh:
        json.dump({"workload": runner.wl.name, "seed": seed, "absent": sorted(absent),
                   "runs": [{k: r.get(k) for k in ("run_id", "traced", "input_set", "ok", "wall", "metrics")}
                            for r in runner.runs],
                   "names": names,
                   "span_fields": ["run_id", "span_id", "parent_id", "name", "start", "end"],
                   "spans": [[s[0], s[1], s[2], index[s[4]], s[5], s[6]]
                             for s in tracer.spans]}, fh)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs_for(args.seed)
    setup_samples = [time.perf_counter() - T0]
    expected = load_expected(wl.name, [i for i, _ in inputs])
    units = check_declared(bool(args.trace))
    OUT.mkdir(exist_ok=True)

    warm_up()
    if args.trace:
        runner = Runner(wl, inputs, expected, tracer=Tracer())
        runner.loop(args.seconds, (False, True))
    else:
        with Reference() as reference:
            runner = Runner(wl, inputs, expected, reference=reference)
            runner.loop(args.seconds, (False,))
    attempted = len(runner.runs)
    failed = sum(not r["ok"] for r in runner.runs)
    print(f"workload {wl.name}  seed {args.seed} (input sets {inputs[0][0]} on,"
          f" cycling through {wl.input_sets})  runs {attempted}  failed {failed}  fail_rate {failed / attempted:.3f}")

    if args.trace:
        values = report_traced(runner, runner.tracer, args.seed)
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(setup_probe(wl.name, args.seed))
        values = report_plain(runner, setup_samples)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    print(json.dumps({"correct": failed == 0 and bool(values), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
