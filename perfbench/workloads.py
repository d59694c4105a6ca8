"""The benchmark's workloads: seeded inputs, then one run through the library API.

A workload's ``setup`` does what a user pays for once (problem lookup, input
generation, reference complex); its ``run`` goes from those inputs to the
serialized final complex.  Runs call the library through module attributes
(``continuation.analyze``, ``refinement.iterate``, ...) so that the traced
mode can wrap those attributes from outside the program.
"""

import functools
import hashlib
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "paretoc" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: paretoc sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from paretoc import (  # noqa: E402
    complex_io,
    constrained,
    continuation,
    problems,
    refinement,
    tessellation,
)

# Seeded workloads draw their inputs from this many recorded input sets, so
# every run's output has a recorded digest.  Input sets differ in cost by up
# to 15 %, so runs cycle through them, from the seed's set on, rather than
# repeat one.
SEEDED_INPUT_SETS = 16


@dataclass
class Outcome:
    complex: object                             # the final ParetoComplex
    steps: list = field(default_factory=list)   # wall time of each analysis step, s
    history: list = field(default_factory=list)  # IterationStats of refine workloads


@dataclass(frozen=True)
class Workload:
    name: str
    input_sets: int                  # distinct inputs; the seed picks the first
    setup: Callable[[int], dict]     # input set -> inputs (problem first)
    run: Callable[[dict, str], Outcome]

    def inputs_for(self, seed: int) -> list:
        """(input set, inputs) of every input set, starting at the seed's."""
        order = [(seed + k) % self.input_sets for k in range(self.input_sets)]
        return [(i, self.setup(i)) for i in order]


def _timed(fn, *args, **kwargs):
    t = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t


# -- set-up --------------------------------------------------------------------


def _setup_grid(name, counts):
    def setup(input_set):
        p = problems.registry_get(name)
        return {"problem": p, "box": p.domain_box.copy(), "counts": list(counts)}
    return setup


def _setup_refine3d(input_set):
    p = problems.registry_get("tri_quadratic")
    return {"problem": p, "box": p.domain_box.copy(), "counts": [7, 7, 7],
            "iterations": 6, "scheme": "maximin", "budget": 10, "reference": None}


@functools.cache
def _noncv_reference():
    """The reference complex of refine2d_polyline, shared by its input sets."""
    p = problems.registry_get("noncv")
    return continuation.analyze(
        p, tessellation.kuhn_tessellation(p.domain_box, [120, 120]), order=2
    )


def _setup_refine2d(input_set):
    p = problems.registry_get("noncv")
    rng = np.random.default_rng(input_set)
    lo, hi = p.domain_box[:, 0], p.domain_box[:, 1]
    points = lo + rng.random((1000, 2)) * (hi - lo)
    return {"problem": p, "points": points, "iterations": 4,
            "scheme": "polyline", "budget": None, "reference": _noncv_reference()}


def _setup_sphere(input_set):
    return {"problem": problems.registry_get("sphere_proj"),
            "mesh": constrained.icosphere(5)}


# -- runs ----------------------------------------------------------------------


def _run_grid(inp, out):
    tess = tessellation.kuhn_tessellation(inp["box"], inp["counts"])
    cx, step = _timed(continuation.analyze, inp["problem"], tess, order=2)
    complex_io.save_complex(out, cx)
    return Outcome(cx, [step])


def _refine(inp, tess, out):
    state = refinement.initial_state(inp["problem"], tess)
    steps = []
    for k in range(inp["iterations"]):
        if k and "pause" in inp:
            inp["pause"]()  # run.py times the reference kernel here, outside the run
        state, step = _timed(
            refinement.iterate, state, scheme=inp["scheme"],
            budget=inp["budget"], reference=inp["reference"],
        )
        steps.append(step)
    complex_io.save_complex(out, state.complex)
    return Outcome(state.complex, steps, state.history)


def _run_refine3d(inp, out):
    return _refine(inp, tessellation.kuhn_tessellation(inp["box"], inp["counts"]), out)


def _run_refine2d(inp, out):
    return _refine(inp, tessellation.build_delaunay(inp["points"]), out)


def _run_sphere(inp, out):
    cx, step = _timed(constrained.analyze_constrained, inp["problem"], inp["mesh"])
    complex_io.save_complex(out, cx)
    return Outcome(cx, [step])


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid2d_noncv", 1, _setup_grid("noncv", [200, 200]), _run_grid),
        Workload("grid3d_tri", 1, _setup_grid("tri_quadratic", [15, 15, 15]), _run_grid),
        Workload("refine3d_maximin", 1, _setup_refine3d, _run_refine3d),
        Workload("refine2d_polyline", SEEDED_INPUT_SETS, _setup_refine2d, _run_refine2d),
        Workload("sphere_constrained", 1, _setup_sphere, _run_sphere),
    )
}


def digest(outcome: Outcome, path) -> dict:
    """What the output check compares against the recorded baseline."""
    cx = outcome.complex
    d = {
        "sha256": hashlib.sha256(Path(path).read_bytes()).hexdigest(),
        "strata": dict(sorted(cx.strata_counts().items())),
        "markers": dict(sorted(Counter(kind for _, kind in cx.markers).items())),
        "components": len(cx.components()),
    }
    if outcome.history:
        last = outcome.history[-1]
        d["final_max_minor"] = last.max_minor
        d["final_hausdorff"] = last.hausdorff_to_ref
    return d
