"""The benchmark's recorded output digests, checked in the test suite.

``perfbench/run.py`` compares every timed run with ``perfbench/baseline.json``;
this test does the same for input set 0 of three workloads, and for input set
7 of ``refine2d_polyline`` too, so that ``final_hausdorff`` is checked on two
inputs.  A change that moves a byte of their output fails here without a
benchmark run.

Each case runs once through ``perfbench/tracing.Tracer``, as a traced
benchmark run does, so a change to the analysis core that breaks what the
tracer wraps or reads (``Analyzer`` methods, ``glue``'s ``analyses`` and
their ``singular_vertices`` and ``warnings``) fails here too.  The test only
reads ``perfbench/``: the workloads, the tracer and the digest come from the
files themselves, imported with ``perfbench/`` on ``sys.path`` and without
writing bytecode there.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# (face vertices, unique vertices, cells analysed) the tracer counts
COUNTS = {
    ("grid3d_tri", 0): (8704, 1827, 2610),
    ("sphere_constrained", 0): (768, 384, 384),
    ("refine2d_polyline", 0): (4351, 2180, 2175),
    ("refine2d_polyline", 7): (4207, 2108, 2106),
}


@pytest.fixture(scope="module")
def perfbench():
    # tracing.py imports workloads by name, so both come from perfbench/
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return workloads, tracing


@pytest.fixture(scope="module")
def baseline():
    return json.loads((PERFBENCH / "baseline.json").read_text())["workloads"]


@pytest.mark.parametrize("name, input_set", [
    pytest.param("grid3d_tri", 0, id="grid3d_tri"),
    pytest.param("sphere_constrained", 0, id="sphere_constrained"),
    pytest.param("refine2d_polyline", 0, id="refine2d_polyline"),
    pytest.param("refine2d_polyline", 7, id="refine2d_polyline-set7"),
])
def test_workload_output_matches_recorded_digest(name, input_set, perfbench, baseline, tmp_path):
    workloads, tracing = perfbench
    wl = workloads.WORKLOADS[name]
    out = tmp_path / f"{name}.json"
    tracer = tracing.Tracer()
    with tracer.installed(wl.setup(input_set), keep_spans=False) as inputs:
        outcome, _, metrics = tracer.run(wl.run, inputs, str(out))
    assert workloads.digest(outcome, out) == baseline[name]["digests"][str(input_set)]
    assert tracer.absent_metrics() == set()
    assert (metrics["continuation.face_vertices"], metrics["continuation.unique_vertices"],
            metrics["continuation.cells_analyzed"]) == COUNTS[(name, input_set)]
