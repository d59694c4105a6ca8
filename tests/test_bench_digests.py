"""The benchmark's recorded output digests, checked in the test suite.

``perfbench/run.py`` compares every timed run with ``perfbench/baseline.json``;
this test does the same for input set 0 of three workloads, and for input set
7 of ``refine2d_polyline`` too, so that ``final_hausdorff`` is checked on two
inputs.  A change that moves a byte of their output fails here without a
benchmark run.  It only
reads ``perfbench/``: the workloads and the digest come from
``perfbench/workloads.py`` itself.
"""

import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    return json.loads((PERFBENCH / "baseline.json").read_text())["workloads"]


@pytest.mark.parametrize("name, input_set", [
    pytest.param("grid3d_tri", 0, id="grid3d_tri"),
    pytest.param("sphere_constrained", 0, id="sphere_constrained"),
    pytest.param("refine2d_polyline", 0, id="refine2d_polyline"),
    pytest.param("refine2d_polyline", 7, id="refine2d_polyline-set7"),
])
def test_workload_output_matches_recorded_digest(name, input_set, workloads, baseline, tmp_path):
    wl = workloads.WORKLOADS[name]
    out = tmp_path / f"{name}.json"
    outcome = wl.run(wl.setup(input_set), str(out))
    assert workloads.digest(outcome, out) == baseline[name]["digests"][str(input_set)]
