import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import paretoc
from paretoc.cli import main
from paretoc.complex_io import (
    complex_from_dict,
    complex_to_dict,
    dumps,
    load_complex,
    load_mesh,
    save_complex,
    save_mesh,
)
from paretoc.continuation import analyze
from paretoc.problems import registry_get
from paretoc.tessellation import Tessellation, kuhn_tessellation

from conftest import cell_tuples, simplex_pairs


@pytest.fixture(scope="module")
def triv_complex():
    p = registry_get("triv")
    return analyze(p, kuhn_tessellation(p.domain_box, [15, 15]), order=2)


# ---------------------------------------------------------------------------
# complex file round trips
# ---------------------------------------------------------------------------


def test_roundtrip_exact(triv_complex, tmp_path):
    path = tmp_path / "c.json"
    save_complex(path, triv_complex)
    loaded = load_complex(path)
    assert loaded.n == triv_complex.n and loaded.m == triv_complex.m
    assert np.array_equal(loaded.positions, triv_complex.positions)
    assert np.array_equal(loaded.u_values, triv_complex.u_values)
    assert simplex_pairs(loaded) == simplex_pairs(triv_complex)
    assert loaded.markers == triv_complex.markers
    # serialize(parse(serialize(c))) is byte-identical
    first = dumps(complex_to_dict(triv_complex))
    second = dumps(complex_to_dict(complex_from_dict(json.loads(first))))
    assert first == second


def test_lambda_sigma_roundtrip(triv_complex, tmp_path):
    path = tmp_path / "c.json"
    save_complex(path, triv_complex)
    loaded = load_complex(path)
    nan_a = np.isnan(triv_complex.lam)
    nan_b = np.isnan(loaded.lam)
    assert np.array_equal(nan_a, nan_b)
    assert np.array_equal(triv_complex.lam[~nan_a], loaded.lam[~nan_b])


def test_mesh_roundtrip(tmp_path):
    t = kuhn_tessellation([[0.0, 1.0], [0.0, 1.0]], [3, 3])
    path = tmp_path / "mesh.json"
    save_mesh(path, t)
    doc = json.loads(path.read_text())
    assert (doc["dim"], doc["embedding_dim"]) == (2, 2)
    loaded = load_mesh(path)
    assert np.array_equal(loaded.nodes, t.nodes)
    assert cell_tuples(loaded) == cell_tuples(t)


def test_mesh_without_cells_roundtrip(tmp_path):
    # "cells": [] keeps the width that "dim" gives
    path = tmp_path / "mesh.json"
    points = [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    save_mesh(path, Tessellation(points, np.empty((0, 3), np.intp)))
    assert json.loads(path.read_text())["cells"] == []
    loaded = load_mesh(path)
    assert loaded.cells.shape == (0, 3) and np.array_equal(loaded.nodes, points)


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


def test_cli_run_and_distance(tmp_path, capsys):
    out = tmp_path / "triv.json"
    assert main(["run", "--problem", "triv", "--grid", "15x15", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "stable" in text and "markers" in text
    assert main(["distance", str(out), str(out)]) == 0
    line = capsys.readouterr().out
    assert "hausdorff=" in line
    h = float(line.split()[0].split("=")[1])
    assert h < 1e-12


def test_cli_byte_identical_reruns(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["run", "--problem", "triv", "--grid", "random:60:seed=5",
                 "--out", str(a)]) == 0
    # the rerun reads its grid from the file: a random grid's seed is part
    # of its spec
    prov = json.loads(a.read_text())["provenance"]
    assert main(["run", "--problem", prov["problem"], "--grid", prov["grid"],
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_run_constrained(tmp_path, capsys):
    out = tmp_path / "sphere.json"
    assert main(["run", "--problem", "sphere_proj", "--subdiv", "0", "--out", str(out)]) == 0
    cx = load_complex(out)
    assert len(cx.components()) == 1


def test_cli_iterate_history(tmp_path):
    outdir = tmp_path / "iters"
    rc = main([
        "iterate", "--problem", "triv", "--grid", "13x12",
        "--scheme", "polyline", "--iterations", "2", "--out-dir", str(outdir),
    ])
    assert rc == 0
    hist = (outdir / "history.csv").read_text().strip().splitlines()
    assert hist[0] == "iteration,nodes,max_minor,mean_minor,hausdorff_to_ref"
    assert len(hist) == 3
    assert (outdir / "complex_iter_00.json").exists()
    assert (outdir / "complex_iter_02.json").exists()


def test_cli_iterate_zero_iterations(tmp_path):
    outdir = tmp_path / "it0"
    rc = main([
        "iterate", "--problem", "triv", "--grid", "13x12",
        "--scheme", "polyline", "--iterations", "0", "--out-dir", str(outdir),
    ])
    assert rc == 0
    assert (outdir / "complex_iter_00.json").exists()


def test_cli_plot_data(tmp_path):
    out = tmp_path / "triv.json"
    main(["run", "--problem", "triv", "--grid", "15x15", "--out", str(out)])
    plots = tmp_path / "plots"
    assert main(["plot-data", "--file", str(out), "--out-dir", str(plots)]) == 0
    stable = plots / "plot_critical_stable.csv"
    assert stable.exists()
    header = stable.read_text().splitlines()[0]
    assert header == "component_id,vertex_index,x0,x1,u0,u1,stratum"
    assert (plots / "markers.csv").exists()
    # both column groups are always written, so there is no space to choose
    assert main(["plot-data", "--file", str(out), "--space", "output",
                 "--out-dir", str(plots)]) == 1


def test_cli_plot_data_stable_only(tmp_path):
    out = tmp_path / "triv.json"
    main(["run", "--problem", "triv", "--grid", "15x15", "--out", str(out)])
    plots = tmp_path / "plots2"
    assert main(["plot-data", "--file", str(out), "--out-dir", str(plots),
                 "--stable-only"]) == 0
    names = sorted(f.name for f in plots.iterdir())
    assert names == ["markers.csv", "plot_critical_stable.csv"]


@pytest.mark.parametrize("segs, walk", [
    pytest.param([(0, 1), (1, 2), (1, 3), (3, 4)], [0, 1, 2, 1, 3, 4], id="Y"),
    pytest.param([(0, 2), (1, 2), (2, 3), (2, 4)], [0, 2, 1, 2, 3, 2, 4], id="X"),
])
def test_cli_plot_data_walks_branches(tmp_path, segs, walk):
    # a branched component keeps all its vertices: a branch follows a
    # retrace to its junction, so consecutive rows draw segments only.  A
    # second component, a plain path, keeps its own id and rows
    from paretoc.continuation import ParetoComplex

    pos = np.array([[float(i), float(i * i)] for i in range(7)])
    cx = ParetoComplex(
        n=2, m=2, positions=pos, u_values=pos[:, ::-1].copy(), lam=np.full((7, 2), 0.5),
        sigma=None, keys=[repr(("f", i)) for i in range(7)],
        simplices=segs + [(5, 6)], stratum=["critical_unstable"] * (len(segs) + 1),
        markers=[],
    )
    path = tmp_path / "branched.json"
    save_complex(path, cx)
    plots = tmp_path / "plots"
    assert main(["plot-data", "--file", str(path), "--out-dir", str(plots)]) == 0
    lines = (plots / "plot_critical_unstable.csv").read_text().splitlines()[1:]
    rows = [line.split(",") for line in lines]
    by_comp = {}
    for comp_id, index, x0, *_ in rows:
        by_comp.setdefault(int(comp_id), []).append(int(float(x0)))
        assert int(index) == len(by_comp[int(comp_id)]) - 1
    assert by_comp == {0: walk, 1: [5, 6]}
    drawn = {tuple(sorted(p)) for p in zip(walk, walk[1:])}
    assert drawn == set(segs)


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["run", "--problem", "unknown_problem"]) == 1
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    assert main(["run"]) == 1  # missing --problem
    assert main(["check-derivatives", "--problem", "sms"]) == 0
    assert main(["list-problems"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flag", [
    # cells are analysed on one thread; there is no width to set
    pytest.param(["--threads", "2"], id="threads"),
    # the stability clip reads the problem's analytic Hessians only
    pytest.param(["--hessians", "fd"], id="hessians"),
    # a random grid's seed is part of its spec, random:N:seed=S
    pytest.param(["--seed", "3"], id="seed"),
])
def test_cli_removed_flag_is_a_usage_error(flag, tmp_path, capsys):
    assert main([*flag, "run", "--problem", "triv", "--grid", "5x5"]) == 1
    assert main(["run", "--problem", "triv", "--grid", "5x5", *flag]) == 1
    assert main(["iterate", "--problem", "triv", "--grid", "5x5",
                 "--out-dir", str(tmp_path / "it"), *flag]) == 1
    assert flag[0] in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_iterate_rejects_its_inputs_before_any_work(tmp_path, capsys):
    # a scheme the problem's output cannot take, or a reference complex in
    # another ambient dimension, is a usage error before the first file
    ref = tmp_path / "ref3d.json"
    ref.write_text(json.dumps({
        "version": 1, "ambient_dim": 3, "objectives": 2,
        "vertices": [{"id": i, "x": [float(i), 0.0, 0.0], "u": [0.0, 0.0],
                      "lambda": None, "sigma": None} for i in range(2)],
        "simplices": [{"vertex_ids": [0, 1], "stratum": "critical_stable"}],
        "markers": [],
    }))
    out = tmp_path / "it"
    for args, message in (
        (["--problem", "tri_quadratic", "--grid", "3x3x3"],
         "polyline resampling applies to two-objective output"),
        (["--problem", "triv", "--grid", "5x5", "--reference", str(ref)],
         "the reference complex has ambient dimension 3; triv has 2"),
    ):
        assert main(["iterate", *args, "--iterations", "1", "--out-dir", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()


def _cli(*args):
    # a fresh interpreter: the CLI configures logging from scratch, and an
    # uncaught exception shows as a traceback on stderr
    src = str(Path(paretoc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "paretoc.cli", *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _cli_process(tmp_path, *args):
    return _cli(*args, "iterate", "--problem", "triv", "--grid", "13x12",
                "--iterations", "1", "--out-dir", str(tmp_path / "it"))


def test_cli_log_level_info_shows_refinement_records(tmp_path):
    done = _cli_process(tmp_path, "--log-level", "info")
    assert done.returncode == 0
    assert "iteration 1: inserting " in done.stderr


def test_cli_default_log_level_hides_info_records(tmp_path):
    done = _cli_process(tmp_path)
    assert done.returncode == 0
    assert "inserting" not in done.stderr


def test_cli_unknown_log_level_is_a_usage_error(capsys):
    assert main(["--log-level", "verbose", "list-problems"]) == 1
    assert "--log-level" in capsys.readouterr().err


def test_cli_grid_specs(tmp_path):
    assert main(["run", "--problem", "triv", "--grid", "h:0.5"]) == 0
    assert main(["run", "--problem", "triv", "--grid", "9x9x9"]) == 1  # wrong axes


@pytest.mark.parametrize("spec", [
    "4xq", "random:abc", "random:", "random:20:sed=3", "h:abc", "h:0", "1x5", "",
    "h:100",     # one node per axis, as 1x5 has on its first
    "random:2",  # fewer than n + 1 nodes for a 2-D problem
    "h:1e-320",  # an infinite node count
])
def test_cli_malformed_grid_is_a_usage_error(spec, capsys):
    assert main(["run", "--problem", "triv", "--grid", spec]) == 1
    assert "bad grid spec" in capsys.readouterr().err


def test_cli_iterate_on_a_constrained_problem_is_a_usage_error(tmp_path, capsys):
    assert main(["iterate", "--problem", "sphere_proj", "--out-dir", str(tmp_path / "it")]) == 1
    assert "iterate supports unconstrained problems only" in capsys.readouterr().err
    assert not (tmp_path / "it").exists()


def test_cli_distance_json_holds_the_printed_report(tmp_path, capsys):
    a, b, report = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "d.json"
    assert main(["run", "--problem", "triv", "--grid", "15x15", "--out", str(a)]) == 0
    assert main(["run", "--problem", "triv", "--grid", "9x9", "--out", str(b)]) == 0
    capsys.readouterr()
    assert main(["distance", str(a), str(b), "--json", str(report)]) == 0
    printed = dict(f.split("=") for f in capsys.readouterr().out.split())
    doc = json.loads(report.read_text())
    assert sorted(doc) == ["hausdorff", "mean_a_to_b", "mean_b_to_a", "sample_count"]
    for name in ("hausdorff", "mean_a_to_b", "mean_b_to_a"):
        assert f"{doc[name]:.10e}" == printed[name]
    assert doc["hausdorff"] > 0.0
    assert doc["sample_count"] == int(printed["samples"])


def test_cli_plot_data_lists_each_triangle(tmp_path):
    # m = 3: each component's rows are its triangles, vertex by vertex
    out, plots = tmp_path / "tri.json", tmp_path / "plots"
    assert main(["run", "--problem", "tri_quadratic", "--grid", "5x5x5", "--out", str(out)]) == 0
    assert main(["plot-data", "--file", str(out), "--out-dir", str(plots)]) == 0
    cx = load_complex(out)
    vid = {tuple(x): v for v, x in enumerate(cx.positions.tolist())}
    assert len(set(cx.stratum)) > 1
    for stratum in set(cx.stratum):
        lines = (plots / f"plot_{stratum}.csv").read_text().splitlines()
        assert lines[0] == "component_id,vertex_index,x0,x1,x2,u0,u1,u2,stratum"
        rows = [line.split(",") for line in lines[1:]]
        comps = cx.components(strata=[stratum])
        got = []
        for c, comp in enumerate(comps):
            ids = [vid[tuple(map(float, r[2:5]))] for r in rows if int(r[0]) == c]
            assert [int(r[1]) for r in rows if int(r[0]) == c] == list(range(len(ids)))
            assert len(ids) % 3 == 0 and set(ids) == comp
            got += [tuple(ids[i:i + 3]) for i in range(0, len(ids), 3)]
        assert {int(r[0]) for r in rows} == set(range(len(comps)))
        assert {r[-1] for r in rows} == {stratum}
        assert sorted(got) == [ids for ids, s in simplex_pairs(cx) if s == stratum]


def test_cli_check_derivatives_on_a_constrained_problem(capsys):
    # the samples are normalised onto the sphere before the audit
    assert main(["check-derivatives", "--problem", "sphere_proj"]) == 0
    assert capsys.readouterr().out.strip().endswith("-> PASS")


def test_cli_numerical_failure_exits_2(tmp_path, capsys):
    from paretoc.continuation import ParetoComplex

    empty = ParetoComplex(
        n=2, m=2, positions=np.zeros((0, 2)), u_values=np.zeros((0, 2)),
        lam=np.zeros((0, 2)), sigma=None, keys=[], simplices=[], stratum=[], markers=[],
    )
    path = tmp_path / "empty.json"
    save_complex(path, empty)
    assert main(["distance", str(path), str(path)]) == 2
    assert "nonempty" in capsys.readouterr().err


def test_cli_manifold_mesh_input(tmp_path):
    from paretoc.constrained import icosphere

    mpath = tmp_path / "sphere_mesh.json"
    save_mesh(mpath, icosphere(1))
    out = tmp_path / "out.json"
    rc = main(["run", "--problem", "sphere_proj",
               "--manifold-mesh", str(mpath), "--out", str(out)])
    assert rc == 0
    cx = load_complex(out)
    assert not cx.is_empty()


def test_cli_plot_data_empty_complex(tmp_path, capsys):
    from paretoc.continuation import ParetoComplex

    empty = ParetoComplex(
        n=2, m=2, positions=np.zeros((0, 2)), u_values=np.zeros((0, 2)),
        lam=np.zeros((0, 2)), sigma=None, keys=[], simplices=[], stratum=[], markers=[],
    )
    path = tmp_path / "empty.json"
    save_complex(path, empty)
    plots = tmp_path / "plots"
    assert main(["plot-data", "--file", str(path), "--out-dir", str(plots)]) == 0
    err = capsys.readouterr().err
    assert "empty complex" in err
    assert (plots / "markers.csv").exists()


@pytest.mark.parametrize("args,flag", [
    (["iterate", "--problem", "triv", "--budget", "0", "--out-dir", "it"], "--budget"),
    (["iterate", "--problem", "triv", "--iterations", "-1", "--out-dir", "it"], "--iterations"),
    (["check-derivatives", "--problem", "triv", "--samples", "0"], "--samples"),
    (["run", "--problem", "sphere_proj", "--subdiv", "-1"], "--subdiv"),
    (["distance", "a.json", "b.json", "--density", "0"], "--density"),
], ids=["budget", "iterations", "samples", "subdiv", "density"])
def test_cli_out_of_range_numbers_are_usage_errors(args, flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(args) == 1
    assert f"error: argument {flag}: must be at least" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_complex_file_without_a_key_is_a_value_error(triv_complex):
    doc = complex_to_dict(triv_complex)
    del doc["simplices"]
    with pytest.raises(ValueError, match="'simplices'"):
        complex_from_dict(doc)
    doc = complex_to_dict(triv_complex)
    del doc["vertices"][0]["u"]
    with pytest.raises(ValueError, match="'u'"):
        complex_from_dict(doc)


def test_cli_file_errors_exit_without_traceback(triv_complex, tmp_path):
    good = tmp_path / "triv.json"
    save_complex(good, triv_complex)
    missing = str(tmp_path / "missing.json")
    for args in (
        ["distance", missing, str(good)],
        ["distance", str(good), missing],
        ["plot-data", "--file", missing, "--out-dir", str(tmp_path / "plots")],
        ["iterate", "--problem", "triv", "--grid", "5x5", "--reference", missing,
         "--out-dir", str(tmp_path / "it")],
        ["run", "--problem", "sphere_proj", "--manifold-mesh", missing],
    ):
        done = _cli(*args)
        assert done.returncode == 1, args
        assert "error: " in done.stderr and "missing.json" in done.stderr, args
        assert "Traceback" not in done.stderr, args
    # a complex file without a required entry or with a bad vertex id fails
    # as a malformed file does (exit 2, like an unsupported version), naming
    # what is wrong, instead of reading another vertex or uninitialized rows
    V = len(json.loads(good.read_text())["vertices"])
    bad = tmp_path / "bad.json"
    for edit, message in (
        (lambda d: d.pop("markers"), "complex file has no 'markers' entry"),
        (lambda d: d["markers"][0].pop("vertex"), "complex file has no 'vertex' entry"),
        (lambda d: d["markers"][0].update(vertex=-1),
         f"a marker names vertex -1, the file has {V}"),
        (lambda d: d["simplices"][0]["vertex_ids"].__setitem__(0, V),
         f"a simplex names vertex {V}, the file has {V}"),
        (lambda d: d["vertices"][1].update(id=0), f"vertex ids are not 0..{V - 1}, each once"),
        (lambda d: d["vertices"][0].update(id=V), f"vertex ids are not 0..{V - 1}, each once"),
        # a vertex entry or a simplex of the wrong size
        (lambda d: d["vertices"][0].update(x=[0.0]),
         "the 'x' entry of vertex 0 has shape (1,), not (2,)"),
        (lambda d: d["vertices"][0].update(u=[0.0, 0.0, 0.0]),
         "the 'u' entry of vertex 0 has shape (3,), not (2,)"),
        (lambda d: d["vertices"][0].update({"lambda": [1.0]}),
         "the 'lambda' entry of vertex 0 has shape (1,), not (2,)"),
        (lambda d: d["vertices"][0].update(sigma=[0.0, 0.0]),
         "the 'sigma' entry of vertex 0 has shape (2,), not (1,)"),
        (lambda d: d["simplices"][0].update(vertex_ids=[0, 0]),
         "simplex [0, 0] does not name 2 distinct vertices"),
        (lambda d: d["simplices"][0].update(vertex_ids=[0, 1, 2]),
         "simplex [0, 1, 2] does not name 2 distinct vertices"),
        # a count or an id that is not an integer, where int() would truncate
        # it or read true as 1
        (lambda d: d["simplices"][0].update(vertex_ids=[0.2, 1.9]),
         "a vertex id of a simplex is 0.2, not an integer"),
        (lambda d: d["markers"][0].update(vertex=0.6),
         "a vertex id of a marker is 0.6, not an integer"),
        (lambda d: d["markers"][0].update(vertex=True),
         "a vertex id of a marker is True, not an integer"),
        (lambda d: d.update(ambient_dim=2.5), "the 'ambient_dim' entry is 2.5, not an integer"),
        (lambda d: d["vertices"][0].update(id=0.5), "the 'id' entry of a vertex is 0.5, not an integer"),
        # an entry of the wrong JSON kind
        (lambda d: d.update(provenance=3), "the 'provenance' entry is not a JSON object"),
        (lambda d: d.update(vertices=[1]), "a vertex is not a JSON object"),
        (lambda d: d.update(vertices=5), "the 'vertices' entry is not a JSON array"),
        (lambda d: d["simplices"][0].update(vertex_ids=5),
         "the 'vertex_ids' entry of a simplex is not a JSON array"),
        (lambda d: d["vertices"][0].update(x={"a": 1}),
         "the 'x' entry of vertex 0 is not a list of 2 numbers"),
        # a null number, which numpy would read as NaN; a whole null lambda
        # or sigma row is the writer's and loads
        (lambda d: d["vertices"][0].update(x=[None, 0.5]),
         "the 'x' entry of vertex 0 holds null at index 0"),
        (lambda d: d["vertices"][1].update(u=[0.5, None]),
         "the 'u' entry of vertex 1 holds null at index 1"),
        (lambda d: d["vertices"][0].update({"lambda": [0.5, None]}),
         "the 'lambda' entry of vertex 0 holds null at index 1"),
        (lambda d: d["vertices"][0].update(sigma=[None]),
         "the 'sigma' entry of vertex 0 holds null at index 0"),
    ):
        doc = json.loads(good.read_text())
        edit(doc)
        bad.write_text(json.dumps(doc))
        done = _cli("distance", str(bad), str(good))
        assert done.returncode == 2, message
        assert f"error: {message}" in done.stderr
        assert "Traceback" not in done.stderr
    # a file whose top level is not a JSON object
    bad.write_text("[]")
    for args in (["distance", str(bad), str(good)],
                 ["run", "--problem", "sphere_proj", "--manifold-mesh", str(bad)]):
        done = _cli(*args)
        assert done.returncode == 2, args
        assert "file is not a JSON object" in done.stderr
        assert "Traceback" not in done.stderr
    # so does a mesh file without cells, with a cell that does not name
    # distinct nodes of the mesh, or with a dim or an embedding_dim that its
    # cells or points do not have
    good_mesh, mesh = tmp_path / "good_mesh.json", tmp_path / "mesh.json"
    save_mesh(good_mesh, Tessellation([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
                                      [[0, 1, 2]]))
    for edit, message in (
        (lambda d: d.pop("cells"), "mesh file has no 'cells' entry"),
        (lambda d: d.update(cells=[[0, 1, 10**6]]),
         "cell (0, 1, 1000000) is not a 2-simplex on nodes 0..2"),
        (lambda d: d.update(cells=[[0, 1, 10**20]]), "a cell names a node id outside 0..2"),
        (lambda d: d.update(cells=[[0.5, 1, 2.9]]),
         "cell (0.5, 1.0, 2.9) does not hold integer node ids"),
        (lambda d: d["points"][1].__setitem__(2, float("nan")),
         "node 1 has a non-finite coordinate: (0.0, 1.0, nan)"),
        (lambda d: d.update(cells=[[0, 1, -1]]),
         "cell (-1, 0, 1) is not a 2-simplex on nodes 0..2"),
        (lambda d: d.update(cells=[[0, 1, 1]]),
         "cell (0, 1, 1) is not a 2-simplex on nodes 0..2"),
        (lambda d: d.update(dim=1), "mesh file has dim 1, but its cells have 3 nodes, not 2"),
        (lambda d: d.update(embedding_dim=7),
         "mesh file has embedding_dim 7, but its points have 3 coordinates"),
        (lambda d: d.update(dim=2.7), "the 'dim' entry is 2.7, not an integer"),
        (lambda d: d.update(dim=True), "the 'dim' entry is True, not an integer"),
        (lambda d: d.update(embedding_dim=3.5), "the 'embedding_dim' entry is 3.5, not an integer"),
        (lambda d: d.update(points={"a": 1}), "the 'points' entry is not a JSON array"),
    ):
        doc = json.loads(good_mesh.read_text())
        edit(doc)
        mesh.write_text(json.dumps(doc))
        done = _cli("run", "--problem", "sphere_proj", "--manifold-mesh", str(mesh))
        assert done.returncode == 2, message
        assert f"error: {message}" in done.stderr
        assert "Traceback" not in done.stderr
