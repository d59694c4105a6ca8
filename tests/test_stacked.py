"""Stacked calls against the per-item loops they replace.

The analysis core solves faces, lambda and sigma for many vertices at once,
and the nodal minors for all nodes at once; the problem's callables are
evaluated once per stage over all points.  Each test keeps the per-item loop
as the reference and requires bit-equal results, since the arithmetic of
every item is unchanged.
"""

import ast
import dataclasses
import functools
import itertools
import logging
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import paretoc
from paretoc import continuation, refinement
from paretoc.constrained import analyze_constrained, icosphere
from paretoc.continuation import (
    MU_SNAP,
    STRATUM_STABLE,
    STRATUM_UNSTABLE,
    Analyzer,
    analyze,
    generalized_hessians,
    snapped_determinants,
    solve_faces,
    solve_lambdas,
)
from paretoc.problems import ConstrainedProblem, registry_get
from paretoc.tessellation import kuhn_tessellation

from test_golden import _cross_mesh, _cross_problem


def _loop_snap_determinant(value, matrix, rel=1e-13):
    # zero a determinant below the Hadamard bound times rel
    bound = float(np.prod(np.linalg.norm(matrix, axis=0)))
    return 0.0 if abs(value) <= rel * bound else value


def _loop_solve_lambda(G, eps_rank=continuation.EPS_RANK):
    m = G.shape[0]
    sv = np.linalg.svd(G, compute_uv=False)
    if sv[0] == 0.0 or (m >= 2 and sv[m - 2] <= eps_rank * sv[0]):
        return None, np.inf
    lam0 = np.full(m, 1.0 / m)
    _, _, vt = np.linalg.svd(np.ones((1, m)))
    Z = vt[1:].T
    A = G.T @ Z
    b = -G.T @ lam0
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > eps_rank * sv[0]
    t = Vt[keep].T @ ((U[:, keep].T @ b) / s[keep]) if keep.any() else np.zeros(m - 1)
    lam = lam0 + Z @ t
    return lam, float(np.linalg.norm(G.T @ lam))


def _loop_generalized_hessian(G, lam, hess, eps_rank=continuation.EPS_RANK):
    m = G.shape[0]
    _, sv, vt = np.linalg.svd(G)
    if sv[0] == 0.0 or (m >= 2 and sv[m - 2] <= eps_rank * sv[0]):
        return None
    W = vt[m - 1:].T
    H = np.tensordot(lam, hess, axes=1)
    B = W.T @ H @ W
    return np.linalg.eigvalsh(0.5 * (B + B.T))


def _analyzers():
    out = []
    for name, counts in (("tri_quadratic", [7, 7, 7]), ("noncv", [60, 60])):
        p = registry_get(name)
        out.append(Analyzer(p, kuhn_tessellation(p.domain_box, counts)))
    out.append(Analyzer(_cross_problem(), _cross_mesh()))
    return out


@pytest.fixture(scope="module")
def analyzers():
    return _analyzers()


@functools.cache
def _cell_table(an):
    return an._cell_table(an.candidate_cells())


def _table_vertices(an):
    # every face-table vertex that some cell lists
    return list(dict.fromkeys(v for verts, _ in _cell_table(an) for v in verts))


def test_snapped_determinants_match_node_loop(analyzers):
    for an in analyzers:
        for j, cols in enumerate(an.problem.minor_columns):
            ref = [_loop_snap_determinant(float(np.linalg.det(J[:, list(cols)])), J[:, list(cols)])
                   for J in an.jac_nodes]
            assert np.array_equal(an.omega_nodes[:, j], ref)
            assert np.array_equal(snapped_determinants(an.jac_nodes[:, :, list(cols)]), ref)


def _cell_faces(an):
    # each candidate cell's r-faces as sorted id tuples, in combination order
    return [list(itertools.combinations(an.tess.cells[ci].tolist(), an.r + 1))
            for ci in an.candidate_cells()]


def test_solve_faces_match_single_solves(analyzers):
    for an in analyzers:
        faces = sorted({f for fs in _cell_faces(an) for f in fs})
        mu, singular = solve_faces(an.omega_nodes, faces)
        for f, face in enumerate(faces):
            A = np.vstack([an.omega_nodes[list(face)].T, np.ones(len(face))])
            rhs = np.zeros(len(face))
            rhs[-1] = 1.0
            try:
                ref = np.linalg.solve(A, rhs)
            except np.linalg.LinAlgError:
                assert singular[f] and np.all(np.isnan(mu[f]))
                continue
            assert not singular[f] and np.array_equal(mu[f], ref)
    assert singular.any()  # the cross case has exactly singular faces


def test_solve_lambdas_match_loop(analyzers):
    collapses = 0
    for an in analyzers:
        G = np.array([v.grad_interp for v in _table_vertices(an)])
        lam, residual = solve_lambdas(G)
        for i in range(len(G)):
            ref, ref_res = _loop_solve_lambda(G[i])
            if ref is None:
                collapses += 1
                assert np.all(np.isnan(lam[i])) and residual[i] == np.inf
            else:
                assert np.array_equal(lam[i], ref) and residual[i] == ref_res
    assert collapses > 0


# row kinds of a random gradient stack: rank-deficient, duplicate (a partial
# truncation of the tangent solve), zero and collapsed rows among plain ones
ROW_KINDS = ("random", "dependent", "duplicate", "affine", "zero_row", "zero", "collapsed")


@st.composite
def gradient_stacks(draw):
    m = draw(st.integers(2, 3))
    n = draw(st.integers(m, 6))
    kinds = draw(st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    G = rng.normal(size=(len(kinds), m, n))
    for g, kind in zip(G, kinds):
        if kind == "dependent":
            g[-1] = rng.normal(size=m - 1) @ g[:-1]
        elif kind == "duplicate":
            g[1] = g[0]
        elif kind == "affine":
            g[:] = g[0] + rng.normal(size=(m, 1)) * g[1]
        elif kind == "zero_row":
            g[rng.integers(m)] = 0.0
        elif kind == "zero":
            g[:] = 0.0
        elif kind == "collapsed":
            g[:] = rng.normal(size=(m, 1)) * g[0]
    return G * 10.0 ** rng.uniform(-8.0, 8.0, size=(len(kinds), 1, 1))


@settings(max_examples=200)
@given(gradient_stacks())
def test_solve_lambdas_match_loop_on_random_stacks(G):
    # the stacked solve's bits depend on its operand layout, which the
    # analyzers' stacks alone pin too weakly
    lam, residual = solve_lambdas(G)
    for i in range(len(G)):
        ref, ref_res = _loop_solve_lambda(G[i])
        if ref is None:
            assert np.all(np.isnan(lam[i])) and residual[i] == np.inf
        else:
            assert np.array_equal(lam[i], ref) and residual[i] == ref_res


def test_generalized_hessians_match_loop(analyzers):
    for an in analyzers:
        verts = [v for v in _table_vertices(an) if v.lam is not None and v.hess_interp is not None]
        assert verts
        sigma, fail = generalized_hessians(
            np.array([v.grad_interp for v in verts]),
            np.array([v.lam for v in verts]),
            np.array([v.hess_interp for v in verts]),
        )
        for i, v in enumerate(verts):
            ref = _loop_generalized_hessian(v.grad_interp, v.lam, v.hess_interp)
            assert fail[i] == (ref is None)
            if ref is not None:
                assert np.array_equal(sigma[i], ref)


def test_table_is_read_only(analyzers):
    # the vertices are built complete (but for sigma) from read-only columns
    v = _table_vertices(analyzers[0])[0]
    with pytest.raises(ValueError):
        v.lam[0] = 0.0
    for a in (v.x, v.mu, v.grad_interp, v.lam, v.hess_interp):
        assert not a.flags.writeable


def _loop_face_vertex(face, mu, points, jac_nodes):
    # drop the weights at or below MU_SNAP, renormalize, interpolate
    mu = np.maximum(mu, 0.0)
    keep = mu > MU_SNAP
    sub = tuple(int(i) for i in np.asarray(face)[keep])
    w = mu[keep] / mu[keep].sum()
    return sub, w, w @ points[list(sub)], np.tensordot(w, jac_nodes[list(sub)], axes=1)


def test_face_vertices_match_face_loop(analyzers):
    # the cross case snaps vertices to nodes and to sub-faces
    sizes = set()
    for an in analyzers:
        pts = an.tess.nodes
        faces = np.array(sorted({f for fs in _cell_faces(an) for f in fs}))
        verts, _ = continuation._face_vertices(an.omega_nodes, faces, pts, an.jac_nodes)
        accepted = [f for f, v in enumerate(verts) if v is not None]
        mu, _ = solve_faces(an.omega_nodes, faces[accepted])
        assert len({verts[f] for f in accepted}) == len(accepted)  # one vertex per face
        for f, w in zip(accepted, mu):
            v = verts[f]
            sub, ref_mu, ref_x, ref_grad = _loop_face_vertex(faces[f], w, pts, an.jac_nodes)
            sizes.add(len(sub))
            assert v.face == sub and v.key == repr(("f",) + sub)
            assert np.array_equal(v.mu, ref_mu) and np.array_equal(v.x, ref_x)
            assert np.array_equal(v.grad_interp, ref_grad)
    assert {1, 2} <= sizes


def _loop_polygon_order(verts):
    # the per-cell ordering: angle in the best-fit plane
    X = np.array([v.x for v in verts])
    center = X.mean(axis=0)
    _, _, vt = np.linalg.svd(X - center)
    return np.argsort(np.arctan2((X - center) @ vt[1], (X - center) @ vt[0])).tolist()


def _loop_cell_table(an):
    # the per-cell reading of a face dict keyed by tuples: each cell's
    # vertices in face order, the first face with a key winning, and its
    # count of rank-deficient faces
    cell_faces = _cell_faces(an)
    faces = sorted({f for fs in cell_faces for f in fs})
    verts, singular = continuation._face_vertices(
        an.omega_nodes, np.array(faces).reshape(len(faces), an.r + 1),
        an.tess.nodes, an.jac_nodes)
    table = dict(zip(faces, zip(verts, singular.tolist())))
    entries = []
    for fs in cell_faces:
        by_key = {}
        for f in fs:
            if table[f][0] is not None:
                by_key.setdefault(table[f][0].key, table[f][0])
        entries.append((list(by_key.values()), sum(table[f][1] for f in fs)))
    return entries


def test_cell_table_matches_the_face_dict_loop(analyzers):
    # the lexsorted face rows give each cell the vertices, with their bits,
    # and the rank-deficient count of the tuple-keyed loop; the cross case
    # snaps vertices to nodes and has singular faces
    snapped = 0
    for an in analyzers:
        for (got, skipped), (ref, ref_skipped) in zip(_cell_table(an), _loop_cell_table(an)):
            assert skipped == ref_skipped
            assert sorted(v.key for v in got) == sorted(v.key for v in ref)
            by_key = {v.key: v for v in got}
            for v in ref:
                assert np.array_equal(by_key[v.key].x, v.x)
                assert np.array_equal(by_key[v.key].mu, v.mu)
                snapped += len(v.face) <= an.r
    assert snapped
    assert any(skipped for _, skipped in _cell_table(analyzers[-1]))


def test_polygon_orders_match_cell_loop(analyzers):
    # the table hands each polygon over in ring order: the loop's order
    # applied to the cell's vertices in face order
    an = analyzers[0]  # tri_quadratic: m = 3
    sizes = set()
    for (ring, _), (verts, _) in zip(_cell_table(an), _loop_cell_table(an)):
        if len(verts) >= 3:
            sizes.add(len(verts))
            verts = [verts[i] for i in _loop_polygon_order(verts)]
        assert [v.key for v in ring] == [v.key for v in verts]
    assert {3, 4} <= sizes


def test_second_order_stage_matches_vertex_loop(analyzers):
    # sigma of the clip-born vertices, stacked over the run with the
    # face-table vertices, against one call per vertex
    p = registry_get("tri_quadratic")
    an = Analyzer(p, kuhn_tessellation(p.domain_box, [7, 7, 7]))
    clip_born = 0
    for a in an.run_cells():
        for piece in a.strata[STRATUM_UNSTABLE] + a.strata[STRATUM_STABLE]:
            for v in piece:
                if v.face is not None or ast.literal_eval(v.key)[1][0] != "lam":
                    continue
                clip_born += 1
                ref = _loop_generalized_hessian(v.grad_interp, v.lam, v.hess_interp)
                if ref is None:
                    assert v.sigma is None
                else:
                    assert np.array_equal(v.sigma, ref)
    assert clip_born > 0


def test_sigma_is_one_stacked_call_over_the_reached_vertices(monkeypatch, caplog):
    # an order-2 run computes sigma in one call, over exactly the vertices
    # of its cells' critical pieces, and logs its kernel failures once;
    # first-order runs never compute it
    calls = []
    stacked = continuation.generalized_hessians

    def counting(G, lam, hess):
        calls.append(len(G))
        return stacked(G, lam, hess)

    monkeypatch.setattr(continuation, "generalized_hessians", counting)
    caplog.set_level(logging.DEBUG, logger="paretoc.continuation")
    for name, counts in (("tri_quadratic", [6, 6, 6]), ("noncv", [40, 40])):
        p = registry_get(name)
        tess = kuhn_tessellation(p.domain_box, counts)
        calls.clear()
        caplog.clear()
        analyses = Analyzer(p, tess).run_cells()
        # the vertices of the pre-sigma critical pieces: every vertex on a
        # critical piece now, apart from the sigma clip's cuts
        reached = {v for a in analyses for s in (STRATUM_UNSTABLE, STRATUM_STABLE)
                   for piece in a.strata[s] for v in piece
                   if v.face is not None or ast.literal_eval(v.key)[1] != ("sig", 0)}
        assert calls == [len(reached)]
        assert sum("kernel dimension" in r.getMessage() for r in caplog.records) == 1
        seen = {v for a in analyses for v in a.singular_vertices}
        seen |= {v for a in analyses for pieces in a.strata.values()
                 for piece in pieces for v in piece}
        seen |= {v for a in analyses for v, _ in a.markers}
        with_sigma = [v for v in seen if v.sigma is not None]
        assert with_sigma
        for v in with_sigma:
            assert v in reached or ast.literal_eval(v.key)[1] == ("sig", 0)
        Analyzer(p, tess, order=1).run_cells()
        assert len(calls) == 1
    analyze_constrained(registry_get("sphere_proj"), icosphere(2))
    assert len(calls) == 1


def _loop_hess_interp(problem, points, v):
    hs = np.array([problem.hess_at(points[i][None])[0] for i in v.face])
    return np.tensordot(v.mu, hs, axes=1)


def test_hessian_interpolation_matches_vertex_loop(analyzers):
    # locglob has r = 2: its faces are triangles, so face sizes 1 to 3 occur
    p = registry_get("locglob")
    locglob = Analyzer(p, kuhn_tessellation(p.domain_box, [6, 6, 6]))
    sizes = set()
    for an in analyzers + [locglob]:
        verts = [v for v in _table_vertices(an) if v.hess_interp is not None]
        assert verts
        for v in verts:
            sizes.add(len(v.face))
            ref = _loop_hess_interp(an.problem, an.tess.nodes, v)
            assert np.array_equal(v.hess_interp, ref)
    assert {1, 2, 3} <= sizes


def _counted(problem, calls):
    """The problem with each callable counting its calls in ``calls``."""
    def count(name, f):
        def counted(X):
            calls[name] += 1
            return f(X)
        return counted

    if isinstance(problem, ConstrainedProblem):
        return dataclasses.replace(problem, base=_counted(problem.base, calls),
                                   g=count("g", problem.g),
                                   g_jacobian=count("g_jacobian", problem.g_jacobian))
    return dataclasses.replace(problem, eval=count("eval", problem.eval),
                               jacobian=count("jacobian", problem.jacobian),
                               hessians=count("hessians", problem.hessians))


def test_problem_callables_are_called_once_per_stage():
    # every stage evaluates all its points in one call: the nodal Jacobians
    # and Hessians, glue's objective values, the minor statistics and budget
    # scores of refinement, and the constrained nodal stage.  A loop over
    # points would call a callable once per point.
    calls = Counter()
    p = _counted(registry_get("tri_quadratic"), calls)
    analyze(p, kuhn_tessellation(p.domain_box, [6, 6, 6]))
    assert calls == {"eval": 1, "jacobian": 1, "hessians": 1}

    state = refinement.initial_state(p, kuhn_tessellation(p.domain_box, [4, 4, 4]))
    calls.clear()
    refinement.iterate(state, scheme="maximin", budget=3)
    assert calls == {"eval": 1, "jacobian": 3, "hessians": 1}

    noncv = _counted(registry_get("noncv"), calls)
    state = refinement.initial_state(noncv, kuhn_tessellation(noncv.domain_box, [16, 16]))
    calls.clear()
    refinement.iterate(state, scheme="polyline", budget=5)
    assert calls == {"eval": 1, "jacobian": 3, "hessians": 1}

    calls.clear()
    analyze_constrained(_counted(registry_get("sphere_proj"), calls), icosphere(1))
    assert calls == {"eval": 1, "jacobian": 2, "g": 1, "g_jacobian": 2}


# Every stage of a run, in a fresh interpreter: np.unique and np.median import
# numpy.ma on first use (about 10 ms), so the stacked code avoids them.
_STAGES = textwrap.dedent("""
    import os, sys, tempfile
    import numpy as np
    from paretoc import (VectorProblem, analyze, analyze_constrained, hausdorff, icosphere,
                         initial_state, iterate, kuhn_tessellation, registry_get)
    from paretoc.complex_io import save_complex

    def grid(name, counts):
        p = registry_get(name)
        return p, kuhn_tessellation(p.domain_box, counts)

    toy = VectorProblem(
        name="toy1d", n=1, m=2,
        eval=lambda X: np.hstack([X, -X * X]),
        jacobian=lambda X: np.stack([np.ones_like(X), -2.0 * X], axis=1),
        hessians=lambda X: np.tile([[[0.0]], [[-2.0]]], (len(X), 1, 1, 1)),
        domain_box=[[-1.0, 1.0]],
    )
    loaded = {}
    cx2 = analyze(*grid("noncv", [16, 16]))
    loaded["analyze m = 2"] = "numpy.ma" in sys.modules
    cx3 = analyze(*grid("tri_quadratic", [4, 4, 4]))
    loaded["analyze m = 3"] = "numpy.ma" in sys.modules
    analyze(toy, kuhn_tessellation(toy.domain_box, [9]), order=1)
    loaded["analyze m > n"] = "numpy.ma" in sys.modules
    iterate(initial_state(*grid("noncv", [16, 16])), scheme="polyline")
    loaded["iterate polyline"] = "numpy.ma" in sys.modules
    iterate(initial_state(*grid("tri_quadratic", [4, 4, 4])), scheme="maximin", budget=5)
    loaded["iterate maximin"] = "numpy.ma" in sys.modules
    analyze_constrained(registry_get("sphere_proj"), icosphere(2))
    loaded["analyze_constrained"] = "numpy.ma" in sys.modules
    hausdorff(cx2, cx2)
    hausdorff(cx3, cx3, density=5)
    loaded["hausdorff"] = "numpy.ma" in sys.modules
    with tempfile.TemporaryDirectory() as d:
        save_complex(os.path.join(d, "complex.json"), cx3)
    loaded["save_complex"] = "numpy.ma" in sys.modules
    print(loaded)
""")


def test_no_stage_imports_numpy_ma():
    src = str(Path(paretoc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _STAGES], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = ast.literal_eval(done.stdout)
    assert len(loaded) == 8 and not any(loaded.values()), loaded
