"""Stacked calls against the per-item loops they replace.

The analysis core solves faces, lambda and sigma for many vertices at once,
and the nodal minors for all nodes at once.  Each test keeps the per-item
loop as the reference and requires bit-equal results, since the arithmetic
of every item is unchanged.
"""

import sys
import threading

import numpy as np
import pytest

from paretoc import continuation
from paretoc.continuation import (
    Analyzer,
    SingularVertex,
    generalized_hessians,
    glue,
    snapped_determinants,
    solve_faces,
    solve_lambdas,
)
from paretoc.problems import registry_get
from paretoc.tessellation import enumerate_faces, kuhn_tessellation

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
    ans = _analyzers()
    for an in ans:
        an.run_cells()
    return ans


def _table_vertices(an):
    return [v for v in an._faces.values() if isinstance(v, SingularVertex)]


def test_snapped_determinants_match_node_loop(analyzers):
    for an in analyzers:
        for j, cols in enumerate(an.selection.columns):
            ref = [_loop_snap_determinant(float(np.linalg.det(J[:, list(cols)])), J[:, list(cols)])
                   for J in an.jac_nodes]
            assert np.array_equal(an.omega_nodes[:, j], ref)
            assert np.array_equal(snapped_determinants(an.jac_nodes[:, :, list(cols)]), ref)


def test_solve_faces_match_single_solves(analyzers):
    for an in analyzers:
        faces = sorted({f for ci in an.candidate_cells()
                        for f in enumerate_faces(an.tess.cells[ci], an.selection.r)})
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
    v = _table_vertices(analyzers[0])[0]
    with pytest.raises(ValueError):
        v.lam[0] = 0.0


def test_concurrent_single_cells_solve_each_face_once(monkeypatch):
    # single-cell calls from more threads than cores fill the face table
    # under its lock: no face is solved twice and the glued output matches
    # the serial run
    p = registry_get("tri_quadratic")
    tess = kuhn_tessellation(p.domain_box, [6, 6, 6])
    serial = Analyzer(p, tess).run()
    solved = []
    solve = continuation.solve_faces

    def counting(omega_nodes, faces):
        solved.extend(tuple(f) for f in np.asarray(faces).tolist())
        return solve(omega_nodes, faces)

    monkeypatch.setattr(continuation, "solve_faces", counting)
    an = Analyzer(p, tess)
    cells = [int(ci) for ci in an.candidate_cells()]
    analyses = {}

    def work(chunk):
        for ci in chunk:
            analyses[ci] = an.analyze_cell(ci)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(cells[k::8],)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(solved) == len(set(solved))
    cx = glue(analyses.values(), p, tess, order=2)
    assert cx.simplices == serial.simplices and cx.markers == serial.markers
    assert np.array_equal(cx.positions, serial.positions)
    assert np.array_equal(cx.sigma, serial.sigma, equal_nan=True)
