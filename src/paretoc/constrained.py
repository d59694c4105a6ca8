"""First-order continuation on an equality-constrained manifold W = {g = 0}.

The manifold is supplied as a piecewise-linear mesh of d-simplices embedded in
R^n: a :class:`~paretoc.tessellation.Tessellation` whose cells have d+1
nodes, such as :func:`icosphere` or a mesh file read by
:func:`~paretoc.complex_io.load_mesh`.  At every node the objective gradients
are projected onto ker Dg, and the singular set is located through the
determinant of the stacked matrix (grad g_1, ..., grad g_{n-m}, grad u_1,
..., grad u_m) -- equivalently, the orientation change of the projected
gradient frame.  A :class:`ConstrainedProblem` has n - m constraints, so the
matrix is square (one scalar test per node) and the manifold has dimension
d = m, e.g. two objectives on a surface in R^3.

Only the nodal data is constrained-specific, and it is computed in stacked
calls over all nodes, the problem's callables included.  The projected
gradients stand in for the Jacobian rows and the augmented minor for the
r = 1 minor, and the unconstrained :func:`~paretoc.continuation.analyze`
does the rest on the mesh as given: candidate filter, edge solves, lambda,
clipping and gluing.  It runs first order (no stability clip), so critical
pieces carry the ``critical_unstable`` label (stability undecided).
"""

from __future__ import annotations

import numpy as np

from .continuation import (
    ParetoComplex,
    analyze,
    snapped_determinants,
    EPS_RANK,
)
from .errors import NonSquareUnsupported, RankDeficientConstraint
from .problems import ConstrainedProblem
from .tessellation import Tessellation

EPS_CONSTRAINT = 1e-8  # max |g| allowed on mesh nodes


def project_gradients(cp: ConstrainedProblem, x) -> np.ndarray:
    """Objective gradients projected onto ker Dg(x): rows (I - Dg+ Dg) grad u_j.

    x is a stack of points (N, n); the result is (N, m, n).  The callables,
    the rank test, the Gram solve and the projection are stacked calls over
    all points.  A rank-deficient Dg raises for the first such point.
    """
    X = np.asarray(x, dtype=float)
    Dg = cp.g_jac_at(X)
    sv = np.linalg.svd(Dg, compute_uv=False)
    deficient = np.flatnonzero(sv[:, -1] <= EPS_RANK * sv[:, 0])
    if deficient.size:
        raise RankDeficientConstraint(f"Dg rank deficient at {X[deficient[0]]}")
    J = cp.base.jac_at(X)
    DgT = np.swapaxes(Dg, -1, -2)
    corr = DgT @ np.linalg.solve(Dg @ DgT, Dg @ np.swapaxes(J, -1, -2))
    return J - np.swapaxes(corr, -1, -2)


def augmented_minors(cp: ConstrainedProblem, x):
    """det(grad g_1, ..., grad g_{n-m}, grad u_1, ..., grad u_m).

    x is a stack of points (N, n); the result is an (N,) array, one snapped,
    stacked determinant call.
    """
    X = np.asarray(x, dtype=float)
    rows = np.concatenate([cp.g_jac_at(X), cp.base.jac_at(X)], axis=1)
    return snapped_determinants(np.swapaxes(rows, -1, -2))


def analyze_constrained(cp: ConstrainedProblem, mesh: Tessellation) -> ParetoComplex:
    """Run Algorithm-3-style first-order analysis over a manifold mesh.

    ``mesh`` is a :class:`Tessellation` of m-simplices (rows of m+1 node ids)
    whose nodes satisfy |g| < ``EPS_CONSTRAINT``.  Checks both, computes the
    projected gradients and the augmented minor at every node, and hands
    them with the mesh to first-order :func:`analyze`; faces, lambda,
    clipping and gluing are the unconstrained pipeline's.
    """
    if mesh.cells.shape[1] != cp.m + 1:
        raise NonSquareUnsupported(f"the mesh cells have {mesh.cells.shape[1]} nodes, "
                                   f"not m + 1 = {cp.m + 1}")
    res = np.abs(cp.g_val_at(mesh.nodes))
    worst = float(res.max()) if res.size else 0.0
    if not worst < EPS_CONSTRAINT:  # NaN too
        raise ValueError(f"mesh node violates the constraint: max |g| = "
                         f"{worst:g} >= {EPS_CONSTRAINT:g}")
    proj = project_gradients(cp, mesh.nodes)
    omega = augmented_minors(cp, mesh.nodes)[:, None]
    return analyze(cp.base, mesh, order=1, nodal=(proj, omega))


# ---------------------------------------------------------------------------
# built-in sphere meshes
# ---------------------------------------------------------------------------

_PHI = (1.0 + np.sqrt(5.0)) / 2.0
# mesh rotated by fixed angles so no icosahedron vertex sits on the equator
# x3 = 0 (4 raw vertices do), which would degenerate the minor systems there
_ROT_Y, _ROT_X = 0.25, 0.15


def _base_icosahedron():
    v = []
    for a, b in [(-1, _PHI), (1, _PHI), (-1, -_PHI), (1, -_PHI)]:
        v.append([a, b, 0.0])
    for a, b in [(-1, _PHI), (1, _PHI), (-1, -_PHI), (1, -_PHI)]:
        v.append([0.0, a, b])
    for a, b in [(-1, _PHI), (1, _PHI), (-1, -_PHI), (1, -_PHI)]:
        v.append([b, 0.0, a])
    verts = np.array(v)
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    cy, sy = np.cos(_ROT_Y), np.sin(_ROT_Y)
    cx, sx = np.cos(_ROT_X), np.sin(_ROT_X)
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    return verts @ (Rx @ Ry).T, faces


def icosphere(subdivisions: int = 0) -> Tessellation:
    """Icosahedron-based triangulation of the unit sphere.

    Each subdivision splits every triangle in four, projecting edge midpoints
    radially back onto the sphere.  Construction order is deterministic.
    """
    verts, faces = _base_icosahedron()
    verts = [v for v in verts]
    for _ in range(int(subdivisions)):
        midpoint: dict[tuple, int] = {}

        def mid(a: int, b: int) -> int:
            key = (min(a, b), max(a, b))
            idx = midpoint.get(key)
            if idx is None:
                p = verts[a] + verts[b]
                p = p / np.linalg.norm(p)
                idx = len(verts)
                verts.append(p)
                midpoint[key] = idx
            return idx

        new_faces = []
        for (a, b, c) in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            new_faces.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = new_faces
    return Tessellation(verts, faces)
