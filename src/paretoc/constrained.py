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

import numbers

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

    The rank test is the singular-value test sigma_min <= EPS_RANK sigma_max
    behind a filter.  Gershgorin discs of the Gram matrix G = Dg Dg^T, the
    matrix the solve uses, bound its eigenvalues (the squared singular values
    of Dg) below by L and above by U.  A point with L > EPS_RANK U and L a
    normal number has sigma_min / sigma_max > 1e-4, up to the rounding of G
    and of the discs, which is O(u) relative to U (a normal L keeps underflow,
    an absolute error, as small).  A backward-stable SVD moves each singular
    value by O(u) sigma_max (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2002), so it would pass the point with four orders to spare.
    Only the points the filter does not settle (a zero, ill-conditioned or
    non-finite Dg) go through the SVD: the same points fail, with the same
    error, and the result is the unfiltered test's.
    """
    X = np.asarray(x, dtype=float)
    Dg = cp.g_jac_at(X)
    DgT = np.swapaxes(Dg, -1, -2)
    gram = Dg @ DgT
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    off = np.abs(gram)
    k = np.arange(gram.shape[-1])
    off[..., k, k] = 0.0
    radius = off.sum(axis=-1)
    with np.errstate(invalid="ignore"):  # inf - inf: a NaN bound settles nothing
        lower = (diag - radius).min(axis=-1)
        upper = (diag + radius).max(axis=-1)
        settled = (lower > EPS_RANK * upper) & (lower >= np.finfo(float).tiny)
    check = np.flatnonzero(~settled)
    if check.size:
        sv = np.linalg.svd(Dg[check], compute_uv=False)
        deficient = check[sv[:, -1] <= EPS_RANK * sv[:, 0]]
        if deficient.size:
            raise RankDeficientConstraint(f"Dg rank deficient at {X[deficient[0]]}")
    J = cp.base.jac_at(X)
    corr = DgT @ np.linalg.solve(gram, Dg @ np.swapaxes(J, -1, -2))
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

    ``subdivisions`` is a non-negative integer count; a negative, fractional
    or boolean one raises ``ValueError``.  Each subdivision splits every
    triangle (a, b, c) in four, (a, ab, ca), (b, bc, ab), (c, ca, bc) and
    (ab, bc, ca), projecting edge midpoints radially back onto the sphere.
    It is built with array operations: a midpoint's node id follows the
    first occurrence of its edge when the faces' edges ab, bc, ca are read in
    face order, so the construction order is deterministic.
    """
    if (isinstance(subdivisions, bool) or not isinstance(subdivisions, numbers.Integral)
            or subdivisions < 0):
        raise ValueError(f"subdivisions is {subdivisions!r}, not a non-negative integer")
    verts, faces = _base_icosahedron()
    faces = np.array(faces, dtype=np.intp)
    for _ in range(subdivisions):
        edges = np.sort(faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        _, first, inverse = np.unique(edges[:, 0] * len(verts) + edges[:, 1],
                                      return_index=True, return_inverse=True)
        order = np.argsort(first)
        new_id = np.empty_like(order)
        new_id[order] = np.arange(len(verts), len(verts) + len(order))
        P = verts[edges[first[order], 0]] + verts[edges[first[order], 1]]
        # sqrt of a stack of (1, 3) @ (3, 1) products rounds as the
        # per-midpoint np.linalg.norm (see Tessellation.min_incident_edge)
        P = P / np.sqrt((P[:, None, :] @ P[:, :, None])[:, 0, 0])[:, None]
        verts = np.vstack([verts, P])
        ab, bc, ca = new_id[inverse.reshape(-1, 3)].T
        a, b, c = faces.T
        faces = np.stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca], axis=1).reshape(-1, 3)
    return Tessellation(verts, faces)
