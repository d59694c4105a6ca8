"""Per-cell extraction of the singular/critical/stable polytopes and gluing.

For a map u: R^n -> R^m with m <= n, the rank of the Jacobian drops exactly
where r = n-m+1 column-window minors vanish simultaneously.  Inside every
tessellation cell the nodal minor values are interpolated linearly; each
(r+1)-vertex face carries at most one *singular vertex*, found by solving the
barycentric system

    sum_k mu_k omega_j(P_k) = 0   (j = 1..r),   sum_k mu_k = 1,

and accepted when all mu_k are (numerically) positive.  The singular vertices
of a cell assemble into an (m-1)-polytope; clipping it successively by the
interpolated multiplier fields lambda_j >= 0 yields the critical part, and
clipping that by the largest eigenvalue of the restricted second-derivative
form <= 0 yields the stable part.  Clip boundaries become marker points
(criticality boundaries and cusps).  Adjacent cells share singular vertices
through their defining faces, so gluing is an exact merge keyed on face keys.

The face is therefore the unit of work.  A run is four stages over all
candidate cells: one table pass solves the distinct r-faces in one stacked
call and computes each accepted vertex's data (position, gradients, lambda,
Hessian interpolation) once, and orders the polygons; every cell's polytope
is assembled from its shared vertices and clipped by lambda; sigma is
computed in one stacked call for exactly the vertices of the critical
pieces; and every cell's critical part is clipped by sigma.
"""

from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import UnsupportedObjectiveCount
from .problems import VectorProblem
from .tessellation import Tessellation

logger = logging.getLogger(__name__)

# Tolerances of the analysis core.  Each is relative to the scale named.
EPS_ACCEPT = -1e-10    # barycentric weights above this accept a face vertex
MU_SNAP = 1e-9         # weights at or below this drop out of a vertex's key:
                       # the vertex takes its sub-face's key and merges there
EPS_RANK = 1e-8        # singular values at or below this x the largest are
                       # zero (rank of gradient rows, lambda and sigma solves)
EPS_RES = 0.2          # lambda residual above this x the largest gradient
                       # row norm marks a vertex non-critical
CLIP_SNAP_REL = 1e-12  # clip values at or below this x the largest |value|
                       # of their piece count as zero
DET_SNAP_REL = 1e-13   # nodal minors at or below this x their Hadamard bound
                       # (the product of column norms) count as zero
# Tolerances of the other layers, for reference:
#   tessellation.EPS_GEOM_REL = 1e-12  node coincidence and the seed simplex, x bbox
#                                      diagonal; Delaunay ties are broken on node ids
#   constrained.EPS_CONSTRAINT = 1e-8  largest |g| allowed at a mesh node
#   refinement.SPACING_GAMMA = 0.1  candidate-to-node distance floor, x local shortest edge

STRATUM_SINGULAR = "singular_only"
STRATUM_UNSTABLE = "critical_unstable"
STRATUM_STABLE = "critical_stable"
MARKER_BOUNDARY = "criticality_boundary"
MARKER_CUSP = "cusp"
STRATA = (STRATUM_SINGULAR, STRATUM_UNSTABLE, STRATUM_STABLE)
MARKER_KINDS = (MARKER_BOUNDARY, MARKER_CUSP)


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------


def minors_of_jacobian(J: np.ndarray, columns: Sequence[tuple]) -> np.ndarray:
    """The minors of one Jacobian (m, n) on the given column windows, or of a
    stack (N, m, n) as an (N, r) array, one batched determinant per window;
    r = 0 with no window (m > n)."""
    out = np.empty(J.shape[:-2] + (len(columns),))
    for j, cols in enumerate(columns):
        out[..., j] = np.linalg.det(J[..., list(cols)])
    return out


def snapped_determinants(matrices: np.ndarray) -> np.ndarray:
    """Determinants of a stack of square matrices, each zeroed below its
    round-off floor, in one batched call.

    |det| is bounded by the product of column norms (Hadamard); values far
    below that product times machine precision are pure noise and their
    arbitrary signs would otherwise fabricate crossings for structurally
    singular maps.
    """
    det = np.linalg.det(matrices)
    bound = np.prod(np.linalg.norm(matrices, axis=-2), axis=-1)
    return np.where(np.abs(det) <= DET_SNAP_REL * bound, 0.0, det)


# ---------------------------------------------------------------------------
# lambda solve
# ---------------------------------------------------------------------------


@functools.cache
def _simplex_tangent_basis(m: int) -> np.ndarray:
    # orthonormal basis of {v : sum v_i = 0}, deterministic; shared, read-only
    _, _, vt = np.linalg.svd(np.ones((1, m)))
    basis = vt[1:].T  # (m, m-1)
    basis.flags.writeable = False
    return basis


def solve_lambdas(G: np.ndarray):
    """Weights of the vanishing convex-ish combination of gradient rows, for
    a (V, m, n) stack: each row minimizes ||lambda^T G|| subject to
    sum(lambda) = 1 (minimal-norm tie-break).  Signs are *not* constrained;
    they drive the downstream clip.  Returns ``(lam, residual)`` of shapes
    (V, m) and (V,).  Where rank(G) < m-1 the weights are ambiguous (a rank
    collapse): the row of ``lam`` is NaN and the residual is infinite.
    """
    m = G.shape[1]
    sv = np.linalg.svd(G, compute_uv=False)
    # numerical rank below m - 1, or G = 0 (for m = 1 column m - 2 is column 0)
    collapse = sv[:, m - 2] <= EPS_RANK * sv[:, 0]
    lam0 = np.full(m, 1.0 / m)
    Z = _simplex_tangent_basis(m)
    GT = np.swapaxes(G, 1, 2)
    A = GT @ Z
    b = -GT @ lam0
    # truncated-SVD solve with a cutoff tied to the gradient scale, so a
    # numerically-zero system falls back to the minimal-norm weights instead
    # of amplifying round-off
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > EPS_RANK * sv[:, :1]
    # stacked back-substitution, dropped singular values as zero terms.  U^T
    # is made contiguous: each row then rounds as the one-vertex product
    # U[:, k].T @ b does, which the strided view of U^T does not; where k
    # keeps one singular value that product is (1, n) @ (n,), and rounds so
    UT = np.ascontiguousarray(np.swapaxes(U, 1, 2))
    Utb = (UT @ b[..., None])[..., 0]
    one = keep.sum(axis=1) == 1
    Utb[one, 0] = (UT[one, :1] @ b[one, :, None])[:, 0, 0]
    y = np.divide(Utb, s, out=np.zeros_like(s), where=keep)
    t = np.swapaxes(Vt, 1, 2) @ y[..., None]
    lam = lam0 + (Z @ t)[..., 0]
    r = GT @ lam[..., None]
    residual = np.sqrt((np.swapaxes(r, 1, 2) @ r)[:, 0, 0])
    lam[collapse] = np.nan
    residual[collapse] = np.inf
    return lam, residual


# ---------------------------------------------------------------------------
# vertices and polytope pieces
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class SingularVertex:
    """A vertex of the piecewise-linear singular set.

    Face-born vertices carry the defining face and barycentric weights, and
    are built complete but for sigma; clip-born vertices carry neither but
    inherit interpolated lambda, gradients, Hessians and sigma.  Only the
    sigma stage sets a field after construction: ``sigma``, left None where
    the kernel dimension is ambiguous.
    Within a run a vertex is the object itself: it
    hashes by identity, and cells share the face-table vertices.  Across
    cells it is ``key``, the text of its defining face, ``"('f', i, j)"``
    with sorted node ids, or of its clip, ``"('c', stage, ka, kb)"`` with
    the endpoint keys in text order: glue merges and orders the vertices by
    it.
    """

    key: str
    x: np.ndarray
    face: Optional[tuple] = None
    mu: Optional[np.ndarray] = None
    grad_interp: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    residual: float = 0.0
    hess_interp: Optional[np.ndarray] = None
    sigma: Optional[np.ndarray] = None
    critical_ok: bool = True


def _interp_vertex(a: SingularVertex, b: SingularVertex, t: float, stage) -> SingularVertex:
    """Linear interpolation between two vertices, at t from a to b.

    The endpoints are put in key order, so the cut of an edge has one key
    from either side.  Its floats are not canonical: ``t`` comes from the
    caller's cut direction, and two cells that cut a shared edge from
    opposite ends can round the cut apart (see :func:`glue`).  A field
    missing at an endpoint is missing here: the first-order clips run before
    the sigma stage, which sets the sigma of their cuts.  The residual and
    the criticality flag keep their defaults: the validity stage reads them
    before the first clip.
    """
    if b.key < a.key:
        a, b = b, a
        t = 1.0 - t

    def lerp(u, v):
        if u is None or v is None:
            return None
        return u + t * (v - u)

    return SingularVertex(
        key=f"('c', {stage!r}, {a.key}, {b.key})",
        x=a.x + t * (b.x - a.x),
        grad_interp=lerp(a.grad_interp, b.grad_interp),
        lam=lerp(a.lam, b.lam),
        hess_interp=lerp(a.hess_interp, b.hess_interp),
        sigma=lerp(a.sigma, b.sigma),
    )


def clip_polytope(pieces, values, stage="clip"):
    """Keep the part of each piece where the per-vertex scalar is >= 0.

    A piece is a connected convex fragment of a cell's (m-1)-polytope, the
    tuple of its distinct vertices: a pair is a segment (m = 2), three or
    more are a planar polygon in cyclic order (m = 3).
    ``values`` maps vertex -> scalar.  Returns ``(kept, dropped,
    boundary_vertices)``; the inserted boundary vertices are new objects,
    keyed on ``stage`` and their edge's endpoint keys, and their scalar
    fields are linear interpolations of the endpoint data.  Every input
    vertex lands in a kept or a dropped piece and every inserted vertex in
    both, which :func:`glue` relies on.
    """

    def cut(a, b, t):
        return _interp_vertex(a, b, t, stage)

    kept: list[tuple] = []
    dropped: list[tuple] = []
    boundary: list[SingularVertex] = []
    for piece in pieces:
        svals = [values[v] for v in piece]
        snap = CLIP_SNAP_REL * max(map(abs, svals), default=0.0)
        svals = [0.0 if abs(s) <= snap else s for s in svals]
        split = _split_segment if len(piece) == 2 else _split_polygon
        k, d, b = split(piece, svals, cut)
        kept.extend(k)
        dropped.extend(d)
        boundary.extend(b)
    return kept, dropped, boundary


def _split_segment(piece: tuple, s, cut):
    a, b = piece
    sa, sb = s
    if sa >= 0.0 and sb >= 0.0:
        bd = []
        if sa == 0.0 and sb > 0.0:
            bd.append(a)
        if sb == 0.0 and sa > 0.0:
            bd.append(b)
        return [piece], [], bd
    if sa <= 0.0 and sb <= 0.0:
        bd = []
        if sa == 0.0 and sb < 0.0:
            bd.append(a)
        if sb == 0.0 and sa < 0.0:
            bd.append(b)
        return [], [piece], bd
    w = cut(a, b, sa / (sa - sb))
    if sa > 0.0:
        return [(a, w)], [(w, b)], [w]
    return [(w, b)], [(a, w)], [w]


def _split_polygon(piece: tuple, s, cut):
    """Both sides of a polygon; each vertex joins a side at most once and
    a cut vertex is new, so a side is a polygon when it has three vertices."""
    k = len(piece)
    pos: list[SingularVertex] = []
    neg: list[SingularVertex] = []
    boundary: list[SingularVertex] = []
    for i in range(k):
        j = (i + 1) % k
        vi, vj = piece[i], piece[j]
        si, sj = s[i], s[j]
        if si >= 0.0:
            pos.append(vi)
        if si <= 0.0:
            neg.append(vi)
        if si == 0.0 and s[(i - 1) % k] * sj < 0.0:
            boundary.append(vi)  # level set passes exactly through a vertex
        if si * sj < 0.0:
            w = cut(vi, vj, si / (si - sj))
            pos.append(w)
            neg.append(w)
            boundary.append(w)
    out_pos = [tuple(pos)] if len(pos) >= 3 else []
    out_neg = [tuple(neg)] if len(neg) >= 3 else []
    return out_pos, out_neg, boundary


def _rings(polygons: list) -> list:
    """Each planar polygon's vertices in cyclic order: by angle in its
    best-fit plane, with one SVD per group of polygons with the same vertex
    count."""
    out: list = [None] * len(polygons)
    groups: dict[int, list] = {}
    for i, verts in enumerate(polygons):
        groups.setdefault(len(verts), []).append(i)
    for idx in groups.values():
        X = np.array([[v.x for v in polygons[i]] for i in idx])  # (G, k, n)
        D = X - X.mean(axis=1, keepdims=True)
        _, _, vt = np.linalg.svd(D)
        uu = (D @ vt[:, 0, :, None])[..., 0]
        vv = (D @ vt[:, 1, :, None])[..., 0]
        for i, order in zip(idx, np.argsort(np.arctan2(vv, uu), axis=1).tolist()):
            out[i] = [polygons[i][j] for j in order]
    return out


# ---------------------------------------------------------------------------
# cell analysis
# ---------------------------------------------------------------------------


@dataclass
class CellAnalysis:
    """One cell's pieces by stratum, its markers and warnings.

    A piece is the tuple of its vertices (see :func:`clip_polytope`).  A
    face-table vertex is shared between cells, so its sigma belongs in the
    complex file only from a cell where it lies on a critical piece.
    """

    cell_index: int
    singular_vertices: list = field(default_factory=list)
    strata: dict = field(default_factory=lambda: {s: [] for s in STRATA})
    markers: list = field(default_factory=list)  # (SingularVertex, kind)
    warnings: list = field(default_factory=list)


def solve_faces(omega_nodes: np.ndarray, faces) -> tuple:
    """Barycentric weights of many face systems in one stacked solve.

    ``faces`` is an (F, r+1) array of node ids.  Returns ``(mu, singular)``:
    the (F, r+1) weights, NaN on the rows of exactly singular systems, and
    the boolean mask of those rows.
    """
    faces = np.asarray(faces, dtype=np.intp)
    F, k = faces.shape
    A = np.ones((F, k, k))
    A[:, :-1, :] = np.swapaxes(omega_nodes[faces], 1, 2)
    rhs = np.zeros((F, k, 1))
    rhs[:, -1] = 1.0
    mu = np.full((F, k), np.nan)
    singular = np.zeros(F, dtype=bool)
    # one singular system would fail a stacked solve as a whole.  The LU
    # factorization that finds a zero pivot also zeroes the determinant, so
    # the systems with a nonzero one are solved together and only the rest
    # (singular, or with an underflowing determinant) one by one
    regular = np.linalg.det(A) != 0.0
    mu[regular] = np.linalg.solve(A[regular], rhs[regular])[..., 0]
    for f in np.flatnonzero(~regular):
        try:
            mu[f] = np.linalg.solve(A[f], rhs[f, :, 0])
        except np.linalg.LinAlgError:
            singular[f] = True
    return mu, singular


def _interpolate(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Row i of w (F, k) times the node data a[i] (F, k, ...), as
    ``w (1, k) @ a (k, -1)``, which rounds as the per-vertex ``w @ a``."""
    F, k = w.shape
    return (w[:, None, :] @ a.reshape(F, k, -1)).reshape((F,) + a.shape[2:])


def _face_vertices(omega_nodes: np.ndarray, faces: np.ndarray, points: np.ndarray,
                   jac_nodes: np.ndarray, hess_at=None) -> tuple:
    """Solve the distinct faces (F, r+1) at once; one singular vertex per face.

    Returns ``(vertices, singular)``: per face row its accepted
    :class:`SingularVertex` or ``None``, and the mask of the rows whose
    barycentric system is rank deficient.  A face is accepted when its
    weights are all above ``EPS_ACCEPT``.  Weights at or below ``MU_SNAP``
    become zeros and the rest are renormalized, so a vertex sitting on a
    sub-face gets the sub-face key (its ``face``, with the sub-face weights
    as ``mu``) and adjacent cells merge it exactly once.  Each vertex is
    built once and complete but for sigma: position, gradients and, with
    ``hess_at`` (evaluated once at the sub-faces' nodes), the Hessians are
    interpolated in one pass over the accepted faces; lambda is one stacked
    solve.  Every array is a row of a read-only column array.
    """
    mu, singular = solve_faces(omega_nodes, faces)
    rows = np.flatnonzero(np.all(mu > EPS_ACCEPT, axis=1))  # NaN rows fail
    verts: list = [None] * len(faces)
    if not len(rows):
        return verts, singular
    faces, keep = faces[rows], mu[rows] > MU_SNAP
    w = np.where(keep, mu[rows], 0.0)
    w /= w.sum(axis=1, keepdims=True)
    x = _interpolate(w, points[faces])
    grad = _interpolate(w, jac_nodes[faces])
    lam, residual = solve_lambdas(grad)
    scale = np.linalg.norm(grad, axis=2).max(axis=1)
    critical_ok = residual <= EPS_RES * scale  # False on a rank collapse (inf)
    sub, weights = faces[keep], w[keep]  # the sub-faces and their weights, row after row
    columns = [x, grad, lam, weights]
    hess = [None] * len(rows)
    if hess_at is not None:
        # one evaluation over the distinct sub-face nodes (found with a mask:
        # np.unique imports numpy.ma on first use); a zero weight's node
        # reads row 0
        used = np.zeros(len(points), dtype=bool)
        used[sub] = True
        nodes = np.flatnonzero(used)
        at = np.zeros(len(points), dtype=np.intp)
        at[nodes] = np.arange(len(nodes))
        hess = _interpolate(w, hess_at(points[nodes])[at[faces]])
        columns.append(hess)
    for a in columns:
        a.flags.writeable = False
    size = keep.sum(axis=1)
    sub = sub.tolist()
    collapse = np.isnan(lam[:, 0]).tolist()
    for f, lo, k, xf, gf, lf, nan, res, ok, hf in zip(
            rows.tolist(), (np.cumsum(size) - size).tolist(), size.tolist(), x, grad, lam,
            collapse, residual.tolist(), critical_ok.tolist(), hess):
        s = tuple(sub[lo:lo + k])
        verts[f] = SingularVertex(key=repr(("f",) + s), x=xf, face=s, mu=weights[lo:lo + k],
                                  grad_interp=gf, lam=None if nan else lf, residual=res,
                                  hess_interp=hf, critical_ok=ok)
    return verts, singular


def finite_difference_hessians(problem: VectorProblem, points_cell: np.ndarray,
                               jac_cell: np.ndarray) -> np.ndarray:
    """Per-objective Hessian estimate from nodal gradient differences.

    Solves V H_j = G_j where V stacks the edge vectors from vertex 0 and G_j
    stacks the gradient differences, then symmetrizes.  Exact for quadratics.
    """
    V = points_cell[1:] - points_cell[0]
    out = np.empty((problem.m, problem.n, problem.n))
    for j in range(problem.m):
        G = jac_cell[1:, j, :] - jac_cell[0, j, :]
        H = np.linalg.solve(V, G)
        out[j] = 0.5 * (H + H.T)
    return out


def generalized_hessians(G: np.ndarray, lam: np.ndarray, hess: np.ndarray) -> tuple:
    """Eigenvalues of the second-derivative form restricted to ker Du, for V
    vertices in stacked calls.

    ``G`` is (V, m, n), ``lam`` (V, m) and ``hess`` (V, m, n, n); the kernel
    basis comes from the SVD of G.  Returns ``(sigma, fail)``: the (V, n-m+1)
    eigenvalues and the mask of the rows whose numerical rank is below m-1,
    where the kernel dimension is ambiguous and the eigenvalues meaningless.
    """
    V, m, n = G.shape
    _, sv, vt = np.linalg.svd(G)
    fail = sv[:, m - 2] <= EPS_RANK * sv[:, 0]  # the rank rule of solve_lambdas
    W = np.swapaxes(vt[:, m - 1:], 1, 2)  # (V, n, n-m+1) orthonormal kernel-ish bases
    H = np.matmul(lam[:, None, :], hess.reshape(V, m, n * n)).reshape(V, n, n)
    B = np.swapaxes(W, 1, 2) @ H @ W
    B = 0.5 * (B + np.swapaxes(B, 1, 2))
    return np.linalg.eigvalsh(B), fail


def _attach_sigma(verts: list) -> None:
    """Set sigma (read-only) on vertices in one stacked call, None where the
    kernel dimension is ambiguous, and log the count of those failures."""
    if verts:
        sigma, fail = generalized_hessians(np.array([v.grad_interp for v in verts]),
                                           np.array([v.lam for v in verts]),
                                           np.array([v.hess_interp for v in verts]))
        sigma.flags.writeable = False
        for v, sg, f in zip(verts, sigma, fail):
            v.sigma = None if f else sg
        logger.debug("kernel dimension ambiguous at %d of %d vertices; treated as "
                     "unstable", np.count_nonzero(fail), len(verts))


# ---------------------------------------------------------------------------
# analyzer
# ---------------------------------------------------------------------------


def _nodal_data(problem: VectorProblem, points: np.ndarray) -> tuple:
    """Nodal Jacobians and the snapped nodal minors on the problem's windows
    (one batched determinant per window)."""
    jac_nodes = problem.jac_at(points)
    omega_nodes = np.empty((len(points), len(problem.minor_columns)))
    for j, cols in enumerate(problem.minor_columns):
        omega_nodes[:, j] = snapped_determinants(jac_nodes[:, :, list(cols)])
    return jac_nodes, omega_nodes


class Analyzer:
    """Runs the face-first pipeline over a tessellation and glues the result.

    Set-up computes the nodal Jacobians and, in one batched call per window
    of :attr:`VectorProblem.minor_columns`, the snapped nodal minors.  A
    caller with its own nodal data (the constrained pipeline: projected
    gradients and augmented minors) passes them as ``nodal``, one pair
    ``(jac_nodes, omega_nodes)`` of shapes (N, m, n) and (N, r); r is then
    the minors' width and the problem's windows are not read.  The analyzer
    holds only these inputs; :func:`analyze` runs it and glues the result.

    :meth:`run_cells` runs four stages over all candidate cells.  (1) The
    table pass: the distinct r-faces of all cells go through one stacked
    barycentric solve, each accepted vertex is built exactly once with its
    lambda and analytic Hessian interpolation, and each cell's entry holds
    its vertices, one per key, for m = 3 in ring order.  (2) The
    first-order clip of every cell.  (3) One stacked sigma call over the
    vertices of every cell's critical pieces, each once.  (4) The
    second-order clip of every cell.  The vertex objects carry no analyzer
    state, so a face-table vertex keeps its identity and its key in any
    analyzer that holds it.

    With m > n (supported for n = m - 1) there is no window, r = 0: every
    cell passes the filter, its faces are its single nodes, each solved to
    mu = 1, and the cell itself is the singular piece.  The kernel of Du is
    then trivial, so the analysis is first order.
    """

    def __init__(
        self,
        problem: VectorProblem,
        tess: Tessellation,
        order: int = 2,
        *,
        nodal: Optional[tuple] = None,
    ):
        if problem.m not in (2, 3):
            raise UnsupportedObjectiveCount(
                f"polytope realization supports m in (2, 3), got m={problem.m}")
        if problem.sigma_skip:
            # the cell is the singular piece: a segment or a triangle
            if problem.n != problem.m - 1:
                raise UnsupportedObjectiveCount("m > n mode implemented for n = m - 1 only")
            if order >= 2:
                logger.info("m > n: second-order clip skipped (kernel is trivial)")
            order = 1
        self.problem = problem
        self.tess = tess
        self.order = order
        jac_nodes, omega_nodes = _nodal_data(problem, tess.nodes) if nodal is None else nodal
        self.jac_nodes = jac_nodes
        self.omega_nodes = omega_nodes
        self.r = omega_nodes.shape[1]
        if len(tess.nodes):
            for j in np.flatnonzero(np.all(omega_nodes == 0.0, axis=0)):
                logger.warning(
                    "nodal minor %d vanishes at every node: it is structurally "
                    "degenerate for this map, choose other windows in "
                    "VectorProblem.minor_columns", j,
                )

    def candidate_cells(self) -> np.ndarray:
        """Indices of cells where every minor changes sign (vectorized filter)."""
        om = self.omega_nodes[self.tess.cells]  # (C, n+1, r)
        lo = om.min(axis=1)
        hi = om.max(axis=1)
        mask = np.all((lo <= 0.0) & (hi >= 0.0), axis=1)
        return np.nonzero(mask)[0]

    # -- face and cell tables ----------------------------------------------------

    def _cell_table(self, cells: Sequence[int]) -> list:
        """The cell table: ``(vertices, rank-deficient faces)`` for each of
        ``cells``, built in stacked passes.

        A cell's r-faces are the rows of ``cells[:, combos]``, ascending as
        the cell rows are; one lexsort finds the distinct faces and each
        cell-face's row among them.  The stacked face solve on the distinct
        faces builds every accepted vertex once with its lambda and, at
        second order, its Hessian interpolation.  A cell lists its faces'
        vertices in face order, the first face with a key winning; for m = 3
        the vertices of a cell that reaches the polytope stage come in ring
        order.
        """
        combos = list(itertools.combinations(range(self.tess.cells.shape[1]), self.r + 1))
        flat = self.tess.cells[cells][:, combos].reshape(-1, self.r + 1)
        order = np.lexsort(flat.T[::-1])
        ordered = flat[order]
        new = np.ones(len(flat), dtype=bool)
        new[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
        at = np.empty(len(flat), dtype=np.intp)
        at[order] = np.cumsum(new) - 1
        at = at.reshape(len(cells), len(combos))
        verts, singular = _face_vertices(self.omega_nodes, ordered[new], self.tess.nodes,
                                         self.jac_nodes,
                                         self.problem.hess_at if self.order >= 2 else None)
        entries = []
        for row, skipped in zip(at.tolist(), singular[at].sum(axis=1).tolist()):
            by_key: dict[str, SingularVertex] = {}
            for f in row:
                if verts[f] is not None:
                    by_key.setdefault(verts[f].key, verts[f])
            entries.append((list(by_key.values()), skipped))
        if self.problem.m == 3:
            reach = [i for i, (cv, _) in enumerate(entries) if len(cv) >= 3]
            for i, ring in zip(reach, _rings([entries[i][0] for i in reach])):
                entries[i] = (ring, entries[i][1])
        return entries

    # -- per-cell pipeline -----------------------------------------------------

    def analyze_cell_first_order(self, ci: int, verts: list, skipped: int) -> CellAnalysis:
        """Assemble cell ``ci`` from its cell-table entry and clip it by
        lambda; the critical pieces are labelled unstable."""
        analysis = CellAnalysis(cell_index=ci)
        if skipped:
            analysis.warnings.append(f"{skipped} rank-deficient face system(s) skipped")
        if len(verts) < self.problem.m:
            return analysis
        for v in verts:
            if v.lam is None:
                analysis.warnings.append("rank collapse at a singular vertex")
        analysis.singular_vertices = verts
        # validity stage: pieces touching a vertex without usable weights stay
        # singular-only as a whole (measure-zero configurations, logged)
        valid: list[tuple] = []
        for piece in self._assemble_pieces(verts, analysis):
            if all(v.critical_ok for v in piece):  # False on a rank collapse
                valid.append(piece)
            else:
                analysis.strata[STRATUM_SINGULAR].append(piece)
                logger.debug("cell %d: piece dropped at validity stage", ci)
        current = valid
        for j in range(self.problem.m):
            if not current:
                break
            values = {v: float(v.lam[j]) for p in current for v in p}
            current, dropped, boundary = clip_polytope(current, values, ("lam", j))
            analysis.strata[STRATUM_SINGULAR].extend(dropped)
            for w in boundary:
                analysis.markers.append((w, MARKER_BOUNDARY))
        # first-order output: critical pieces are labelled unstable until the
        # second-order clip upgrades the surviving part
        analysis.strata[STRATUM_UNSTABLE].extend(current)
        return analysis

    def analyze_cell_second_order(self, analysis: CellAnalysis) -> CellAnalysis:
        """Clip the critical pieces by sigma, which the sigma stage of
        :meth:`run_cells` set on their vertices; a kernel failure (no sigma)
        counts as unstable."""
        theta = analysis.strata[STRATUM_UNSTABLE]
        analysis.strata[STRATUM_UNSTABLE] = []
        if not theta:
            return analysis
        verts = list(dict.fromkeys(v for piece in theta for v in piece))
        sigma_scale = max([1.0] + [float(np.abs(v.sigma).max())
                                   for v in verts if v.sigma is not None])
        values = {v: -10.0 * sigma_scale if v.sigma is None else -float(v.sigma.max())
                  for v in verts}
        stable, unstable, boundary = clip_polytope(theta, values, ("sig", 0))
        analysis.strata[STRATUM_STABLE].extend(stable)
        analysis.strata[STRATUM_UNSTABLE].extend(unstable)
        for w in boundary:
            analysis.markers.append((w, MARKER_CUSP))
        return analysis

    # -- helpers ---------------------------------------------------------------

    def _assemble_pieces(self, verts, analysis) -> list:
        if self.problem.m == 3 or len(verts) == 2:  # a polygon comes in ring order
            return [tuple(verts)]
        analysis.warnings.append(
            f"{len(verts)} singular vertices in one cell (non-transversal crossing)"
        )
        logger.warning(
            "cell %d: %d singular vertices; building a path through them",
            analysis.cell_index, len(verts),
        )
        X = np.array([v.x for v in verts])
        center = X.mean(axis=0)
        _, _, vt = np.linalg.svd(X - center)
        chain = [verts[i] for i in np.argsort(X @ vt[0])]
        return list(zip(chain, chain[1:]))

    # -- full run ----------------------------------------------------------------

    def run_cells(self) -> list:
        """The analyses of all candidate cells, in the four stages."""
        idx = self.candidate_cells()
        analyses = [self.analyze_cell_first_order(ci, verts, skipped)
                    for ci, (verts, skipped) in zip(idx, self._cell_table(idx))]
        if self.order >= 2:
            _attach_sigma(list(dict.fromkeys(
                v for a in analyses for piece in a.strata[STRATUM_UNSTABLE]
                for v in piece)))
            for a in analyses:
                self.analyze_cell_second_order(a)
        return analyses


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


class ParetoComplex:
    """Glued global output: labelled (m-1)-complex with marker points.

    ``simplices`` is one read-only ``np.intp`` array of shape (S, m), the
    vertex ids of a simplex per row: each row ascending, the rows in
    lexicographic order.  ``stratum`` is the tuple of the rows' stratum
    names, row for row.  Identical rows, which only a hand-edited file
    holds, are ordered by their stratum names.
    """

    def __init__(self, n, m, positions, u_values, lam, sigma, keys,
                 simplices, stratum, markers, problem_name=""):
        self.n = n
        self.m = m
        self.positions = positions      # (V, n)
        self.u_values = u_values        # (V, m)
        self.lam = lam                  # (V, m), NaN where unknown
        self.sigma = sigma              # (V, k) or None, NaN where unknown
        self.keys = keys                # vertex key strings, in vertex order
        rows = np.asarray(simplices, dtype=np.intp)
        rows = np.sort(rows.reshape(len(rows), -1 if rows.size else m), axis=1)
        order = np.lexsort((np.asarray(stratum, dtype=str),) + tuple(rows.T[::-1]))
        self.simplices = rows[order]
        self.simplices.flags.writeable = False
        self.stratum = tuple(stratum[i] for i in order.tolist())
        self.markers = markers          # list of (vertex_id, kind)
        self.problem_name = problem_name

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.positions)

    def is_empty(self) -> bool:
        return len(self.simplices) == 0

    def simplex_ids(self, strata: Optional[Iterable[str]] = None) -> np.ndarray:
        """Indices of the rows in the given strata (all rows if None)."""
        if strata is None:
            return np.arange(len(self.stratum))
        strata = set(strata)
        return np.flatnonzero([s in strata for s in self.stratum])

    def strata_counts(self) -> dict:
        return dict(Counter(self.stratum))

    def components(self, strata: Optional[Iterable[str]] = None) -> list:
        """Connected components (vertex-id sets) of the chosen subcomplex."""
        parent: dict[int, int] = {}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)

        for ids in self.simplices[self.simplex_ids(strata)].tolist():
            for v in ids:
                parent.setdefault(v, v)
            for a, b in zip(ids, ids[1:]):
                union(a, b)
        groups: dict[int, set] = {}
        for v in parent:
            groups.setdefault(find(v), set()).add(v)
        return sorted(groups.values(), key=lambda s: min(s))

    def markers_of_kind(self, kind: str) -> list:
        return [vid for vid, k in self.markers if k == kind]


def glue(analyses: Iterable[CellAnalysis], problem: VectorProblem,
         tess: Tessellation, order: int = 2) -> ParetoComplex:
    """Merge per-cell polytopes into one complex, keyed on face identities.

    Vertices shared by adjacent cells carry identical keys, so the merge is
    exact.  Their data need not be identical: a face-born vertex is one
    object in every cell, but a clip-born vertex is cut by each cell that
    lists it, along its own ring, and two cells can cut a shared edge from
    opposite ends and round the cut apart in the last bits.  The rule is
    that the first cell in cell order wins: a vertex's data come from the
    first cell, in cell order, that lists it; its sigma only if it lies on a
    critical piece there (see :func:`clip_polytope`).
    """
    vertex_table: dict[str, tuple] = {}  # key -> (vertex, sigma)
    simplex_table: dict[tuple, str] = {}  # simplex key -> stratum
    marker_keys: set[tuple] = set()

    for analysis in sorted(analyses, key=lambda a: a.cell_index):
        critical = {v for s in (STRATUM_UNSTABLE, STRATUM_STABLE)
                    for piece in analysis.strata[s] for v in piece}

        def register(v: SingularVertex) -> str:
            k = v.key
            if k not in vertex_table:
                vertex_table[k] = (v, v.sigma if v in critical else None)
            return k

        for stratum, pieces in analysis.strata.items():
            for piece in pieces:
                kl = [register(v) for v in piece]
                if len(kl) == 2:
                    simplex_keys = [tuple(sorted(kl))]
                else:
                    root_pos = kl.index(min(kl))
                    cyc = kl[root_pos:] + kl[:root_pos]
                    simplex_keys = [
                        tuple(sorted((cyc[0], cyc[i], cyc[i + 1])))
                        for i in range(1, len(cyc) - 1)
                    ]
                for sk in simplex_keys:
                    if sk not in simplex_table:
                        simplex_table[sk] = stratum
        for v, kind in analysis.markers:
            marker_keys.add((register(v), kind))

    ordered_keys = sorted(vertex_table)
    index_of = {k: i for i, k in enumerate(ordered_keys)}
    entries = [vertex_table[k] for k in ordered_keys]
    V = len(entries)
    n, m = problem.n, problem.m
    positions = np.array([v.x for v, _ in entries]).reshape(V, n)
    lam = np.full((V, m), np.nan)
    ksig = max(n - m + 1, 0)
    sigma = np.full((V, ksig), np.nan) if (order >= 2 and ksig > 0) else None
    for i, (v, sg) in enumerate(entries):
        if v.lam is not None:
            lam[i] = v.lam
        if sigma is not None and sg is not None:
            sigma[i] = sg
    u_values = problem.u_at(positions)
    markers = sorted((index_of[k], kind) for k, kind in marker_keys)
    return ParetoComplex(
        n=n,
        m=m,
        positions=positions,
        u_values=u_values,
        lam=lam,
        sigma=sigma,
        keys=ordered_keys,
        simplices=[[index_of[k] for k in sk] for sk in simplex_table],
        stratum=list(simplex_table.values()),
        markers=markers,
        problem_name=problem.name,
    )


def analyze(problem: VectorProblem, tess: Tessellation, order: int = 2, *,
            nodal: Optional[tuple] = None) -> ParetoComplex:
    """The pipeline in one call: :class:`Analyzer` set-up (``nodal`` as for
    it), the analyses of all candidate cells, and :func:`glue`."""
    an = Analyzer(problem, tess, order=order, nodal=nodal)
    return glue(an.run_cells(), problem, tess, order=an.order)
