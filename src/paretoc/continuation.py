"""The singular, critical and stable polytopes of every candidate cell, and
their gluing, in stage-wide array passes.

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

The face is the unit of work, and each stage is one array pass over all
candidate cells.  The table pass solves the distinct r-faces in one stacked
call and writes each accepted vertex once, as a row of a
:class:`VertexTable`: position, gradients, lambda and Hessian interpolation
are columns.  A cell's polytope is a set of :class:`Pieces`: a pair of rows
for a segment (m = 2), or a ring of rows padded to the widest polygon
(m = 3).  Each lambda_j clip, and the sigma clip, classifies every piece of
every cell at once and cuts only the pieces that straddle the level set, by
the one-plane rule of Sutherland and Hodgman ("Reentrant polygon clipping",
CACM 1974); the cuts are appended to the table as new rows.  sigma is one
stacked call over exactly the rows of the critical pieces, and :func:`glue`
registers the rows by key text and orders them with one sort.
"""


from __future__ import annotations

import functools
import itertools
import logging
from collections import Counter
from dataclasses import dataclass
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
# the vertex table and polytope pieces
# ---------------------------------------------------------------------------


@dataclass(slots=True, eq=False)
class SingularVertex:
    """One row of a :class:`VertexTable`, read out as an object.

    A face row carries its defining face and barycentric weights; a cut
    carries neither, and its lambda, gradients, Hessians and sigma are
    interpolated from its edge's ends.  ``lam`` is None on a rank collapse,
    and ``sigma`` where the second-order stage did not reach the row or the
    kernel dimension is ambiguous.  Across cells a vertex is ``key``, the
    text of its defining face, ``"('f', i, j)"`` with sorted node ids, or of
    its cut, ``"('c', stage, ka, kb)"`` with the endpoint keys in text
    order: glue merges and orders the vertices by it.
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


def _read_only(*arrays) -> None:
    for a in arrays:
        if a is not None:
            a.flags.writeable = False


class VertexTable:
    """The singular vertices of a run as read-only columns, one row each.

    The accepted faces come first, one row per face: faces whose vertices
    snap to one sub-face are distinct rows under one key.  Each clip appends
    its cuts (:meth:`cut`).  The columns are ``keys``, a list of key texts;
    ``x`` (V, n); ``grad`` (V, m, n), the interpolated gradient rows;
    ``lam`` (V, m), NaN rows on a rank collapse; ``residual`` and ``ok``,
    the lambda residual and the criticality flag, derived: residual <=
    EPS_RES x the largest gradient row norm; ``hess`` (V, m, n, n), None at
    first order; and ``sigma`` (V, n-m+1), None until the second-order
    stage sets it, NaN on the rows it did not reach and where the kernel
    dimension is ambiguous.  The face rows' sub-faces are the ``size`` node
    ids and weights of each row, row after row, in ``sub`` and ``weights``.
    """

    def __init__(self, keys, x, grad, lam, residual, hess, sub, weights, size):
        self.keys = keys
        self.x, self.grad, self.lam, self.hess = x, grad, lam, hess
        self.residual, self.sigma = residual, None
        self.ok = residual <= EPS_RES * np.linalg.norm(grad, axis=2).max(axis=1)
        self.sub, self.weights, self.size = sub, weights, size
        self.lo = np.cumsum(size) - size
        _read_only(x, grad, lam, residual, self.ok, hess, sub, weights, size, self.lo)

    def __len__(self) -> int:
        return len(self.keys)

    def vertex(self, i: int) -> SingularVertex:
        """Row i as an object; its arrays are views of the columns."""
        face = i < len(self.size)  # a cut has no face
        lo, k = (int(self.lo[i]), int(self.size[i])) if face else (0, 0)
        sigma = None if self.sigma is None else self.sigma[i]
        return SingularVertex(
            key=self.keys[i], x=self.x[i],
            face=tuple(self.sub[lo:lo + k].tolist()) if face else None,
            mu=self.weights[lo:lo + k] if face else None,
            grad_interp=self.grad[i],
            lam=None if np.isnan(self.lam[i, 0]) else self.lam[i],
            residual=float(self.residual[i]),
            hess_interp=None if self.hess is None else self.hess[i],
            sigma=None if sigma is None or np.isnan(sigma[0]) else sigma,
            critical_ok=bool(self.ok[i]),
        )

    def cut(self, a: np.ndarray, b: np.ndarray, t: np.ndarray, stage) -> np.ndarray:
        """Append the cuts of the edges a -> b at t from a; returns their rows.

        Each edge is put in key order first, with t flipped to 1 - t, so the
        cut of an edge has one key from either side.  Its floats are not
        canonical: t comes from the piece's direction, and two cells that cut
        a shared edge from opposite ends can round the cut apart (see
        :func:`glue`).  Each column is interpolated elementwise,
        ``u + t * (v - u)``, so a cut rounds as a one-edge interpolation
        does; a column that is missing (sigma before its stage) stays
        missing.  A cut's residual is 0 and its criticality flag True.
        """
        keys = self.keys
        if not len(a):
            return np.empty(0, dtype=np.intp)
        flip = np.array([keys[j] < keys[i] for i, j in zip(a.tolist(), b.tolist())],
                        dtype=bool)
        a, b = np.where(flip, b, a), np.where(flip, a, b)
        t = np.where(flip, 1.0 - t, t)

        def lerp(col):
            if col is None:
                return None
            u = col[a]
            out = np.concatenate([col, u + t.reshape((-1,) + (1,) * (u.ndim - 1)) * (col[b] - u)])
            out.flags.writeable = False
            return out

        rows = np.arange(len(keys), len(keys) + len(a))
        self.keys = keys + [f"('c', {stage!r}, {keys[i]}, {keys[j]})"
                            for i, j in zip(a.tolist(), b.tolist())]
        self.x, self.grad, self.lam, self.hess, self.sigma = map(
            lerp, (self.x, self.grad, self.lam, self.hess, self.sigma))
        self.residual = np.concatenate([self.residual, np.zeros(len(a))])
        self.ok = np.concatenate([self.ok, np.ones(len(a), dtype=bool)])
        _read_only(self.residual, self.ok)
        return rows


@dataclass
class Pieces:
    """Polytope pieces of many cells, as rows of a :class:`VertexTable`.

    A piece is a connected convex fragment of a cell's (m-1)-polytope: a
    segment (m = 2), the two rows of its ``ring`` row, or a planar polygon
    (m = 3), the rows of its ``ring`` row in cyclic order, padded with -1,
    so a piece's vertex count is its number of entries >= 0.  ``cell`` is
    each piece's cell, as a position among the run's candidate cells.
    """

    cell: np.ndarray   # (P,)
    ring: np.ndarray   # (P, K)

    def __len__(self) -> int:
        return len(self.cell)

    def slots(self) -> np.ndarray:
        """The (P, K) mask of the ring entries that hold a row."""
        return self.ring >= 0

    def take(self, idx, ring=None) -> "Pieces":
        return Pieces(self.cell[idx], (self.ring if ring is None else ring)[idx])

    @staticmethod
    def concat(parts: list) -> "Pieces":
        """The pieces of ``parts``, part after part, padded to the widest ring."""
        K = max([p.ring.shape[1] for p in parts] + [2])
        ring = np.concatenate([np.empty((0, K), dtype=np.intp)] + [
            np.pad(p.ring, ((0, 0), (0, K - p.ring.shape[1])), constant_values=-1)
            for p in parts])
        return Pieces(np.concatenate([np.empty(0, dtype=np.intp)] + [p.cell for p in parts]), ring)


def clip_polytope(table: VertexTable, pieces: Pieces, values: np.ndarray, stage) -> tuple:
    """Keep the part of every piece where a per-vertex scalar is >= 0, in one pass.

    ``values`` (P, K) holds the scalar at each entry of ``pieces.ring``.  A
    value at or below ``CLIP_SNAP_REL`` times the largest |value| of its
    piece counts as zero.  Only the pieces whose values straddle zero are
    cut: the cuts are appended to ``table``, keyed on ``stage`` and their
    edge's end keys (:meth:`VertexTable.cut`).  Returns ``(kept, dropped,
    boundary)``: the two sides as :class:`Pieces`, each piece's side in the
    order of the pieces, and the array of the rows on the level set.  A
    segment whose values are both zero is kept; a side of a polygon is a
    polygon when it has three vertices, so a polygon whose values are all
    zero lands on both sides.  Every input vertex lands in a kept or a
    dropped piece and every cut in both, which :func:`glue` relies on.
    """
    slots = pieces.slots()
    mag = np.where(slots, np.abs(values), 0.0)
    snap = CLIP_SNAP_REL * mag.max(axis=1, initial=0.0)
    s = np.where(slots & ~(mag <= snap[:, None]), values, 0.0)
    sides = _segment_sides if pieces.ring.shape[1] == 2 else _polygon_sides
    return sides(table, pieces, s, stage)


def _segment_sides(table, pieces, s, stage) -> tuple:
    a, b = pieces.ring.T
    sa, sb = s.T
    pos = (sa >= 0.0) & (sb >= 0.0)
    neg = ~pos & (sa <= 0.0) & (sb <= 0.0)
    cut = ~(pos | neg)
    c = np.flatnonzero(cut)
    w = np.full(len(a), -1)
    w[c] = table.cut(a[c], b[c], sa[c] / (sa[c] - sb[c]), stage)
    head, tail = np.stack([a, w], axis=1), np.stack([w, b], axis=1)
    up = (sa > 0.0)[:, None]
    kept = np.where(cut[:, None], np.where(up, head, tail), pieces.ring)
    dropped = np.where(cut[:, None], np.where(up, tail, head), pieces.ring)
    # an end at zero is on the level set when the other end is off it
    at_a = (sa == 0.0) & np.where(pos, sb > 0.0, neg & (sb < 0.0))
    at_b = (sb == 0.0) & np.where(pos, sa > 0.0, neg & (sa < 0.0))
    boundary = np.concatenate([a[at_a], b[at_b], w[c]])
    return pieces.take(pos | cut, kept), pieces.take(neg | cut, dropped), boundary


def _polygon_sides(table, pieces, s, stage) -> tuple:
    """Both sides of every polygon: walking each ring, an entry joins the
    sides its value allows and a cut joins both, after the entry that starts
    its edge."""
    ring, slots = pieces.ring, pieces.slots()
    P, K = ring.shape
    i = np.arange(K)
    k = slots.sum(axis=1)[:, None]
    nxt = np.where(i + 1 < k, i + 1, 0)
    s_next = np.take_along_axis(s, nxt, axis=1)
    s_prev = np.take_along_axis(s, np.where(i >= 1, i - 1, k - 1), axis=1)
    cross = slots & (s * s_next < 0.0)
    p, j = np.nonzero(cross)
    w = np.full((P, K), -1)
    w[p, j] = table.cut(ring[p, j], ring[p, nxt[p, j]], s[p, j] / (s[p, j] - s_next[p, j]),
                        stage)
    walk = np.stack([ring, w], axis=2).reshape(P, 2 * K)
    sides = []
    for side in (s >= 0.0, s <= 0.0):
        member = np.stack([slots & side, cross], axis=2).reshape(P, 2 * K)
        size = member.sum(axis=1)
        ok = size >= 3
        new = np.take_along_axis(walk[ok], np.argsort(~member[ok], axis=1, kind="stable"), axis=1)
        new = new[:, :max(size[ok].max(initial=0), 3)]
        new[np.arange(new.shape[1]) >= size[ok, None]] = -1
        sides.append(Pieces(pieces.cell[ok], new))
    # the level set passes exactly through an entry between a sign change
    at = slots & (s == 0.0) & (s_prev * s_next < 0.0)
    return sides[0], sides[1], np.concatenate([ring[at], w[p, j]])


def _rings(x: np.ndarray, rows: np.ndarray, count: np.ndarray) -> None:
    """Put the rows of each planar polygon (a row of ``rows`` with a count
    of three or more) in cyclic order, in place: by angle in its best-fit
    plane, with one SVD per group of polygons with the same vertex count."""
    for k in sorted(set(count[count >= 3].tolist())):
        idx = np.flatnonzero(count == k)
        X = x[rows[idx, :k]]  # (G, k, n)
        D = X - X.mean(axis=1, keepdims=True)
        _, _, vt = np.linalg.svd(D)
        uu = (D @ vt[:, 0, :, None])[..., 0]
        vv = (D @ vt[:, 1, :, None])[..., 0]
        rows[idx, :k] = np.take_along_axis(rows[idx, :k], np.argsort(np.arctan2(vv, uu), axis=1),
                                           axis=1)


# ---------------------------------------------------------------------------
# cell analysis
# ---------------------------------------------------------------------------


@dataclass
class CellAnalysis:
    """One candidate cell's record: its singular vertices (none when it has
    fewer than m) and its warnings."""

    cell_index: int
    singular_vertices: list
    warnings: list


class CellAnalyses:
    """The analyses of a run's candidate cells, as the stages leave them.

    Holds the cell table (``cells``, the candidate cells' indices, and each
    one's vertex ``rows``, padded with -1, whence its ``count``, and
    ``skipped`` rank-deficient faces), the vertex table, whose gradients'
    width is ``m``, each stratum's pieces (:meth:`pieces`) and the marker
    rows of each clip.  No reader depends on the order of the pieces within
    a stratum.  As a sequence it is one :class:`CellAnalysis` per candidate
    cell, in cell order, built on access.
    """

    def __init__(self, cells, table: VertexTable, rows, skipped):
        self.cells, self.table, self.m = cells, table, table.grad.shape[1]
        self.rows, self.count, self.skipped = rows, (rows >= 0).sum(axis=1), skipped
        self.strata = {s: [] for s in STRATA}   # stratum -> list of Pieces
        self.markers: list = []                 # (rows, kind), one per clip

    def pieces(self, stratum: str) -> Pieces:
        """The stratum's pieces, as one :class:`Pieces`."""
        return Pieces.concat(self.strata[stratum])

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def __getitem__(self, i: int) -> CellAnalysis:
        k = int(self.count[i])
        rows = self.rows[i, :k].tolist() if k >= self.m else []
        warnings = []
        if self.skipped[i]:
            warnings.append(f"{int(self.skipped[i])} rank-deficient face system(s) skipped")
        warnings += ["rank collapse at a singular vertex"] * int(
            np.isnan(self.table.lam[rows, 0]).sum())
        if self.m == 2 and k > 2:
            warnings.append(f"{k} singular vertices in one cell (non-transversal crossing)")
        return CellAnalysis(int(self.cells[i]), [self.table.vertex(r) for r in rows], warnings)


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
    size = int(np.prod(a.shape[2:]))
    return (w[:, None, :] @ a.reshape(F, k, size)).reshape((F,) + a.shape[2:])


def _face_vertices(omega_nodes: np.ndarray, faces: np.ndarray, points: np.ndarray,
                   jac_nodes: np.ndarray, hess_at=None) -> tuple:
    """Solve the distinct faces (F, r+1) at once; one singular vertex per face.

    Returns ``(table, row, singular)``: the :class:`VertexTable` of the
    accepted faces, in face order, each face's row in it (-1 where the face
    holds no vertex), and the mask of the faces whose barycentric system is
    rank deficient.  A face is accepted when its weights are all above
    ``EPS_ACCEPT``.  Weights at or below ``MU_SNAP`` become zeros and the
    rest are renormalized, so a vertex sitting on a sub-face gets the
    sub-face key (and the sub-face weights) and adjacent cells merge it
    exactly once.  Each vertex is built once and complete but for sigma:
    position, gradients and, with ``hess_at`` (evaluated once at the
    sub-faces' nodes), the Hessians are interpolated in one pass over the
    accepted faces; lambda is one stacked solve.
    """
    mu, singular = solve_faces(omega_nodes, faces)
    accepted = np.all(mu > EPS_ACCEPT, axis=1)  # NaN rows fail
    row = np.where(accepted, np.cumsum(accepted) - 1, -1)
    faces, keep = faces[accepted], mu[accepted] > MU_SNAP
    w = np.where(keep, mu[accepted], 0.0)
    w /= w.sum(axis=1, keepdims=True)
    x = _interpolate(w, points[faces])
    grad = _interpolate(w, jac_nodes[faces])
    lam, residual = solve_lambdas(grad)
    sub, size = faces[keep], keep.sum(axis=1)  # the sub-faces, row after row
    hess = None
    if hess_at is not None:
        # one evaluation over the distinct sub-face nodes (found with a mask:
        # np.unique imports numpy.ma on first use); a zero weight's node
        # reads row 0
        used = np.zeros(len(points), dtype=bool)
        used[sub] = True
        nodes = np.flatnonzero(used)
        at = np.zeros(len(points), dtype=np.intp)
        at[nodes] = np.arange(len(nodes))
        hess = (_interpolate(w, hess_at(points[nodes])[at[faces]]) if len(nodes)
                else np.empty(grad.shape + grad.shape[-1:]))
    flat = sub.tolist()
    keys = [repr(("f", *flat[lo:lo + k])) for lo, k in zip((np.cumsum(size) - size).tolist(),
                                                          size.tolist())]
    table = VertexTable(keys, x, grad, lam, residual, hess, sub, w[keep], size)
    return table, row, singular


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
    ``order`` is 1 (no sigma) or 2; any other value raises ``ValueError``.

    :meth:`run_cells` runs three stages over all candidate cells, each one
    array pass that hands :class:`CellAnalyses` on.  (1) The table pass:
    the distinct r-faces of all cells go through one stacked barycentric
    solve, each accepted vertex becomes one row of the vertex table with
    its lambda and analytic Hessian interpolation, and each cell lists its
    rows, one per key, for m = 3 in ring order.  (2) The first-order stage:
    every cell's polytope becomes pieces, and all of them are clipped by
    lambda_j, one pass per j.  (3) The second-order stage: one stacked
    sigma call over the rows of every cell's critical pieces, each once,
    and one sigma clip of all critical pieces.  The two clip stages keep
    the per-cell names :meth:`analyze_cell_first_order` and
    :meth:`analyze_cell_second_order`, which the benchmark's tracer wraps.

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
        if isinstance(order, bool) or order not in (1, 2):
            raise ValueError(f"order is {order!r}, not 1 or 2")
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
        # a running min and max over the cells' node columns: exact, NaN
        # propagating, and cheaper than reductions over a (C, n+1, r) gather
        cells = self.tess.cells
        lo = hi = self.omega_nodes[cells[:, 0]]
        for j in range(1, cells.shape[1]):
            om = self.omega_nodes[cells[:, j]]
            lo, hi = np.minimum(lo, om), np.maximum(hi, om)
        mask = np.all((lo <= 0.0) & (hi >= 0.0), axis=1)
        return np.nonzero(mask)[0]

    # -- the table pass ----------------------------------------------------------

    def _cell_table(self, cells: Sequence[int]) -> CellAnalyses:
        """The cell table of ``cells``, as :class:`CellAnalyses` with no
        pieces yet, built in stacked passes.

        A cell's r-faces are the rows of ``cells[:, combos]``, ascending as
        the cell rows are; one lexsort finds the distinct faces and each
        cell-face's row among them.  The stacked face solve on the distinct
        faces builds the vertex ``table`` (:func:`_face_vertices`).  Row c of
        ``rows`` lists cell c's vertex rows, then -1: its faces' vertices in
        face order, the first face with a key winning; for m = 3 a cell with
        three vertices or more lists them in ring order.  ``skipped`` counts
        each cell's rank-deficient faces.
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
        table, face_row, singular = _face_vertices(
            self.omega_nodes, ordered[new], self.tess.nodes, self.jac_nodes,
            self.problem.hess_at if self.order >= 2 else None)
        R = face_row[at]
        ids: dict[str, int] = {}
        key = np.array([ids.setdefault(k, len(ids)) for k in table.keys] + [-1])[R]
        first = R >= 0
        for j in range(1, R.shape[1]):
            first[:, j] &= np.all(key[:, :j] != key[:, j:j + 1], axis=1)
        count = first.sum(axis=1)
        rows = np.take_along_axis(R, np.argsort(~first, axis=1, kind="stable"), axis=1)
        rows[np.arange(rows.shape[1]) >= count[:, None]] = -1
        if self.problem.m == 3:
            _rings(table.x, rows, count)
        return CellAnalyses(cells, table, rows, singular[at].sum(axis=1))

    # -- the clip stages -----------------------------------------------------------

    def analyze_cell_first_order(self, analyses: CellAnalyses) -> CellAnalyses:
        """Assemble the polytopes of all cells from the cell table of
        ``analyses`` and clip them by lambda, one pass per lambda_j; the
        critical pieces are labelled unstable."""
        table = analyses.table
        pieces = self._assemble_pieces(analyses)
        # validity stage: pieces touching a vertex without usable weights stay
        # singular-only as a whole (measure-zero configurations, logged)
        valid = np.all(table.ok[pieces.ring] | ~pieces.slots(), axis=1)  # False on a rank collapse
        analyses.strata[STRATUM_SINGULAR].append(pieces.take(~valid))
        if not valid.all():
            logger.debug("%d pieces dropped at validity stage", np.count_nonzero(~valid))
        current = pieces.take(valid)
        for j in range(self.problem.m):
            if not len(current):
                break
            current, dropped, boundary = clip_polytope(
                table, current, table.lam[current.ring, j], ("lam", j))
            analyses.strata[STRATUM_SINGULAR].append(dropped)
            analyses.markers.append((boundary, MARKER_BOUNDARY))
        # first-order output: critical pieces are labelled unstable until the
        # second-order clip upgrades the surviving part
        analyses.strata[STRATUM_UNSTABLE].append(current)
        return analyses

    def analyze_cell_second_order(self, analyses: CellAnalyses) -> CellAnalyses:
        """Set sigma on the rows of the critical pieces of all cells, each
        row once, in one stacked call, and clip the pieces by -max sigma in
        one pass.  Where the kernel dimension is ambiguous (logged) a row's
        sigma is NaN and it counts as unstable: its value is -10 times the
        largest of 1 and the |sigma| on its cell's critical pieces."""
        theta = analyses.pieces(STRATUM_UNSTABLE)
        if not len(theta):
            return analyses
        table = analyses.table
        used = np.zeros(len(table), dtype=bool)
        used[theta.ring[theta.slots()]] = True
        rows = np.flatnonzero(used)
        sigma, fail = generalized_hessians(table.grad[rows], table.lam[rows], table.hess[rows])
        logger.debug("kernel dimension ambiguous at %d of %d vertices; treated as "
                     "unstable", np.count_nonzero(fail), len(rows))
        table.sigma = np.full((len(table), sigma.shape[1]), np.nan)
        table.sigma[rows[~fail]] = sigma[~fail]
        _read_only(table.sigma)
        top = table.sigma.max(axis=1)
        mag = np.abs(table.sigma).max(axis=1)
        known = ~np.isnan(top)
        use = theta.slots() & known[theta.ring]
        scale = np.ones(len(analyses))
        np.maximum.at(scale, np.broadcast_to(theta.cell[:, None], use.shape)[use],
                      mag[theta.ring][use])
        values = np.where(known[theta.ring], -top[theta.ring], -10.0 * scale[theta.cell, None])
        stable, unstable, boundary = clip_polytope(table, theta, values, ("sig", 0))
        analyses.strata[STRATUM_STABLE] = [stable]
        analyses.strata[STRATUM_UNSTABLE] = [unstable]
        analyses.markers.append((boundary, MARKER_CUSP))
        return analyses

    def _assemble_pieces(self, analyses: CellAnalyses) -> Pieces:
        """Every cell's polytope as pieces: for m = 3 the ring of a cell
        with three vertices or more, for m = 2 the segment of a cell with
        two; a cell with more (a non-transversal crossing) gets a path
        through them, in order along their principal axis."""
        rows, count = analyses.rows, analyses.count
        if self.problem.m == 3:
            c = np.flatnonzero(count >= 3)
            return Pieces(c, rows[c])
        c = np.flatnonzero(count == 2)
        parts = [Pieces(c, rows[c, :2])]
        for ci in np.flatnonzero(count > 2).tolist():
            logger.warning("cell %d: %d singular vertices; building a path through them",
                           analyses.cells[ci], count[ci])
            verts = rows[ci, :count[ci]]
            X = analyses.table.x[verts]
            _, _, vt = np.linalg.svd(X - X.mean(axis=0))
            chain = verts[np.argsort(X @ vt[0])]
            parts.append(Pieces(np.full(len(chain) - 1, ci),
                                np.stack([chain[:-1], chain[1:]], axis=1)))
        return Pieces.concat(parts)

    # -- full run ----------------------------------------------------------------

    def run_cells(self) -> CellAnalyses:
        """The analyses of all candidate cells: the table pass, the
        first-order stage and, at order 2, the second-order stage, each one
        pass over all cells (see :class:`Analyzer`)."""
        analyses = self.analyze_cell_first_order(self._cell_table(self.candidate_cells()))
        return self.analyze_cell_second_order(analyses) if self.order >= 2 else analyses


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


class ParetoComplex:
    """Glued global output: labelled (m-1)-complex with marker points.

    It holds what its file holds: a vertex is its row in ``positions``,
    ``u_values`` (V, m) and ``lam``, with no key; ``n`` and ``m`` are the
    widths of ``positions`` (V, n) and ``u_values``.  ``sigma`` is None
    when no vertex has a sigma, else (V, k) with NaN rows where a vertex
    has none.  ``simplices`` is one read-only
    ``np.intp`` array of shape (S, m), the vertex ids of a simplex per row:
    each row ascending, the rows in lexicographic order.  ``stratum`` is
    the tuple of the rows' stratum names, row for row.  Identical rows,
    which only a hand-edited file holds, are ordered by their stratum names.
    """

    def __init__(self, positions, u_values, lam, sigma,
                 simplices, stratum, markers, problem_name=""):
        self.n, self.m = positions.shape[1], u_values.shape[1]
        self.positions = positions      # (V, n)
        self.u_values = u_values        # (V, m)
        self.lam = lam                  # (V, m), NaN where unknown
        self.sigma = sigma              # (V, k) or None, NaN where unknown
        rows = np.asarray(simplices, dtype=np.intp)
        rows = np.sort(rows.reshape(len(rows), -1 if rows.size else self.m), axis=1)
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


def glue(analyses: CellAnalyses, problem: VectorProblem, tess: Tessellation) -> ParetoComplex:
    """Merge the pieces of all cells into one complex, keyed on vertex keys.

    The vertices are the distinct keys of the rows that a piece lists (a
    marker's row is on a piece of its cell), numbered in key-text order by
    one sort.  Rows that share a key merge exactly, but their data need not
    be identical: faces that snap to one sub-face are distinct rows, and a
    cut is made by each cell that lists it, along its own ring, so two cells
    can cut a shared edge from opposite ends and round the cut apart in the
    last bits.  The rule is that the lowest cell wins: a vertex's data are
    those of its row in the lowest cell that lists its key (within a cell a
    key names one row), and its sigma only if it lies on a critical piece
    there (the complex's sigma is None if no vertex has one).  A segment
    piece is a simplex, and a polygon is fanned from its lowest key; a
    simplex listed twice keeps the stratum of its lowest cell, and within
    that cell the first stratum of ``STRATA`` that lists it.  So the output
    depends on neither the order of the pieces within a stratum nor where
    a ring starts or which way it runs.
    """
    table = analyses.table
    n, m = problem.n, problem.m
    parts = [analyses.pieces(s) for s in STRATA]
    # every listing of a row and its cell; those after the singular-only
    # stratum's are on critical pieces
    rows = np.concatenate([p.ring[p.slots()] for p in parts])
    cells = np.concatenate([p.cell[np.nonzero(p.slots())[0]] for p in parts])
    critical = np.arange(len(rows)) >= np.count_nonzero(parts[0].slots())

    used = np.zeros(len(table), dtype=bool)
    used[rows] = True
    used = np.flatnonzero(used).tolist()
    keys = table.keys
    ordered_keys = sorted({keys[r] for r in used})
    index_of = {k: i for i, k in enumerate(ordered_keys)}
    vid = np.zeros(len(table), dtype=np.intp)
    vid[used] = [index_of[keys[r]] for r in used]
    V = len(ordered_keys)
    # each vertex's lowest cell, and its row and criticality there
    ids = vid[rows]
    first = np.full(V, len(analyses), dtype=np.intp)
    np.minimum.at(first, ids, cells)
    there = cells == first[ids]
    src = np.zeros(V, dtype=np.intp)
    src[ids[there]] = rows[there]
    on_critical = np.zeros(V, dtype=bool)
    on_critical[ids[there & critical]] = True

    positions = table.x[src].reshape(V, n)
    sigma = None if table.sigma is None else np.where(on_critical[:, None], table.sigma[src],
                                                      np.nan)
    if sigma is not None and np.isnan(sigma).any(axis=1).all():
        sigma = None

    # the simplices of every piece, and the cell and stratum that list each
    simplices, listing = [np.empty((0, m), dtype=np.intp)], [np.empty((2, 0), dtype=np.intp)]
    for rank, p in enumerate(parts):
        ids = np.where(p.slots(), vid[p.ring], V)
        if m == 2:
            cell, simplex = p.cell, ids
        else:
            K, k = ids.shape[1], (ids < V).sum(axis=1)[:, None]
            cyc = np.take_along_axis(ids, (ids.argmin(axis=1)[:, None] + np.arange(K)) % k, axis=1)
            piece, fan = np.nonzero(np.arange(1, K - 1) < k - 1)
            cell = p.cell[piece]
            simplex = np.stack([cyc[piece, 0], cyc[piece, fan + 1], cyc[piece, fan + 2]], axis=1)
        simplices.append(simplex)
        listing.append(np.stack([cell, np.full(len(cell), rank)]))
    listing = np.concatenate(listing, axis=1)
    simplices = np.sort(np.concatenate(simplices), axis=1)
    # by vertex ids, then by cell and stratum: a simplex's lowest listing leads
    by = np.lexsort(np.vstack([listing[::-1], simplices.T[::-1]]))
    simplices, rank = simplices[by], listing[1][by]
    new = np.ones(len(simplices), dtype=bool)
    new[1:] = np.any(simplices[1:] != simplices[:-1], axis=1)

    markers = sorted({(v, kind) for r, kind in analyses.markers for v in vid[r].tolist()})
    return ParetoComplex(
        positions=positions,
        u_values=problem.u_at(positions),
        lam=table.lam[src],
        sigma=sigma,
        simplices=simplices[new],
        stratum=[STRATA[s] for s in rank[new].tolist()],
        markers=markers,
        problem_name=problem.name,
    )


def analyze(problem: VectorProblem, tess: Tessellation, order: int = 2, *,
            nodal: Optional[tuple] = None) -> ParetoComplex:
    """The pipeline in one call: :class:`Analyzer` set-up (``nodal`` as for
    it), the analyses of all candidate cells, and :func:`glue`."""
    an = Analyzer(problem, tess, order=order, nodal=nodal)
    return glue(an.run_cells(), problem, tess)
