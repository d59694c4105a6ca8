"""n-dimensional Delaunay tessellations with incremental insertion.

The tessellation is built by an incremental Bowyer-Watson scheme bootstrapped
with a single symbolic vertex "at infinity": alongside the finite n-simplices
the builder keeps one infinite cell per convex-hull facet, so the padded
complex is a closed combinatorial manifold and points outside the current hull
insert exactly like interior ones.  Both builders run one insertion loop on a
padded complex made from the whole node array and some finite cells:
``build_delaunay`` starts from a seed simplex, ``insert_nodes`` from the
tessellation it grows.  A node is read only once it is inserted.  The complex
a builder grew stays with the tessellation it returns, so a chain of
``insert_nodes`` calls extends one complex and each call costs its insertions
only.

Degenerate (cospherical / collinear) configurations are decided on the given
coordinates, with exact ties broken symbolically on the node ids (below).  The
rule depends on the ids, not on the order of insertion, so the complex is a
function of the ids and the coordinates, and bulk construction is free to
insert along a space-filling curve.

The orientation and in-sphere predicates take node ids and return exact signs
for the given coordinates, which are kept per axis, as lists of Python
floats.  In 2-D and 3-D each is a closed-form expansion, filtered twice.
First a semi-static bound (Devillers and Pion 2003, "Efficient exact geometric
predicates for Delaunay triangulations"): the static forward error bound of
Shewchuk 1997, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
Geometric Predicates", times the permanent of the expansion's terms, with
each coordinate difference replaced by its axis extent over the nodes.  A
difference of two nodes' coordinates rounds to at most its axis's rounded
extent, and rounding is monotone, so the bound is at least each test's own;
it is recomputed when ``insert_nodes`` appends a batch.  A sign it accepts is
thus the one the dynamic filter gives: the same bound on the test's own
permanent, (3+16e)e for orient2d, (7+56e)e for orient3d, (10+96e)e for
incircle and (16+224e)e for insphere, with e = 2^-53.  In other dimensions the
filter is Gaussian elimination in floats, accepted when the determinant
clears the elimination's backward error bound.  Inside a bound an exact
``fractions.Fraction`` determinant of the same doubles gives the sign.

An exact in-sphere zero is broken as in Devillers and Teillaud 2011,
"Perturbations for Delaunay and weighted Delaunay 3D triangulations": the
lifted coordinate of node k is raised by eps^rank(k), a larger id by more, and
the sign is that of the first nonzero coefficient of the perturbed
determinant, over the cell's nodes and the query point in decreasing id order
(see _symbolic_insphere).  The complex is thus the Delaunay triangulation of
the given points with the ties decided by the ids.  A point exactly on a hull
facet's plane is in conflict with the facet's infinite cell exactly when it is
in conflict with the facet's finite cell, whose circumsphere meets that plane
in the facet's circumsphere; so no insertion makes a flat cell.  That
finite cell's verdict joins the insertion's record, so neither the walk nor
the cavity search tests the cell again.

Point location uses the same signs.  A visibility walk starts at the last cell
made and steps through a facet that separates the current cell from the new
point, until it reaches a cell in conflict with the point; that cell seeds the
cavity, whose search does not test again the cells the walk found not in
conflict.  In a Delaunay complex the walk visits no cell twice (Edelsbrunner
1990, the acyclicity theorem; Devillers, Pion and Teillaud 2002, "Walking in a
triangulation"), so it ends within as many steps as there are cells.  Only a
flat cell can stop it short, and it then raises ``DegenerateInput``.

The padded complex keeps each cell as a list of node ids and, beside it, a
list of its neighbours: ``nbrs[cid][j]`` is the cell across the facet opposite
slot j.  Every finite cell is stored positively oriented (orient of its ids in
slot order is +1).  An infinite cell keeps INF in slot 0, and its facet is
ordered so that INF stands for a point beyond the hull: put a point strictly
outside the facet in slot 0 and the cell is positive.  So the padded complex
is consistently oriented, and a new cell, which is a conflict cell with the
vertex of one slot replaced by the new point, needs no sort and keeps its
orientation.  On the line the two infinite cells have one finite vertex each
and cannot be reordered, so the one at the right end is stored negative; its
conflict sign is flipped, and the finite cell made from it has its two slots
swapped.  The new cells' other slots are glued through a dict of the ridges
they share, local to one insertion.

:class:`Tessellation` is the one mesh type of the package: the builders here
return one, and a mesh of a manifold (see :mod:`paretoc.constrained`) is one
whose cells have fewer than n+1 nodes.  It is an immutable snapshot: its
nodes are one read-only (N, n) array of finite floats, and its cells one
read-only index array, each row a cell's node ids in ascending order and the
rows in lexicographic order.  Insertion returns a new snapshot and never
changes its input's nodes or cells.
"""

from __future__ import annotations

import itertools
import logging
import numbers
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateInput, DimensionTooLow, DuplicateNode

logger = logging.getLogger(__name__)

INF = -1  # symbolic vertex at infinity
# the verdict of a finite cell that a hull-plane test found in conflict and
# the cavity search has not reached: it enters the cavity when reached
_DECIDED = object()

EPS_GEOM_REL = 1e-12    # node coincidence and seed-simplex scale, x bbox diagonal


def _points(points, what: str = "node") -> np.ndarray:
    """A read-only copy of ``points`` as an (N, n) float array, n >= 1, of
    finite coordinates; ``what`` names a row in the error."""
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] < 1:
        raise ValueError("points must be an (N, n) array with n >= 1")
    bad = ~np.isfinite(pts).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{what} {i} has a non-finite coordinate: {tuple(pts[i].tolist())}")
    pts.setflags(write=False)
    return pts


def bbox_diagonal(points: np.ndarray) -> float:
    """Length of the diagonal of the bounding box of (N, n) points; 0 if N = 0."""
    if len(points) == 0:
        return 0.0
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


class Tessellation:
    """A simplicial mesh: a Delaunay tessellation of R^n, or a mesh of
    d-simplices embedded in R^n (a manifold mesh, k = d+1).

    ``nodes`` is a read-only (N, n) float array; node ids are its row
    indices.  ``cells`` is one read-only ``np.intp`` array of shape (C, k),
    the node ids of a cell per row: each row ascending, the rows in
    lexicographic order.  So the representation is a function of the node
    ids and coordinates: exact ties are broken on the ids (see the module
    docstring).  The constructor copies the nodes, which must be finite, and
    checks the cells before it sorts them: each row must name k distinct
    integer ids in 0..N-1.
    """

    def __init__(self, nodes, cells):
        self.nodes = _points(nodes)
        N = len(self.nodes)
        ids = np.asarray(cells)
        if ids.ndim != 2 or ids.shape[1] < 1:
            raise ValueError(f"cells must be a (C, k) array of node ids, not shape {ids.shape}")
        if ids.size and ids.dtype.kind not in "iu":
            # converted, 2.9 would be truncated to 2, True read as 1, and NaN
            # raise numpy's own error
            frac = np.any(ids != np.trunc(ids), axis=1) if ids.dtype.kind == "f" else [False]
            if not np.any(frac):
                try:  # a Python int beyond int64 makes the array float or object
                    np.asarray(cells, dtype=np.intp)
                except OverflowError:
                    raise ValueError(f"a cell names a node id outside 0..{N - 1}") from None
            cell = tuple(ids[np.argmax(frac)].tolist())
            raise ValueError(f"cell {cell} does not hold integer node ids")
        cells = np.sort(ids.astype(np.intp, copy=False), axis=1)
        bad = ((cells[:, 0] < 0) | (cells[:, -1] >= N)
               | np.any(cells[:, 1:] == cells[:, :-1], axis=1))
        if bad.any():
            cell = tuple(cells[np.argmax(bad)].tolist())
            k = cells.shape[1]
            raise ValueError(f"cell {cell} is not a {k - 1}-simplex on nodes 0..{N - 1}")
        self.cells = cells[np.lexsort(cells.T[::-1])]
        self.cells.flags.writeable = False
        self._padded = None   # the Bowyer-Watson complex of a builder, see insert_nodes

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def min_incident_edge(self) -> np.ndarray:
        """Per node, the length of the shortest incident edge."""
        out = np.full(len(self.nodes), np.inf)
        i, j = np.triu_indices(self.cells.shape[1], 1)
        a, b = self.cells[:, i].ravel(), self.cells[:, j].ravel()
        D = self.nodes[a] - self.nodes[b]
        # sqrt of a stack of (1, n) @ (n, 1) products rounds as the per-edge
        # np.linalg.norm; norm(D, axis=1) and einsum do not
        d = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
        np.minimum.at(out, a, d)
        np.minimum.at(out, b, d)
        return out


# ---------------------------------------------------------------------------
# orientation and in-sphere predicates
# ---------------------------------------------------------------------------

# Static forward error bounds of Shewchuk 1997, "Adaptive Precision
# Floating-Point Arithmetic and Fast Robust Geometric Predicates" (errboundA of
# orient2d, orient3d, incircle and insphere), relative to the permanent of the
# expansion's terms.  _EPS is the unit roundoff of IEEE doubles.  As in
# Shewchuk's predicates, the bounds assume no intermediate underflow or
# overflow.
_EPS = 2.0 ** -53
_ORIENT2_BOUND = (3.0 + 16.0 * _EPS) * _EPS
_ORIENT3_BOUND = (7.0 + 56.0 * _EPS) * _EPS
_INCIRCLE_BOUND = (10.0 + 96.0 * _EPS) * _EPS
_INSPHERE_BOUND = (16.0 + 224.0 * _EPS) * _EPS
_ELIM_BOUND = 8.0 * _EPS    # times m^2, see _elimination_sign


def _decide(det: float, bound: float):
    """Sign of det when |det| exceeds the error bound, else None."""
    if det > bound:
        return 1
    if -det > bound:
        return -1
    return None


def _elimination_sign(a: list):
    """Sign of det(a) by Gaussian elimination with partial pivoting in floats,
    or None when the error bound cannot exclude zero.

    The rows of ``a`` are consumed.  The computed factors satisfy
    L U = P(a + E) with |E| <= gamma_m |L||U| (Higham 2002, "Accuracy and
    Stability of Numerical Algorithms", Theorem 9.3), and rounding the
    predicate's differences and squared norms into ``a`` adds at most
    gamma_(m+2) (1 + gamma_m) |L||U|.  By Hadamard's inequality det(U) is
    then within (2m^2 + 2m) u prod_i t_i of the exact determinant, to first
    order, where t_i is the 1-norm of row i of |L||U| and u the unit
    roundoff; _ELIM_BOUND m^2 covers that twice over.
    """
    m = len(a)
    rows = a
    acc = [0.0] * m    # per remaining row: sum of |l_ik| |u_k|_1 so far
    det = 1.0
    norms = 1.0
    sign = 1
    while rows:
        col = [abs(r[0]) for r in rows]
        p = col.index(max(col))
        if p % 2:
            sign = -sign   # moving row p to the front takes p swaps
        u = rows.pop(p)
        pivot = u[0]
        if pivot == 0.0:
            return None
        u_norm = sum(map(abs, u))
        norms *= acc.pop(p) + u_norm
        det *= pivot
        tail = u[1:]
        for i, r in enumerate(rows):
            f = r[0] / pivot
            acc[i] += abs(f) * u_norm
            rows[i] = [x - f * y for x, y in zip(r[1:], tail)]
    s = _decide(det, _ELIM_BOUND * m * m * norms)
    return s and sign * s


def _orient_matrix(q, num) -> list:
    """Rows q1 - q0, ..., qn - q0, in the number type ``num``."""
    q = [[num(x) for x in r] for r in q]
    return [[x - y for x, y in zip(r, q[0])] for r in q[1:]]


def _insphere_matrix(q, p, num) -> list:
    """Rows [qi - p, |qi - p|^2], in the number type ``num``."""
    p = [num(x) for x in p]
    rows = []
    for r in q:
        d = [num(x) - y for x, y in zip(r, p)]
        rows.append(d + [sum(x * x for x in d)])
    return rows


def _det_sign(rows: list) -> int:
    """Sign of the determinant of a square matrix of Fractions, by exact
    Gaussian elimination.  The rows are consumed."""
    m = rows
    sign = 1
    for k in range(len(m)):
        piv = next((i for i in range(k, len(m)) if m[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        pivot = m[k][k]
        if pivot < 0:
            sign = -sign
        for i in range(k + 1, len(m)):
            f = m[i][k] / pivot
            if f:
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return sign


def _symbolic_insphere(q, p, ids) -> int:
    """Sign of Predicates.insphere(q, p) at an exact zero, with the lifted
    coordinate of node k raised by eps^rank(k), a larger id by more.

    ``ids`` are those of q's points, then p's.  Node k's coefficient is the
    determinant of the rows qi - p with the lifted column replaced by the unit
    vector of k, or by all -1 for p; p's is +-det[q1 - q0, ...], so only a
    flat cell gives 0.
    """
    p = [Fraction(x) for x in p]
    d = [[Fraction(x) - y for x, y in zip(r, p)] for r in q]
    m = len(d)
    for k in sorted(range(m + 1), key=ids.__getitem__, reverse=True):
        col = [-1] * m if k == m else [int(i == k) for i in range(m)]
        s = _det_sign([r + [c] for r, c in zip(d, col)])
        if s:
            return s
    return 0


class Predicates:
    """Exact orientation and in-sphere signs on node ids.

    The nodes' coordinates are kept per axis, as lists of Python floats that
    node ids index; ``extend`` appends rows.  ``orient_ids(q)`` is the sign
    of det[q1 - q0, ..., qn - q0] over n+1 ids, ``insphere_ids(q, p)`` that
    of the lifted det[qi - p, |qi - p|^2].  Both are the exact signs for the
    given doubles: a float filter decides first (here Gaussian elimination;
    in 2-D and 3-D the closed forms of ``_predicates``), and inside its
    bound an exact rational determinant of the same doubles.  ``exact``
    counts the signs the exact path gave, and ``misses`` the tests that no
    semi-static bound decided (every test of the elimination filter).

    ``orient(q)`` and ``insphere(q, p)`` give the same signs, by the same
    filters, on points given as coordinates and taken as the only nodes.
    """

    def __init__(self, n: int, rows=()):
        self.n = n
        self.axes: list[list] = [[] for _ in range(n)]
        self.exact = 0
        self.misses = 0
        self.extend(rows)

    def extend(self, rows) -> None:
        """Append nodes, one row of n floats each, and recompute the
        semi-static bounds."""
        for axis, column in zip(self.axes, zip(*rows)):
            axis.extend(column)
        if self.axes[0]:
            self._bound()

    def _bound(self) -> None:
        """No semi-static bound outside 2-D and 3-D."""

    def _extents(self) -> list:
        return [max(axis) - min(axis) for axis in self.axes]

    def points(self, ids) -> list:
        axes = self.axes
        return [[axis[i] for axis in axes] for i in ids]

    def orient_ids(self, q) -> int:
        self.misses += 1
        return (_elimination_sign(_orient_matrix(self.points(q), float))
                or self._exact_orient(q))

    def insphere_ids(self, q, p: int) -> int:
        self.misses += 1
        *rows, p_row = self.points([*q, p])
        return (_elimination_sign(_insphere_matrix(rows, p_row, float))
                or self._exact_insphere(q, p))

    def _exact_orient(self, q) -> int:
        self.exact += 1
        return _det_sign(_orient_matrix(self.points(q), Fraction))

    def _exact_insphere(self, q, p: int) -> int:
        self.exact += 1
        *rows, p_row = self.points([*q, p])
        return _det_sign(_insphere_matrix(rows, p_row, Fraction))

    def orient(self, q: Sequence[Sequence[float]]) -> int:
        alone = _predicates(self.n, q)
        s = alone.orient_ids(range(len(q)))
        self.exact += alone.exact
        return s

    def insphere(self, q: Sequence[Sequence[float]], p: Sequence[float]) -> int:
        alone = _predicates(self.n, [*q, p])
        s = alone.insphere_ids(range(len(q)), len(q))
        self.exact += alone.exact
        return s


class _Planar(Predicates):
    """The 2-D closed forms, filtered first by the semi-static bounds of the
    module docstring, ``orient_bound`` and ``insphere_bound``, then by
    Shewchuk's dynamic ones.  The determinant is the same float expression
    on either path."""

    def _bound(self) -> None:
        X, Y = self._extents()
        T = X * Y + X * Y        # bounds |bdx cdy| + |cdx bdy| and the like
        L = X * X + Y * Y        # bounds a lift
        self.orient_bound = _ORIENT2_BOUND * T
        self.insphere_bound = _INCIRCLE_BOUND * (T * L + T * L + T * L)

    def orient_ids(self, q) -> int:
        """det[b - a, c - a] over q = (a, b, c): Shewchuk's orient2d(a, b, c)."""
        a, b, c = q
        X, Y = self.axes
        cx, cy = X[c], Y[c]
        left = (X[a] - cx) * (Y[b] - cy)
        right = (Y[a] - cy) * (X[b] - cx)
        det = left - right
        bound = self.orient_bound
        if det > bound:
            return 1
        if -det > bound:
            return -1
        self.misses += 1
        return (_decide(det, _ORIENT2_BOUND * (abs(left) + abs(right)))
                or self._exact_orient(q))

    def insphere_ids(self, q, p: int) -> int:
        """The lifted det[r - p, |r - p|^2] over r in q = (a, b, c):
        Shewchuk's incircle(a, b, c, p)."""
        a, b, c = q
        X, Y = self.axes
        px, py = X[p], Y[p]
        adx, bdx, cdx = X[a] - px, X[b] - px, X[c] - px
        ady, bdy, cdy = Y[a] - py, Y[b] - py, Y[c] - py
        bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
        cdxady, adxcdy = cdx * ady, adx * cdy
        adxbdy, bdxady = adx * bdy, bdx * ady
        alift = adx * adx + ady * ady
        blift = bdx * bdx + bdy * bdy
        clift = cdx * cdx + cdy * cdy
        det = (alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy)
               + clift * (adxbdy - bdxady))
        bound = self.insphere_bound
        if det > bound:
            return 1
        if -det > bound:
            return -1
        self.misses += 1
        permanent = ((abs(bdxcdy) + abs(cdxbdy)) * alift
                     + (abs(cdxady) + abs(adxcdy)) * blift
                     + (abs(adxbdy) + abs(bdxady)) * clift)
        return (_decide(det, _INCIRCLE_BOUND * permanent)
                or self._exact_insphere(q, p))


class _Spatial(Predicates):
    """The 3-D closed forms, filtered as in ``_Planar``."""

    def _bound(self) -> None:
        X, Y, Z = self._extents()
        T = X * Y + X * Y
        U = T * Z + T * Z + T * Z   # bounds a 2x2 minor's terms times a z
        L = X * X + Y * Y + Z * Z
        self.orient_bound = _ORIENT3_BOUND * U
        self.insphere_bound = _INSPHERE_BOUND * (U * L + U * L + U * L + U * L)

    def orient_ids(self, q) -> int:
        """det[b - a, c - a, d - a] over q = (a, b, c, d), which is minus
        Shewchuk's orient3d(a, b, c, d) = det[a - d, b - d, c - d]."""
        a, b, c, d = q
        X, Y, Z = self.axes
        dx, dy, dz = X[d], Y[d], Z[d]
        adx, bdx, cdx = X[a] - dx, X[b] - dx, X[c] - dx
        ady, bdy, cdy = Y[a] - dy, Y[b] - dy, Y[c] - dy
        adz, bdz, cdz = Z[a] - dz, Z[b] - dz, Z[c] - dz
        bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
        cdxady, adxcdy = cdx * ady, adx * cdy
        adxbdy, bdxady = adx * bdy, bdx * ady
        det = adz * (bdxcdy - cdxbdy) + bdz * (cdxady - adxcdy) + cdz * (adxbdy - bdxady)
        bound = self.orient_bound
        if det > bound:
            return -1
        if -det > bound:
            return 1
        self.misses += 1
        permanent = ((abs(bdxcdy) + abs(cdxbdy)) * abs(adz)
                     + (abs(cdxady) + abs(adxcdy)) * abs(bdz)
                     + (abs(adxbdy) + abs(bdxady)) * abs(cdz))
        return (_decide(-det, _ORIENT3_BOUND * permanent)
                or self._exact_orient(q))

    def insphere_ids(self, q, p: int) -> int:
        """The lifted det[r - p, |r - p|^2] over r in q = (a, b, c, d):
        Shewchuk's insphere(a, b, c, d, p)."""
        a, b, c, d = q
        X, Y, Z = self.axes
        px, py, pz = X[p], Y[p], Z[p]
        aex, bex, cex, dex = X[a] - px, X[b] - px, X[c] - px, X[d] - px
        aey, bey, cey, dey = Y[a] - py, Y[b] - py, Y[c] - py, Y[d] - py
        aez, bez, cez, dez = Z[a] - pz, Z[b] - pz, Z[c] - pz, Z[d] - pz
        aexbey, bexaey = aex * bey, bex * aey
        bexcey, cexbey = bex * cey, cex * bey
        cexdey, dexcey = cex * dey, dex * cey
        dexaey, aexdey = dex * aey, aex * dey
        aexcey, cexaey = aex * cey, cex * aey
        bexdey, dexbey = bex * dey, dex * bey
        ab, bc, cd, da = aexbey - bexaey, bexcey - cexbey, cexdey - dexcey, dexaey - aexdey
        ac, bd = aexcey - cexaey, bexdey - dexbey
        abc = aez * bc - bez * ac + cez * ab
        bcd = bez * cd - cez * bd + dez * bc
        cda = cez * da + dez * ac + aez * cd
        dab = dez * ab + aez * bd + bez * da
        alift = aex * aex + aey * aey + aez * aez
        blift = bex * bex + bey * bey + bez * bez
        clift = cex * cex + cey * cey + cez * cez
        dlift = dex * dex + dey * dey + dez * dez
        det = (dlift * abc - clift * dab) + (blift * cda - alift * bcd)
        bound = self.insphere_bound
        if det > bound:
            return 1
        if -det > bound:
            return -1
        self.misses += 1
        aez, bez, cez, dez = abs(aez), abs(bez), abs(cez), abs(dez)
        aexbey, bexaey, bexcey, cexbey = abs(aexbey), abs(bexaey), abs(bexcey), abs(cexbey)
        cexdey, dexcey, dexaey, aexdey = abs(cexdey), abs(dexcey), abs(dexaey), abs(aexdey)
        aexcey, cexaey, bexdey, dexbey = abs(aexcey), abs(cexaey), abs(bexdey), abs(dexbey)
        permanent = (((cexdey + dexcey) * bez + (dexbey + bexdey) * cez
                      + (bexcey + cexbey) * dez) * alift
                     + ((dexaey + aexdey) * cez + (aexcey + cexaey) * dez
                        + (cexdey + dexcey) * aez) * blift
                     + ((aexbey + bexaey) * dez + (bexdey + dexbey) * aez
                        + (dexaey + aexdey) * bez) * clift
                     + ((bexcey + cexbey) * aez + (cexaey + aexcey) * bez
                        + (aexbey + bexaey) * cez) * dlift)
        return (_decide(det, _INSPHERE_BOUND * permanent)
                or self._exact_insphere(q, p))


def _predicates(n: int, rows=()) -> Predicates:
    """The predicates of R^n on the nodes ``rows``: closed forms in 2-D and
    3-D, elimination in other dimensions."""
    return {2: _Planar, 3: _Spatial}.get(n, Predicates)(n, rows)


# ---------------------------------------------------------------------------
# incremental Bowyer-Watson on the padded (finite + infinite) complex
# ---------------------------------------------------------------------------


class _Padded:
    """Mutable padded complex: finite cells plus one infinite cell per hull facet.

    Built from the whole (N, n) node array and the finite cells of a
    tessellation of some of its nodes; the constructor orients them and adds
    one infinite cell per hull facet.  ``cells[cid]`` lists a cell's node
    ids, oriented as the module docstring says, and ``nbrs[cid][j]`` is the
    cell across the facet opposite slot j.  The other nodes are listed but
    not read until they are inserted, so a node's id is its row in ``nodes``
    throughout; ``insert_nodes`` appends the rows of a batch to ``pred``
    when it carries the complex on.
    """

    def __init__(self, nodes: np.ndarray, cells):
        self.n = n = nodes.shape[1]
        cells = np.asarray(cells, dtype=np.intp)
        if len(cells) == 0 or cells.shape[1] != n + 1:
            raise ValueError(f"Bowyer-Watson insertion in R^{n} needs one or more cells "
                             f"of {n + 1} nodes, not cells of shape {cells.shape}")
        self.pred = _predicates(n, nodes.tolist())
        self.cells: dict[int, list] = {}
        self.nbrs: dict[int, list] = {}
        self._parity = -1 if n % 2 else 1   # the lifted determinant's sign flip
        self._next_cell = 0
        self._hint = None
        # per slot j of pid in a new cell: each other slot i, with the slots of
        # the ridge that the facet opposite i shares with another new cell
        self._ridge_slots = [[(i, tuple(k for k in range(n + 1) if k not in (i, j)))
                              for i in range(n + 1) if i != j] for j in range(n + 1)]
        # (cell, slot) of each facet seen once, keyed by its sorted node ids
        unpaired: dict[tuple, tuple] = {}
        for cell in cells.tolist():
            s = self.pred.orient_ids(cell)
            if s == 0:
                raise DegenerateInput(f"cell {tuple(cell)} is flat")
            if s < 0:
                cell[0], cell[1] = cell[1], cell[0]
            self._add_glued(cell, unpaired)
        for cid, j in list(unpaired.values()):
            # the cell with INF in slot j, then moved to slot 0 by an odd
            # permutation, which orients it against its finite neighbour
            cell = list(self.cells[cid])
            cell[j] = INF
            if j:
                cell[0], cell[j] = cell[j], cell[0]
            elif n > 1:
                cell[1], cell[2] = cell[2], cell[1]
            self._add_glued(cell, unpaired)

    def _add_glued(self, cell: list, unpaired: dict) -> None:
        cid = self._next_cell
        self._next_cell += 1
        self.cells[cid] = cell
        self.nbrs[cid] = link = [None] * (self.n + 1)
        for j in range(self.n + 1):
            key = tuple(sorted(cell[:j] + cell[j + 1:]))
            other = unpaired.pop(key, None)
            if other is None:
                unpaired[key] = (cid, j)
            else:
                link[j] = other[0]
                self.nbrs[other[0]][other[1]] = cid
        self._hint = cid

    # -- predicates --------------------------------------------------------

    def _in_conflict(self, cid: int, pid: int, known: Optional[dict] = None) -> bool:
        """Whether cell cid is in conflict with node pid.  ``known``, the
        insertion's record of verdicts (see insert), is read and added to
        where a hull plane holds pid, as that test is the finite cell's."""
        cell = self.cells[cid]
        if cell[0] == INF:
            s = self.pred.orient_ids([pid] + cell[1:])
            if s == 0:  # on the hull plane: as the facet's finite cell
                nbr = self.nbrs[cid][0]
                if known is None:
                    return self._in_conflict(nbr, pid)
                if nbr not in known:
                    known[nbr] = self._in_conflict(nbr, pid) and _DECIDED
                return bool(known[nbr])
            if self.n == 1 and self.cells[self.nbrs[cid][0]][1] == cell[1]:
                s = -s   # the right end, stored negative (module docstring)
            return s > 0
        pred = self.pred
        s = pred.insphere_ids(cell, pid)
        if s == 0:
            s = _symbolic_insphere(pred.points(cell), pred.points((pid,))[0], cell + [pid])
        return self._parity * s > 0

    # -- point location -----------------------------------------------------

    def _locate_conflict(self, pid: int, known: dict) -> int:
        """A cell in conflict with point pid, by the visibility walk of the
        module docstring; ``known`` records the cells found not in conflict.

        A finite cell steps through its first facet that separates it from
        the point; an infinite cell entered that way is in conflict.  A point
        in a closed non-flat cell, not one of its vertices, is strictly inside
        the circumsphere, so only a flat cell finds no facet to step through.
        """
        cells, nbrs = self.cells, self.nbrs
        orient = self.pred.orient_ids
        cid = self._hint if self._hint in cells else next(iter(cells))
        for _ in range(len(cells)):
            # a cell known already is a hull plane's finite cell, not in conflict
            if cid not in known and self._in_conflict(cid, pid, known):
                return cid
            known[cid] = False
            cell = cells[cid]
            if cell[0] == INF:
                # non-conflict infinite cell: step back inside the hull
                cid = nbrs[cid][0]
                continue
            for j in range(len(cell)):
                q = list(cell)
                q[j] = pid
                if orient(q) < 0:
                    cid = nbrs[cid][j]
                    break
            else:
                break
        raise DegenerateInput("point location found no conflict cell")

    # -- insertion -----------------------------------------------------------

    def insert(self, pid: int) -> None:
        """Insert node pid: remove the cells in conflict with it and star
        the cavity's boundary from it.  A new cell is a conflict cell with
        the vertex of a boundary facet's slot replaced by pid, so it keeps
        that cell's orientation; its other slots are glued by the ridges they
        share, all of which meet pid."""
        cells, nbrs, n = self.cells, self.nbrs, self.n
        known: dict = {}   # cid -> in conflict with pid, or _DECIDED
        start = self._locate_conflict(pid, known)
        known[start] = True
        stack = [start]
        cavity = []
        boundary = []   # (conflict cell, slot, the cell across that facet)
        while stack:
            cid = stack.pop()
            cavity.append(cid)
            for j, other in enumerate(nbrs[cid]):
                hit = known.get(other)
                if hit is None or hit is _DECIDED:
                    hit = known[other] = hit is _DECIDED or self._in_conflict(other, pid, known)
                    if hit:
                        stack.append(other)
                if not hit:
                    boundary.append((cid, j, other))
        # ridge -> (new cell, slot); a ridge is keyed by its sorted ids, or in
        # 2-D by its one id, which spares a sort per key
        ridges: dict = {}
        ridge_slots = self._ridge_slots
        single = n == 2
        orient = self.pred.orient_ids
        flat = False
        for cid, j, other in boundary:
            cell = cells[cid].copy()
            cell[j] = pid
            link = [None] * (n + 1)
            link[j] = other
            if cell[0] != INF:
                s = orient(cell)   # 0 only if the module docstring's argument fails
                flat |= s == 0
                if s < 0:   # on the line, made from the right end (module docstring)
                    cell.reverse()
                    link.reverse()
                    j = 1 - j
            new = self._next_cell
            self._next_cell += 1
            cells[new] = cell
            nbrs[new] = link
            back = nbrs[other]
            back[back.index(cid)] = new
            for i, slots in ridge_slots[j]:
                key = cell[slots[0]] if single else tuple(sorted([cell[k] for k in slots]))
                mate = ridges.pop(key, None)
                if mate is None:
                    ridges[key] = (new, i)
                else:
                    link[i] = mate[0]
                    nbrs[mate[0]][mate[1]] = new
        for cid in cavity:
            del cells[cid], nbrs[cid]
        self._hint = new
        if flat:
            raise DegenerateInput("cavity retriangulation produced a flat cell")


def _bowyer_watson(caller: str, pad: _Padded, nodes: np.ndarray, order) -> Tessellation:
    """Insert the nodes ``order`` lists, in that order, into the padded
    complex ``pad`` of ``nodes``; return the finite cells on ``nodes``, with
    ``pad`` left on the result for the next ``insert_nodes``."""
    pred = pad.pred
    pred.exact = pred.misses = 0
    inserted = 0
    try:
        for i in order:
            pad.insert(i)
            inserted += 1
    finally:
        logger.debug("%s: %d predicates decided exactly, %d insertions, "
                     "%d static-filter misses", caller, pred.exact, inserted, pred.misses)
    finite = [c for c in pad.cells.values() if c[0] != INF]
    tess = Tessellation(nodes, np.array(finite, dtype=np.intp))
    tess._padded = pad
    return tess


# ---------------------------------------------------------------------------
# public constructors
# ---------------------------------------------------------------------------


def _initial_simplex(points: np.ndarray, eps: float) -> list[int]:
    """Greedy affinely-independent seed simplex, scanning in id order."""
    n = points.shape[1]
    chosen = [0]
    basis: list[np.ndarray] = []
    for i in range(1, len(points)):
        v = points[i] - points[0]
        w = v.copy()
        for b in basis:
            w -= (w @ b) * b
        norm = np.linalg.norm(w)
        if norm > eps:
            basis.append(w / norm)
            chosen.append(i)
            if len(chosen) == n + 1:
                return chosen
    raise DegenerateInput(
        f"nodes span only {len(chosen) - 1} affine dimensions, need {n}"
    )


def _hilbert_order(points: np.ndarray) -> np.ndarray:
    """Node ids sorted along an n-D Hilbert curve through the bounding box.

    Coordinates are quantized to 16 bits per axis and mapped to the
    transposed Hilbert index of Skilling 2004, "Programming the Hilbert
    curve"; reading its bits level by level, axis by axis, gives the index,
    so a lexsort over those bits orders the nodes along the curve.  Nodes in
    the same quantization cell keep their id order.
    """
    bits = 16
    lo = points.min(axis=0)
    span = points.max(axis=0) - lo
    span[span == 0.0] = 1.0
    top = (1 << bits) - 1
    X = np.clip(((points - lo) / span * top).astype(np.int64), 0, top)
    n = X.shape[1]
    Q = 1 << (bits - 1)
    while Q > 1:  # inverse undo
        P = Q - 1
        for i in range(n):
            hit = (X[:, i] & Q) != 0
            t = np.where(hit, P, (X[:, 0] ^ X[:, i]) & P)
            X[:, 0] ^= t
            X[:, i] ^= np.where(hit, 0, t)
        Q >>= 1
    for i in range(1, n):  # Gray encode
        X[:, i] ^= X[:, i - 1]
    t = np.zeros(len(X), dtype=np.int64)
    Q = 1 << (bits - 1)
    while Q > 1:
        t ^= np.where((X[:, n - 1] & Q) != 0, Q - 1, 0)
        Q >>= 1
    X ^= t[:, None]
    digits = [(X[:, i] >> level) & 1 for level in range(bits - 1, -1, -1) for i in range(n)]
    return np.lexsort(digits[::-1])


def build_delaunay(points) -> Tessellation:
    """Delaunay tessellation of a node set by incremental Bowyer-Watson.

    The seed simplex is the first affinely independent set in id order; the
    other nodes are inserted along a Hilbert curve, so each point-location
    walk starts next to its target.  Node ids are the input row indices.

    Raises
    ------
    DimensionTooLow
        Fewer than n+1 nodes.
    DegenerateInput
        All nodes affinely dependent, or an insertion made a flat cell.
    DuplicateNode
        Two nodes coincide within the geometric tolerance.
    """
    points = _points(points)
    n = points.shape[1]
    if len(points) < n + 1:
        raise DimensionTooLow(f"need at least {n + 1} nodes in dimension {n}")
    eps = EPS_GEOM_REL * bbox_diagonal(points)
    _check_batch_distinct(np.empty((0, n)), points, eps)
    seed = _initial_simplex(points, eps)
    order = [i for i in _hilbert_order(points).tolist() if i not in seed]
    return _bowyer_watson("build_delaunay", _Padded(points, [seed]), points, order)


def _check_batch_distinct(existing: np.ndarray, batch: np.ndarray, eps: float) -> None:
    """Raise DuplicateNode at the first batch point within eps of a node or of
    an earlier batch point; a clash with a node is reported before one within
    the batch, naming the nearest node.

    Candidate pairs come from one x-sorted slab search.  The slab is 2*eps
    wide, so it holds every pair whose rounded distance can be <= eps.
    """
    N = len(existing)
    allpts = np.vstack([existing, batch])
    order = np.argsort(allpts[:, 0], kind="stable")
    xs = allpts[order, 0]
    lo = np.searchsorted(xs, batch[:, 0] - 2 * eps, "left")
    counts = np.searchsorted(xs, batch[:, 0] + 2 * eps, "right") - lo
    k = np.repeat(np.arange(len(batch)), counts)
    j = order[np.arange(len(k)) + np.repeat(lo - (np.cumsum(counts) - counts), counts)]
    earlier = j < N + k
    k, j = k[earlier], j[earlier]
    D = allpts[j] - batch[k]
    # rounds as np.linalg.norm of each difference (see min_incident_edge)
    close = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
    hit = close <= eps
    if not hit.any():
        return
    first = k[hit].min()
    p = batch[first]
    mine = (k == first) & (j < N)
    if hit[mine].any():
        jm, dm = j[mine], close[mine]
        nearest = int(jm[np.lexsort((jm, dm))[0]])
        raise DuplicateNode(f"point {p} duplicates node {nearest}")
    raise DuplicateNode(f"batch contains coincident points at {p}")


def insert_nodes(tess: Tessellation, points: Iterable) -> Tessellation:
    """Insert several nodes into a tessellation, returning a new snapshot.

    A tessellation returned by a builder here carries the padded complex it
    was grown on, and insertion takes that complex over: it detaches it from
    ``tess`` before inserting, extends it by the batch, and leaves it on the
    result.  So a chain of insertions costs an incremental Bowyer-Watson step
    per point.  A tessellation without one (a Kuhn grid, one made by hand, or
    one whose complex an earlier insertion took) gets its padded complex
    rebuilt from its cells; the cells come out the same either way, as they
    are decided by exact signs.  Points get the next ids in the given order,
    so a new point loses every exact tie with a cell (see the module
    docstring): on a cell's circumsphere, it is outside.  They are inserted
    along a Hilbert curve through the batch, as ``build_delaunay`` inserts,
    and each is located by the exact visibility walk from the cell made last;
    the cells depend on the ids, not on that order.  Raises DegenerateInput
    if an insertion makes a flat cell or the cells of a rebuilt complex hold
    one, and ValueError for a point with a non-finite coordinate or a mesh
    that is not one of n-simplices.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        return tess
    bad_shape = next(
        (k for k, p in enumerate(points) if p.shape != (tess.n,)), len(points)
    )
    if bad_shape:
        batch = _points(points[:bad_shape], "inserted point")
        _check_batch_distinct(tess.nodes, batch, EPS_GEOM_REL * bbox_diagonal(tess.nodes))
    if bad_shape < len(points):
        raise ValueError("inserted point has wrong dimension")
    N = len(tess.nodes)
    nodes = np.vstack([tess.nodes, batch])
    pad, tess._padded = tess._padded, None
    if pad is None:
        pad = _Padded(nodes, tess.cells)
    else:
        pad.pred.extend(batch.tolist())
    return _bowyer_watson("insert_nodes", pad, nodes, (N + _hilbert_order(batch)).tolist())


# ---------------------------------------------------------------------------
# structured grids (Kuhn / Freudenthal subdivision of a box grid)
# ---------------------------------------------------------------------------


def grid_nodes(box, counts) -> np.ndarray:
    """Regular grid of nodes over a box, an (N, n) array, in C order;
    ``counts`` holds the nodes per axis, each an integer >= 2: a fractional,
    boolean or smaller count raises ``ValueError``."""
    box = np.asarray(box, dtype=float)
    counts = list(counts)
    if box.shape != (len(counts), 2):
        raise ValueError("box must be (n, 2) and match len(counts)")
    for c in counts:
        if isinstance(c, bool) or not isinstance(c, numbers.Integral) or c < 2:
            raise ValueError(f"node count {c!r} is not an integer >= 2")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel(order="C") for m in mesh])


def kuhn_tessellation(box, counts) -> Tessellation:
    """Tessellate a regular grid by splitting each box cell into n! simplices.

    Every grid box is inscribed in its own circumsphere and no other grid node
    enters that sphere, so any consistent box split is Delaunay up to the
    cospherical tie; the Kuhn split picks the tie deterministically and is
    consistent across shared faces.  ``counts`` is checked as
    :func:`grid_nodes` checks it.
    """
    nodes = grid_nodes(box, counts)
    counts = [int(c) for c in counts]
    n = len(counts)
    strides = np.array(
        [int(np.prod(counts[k + 1:])) for k in range(n)], dtype=np.int64
    )
    ranges = [np.arange(c - 1) for c in counts]
    base_idx = np.meshgrid(*ranges, indexing="ij")
    base_flat = sum(
        b.ravel(order="C").astype(np.int64) * s for b, s in zip(base_idx, strides)
    )
    cells = []
    for perm in itertools.permutations(range(n)):
        offsets = np.zeros(n + 1, dtype=np.int64)
        acc = 0
        for k, axis in enumerate(perm):
            acc += strides[axis]
            offsets[k + 1] = acc
        cells.append(base_flat[:, None] + offsets[None, :])
    return Tessellation(nodes, np.vstack(cells))
