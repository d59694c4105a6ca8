"""n-dimensional Delaunay tessellations with incremental insertion.

The tessellation is built by an incremental Bowyer-Watson scheme bootstrapped
with a single symbolic vertex "at infinity": alongside the finite n-simplices
the builder keeps one infinite cell per convex-hull facet, so the padded
complex is a closed combinatorial manifold and points outside the current hull
insert exactly like interior ones.  Degenerate (cospherical / collinear)
configurations are broken by a deterministic symbolic perturbation: for
predicate evaluation only, node ``i`` is displaced by ``i * eps_geom`` along a
fixed irrational direction.  The perturbation depends on the node id, not on
the order of insertion, so wherever it breaks every tie the complex is a
function of the ids and the coordinates, and bulk construction is free to
insert along a space-filling curve.  It does not break every tie: on grid
nodes, ids that step evenly along a grid line stay collinear and some
cospherical sets stay tied, and there the complex can depend on the order.

A finished :class:`Tessellation` is an immutable snapshot; insertion returns a
new snapshot and never mutates its input.
"""

from __future__ import annotations

import itertools
import logging
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInput, DimensionTooLow, DuplicateNode

logger = logging.getLogger(__name__)

INF = -1  # symbolic vertex at infinity

EPS_GEOM_REL = 1e-12    # node coincidence / degeneracy scale, x bbox diagonal

# Fixed irrational direction for the symbolic perturbation (components are
# inverse square roots of the first primes, then normalized).
_PERT_PRIMES = np.array([2.0, 3.0, 5.0, 7.0, 11.0, 13.0, 17.0, 19.0])


def _perturbation_direction(n: int) -> np.ndarray:
    d = 1.0 / np.sqrt(_PERT_PRIMES[:n]) if n <= len(_PERT_PRIMES) else 1.0 / np.sqrt(
        np.arange(2, n + 2, dtype=float)
    )
    return d / np.linalg.norm(d)


class NodeSet:
    """Immutable set of sample nodes with dense ids 0..N-1."""

    def __init__(self, points):
        pts = np.array(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise ValueError("points must be an (N, n) array with n >= 1")
        pts.setflags(write=False)
        self.points = pts

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def bbox_diagonal(self) -> float:
        if len(self) == 0:
            return 0.0
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(span))

    def check_distinct(self, eps: float) -> None:
        """Raise DuplicateNode if two nodes coincide within eps.

        Nodes are scanned in lexicographic order, so only neighbours in the
        first coordinate need comparing.
        """
        pts = self.points
        if len(pts) < 2:
            return
        order = np.lexsort(pts.T[::-1])
        sp = pts[order]
        for i in range(len(sp) - 1):
            j = i + 1
            while j < len(sp) and sp[j, 0] - sp[i, 0] <= eps:
                if np.linalg.norm(sp[j] - sp[i]) <= eps:
                    raise DuplicateNode(
                        f"nodes {order[i]} and {order[j]} coincide within {eps:g}"
                    )
                j += 1


class Tessellation:
    """Delaunay simplicial complex over a NodeSet.

    Cells are (n+1)-tuples of node ids, each tuple sorted, the cell list
    sorted lexicographically, so the representation is deterministic given
    the node ids and coordinates (up to the ties the perturbation leaves;
    see the module docstring).
    """

    def __init__(self, nodes: NodeSet, cells: Sequence[tuple]):
        self.nodes = nodes
        self.cells = tuple(sorted(tuple(sorted(c)) for c in cells))
        self._adjacency = None

    @property
    def n(self) -> int:
        return self.nodes.n

    @property
    def scale(self) -> float:
        return self.nodes.bbox_diagonal

    def cell_points(self, i: int) -> np.ndarray:
        return self.nodes.points[list(self.cells[i])]

    @property
    def adjacency(self) -> dict:
        """Map facet (sorted (n)-tuple of node ids) -> tuple of incident cell indices."""
        if self._adjacency is None:
            adj: dict[tuple, list] = {}
            for ci, cell in enumerate(self.cells):
                for facet in itertools.combinations(cell, len(cell) - 1):
                    adj.setdefault(facet, []).append(ci)
            self._adjacency = {f: tuple(cs) for f, cs in adj.items()}
        return self._adjacency

    def boundary_facets(self) -> list[tuple]:
        return [f for f, cs in self.adjacency.items() if len(cs) == 1]

    def cell_diameter(self, i: int) -> float:
        pts = self.cell_points(i)
        from .geometry import simplex_diameter

        return simplex_diameter(pts)

    def min_incident_edge(self) -> np.ndarray:
        """Per node, the length of the shortest incident edge."""
        out = np.full(len(self.nodes), np.inf)
        if not self.cells:
            return out
        cells = np.asarray(self.cells, dtype=np.intp)
        i, j = np.triu_indices(cells.shape[1], 1)
        a, b = cells[:, i].ravel(), cells[:, j].ravel()
        D = self.nodes.points[a] - self.nodes.points[b]
        # sqrt of a stack of (1, n) @ (n, 1) products rounds as the per-edge
        # np.linalg.norm; norm(D, axis=1) and einsum do not
        d = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0])
        np.minimum.at(out, a, d)
        np.minimum.at(out, b, d)
        return out


def enumerate_faces(cell: Sequence[int], k: int) -> list[tuple]:
    """All k-dimensional faces of a simplex, as sorted id tuples.

    A k-face has k+1 vertices; a cell with v vertices has C(v, k+1) of them.
    """
    cell = tuple(sorted(cell))
    if not 0 <= k <= len(cell) - 1:
        raise ValueError(f"face dimension {k} out of range for cell {cell}")
    return list(itertools.combinations(cell, k + 1))


# ---------------------------------------------------------------------------
# incremental Bowyer-Watson on the padded (finite + infinite) complex
# ---------------------------------------------------------------------------


class _Padded:
    """Mutable padded complex: finite cells plus one infinite cell per hull facet."""

    def __init__(self, n: int, scale: float):
        self.n = n
        self.scale = max(scale, 0.0)
        self.eps = EPS_GEOM_REL * self.scale if self.scale > 0 else 1e-300
        self.pert_dir = _perturbation_direction(n)
        self.points: list[np.ndarray] = []
        self.pert: list[np.ndarray] = []
        self.cells: dict[int, tuple] = {}
        self.facets: dict[frozenset, list] = {}
        self._next_cell = 0
        self._hint = None

    # -- construction ------------------------------------------------------

    def add_point(self, p) -> int:
        i = len(self.points)
        p = np.asarray(p, dtype=float)
        self.points.append(p)
        self.pert.append(p + (i * self.eps) * self.pert_dir)
        return i

    def seed_simplex(self, ids: Sequence[int]) -> None:
        cell = tuple(sorted(ids))
        self._add_cell(cell)
        for facet in itertools.combinations(cell, self.n):
            self._add_cell(tuple(sorted(facet + (INF,))))

    @classmethod
    def from_tessellation(cls, tess: Tessellation) -> "_Padded":
        pad = cls(tess.n, tess.scale)
        for p in tess.nodes.points:
            pad.add_point(p)
        for cell in tess.cells:
            pad._add_cell(cell)
        # hull facets get an infinite cell each
        for facet, cs in list(pad.facets.items()):
            if len(cs) == 1 and INF not in facet:
                pad._add_cell(tuple(sorted(tuple(facet) + (INF,))))
        return pad

    def _add_cell(self, cell: tuple) -> int:
        cid = self._next_cell
        self._next_cell += 1
        self.cells[cid] = cell
        for facet in itertools.combinations(cell, self.n):
            self.facets.setdefault(frozenset(facet), []).append(cid)
        self._hint = cid
        return cid

    def _remove_cell(self, cid: int) -> None:
        cell = self.cells.pop(cid)
        for facet in itertools.combinations(cell, self.n):
            key = frozenset(facet)
            lst = self.facets[key]
            lst.remove(cid)
            if not lst:
                del self.facets[key]

    def _neighbor(self, cid: int, facet: frozenset):
        for other in self.facets.get(facet, ()):
            if other != cid:
                return other
        return None

    # -- predicates (evaluated on perturbed coordinates) --------------------

    def _orient(self, ids: Sequence[int]) -> float:
        q = np.array([self.pert[i] for i in ids])
        return float(np.linalg.det(q[1:] - q[0]))

    def _in_conflict(self, cid: int, pid: int) -> bool:
        cell = self.cells[cid]
        p = self.pert[pid]
        if cell[0] == INF:
            facet = cell[1:]
            finite = self._neighbor(cid, frozenset(facet))
            apex = next(v for v in self.cells[finite] if v not in facet)
            base = np.array([self.pert[i] for i in facet])
            rows = base[1:] - base[0]
            s_apex = np.linalg.det(np.vstack([rows, self.pert[apex] - base[0]]))
            s_p = np.linalg.det(np.vstack([rows, p - base[0]]))
            if s_p == 0.0:
                return True  # exactly on the hull plane: extend conservatively
            return bool(s_p * s_apex < 0.0)
        q = np.array([self.pert[i] for i in cell])
        orient = np.linalg.det(q[1:] - q[0])
        rel = q - p
        lifted = np.column_stack([rel, np.einsum("ij,ij->i", rel, rel)])
        # lifted-determinant sign flips with dimension parity
        sign = -1.0 if self.n % 2 else 1.0
        return bool(sign * orient * np.linalg.det(lifted) > 0.0)

    # -- point location -----------------------------------------------------

    def _barycentric(self, cell: tuple, pid: int) -> np.ndarray:
        q = np.array([self.points[i] for i in cell])
        A = np.vstack([q.T, np.ones(len(cell))])
        b = np.append(self.points[pid], 1.0)
        try:
            return np.linalg.solve(A, b)
        except np.linalg.LinAlgError:
            return np.full(len(cell), -np.inf)

    def _locate_conflict(self, pid: int) -> int:
        cid = self._hint if self._hint in self.cells else next(iter(self.cells))
        visits: dict[int, int] = {}
        max_steps = 4 * len(self.cells) + 16
        for _ in range(max_steps):
            if self._in_conflict(cid, pid):
                return cid
            cell = self.cells[cid]
            if cell[0] == INF:
                # non-conflict infinite cell: step back inside the hull
                nxt = self._neighbor(cid, frozenset(cell[1:]))
            else:
                lam = self._barycentric(cell, pid)
                neg = [int(j) for j in np.argsort(lam) if lam[j] < 0.0]
                if not neg:
                    # the unperturbed point is in the cell, the perturbed one
                    # is not in its circumsphere: the cell cannot seed the
                    # cavity (that gave non-Delaunay cells on near-collinear
                    # nodes), so let the scan find a conflict cell
                    break
                # rotate the facet choice on revisits to escape degenerate loops
                shift = visits.get(cid, 0)
                visits[cid] = shift + 1
                j = neg[shift % len(neg)]
                facet = frozenset(v for idx, v in enumerate(cell) if idx != j)
                nxt = self._neighbor(cid, facet)
            if nxt is None:
                break
            cid = nxt
        for cid in self.cells:  # safety net: exhaustive scan
            if self._in_conflict(cid, pid):
                return cid
        raise DegenerateInput("no conflict cell found for inserted point")

    # -- insertion -----------------------------------------------------------

    def insert(self, pid: int) -> None:
        start = self._locate_conflict(pid)
        conflict = {start}
        stack = [start]
        boundary: list[frozenset] = []
        while stack:
            cid = stack.pop()
            cell = self.cells[cid]
            for facet in itertools.combinations(cell, self.n):
                key = frozenset(facet)
                other = self._neighbor(cid, key)
                if other is None or other in conflict:
                    continue
                if self._in_conflict(other, pid):
                    conflict.add(other)
                    stack.append(other)
                else:
                    boundary.append(key)
        for cid in conflict:
            self._remove_cell(cid)
        degenerate = False
        for key in boundary:
            cell = tuple(sorted(tuple(key) + (pid,)))
            self._add_cell(cell)
            if cell[0] != INF and abs(self._orient(cell)) == 0.0:
                degenerate = True
        if degenerate:
            raise DegenerateInput("cavity retriangulation produced a flat cell")

    # -- export --------------------------------------------------------------

    def snapshot(self) -> Tessellation:
        nodes = NodeSet(np.array(self.points))
        finite = [c for c in self.cells.values() if c[0] != INF]
        return Tessellation(nodes, finite)


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
        if norm > max(eps, 1e-14 * max(np.linalg.norm(v), 1.0)):
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


def build_delaunay(nodes: NodeSet | np.ndarray) -> Tessellation:
    """Delaunay tessellation of a node set by incremental Bowyer-Watson.

    The seed simplex is the first affinely independent set in id order; the
    other nodes are inserted along a Hilbert curve, so each point-location
    walk starts next to its target.  Node ids are the input row indices.

    Raises
    ------
    DimensionTooLow
        Fewer than n+1 nodes.
    DegenerateInput
        All nodes affinely dependent beyond perturbation recovery.
    DuplicateNode
        Two nodes coincide within the geometric tolerance.
    """
    if not isinstance(nodes, NodeSet):
        nodes = NodeSet(nodes)
    n = nodes.n
    if len(nodes) < n + 1:
        raise DimensionTooLow(f"need at least {n + 1} nodes in dimension {n}")
    scale = nodes.bbox_diagonal
    eps = EPS_GEOM_REL * scale
    nodes.check_distinct(eps)
    seed = _initial_simplex(nodes.points, eps)
    pad = _Padded(n, scale)
    for p in nodes.points:
        pad.add_point(p)
    pad.seed_simplex(seed)
    seed_set = set(seed)
    for i in _hilbert_order(nodes.points).tolist():
        if i not in seed_set:
            pad.insert(i)
    return pad.snapshot()


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
    close = np.linalg.norm(allpts[j] - batch[k], axis=1)
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


def insert_node(tess: Tessellation, p) -> Tessellation:
    """Insert one node incrementally; prior node ids are unchanged."""
    return insert_nodes(tess, [p])


def insert_nodes(tess: Tessellation, points: Iterable) -> Tessellation:
    """Insert several nodes into a tessellation, returning a new snapshot.

    The padded hull structure is rebuilt once, so batch insertion costs one
    reconstruction plus an incremental Bowyer-Watson step per point.  Points
    are inserted in the given order and get the next ids in that order.
    Falls back to a full rebuild if a cavity retriangulation degenerates.
    """
    points = [np.asarray(p, dtype=float) for p in points]
    if not points:
        return tess
    eps = EPS_GEOM_REL * max(tess.scale, 1e-300)
    existing = tess.nodes.points
    bad_shape = next(
        (k for k, p in enumerate(points) if p.shape != (tess.n,)), len(points)
    )
    if bad_shape:
        _check_batch_distinct(existing, np.array(points[:bad_shape]), eps)
    if bad_shape < len(points):
        raise ValueError("inserted point has wrong dimension")
    pad = _Padded.from_tessellation(tess)
    try:
        for p in points:
            pid = pad.add_point(p)
            pad.insert(pid)
        return pad.snapshot()
    except DegenerateInput:
        logger.warning("incremental insertion degenerated; rebuilding from scratch")
        allpts = np.vstack([existing, np.array(points)])
        return build_delaunay(NodeSet(allpts))


# ---------------------------------------------------------------------------
# structured grids (Kuhn / Freudenthal subdivision of a box grid)
# ---------------------------------------------------------------------------


def grid_nodes(box, counts) -> NodeSet:
    """Regular grid of nodes over a box; counts = nodes per axis, C order."""
    box = np.asarray(box, dtype=float)
    counts = [int(c) for c in counts]
    if box.shape != (len(counts), 2):
        raise ValueError("box must be (n, 2) and match len(counts)")
    if any(c < 2 for c in counts):
        raise ValueError("need at least 2 nodes per axis")
    axes = [np.linspace(lo, hi, c) for (lo, hi), c in zip(box, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel(order="C") for m in mesh])
    return NodeSet(pts)


def kuhn_tessellation(box, counts) -> Tessellation:
    """Tessellate a regular grid by splitting each box cell into n! simplices.

    Every grid box is inscribed in its own circumsphere and no other grid node
    enters that sphere, so any consistent box split is Delaunay up to the
    cospherical tie; the Kuhn split picks the tie deterministically and is
    consistent across shared faces.
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
    all_cells = np.sort(np.vstack(cells), axis=1)
    return Tessellation(nodes, [tuple(row) for row in all_cells])
