"""Iterative refinement: resample the current approximation, insert, rerun.

Each iteration generates candidate points on the approximated optimal set
(midpoints along polylines for two objectives, or an accumulated-volume
maximin fill for higher strata), filters them through a spacing guard,
inserts the survivors into the tessellation and re-analyzes.  Each iteration
records the magnitude of the Jacobian minors at the complex vertices,
recomputed from true Jacobians at the vertex positions
(``IterationStats.max_minor``); the caller chooses how many iterations to run.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .continuation import (
    ParetoComplex,
    STRATUM_STABLE,
    STRATUM_UNSTABLE,
    analyze,
    minors_of_jacobian,
)
from .errors import EmptyComplex, NoProgress
from .metrics import hausdorff
from .problems import VectorProblem
from .tessellation import Tessellation, insert_nodes

logger = logging.getLogger(__name__)

SPACING_GAMMA = 0.1  # candidate-to-node distance floor, x local shortest edge
_GUARD_BLOCK = 1 << 16  # distances per stacked block of the spacing guard (0.5 MB)


@dataclass
class IterationStats:
    iteration: int
    nodes: int
    max_minor: float
    mean_minor: float
    hausdorff_to_ref: Optional[float] = None


@dataclass
class RefinementState:
    problem: VectorProblem
    tess: Tessellation
    complex: ParetoComplex
    order: int = 2
    history: list = field(default_factory=list)

    @property
    def iteration(self) -> int:
        """Refinement steps taken: one per history entry."""
        return len(self.history)


def initial_state(problem: VectorProblem, tess: Tessellation, order: int = 2) -> RefinementState:
    cx = analyze(problem, tess, order=order)
    return RefinementState(problem=problem, tess=tess, complex=cx, order=order)


# ---------------------------------------------------------------------------
# candidate generation
# ---------------------------------------------------------------------------


def _target_strata(cx: ParetoComplex):
    """Stable stratum when present, whole critical set otherwise."""
    if len(cx.simplex_ids([STRATUM_STABLE])):
        return [STRATUM_STABLE]
    if len(cx.simplex_ids([STRATUM_UNSTABLE, STRATUM_STABLE])):
        return [STRATUM_UNSTABLE, STRATUM_STABLE]
    raise EmptyComplex("no critical simplices to refine")


def _chains(cx: ParetoComplex, strata):
    """The selected segments as vertex chains (see :func:`segment_chains`)."""
    segs = cx.simplices[cx.simplex_ids(strata)]
    if not len(segs) or segs.shape[1] != 2:
        raise EmptyComplex("polyline resampling needs a nonempty segment complex")
    return segment_chains(segs.tolist())


def segment_chains(segs) -> list:
    """Decompose segments (vertex-id pairs) into vertex chains, open or
    closed, each segment in exactly one chain.

    Open chains come first, each from the lowest-id odd-degree vertex with a
    segment left, then the loops, each from its lowest-id vertex; a walk
    takes the unused segment to the lowest-id neighbour.  A component whose
    degrees are at most 2 is therefore one chain; a branched one is several,
    in the order of their start vertices, not all joined to the ones before.
    """
    adj: dict[int, list] = {}
    for si, (a, b) in enumerate(segs):
        adj.setdefault(a, []).append((si, b))
        adj.setdefault(b, []).append((si, a))
    used = [False] * len(segs)
    chains = []

    def walk(start: int):
        chain = [start]
        cur = start
        while True:
            nxt = [(si, o) for si, o in adj[cur] if not used[si]]
            if not nxt:
                break
            nxt.sort(key=lambda t: (t[1], t[0]))
            si, other = nxt[0]
            used[si] = True
            chain.append(other)
            cur = other
        return chain

    # open chains first, from their lowest-id endpoint
    endpoints = sorted(v for v, lst in adj.items() if len(lst) % 2 == 1)
    for v in endpoints:
        while any(not used[si] for si, _ in adj[v]):
            chains.append(walk(v))
    # remaining loops, from their lowest-id vertex
    for v in sorted(adj):
        while any(not used[si] for si, _ in adj[v]):
            chains.append(walk(v))
    return chains


def resample_polyline(cx: ParetoComplex) -> np.ndarray:
    """Arclength midpoints along every critical polyline, as a (K, n) array.

    For a chain of k segments and length L the candidates sit at arclengths
    (2i-1) L / (2k), i = 1..k: as many points as segments, never coinciding
    with existing polyline vertices.  The chains are taken in the order of
    :func:`segment_chains`, each chain's targets in arclength order.
    """
    if cx.m != 2:
        raise EmptyComplex("polyline resampling applies to two-objective output")
    strata = _target_strata(cx)
    out = []
    for chain in _chains(cx, strata):
        P = cx.positions[chain]
        seg_len = np.linalg.norm(np.diff(P, axis=0), axis=1)
        L = float(seg_len.sum())
        k = len(seg_len)
        if L <= 0.0:
            continue
        targets = (2 * np.arange(1, k + 1) - 1) * L / (2 * k)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        j = np.minimum(np.searchsorted(cum, targets, side="right") - 1, k - 1)
        step = seg_len[j]
        t = np.where(step > 0, (targets - cum[j]) / np.where(step > 0, step, 1.0), 0.5)
        out.append(P[j] + t[:, None] * (P[j + 1] - P[j]))
    if not out:
        raise EmptyComplex("no resampling candidates produced")
    return np.concatenate(out)


def _maximin_fill_with_hosts(cx: ParetoComplex):
    """Greedy accumulated-volume filling of the critical subcomplex.

    Repeatedly picks the simplex whose own measure plus that of its active
    neighbours is largest (ties to the lowest simplex index) and excludes
    it; excluded simplices contribute nothing and cannot be picked again, so
    every simplex is picked once, in greedy order.  A measure is the square
    root of the Gram determinant of the simplex's edges from its first
    vertex, over k!, and 0 where that determinant is not positive.
    Returns ``(points, hosts)``: the (K, n) centroids of the picks and the
    picks as indices into ``cx.simplices``, both in greedy order.
    """
    ids = cx.simplex_ids(_target_strata(cx))
    P = cx.positions[cx.simplices[ids]]
    E = P[:, 1:] - P[:, :1]
    det = np.linalg.det(E @ E.transpose(0, 2, 1))
    vols = np.sqrt(np.where(det <= 0.0, 0.0, det)) / math.factorial(E.shape[1])
    verts = cx.simplices[ids].tolist()
    k = len(ids)
    # adjacency: share a facet of the simplex (vertex for segments, edge for triangles)
    facet_map: dict[tuple, list] = {}
    for si, v in enumerate(verts):
        if len(v) == 2:
            facets = [(v[0],), (v[1],)]
        else:
            facets = [tuple(sorted((v[a], v[b]))) for a, b in ((0, 1), (1, 2), (0, 2))]
        for f in facets:
            facet_map.setdefault(f, []).append(si)
    neighbors = [set() for _ in range(k)]
    for members in facet_map.values():
        for a in members:
            for b in members:
                if a != b:
                    neighbors[a].add(b)
    active = np.ones(k, dtype=bool)

    def score(si: int):
        return vols[si] + sum(vols[j] for j in neighbors[si] if active[j])

    # a pick changes only its own score and its active neighbours' scores
    acc = np.array([score(si) for si in range(k)])
    picks = []
    for _ in range(k):
        best = int(np.argmax(acc))  # argmax takes the lowest index on ties
        picks.append(best)
        active[best] = False
        acc[best] = -np.inf
        for j in neighbors[best]:
            if active[j]:
                acc[j] = score(j)
    return P[picks].mean(axis=1), ids[picks]


def _boundary_candidates(cx: ParetoComplex) -> np.ndarray:
    """Open-chain endpoints and marker positions, re-evaluated every iteration,
    as a (K, n) array, (0, n) when there are none.

    Midpoints alone never shrink the cells around the criticality boundaries,
    where the minors are steep; re-inserting the current boundary estimates
    drives those cells down too.
    """
    try:
        strata = _target_strata(cx)
    except EmptyComplex:
        return np.empty((0, cx.n))
    ends = [v for chain in _chains(cx, strata) if chain[0] != chain[-1]
            for v in (chain[0], chain[-1])]
    return cx.positions[ends + [vid for vid, _kind in cx.markers]]


# ---------------------------------------------------------------------------
# iteration driver
# ---------------------------------------------------------------------------


def _minor_magnitudes(problem: VectorProblem, X) -> np.ndarray:
    """Largest |minor| of the true Jacobian at every row of X (N, n), 0 where
    there is no minor window (m > n)."""
    minors = minors_of_jacobian(problem.jac_at(X), problem.minor_columns)
    return np.abs(minors).max(axis=1, initial=0.0)


def complex_minor_stats(problem: VectorProblem, cx: ParetoComplex):
    """(max, mean) |minor| over refinement-target vertices, from true Jacobians;
    0 on every vertex with no minor window (m > n)."""
    try:
        strata = _target_strata(cx)
    except EmptyComplex:
        return np.inf, np.inf
    vids = sorted(set(cx.simplices[cx.simplex_ids(strata)].ravel().tolist()))
    vals = _minor_magnitudes(problem, cx.positions[vids])
    return float(vals.max()), float(vals.mean())


def _distances(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """(len(Q), len(P)) Euclidean distances from each row of Q to each row of
    P.  The squares are summed column by column, which for small n rounds as
    ``np.linalg.norm(P - q, axis=1)`` does."""
    acc = np.zeros((len(Q), len(P)))
    for k in range(P.shape[1]):
        diff = P[None, :, k] - Q[:, None, k]
        acc += diff * diff
    return np.sqrt(acc)


def _spacing_guard(tess: Tessellation, candidates: np.ndarray) -> np.ndarray:
    """The candidates, in order, that the spacing guard keeps.

    Taken in order, a candidate is kept when it lies at least SPACING_GAMMA
    times the edge of its nearest point away from that point.  The points
    are the nodes, whose edge is their shortest incident edge, and the
    candidates kept before it, whose edge is their distance to their own
    nearest point when they were kept.  The nearest point is the first of
    the least distance: a node before a kept candidate, an earlier kept
    candidate before a later one.

    The distances come in stacked blocks of candidates.  Each block finds
    its candidates' nearest nodes and the earlier candidates strictly closer
    than those; one pass in candidate order then applies the rule.
    """
    K = len(candidates)
    if not K:
        return candidates
    nodes = tess.nodes
    near_d = np.empty(K)
    near_j = np.empty(K, dtype=np.intp)
    closer = []     # (i, j, distance): earlier candidates j < i closer than i's node
    step = max(1, _GUARD_BLOCK // (len(nodes) + K))
    for lo in range(0, K, step):
        block = candidates[lo:lo + step]
        B = len(block)
        d = _distances(nodes, block)
        near_j[lo:lo + B] = j = d.argmin(axis=1)
        near_d[lo:lo + B] = dn = d[np.arange(B), j]
        dc = _distances(candidates[:lo + B], block)
        earlier = np.arange(lo + B) < np.arange(lo, lo + B)[:, None]
        i, j = np.nonzero(earlier & (dc < dn[:, None]))
        closer.append((i + lo, j, dc[i, j]))
    ci, cj, cd = (np.concatenate(c).tolist() for c in zip(*closer))
    kept = [False] * K
    kept_edge = [0.0] * K
    node_edge = tess.min_incident_edge()[near_j].tolist()
    p = 0
    for i, (dist, edge) in enumerate(zip(near_d.tolist(), node_edge)):
        while p < len(ci) and ci[p] == i:
            j = cj[p]
            if kept[j] and cd[p] < dist:
                dist, edge = cd[p], kept_edge[j]
            p += 1
        if not dist < SPACING_GAMMA * edge:
            kept[i] = True
            kept_edge[i] = dist
    return candidates[np.array(kept, dtype=bool)]


def iterate(
    state: RefinementState,
    scheme: str = "polyline",
    budget: Optional[int] = None,
    reference: Optional[ParetoComplex] = None,
) -> RefinementState:
    """One refinement step: candidates, spacing guard, insertion, re-analysis.

    ``budget`` caps the candidates offered to the spacing guard: None for no
    cap, or an integer >= 1; any other value raises ``ValueError``.
    """
    whole = isinstance(budget, (int, np.integer)) and not isinstance(budget, bool)
    if budget is not None and not (whole and budget >= 1):
        raise ValueError(f"budget is {budget!r}, not None or an integer >= 1")
    problem = state.problem
    hosts = None
    if scheme == "polyline":
        candidates = np.concatenate([resample_polyline(state.complex),
                                     _boundary_candidates(state.complex)])
    elif scheme == "maximin":
        candidates, hosts = _maximin_fill_with_hosts(state.complex)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    if budget is not None and len(candidates) > budget:
        # rank the sites by minor magnitude and keep only the worst offenders
        if hosts is not None:
            # a host simplex scores the largest magnitude at its vertices
            cx = state.complex
            host_vids = cx.simplices[hosts]
            vids = np.flatnonzero(np.bincount(host_vids.ravel()))  # np.unique imports numpy.ma
            at = _minor_magnitudes(problem, cx.positions[vids])
            scores = at[np.searchsorted(vids, host_vids)].max(axis=1)
        else:
            scores = _minor_magnitudes(problem, candidates)
        order = np.argsort(scores)[::-1][:budget]
        candidates = candidates[np.sort(order)]
    # spacing guard: keep candidates at least SPACING_GAMMA x (the edge of
    # their nearest point) away from every node and every candidate kept
    # before them
    kept = _spacing_guard(state.tess, candidates)
    if not len(kept):
        raise NoProgress(
            f"all {len(candidates)} candidates rejected by the spacing guard"
        )
    logger.info(
        "iteration %d: inserting %d/%d candidates",
        state.iteration + 1, len(kept), len(candidates),
    )
    tess = insert_nodes(state.tess, kept)
    cx = analyze(problem, tess, order=state.order)
    mx, mean = complex_minor_stats(problem, cx)
    href = None
    if reference is not None:
        strata = _target_strata(cx)
        href = hausdorff(cx, reference, strata=strata).hausdorff
    stats = IterationStats(
        iteration=state.iteration + 1,
        nodes=len(tess.nodes),
        max_minor=mx,
        mean_minor=mean,
        hausdorff_to_ref=href,
    )
    return RefinementState(
        problem=problem,
        tess=tess,
        complex=cx,
        order=state.order,
        history=state.history + [stats],
    )
