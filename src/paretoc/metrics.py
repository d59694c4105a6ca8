"""Set-wise distances between complexes and convergence-order estimation.

The Hausdorff distance is evaluated with an exact point-to-simplex distance on
the inf side and dense barycentric sampling on the sup side, so the reported
value underestimates the true supremum by at most (max simplex diameter /
density).  The directional means are the average sample-to-set distances.

The inf side is an exact culled search: a short ladder of windowed passes,
then an all-pairs pass.  With r the median bounding-box extent of the
target simplices, the rungs have radii rho = r/4, r/2, r (``_RUNG_START``
times r, then ``_RUNG_STEP`` times the last, up to r).  A rung evaluates each
simplex only on the samples not yet settled whose bounding-box gap to it is
at most 2 rho (its window: a sweep along the first axis bounds that axis, a
filter the others).  A sample that ends a rung within rho of the set is
settled with its exact minimum, because every simplex the rung skipped is
more than 2 rho away.  The samples still farther than r are compared with
every simplex.  So the distances size the windows, not the simplices: most
samples lie well within r/4 of the set and settle in the narrowest rung.
The median keeps r small; the samples it leaves unsettled, near the few
long simplices, are what the all-pairs pass is for.  For point sets r is 0:
one rung settles the samples on a target point, and every other sample
goes to the all-pairs pass.

The target simplices have one vertex count, so every pass is batched
over all of them.  A rung takes the simplices in order of their sweep span
and gathers their windows for ``_GATHER_BLOCKS`` blocks at a time, so the
memory it holds is bounded.  It sorts the gathered windows by size and
stacks them in blocks of about ``_BLOCK_ROWS`` sample rows, each window
padded to the block's largest by repeating its last row (the pad rows are
masked out).  The all-pairs pass stacks as many simplices as fit in a
block.  A block is one call of ``geometry.points_to_simplices_distance``,
which gives every row the bits of the per-simplex call.  The per-sample
minimum (``np.minimum.at`` over the blocks) is exact, so it depends neither
on the blocks nor on which simplices are evaluated beyond the nearest: the
distances are bit-identical to the all-pairs scan.  Windows are padded to at
least two rows, because a one-row stack rounds differently; with a single
sample every stack has one row, as in the all-pairs scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import ParetoComplex
from .errors import EmptyComplex, InsufficientData
from .geometry import points_to_simplices_distance

DEFAULT_DENSITY = 20


@dataclass
class DistanceReport:
    hausdorff: float
    mean_a_to_b: float
    mean_b_to_a: float
    sample_count: int

    def __str__(self) -> str:
        return (
            f"hausdorff={self.hausdorff:.10e} "
            f"mean_a_to_b={self.mean_a_to_b:.10e} "
            f"mean_b_to_a={self.mean_b_to_a:.10e} "
            f"samples={self.sample_count}"
        )


def _as_point_set(obj, strata=None):
    """Normalize input to (positions, (S, k) np.intp array of simplex vertex ids).

    Accepts a ParetoComplex (its rows in ``strata``), an (S, n) point array
    (S 0-simplices), or a (positions, simplices) pair whose simplices all
    have one vertex count.
    """
    if isinstance(obj, ParetoComplex):
        return obj.positions, obj.simplices[obj.simplex_ids(strata)]
    if isinstance(obj, tuple) and len(obj) == 2:
        if len({len(ids) for ids in obj[1]}) > 1:
            raise ValueError("simplices of mixed vertex counts")
        ids = np.asarray(obj[1], dtype=np.intp)
        return np.asarray(obj[0], dtype=float), ids.reshape(len(ids), -1 if ids.size else 0)
    pos = np.atleast_2d(np.asarray(obj, dtype=float))
    return pos, np.arange(len(pos))[:, None]


def _sample_simplices(positions, simplices, density):
    """Barycentric samples of every simplex of an (S, k) id array, in simplex order."""
    P = positions[simplices]
    if P.shape[1] > 3:
        raise ValueError("sampling implemented for simplices up to triangles")
    if P.shape[1] == 2:
        edge = np.linspace(0.0, 1.0, max(2, density + 1))[:, None]
        P = P[:, :1] * (1 - edge) + P[:, 1:] * edge
    elif P.shape[1] == 3:
        k = max(1, density)
        face = np.array([[a, b, k - a - b] for a in range(k + 1) for b in range(k + 1 - a)],
                        dtype=float) / k
        # one (3,) @ (3, n) product per sample, as a stack of them
        P = (face[None, :, None, :] @ P[:, None])[:, :, 0]
    return P.reshape(-1, positions.shape[1])


# A rung's window in units of its radius.  Any factor >= 1 settles samples
# exactly; the second unit is a margin for the rounding of gaps and distances.
_WINDOW = 2.0

# The first rung's radius in units of r, and the factor from one rung to the
# next; the last rung's radius is r.
_RUNG_START = 0.25
_RUNG_STEP = 2.0

# Sample rows per stacked kernel call: enough to spread numpy's per-call
# cost, few enough that the temporaries stay small.  A rung gathers the
# windows of a few blocks' worth of rows at a time, to sort them by size.
_BLOCK_ROWS = 4096
_GATHER_BLOCKS = 8


def _runs(items, sizes, cap):
    """``items`` cut into consecutive runs whose ``sizes`` add up to about ``cap``."""
    runs = np.split(items, np.flatnonzero(np.diff(np.cumsum(sizes) // cap)) + 1)
    return [g for g in runs if len(g)]


def _min_distances(samples, positions, simplices):
    """Per sample, the distance to the nearest of the simplices, an (S, k)
    array of vertex ids (see the module doc)."""
    d = np.full(len(samples), np.inf)
    if not len(simplices):
        return d
    pad = min(2, len(samples))
    P = positions[simplices]
    lo, hi = P.min(axis=1), P.max(axis=1)
    # the median extent (the upper one of an even count), by a sort:
    # np.median imports numpy.ma on first use
    extent = np.sort((hi - lo).max(axis=1))
    r = float(extent[len(extent) // 2])
    order = np.argsort(samples[:, 0], kind="stable")  # the samples not yet settled
    radius = _RUNG_START * r
    while len(order):
        w = _WINDOW * radius
        columns = [samples[order, j] for j in range(samples.shape[1])]
        start = np.searchsorted(columns[0], lo[:, 0] - w, "left")
        stop = np.searchsorted(columns[0], hi[:, 0] + w, "right")
        by_span = np.argsort(stop - start, kind="stable")
        for g in _runs(by_span, (stop - start)[by_span], _GATHER_BLOCKS * _BLOCK_ROWS):
            rows, counts = _windows(columns, order, start[g], stop[g], lo[g], hi[g], w)
            _window_pass(d, samples, P[g], rows, counts, pad)
        order = order[d[order] > radius]
        if radius >= r:
            break
        radius = min(_RUNG_STEP * radius, r)
    rest = np.flatnonzero(d > r)
    if len(rest) < pad:
        rest = np.repeat(rest, 2)
    if len(rest):
        X = samples[rest]
        step = max(1, _BLOCK_ROWS // len(rest))
        for i in range(0, len(P), step):
            B = P[i:i + step]
            near = points_to_simplices_distance(np.broadcast_to(X, (len(B),) + X.shape), B)
            d[rest] = np.minimum(d[rest], near.min(axis=0))
    return d


def _windows(columns, order, start, stop, lo, hi, w):
    """Per simplex, the samples of ``order[start:stop]`` within gap ``w`` of its box.

    ``columns`` holds the sample coordinates in ``order``, one array per axis.
    Returns the rows of all simplices concatenated and the count per simplex.
    """
    size = stop - start
    # the smallest type that indexes the samples: this is the largest array
    rows = np.empty(size.sum(), dtype=np.min_scalar_type(order.max()))
    counts = np.empty(len(size), dtype=np.intp)
    kept = 0
    for g in _runs(np.arange(len(size)), size, _BLOCK_ROWS):  # filter block by block
        s = size[g]
        end = np.cumsum(s)
        at = np.arange(end[-1]) + np.repeat(start[g] - (end - s), s)
        keep = np.ones(len(at), dtype=bool)
        # the sweep has bounded the first axis
        for x, l, h in zip(columns[1:], lo[g, 1:].T, hi[g, 1:].T):
            v = x[at]
            keep &= np.maximum(np.repeat(l, s) - v, v - np.repeat(h, s)) <= w
        keep = np.flatnonzero(keep)
        rows[kept:kept + len(keep)] = order[at[keep]]
        kept += len(keep)
        counts[g] = np.diff(np.searchsorted(keep, end), prepend=0)
    return rows[:kept], counts


def _window_pass(d, samples, P, rows, counts, pad):
    """A rung: each simplex of ``P`` on its window, in blocks by window size."""
    first = np.cumsum(counts) - counts
    by_size = np.argsort(counts, kind="stable")
    by_size = by_size[counts[by_size] > 0]
    for g in _runs(by_size, counts[by_size], _BLOCK_ROWS):
        c = counts[g][:, None]
        col = np.arange(max(int(c[-1, 0]), pad))
        R = rows[first[g][:, None] + np.minimum(col, c - 1)]
        dist = points_to_simplices_distance(samples[R], P[g])
        real = col < c
        np.minimum.at(d, R[real], dist[real])


def hausdorff(a, b, density: int = DEFAULT_DENSITY, strata=None) -> DistanceReport:
    """Symmetric Hausdorff distance plus directional mean distances.

    ``a`` and ``b`` are complexes, point arrays or ``(positions, simplices)``
    pairs, each with one simplex vertex count.  ``density`` is the number of
    samples per simplex diameter on the sup side.
    """
    pos_a, simp_a = _as_point_set(a, strata)
    pos_b, simp_b = _as_point_set(b, strata)
    if not len(simp_a) or not len(simp_b):
        raise EmptyComplex("hausdorff needs two nonempty complexes")
    if pos_a.shape[1] != pos_b.shape[1]:
        raise ValueError("ambient dimensions differ")
    samples_a = _sample_simplices(pos_a, simp_a, density)
    samples_b = _sample_simplices(pos_b, simp_b, density)
    d_ab = _min_distances(samples_a, pos_b, simp_b)
    d_ba = _min_distances(samples_b, pos_a, simp_a)
    return DistanceReport(
        hausdorff=float(max(d_ab.max(), d_ba.max())),
        mean_a_to_b=float(d_ab.mean()),
        mean_b_to_a=float(d_ba.mean()),
        sample_count=len(samples_a) + len(samples_b),
    )


def max_sample_spacing(obj, density: int = DEFAULT_DENSITY) -> float:
    """Upper bound on the sup-side sampling resolution for ``hausdorff``."""
    pos, simp = _as_point_set(obj)
    i, j = np.triu_indices(simp.shape[1], 1)
    D = (pos[simp[:, i]] - pos[simp[:, j]]).reshape(-1, pos.shape[1])
    # each edge length with the bits of np.linalg.norm on that edge (see
    # Tessellation.min_incident_edge)
    diam = np.sqrt((D[:, None, :] @ D[:, :, None])[:, 0, 0]).max(initial=0.0)
    return float(diam) / max(1, density)


def convergence_slope(pairs) -> float:
    """Least-squares slope of log(d) against log(delta).

    Needs at least three positive (delta, d) pairs.
    """
    pairs = [(float(a), float(d)) for a, d in pairs]
    if len(pairs) < 3:
        raise InsufficientData("need at least 3 (delta, distance) pairs")
    if any(a <= 0 or d <= 0 for a, d in pairs):
        raise InsufficientData("deltas and distances must be positive")
    x = np.log([a for a, _ in pairs])
    y = np.log([d for _, d in pairs])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
