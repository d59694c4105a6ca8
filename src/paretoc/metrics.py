"""Set-wise distances between complexes and convergence-order estimation.

The Hausdorff distance is evaluated with an exact point-to-simplex distance on
the inf side and dense barycentric sampling on the sup side, so the reported
value underestimates the true supremum by at most (max simplex diameter /
density).  The directional means are the average sample-to-set distances.

The inf side is an exact culled search.  With r the largest bounding-box
extent of the target simplices, each simplex is first evaluated only on the
samples whose bounding-box gap to it is at most 2r.  A sample that ends this
pass within r of the set is settled, because every simplex it skipped is more
than 2r away; the others are compared with every simplex.  The minimum does
not depend on which simplices are evaluated beyond the nearest, so the
distances are bit-identical to the all-pairs scan.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .continuation import ParetoComplex
from .errors import EmptyComplex, InsufficientData
from .geometry import points_to_simplex_distance, simplex_diameter

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
    """Normalize input to (positions, simplex id tuples).

    Accepts a ParetoComplex, an (S, n) point array (treated as 0-simplices),
    or a (positions, simplices) pair.
    """
    if isinstance(obj, ParetoComplex):
        ids = obj.simplex_ids(strata)
        simplices = [obj.simplices[i][0] for i in ids]
        return obj.positions, simplices
    if isinstance(obj, tuple) and len(obj) == 2:
        pos = np.asarray(obj[0], dtype=float)
        return pos, [tuple(s) for s in obj[1]]
    pos = np.atleast_2d(np.asarray(obj, dtype=float))
    return pos, [(i,) for i in range(len(pos))]


def _sample_simplices(positions, simplices, density):
    out = []
    for ids in simplices:
        P = positions[list(ids)]
        if len(ids) == 1:
            out.append(P)
        elif len(ids) == 2:
            t = np.linspace(0.0, 1.0, max(2, density + 1))[:, None]
            out.append(P[0] * (1 - t) + P[1] * t)
        elif len(ids) == 3:
            k = max(1, density)
            for a in range(k + 1):
                for b in range(k + 1 - a):
                    w = np.array([a, b, k - a - b], dtype=float) / k
                    out.append((w @ P)[None, :])
        else:
            raise ValueError("sampling implemented for simplices up to triangles")
    return np.vstack(out) if out else np.empty((0, positions.shape[1]))


# Pass-1 window in units of r.  Any factor >= 1 settles samples exactly; the
# second unit is a margin for the rounding of gaps and distances.
_WINDOW = 2.0


def _min_distances(samples, positions, simplices):
    """Per sample, the distance to the nearest simplex (see the module doc)."""
    d = np.full(len(samples), np.inf)
    if not simplices:
        return d

    def update(rows, P):
        # numpy takes another matmul path for one row, which rounds
        # differently; two rows give the bits of the full-array call
        if len(rows) == 1 and len(samples) > 1:
            rows = np.repeat(rows, 2)
        d[rows] = np.minimum(d[rows], points_to_simplex_distance(samples[rows], P))

    lengths = np.array([len(ids) for ids in simplices])
    flat = positions[np.concatenate([list(ids) for ids in simplices])]
    offsets = np.cumsum(lengths) - lengths
    lo = np.minimum.reduceat(flat, offsets, axis=0)
    hi = np.maximum.reduceat(flat, offsets, axis=0)
    r = float((hi - lo).max())
    w = _WINDOW * r
    order = np.argsort(samples[:, 0], kind="stable")
    xs = samples[order, 0]
    start = np.searchsorted(xs, lo[:, 0] - w, "left")
    stop = np.searchsorted(xs, hi[:, 0] + w, "right")
    for k, ids in enumerate(simplices):
        rows = order[start[k]:stop[k]]
        S = samples[rows]
        gap = np.maximum(lo[k] - S, S - hi[k]).max(axis=1)
        rows = rows[gap <= w]
        if len(rows):
            update(rows, positions[list(ids)])
    rest = np.flatnonzero(d > r)
    if len(rest):
        for ids in simplices:
            update(rest, positions[list(ids)])
    return d


def hausdorff(a, b, density: int = DEFAULT_DENSITY, strata=None) -> DistanceReport:
    """Symmetric Hausdorff distance plus directional mean distances.

    ``density`` is the number of samples per simplex diameter on the sup side.
    """
    pos_a, simp_a = _as_point_set(a, strata)
    pos_b, simp_b = _as_point_set(b, strata)
    if not simp_a or not simp_b:
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


def max_sample_spacing(obj, density: int = DEFAULT_DENSITY, strata=None) -> float:
    """Upper bound on the sup-side sampling resolution for ``hausdorff``."""
    pos, simp = _as_point_set(obj, strata)
    diam = 0.0
    for ids in simp:
        diam = max(diam, simplex_diameter(pos[list(ids)]))
    return diam / max(1, density)


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
