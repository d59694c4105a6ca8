"""The exact point-to-simplex distance kernel, stacked over simplices.

A simplex is given as a (k+1, n) coordinate array (a k-simplex embedded in
R^n, k <= 2), and a stack of G of them as a (G, k+1, n) array.
"""

from __future__ import annotations

import numpy as np


def points_to_simplices_distance(points: np.ndarray, simplices: np.ndarray) -> np.ndarray:
    """Exact distances from G stacks of points to G simplices of one dimension.

    Parameters
    ----------
    points : (G, S, n) array, stack g measured against simplex g
    simplices : (G, k+1, n) array with k in {0, 1, 2}

    Returns
    -------
    (G, S) array of distances.

    Each dot product is one stacked matmul, ``(G, S, n) @ (G, n, 1)``, which
    numpy evaluates as one BLAS call per stack, so stack g gets the bits of
    ``points[g] @ v``; everything else is elementwise.  A row's bits therefore
    depend on its stack's size only in that a one-row stack (a BLAS dot)
    rounds differently from a longer one (a BLAS matrix-vector product).
    """
    points = np.asarray(points, dtype=float)
    simplices = np.asarray(simplices, dtype=float)
    k = simplices.shape[1] - 1
    if k == 0:
        return _norm(points - simplices[:, :1])
    if k == 1:
        return _segments(points, simplices[:, 0], simplices[:, 1])
    if k == 2:
        return _triangles(points, simplices[:, 0], simplices[:, 1], simplices[:, 2])
    raise ValueError(f"point-to-simplex distance implemented for k <= 2, got {k}")


def _dots(x, v):
    """``x[g] @ v[g]`` for every g: x is (G, S, n), v is (G, n)."""
    return (x @ v[:, :, None])[:, :, 0]


def _norm(v):
    """Euclidean norms over the last axis.

    The squares are summed one coordinate at a time, in order, which is how
    ``np.linalg.norm(v, axis=-1)`` sums a short axis: the bits are the same,
    at a fraction of the cost of a reduction over a length-2 or -3 axis.
    """
    sq = v * v
    s = sq[..., 0].copy()
    for j in range(1, v.shape[-1]):
        s += sq[..., j]
    return np.sqrt(s)


def _segments(p, a, b):
    ab = b - a
    denom = _dots(ab[:, None], ab)[:, 0]
    point = denom == 0.0  # zero-length segments: the distance to a
    t = _dots(p - a[:, None], ab) / np.where(point, 1.0, denom)[:, None]
    t = np.clip(t, 0.0, 1.0)
    t[point] = 0.0
    proj = a[:, None] + t[:, :, None] * ab[:, None]
    return _norm(p - proj)


def _triangles(p, a, b, c):
    # Project onto the triangle's plane, clamp barycentrically by falling
    # back to the nearest edge when the projection lands outside.  The plane
    # is spanned by ab and w, the part of ac orthogonal to ab, by
    # Gram-Schmidt.  The second pass removes what rounding left of ab in w,
    # which is large beside w on a needle or a cap; with it those project
    # as accurately as a fat triangle, where a Cramer solve of the Gram
    # system cancels.
    ab = b - a
    ac = c - a
    g00 = _dots(ab[:, None], ab)
    point = g00[:, 0] == 0.0
    g00[point] = 1.0
    c0 = _dots(ab[:, None], ac) / g00
    w = ac - c0 * ab
    c1 = _dots(ab[:, None], w) / g00
    w = w - c1 * ab
    ww = _dots(w[:, None], w)
    flat = point | (ww[:, 0] <= 0.0)
    ww[flat] = 1.0
    ap = p - a[:, None]
    # ap's projection is s ab + t ac, with ac = (c0 + c1) ab + w
    t = _dots(ap, w) / ww
    s = _dots(ap, ab) / g00 - t * (c0 + c1)
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    inside[flat] = False
    proj = a[:, None] + s[:, :, None] * ab[:, None] + t[:, :, None] * ac[:, None]
    dist = _norm(p - proj)
    edge = ~inside.all(axis=1)
    if edge.any():
        q, a, b, c = p[edge], a[edge], b[edge], c[edge]
        near = np.minimum(_segments(q, a, b), np.minimum(_segments(q, b, c), _segments(q, a, c)))
        dist[edge] = np.where(inside[edge], dist[edge], near)
    return dist
