"""The per-piece clip rules, one scalar piece at a time: an oracle for the
stage-wide ``continuation.clip_polytope``.

These are the rules the analysis core applied piece by piece before the
clips became one array pass per stage.  A vertex is a :class:`Vertex` with
a ``key`` text and the arrays ``x``, ``lam``, ``grad_interp``,
``hess_interp`` and ``sigma``, the last three possibly None; a piece is a
tuple of vertices, a pair for a segment and three or more, in cyclic
order, for a polygon.
"""

from paretoc.continuation import CLIP_SNAP_REL


class Vertex:
    """A vertex by identity, with the given fields."""

    def __init__(self, **fields):
        self.__dict__.update(fields)


def interp_vertex(a, b, t: float, stage):
    """Linear interpolation between two vertices, at t from a to b.

    The endpoints are put in key order, so the cut of an edge has one key
    from either side; t then runs from the lower key.  A field missing at an
    endpoint is missing here.
    """
    if b.key < a.key:
        a, b = b, a
        t = 1.0 - t

    def lerp(u, v):
        if u is None or v is None:
            return None
        return u + t * (v - u)

    return Vertex(
        key=f"('c', {stage!r}, {a.key}, {b.key})",
        x=a.x + t * (b.x - a.x),
        grad_interp=lerp(a.grad_interp, b.grad_interp),
        lam=lerp(a.lam, b.lam),
        hess_interp=lerp(a.hess_interp, b.hess_interp),
        sigma=lerp(a.sigma, b.sigma),
    )


def clip(pieces, values, stage):
    """Keep the part of each piece where the per-vertex scalar is >= 0.

    ``values`` maps each vertex to its scalar.  A value at or below
    ``CLIP_SNAP_REL`` times the largest |value| of its piece counts as zero.
    Returns ``(kept, dropped, boundary_vertices)``, each a list.
    """

    def cut(a, b, t):
        return interp_vertex(a, b, t, stage)

    kept, dropped, boundary = [], [], []
    for piece in pieces:
        svals = [values[v] for v in piece]
        snap = CLIP_SNAP_REL * max(map(abs, svals), default=0.0)
        svals = [0.0 if abs(s) <= snap else s for s in svals]
        split = split_segment if len(piece) == 2 else split_polygon
        k, d, b = split(piece, svals, cut)
        kept.extend(k)
        dropped.extend(d)
        boundary.extend(b)
    return kept, dropped, boundary


def split_segment(piece: tuple, s, cut):
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


def split_polygon(piece: tuple, s, cut):
    """Both sides of a polygon; each vertex joins a side at most once and
    a cut vertex is new, so a side is a polygon when it has three vertices."""
    k = len(piece)
    pos, neg, boundary = [], [], []
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
