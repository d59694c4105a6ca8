"""Filtered orientation and in-sphere signs against an exact oracle.

The oracle scales the given doubles by a common power of two to integers,
which keeps every sign, and expands each determinant over all permutations
(Leibniz), independently of the library's closed forms, error bounds and
elimination.  The symbolic tie-break of exact in-sphere zeros is checked
against an explicit perturbation by a tiny rational eps.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoc.tessellation import Predicates, _Padded

from conftest import leibniz_det, oracle_insphere, oracle_orient, sign


def nudge(x, ulps):
    """x moved by ``ulps`` units in the last place (zero stays zero)."""
    if x == 0.0:
        return x
    toward = math.copysign(math.inf, ulps)
    for _ in range(abs(ulps)):
        x = math.nextafter(x, toward)
    return x


coords = st.floats(-10.0, 10.0, allow_nan=False)
ulps = st.integers(-3, 3)


@st.composite
def on_sphere(draw, n):
    """n+2 points on a sphere, each coordinate nudged by a few ulps."""
    center = draw(st.lists(coords, min_size=n, max_size=n))
    radius = draw(st.floats(0.1, 10.0))
    pts = []
    for _ in range(n + 2):
        u = draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
                 .filter(lambda v: sum(x * x for x in v) > 1e-2))
        norm = math.sqrt(sum(x * x for x in u))
        pts.append([c + radius * x / norm for c, x in zip(center, u)])
    return [[nudge(x, draw(ulps)) for x in p] for p in pts]


@st.composite
def on_flat(draw, n):
    """n+2 points on an (n-1)-flat (collinear in 2-D, coplanar in 3-D), some
    coordinates moved by one ulp."""
    base = [draw(st.lists(coords, min_size=n, max_size=n)) for _ in range(n)]
    pts = list(base)
    for _ in range(2):
        t = draw(st.lists(st.floats(-2.0, 2.0), min_size=n - 1, max_size=n - 1))
        pts.append([base[0][k] + sum(tj * (b[k] - base[0][k]) for tj, b in zip(t, base[1:]))
                    for k in range(n)])
    return [[nudge(x, draw(st.integers(-1, 1))) for x in p] for p in pts]


@st.composite
def on_grid(draw, n):
    """n+2 small integer points: ties are frequent and exactly zero."""
    cell = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    return [[float(x) for x in draw(cell)] for _ in range(n + 2)]


FAMILIES = {"sphere": on_sphere, "flat": on_flat, "grid": on_grid}


def check_signs(n, family, data):
    pts = data.draw(FAMILIES[family](n))
    # the same set far from the origin, where the differences cancel
    shift = data.draw(st.sampled_from([0.0, 1e6]))
    pts = [tuple(x + shift for x in p) for p in pts]
    pred = Predicates(n)
    q, p = pts[:n + 1], pts[n + 1]
    assert pred.orient(q) == oracle_orient(q)
    assert pred.orient(q[1:] + [p]) == oracle_orient(q[1:] + [p])
    assert pred.insphere(q, p) == oracle_insphere(q, p)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=100)
@given(data=st.data())
def test_filtered_signs_match_rational_oracle(n, family, data):
    check_signs(n, family, data)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=100)
@given(data=st.data())
def test_elimination_signs_match_rational_oracle_in_four_dimensions(family, data):
    check_signs(4, family, data)


# Inputs on which the closed form falls inside its error bound: exact ties of
# small integers, and nearly degenerate sets whose exact sign is not zero.
EXACT_PATH_CASES = [
    ("orient", [(0.0, 0.0), (1.0, 1.0), (3.0, 3.0)], None),
    ("orient", [(-0.0, -0.1), (0.3, 0.6), (0.09, 0.10999999999999999)], None),
    ("orient", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (2.0, 3.0, 0.0)], None),
    ("orient", [(-0.8, -0.9, 0.7), (-0.1, 0.5, -1.0), (-0.1, 0.4, -0.5),
                (-0.31000000000000005, 0.03999999999999998, -0.29000000000000004)], None),
    ("insphere", [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)], (0.0, -1.0)),
    ("insphere", [(1.3908022469764716, 0.8954628428387014),
                  (1.3936295630760758, 0.8795603824608874),
                  (0.4166098908991273, 0.6721954522583552)],
     (1.3633374935437519, 0.6120681850335243)),
    ("insphere", [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (-1.0, 0.0, 0.0)],
     (0.0, -1.0, 0.0)),
    ("orient", [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
                (0.0, 0.0, 1.0, 0.0), (2.0, 3.0, 5.0, 0.0)], None),
    ("insphere", [(1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0),
                  (0.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 0.0)], (0.0, -1.0, 0.0, 0.0)),
    ("insphere", [(0.06917212212367169, -0.5503320708264253, -0.6184249819060138),
                  (0.061767662489776554, -0.554808198543898, 0.22359814914112958),
                  (-0.10265553772863817, -0.11011707662932874, -0.22321157157334343),
                  (-0.12178040195295156, -0.3417610588931956, -0.6209445851622213)],
     (-0.2964660481794841, -0.7200909943512674, 0.2756810429524781)),
]


@pytest.mark.parametrize("kind,q,p", EXACT_PATH_CASES)
def test_cases_inside_the_bound_take_the_exact_path(kind, q, p):
    pred = Predicates(len(q[0]))
    if kind == "orient":
        got, want = pred.orient(q), oracle_orient(q)
    else:
        got, want = pred.insphere(q, p), oracle_insphere(q, p)
    assert pred.exact == 1
    assert got == want


def test_filters_decide_clear_cases():
    for n in (2, 3, 4):
        pred = Predicates(n)
        simplex = [(0.0,) * n] + [tuple(float(i == k) for i in range(n)) for k in range(n)]
        assert pred.orient(simplex) == 1
        assert pred.orient(simplex[::-1]) == oracle_orient(simplex[::-1])
        inside = (0.25,) * n
        assert pred.insphere(simplex, inside) == oracle_insphere(simplex, inside)
        assert pred.exact == 0


# ---------------------------------------------------------------------------
# the tie-break of exact in-sphere zeros
# ---------------------------------------------------------------------------

EPS_INV = 10 ** 9    # 1 / eps: small enough for integer coordinates up to 10


def oracle_perturbed_conflict(pts, ids):
    """Whether the last point is strictly inside the sphere through the
    others, once the lift |x|^2 of the point with id i is raised by eps^rank,
    rank 1 for the largest id.

    In integers: the lifts are scaled by EPS_INV^R, R the number of points,
    so node k's is |x_k|^2 EPS_INV^R + EPS_INV^(R - rank k).  The plane
    h = a.x + b through the lifted cell nodes is solved by Cramer's rule, and
    the point is inside when its lift lies below the plane.
    """
    R = len(pts)
    rank = {i: r + 1 for r, i in enumerate(sorted(ids, reverse=True))}
    h = [sum(x * x for x in x_k) * EPS_INV ** R + EPS_INV ** (R - rank[i])
         for x_k, i in zip(pts, ids)]
    *q, p = pts
    M = [list(x_k) + [1] for x_k in q]
    D = leibniz_det(M)
    cramer = [leibniz_det([r[:j] + [h_k] + r[j + 1:] for r, h_k in zip(M, h)])
              for j in range(len(M))]
    plane_at_p = sum(c * x for c, x in zip(cramer, list(p) + [1]))
    return sign(D) * (plane_at_p - D * h[-1]) > 0


def integer_sphere(n):
    """The integer points of the circle x^2 + y^2 = 25 or of the sphere
    x^2 + y^2 + z^2 = 9."""
    r2 = {2: 25, 3: 9}[n]
    r = math.isqrt(r2)
    return [p for p in itertools.product(range(-r, r + 1), repeat=n)
            if sum(x * x for x in p) == r2]


@st.composite
def cospherical(draw, n):
    """n+2 distinct integer points on a sphere about an integer centre."""
    centre = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    pts = draw(st.permutations(integer_sphere(n)))[:n + 2]
    return [[c + x for c, x in zip(centre, p)] for p in pts]


@st.composite
def box_corners(draw, n):
    """n+2 distinct corners of an integer box, which share its sphere; in
    3-D four of them can lie on a face, so a facet and the query point can be
    coplanar."""
    lo = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    side = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    corners = [[a + b * s for a, s, b in zip(lo, side, c)]
               for c in itertools.product((0, 1), repeat=n)]
    return draw(st.permutations(corners))[:n + 2]


@st.composite
def grid_points(draw, n):
    """n+2 distinct points of a small integer grid: collinear and cospherical
    subsets are frequent."""
    cell = st.tuples(*[st.integers(-2, 2)] * n)
    return [list(p) for p in draw(st.lists(cell, min_size=n + 2, max_size=n + 2, unique=True))]


TIE_FAMILIES = {"sphere": cospherical, "box": box_corners, "grid": grid_points}


@pytest.mark.parametrize("family", sorted(TIE_FAMILIES))
@pytest.mark.parametrize("n", [2, 3])
@settings(max_examples=60)
@given(data=st.data())
def test_conflict_ties_match_explicit_perturbation(n, family, data):
    # each point in turn is the query against the cell of the others, under
    # permuted ids
    pts = data.draw(TIE_FAMILIES[family](n))
    ids = data.draw(st.permutations(range(n + 2)))
    nodes = np.array([pts[ids.index(i)] for i in range(n + 2)], dtype=float)
    for j in range(n + 2):
        order = [k for k in range(n + 2) if k != j] + [j]
        if oracle_orient([pts[k] for k in order[:-1]]) == 0:
            continue
        pad = _Padded(nodes, [sorted(ids[k] for k in order[:-1])])  # the cell is cell 0
        want = oracle_perturbed_conflict([pts[k] for k in order], [ids[k] for k in order])
        assert pad._in_conflict(0, ids[j]) == want
