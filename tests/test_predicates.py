"""Filtered orientation and in-sphere signs against an exact oracle.

The oracle scales the given doubles by a common power of two to integers,
which keeps every sign, and expands each determinant over all permutations
(Leibniz), independently of the library's closed forms, error bounds and
elimination.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from paretoc.tessellation import Predicates


def leibniz_det(rows):
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def sign(x):
    return (x > 0) - (x < 0)


def as_integers(points):
    """The points times the largest denominator of their coordinates (all
    denominators of doubles are powers of two, so it is a common one)."""
    exact = [[Fraction(x) for x in p] for p in points]
    scale = max(x.denominator for p in exact for x in p)
    return [[int(x * scale) for x in p] for p in exact]


def oracle_orient(q):
    q = as_integers(q)
    return sign(leibniz_det([[x - y for x, y in zip(r, q[0])] for r in q[1:]]))


def oracle_insphere(q, p):
    *q, p = as_integers(list(q) + [p])
    rows = []
    for r in q:
        d = [x - y for x, y in zip(r, p)]
        rows.append(d + [sum(x * x for x in d)])
    return sign(leibniz_det(rows))


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
