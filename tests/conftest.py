"""Shared oracles for the test suite.

These deliberately re-derive geometry from first principles (lifted
least-squares circumspheres, scipy's qhull wrapper, brute-force scans) so
they stay independent of the library's own predicate implementations.
"""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

# Property tests draw the same examples on every run and stay cheap: no
# example database, no per-example deadline, a bounded example count.
settings.register_profile(
    "paretoc", derandomize=True, deadline=None, max_examples=20, database=None
)
settings.load_profile("paretoc")


def pytest_addoption(parser):
    parser.addoption(
        "--run-6d",
        action="store_true",
        default=False,
        help="run the 6-D demo problem (slow, best-effort)",
    )


def circumsphere(pts):
    """Circumcenter and radius of a full-dimensional simplex (oracle)."""
    pts = np.asarray(pts, dtype=float)
    A = 2.0 * (pts[1:] - pts[0])
    b = (pts[1:] ** 2).sum(axis=1) - (pts[0] ** 2).sum()
    c = np.linalg.solve(A, b)
    return c, float(np.linalg.norm(pts[0] - c))


def cell_tuples(tess):
    """The cells of a tessellation as node-id tuples, in their row order."""
    return list(map(tuple, tess.cells.tolist()))


def simplex_pairs(cx):
    """The simplices of a complex as (vertex-id tuple, stratum) pairs, in row order."""
    return list(zip(map(tuple, cx.simplices.tolist()), cx.stratum))


def vertex_keys(analyses):
    """The key texts of the rows that the pieces of ``analyses`` list,
    sorted: the vertices of the complex that glue makes of them, in vertex
    order."""
    keys = analyses.table.keys
    return sorted({keys[r] for parts in analyses.strata.values() for p in parts
                   for r in p.ring[p.slots()].tolist()})


def brute_delaunay_violation(tess):
    """Worst 'inside-circumsphere' margin over every (cell, node) pair.

    Negative or ~0 means the tessellation is Delaunay (up to cospherical
    ties); clearly positive means a violation.
    """
    pts = tess.nodes
    worst = -np.inf
    for cell in tess.cells:
        c, r = circumsphere(pts[list(cell)])
        d = np.linalg.norm(pts - c, axis=1)
        mask = np.ones(len(pts), dtype=bool)
        mask[list(cell)] = False
        if mask.any():
            worst = max(worst, float((r - d[mask]).max() / max(r, 1e-300)))
    return worst


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


def exact_delaunay_violations(tess):
    """The (cell, node) pairs with the node strictly inside the cell's
    circumsphere, decided by the integer oracles on the given coordinates;
    a node on the sphere is a tie, not a violation.

    The lifted determinant of oracle_insphere times the cell's orientation
    is positive inside the sphere in even dimensions and negative in odd.
    """
    pts = as_integers(tess.nodes.tolist())
    out = []
    for cell in tess.cells:
        q = [pts[i] for i in cell]
        inside = (-1) ** tess.n * oracle_orient(q)
        out += [(cell, k) for k, p in enumerate(pts) if inside * oracle_insphere(q, p) > 0]
    return out


def scipy_delaunay_cells(pts):
    from scipy.spatial import Delaunay

    return sorted(tuple(sorted(int(i) for i in s)) for s in Delaunay(pts).simplices)


def facet_counts(tess):
    """Map each facet (sorted n-tuple of node ids) to its number of cells."""
    return Counter(f for cell in tess.cells
                   for f in itertools.combinations(cell, len(cell) - 1))


def simplex_volume(pts):
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[1]
    edges = pts[1:] - pts[0]
    return abs(float(np.linalg.det(edges))) / np.prod(np.arange(1, n + 1))


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
