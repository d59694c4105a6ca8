import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoc import metrics
from paretoc.errors import EmptyComplex, InsufficientData
from paretoc.geometry import points_to_simplices_distance
from paretoc.metrics import (
    _min_distances,
    convergence_slope,
    hausdorff,
    max_sample_spacing,
)


def _segments(points, segs):
    return (np.asarray(points, dtype=float), [tuple(s) for s in segs])


def test_identity_zero():
    A = _segments([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]], [(0, 1), (1, 2)])
    rep = hausdorff(A, A)
    assert rep.hausdorff < 1e-12
    assert rep.mean_a_to_b < 1e-12


def test_point_to_point():
    rep = hausdorff(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
    assert rep.hausdorff == pytest.approx(5.0)
    assert rep.mean_a_to_b == pytest.approx(5.0)
    assert rep.mean_b_to_a == pytest.approx(5.0)


def test_segment_vs_point_frozen():
    # A = segment (0,0)-(1,0), B = point (0.5,2): sup over A at the endpoints
    # gives sqrt(0.25 + 4), the B side gives 2; hausdorff = sqrt(4.25)
    A = _segments([[0.0, 0.0], [1.0, 0.0]], [(0, 1)])
    B = np.array([[0.5, 2.0]])
    rep = hausdorff(A, B, density=64)
    assert rep.hausdorff == pytest.approx(np.sqrt(4.25), abs=1e-9)
    assert rep.mean_b_to_a == pytest.approx(2.0)


def test_symmetry(rng):
    pts_a = rng.uniform(-1, 1, (7, 2))
    pts_b = rng.uniform(-1, 1, (6, 2))
    A = _segments(pts_a, [(i, i + 1) for i in range(6)])
    B = _segments(pts_b, [(i, i + 1) for i in range(5)])
    r1 = hausdorff(A, B)
    r2 = hausdorff(B, A)
    assert r1.hausdorff == pytest.approx(r2.hausdorff)
    assert r1.mean_a_to_b == pytest.approx(r2.mean_b_to_a)


def test_report_ordering_invariant(rng):
    pts_a = rng.uniform(-1, 1, (5, 3))
    pts_b = rng.uniform(-1, 1, (5, 3))
    rep = hausdorff(pts_a, pts_b)
    assert rep.hausdorff >= max(rep.mean_a_to_b, rep.mean_b_to_a) >= 0.0


def test_triangle_inequality_within_sampling(rng):
    sets = []
    for _ in range(3):
        pts = rng.uniform(-1, 1, (6, 2))
        sets.append(_segments(pts, [(i, i + 1) for i in range(5)]))
    d = lambda X, Y: hausdorff(X, Y, density=50).hausdorff
    slack = 2 * max(max_sample_spacing(s, density=50) for s in sets)
    assert d(sets[0], sets[2]) <= d(sets[0], sets[1]) + d(sets[1], sets[2]) + slack


def test_density_refinement_bound(rng):
    pts_a = rng.uniform(-1, 1, (6, 2))
    pts_b = rng.uniform(-1, 1, (6, 2))
    A = _segments(pts_a, [(i, i + 1) for i in range(5)])
    B = _segments(pts_b, [(i, i + 1) for i in range(5)])
    r1 = hausdorff(A, B, density=20)
    r2 = hausdorff(A, B, density=40)
    bound = max(max_sample_spacing(A, density=20), max_sample_spacing(B, density=20))
    assert abs(r1.hausdorff - r2.hausdorff) <= bound


def test_sample_spacing_matches_per_edge_norms(rng):
    # the stacked edge lengths have the bits of np.linalg.norm on each edge
    pts = rng.uniform(-1, 1, (40, 3))
    tris = [tuple(rng.choice(40, 3, replace=False)) for _ in range(60)]
    for obj, density in (((pts, tris), 7), (_segments(pts, [(i, i + 1) for i in range(39)]), 1),
                         (pts, 20)):
        ids = obj[1] if isinstance(obj, tuple) else [(i,) for i in range(len(pts))]
        diam = max((float(np.linalg.norm(pts[a] - pts[b]))
                    for s in ids for a, b in itertools.combinations(s, 2)), default=0.0)
        assert max_sample_spacing(obj, density=density) == diam / density


def test_triangles_supported():
    A = (np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]), [(0, 1, 2)])
    B = np.array([[0.0, 0.0, 1.0]])
    rep = hausdorff(A, B, density=30)
    assert rep.hausdorff == pytest.approx(np.sqrt(2.0), abs=1e-6)


def test_empty_complex_error():
    with pytest.raises(EmptyComplex):
        hausdorff((np.zeros((0, 2)), []), np.array([[0.0, 0.0]]))


def test_convergence_slope_exact():
    deltas = [0.5, 0.25, 0.125]
    assert convergence_slope([(d, d**2) for d in deltas]) == pytest.approx(2.0)
    assert convergence_slope([(d, d) for d in deltas]) == pytest.approx(1.0)


def test_convergence_slope_errors():
    with pytest.raises(InsufficientData):
        convergence_slope([(0.5, 0.25), (0.25, 0.06)])
    with pytest.raises(InsufficientData):
        convergence_slope([(0.5, 0.0), (0.25, 0.1), (0.125, 0.2)])


# ---------------------------------------------------------------------------
# the stacked kernel and the culled search against the per-simplex scan
# ---------------------------------------------------------------------------

# The per-simplex kernels that geometry.points_to_simplices_distance replaced,
# kept verbatim apart from the dispatcher's name (it was
# points_to_simplex_distance) and the triangle's projection, which is the
# stacked kernel's reorthogonalized Gram-Schmidt: the oracle that the stacked
# kernel and the culled search are held to, bit for bit.  Its accuracy is
# checked against exact rational arithmetic below.


def per_simplex_distance(points: np.ndarray, simplex: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each point to a 0/1/2-simplex.

    Parameters
    ----------
    points : (S, n) array
    simplex : (k+1, n) array with k in {0, 1, 2}

    Returns
    -------
    (S,) array of distances.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    simplex = np.asarray(simplex, dtype=float)
    k = simplex.shape[0] - 1
    if k == 0:
        return np.linalg.norm(points - simplex[0], axis=1)
    if k == 1:
        return _points_to_segment(points, simplex[0], simplex[1])
    if k == 2:
        return _points_to_triangle(points, simplex[0], simplex[1], simplex[2])
    raise ValueError(f"point-to-simplex distance implemented for k <= 2, got {k}")


def _points_to_segment(p, a, b):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return np.linalg.norm(p - a, axis=1)
    t = np.clip((p - a) @ ab / denom, 0.0, 1.0)
    proj = a + t[:, None] * ab
    return np.linalg.norm(p - proj, axis=1)


def _points_to_triangle(p, a, b, c):
    # Project onto the triangle plane, clamp barycentrically by falling back
    # to the nearest edge when the projection lands outside.
    ab = b - a
    ac = c - a
    g00 = float(ab @ ab)
    if g00 == 0.0:
        ww = 0.0
    else:
        c0 = float(ab @ ac) / g00
        w = ac - c0 * ab
        c1 = float(ab @ w) / g00
        w = w - c1 * ab
        ww = float(w @ w)
    if ww <= 0.0:
        return np.minimum(
            _points_to_segment(p, a, b),
            np.minimum(_points_to_segment(p, b, c), _points_to_segment(p, a, c)),
        )
    ap = p - a
    t = (ap @ w) / ww
    s = (ap @ ab) / g00 - t * (c0 + c1)
    inside = (s >= 0.0) & (t >= 0.0) & (s + t <= 1.0)
    proj = a + s[:, None] * ab + t[:, None] * ac
    dist = np.linalg.norm(p - proj, axis=1)
    if not np.all(inside):
        edge = np.minimum(
            _points_to_segment(p, a, b),
            np.minimum(_points_to_segment(p, b, c), _points_to_segment(p, a, c)),
        )
        dist = np.where(inside, dist, edge)
    return dist


def all_pairs_min_distances(samples, positions, simplices):
    """Reference: every sample against every simplex, one simplex at a time."""
    d = np.full(len(samples), np.inf)
    for ids in simplices:
        d = np.minimum(d, per_simplex_distance(samples, positions[list(ids)]))
    return d


def random_target(rng, k, n, count, degenerate, extent=(-3, 0)):
    """``count`` k-simplices in R^n, as positions and a (count, k+1) id array,
    with extents from 10**extent[0] to 10**extent[1], some of them degenerate."""
    positions = []
    for _ in range(count):
        base = rng.uniform(-1.0, 1.0, n)
        P = base + rng.uniform(-1.0, 1.0, (k + 1, n)) * 10.0 ** rng.uniform(*extent)
        if degenerate and k and rng.random() < 0.5:
            if k == 1 or rng.random() < 0.5:
                P[-1] = P[0]  # zero-length edge
            else:
                P[2] = P[0] + 0.37 * (P[1] - P[0])  # collinear triangle
        positions.extend(P)
    return np.array(positions), np.arange(count * (k + 1)).reshape(count, k + 1)


KN = [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)]


@settings(max_examples=60)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(KN),
    st.integers(1, 6),
    st.integers(1, 40),
    st.booleans(),
)
def test_stacked_kernel_matches_per_simplex_kernel(seed, kn, stacks, rows, degenerate):
    # every stack of a stacked call against the per-simplex kernel
    k, n = kn
    rng = np.random.default_rng(seed)
    positions, simplices = random_target(rng, k, n, stacks, degenerate)
    P = positions[simplices]
    X = rng.uniform(-1.5, 1.5, (stacks, rows, n))
    got = points_to_simplices_distance(X, P)
    for g in range(stacks):
        expect = per_simplex_distance(X[g], P[g])
        assert np.array_equal(got[g], expect)


def _exact_sq_to_segment(p, a, b):
    ab = [y - x for x, y in zip(a, b)]
    ap = [y - x for x, y in zip(a, p)]
    den = sum(x * x for x in ab)
    t = 0 if den == 0 else min(max(sum(x * y for x, y in zip(ap, ab)) / den, 0), 1)
    return sum((x - t * y) ** 2 for x, y in zip(ap, ab))


def exact_distance_to_triangle(p, T):
    """The distance from p to the triangle T (3, n): its square in rational
    arithmetic on the floats' exact values, then one float square root."""
    p = [Fraction(float(x)) for x in p]
    a, b, c = ([Fraction(float(x)) for x in v] for v in T)
    edges = min(_exact_sq_to_segment(p, a, b), _exact_sq_to_segment(p, b, c),
                _exact_sq_to_segment(p, a, c))
    ab = [y - x for x, y in zip(a, b)]
    ac = [y - x for x, y in zip(a, c)]
    ap = [y - x for x, y in zip(a, p)]
    g00 = sum(x * x for x in ab)
    g01 = sum(x * y for x, y in zip(ab, ac))
    g11 = sum(x * x for x in ac)
    det = g00 * g11 - g01 * g01
    if det == 0:
        return math.sqrt(edges)
    d0 = sum(x * y for x, y in zip(ap, ab))
    d1 = sum(x * y for x, y in zip(ap, ac))
    s = (g11 * d0 - g01 * d1) / det
    t = (g00 * d1 - g01 * d0) / det
    if s < 0 or t < 0 or s + t > 1:
        return math.sqrt(edges)
    return math.sqrt(sum((x - s * y - t * z) ** 2 for x, y, z in zip(ap, ab, ac)))


# Largest |kernel - exact| over the distance from the point to the farthest
# vertex, measured on 8,000 triangles drawn as below: 1.5e-15.  A Cramer
# solve of the Gram system reads 1.0 there, and 0.9997 anchored at the vertex
# opposite the longest edge.
SLIVER_REL_ERROR = 1e-14


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.sampled_from(["needle", "cap"]),
    st.integers(0, 18),
)
def test_triangle_kernel_is_accurate_on_slivers(seed, n, kind, thinness):
    # a needle has one edge 10**-thinness times the others; a cap has its
    # apex that far from its long edge (thinness 18: on the edge, rounded)
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (2, n))
    thin = 0.0 if thinness == 18 else 10.0 ** -thinness * np.linalg.norm(b - a)
    off = rng.normal(size=n)
    off -= (off @ (b - a)) / ((b - a) @ (b - a)) * (b - a)
    if kind == "needle":
        c = b + thin * rng.normal(size=n)
    else:
        c = a + rng.uniform(0.1, 0.9) * (b - a) + thin * off / np.linalg.norm(off)
    T = np.array([a, b, c])[rng.permutation(3)]
    near = T[rng.integers(3, size=8)] + rng.normal(size=(8, n)) * 10.0 ** rng.uniform(-8, 0, (8, 1))
    X = np.vstack([T, T.mean(axis=0), near])
    got = points_to_simplices_distance(X[None], T[None])[0]
    for x, d in zip(X, got):
        scale = np.linalg.norm(T - x, axis=1).max()
        assert abs(d - exact_distance_to_triangle(x, T)) <= SLIVER_REL_ERROR * scale


def test_triangles_of_a_complex_contain_their_vertices_and_centroids():
    # tri_quadratic's fans hold needles: at 15^3 the Cramer solve put a
    # centroid 5.6e-10 from its own triangle; measured now: 3.2e-16
    from paretoc.continuation import analyze
    from paretoc.problems import registry_get
    from paretoc.tessellation import kuhn_tessellation

    p = registry_get("tri_quadratic")
    cx = analyze(p, kuhn_tessellation(p.domain_box, [15, 15, 15]))
    P = cx.positions[cx.simplices]
    X = np.concatenate([P, P.mean(axis=1, keepdims=True)], axis=1)
    assert points_to_simplices_distance(X, P).max() <= 2e-15


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(KN),
    st.integers(1, 40),
    st.integers(1, 300),
    st.booleans(),
    st.sampled_from([0.0, 1.0, 30.0]),
)
def test_culled_distances_are_bit_identical(seed, kn, count, samples, degenerate, far):
    k, n = kn
    rng = np.random.default_rng(seed)
    positions, simplices = random_target(rng, k, n, count, degenerate)
    S = rng.uniform(-1.5, 1.5, (samples, n))
    S[: samples // 3] *= 1.0 + far  # some samples far outside: pass 2
    expect = all_pairs_min_distances(S, positions, simplices)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)


def mixed_case(rng, k, n, short, long, samples, degenerate):
    """Many short simplices and a few long ones, with samples near both and far.

    The median extent is a short one, so the samples near a long simplex but
    farther than r from the set reach the all-pairs pass.
    """
    pos_s, simp_s = random_target(rng, k, n, short, degenerate, extent=(-3, -2))
    pos_l, simp_l = random_target(rng, k, n, long, degenerate, extent=(-0.3, 0.2))
    positions = np.vstack([pos_s, pos_l])
    simplices = np.vstack([simp_s, simp_l + len(pos_s)])
    S = positions[rng.integers(len(positions), size=samples)]
    S = S + rng.normal(size=S.shape) * 10.0 ** rng.uniform(-3, 0.5, (samples, 1))
    return S, positions, simplices


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(KN),
    st.integers(5, 60),
    st.integers(1, 4),
    st.integers(1, 300),
    st.booleans(),
)
def test_mixed_extents_are_bit_identical(seed, kn, short, long, samples, degenerate):
    k, n = kn
    rng = np.random.default_rng(seed)
    S, positions, simplices = mixed_case(rng, k, n, short, long, samples, degenerate)
    expect = all_pairs_min_distances(S, positions, simplices)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)


def test_mixed_extents_reach_the_all_pairs_pass():
    rng = np.random.default_rng(11)
    S, positions, simplices = mixed_case(rng, 1, 2, 60, 3, 400, False)
    P = positions[simplices]
    extent = np.sort((P.max(axis=1) - P.min(axis=1)).max(axis=1))
    r = extent[len(extent) // 2]
    expect = all_pairs_min_distances(S, positions, simplices)
    assert 0 < np.count_nonzero(expect > r) < len(S)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([2, 3]),
    st.integers(1, 50),
    st.integers(1, 200),
)
def test_point_sets_are_bit_identical(seed, n, count, samples):
    # the median extent is 0: samples that coincide with a target point settle
    # in pass 1, every other one goes to the all-pairs pass
    rng = np.random.default_rng(seed)
    positions = rng.uniform(-1.0, 1.0, (count, n))
    positions[rng.integers(count, size=count // 4)] = positions[0]  # repeated points
    simplices = np.arange(count)[:, None]
    S = rng.uniform(-1.5, 1.5, (samples, n))
    on = rng.random(samples) < 0.3
    S[on] = positions[rng.integers(count, size=np.count_nonzero(on))]
    expect = all_pairs_min_distances(S, positions, simplices)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)
    back = all_pairs_min_distances(positions, S, [(i,) for i in range(samples)])
    assert hausdorff(positions, S).hausdorff == max(expect.max(), back.max())


def simplex_cases(rng, n):
    """One simplex of each dimension <= 2 in R^n, plain and degenerate."""
    for k in range(3):
        P = rng.uniform(-1.0, 1.0, (k + 1, n))
        yield P
        if k:
            Q = P.copy()
            Q[-1] = Q[0]  # zero-length edge
            yield Q
        if k == 2:
            Q = P.copy()
            Q[2] = Q[0] + 0.37 * (Q[1] - Q[0])  # collinear triangle
            yield Q


@pytest.mark.parametrize("samples", [1, 2, 7])
def test_culled_distances_single_simplex_and_few_samples(samples):
    rng = np.random.default_rng(samples)
    for n in (2, 3):
        for positions in simplex_cases(rng, n):
            S = rng.uniform(-5.0, 5.0, (samples, n))
            simplices = np.arange(len(positions))[None]
            expect = all_pairs_min_distances(S, positions, simplices)
            assert np.array_equal(_min_distances(S, positions, simplices), expect)


def test_culled_distances_one_row_subsets():
    # 400 far-apart simplices, one sample next to each: every window of pass 1
    # holds a single row, whose rounding must match the full array's
    rng = np.random.default_rng(5)
    grid = 10.0 * np.array([(i, j, 0) for i in range(20) for j in range(20)], float)
    for k, n in [(0, 2), (1, 2), (2, 2), (0, 3), (1, 3), (2, 3)]:
        centres = grid[:, :n]
        P = centres[:, None, :] + rng.uniform(-0.5, 0.5, (len(centres), k + 1, n))
        if k:
            P[::3, -1] = P[::3, 0]  # every third one degenerate
        positions = P.reshape(-1, n)
        simplices = np.arange(positions.shape[0]).reshape(len(centres), k + 1)
        S = centres + rng.uniform(-0.3, 0.3, centres.shape)
        expect = all_pairs_min_distances(S, positions, simplices)
        assert np.array_equal(_min_distances(S, positions, simplices), expect)


def window_case():
    """A sample 0.636 from a diagonal segment, 0.55 from a short one.

    The diagonal's bounding box contains the sample; the short segment's box
    is 0.55 away, inside the window 2r but outside r/2.  A third segment, far
    away, makes the median extent r = 1 (extents 1, 0.2 and 1).
    """
    positions = np.array([[0.0, 0.0], [1.0, 1.0], [1.5, 0.0], [1.5, 0.2],
                          [20.0, 20.0], [21.0, 20.0]])
    simplices = np.array([[0, 1], [2, 3], [4, 5]])
    S = np.array([[0.95, 0.05], [0.2, 0.25]])
    return S, positions, simplices


def test_culled_distances_window_case():
    S, positions, simplices = window_case()
    expect = all_pairs_min_distances(S, positions, simplices)
    assert expect[0] == pytest.approx(0.55)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)


def test_shrunken_window_is_caught(monkeypatch):
    # mutation check: a pass-1 window narrower than r settles a sample whose
    # nearest simplex it never looked at
    monkeypatch.setattr(metrics, "_WINDOW", 0.5)
    S, positions, simplices = window_case()
    expect = all_pairs_min_distances(S, positions, simplices)
    assert not np.array_equal(_min_distances(S, positions, simplices), expect)


# the sampling loop that _sample_simplices replaced, kept verbatim apart from
# its name: the batched sampler must give its rows, bits and order


def loop_sample_simplices(positions, simplices, density):
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


@settings(max_examples=100)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(KN),
    st.integers(1, 15),
    st.integers(0, 25),
    st.booleans(),
)
def test_batched_sampling_matches_the_loop(seed, kn, count, density, degenerate):
    k, n = kn
    rng = np.random.default_rng(seed)
    positions, simplices = random_target(rng, k, n, count, degenerate, extent=(-3, 2))
    simplices = simplices[rng.permutation(len(simplices))]
    got = metrics._sample_simplices(positions, simplices, density)
    assert np.array_equal(got, loop_sample_simplices(positions, simplices, density))


def test_sampling_edge_cases():
    positions = np.zeros((4, 3))
    assert metrics._sample_simplices(positions, np.empty((0, 2), np.intp), 5).shape == (0, 3)
    with pytest.raises(ValueError):
        metrics._sample_simplices(positions, np.array([[0, 1, 2, 3]]), 5)
    with pytest.raises(ValueError, match="mixed vertex counts"):
        hausdorff((positions, [(0,), (0, 1, 2)]), positions)


@pytest.fixture(scope="module")
def noncv_reference():
    from paretoc.continuation import analyze
    from paretoc.problems import registry_get
    from paretoc.tessellation import kuhn_tessellation

    p = registry_get("noncv")
    return p, analyze(p, kuhn_tessellation(p.domain_box, [120, 120]), order=2)


@pytest.mark.parametrize("input_set", [0, 7])
def test_hausdorff_report_unchanged_on_refinement_inputs(noncv_reference, input_set, monkeypatch):
    # the 1,000-node noncv inputs of the refinement benchmark, against its
    # Kuhn 120^2 reference
    from paretoc.continuation import analyze
    from paretoc.tessellation import build_delaunay

    p, ref = noncv_reference
    rng = np.random.default_rng(input_set)
    lo, hi = p.domain_box[:, 0], p.domain_box[:, 1]
    cx = analyze(p, build_delaunay(lo + rng.random((1000, 2)) * (hi - lo)), order=2)
    culled = hausdorff(cx, ref)
    monkeypatch.setattr(metrics, "_min_distances", all_pairs_min_distances)
    assert culled == hausdorff(cx, ref)
