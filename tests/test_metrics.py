import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretoc import metrics
from paretoc.errors import EmptyComplex, InsufficientData
from paretoc.geometry import points_to_simplex_distance
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
# the culled nearest-simplex search against the all-pairs scan
# ---------------------------------------------------------------------------


def all_pairs_min_distances(samples, positions, simplices):
    """Reference: every sample against every simplex."""
    d = np.full(len(samples), np.inf)
    for ids in simplices:
        d = np.minimum(d, points_to_simplex_distance(samples, positions[list(ids)]))
    return d


def random_target(rng, k, n, count, degenerate):
    """``count`` k-simplices in R^n (k = -1: each of random dimension <= 2),
    with extents from 1e-3 to 1, some of them degenerate."""
    positions = []
    simplices = []
    for _ in range(count):
        dim = int(rng.integers(3)) if k < 0 else k
        base = rng.uniform(-1.0, 1.0, n)
        P = base + rng.uniform(-1.0, 1.0, (dim + 1, n)) * 10.0 ** rng.uniform(-3, 0)
        if degenerate and dim and rng.random() < 0.5:
            if dim == 1 or rng.random() < 0.5:
                P[-1] = P[0]  # zero-length edge
            else:
                P[2] = P[0] + 0.37 * (P[1] - P[0])  # collinear triangle
        simplices.append(tuple(range(len(positions), len(positions) + dim + 1)))
        positions.extend(P)
    return np.array(positions), simplices


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(0, 2), (1, 2), (2, 2), (-1, 2), (0, 3), (1, 3), (2, 3), (-1, 3)]),
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


@pytest.mark.parametrize("samples", [1, 2, 7])
def test_culled_distances_single_simplex_and_few_samples(samples):
    rng = np.random.default_rng(samples)
    for k, n in [(0, 2), (1, 2), (2, 3)]:
        positions = rng.uniform(-1.0, 1.0, (k + 1, n))
        S = rng.uniform(-5.0, 5.0, (samples, n))
        expect = all_pairs_min_distances(S, positions, [tuple(range(k + 1))])
        got = _min_distances(S, positions, [tuple(range(k + 1))])
        assert np.array_equal(got, expect)


def test_culled_distances_one_row_subsets():
    # 400 far-apart segments, one sample next to each: every per-simplex call
    # of pass 1 sees a single row, whose rounding must match the full array's
    rng = np.random.default_rng(5)
    centres = 10.0 * np.array([(i, j) for i in range(20) for j in range(20)], float)
    ends = rng.uniform(-0.5, 0.5, (len(centres), 2, 2))
    positions = (centres[:, None, :] + ends).reshape(-1, 2)
    simplices = [(2 * i, 2 * i + 1) for i in range(len(centres))]
    S = centres + rng.uniform(-0.3, 0.3, centres.shape)
    expect = all_pairs_min_distances(S, positions, simplices)
    assert np.array_equal(_min_distances(S, positions, simplices), expect)


def window_case():
    """A sample 0.636 from a diagonal segment, 0.55 from a short one.

    The diagonal's bounding box contains the sample; the short segment's box
    is 0.55 away, inside the window 2r (r = 1) but outside r/2.
    """
    positions = np.array([[0.0, 0.0], [1.0, 1.0], [1.5, 0.0], [1.5, 0.2]])
    simplices = [(0, 1), (2, 3)]
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
