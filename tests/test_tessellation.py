import copy
import functools
import hashlib
import itertools
import logging
import math
import re
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoc.constrained import icosphere
from paretoc.errors import DegenerateInput, DimensionTooLow, DuplicateNode
from paretoc.tessellation import (
    EPS_GEOM_REL,
    INF,
    _check_batch_distinct,
    _hilbert_order,
    _initial_simplex,
    _Padded,
    Tessellation,
    bbox_diagonal,
    build_delaunay,
    grid_nodes,
    insert_nodes,
    kuhn_tessellation,
)

from conftest import (
    brute_delaunay_violation,
    cell_tuples,
    exact_delaunay_violations,
    facet_counts,
    oracle_orient,
    scipy_delaunay_cells,
    simplex_volume,
)


def test_three_points_one_triangle():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert cell_tuples(t) == [(0, 1, 2)]


def test_square_two_triangles_share_diagonal():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    assert len(t.cells) == 2
    shared = set(t.cells[0]) & set(t.cells[1])
    assert len(shared) == 2  # one diagonal
    assert brute_delaunay_violation(t) < 1e-9


def test_locglob_grid_shape():
    from paretoc.problems import registry_get

    p = registry_get("locglob")
    t = kuhn_tessellation(p.domain_box, [10, 20, 10])
    assert all(len(c) == 4 for c in t.cells)
    vol = sum(simplex_volume(t.nodes[list(c)]) for c in t.cells)
    box_vol = float(np.prod(p.domain_box[:, 1] - p.domain_box[:, 0]))
    assert vol == pytest.approx(box_vol, rel=1e-9)


@pytest.mark.parametrize("n,count", [(2, 60), (2, 200), (3, 80), (4, 40)])
def test_random_sets_brute_circumsphere(rng, n, count):
    pts = rng.uniform(-1.0, 1.0, (count, n))
    t = build_delaunay(pts)
    assert brute_delaunay_violation(t) < 1e-9


@pytest.mark.parametrize("n,count", [(2, 70), (3, 50), (4, 30)])
def test_matches_scipy_oracle(rng, n, count):
    pts = rng.uniform(-1.0, 1.0, (count, n))
    t = build_delaunay(pts)
    assert cell_tuples(t) == scipy_delaunay_cells(pts)


def test_volume_sum_equals_hull_volume(rng):
    from scipy.spatial import ConvexHull

    for n in (2, 3):
        pts = rng.uniform(-1.0, 1.0, (50, n))
        t = build_delaunay(pts)
        vol = sum(simplex_volume(t.nodes[list(c)]) for c in t.cells)
        assert vol == pytest.approx(ConvexHull(pts).volume, rel=1e-9)


def test_insert_centroid_star_split():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    t2 = insert_nodes(t, [np.array([1 / 3, 1 / 3])])
    assert len(t2.cells) == 3
    assert t2.nodes.shape == (4, 2)


def test_insert_point_on_shared_edge():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]))
    shared = sorted(set(t.cells[0]) & set(t.cells[1]))
    mid = t.nodes[shared].mean(axis=0)
    t2 = insert_nodes(t, [mid])
    assert len(t2.cells) == 4


def test_insert_far_exterior_against_rebuild_oracle(rng):
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    t = build_delaunay(pts)
    far = np.array([9.0, 8.0])
    t2 = insert_nodes(t, [far])
    rebuilt = build_delaunay(np.vstack([pts, far[None]]))
    assert cell_tuples(t2) == cell_tuples(rebuilt)
    # hull extended, prior ids unchanged, interior cells preserved
    assert np.allclose(t2.nodes[:50], pts)
    kept = set(cell_tuples(t)) & set(cell_tuples(t2))
    assert len(kept) > 0.8 * len(t.cells)


def test_sequential_inserts_match_scratch_build(rng):
    pts = rng.uniform(-1.0, 1.0, (40, 3))
    t = build_delaunay(pts[:25])
    for p in pts[25:]:
        t = insert_nodes(t, [p])
    assert cell_tuples(t) == cell_tuples(build_delaunay(pts))


def test_batch_insert_into_grid_is_delaunay(rng):
    t = kuhn_tessellation([[0.0, 2.0], [0.0, 1.5]], [9, 7])
    cand = rng.uniform(0.1, 1.4, (30, 2))
    t2 = insert_nodes(t, list(cand))
    assert len(t2.nodes) == len(t.nodes) + 30
    assert brute_delaunay_violation(t2) < 1e-9


def test_determinism():
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.0, 1.0, (40, 2))
    assert cell_tuples(build_delaunay(pts)) == cell_tuples(build_delaunay(pts))


def test_facet_incidence_counts(rng):
    pts = rng.uniform(-1.0, 1.0, (60, 2))
    t = build_delaunay(pts)
    counts = set(facet_counts(t).values())
    assert counts <= {1, 2}
    # boundary facets exist and form the hull
    assert sum(c == 1 for c in facet_counts(t).values()) >= 3


def test_cell_nondegeneracy(rng):
    pts = rng.uniform(-1.0, 1.0, (80, 2))
    t = build_delaunay(pts)
    for cell in t.cells:
        p = t.nodes[list(cell)]
        vol = simplex_volume(p)
        diam = max(np.linalg.norm(a - b) for a, b in itertools.combinations(p, 2))
        assert vol > 1e-12 * diam ** t.n


@pytest.mark.parametrize("scale", [1e-3, 1e-6, 1e-7, 1e-9])
def test_flat_sets_build_at_every_scale(scale):
    # the seed simplex is accepted relative to the bounding box alone, so a
    # set 1e-8 as high as it is wide builds the same cells at any scale
    pts = np.random.default_rng(0).uniform(size=(30, 2)) * [1.0, 1e-8]
    cells = cell_tuples(build_delaunay(pts))
    t = build_delaunay(pts * scale)
    assert cell_tuples(t) == cells
    assert exact_delaunay_violations(t) == []


def test_errors():
    with pytest.raises(DimensionTooLow):
        build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(DegenerateInput):
        build_delaunay(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]))
    with pytest.raises(DuplicateNode):
        build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DuplicateNode):
        insert_nodes(t, [np.array([1.0, 0.0])])


def test_grid_nodes_order_and_ids():
    ns = grid_nodes([[0.0, 1.0], [0.0, 2.0]], [2, 3])
    assert len(ns) == 6
    # C order: last axis fastest
    assert np.allclose(ns[0], [0.0, 0.0])
    assert np.allclose(ns[1], [0.0, 1.0])
    assert np.allclose(ns[3], [1.0, 0.0])


@pytest.mark.parametrize("counts", [[3.7, 3], [3, 3.0], [True, 3], [3, 1], [np.float64(4), 3]])
def test_grid_counts_must_be_integers_of_two_or_more(counts):
    # a fractional count is not truncated, a bool is not a count
    bad = next(c for c in counts if isinstance(c, (bool, float)) or c < 2)
    for build in (grid_nodes, kuhn_tessellation):
        with pytest.raises(ValueError, match=re.escape(f"node count {bad!r} ")):
            build([[0.0, 1.0], [0.0, 1.0]], counts)


def test_grid_counts_take_numpy_integers():
    counts = np.array([3, 4])
    assert kuhn_tessellation([[0.0, 1.0], [0.0, 1.0]], counts).cells.shape == (2 * 2 * 3, 3)
    assert grid_nodes([[0.0, 1.0], [0.0, 1.0]], list(counts)).shape == (12, 2)


def test_kuhn_consistent_across_faces():
    t = kuhn_tessellation([[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]], [3, 3, 3])
    assert len(t.cells) == 8 * 6
    counts = set(facet_counts(t).values())
    assert counts <= {1, 2}
    vol = sum(simplex_volume(t.nodes[list(c)]) for c in t.cells)
    assert vol == pytest.approx(1.0, rel=1e-12)


def test_tessellation_immutable_nodes():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        t.nodes[0, 0] = 5.0


@pytest.mark.parametrize("cells, message", [
    pytest.param([[0, 2, 2]], "cell (0, 2, 2) is not a 2-simplex on nodes 0..3", id="repeated"),
    pytest.param([[0, 1, -1]], "cell (-1, 0, 1) is not a 2-simplex on nodes 0..3", id="negative"),
    pytest.param([[1, 2, 3], [0, 1, 4]], "cell (0, 1, 4) is not a 2-simplex on nodes 0..3",
                 id="beyond N"),
    pytest.param([[0, 1, 2**63]], "a cell names a node id outside 0..3", id="overflow"),
    # converted to intp, a fractional id would be truncated
    pytest.param([[0.5, 1, 2.9]], "cell (0.5, 1.0, 2.9) does not hold integer node ids",
                 id="fractional"),
    pytest.param([[0, 1, 2], [1, 2, 3.5]], "cell (1.0, 2.0, 3.5) does not hold integer node ids",
                 id="fractional second"),
    pytest.param(np.array([[0.0, 1.0, 2.0]]), "cell (0.0, 1.0, 2.0) does not hold integer node ids",
                 id="float dtype"),
    pytest.param(np.array([[True, False, True]]),
                 "cell (True, False, True) does not hold integer node ids", id="bool"),
    # numpy cannot convert NaN to an integer
    pytest.param([[0, 1, float("nan")]], "cell (0.0, 1.0, nan) does not hold integer node ids",
                 id="nan"),
    pytest.param([0, 1, 2], "cells must be a (C, k) array of node ids, not shape (3,)",
                 id="1-D"),
    pytest.param([], "cells must be a (C, k) array of node ids, not shape (0,)", id="empty 1-D"),
    pytest.param([[0, 1, 2], [1, 2]], "inhomogeneous", id="ragged"),
])
def test_tessellation_checks_cells_before_sorting(cells, message):
    # input from outside (a mesh file, a caller's cells) is checked on
    # construction: each row names k distinct node ids in 0..N-1
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match=re.escape(message)):
        Tessellation(pts, cells)


def test_tessellation_copies_its_nodes():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    t = Tessellation(pts, [[2, 0, 1]])
    pts[0, 0] = 5.0
    assert t.nodes[0, 0] == 0.0 and not t.nodes.flags.writeable
    assert t.cells.tolist() == [[0, 1, 2]]


def _kuhn_reference(counts):
    """The cells of a Kuhn grid, box by box and path by path: from the box's
    low corner, one node id step per axis in the order of a permutation."""
    strides = [math.prod(counts[k + 1:]) for k in range(len(counts))]
    cells = []
    for corner in itertools.product(*[range(c - 1) for c in counts]):
        for perm in itertools.permutations(range(len(counts))):
            cell = [sum(i * s for i, s in zip(corner, strides))]
            cells += [cell + [cell[0] + sum(strides[a] for a in perm[:k])
                              for k in range(1, len(perm) + 1)]]
    return cells


def _shuffled_icosphere_cells():
    mesh = icosphere(1)
    rng = np.random.default_rng(3)
    return mesh.nodes, [rng.permutation(c).tolist() for c in rng.permutation(mesh.cells)]


@pytest.mark.parametrize("build", ["kuhn 2-D", "kuhn 3-D", "delaunay", "insert", "mesh"])
def test_every_builder_gives_one_sorted_cell_array(build):
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.0, 1.0, (40, 2))
    if build == "kuhn 2-D":
        t, cells = kuhn_tessellation([[0.0, 1.0], [0.0, 2.0]], [4, 5]), _kuhn_reference([4, 5])
    elif build == "kuhn 3-D":
        t, cells = kuhn_tessellation([[0.0, 1.0]] * 3, [3, 4, 3]), _kuhn_reference([3, 4, 3])
    elif build == "delaunay":
        t, cells = build_delaunay(pts), scipy_delaunay_cells(pts)
    elif build == "insert":
        t = insert_nodes(build_delaunay(pts[:30]), list(pts[30:]))
        cells = scipy_delaunay_cells(pts)
    else:
        points, cells = _shuffled_icosphere_cells()
        t = Tessellation(points, cells)
    assert type(t.cells) is np.ndarray and t.cells.dtype == np.intp
    assert t.cells.ndim == 2 and len(t.cells) == len(cells)
    assert np.all(np.diff(t.cells, axis=1) > 0)
    assert np.array_equal(np.lexsort(t.cells.T[::-1]), np.arange(len(t.cells)))
    assert not t.cells.flags.writeable
    with pytest.raises(ValueError):
        t.cells[0, 0] = 0
    # the tuple list Tessellation held before: each cell sorted, then the list
    assert t.cells.tolist() == [list(c) for c in sorted(tuple(sorted(c)) for c in cells)]


# ---------------------------------------------------------------------------
# insertion order: the curve-ordered build against the id-order loop
# ---------------------------------------------------------------------------


def id_order_cells(pts):
    """Reference: Bowyer-Watson on the padded complex, inserting in id order."""
    pts = np.asarray(pts, dtype=float)
    seed = _initial_simplex(pts, EPS_GEOM_REL * bbox_diagonal(pts))
    pad = _Padded(pts, [seed])
    for i in range(len(pts)):
        if i not in seed:
            pad.insert(i)
    return cell_tuples(Tessellation(pts, [c for c in pad.cells.values() if c[0] != INF]))


def assert_same_as_id_order(pts):
    assert cell_tuples(build_delaunay(pts)) == id_order_cells(pts)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hilbert_order_steps_to_grid_neighbours(n):
    # a full 2^k grid in shuffled ids: the curve visits every node once and
    # each step moves to an adjacent node
    side = 8
    cells = np.array(list(itertools.product(range(side), repeat=n)), dtype=float)
    cells = cells[np.random.default_rng(n).permutation(len(cells))]
    order = _hilbert_order(cells)
    assert sorted(order.tolist()) == list(range(len(cells)))
    assert set(np.abs(np.diff(cells[order], axis=0)).sum(axis=1).tolist()) == {1.0}


@given(st.data(), st.sampled_from([(2, 60), (3, 30), (4, 16)]))
def test_curve_order_matches_id_order(data, dim_count):
    n, max_count = dim_count
    seed = data.draw(st.integers(0, 2**32 - 1))
    count = data.draw(st.integers(n + 1, max_count))
    pts = np.random.default_rng(seed).uniform(-1.0, 1.0, (count, n))
    assert_same_as_id_order(pts)


GRIDS = [(3, 3), (4, 4), (5, 7), (3, 3, 3), (4, 3, 3)]


SHUFFLED = [((7, 7), 1), ((3, 3, 3), 10), ((4, 4, 4), 2)]


@pytest.mark.parametrize("counts,seed", SHUFFLED + [
    (counts, seed) for counts in GRIDS for seed in [None, *range(11)]
    if (counts, seed) not in SHUFFLED])
def test_curve_order_matches_id_order_on_shuffled_kuhn_nodes(counts, seed):
    # every box of the grid is cospherical: the ties are broken on the ids,
    # in id order (seed None) as in shuffled order
    pts = grid_nodes([[0.0, 1.0]] * len(counts), counts)
    if seed is not None:
        pts = pts[np.random.default_rng(seed).permutation(len(pts))]
    t = build_delaunay(pts)
    assert cell_tuples(t) == id_order_cells(pts)
    vol = sum(simplex_volume(pts[list(c)]) for c in t.cells)
    assert vol == pytest.approx(1.0, rel=1e-12)
    assert exact_delaunay_violations(t) == []


@given(st.integers(0, 2**32 - 1), st.integers(-12, -3), st.integers(4, 40))
def test_curve_order_matches_id_order_near_collinear(seed, exponent, count):
    # offsets down to 1e-12 of the diagonal, where a walk decided in floats
    # gets lost: the exact walk must seed the cavity with a conflict cell
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, count)
    y = 0.3 * x + 10.0**exponent * rng.uniform(-1.0, 1.0, count)
    pts = np.column_stack([x, y])
    pts[rng.integers(count)] = [0.0, 1.0]  # keep the set two-dimensional
    assert_same_as_id_order(pts)


@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(1, 6))
def test_far_exterior_inserts_match_id_order(seed, n, far):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (12 * n, n))
    outer = rng.normal(size=(far, n))
    outer *= rng.uniform(5.0, 1e3, (far, 1)) / np.linalg.norm(outer, axis=1, keepdims=True)
    grown = insert_nodes(build_delaunay(base), list(outer))
    assert cell_tuples(grown) == id_order_cells(np.vstack([base, outer]))
    assert_same_as_id_order(np.vstack([base, outer]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.integers(2, 12), st.booleans())
def test_batch_insert_matches_one_at_a_time(seed, n, count, lattice):
    # a batch goes in along a Hilbert curve, one point at a time in the
    # given order, with the same ids and so the same cells.  Lattice points
    # lie on the Kuhn grid's circumspheres, where ties are broken on the ids
    rng = np.random.default_rng(seed)
    if lattice:
        base = kuhn_tessellation([[0.0, 1.0]] * n, [3] * n)
        fine = grid_nodes([[0.0, 1.0]] * n, [5] * n)
        fine = fine[np.any(fine * 4 % 2 == 1, axis=1)]  # off the grid's nodes
        batch = fine[rng.permutation(len(fine))[:count]]
    else:
        base = build_delaunay(rng.uniform(0.0, 1.0, (10 * n, n)))
        batch = rng.uniform(0.0, 1.0, (count, n))
    one = base
    for p in batch:
        one = insert_nodes(one, [p])
    assert cell_tuples(insert_nodes(base, list(batch))) == cell_tuples(one)


# The cells of fixed inputs, pinned by the sha256 of their little-endian
# int64 bytes (first 16 hex digits): shuffled grid nodes, near-collinear sets,
# lattice points on grid circumspheres and far points, whose exact ties and
# hull changes a rewrite of the insertion loop must decide as before.


def _pin_shuffled_grid(counts, seed):
    pts = grid_nodes([[0.0, 1.0]] * len(counts), counts)
    return build_delaunay(pts[np.random.default_rng(seed).permutation(len(pts))])


def _pin_near_collinear(seed, exponent, count):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, count)
    pts = np.column_stack([x, 0.3 * x + 10.0 ** exponent * rng.uniform(-1.0, 1.0, count)])
    pts[0] = [0.0, 1.0]
    return build_delaunay(pts)


def _pin_lattice_chain(n, start, seed):
    # points of a finer lattice, off the grid's nodes, inserted in three
    # batches: they lie on the grid boxes' circumspheres
    rng = np.random.default_rng(seed)
    box = [[0.0, 1.0]] * n
    if start == "kuhn":
        t = kuhn_tessellation(box, [3] * n)
    else:
        t = build_delaunay(grid_nodes(box, [3] * n))
    fine = grid_nodes(box, [9 if n == 2 else 5] * n)
    fine = fine[np.any(fine * (8 if n == 2 else 4) % 2 == 1, axis=1)]
    for part in np.array_split(fine[rng.permutation(len(fine))[:24]], 3):
        t = insert_nodes(t, list(part))
    return t


def _pin_far_exterior(n, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-1.0, 1.0, (12 * n, n))
    outer = rng.normal(size=(6, n))
    outer *= rng.uniform(5.0, 1e3, (6, 1)) / np.linalg.norm(outer, axis=1, keepdims=True)
    return insert_nodes(build_delaunay(base), list(outer))


PINNED_CELLS = {
    "grid 2-D 9x9": (lambda: _pin_shuffled_grid((9, 9), 1), "d62c00c39997ea6b"),
    "grid 2-D 6x11": (lambda: _pin_shuffled_grid((6, 11), 2), "ae1d53ac5533852c"),
    "grid 3-D 4x4x4": (lambda: _pin_shuffled_grid((4, 4, 4), 3), "11d7857ce2b016a4"),
    "grid 3-D 5x3x4": (lambda: _pin_shuffled_grid((5, 3, 4), 4), "91d7a7af01242942"),
    "grid 4-D 3^4": (lambda: _pin_shuffled_grid((3, 3, 3, 3), 5), "64b700da9590f8e7"),
    "collinear 1e-12": (lambda: _pin_near_collinear(0, -12, 40), "24753489e4d1565d"),
    "collinear 1e-9": (lambda: _pin_near_collinear(1, -9, 60), "de81d10555772ec3"),
    "collinear 1e-4": (lambda: _pin_near_collinear(2, -4, 80), "fd10b0fc66c9e9c2"),
    "lattice kuhn 2-D": (lambda: _pin_lattice_chain(2, "kuhn", 6), "c00831996b798a73"),
    "lattice delaunay 2-D": (lambda: _pin_lattice_chain(2, "delaunay", 7), "5cb65edbbbff9d22"),
    "lattice kuhn 3-D": (lambda: _pin_lattice_chain(3, "kuhn", 8), "1a712ff1d933fb67"),
    "lattice delaunay 3-D": (lambda: _pin_lattice_chain(3, "delaunay", 9), "5f2130d1809e138c"),
    "far 2-D": (lambda: _pin_far_exterior(2, 10), "4e6b876564f0fd21"),
    "far 3-D": (lambda: _pin_far_exterior(3, 11), "ddba5a595f5e2be4"),
}


@pytest.mark.parametrize("case", sorted(PINNED_CELLS))
def test_cells_keep_their_pinned_digests(case):
    make, digest = PINNED_CELLS[case]
    cells = np.ascontiguousarray(make().cells, dtype="<i8")
    assert hashlib.sha256(cells.tobytes()).hexdigest()[:16] == digest


def exact_counts(records, caller):
    return [int(re.match(r"\w+: (\d+) predicates decided exactly", r.getMessage())[1])
            for r in records if r.getMessage().startswith(caller + ":")]


def test_build_and_insert_log_their_fallbacks(caplog):
    caplog.set_level(logging.DEBUG, logger="paretoc.tessellation")
    # near-collinear nodes, where a walk decided in floats gets lost: the
    # exact walk finds a conflict cell, and the cells are the id-order
    # loop's.  The float brute check cannot judge cells this flat; the
    # integer oracle on the given coordinates can
    rng = np.random.default_rng(0)
    x = rng.uniform(-1.0, 1.0, 30)
    pts = np.column_stack([x, 0.3 * x + 1e-12 * rng.uniform(-1.0, 1.0, 30)])
    pts[0] = [0.0, 1.0]
    t = build_delaunay(pts)
    assert cell_tuples(t) == id_order_cells(pts)
    assert exact_delaunay_violations(t) == []
    assert len(exact_counts(caplog.records, "build_delaunay")) == 1
    # a grid's exact ties go to the exact path, and the ids break them
    caplog.clear()
    build_delaunay(grid_nodes([[0.0, 1.0]] * 2, [3, 3]))
    [exact] = exact_counts(caplog.records, "build_delaunay")
    assert exact > 0
    # (0.3, 0.4) lies on the circle of the grid box [0, 0.25] x [0.25, 0.5]
    # up to rounding: the filter leaves the box's two cells to the exact path.
    # It goes in alone: a batch is inserted along its Hilbert curve, which
    # would take (0.1, 0.1) first
    caplog.clear()
    t = insert_nodes(kuhn_tessellation([[0.0, 1.0]] * 2, [5, 5]), [[0.3, 0.4]])
    assert exact_counts(caplog.records, "insert_nodes") == [2]
    caplog.clear()
    t = insert_nodes(t, [[0.1, 0.1]])
    assert exact_counts(caplog.records, "insert_nodes") == [0]
    # an insertion into the carried complex counts its own exact signs only:
    # (0.62, 0.87) needs none, and (0.8, 0.4), on the circle of the grid box
    # [0.5, 0.75] x [0.25, 0.5] up to rounding, needs one
    caplog.clear()
    t = insert_nodes(t, [[0.62, 0.87]])
    assert exact_counts(caplog.records, "insert_nodes") == [0]
    caplog.clear()
    insert_nodes(t, [[0.8, 0.4]])
    assert exact_counts(caplog.records, "insert_nodes") == [1]


def scan_seeded(pad, pid, known):
    """Reference point location: the first conflict cell in a scan over all
    cells.  The conflict region is connected, so any conflict cell seeds the
    same cavity; ``known``, the walk's record of cells not in conflict, stays
    empty."""
    return next(c for c in pad.cells if pad._in_conflict(c, pid))


def kuhn_insert_batch(n, kind, seed, count):
    """A 2-D or 3-D Kuhn grid and a batch of points to insert: random points
    in the box, points on grid lines, box centres, or points outside the
    hull."""
    rng = np.random.default_rng(seed)
    counts = [7, 5] if n == 2 else [4, 5, 3]
    box = np.array([[0.0, 2.0], [0.0, 1.5], [-1.0, 0.0]][:n])
    lo, hi = box[:, 0], box[:, 1]
    steps = np.array(counts) - 1
    if kind == "random":
        P = rng.uniform(lo, hi, (count, n))
    elif kind == "grid line":
        # n - 1 coordinates on grid values: the point lies on a box edge
        P = rng.uniform(lo, hi, (count, n))
        for k, free in enumerate(rng.integers(n, size=count)):
            snap = np.arange(n) != free
            P[k, snap] = (lo + (hi - lo) * rng.integers(0, counts) / steps)[snap]
    elif kind == "box centre":
        P = lo + (hi - lo) * (rng.integers(0, steps, (count, n)) + 0.5) / steps
        P = P[np.sort(np.unique(P, axis=0, return_index=True)[1])]
    else:
        d = rng.normal(size=(count, n))
        P = (lo + hi) / 2 + d * rng.uniform(2.0, 50.0, (count, 1)) / np.linalg.norm(
            d, axis=1, keepdims=True)
    return kuhn_tessellation(box, counts), P


@pytest.mark.parametrize("kind", ["random", "grid line", "box centre", "outside"])
@pytest.mark.parametrize("n", [2, 3])
@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_walk_inserts_into_kuhn_grids_match_scan_seeded_reference(n, kind, seed, count):
    t, P = kuhn_insert_batch(n, kind, seed, count)
    got = insert_nodes(t, list(P))
    with mock.patch.object(_Padded, "_locate_conflict", scan_seeded):
        ref = insert_nodes(t, list(P))
    assert cell_tuples(got) == cell_tuples(ref)
    assert len(got.nodes) == len(t.nodes) + len(P)


@functools.lru_cache
def delaunay_grid(n):
    """build_delaunay of the nodes of kuhn_insert_batch's grid."""
    return build_delaunay(kuhn_insert_batch(n, "random", 0, 1)[0].nodes)


@pytest.mark.parametrize("kind", ["random", "grid line", "box centre", "outside"])
@pytest.mark.parametrize("start", ["kuhn", "delaunay"])
@pytest.mark.parametrize("n", [2, 3])
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
def test_chained_inserts_into_the_carried_complex_match_a_rebuilt_one(
        n, start, kind, seed, count, data):
    # a builder leaves its padded complex on the tessellation it returns and
    # insert_nodes takes it over; a Tessellation made from the same nodes and
    # cells has none, so its insertion rebuilds the complex from the cells.
    # A Kuhn start has none either and builds one on its first insertion; a
    # Delaunay start of the grid nodes is a cospherical set
    t, P = kuhn_insert_batch(n, kind, seed, count)
    if start == "delaunay":
        t = copy.deepcopy(delaunay_grid(n))   # with a carried complex of its own
    cuts = sorted(data.draw(st.lists(st.integers(1, count - 1), max_size=2)))
    for batch in np.split(P, cuts):
        rebuilt = insert_nodes(Tessellation(t.nodes, t.cells), batch)
        t = insert_nodes(t, batch)
        assert cell_tuples(t) == cell_tuples(rebuilt)
        assert np.array_equal(t.nodes, rebuilt.nodes)


def test_insert_nodes_leaves_its_input_usable():
    t = insert_nodes(build_delaunay(grid_nodes([[0.0, 1.0]] * 2, [4, 4])), [[0.4, 0.45]])
    # the first insertion takes the carried complex over; a second one on the
    # same input rebuilds it from the cells and gives the same cells
    with mock.patch.object(_Padded, "__init__", side_effect=AssertionError("rebuilt")):
        first = insert_nodes(t, [[0.2, 0.7], [0.8, 0.1]])
    second = insert_nodes(t, [[0.2, 0.7], [0.8, 0.1]])
    assert cell_tuples(first) == cell_tuples(second)
    # a batch that raises DuplicateNode inserts nothing, and the input still
    # takes the next batch as a rebuilt one does
    u = insert_nodes(first, [[0.5, 0.9]])
    with pytest.raises(DuplicateNode):
        insert_nodes(u, [[0.6, 0.3], [0.5, 0.9]])
    assert cell_tuples(insert_nodes(u, [[0.6, 0.3]])) == cell_tuples(
        insert_nodes(Tessellation(u.nodes, u.cells), [[0.6, 0.3]]))


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: Tessellation([[0.0, 0.0], [1.0, 0.0], [0.0, math.inf]], [[0, 1, 2]]),
                 "node 2 has a non-finite coordinate: (0.0, inf)", id="Tessellation"),
    pytest.param(lambda: build_delaunay([[0, 0], [1, 0], [0, 1], [math.nan, 0.5]]),
                 "node 3 has a non-finite coordinate: (nan, 0.5)", id="build_delaunay"),
    pytest.param(lambda: insert_nodes(kuhn_tessellation([[0, 1], [0, 1]], [3, 3]),
                                      [[0.25, 0.5], [math.nan, 0.5]]),
                 "inserted point 1 has a non-finite coordinate: (nan, 0.5)", id="insert nan"),
    pytest.param(lambda: insert_nodes(kuhn_tessellation([[0, 1], [0, 1]], [3, 3]),
                                      [[5.0, -math.inf]]),
                 "inserted point 0 has a non-finite coordinate: (5.0, -inf)", id="insert inf"),
])
def test_non_finite_coordinates_are_named(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("mesh", [
    pytest.param(lambda: icosphere(1), id="manifold"),
    pytest.param(lambda: Tessellation(grid_nodes([[0, 1], [0, 1]], [3, 3]),
                                      np.empty((0, 3), np.intp)), id="no cells"),
])
def test_insert_nodes_needs_a_mesh_of_n_simplices(mesh):
    t = mesh()
    with pytest.raises(ValueError, match=f"needs one or more cells of {t.n + 1} nodes"):
        insert_nodes(t, [np.full(t.n, 0.25)])


def _padded_inputs(kind):
    if kind == "kuhn 2-D":
        t = kuhn_tessellation([[0, 1], [0, 2]], [4, 5])
    elif kind == "kuhn 3-D":
        t = kuhn_tessellation([[0, 1], [0, 1], [0, 1]], [3, 4, 3])
    elif kind == "delaunay":
        t = build_delaunay(np.random.default_rng(3).uniform(-1.0, 1.0, (40, 3)))
    else:
        pts = np.random.default_rng(4).uniform(-1.0, 1.0, (12, 3))
        return pts, [_initial_simplex(pts, EPS_GEOM_REL * bbox_diagonal(pts))]
    return t.nodes, t.cells.tolist()


def check_slots(pad, nodes):
    """The padded complex's invariants, checked on its slots.

    Every neighbour slot is mutual across the same facet; INF sits in slot 0
    and nowhere else; every finite cell is positive under the integer
    oracle, and so, with the apex of its finite neighbour in place of INF, is
    every infinite cell negative (in n >= 2; see the module docstring for
    1-D); and the infinite cells are exactly the hull facets of the finite
    ones.  Returns the finite cells."""
    n = nodes.shape[1]
    pts = nodes.tolist()
    assert pad.cells.keys() == pad.nbrs.keys()
    finite = []
    for cid, cell in pad.cells.items():
        link = pad.nbrs[cid]
        assert len(cell) == len(link) == n + 1
        assert INF not in cell[1:]
        for j, other in enumerate(link):
            back = pad.nbrs[other]
            assert back.count(cid) == 1
            k = back.index(cid)
            assert sorted(cell[:j] + cell[j + 1:]) == sorted(
                pad.cells[other][:k] + pad.cells[other][k + 1:])
        if cell[0] != INF:
            assert oracle_orient([pts[i] for i in cell]) == 1
            finite.append(tuple(cell))
        elif n > 1:
            fin = pad.cells[link[0]]
            apex = fin[pad.nbrs[link[0]].index(cid)]
            assert oracle_orient([pts[i] for i in [apex] + cell[1:]]) == -1
    uses = Counter(f for c in finite for f in itertools.combinations(sorted(c), n))
    hull = sorted(f for f, k in uses.items() if k == 1)
    assert set(uses.values()) <= {1, 2}
    assert sorted(tuple(sorted(c[1:])) for c in pad.cells.values() if c[0] == INF) == hull
    return finite


@pytest.mark.parametrize("kind", ["kuhn 2-D", "kuhn 3-D", "delaunay", "seed simplex"])
def test_padded_complex_closes_the_hull(kind):
    # the constructor orients the given cells, keeps them first and in their
    # order, and adds one infinite cell per hull facet
    nodes, cells = _padded_inputs(kind)
    pad = _Padded(nodes, cells)
    finite = check_slots(pad, nodes)
    assert [sorted(c) for c in finite] == [sorted(c) for c in cells]
    assert list(pad.cells)[:len(cells)] == list(range(len(cells)))
    # the walk starts from the cell made last
    assert pad._hint == max(pad.cells)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]), st.sampled_from(["grid", "far"]))
def test_slots_hold_after_every_insertion(seed, n, kind):
    # grid nodes tie on every box's circumsphere; far points replace hull
    # facets and so infinite cells
    rng = np.random.default_rng(seed)
    if kind == "grid":
        pts = grid_nodes([[0.0, 1.0]] * n, [4] * n if n == 2 else [3] * n)
        pts = pts[rng.permutation(len(pts))]
    else:
        pts = rng.uniform(-1.0, 1.0, (8 * n, n))
        far = rng.normal(size=(4, n))
        far *= rng.uniform(5.0, 1e3, (4, 1)) / np.linalg.norm(far, axis=1, keepdims=True)
        pts = np.vstack([pts, far])[rng.permutation(8 * n + 4)]
    seed_ids = _initial_simplex(pts, EPS_GEOM_REL * bbox_diagonal(pts))
    pad = _Padded(pts, [seed_ids])
    check_slots(pad, pts)
    for i in range(len(pts)):
        if i not in seed_ids:
            pad.insert(i)
            check_slots(pad, pts)


def consecutive_pairs(x):
    order = np.argsort(x[:, 0])
    return sorted(tuple(sorted(e)) for e in zip(order[:-1].tolist(), order[1:].tolist()))


def test_one_dimensional_builds_and_inserts_beyond_both_ends():
    # on the line the Delaunay cells are the consecutive pairs of the sorted
    # nodes; inserts beyond either end replace an infinite cell
    rng = np.random.default_rng(12)
    x = rng.uniform(-1.0, 1.0, (15, 1))
    t = build_delaunay(x)
    assert cell_tuples(t) == consecutive_pairs(x)
    check_slots(t._padded, t.nodes)
    for batch in ([[3.0]], [[-2.0], [0.01]], [[-5.0], [4.0], [2.5], [-3.5]]):
        t = insert_nodes(t, batch)
        assert cell_tuples(t) == consecutive_pairs(t.nodes)
        check_slots(t._padded, t.nodes)
    # a rebuilt complex (a Tessellation without one) gives the same cells
    grown = insert_nodes(Tessellation(t.nodes, t.cells), [[9.0], [-9.0]])
    assert cell_tuples(grown) == consecutive_pairs(grown.nodes)


def test_batch_duplicate_checks_keep_their_order():
    t = build_delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    # the first offending point is reported; a clash with a node comes first
    with pytest.raises(DuplicateNode, match="duplicates node 3"):
        insert_nodes(t, [[0.5, 0.5], [0.25, 0.5], [1.0, 1.0], [0.5, 0.5]])
    with pytest.raises(DuplicateNode, match="batch contains coincident points"):
        insert_nodes(t, [[0.5, 0.5], [0.25, 0.5], [0.5, 0.5], [1.0, 1.0]])
    with pytest.raises(DuplicateNode, match="duplicates node 1"):
        insert_nodes(t, [[0.5, 0.5], [1.0, 1e-13], [0.5, 0.5]])
    # a duplicate before a malformed point is reported first, and vice versa
    with pytest.raises(DuplicateNode):
        insert_nodes(t, [[0.0, 1.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ValueError, match="wrong dimension"):
        insert_nodes(t, [[0.5, 0.5, 0.5], [0.0, 1.0]])
    # points just beyond the tolerance are distinct
    eps = EPS_GEOM_REL * bbox_diagonal(t.nodes)
    grown = insert_nodes(t, [[0.5, 0.5], [0.5 + 3 * eps, 0.5]])
    assert len(grown.nodes) == 6


def _loop_min_incident_edge(tess):
    # the per-edge loop the vectorized form replaced
    pts = tess.nodes
    out = np.full(len(tess.nodes), np.inf)
    for cell in tess.cells:
        for a, b in itertools.combinations(cell, 2):
            d = float(np.linalg.norm(pts[a] - pts[b]))
            out[a] = min(out[a], d)
            out[b] = min(out[b], d)
    return out


@pytest.mark.parametrize("build", [
    lambda: kuhn_tessellation([[-1.0, 2.0], [0.0, 1.5]], [9, 7]),
    lambda: kuhn_tessellation([[-1.0, 2.0]] * 3, [4, 5, 3]),
    lambda: build_delaunay(np.random.default_rng(5).uniform(-3.0, 4.0, (300, 2))),
    lambda: build_delaunay(np.random.default_rng(6).uniform(-1.0, 1.0, (60, 3))),
])
def test_min_incident_edge_matches_edge_loop(build):
    tess = build()
    assert np.array_equal(tess.min_incident_edge(), _loop_min_incident_edge(tess))


@st.composite
def near_duplicate_sets(draw):
    """Nodes, one of them moved by about the coincidence tolerance, and a
    tolerance within an ulp of the rounded distance of the pair.

    The pair sits far from the origin, where their difference has few
    significant bits, or within the tolerance of it, where it has all 53 and
    a distance can round differently in different summation orders.
    """
    n = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-3, 1e3))
    pts = rng.uniform(-scale, scale, (draw(st.integers(3, 12)), n))
    tol = EPS_GEOM_REL * scale
    p = pts[0] * draw(st.sampled_from([1.0, EPS_GEOM_REL]))
    u = rng.normal(size=n)
    q = p + u * (tol / np.linalg.norm(u))
    eps = float(np.linalg.norm(q - p))
    eps = math.nextafter(eps, draw(st.sampled_from([0.0, eps, math.inf])))
    pts = np.vstack([p, pts[1:], q])
    return pts[rng.permutation(len(pts))], eps


def _loop_has_duplicate(pts, eps):
    # the per-node loop of build_delaunay's former NodeSet.check_distinct:
    # lexicographic order, neighbours within eps in the first coordinate
    order = np.lexsort(pts.T[::-1])
    sp = pts[order]
    for i in range(len(sp) - 1):
        j = i + 1
        while j < len(sp) and sp[j, 0] - sp[i, 0] <= eps:
            if np.linalg.norm(sp[j] - sp[i]) <= eps:
                return True
            j += 1
    return False


@settings(max_examples=300)
@given(near_duplicate_sets())
def test_duplicate_check_matches_node_loop(case):
    pts, eps = case
    want = _loop_has_duplicate(pts, eps)
    try:
        _check_batch_distinct(np.empty((0, pts.shape[1])), pts, eps)
        got = False
    except DuplicateNode:
        got = True
    assert got == want
