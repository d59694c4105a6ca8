import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretoc import refinement
from paretoc.complex_io import save_complex
from paretoc.continuation import ParetoComplex, STRATUM_STABLE, STRATUM_UNSTABLE, analyze
from paretoc.errors import EmptyComplex, NoProgress
from paretoc.geometry import points_to_simplices_distance
from paretoc.problems import registry_get
from paretoc.refinement import (
    RefinementState,
    _boundary_candidates,
    _chains,
    _maximin_fill_with_hosts,
    _spacing_guard,
    _target_strata,
    complex_minor_stats,
    initial_state,
    iterate,
    resample_polyline,
)
from paretoc.tessellation import Tessellation, build_delaunay, kuhn_tessellation

from test_golden import _paraboloid_problem


def _polyline_complex(points, segs, stratum=STRATUM_STABLE, markers=()):
    points = np.asarray(points, dtype=float)
    return ParetoComplex(
        positions=points,
        u_values=np.zeros((len(points), 2)),
        lam=np.full((len(points), 2), 0.5),
        sigma=None,
        simplices=segs,
        stratum=[stratum] * len(segs),
        markers=list(markers),
    )


def test_resample_two_segment_chain():
    cx = _polyline_complex([[0, 0], [1, 0], [2, 0]], [(0, 1), (1, 2)])
    pts = resample_polyline(cx)
    assert sorted(tuple(np.round(p, 12)) for p in pts) == [(0.5, 0.0), (1.5, 0.0)]


def test_resample_single_segment_midpoint():
    cx = _polyline_complex([[0, 0], [1, 1]], [(0, 1)])
    pts = resample_polyline(cx)
    assert len(pts) == 1
    assert pts[0] == pytest.approx([0.5, 0.5])


def test_resample_closed_loop_from_lowest_id():
    # unit square loop, lowest-id vertex 0 at the origin, first step toward
    # the lower-id neighbour: arclengths 0.5, 1.5, 2.5, 3.5 from vertex 0
    cx = _polyline_complex(
        [[0, 0], [1, 0], [1, 1], [0, 1]],
        [(0, 1), (1, 2), (2, 3), (0, 3)],
    )
    pts = resample_polyline(cx)
    assert len(pts) == 4
    got = sorted(tuple(np.round(p, 12)) for p in pts)
    assert got == [(0.0, 0.5), (0.5, 0.0), (0.5, 1.0), (1.0, 0.5)]


def test_resample_falls_back_to_critical():
    cx = _polyline_complex([[0, 0], [2, 0]], [(0, 1)], stratum=STRATUM_UNSTABLE)
    pts = resample_polyline(cx)
    assert pts[0] == pytest.approx([1.0, 0.0])


def test_resample_empty():
    cx = _polyline_complex([[0, 0], [1, 0]], [(0, 1)], stratum="singular_only")
    with pytest.raises(EmptyComplex):
        resample_polyline(cx)


def test_maximin_accumulated_volumes_and_ties():
    cx = _polyline_complex(
        [[0.0, 0], [1.0, 0], [4.0, 0], [5.0, 0]],
        [(0, 1), (1, 2), (2, 3)],  # lengths 1, 3, 1 -> accumulated 4, 5, 4
    )
    pts = _maximin_fill_with_hosts(cx)[0]
    assert pts[0] == pytest.approx([2.5, 0.0])  # max accumulated
    assert pts[1] == pytest.approx([0.5, 0.0])  # tie (1,1) -> lowest id
    assert pts[2] == pytest.approx([4.5, 0.0])


def test_maximin_single_triangle_centroid():
    pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    cx = ParetoComplex(
        positions=pos, u_values=np.zeros((3, 3)),
        lam=np.full((3, 3), 1 / 3), sigma=None,
        simplices=[(0, 1, 2)], stratum=[STRATUM_STABLE], markers=[],
    )
    pts = _maximin_fill_with_hosts(cx)[0]
    assert pts[0] == pytest.approx([1 / 3, 1 / 3, 0.0])


def test_maximin_no_simplex_twice():
    cx = _polyline_complex(
        [[0.0, 0], [1.0, 0], [2.0, 0], [3.0, 0]],
        [(0, 1), (1, 2), (2, 3)],
    )
    pts = _maximin_fill_with_hosts(cx)[0]
    assert len(pts) == 3  # one centroid per simplex, never repeated
    assert len({tuple(np.round(p, 12)) for p in pts}) == 3


def _loop_measure(P):
    # one simplex's measure from its own Gram determinant, where the fill
    # takes the determinants of all simplices in one stacked call
    k = len(P) - 1
    E = P[1:] - P[0]
    det = np.linalg.det(E @ E.T)
    if det <= 0.0:
        return 0.0
    return float(np.sqrt(det) / np.prod(np.arange(1, k + 1)))


def _loop_maximin_fill(cx, count):
    # the reference: every pick re-scores every active simplex, where the
    # fill re-scores only the picked simplex's active neighbours
    ids = cx.simplex_ids(_target_strata(cx))
    verts = cx.simplices[ids].tolist()
    vols = np.array([_loop_measure(cx.positions[v]) for v in verts])
    k = len(ids)
    facet_map = {}
    for si, v in enumerate(verts):
        if len(v) == 2:
            facets = [(v[0],), (v[1],)]
        else:
            facets = [tuple(sorted((v[a], v[b]))) for a, b in ((0, 1), (1, 2), (0, 2))]
        for f in facets:
            facet_map.setdefault(f, []).append(si)
    neighbors = [set() for _ in range(k)]
    for members in facet_map.values():
        for a in members:
            for b in members:
                if a != b:
                    neighbors[a].add(b)
    active = np.ones(k, dtype=bool)
    out, hosts = [], []
    for _ in range(min(count, k)):
        acc = np.where(active, vols, 0.0).copy()
        for si in range(k):
            if not active[si]:
                acc[si] = -np.inf
                continue
            acc[si] += sum(vols[j] for j in neighbors[si] if active[j])
        best = int(np.argmax(acc))
        if not np.isfinite(acc[best]):
            break
        out.append(cx.positions[list(verts[best])].mean(axis=0))
        hosts.append(ids[best])
        active[best] = False
    return out, hosts


def test_maximin_fill_matches_full_rescore():
    # tri_quadratic at 7^3 and after three budgeted maximin iterations, and
    # triv's polylines: the same picks, bit for bit, in the same order.
    # The greedy order is deterministic, so a shorter fill is a prefix
    p = registry_get("tri_quadratic")
    st = initial_state(p, kuhn_tessellation(p.domain_box, [7, 7, 7]))
    complexes = [st.complex]
    for _ in range(3):
        st = iterate(st, scheme="maximin", budget=10)
        complexes.append(st.complex)
    triv = registry_get("triv")
    complexes.append(initial_state(triv, kuhn_tessellation(triv.domain_box, [13, 12])).complex)
    for cx in complexes:
        k = len(cx.simplex_ids(_target_strata(cx)))
        pts, hosts = _maximin_fill_with_hosts(cx)
        assert pts.shape == (k, cx.n)
        for count in (k, k // 3):
            ref_pts, ref_hosts = _loop_maximin_fill(cx, count)
            assert hosts[:count].tolist() == ref_hosts
            assert np.array_equal(np.array(pts[:count]), np.array(ref_pts))


def _loop_resample_polyline(cx):
    # the reference: one searchsorted per target, where resample_polyline
    # runs one per chain
    out = []
    for chain in _chains(cx, _target_strata(cx)):
        P = cx.positions[chain]
        seg_len = np.linalg.norm(np.diff(P, axis=0), axis=1)
        L = float(seg_len.sum())
        k = len(seg_len)
        if L <= 0.0 or k == 0:
            continue
        targets = (2 * np.arange(1, k + 1) - 1) * L / (2 * k)
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        for s in targets:
            j = int(np.searchsorted(cum, s, side="right") - 1)
            j = min(j, k - 1)
            t = (s - cum[j]) / seg_len[j] if seg_len[j] > 0 else 0.5
            out.append(P[j] + t * (P[j + 1] - P[j]))
    return np.array(out)


def _closed_loop_complex():
    # an irregular 9-gon on the unit circle, its ids shuffled along the loop
    theta = np.sort(np.random.default_rng(5).uniform(0.0, 2 * np.pi, 9))
    order = np.random.default_rng(6).permutation(9)
    points = np.empty((9, 2))
    points[order] = np.column_stack([np.cos(theta), np.sin(theta)])
    return _polyline_complex(points, [(order[i], order[(i + 1) % 9]) for i in range(9)])


@pytest.mark.parametrize("case", ["noncv-kuhn 80^2", "closed loop"])
def test_resample_polyline_matches_per_target_loop(case):
    if case == "closed loop":
        cx = _closed_loop_complex()
    else:
        p = registry_get("noncv")
        cx = initial_state(p, kuhn_tessellation(p.domain_box, [80, 80])).complex
    ref = _loop_resample_polyline(cx)
    got = resample_polyline(cx)
    assert isinstance(got, np.ndarray) and got.shape == ref.shape == (len(ref), 2)
    assert len(ref) >= 9
    assert np.array_equal(got, ref)


def test_boundary_candidates_are_one_array():
    # a closed loop has no endpoints; with a marker it has that one row
    cx = _closed_loop_complex()
    assert _boundary_candidates(cx).shape == (0, 2)
    marked = _polyline_complex(cx.positions, cx.simplices, markers=[(4, "cusp")])
    assert np.array_equal(_boundary_candidates(marked), cx.positions[[4]])
    # an open chain gives its two ends, and a complex with nothing to refine none
    cx = _polyline_complex([[0, 0], [1, 0], [2, 1]], [(0, 1), (1, 2)])
    assert np.array_equal(_boundary_candidates(cx), cx.positions[[0, 2]])
    cx = _polyline_complex([[0, 0], [1, 0]], [(0, 1)], stratum="singular_only")
    assert _boundary_candidates(cx).shape == (0, 2)


# ---------------------------------------------------------------------------
# iterate on a real problem
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def triv_state():
    p = registry_get("triv")
    return initial_state(p, kuhn_tessellation(p.domain_box, [13, 12]))


def test_iterate_candidates_lie_on_complex(triv_state):
    cx = triv_state.complex
    pts = resample_polyline(cx)
    P = cx.positions[cx.simplices[cx.simplex_ids([STRATUM_STABLE])]]
    for c in pts:
        d = float(points_to_simplices_distance(np.broadcast_to(c, (len(P), 1, len(c))), P).min())
        assert d < 1e-9


def test_iterate_step(triv_state):
    st = iterate(triv_state, scheme="polyline")
    assert st.iteration == 1
    assert len(st.history) == 1
    assert len(st.tess.nodes) > len(triv_state.tess.nodes)
    s = st.history[0]
    assert s.nodes == len(st.tess.nodes)
    assert 0 < s.mean_minor <= s.max_minor
    # inserted nodes stay inside the domain box
    box = triv_state.problem.domain_box
    pts = st.tess.nodes[len(triv_state.tess.nodes):]
    assert np.all(pts >= box[:, 0] - 1e-12) and np.all(pts <= box[:, 1] + 1e-12)


def test_state_iteration_is_its_history_length(triv_state):
    st = iterate(triv_state, scheme="polyline")
    assert (triv_state.iteration, st.iteration) == (0, 1)
    with pytest.raises(AttributeError):
        st.iteration = 5
    with pytest.raises(TypeError):
        RefinementState(problem=st.problem, tess=st.tess, complex=st.complex, iteration=3)


def test_iterate_spacing_guard_blocks_everything(triv_state, monkeypatch):
    monkeypatch.setattr(refinement, "SPACING_GAMMA", 50.0)
    with pytest.raises(NoProgress):
        iterate(triv_state, scheme="polyline")


def test_iterate_maximin_with_budget(triv_state):
    st = iterate(triv_state, scheme="maximin", budget=5)
    assert len(st.tess.nodes) <= len(triv_state.tess.nodes) + 5
    assert st.history[-1].nodes == len(st.tess.nodes)


@pytest.mark.parametrize("budget", [-5, 0, True, 2.5, np.float64(3)])
def test_iterate_rejects_a_budget_below_one_before_any_work(triv_state, budget, monkeypatch):
    monkeypatch.setattr(refinement, "resample_polyline", mock.Mock(side_effect=AssertionError))
    with pytest.raises(ValueError, match=f"budget is {re.escape(repr(budget))}, not None"):
        iterate(triv_state, scheme="polyline", budget=budget)


def test_iterate_budget_without_minor_windows(tmp_path):
    # m = 3 > n = 2 has no minor window: every site scores 0 and the budget
    # still keeps at most 5 of them, the same ones on a rerun
    p = _paraboloid_problem()
    tess = kuhn_tessellation(p.domain_box, [6, 6])
    start = initial_state(p, tess)
    assert len(start.complex.simplex_ids([STRATUM_UNSTABLE, STRATUM_STABLE])) == 42
    assert complex_minor_stats(p, start.complex) == (0.0, 0.0)
    # with no critical simplex the stats are (inf, inf), as for m <= n
    empty = analyze(p, Tessellation(tess.nodes, tess.cells[:0]), order=1)
    assert complex_minor_stats(p, empty) == (np.inf, np.inf)
    runs = []
    for k in range(2):
        st = iterate(initial_state(p, tess), scheme="maximin", budget=5)
        assert len(tess.nodes) < len(st.tess.nodes) <= len(tess.nodes) + 5
        assert complex_minor_stats(p, st.complex) == (0.0, 0.0)
        assert (st.history[-1].max_minor, st.history[-1].mean_minor) == (0.0, 0.0)
        save_complex(tmp_path / f"{k}.json", st.complex)
        runs.append((st.tess.nodes.tobytes(), (tmp_path / f"{k}.json").read_bytes()))
    assert runs[0] == runs[1]


def test_iterate_with_reference(triv_state):
    st = iterate(triv_state, scheme="polyline", reference=triv_state.complex)
    assert st.history[-1].hausdorff_to_ref is not None
    assert st.history[-1].hausdorff_to_ref >= 0.0


def test_noncv_polyline_growth():
    # node counts grow iteration over iteration and the largest minor shrinks;
    # exact counts are start-mesh dependent and deliberately not pinned
    p = registry_get("noncv")
    st = initial_state(p, kuhn_tessellation(p.domain_box, [30, 30]))
    for _ in range(3):
        st = iterate(st, scheme="polyline")
    counts = [s.nodes for s in st.history]
    assert len(st.history) == st.iteration == 3
    assert counts[0] > 900 and counts[0] < counts[1] < counts[2]
    assert st.history[-1].max_minor < st.history[0].max_minor


def test_spacing_guard_min_distances(triv_state):
    st = iterate(triv_state, scheme="polyline")
    new_pts = st.tess.nodes[len(triv_state.tess.nodes):]
    old_pts = triv_state.tess.nodes
    min_edge = triv_state.tess.min_incident_edge()
    for c in new_pts:
        d = np.linalg.norm(old_pts - c, axis=1)
        nearest = int(d.argmin())
        assert d[nearest] >= 0.1 * min_edge[nearest] - 1e-12


def guard_loop(tess, candidates):
    """The spacing guard as a loop over the candidates, each measured against
    the nodes and the candidates kept so far: _spacing_guard's reference."""
    kept = []
    guard_pts = tess.nodes
    guard_edges = tess.min_incident_edge()
    for c in candidates:
        d = np.linalg.norm(guard_pts - c, axis=1)
        nearest = int(d.argmin())
        if d[nearest] < refinement.SPACING_GAMMA * guard_edges[nearest]:
            continue
        kept.append(c)
        guard_pts = np.vstack([guard_pts, c[None, :]])
        guard_edges = np.append(guard_edges, d[nearest])
    return np.array(kept).reshape(-1, tess.n)


@pytest.mark.parametrize("kind", ["lattice", "near duplicate"])
@pytest.mark.parametrize("mesh", ["kuhn", "delaunay"])
@pytest.mark.parametrize("n", [2, 3])
@given(st.integers(0, 2**32 - 1), st.integers(0, 40), st.sampled_from([1 << 16, 30]),
       st.sampled_from([0.1, 0.5, 1.0]))
def test_spacing_guard_matches_the_candidate_loop(n, mesh, kind, seed, count, block, gamma):
    # nodes and lattice candidates on multiples of 1/16 tie exactly in
    # distance; near duplicates sit at 0, 1e-9 or about 0.1 x the shortest
    # grid edge from a node or an earlier candidate.  A larger gamma makes
    # the ties decide which candidates are kept.  A block of 30 distances
    # stacks one candidate at a time
    rng = np.random.default_rng(seed)
    if mesh == "kuhn":
        tess = kuhn_tessellation([[0.0, 1.0]] * n, [5, 3, 3][:n])
    else:
        corners = np.array(list(np.ndindex(*[2] * n)), dtype=float)
        tess = build_delaunay(np.unique(np.vstack(
            [corners, rng.integers(0, 9, (12, n)) / 8]), axis=0))
    if kind == "lattice":
        C = rng.integers(-2, 19, (count, n)) / 16
    else:
        C = rng.uniform(-0.1, 1.1, (count, n))
        gaps = [0.0, 1e-9, 0.025, 0.025 * (1 - 2**-50), 0.025 * (1 + 2**-50), 0.05]
        for i in range(count):
            base = C[rng.integers(i)] if i and rng.random() < 0.5 else \
                tess.nodes[rng.integers(len(tess.nodes))]
            C[i] = base
            C[i, rng.integers(n)] += rng.choice([-1, 1]) * rng.choice(gaps)
    with mock.patch.multiple(refinement, _GUARD_BLOCK=block, SPACING_GAMMA=gamma):
        assert np.array_equal(_spacing_guard(tess, C), guard_loop(tess, C))
