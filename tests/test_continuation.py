import ast
import dataclasses
import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretoc.constrained import analyze_constrained, icosphere
from paretoc.complex_io import complex_from_dict, complex_to_dict
from paretoc.continuation import (
    Analyzer,
    CLIP_SNAP_REL,
    STRATUM_SINGULAR,
    STRATUM_STABLE,
    STRATUM_UNSTABLE,
    ParetoComplex,
    SingularVertex,
    _face_vertices,
    analyze,
    clip_polytope,
    glue,
    finite_difference_hessians,
    generalized_hessians,
    minors_of_jacobian,
    solve_lambdas,
)
from paretoc.errors import UnsupportedObjectiveCount
from paretoc.problems import VectorProblem, registry_get, registry_names
from paretoc.tessellation import Tessellation, build_delaunay, kuhn_tessellation

from conftest import simplex_pairs
from test_golden import _paraboloid_problem, _xminusx_problem


def _problem_with_jacobian(J, minor_columns=None):
    m, n = np.shape(J)
    return VectorProblem(
        name="stub", n=n, m=m,
        eval=lambda X: np.zeros((len(X), m)),
        jacobian=lambda X: np.tile(J, (len(X), 1, 1)),
        hessians=lambda X: np.zeros((len(X), m, n, n)),
        domain_box=[[-1, 1]] * n,
        minor_columns=minor_columns,
    )


# ---------------------------------------------------------------------------
# minors
# ---------------------------------------------------------------------------


def test_minor_values_collinear_rows():
    p = _problem_with_jacobian([[1.0, 0.0], [-2.0, 0.0]])
    assert p.minor_columns == ((0, 1),)
    assert minors_of_jacobian(p.jac_at([[0.0, 0.0]])[0], p.minor_columns) == pytest.approx([0.0])


def test_minor_values_identity():
    p = _problem_with_jacobian(np.eye(2))
    assert minors_of_jacobian(p.jac_at([[0, 0]])[0], p.minor_columns) == pytest.approx([1.0])


def test_minor_values_windows_n3():
    p = _problem_with_jacobian([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert p.minor_columns == ((0, 1), (1, 2))
    J = p.jac_at([[0, 0, 0]])[0]
    assert minors_of_jacobian(J, p.minor_columns) == pytest.approx([1.0, 0.0])


def test_minor_selection_validation():
    J = np.eye(2, 4)
    with pytest.raises(ValueError):
        _problem_with_jacobian(J, ((0, 1), (1, 2)))  # column 3 uncovered
    with pytest.raises(ValueError):
        _problem_with_jacobian(J, ((0, 1), (1, 2, 3)))  # a window of width 3
    with pytest.raises(ValueError):
        _problem_with_jacobian(J, ((0, 1), (2, 2), (2, 3)))  # a repeated column
    with pytest.raises(ValueError):
        _problem_with_jacobian(J, ((0, 1), (1, 2), (3, 4)))  # column 4 out of range
    p = _problem_with_jacobian(J, [[0, 1], [1, 2], [2, 3]])
    assert p.minor_columns == ((0, 1), (1, 2), (2, 3))
    # the resolved windows survive a copy of the problem
    assert dataclasses.replace(p).minor_columns == p.minor_columns
    # m > n: no window is left, and none may be given
    assert _problem_with_jacobian(np.eye(3, 2)).minor_columns == ()
    with pytest.raises(ValueError):
        _problem_with_jacobian(np.eye(3, 2), ((0, 1, 1),))


def test_every_registered_problem_constructs_its_windows():
    for name in registry_names():
        p = registry_get(name)
        p = getattr(p, "base", p)  # a constrained problem's objectives
        assert len(p.minor_columns) == max(p.n - p.m + 1, 0)
        assert {c for w in p.minor_columns for c in w} == set(range(p.n))
    assert registry_get("locglob").minor_columns == ((0, 1), (0, 2))


def test_all_zero_minor_warning(caplog):
    # one message for computed and supplied minors: locglob's sliding window
    # (1, 2) vanishes identically, and so does the augmented minor of two
    # opposed identical objectives on the sphere
    caplog.set_level(logging.WARNING, logger="paretoc.continuation")
    p = dataclasses.replace(registry_get("locglob"), minor_columns=None)
    assert p.minor_columns == ((0, 1), (1, 2))
    Analyzer(p, kuhn_tessellation(p.domain_box, [3, 3, 3]))
    analyze_constrained(_xminusx_problem(), icosphere(1))
    assert [r.getMessage() for r in caplog.records] == [
        f"nodal minor {j} vanishes at every node: it is structurally degenerate "
        "for this map, choose other windows in VectorProblem.minor_columns"
        for j in (1, 0)
    ]


# ---------------------------------------------------------------------------
# barycentric face systems
# ---------------------------------------------------------------------------


def _cell_face_vertices(omega, cell, pts, jac, r):
    # the face table of one cell's r-faces: the accepted vertices and the
    # count of rank-deficient faces
    faces = np.array(list(itertools.combinations(cell, r + 1)))
    verts, singular = _face_vertices(omega, faces, pts, jac)
    return [v for v in verts if v is not None], int(singular.sum())


def test_singular_vertex_edge_midpoint():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    omega = np.array([[1.0], [-1.0], [5.0]])
    jac = np.zeros((3, 2, 2))
    jac[:, 0, 0] = 1.0
    jac[:, 1, 1] = 1.0
    verts, skipped = _cell_face_vertices(omega, (0, 1, 2), pts, jac, r=1)
    assert skipped == 0
    edge01 = [v for v in verts if v.face == (0, 1)]
    assert len(edge01) == 1
    assert edge01[0].mu == pytest.approx([0.5, 0.5])
    assert edge01[0].x == pytest.approx([0.5, 0.0])


def test_singular_vertex_rejected_same_sign():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    omega = np.array([[1.0], [2.0], [3.0]])
    jac = np.zeros((3, 2, 2))
    verts, _ = _cell_face_vertices(omega, (0, 1, 2), pts, jac, r=1)
    assert verts == []  # mu = (2, -1) fails positivity on every edge


def test_singular_vertex_3x3_system_frozen():
    # hand-built nodal minors whose unique solution is mu = (1/4, 1/4, 1/2):
    # omega1 = (1, -1, 0), omega2 = (1, 1, -1), plus the normalization row
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    omega = np.array([
        [1.0, 1.0],
        [-1.0, 1.0],
        [0.0, -1.0],
        [9.0, 9.0],  # fourth node keeps other faces sign-locked
    ])
    jac = np.zeros((4, 2, 3))
    verts, _ = _cell_face_vertices(omega, (0, 1, 2, 3), pts, jac, r=2)
    face = [v for v in verts if v.face == (0, 1, 2)]
    assert len(face) == 1
    assert face[0].mu == pytest.approx([0.25, 0.25, 0.5])
    assert face[0].x == pytest.approx([0.25, 0.5, 0.0])


def test_singular_system_rank_deficient_skipped():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    omega = np.zeros((3, 1))  # identically-zero minors: every face degenerate
    jac = np.zeros((3, 2, 2))
    verts, skipped = _cell_face_vertices(omega, (0, 1, 2), pts, jac, r=1)
    assert verts == []
    assert skipped == 3


def test_cell_keeps_the_first_face_of_a_shared_key():
    # r = 2: the faces (0, 1, 2) and (0, 1, 3) of one tetrahedron cross
    # 5e-12 from the edge (0, 1), so both vertices snap to its key with
    # weights that differ in the last bits; the cell holds the first face's
    J = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    p = _problem_with_jacobian(J, minor_columns=[(0, 1), (1, 2)])
    tess = Tessellation(np.vstack([np.zeros(3), np.eye(3)]), [[0, 1, 2, 3]])
    omega = np.array([[1.0, 1.0], [-1.0, -1.0 - 1e-11], [1.0, 2.0], [2.0, 3.0]])
    an = Analyzer(p, tess, order=1, nodal=(np.tile(J, (4, 1, 1)), omega))
    [(verts, skipped)] = an._cell_table([0])
    faces = np.array([[0, 1, 2], [0, 1, 3]])
    first, second = _face_vertices(omega, faces, tess.nodes, an.jac_nodes)[0]
    assert first.key == second.key == "('f', 0, 1)"
    assert not np.array_equal(first.mu, second.mu)
    assert skipped == 0 and len(verts) == 1
    assert np.array_equal(verts[0].mu, first.mu) and np.array_equal(verts[0].x, first.x)


def test_supplied_nodal_data_is_held_as_given():
    # a caller's nodal data is one (jac_nodes, omega_nodes) pair, so neither
    # half can be passed alone and replaced by the problem's own
    J = np.eye(2)
    p = _problem_with_jacobian(J)
    tess = Tessellation([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])
    jac, omega = np.tile(J, (3, 1, 1)), np.array([[-1.0], [1.0], [1.0]])
    an = Analyzer(p, tess, nodal=(jac, omega))
    assert an.jac_nodes is jac and an.omega_nodes is omega and an.r == 1
    assert an.candidate_cells().tolist() == [0]
    assert Analyzer(p, tess).candidate_cells().tolist() == []  # det J = 1 at every node
    cx = analyze(p, tess, order=1, nodal=(jac, omega))
    assert sorted(cx.positions.tolist()) == [[0.0, 0.5], [0.5, 0.0]]
    assert analyze(p, tess, order=1).is_empty()


# ---------------------------------------------------------------------------
# lambda solve
# ---------------------------------------------------------------------------


def _solve_lambda(G):
    lam, res = solve_lambdas(np.asarray(G, dtype=float)[None])
    return lam[0], res[0]


def test_solve_lambda_direct():
    lam, res = _solve_lambda([[1.0, 0.0], [-2.0, 0.0]])
    assert lam == pytest.approx([2 / 3, 1 / 3])
    assert res == pytest.approx(0.0, abs=1e-12)


def test_solve_lambda_aligned_equal_norm():
    lam, res = _solve_lambda([[1.0, 0.0], [1.0, 0.0]])
    assert lam == pytest.approx([0.5, 0.5])
    assert res == pytest.approx(1.0)


def test_solve_lambda_smale_point():
    # on the critical curve at x = 0.5: rows (0, -1) and (0, 1/(x+1))
    p = registry_get("smale")
    x = np.array([0.5, -2 * 0.5**3 - 3 * 0.5**2])
    G = p.jac_at(x[None])[0]
    assert G[1][0] == pytest.approx(0.0, abs=1e-14)
    lam, res = _solve_lambda(G)
    assert lam == pytest.approx([0.4, 0.6])
    assert res == pytest.approx(0.0, abs=1e-12)
    assert np.all(lam >= 0)


def test_solve_lambda_rank_collapse():
    # rank below m-1: the weights are ambiguous, so the row is NaN
    lam, res = _solve_lambda(np.zeros((2, 2)))
    assert np.all(np.isnan(lam))
    assert res == np.inf


# ---------------------------------------------------------------------------
# clipping
# ---------------------------------------------------------------------------


def _seg(sa, sb):
    a = SingularVertex(key=repr(("f", 0)), x=np.array([0.0, 0.0]))
    b = SingularVertex(key=repr(("f", 1)), x=np.array([1.0, 0.0]))
    piece = (a, b)
    values = {a: sa, b: sb}
    return piece, values


def test_clip_segment_half():
    piece, values = _seg(1.0, -1.0)
    kept, dropped, boundary = clip_polytope([piece], values)
    assert len(kept) == 1 and len(dropped) == 1 and len(boundary) == 1
    assert boundary[0].x == pytest.approx([0.5, 0.0])
    kept_keys = {v.key for v in kept[0]}
    assert repr(("f", 0)) in kept_keys
    assert boundary[0].key == repr(("c", "clip", ("f", 0), ("f", 1)))
    assert boundary[0] not in values  # a new vertex, not an endpoint


def test_clip_segment_no_clip():
    piece, values = _seg(1.0, 1.0)
    kept, dropped, boundary = clip_polytope([piece], values)
    assert len(kept) == 1 and not dropped and not boundary


def test_clip_triangle_corner():
    verts = [
        SingularVertex(key=repr(("f", 0)), x=np.array([0.0, 0.0, 0.0])),
        SingularVertex(key=repr(("f", 1)), x=np.array([1.0, 0.0, 0.0])),
        SingularVertex(key=repr(("f", 2)), x=np.array([0.0, 1.0, 0.0])),
    ]
    piece = tuple(verts)
    values = dict(zip(verts, [1.0, -1.0, -1.0]))
    kept, dropped, boundary = clip_polytope([piece], values)
    assert len(kept) == 1 and len(kept[0]) == 3
    assert len(boundary) == 2
    bx = sorted(tuple(np.round(v.x, 12)) for v in boundary)
    assert bx == [(0.0, 0.5, 0.0), (0.5, 0.0, 0.0)]
    assert len(dropped) == 1 and len(dropped[0]) == 4


_CLIP_VALUES = st.one_of(
    st.sampled_from([0.0, 0.5 * CLIP_SNAP_REL, -0.5 * CLIP_SNAP_REL]),
    st.floats(-1.0, 1.0, allow_nan=False))


@given(st.integers(2, 8).flatmap(lambda k: st.lists(_CLIP_VALUES, min_size=k, max_size=k)))
def test_clip_keeps_every_vertex_and_cut(svals):
    # glue reads sigma's reach from the strata: every input vertex lands in
    # a kept or a dropped piece, every cut in both, and no side degenerates
    k = len(svals)
    angles = 2.0 * np.pi * np.arange(k) / k
    piece = tuple(SingularVertex(key=repr(("f", i)), x=np.array([np.cos(a), np.sin(a)]))
                  for i, a in enumerate(angles))
    kept, dropped, boundary = clip_polytope([piece], dict(zip(piece, svals)))
    on_kept = {v for p in kept for v in p}
    on_dropped = {v for p in dropped for v in p}
    assert set(piece) <= on_kept | on_dropped
    for w in boundary:
        if w not in piece:
            assert w in on_kept and w in on_dropped
    for p in kept + dropped:
        assert len(p) == 2 if k == 2 else len(p) >= 3


# ---------------------------------------------------------------------------
# cell analysis on registered problems
# ---------------------------------------------------------------------------


def _tiny_cell_tess(center, size):
    c = np.asarray(center, dtype=float)
    pts = c + size * np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
    return build_delaunay(pts)


def test_triv_cell_straddling_front():
    p = registry_get("triv")
    # the critical curve passes (1.5, ~1.318)
    tess = _tiny_cell_tess([1.5, 1.32], 0.35)
    found = False
    for a in Analyzer(p, tess, order=1).run_cells():
        for piece in a.strata[STRATUM_UNSTABLE] + a.strata[STRATUM_STABLE]:
            found = True
            for v in piece:
                assert np.all(v.lam > 0)
    assert found


def _bisect_omega(p, a, b):
    def om(x):
        J = p.jac_at(x[None])[0]
        return float(J[0, 0] * J[1, 1] - J[0, 1] * J[1, 0])

    fa, fb = om(a), om(b)
    assert fa * fb < 0
    for _ in range(80):
        m = 0.5 * (a + b)
        fm = om(m)
        if fa * fm <= 0:
            b, fb = m, fm
        else:
            a, fa = m, fm
    return 0.5 * (a + b)


def test_noncv_noncritical_loop_cell():
    p = registry_get("noncv")
    q = _bisect_omega(p, np.array([-2.0, -0.6]), np.array([-2.0, -2.5]))
    tess = _tiny_cell_tess(q, 0.05)
    sigma_nonempty = False
    theta_empty = True
    for a in Analyzer(p, tess, order=1).run_cells():
        if any(a.strata.values()):
            sigma_nonempty = True
        if a.strata[STRATUM_UNSTABLE] or a.strata[STRATUM_STABLE]:
            theta_empty = False
    assert sigma_nonempty and theta_empty


def test_same_sign_cell_empty():
    p = registry_get("triv")
    tess = _tiny_cell_tess([-1.0, 3.0], 0.1)  # far from the singular curve
    an = Analyzer(p, tess, order=1)
    assert len(an.candidate_cells()) == 0


# ---------------------------------------------------------------------------
# generalized Hessian
# ---------------------------------------------------------------------------


def _sigma_at(G, lam, hess):
    sigma, fail = generalized_hessians(np.asarray(G, dtype=float)[None],
                                       np.asarray(lam, dtype=float)[None],
                                       np.asarray(hess, dtype=float)[None])
    return sigma[0], bool(fail[0])


def test_generalized_hessian_triv_negative():
    p = registry_get("triv")
    x = np.array([1.5, 1.318])
    lam, _ = _solve_lambda(p.jac_at(x[None])[0])
    sig, fail = _sigma_at(p.jac_at(x[None])[0], lam, p.hess_at(x[None])[0])
    assert not fail
    assert sig.shape == (1,)  # m = n: scalar restricted form
    assert np.all(sig < 0)


def test_generalized_hessian_smale_unstable_value():
    # frozen oracle: on the unstable branch at x=-0.5, lam=(2/3,1/3) and the
    # restricted second derivative is lam2 * (-6x/(x+1)) = 2.0 exactly
    p = registry_get("smale")
    x = np.array([-0.5, -2 * (-0.5) ** 3 - 3 * (-0.5) ** 2])
    lam, _ = _solve_lambda(p.jac_at(x[None])[0])
    assert lam == pytest.approx([2 / 3, 1 / 3])
    sig, fail = _sigma_at(p.jac_at(x[None])[0], lam, p.hess_at(x[None])[0])
    assert not fail
    assert sig == pytest.approx([2.0])
    assert sig.max() > 0  # unstable


def test_generalized_hessian_kernel_mismatch():
    # zero gradient rows: rank below m-1, so the kernel dimension is ambiguous
    _, fail = _sigma_at(np.zeros((2, 2)), [0.5, 0.5], np.zeros((2, 2, 2)))
    assert fail


# ---------------------------------------------------------------------------
# finite-difference Hessians
# ---------------------------------------------------------------------------


def test_fd_hessian_exact_on_quadratic():
    p = registry_get("sms")
    tess = _tiny_cell_tess([2.0, 1.0], 0.4)
    cell = tess.cells[0]
    pts = tess.nodes[list(cell)]
    jac = p.jac_at(pts)
    H = finite_difference_hessians(p, pts, jac)
    assert H[0] == pytest.approx(np.diag([-2.0, -2.0]), abs=1e-10)
    assert H[1] == pytest.approx(np.diag([-2.0, 2.0]), abs=1e-10)


def test_fd_hessian_zero_on_linear():
    p = _problem_with_jacobian([[1.0, 2.0], [3.0, -1.0]])
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    jac = p.jac_at(pts)
    H = finite_difference_hessians(p, pts, jac)
    assert np.abs(H).max() == 0.0


# ---------------------------------------------------------------------------
# glue
# ---------------------------------------------------------------------------


def test_glue_shared_vertex_merged_once_degree_two():
    p = registry_get("triv")
    # square with both diagly-placed corners around the critical curve; the
    # shared diagonal carries exactly one singular vertex
    pts = np.array([[1.2, 1.0], [1.9, 1.0], [1.9, 1.7], [1.2, 1.7]])
    tess = build_delaunay(pts)
    assert len(tess.cells) == 2
    cx = analyze(p, tess, order=1)
    shared = sorted(set(tess.cells[0]) & set(tess.cells[1]))
    diag_keys = [
        i for i, k in enumerate(map(ast.literal_eval, cx.keys))
        if k[0] == "f" and len(k) == 3 and sorted(k[1:]) == shared
    ]
    assert len(diag_keys) == 1
    vid = diag_keys[0]
    degree = sum(1 for ids in cx.simplices.tolist() if vid in ids)
    assert degree == 2


def _glued_pairs(analyses, keys):
    """(vertex ids, stratum) of every simplex of the glued complex, from the
    analyses and sorted as glue's (ids, stratum, cell) triples once were: a
    segment piece is a simplex, a polygon is fanned from its lowest key, and
    the first cell that lists a simplex names its stratum."""
    index_of = {k: i for i, k in enumerate(keys)}
    first: dict = {}
    for a in sorted(analyses, key=lambda a: a.cell_index):
        for stratum, pieces in a.strata.items():
            for piece in pieces:
                kl = [v.key for v in piece]
                r = kl.index(min(kl))
                cyc = kl[r:] + kl[:r]
                fan = [cyc[:1] + cyc[i:i + 2] for i in range(1, len(cyc) - 1)] or [cyc]
                for tri in fan:
                    first.setdefault(tuple(sorted(index_of[k] for k in tri)), stratum)
    return sorted(first.items())


def _glued(p, counts):
    tess = kuhn_tessellation(p.domain_box, counts)
    an = Analyzer(p, tess)
    analyses = an.run_cells()
    cx = glue(analyses, p, tess, order=an.order)
    return cx, _glued_pairs(analyses, cx.keys)


def _loaded_from_unsorted_file():
    # a file's rows reversed and in reverse order, plus a hand-edited
    # duplicate row: identical rows order by their stratum names
    p = registry_get("triv")
    cx = analyze(p, kuhn_tessellation(p.domain_box, [9, 9]))
    doc = complex_to_dict(cx)
    rows = [{"vertex_ids": s["vertex_ids"][::-1], "stratum": s["stratum"]}
            for s in doc["simplices"][::-1]]
    rows.insert(0, {"vertex_ids": rows[-1]["vertex_ids"], "stratum": STRATUM_SINGULAR})
    doc["simplices"] = rows
    ids = tuple(rows[-1]["vertex_ids"][::-1])
    expect = sorted(simplex_pairs(cx) + [(ids, STRATUM_SINGULAR)])
    return complex_from_dict(doc), expect


def _constructed():
    pos = np.arange(10.0).reshape(5, 2)
    segs = [(4, 3), (0, 2), (2, 1), (1, 0), (3, 2)]
    strata = [STRATUM_STABLE, STRATUM_UNSTABLE, STRATUM_STABLE, STRATUM_UNSTABLE,
              STRATUM_STABLE]
    cx = ParetoComplex(n=2, m=2, positions=pos, u_values=pos, lam=np.full((5, 2), 0.5),
                       sigma=None, keys=[repr(("f", i)) for i in range(5)],
                       simplices=segs, stratum=strata, markers=[])
    return cx, sorted((tuple(sorted(s)), k) for s, k in zip(segs, strata))


@pytest.mark.parametrize("make", [
    pytest.param(lambda: _glued(registry_get("noncv"), [21, 21]), id="glue m=2"),
    pytest.param(lambda: _glued(registry_get("tri_quadratic"), [5, 5, 5]), id="glue m=3"),
    pytest.param(lambda: _glued(_paraboloid_problem(), [4, 4]), id="glue m>n"),
    pytest.param(_loaded_from_unsorted_file, id="complex_from_dict"),
    pytest.param(_constructed, id="constructed"),
])
def test_every_producer_gives_one_sorted_simplex_array(make):
    cx, expect = make()
    S = cx.simplices
    assert S.dtype == np.intp and S.shape == (len(expect), cx.m) and len(expect) > 0
    assert np.all(S[:, 1:] > S[:, :-1])            # each row ascending
    assert S.tolist() == sorted(S.tolist())         # rows in lexicographic order
    assert not S.flags.writeable
    with pytest.raises(ValueError):
        S[0, 0] = 0
    assert simplex_pairs(cx) == expect              # the stratum of each row
    # only the strata present: the constructed complex has no singular_only
    assert cx.strata_counts() == {k: cx.stratum.count(k) for k in set(cx.stratum)}
    again = complex_from_dict(complex_to_dict(cx))
    assert np.array_equal(again.simplices, S) and again.stratum == cx.stratum


def test_analyze_rejects_unsupported_m():
    p = VectorProblem(
        name="m4", n=5, m=4,
        eval=lambda X: np.zeros((len(X), 4)),
        jacobian=lambda X: np.zeros((len(X), 4, 5)),
        hessians=lambda X: np.zeros((len(X), 4, 5, 5)),
        domain_box=[[-1, 1]] * 5,
    )
    with pytest.raises(UnsupportedObjectiveCount):
        analyze(p, kuhn_tessellation(p.domain_box, [2] * 5))


# ---------------------------------------------------------------------------
# invariants on a real run
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def smale_run():
    p = registry_get("smale")
    tess = kuhn_tessellation(p.domain_box, [40, 40])
    an = Analyzer(p, tess, order=2)
    analyses = an.run_cells()
    from paretoc.continuation import glue

    cx = glue(analyses, p, tess, order=2)
    return p, an, analyses, cx


def test_invariant_mu_normalization(smale_run):
    _, _, analyses, _ = smale_run
    seen = 0
    for a in analyses:
        for v in a.singular_vertices:
            if v.mu is None:
                continue
            seen += 1
            assert abs(v.mu.sum() - 1.0) < 1e-12
            assert np.all(v.mu > -1e-10)
    assert seen > 0


def test_invariant_lambda_orthogonality(smale_run):
    _, _, analyses, _ = smale_run
    checked = 0
    for a in analyses:
        for v in a.singular_vertices:
            if v.lam is None or not v.critical_ok:
                continue
            checked += 1
            scale = np.linalg.norm(v.grad_interp)
            assert np.linalg.norm(v.lam @ v.grad_interp) <= 1e-9 * scale + v.residual
            assert abs(v.lam.sum() - 1.0) < 1e-12
    assert checked > 0


def test_invariant_omega_interpolation_consistency(smale_run):
    _, an, analyses, _ = smale_run
    for a in analyses:
        for v in a.singular_vertices:
            if v.face is None or v.mu is None:
                continue
            om = an.omega_nodes[list(v.face)]
            interp = v.mu @ om
            assert np.abs(interp).max() <= 1e-10 * max(np.abs(om).max(), 1e-300)


def test_invariant_containment_chain(smale_run):
    from paretoc.geometry import points_to_simplices_distance

    _, _, _, cx = smale_run
    stable_ids = cx.simplex_ids([STRATUM_STABLE])
    theta_ids = cx.simplex_ids([STRATUM_STABLE, STRATUM_UNSTABLE])
    sigma_ids = cx.simplex_ids()
    assert len(stable_ids) and len(theta_ids)

    def min_dist(point, ids):
        P = cx.positions[cx.simplices[ids]]
        d = points_to_simplices_distance(np.broadcast_to(point, (len(P), 1, len(point))), P)
        return float(d.min(initial=np.inf))

    for vid in cx.simplices[stable_ids].ravel().tolist():
        assert min_dist(cx.positions[vid], theta_ids) < 1e-9
    for vid in cx.simplices[theta_ids].ravel().tolist():
        assert min_dist(cx.positions[vid], sigma_ids) < 1e-9


def test_invariant_label_transitions_at_markers(smale_run):
    _, _, _, cx = smale_run
    marker_vids = {vid for vid, _ in cx.markers}
    by_vertex: dict[int, set] = {}
    for ids, stratum in simplex_pairs(cx):
        for vid in ids:
            by_vertex.setdefault(vid, set()).add(stratum)
    for vid, strata in by_vertex.items():
        if len(strata) > 1:
            assert vid in marker_vids, (vid, strata, cx.positions[vid])


def test_smale_cusp_count(smale_run):
    _, _, _, cx = smale_run
    cusps = cx.markers_of_kind("cusp")
    assert len(cusps) == 1
    assert cx.positions[cusps[0]] == pytest.approx([0.0, 0.0], abs=0.02)


# ---------------------------------------------------------------------------
# m > n mode
# ---------------------------------------------------------------------------


def test_m_greater_than_n_mode():
    p = VectorProblem(
        name="toy1d", n=1, m=2,
        eval=lambda X: np.hstack([X, -np.float_power(X, 2)]),
        jacobian=lambda X: np.stack([np.ones_like(X), -2.0 * X], axis=1),
        hessians=lambda X: np.tile([[[0.0]], [[-2.0]]], (len(X), 1, 1, 1)),
        domain_box=[[-1.0, 1.0]],
    )
    cx = analyze(p, kuhn_tessellation(p.domain_box, [9]), order=1)
    crit = cx.simplex_ids([STRATUM_UNSTABLE])
    xs = sorted(cx.positions[v][0] for v in cx.simplices[crit].ravel().tolist())
    assert xs[0] == pytest.approx(0.0, abs=1e-12)
    assert xs[-1] == pytest.approx(1.0)
    assert [(round(float(cx.positions[v][0]), 6), k) for v, k in cx.markers] == [
        (0.0, "criticality_boundary")
    ]


def test_m_greater_than_n_needs_cells_as_pieces():
    # m = 3 > n = 1: a cell is a segment, not the polygon an m = 3 piece is
    p = VectorProblem(
        name="toy1d3", n=1, m=3,
        eval=lambda X: np.hstack([X, -X, X**2]),
        jacobian=lambda X: np.stack([np.ones_like(X), -np.ones_like(X), 2.0 * X], axis=1),
        hessians=lambda X: np.tile([[[0.0]], [[0.0]], [[2.0]]], (len(X), 1, 1, 1)),
        domain_box=[[-1.0, 1.0]],
    )
    assert p.minor_columns == ()
    with pytest.raises(UnsupportedObjectiveCount):
        Analyzer(p, kuhn_tessellation(p.domain_box, [4]))
