import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from paretoc import continuation
from paretoc.constrained import (
    analyze_constrained,
    augmented_minors,
    icosphere,
    project_gradients,
)
from paretoc.continuation import EPS_RANK, STRATUM_UNSTABLE, SingularVertex
from paretoc.errors import NonSquareUnsupported, RankDeficientConstraint
from paretoc.geometry import points_to_simplices_distance
from paretoc.problems import ConstrainedProblem, VectorProblem, registry_get
from paretoc.tessellation import Tessellation

from conftest import simplex_pairs


@pytest.fixture(scope="module")
def sphere():
    return registry_get("sphere_proj")


def _analytic_arcs(samples=600):
    phi = np.linspace(0.0, np.pi / 2, samples)
    quad1 = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    return np.vstack([quad1, -quad1])


def _critical_distance_to_arcs(cx):
    arcs = _analytic_arcs()
    ids = cx.simplex_ids([STRATUM_UNSTABLE])
    P = cx.positions[cx.simplices[ids]]
    d_arc_to_theta = points_to_simplices_distance(
        np.broadcast_to(arcs, (len(P),) + arcs.shape), P).min(axis=0, initial=np.inf)
    vids = sorted(set(cx.simplices[ids].ravel().tolist()))
    d_theta_to_arc = np.array(
        [np.linalg.norm(arcs - cx.positions[v], axis=1).min() for v in vids]
    )
    return max(float(d_arc_to_theta.max()), float(d_theta_to_arc.max()))


# ---------------------------------------------------------------------------
# pointwise operations
# ---------------------------------------------------------------------------


def test_project_gradients_pole_of_first_objective(sphere):
    [pg] = project_gradients(sphere, [[1.0, 0.0, 0.0]])
    assert pg[0] == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_project_gradients_already_tangent(sphere):
    [pg] = project_gradients(sphere, [[0.0, 0.0, 1.0]])
    assert pg == pytest.approx(np.array([[1.0, 0, 0], [0, 1.0, 0]]), abs=1e-14)


def test_project_gradients_closed_form(sphere, rng):
    # projections are (1 - x1^2, -x1 x2, -x1 x3) and (-x1 x2, 1 - x2^2, -x2 x3)
    for _ in range(20):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        [pg] = project_gradients(sphere, [x])
        expected = np.array(
            [
                [1 - x[0] ** 2, -x[0] * x[1], -x[0] * x[2]],
                [-x[0] * x[1], 1 - x[1] ** 2, -x[1] * x[2]],
            ]
        )
        assert pg == pytest.approx(expected, abs=1e-12)
        assert np.abs(pg @ sphere.g_jac_at(x[None])[0].T).max() < 1e-10


def test_augmented_minors_closed_form(sphere, rng):
    assert augmented_minors(sphere, [[0.0, 0.0, 1.0]])[0] == pytest.approx(1.0)
    eq = [np.sqrt(0.5), np.sqrt(0.5), 0.0]
    assert augmented_minors(sphere, [eq])[0] == pytest.approx(0.0, abs=1e-15)
    for _ in range(20):
        x = rng.normal(size=3)
        x /= np.linalg.norm(x)
        assert augmented_minors(sphere, [x])[0] == pytest.approx(x[2], abs=1e-14)


def test_steps_6_and_7_equivalent(sphere):
    # the sign of the stacked determinant matches the orientation of the
    # projected gradient pair in an oriented tangent frame, at every node
    mesh = icosphere(1)
    for x in mesh.nodes:
        g = sphere.g_jac_at(x[None])[0][0]
        ghat = g / np.linalg.norm(g)
        # oriented tangent frame: det[t1, t2, ghat] > 0
        t1 = np.cross(ghat, [0.0, 0.0, 1.0])
        if np.linalg.norm(t1) < 1e-8:
            t1 = np.cross(ghat, [0.0, 1.0, 0.0])
        t1 /= np.linalg.norm(t1)
        t2 = np.cross(ghat, t1)
        if np.linalg.det(np.column_stack([t1, t2, ghat])) < 0:
            t2 = -t2
        [pg] = project_gradients(sphere, [x])
        frame_det = (pg[0] @ t1) * (pg[1] @ t2) - (pg[0] @ t2) * (pg[1] @ t1)
        [aug] = augmented_minors(sphere, [x])
        if abs(aug) > 1e-12:
            assert np.sign(frame_det) == np.sign(aug)


def test_rank_deficient_constraint():
    bad = ConstrainedProblem(
        base=registry_get("sphere_proj").base,
        g=lambda X: np.zeros((len(X), 1)),
        g_jacobian=lambda X: np.zeros((len(X), 1, 3)),
    )
    with pytest.raises(RankDeficientConstraint):
        project_gradients(bad, [[1.0, 0.0, 0.0]])


def test_non_square_unsupported(sphere):
    # the constraint count is n - m, not a setting: a g of two components
    # for n = 3, m = 2 fails the shape check of the stacked callables
    two = dict(g=lambda X: np.zeros((len(X), 2)),
               g_jacobian=lambda X: np.tile(np.eye(2, 3), (len(X), 1, 1)))
    with pytest.raises(TypeError):
        ConstrainedProblem(base=sphere.base, **two, n_constraints=2)
    cp = ConstrainedProblem(base=sphere.base, **two)
    for stage in (augmented_minors, project_gradients):
        with pytest.raises(ValueError, match=re.escape("expected (1, 1, 3)")):
            stage(cp, [[0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match=re.escape("expected (12, 1, 3)")):
            stage(cp, icosphere(0).nodes)
    with pytest.raises(ValueError, match=re.escape("expected (12, 1)")):
        analyze_constrained(cp, icosphere(0))
    # the mesh is the one input left that can make the test non-square
    for width in (2, 4):
        mesh = Tessellation(icosphere(0).nodes, [list(range(width))])
        with pytest.raises(NonSquareUnsupported, match=f"the mesh cells have {width} nodes"):
            analyze_constrained(sphere, mesh)


# ---------------------------------------------------------------------------
# stacked nodal stage against the per-node loop
# ---------------------------------------------------------------------------


def _loop_project_gradients(cp, x):
    x = np.asarray(x, dtype=float)
    Dg = cp.g_jac_at(x[None])[0]
    gram = Dg @ Dg.T
    sv = np.linalg.svd(Dg, compute_uv=False)
    if sv[-1] <= EPS_RANK * max(sv[0], 1e-300):
        raise RankDeficientConstraint(f"Dg rank deficient at {x}")
    J = cp.base.jac_at(x[None])[0]
    corr = Dg.T @ np.linalg.solve(gram, Dg @ J.T)
    return J - corr.T


def _loop_augmented_minor(cp, x):
    x = np.asarray(x, dtype=float)
    cols = np.vstack([cp.g_jac_at(x[None])[0], cp.base.jac_at(x[None])[0]]).T
    value = float(np.linalg.det(cols))
    bound = float(np.prod(np.linalg.norm(cols, axis=0)))
    return 0.0 if abs(value) <= 1e-13 * bound else value


def _assert_nodal_stage_matches_loop(cp, points):
    proj = project_gradients(cp, points)
    omega = augmented_minors(cp, points)
    assert proj.shape == (len(points), cp.m, cp.n)
    assert omega.shape == (len(points),)
    assert np.array_equal(proj, [_loop_project_gradients(cp, p) for p in points])
    assert np.array_equal(omega, [_loop_augmented_minor(cp, p) for p in points])


@pytest.mark.parametrize("sub", range(6))
def test_stacked_nodal_stage_matches_loop_on_icospheres(sphere, sub):
    _assert_nodal_stage_matches_loop(sphere, icosphere(sub).nodes)


def test_stacked_nodal_stage_matches_loop_on_quadratic_pairs(sphere):
    points = icosphere(2).nodes
    for seed in range(12):
        _assert_nodal_stage_matches_loop(_random_quadratic_pair(sphere, seed), points)


@given(
    st.lists(
        st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda p: np.linalg.norm(p) > 1e-3),
        min_size=1, max_size=30,
    ),
    st.integers(-1, 11),
)
def test_stacked_nodal_stage_matches_loop_on_drawn_points(coords, seed):
    sphere = registry_get("sphere_proj")
    cp = sphere if seed < 0 else _random_quadratic_pair(sphere, seed)
    points = np.array(coords)
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    _assert_nodal_stage_matches_loop(cp, points)


def test_one_ulp_in_one_gram_entry_fails_the_equality(sphere, monkeypatch):
    # the reference comparison must see a one-ulp change at a single node;
    # rounding absorbs it at a few nodes (4 of 162 here), not at node 0
    points = icosphere(2).nodes
    ref = np.array([_loop_project_gradients(sphere, p) for p in points])
    solve = np.linalg.solve

    def perturbed_solve(a, b):
        a = a.copy()
        a[0, 0, 0] = np.nextafter(a[0, 0, 0], np.inf)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", perturbed_solve)
    proj = project_gradients(sphere, points)
    differs = np.flatnonzero((proj != ref).any(axis=(1, 2)))
    assert differs.tolist() == [0]


@pytest.mark.parametrize("nodes", [(5,), (5, 9), (9, 5, 30)])
def test_rank_deficient_constraint_names_the_first_node(sphere, nodes):
    mesh = icosphere(1)
    at = {mesh.nodes[i].tobytes() for i in nodes}

    def g_jacobian(X):
        J = sphere.g_jacobian(X)
        J[[x.tobytes() in at for x in X]] = 0.0
        return J

    cp = ConstrainedProblem(base=sphere.base, g=sphere.g, g_jacobian=g_jacobian)
    with pytest.raises(RankDeficientConstraint) as exc:
        project_gradients(cp, mesh.nodes)
    assert str(exc.value) == f"Dg rank deficient at {mesh.nodes[5]}"
    with pytest.raises(RankDeficientConstraint) as exc:
        analyze_constrained(cp, mesh)
    assert str(exc.value) == f"Dg rank deficient at {mesh.nodes[5]}"


def test_off_constraint_mesh_fails_before_the_rank_test(sphere):
    mesh = icosphere(1)
    off = Tessellation(mesh.nodes * 1.01, mesh.cells)
    cp = ConstrainedProblem(base=sphere.base, g=sphere.g,
                            g_jacobian=lambda X: np.zeros((len(X), 1, 3)))
    with pytest.raises(ValueError, match="mesh node violates the constraint"):
        analyze_constrained(cp, off)
    with pytest.raises(RankDeficientConstraint):
        analyze_constrained(cp, mesh)


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def test_icosphere_counts_and_norms():
    for sub, (nv, nf) in enumerate([(12, 20), (42, 80), (162, 320)]):
        mesh = icosphere(sub)
        assert (len(mesh.nodes), len(mesh.cells)) == (nv, nf)
        assert np.allclose(np.linalg.norm(mesh.nodes, axis=1), 1.0, atol=1e-12)


def test_manifold_mesh_validation(sphere):
    mesh = icosphere(0)
    analyze_constrained(sphere, mesh)
    assert np.abs(sphere.g_val_at(mesh.nodes)).max() < 1e-12
    bad = Tessellation(mesh.nodes * 1.01, mesh.cells)
    with pytest.raises(ValueError, match="mesh node violates the constraint"):
        analyze_constrained(sphere, bad)

    # a NaN residual is no pass either
    def g_nan_at_node_0(X):
        G = sphere.g(X).copy()
        G[0] = np.nan
        return G

    nan_g = ConstrainedProblem(base=sphere.base, g=g_nan_at_node_0, g_jacobian=sphere.g_jacobian)
    with pytest.raises(ValueError, match=r"mesh node violates the constraint: max \|g\| = nan"):
        analyze_constrained(nan_g, mesh)


def test_mesh_without_cells_gives_an_empty_complex(sphere):
    mesh = Tessellation(icosphere(0).nodes, np.empty((0, 3), np.intp))
    assert mesh.cells.shape == (0, 3)
    cx = analyze_constrained(sphere, mesh)
    assert (cx.num_vertices, cx.simplices.shape, cx.stratum, cx.markers) == (0, (0, 2), (), [])


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_icosahedron_equator_polyline(sphere):
    cx = analyze_constrained(sphere, icosphere(0))
    comps = cx.components()
    assert len(comps) == 1
    degrees: dict[int, int] = {}
    for v in cx.simplices.ravel().tolist():
        degrees[v] = degrees.get(v, 0) + 1
    assert set(degrees.values()) == {2}  # closed polyline
    arcs = cx.components(strata=[STRATUM_UNSTABLE])
    assert len(arcs) == 2
    for comp in arcs:
        pos = cx.positions[list(comp)]
        assert np.all(pos[:, 0] * pos[:, 1] > -1e-9)


def test_opposed_identical_objectives_degenerate(sphere, caplog):
    cp = ConstrainedProblem(
        base=VectorProblem(
            name="xminusx", n=3, m=2,
            eval=lambda X: np.column_stack([X[:, 0], -X[:, 0]]),
            jacobian=lambda X: np.tile([[1.0, 0, 0], [-1.0, 0, 0]], (len(X), 1, 1)),
            hessians=lambda X: np.zeros((len(X), 2, 3, 3)),
            domain_box=[[-1, 1]] * 3,
        ),
        g=sphere.g,
        g_jacobian=sphere.g_jacobian,
    )
    cx = analyze_constrained(cp, icosphere(1))
    # the stacked determinant vanishes identically: every face system is
    # degenerate, nothing is extracted
    assert cx.is_empty()


def test_subdivision_convergence_superlinear(sphere):
    dists = []
    for sub in (0, 1, 2):
        cx = analyze_constrained(sphere, icosphere(sub))
        dists.append(_critical_distance_to_arcs(cx))
    # halving the edge length should cut the distance by clearly more than 2
    assert dists[1] < dists[0] / 2.5
    assert dists[2] < dists[1] / 2.5


def test_twice_subdivided_distance_bound(sphere):
    cx = analyze_constrained(sphere, icosphere(2))
    assert _critical_distance_to_arcs(cx) < 0.05


def test_arc_endpoints_converge_to_axis_crossings(sphere):
    axes = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]], dtype=float)
    prev = None
    for sub in (1, 2, 3):
        cx = analyze_constrained(sphere, icosphere(sub))
        bnd = cx.markers_of_kind("criticality_boundary")
        assert len(bnd) == 4
        worst = max(
            float(np.linalg.norm(axes - cx.positions[v], axis=1).min()) for v in bnd
        )
        if prev is not None:
            assert worst < prev / 2.0  # superlinear shrink per subdivision
        prev = worst
    assert prev < 0.01


# ---------------------------------------------------------------------------
# drift from the closed-form edge crossing
# ---------------------------------------------------------------------------


def _random_quadratic_pair(sphere, seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(2, 3, 3))
    A = 0.5 * (A + np.swapaxes(A, 1, 2))
    b = rng.normal(size=(2, 3))
    base = VectorProblem(
        name=f"quadratic{seed}", n=3, m=2,
        # one small matmul per point, so a point's values do not depend on
        # the stack it is in
        eval=lambda X: 0.5 * np.einsum("ni,jik,nk->nj", X, A, X) + (b @ X[:, :, None])[..., 0],
        jacobian=lambda X: (A @ X[:, None, :, None])[..., 0] + b,
        hessians=lambda X: np.tile(A, (len(X), 1, 1, 1)),
        domain_box=[[-1, 1]] * 3,
    )
    return ConstrainedProblem(base=base, g=sphere.g, g_jacobian=sphere.g_jacobian)


def _closed_form_face_vertices(omega_nodes, faces, points, jac_nodes, hess_at=None):
    """Edge crossings as the constrained pipeline found them before it ran
    through Analyzer: the weight of b is w_a / (w_a - w_b), accepted with a
    -1e-10 slack and snapped to a node within 1e-9.  Drop-in for the face
    table: per edge row a vertex or None, and the mask of the rank-deficient
    rows (both minors zero).  The vertices are complete for a first-order
    run: lambda is one stacked solve, as in the face table."""
    assert hess_at is None  # the constrained pipeline is first order
    verts = [None] * len(faces)
    singular = np.zeros(len(faces), dtype=bool)
    crossings = {}
    for f, (a, b) in enumerate(faces.tolist()):
        wa, wb = omega_nodes[a, 0], omega_nodes[b, 0]
        if wa == wb:
            singular[f] = wa == 0.0
            continue
        mu = wa / (wa - wb)
        if not -1e-10 < mu < 1.0 + 1e-10:
            continue
        mu = min(max(mu, 0.0), 1.0)
        if mu <= 1e-9:
            crossings[f] = (a,), np.array([1.0])
        elif mu >= 1.0 - 1e-9:
            crossings[f] = (b,), np.array([1.0])
        else:
            crossings[f] = (a, b), np.array([1.0 - mu, mu])
    if not crossings:
        return verts, singular
    G = np.array([np.tensordot(w, jac_nodes[list(sub)], axes=1) for sub, w in crossings.values()])
    lam, residual = continuation.solve_lambdas(G)
    scale = np.linalg.norm(G, axis=2).max(axis=1)
    for (f, (sub, w)), g, lv, res, sc in zip(crossings.items(), G, lam, residual, scale):
        verts[f] = SingularVertex(
            key=repr(("f",) + sub), x=w @ points[list(sub)], face=sub, mu=w, grad_interp=g,
            lam=None if np.isnan(lv[0]) else lv, residual=float(res),
            critical_ok=bool(res <= continuation.EPS_RES * sc),
        )
    return verts, singular


@pytest.mark.parametrize("seed", range(12))
def test_stacked_edge_solve_drifts_by_ulps_only(sphere, seed, monkeypatch):
    # the stacked LU solve of an edge pivots on the minor row when
    # |w_a| > 1, so a crossing can differ from the closed form in the last
    # bit; keys, strata and topology must not
    cp = _random_quadratic_pair(sphere, seed)
    mesh = icosphere(2)
    cx = analyze_constrained(cp, mesh)
    monkeypatch.setattr(continuation, "_face_vertices", _closed_form_face_vertices)
    ref = analyze_constrained(cp, mesh)
    assert not cx.is_empty()
    assert cx.keys == ref.keys
    assert cx.strata_counts() == ref.strata_counts()
    assert simplex_pairs(cx) == simplex_pairs(ref)
    assert cx.markers == ref.markers
    # icosphere nodes have unit norm, so an ulp of 1.0 bounds a coordinate's
    assert np.abs(cx.positions - ref.positions).max() <= 4 * np.spacing(1.0)
