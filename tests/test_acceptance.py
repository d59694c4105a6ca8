"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
appear.  Tolerances and runtime budgets are pinned here, not configurable.
"""

import time
from collections import Counter

import numpy as np
import pytest

from paretoc.cli import main
from paretoc.constrained import analyze_constrained, icosphere
from paretoc.continuation import (
    Analyzer,
    STRATUM_STABLE,
    STRATUM_UNSTABLE,
    analyze,
    glue,
)
from paretoc.geometry import points_to_simplices_distance
from paretoc.metrics import convergence_slope, hausdorff
from paretoc.problems import registry_get
from paretoc.refinement import initial_state, iterate
from paretoc.tessellation import build_delaunay, kuhn_tessellation

from conftest import brute_delaunay_violation, simplex_pairs


def _report(num, name, ok, detail):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def _min_dist_to_simplices(points, cx, ids):
    P = cx.positions[cx.simplices[ids]]
    d = points_to_simplices_distance(np.broadcast_to(points, (len(P),) + points.shape), P)
    return d.min(axis=0, initial=np.inf)


def _component_stats(cx, components):
    """Per component: stratum counts and cusp count."""
    out = []
    cusps = set(cx.markers_of_kind("cusp"))
    for comp in components:
        strat = Counter()
        for ids, s in simplex_pairs(cx):
            if ids[0] in comp:
                strat[s] += 1
        out.append((strat, len(cusps & comp)))
    return out


# ---------------------------------------------------------------------------


def test_criterion_1_oracle_equivalence():
    t0 = time.monotonic()
    p = registry_get("triv")
    # independent oracle: dominance filter over a 400x400 value grid
    xs = np.linspace(p.domain_box[0, 0], p.domain_box[0, 1], 400)
    ys = np.linspace(p.domain_box[1, 0], p.domain_box[1, 1], 400)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u1 = (-1.05 * X**2 - 0.98 * Y**2).ravel()
    u2 = (-0.99 * (X - 3.0) ** 2 - 1.03 * (Y - 2.5) ** 2).ravel()
    pts = np.column_stack([X.ravel(), Y.ravel()])
    order = np.lexsort((-u2, -u1))
    best = -np.inf
    keep = []
    for i in order:
        if u2[i] > best:
            keep.append(i)
            best = u2[i]
    oracle = pts[np.array(keep)]

    tess = kuhn_tessellation(p.domain_box, [40, 40])
    cx = analyze(p, tess, order=2)
    stable_ids = cx.simplex_ids([STRATUM_STABLE])
    d = _min_dist_to_simplices(oracle, cx, stable_ids)
    delta = float(np.hypot(6.0 / 39, 5.5 / 39))  # cell diameter of the 40x40 grid

    deg = Counter()
    for v in cx.simplices[stable_ids].ravel().tolist():
        deg[v] += 1
    ends = np.array([cx.positions[v] for v, k in deg.items() if k == 1])
    targets = np.array([[0.0, 0.0], [3.0, 2.5]])
    end_err = max(
        np.linalg.norm(ends - t, axis=1).min() for t in targets
    )
    elapsed = time.monotonic() - t0
    ok = (
        float(d.max()) <= 2 * delta
        and len(ends) == 2
        and end_err <= 2 * delta**2
        and elapsed < 10.0
    )
    _report(
        1, "oracle equivalence",
        ok,
        f"oracle->stable max {d.max():.4f} <= {2*delta:.4f}; "
        f"endpoint err {end_err:.5f} <= {2*delta**2:.5f}; {elapsed:.1f}s < 10s",
    )


def test_criterion_2_quadratic_convergence():
    t0 = time.monotonic()
    p = registry_get("triv")
    ext = p.domain_box[:, 1] - p.domain_box[:, 0]
    runs = {}
    for h in (0.5, 0.25, 0.125, 0.03125):
        counts = [int(round(e / h)) + 1 for e in ext]
        runs[h] = analyze(p, kuhn_tessellation(p.domain_box, counts), order=2)
    ref = runs[0.03125]
    pairs = []
    for h in (0.5, 0.25, 0.125):
        rep = hausdorff(runs[h], ref, density=100, strata=[STRATUM_STABLE])
        pairs.append((h, rep.hausdorff))
    slope = convergence_slope(pairs)
    elapsed = time.monotonic() - t0
    ok = slope >= 1.8 and elapsed < 60.0
    _report(
        2, "quadratic convergence",
        ok,
        f"log-log slope {slope:.3f} >= 1.8 over d_H="
        f"{[round(d, 6) for _, d in pairs]}; {elapsed:.1f}s < 60s",
    )


def test_criterion_3_noncv_topology():
    p = registry_get("noncv")
    cx = analyze(p, kuhn_tessellation(p.domain_box, [80, 80]), order=2)
    comps = cx.components()
    stats = _component_stats(cx, comps)
    n_comp = len(comps)
    stable_with_two_cusps = sum(
        1 for strat, ncusp in stats
        if strat.get(STRATUM_STABLE, 0) > 0 and ncusp == 2
    )
    no_critical = sum(
        1 for strat, _ in stats
        if strat.get(STRATUM_STABLE, 0) == 0 and strat.get(STRATUM_UNSTABLE, 0) == 0
    )
    ok = n_comp == 3 and stable_with_two_cusps == 1 and no_critical == 1
    _report(
        3, "noncv topology",
        ok,
        f"components {n_comp} == 3; stable-with-2-cusps {stable_with_two_cusps} == 1; "
        f"non-critical loops {no_critical} == 1",
    )


def test_criterion_4_smale_cusp():
    p = registry_get("smale")
    cx = analyze(p, kuhn_tessellation(p.domain_box, [60, 60]), order=2)
    cusps = cx.markers_of_kind("cusp")
    stable_x = [
        float(cx.positions[v][0])
        for v in cx.simplices[cx.simplex_ids([STRATUM_STABLE])].ravel().tolist()
    ]
    unstable_x = [
        float(cx.positions[v][0])
        for v in cx.simplices[cx.simplex_ids([STRATUM_UNSTABLE])].ravel().tolist()
    ]
    ok = len(cusps) == 1 and stable_x and unstable_x
    if ok:
        cusp_x = float(cx.positions[cusps[0]][0])
        ok = min(stable_x) >= cusp_x - 1e-9 and max(unstable_x) <= cusp_x + 1e-9
    _report(
        4, "smale cusp",
        ok,
        f"cusps {len(cusps)} == 1; stable branch x>=cusp and unstable x<=cusp "
        f"({len(stable_x)} stable / {len(unstable_x)} unstable vertices)",
    )


def test_criterion_5_constrained_sphere():
    cp = registry_get("sphere_proj")
    cx = analyze_constrained(cp, icosphere(2))
    comps = cx.components()
    deg = Counter()
    for v in cx.simplices.ravel().tolist():
        deg[v] += 1
    closed = len(comps) == 1 and set(deg.values()) == {2}
    arcs = cx.components(strata=[STRATUM_UNSTABLE])
    in_quadrants = all(
        np.all(cx.positions[list(c)][:, 0] * cx.positions[list(c)][:, 1] > -1e-9)
        for c in arcs
    )
    phi = np.linspace(0.0, np.pi / 2, 721)
    arc1 = np.column_stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)])
    arc_pts = np.vstack([arc1, -arc1])
    arc_segs = [(i, i + 1) for i in range(720)] + [
        (721 + i, 721 + i + 1) for i in range(720)
    ]
    rep = hausdorff(cx, (arc_pts, arc_segs), density=40, strata=[STRATUM_UNSTABLE])
    ok = closed and len(arcs) == 2 and in_quadrants and rep.hausdorff < 0.05
    _report(
        5, "constrained sphere",
        ok,
        f"closed polyline {closed}; arcs {len(arcs)} == 2 in x1*x2>0 {in_quadrants}; "
        f"d_H {rep.hausdorff:.4f} < 0.05",
    )


def test_criterion_6_branch_superposition():
    p = registry_get("locglob")
    cx = analyze(p, kuhn_tessellation(p.domain_box, [10, 20, 10]), order=2)
    crit = [STRATUM_STABLE, STRATUM_UNSTABLE]
    comps = cx.components(strata=crit)
    stats = _component_stats(cx, comps)
    mixed_with_cusp = sum(
        1 for strat, ncusp in stats
        if strat.get(STRATUM_STABLE, 0) > 0
        and strat.get(STRATUM_UNSTABLE, 0) > 0
        and ncusp >= 1
    )
    ok = len(comps) >= 2 and mixed_with_cusp >= 1
    _report(
        6, "branch superposition",
        ok,
        f"{len(comps)} >= 2 disjoint critical components; "
        f"{mixed_with_cusp} >= 1 with stable+unstable simplices and a cusp",
    )


def test_criterion_7_minor_decay():
    p = registry_get("triv")
    state = initial_state(p, kuhn_tessellation(p.domain_box, [13, 12]))
    for _ in range(4):
        state = iterate(state, scheme="polyline")
    first = state.history[0].max_minor
    last = state.history[-1].max_minor
    ok = first >= 10.0 * last
    _report(
        7, "minor-magnitude decay",
        ok,
        f"max minor iteration 1 = {first:.6f}, iteration 4 = {last:.6f} "
        f"(factor {first / last:.1f} >= 10)",
    )


def test_criterion_8_property_suites(tmp_path):
    rng = np.random.default_rng(99)
    checks = []

    # Delaunay brute-force circumsphere (n <= 3, N <= 100)
    for n, N in ((2, 100), (3, 60)):
        t = build_delaunay(rng.uniform(-1, 1, (N, n)))
        checks.append(("delaunay", brute_delaunay_violation(t) < 1e-9))

    # singular-vertex invariants and containment chain on a real run
    p = registry_get("smale")
    an = Analyzer(p, kuhn_tessellation(p.domain_box, [30, 30]), order=2)
    analyses = an.run_cells()
    mu_ok = lam_ok = True
    for a in analyses:
        for v in a.singular_vertices:
            if v.mu is not None:
                mu_ok &= abs(float(v.mu.sum()) - 1.0) < 1e-12
            if v.lam is not None and v.critical_ok and v.residual < 1e-12:
                lam_ok &= (
                    float(np.linalg.norm(v.lam @ v.grad_interp))
                    <= 1e-9 * float(np.linalg.norm(v.grad_interp))
                )
    checks.append(("mu normalization", mu_ok))
    checks.append(("lambda orthogonality", lam_ok))

    cx = glue(analyses, p, an.tess, order=2)
    stable_ids = cx.simplex_ids([STRATUM_STABLE])
    theta_ids = cx.simplex_ids([STRATUM_STABLE, STRATUM_UNSTABLE])
    sigma_ids = cx.simplex_ids()
    chain_ok = True
    for ids_set, sup_ids in ((stable_ids, theta_ids), (theta_ids, sigma_ids)):
        for v in cx.simplices[ids_set].ravel().tolist():
            d = _min_dist_to_simplices(cx.positions[v][None], cx, sup_ids)
            chain_ok &= float(d[0]) < 1e-9
    checks.append(("containment chain", chain_ok))

    # finite-difference Hessian exactness on quadratics
    from paretoc.continuation import finite_difference_hessians

    q = registry_get("sms")
    pts = np.array([[1.0, 0.5], [1.7, 0.4], [1.2, 1.3]])
    jac = q.jac_at(pts)
    H = finite_difference_hessians(q, pts, jac)
    checks.append((
        "fd hessian quadratic",
        np.allclose(H[0], np.diag([-2.0, -2.0]), atol=1e-10)
        and np.allclose(H[1], np.diag([-2.0, 2.0]), atol=1e-10),
    ))

    # d_H identity / symmetry / triangle
    sets = []
    for _ in range(3):
        pp = rng.uniform(-1, 1, (6, 2))
        sets.append((pp, [(i, i + 1) for i in range(5)]))
    ident = hausdorff(sets[0], sets[0]).hausdorff < 1e-12
    r_ab = hausdorff(sets[0], sets[1])
    r_ba = hausdorff(sets[1], sets[0])
    sym = abs(r_ab.hausdorff - r_ba.hausdorff) < 1e-12
    from paretoc.metrics import max_sample_spacing

    slack = 2 * max(max_sample_spacing(s) for s in sets)
    tri = (
        hausdorff(sets[0], sets[2]).hausdorff
        <= hausdorff(sets[0], sets[1]).hausdorff
        + hausdorff(sets[1], sets[2]).hausdorff
        + slack
    )
    checks.append(("hausdorff identity", ident))
    checks.append(("hausdorff symmetry", sym))
    checks.append(("hausdorff triangle", tri))

    # byte-identical reruns with a fixed seed
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["run", "--problem", "noncv", "--grid", "random:80:seed=3"]
    main(args + ["--out", str(a)])
    main(args + ["--out", str(b)])
    checks.append(("byte-identical rerun", a.read_bytes() == b.read_bytes()))

    failed = [name for name, ok in checks if not ok]
    _report(
        8, "property suites",
        not failed,
        f"{len(checks)} checks; failed: {failed or 'none'}",
    )


@pytest.mark.skipif(
    "not config.getoption('--run-6d', default=False)",
    reason="6-D demo is a stretch goal, not an acceptance gate (enable with --run-6d)",
)
def test_zdt3reg_six_dimensional_demo():
    p = registry_get("zdt3reg")
    rng = np.random.default_rng(0)
    pts = rng.uniform(p.domain_box[:, 0], p.domain_box[:, 1], size=(300, 6))
    tess = build_delaunay(pts)
    cx = analyze(p, tess, order=2)
    counts = cx.strata_counts()
    # minima of both objectives: critical branches are correctly unstable
    assert counts.get(STRATUM_STABLE, 0) == 0
    assert counts.get(STRATUM_UNSTABLE, 0) > 0
