"""Integration tests on the three-objective quadratic examples.

These exercise the m = 3 path end to end: edge-based singular vertices,
polygon assembly and clipping, stability eigenvalues on a 2-polytope, fan
triangulation at glue time, and the maximin refinement scheme.
"""

import numpy as np
import pytest

from paretoc.continuation import STRATUM_STABLE, STRATUM_UNSTABLE, analyze
from paretoc.problems import registry_get
from paretoc.refinement import initial_state, iterate
from paretoc.tessellation import kuhn_tessellation

from conftest import simplex_pairs


@pytest.fixture(scope="module")
def tri_run():
    p = registry_get("tri_quadratic")
    tess = kuhn_tessellation(p.domain_box, [7, 7, 7])
    return p, analyze(p, tess, order=2)


def test_stable_patch_single_component(tri_run):
    _, cx = tri_run
    comps = cx.components(strata=[STRATUM_STABLE])
    assert len(comps) == 1
    assert cx.strata_counts().get(STRATUM_STABLE, 0) > 10


def test_patch_reaches_three_corners(tri_run):
    # the critical patch is triangle-like with corners at the three maxima
    _, cx = tri_run
    vids = sorted(set(cx.simplices[cx.simplex_ids([STRATUM_STABLE])].ravel().tolist()))
    pos = cx.positions[vids]
    for corner in np.eye(3):
        assert np.linalg.norm(pos - corner, axis=1).min() < 0.2


def test_triangles_only(tri_run):
    _, cx = tri_run
    assert all(len(ids) == 3 for ids, _ in simplex_pairs(cx))


def test_ncv_variant_adds_branch():
    p = registry_get("tri_quadratic_ncv")
    tess = kuhn_tessellation(p.domain_box, [7, 7, 7])
    cx = analyze(p, tess, order=2)
    # the extra bump deforms the main patch and introduces further critical
    # structure: strictly more critical simplices than the convex variant
    base = registry_get("tri_quadratic")
    cx0 = analyze(base, tess, order=2)
    crit = lambda c: (
        c.strata_counts().get(STRATUM_STABLE, 0)
        + c.strata_counts().get(STRATUM_UNSTABLE, 0)
    )
    assert crit(cx) > crit(cx0)


@pytest.mark.slow
def test_maximin_budget_minor_decay():
    # reduced-length rendering of the 70-iteration budgeted scheme: the
    # largest minor decays through any 3-iteration window (plateaus of at
    # most 2) and substantially overall
    p = registry_get("tri_quadratic")
    state = initial_state(p, kuhn_tessellation(p.domain_box, [7, 7, 7]))
    hist = []
    for _ in range(12):
        state = iterate(state, scheme="maximin", budget=10)
        hist.append(state.history[-1].max_minor)
    for k in range(len(hist) - 3):
        assert min(hist[k + 1 : k + 4]) < hist[k], hist
    assert hist[-1] < hist[0] / 5.0, hist
