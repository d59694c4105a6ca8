"""Golden digests of small runs the benchmark does not cover.

Each unconstrained case pins the SHA-256 of the saved complex file and of the
per-cell warnings handed to ``glue``.  The values were recorded before the
analysis core became face-first (each distinct face and vertex solved once),
so any change to the bytes or to the warnings shows up here.  ``smale_16`` and
``tri_5`` were recorded later, at 76d677b: they replace two cases of the
deleted finite-difference Hessian mode with analytic runs on the same inputs.

The constrained cases pin the complex file only.  They were recorded while
the constrained pipeline still had its own per-cell loop, before it became an
adapter over :class:`Analyzer`; the wording and the cell indices of its
warnings changed with that move, its bytes did not.
"""

import ast
import hashlib
import itertools
import json

import numpy as np
import pytest

from paretoc import continuation
from paretoc.cli import main
from paretoc.complex_io import save_complex, save_mesh
from paretoc.constrained import analyze_constrained, icosphere
from paretoc.continuation import Analyzer, glue
from paretoc.problems import ConstrainedProblem, VectorProblem, registry_get
from paretoc.tessellation import build_delaunay, kuhn_tessellation


def _diagonal_matrices(X):
    """A stack of diagonal matrices with the rows of X on their diagonals."""
    out = np.zeros(X.shape + X.shape[-1:])
    i = np.arange(X.shape[-1])
    out[:, i, i] = X
    return out


def _cross_problem():
    # det Du = x0 * x1 vanishes exactly on both axes and both gradients vanish
    # at the origin, so nodes on the axes give sub-face-snapped vertices,
    # rank-deficient faces and rank collapses
    return VectorProblem(
        name="cross", n=2, m=2,
        eval=lambda X: 0.5 * np.float_power(X, 2),
        jacobian=_diagonal_matrices,
        hessians=lambda X: np.tile([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (len(X), 1, 1, 1)),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
    )


def _cross_mesh():
    rng = np.random.default_rng(7)
    axis = np.linspace(-1.0, 1.0, 9)
    pts = np.vstack([
        rng.uniform(-1.0, 1.0, (40, 2)),
        np.c_[axis, np.zeros(9)],
        np.c_[np.zeros(8), np.delete(axis, 4)],
    ])
    return build_delaunay(pts)


def _paraboloid_problem():
    # m = 3 > n = 2: the whole domain is singular, there is no minor window
    return VectorProblem(
        name="paraboloid", n=2, m=3,
        eval=lambda X: np.column_stack([X, -np.float_power(X, 2).sum(axis=1)]),
        jacobian=lambda X: np.concatenate(
            [np.tile(np.eye(2), (len(X), 1, 1)), -2.0 * X[:, None, :]], axis=1),
        hessians=lambda X: np.tile(
            [np.zeros((2, 2)), np.zeros((2, 2)), -2.0 * np.eye(2)], (len(X), 1, 1, 1)),
        domain_box=[[-1.0, 1.0], [-1.0, 1.0]],
    )


def _kuhn(name, counts):
    p = registry_get(name)
    return p, kuhn_tessellation(p.domain_box, counts)


# name -> (problem and tessellation, Analyzer keywords,
#          complex file SHA-256, warnings SHA-256)
CASES = {
    "smale_16": (
        lambda: _kuhn("smale", [16, 16]), {},
        "05a9e29f3326caefbb869a6874b4f903491fbe4e232c4edaa263787598488eb6",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "tri_5": (
        lambda: _kuhn("tri_quadratic", [5, 5, 5]), {},
        "b27c5a845d945a78a4eb349498ac7b79c2e4f35f4f728ccdcc54331688de2cbd",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "noncv_order1": (
        lambda: _kuhn("noncv", [40, 40]), {"order": 1},
        "a21600af7dfca95dd187edf22b1e8a3d751d7f045bc4ab9f73e20671daf1f881",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "cross_delaunay": (
        lambda: (_cross_problem(), _cross_mesh()), {},
        "ad91b84423424de52830058c7e3885e49c8e68ce67ecdddb1570760e590b642c",
        "5706067dddf07911b79e29742b94f9d7561ca3e3c514762df85b4b5d57beb732",
    ),
    "tri_6": (
        lambda: _kuhn("tri_quadratic", [6, 6, 6]), {},
        "85ebf617415d64f551d4c0a156bc4f7165e7166dab19a29cc6ac4b62a4c8ad48",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
    "paraboloid_sigma_skip": (
        lambda: (_paraboloid_problem(), kuhn_tessellation([[-1, 1], [-1, 1]], [6, 6])),
        {},
        "2f2bd00a734aacf6f84bae95d8147b1f44944ed0a145e0a33ad4484e13d1a442",
        "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    ),
}


def _warnings(analyses):
    return [[int(a.cell_index), list(a.warnings)]
            for a in sorted(analyses, key=lambda a: a.cell_index) if a.warnings]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(case):
    build, kwargs, _, _ = CASES[case]
    p, tess = build()
    an = Analyzer(p, tess, **kwargs)
    analyses = an.run_cells()
    cx = glue(analyses, p, tess, order=an.order)
    return p, tess, an, analyses, cx


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_complex_digest(case, tmp_path):
    _, _, _, analyses, cx = _run(case)
    path = tmp_path / "complex.json"
    save_complex(path, cx)
    assert _sha(path.read_bytes()) == CASES[case][2]
    assert _sha(json.dumps(_warnings(analyses)).encode()) == CASES[case][3]


def test_golden_cross_covers_degenerate_faces():
    # the cross case exercises every per-cell warning and sub-face snapping
    _, _, an, analyses, _ = _run("cross_delaunay")
    flat = [w for _, ws in _warnings(analyses) for w in ws]
    rank_deficient = [int(w.split()[0]) for w in flat
                      if w.endswith("rank-deficient face system(s) skipped")]
    assert (len(rank_deficient), sum(rank_deficient)) == (22, 26)
    assert flat.count("rank collapse at a singular vertex") == 2
    assert any(len(v.face) < an.r + 1
               for a in analyses for v in a.singular_vertices)


def _check_key_tuple(k):
    """A parsed vertex key: ("f", *sorted node ids) or ("c", stage, ka, kb)
    with its endpoint keys in text order."""
    if k[0] == "f":
        assert len(k) >= 2 and all(type(i) is int for i in k[1:])
        assert list(k[1:]) == sorted(k[1:])
        return
    assert k[0] == "c" and len(k) == 4
    stage, ka, kb = k[1:]
    assert stage in (("lam", 0), ("lam", 1), ("lam", 2), ("sig", 0))
    assert repr(ka) < repr(kb)
    _check_key_tuple(ka)
    _check_key_tuple(kb)


@pytest.mark.parametrize("case", sorted(CASES))
def test_vertex_keys_are_their_tuple_text(case):
    # glue merges and sorts the vertices by their key text, so the text must
    # be exactly the repr of the key tuple it names
    _, _, _, analyses, _ = _run(case)
    checked = 0
    for a in analyses:
        verts = [v for pieces in a.strata.values() for piece in pieces for v in piece]
        for v in verts + [v for v, _ in a.markers]:
            k = ast.literal_eval(v.key)
            assert repr(k) == v.key
            _check_key_tuple(k)
            if k[0] == "f":
                assert k == ("f",) + tuple(sorted(v.face))
            else:
                assert v.face is None
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_supplied_nodal_arrays_give_the_same_bytes(case, tmp_path):
    # the constrained pipeline's entry: nodal data computed outside Analyzer
    build, kwargs, digest, warnings = CASES[case]
    p, tess = build()
    own = Analyzer(p, tess, **kwargs)
    an = Analyzer(p, tess, **kwargs, nodal=(own.jac_nodes.copy(), own.omega_nodes.copy()))
    analyses = an.run_cells()
    path = tmp_path / "complex.json"
    save_complex(path, glue(analyses, p, tess, order=an.order))
    assert _sha(path.read_bytes()) == digest
    assert _sha(json.dumps(_warnings(analyses)).encode()) == warnings


@pytest.mark.parametrize("case", sorted(CASES))
def test_each_distinct_face_solved_once(case, monkeypatch):
    calls = []
    solve = continuation.solve_faces

    def counting(omega_nodes, faces):
        calls.append([tuple(f) for f in np.asarray(faces).tolist()])
        return solve(omega_nodes, faces)

    monkeypatch.setattr(continuation, "solve_faces", counting)
    p, tess, an, _, _ = _run(case)
    distinct = {f for ci in an.candidate_cells()
                for f in itertools.combinations(tess.cells[ci].tolist(), an.r + 1)}
    assert len(calls) == 1
    assert len(calls[0]) == len(distinct) and set(calls[0]) == distinct
    if p.m > p.n:
        # no minor window: every cell is a candidate, its faces are its
        # nodes, and the analysis is first order
        assert (an.r, an.order, p.minor_columns) == (0, 1, ())
        assert len(an.candidate_cells()) == len(tess.cells)
        assert distinct == {(i,) for i in range(len(tess.nodes))}


# ---------------------------------------------------------------------------
# constrained pipeline
# ---------------------------------------------------------------------------


def _xminusx_problem():
    # opposed identical objectives: the augmented minor vanishes at every
    # node, every face system is degenerate and the complex is empty
    sphere = registry_get("sphere_proj")
    return ConstrainedProblem(
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


# name -> (problem and mesh, complex file SHA-256)
CONSTRAINED_CASES = {
    "sphere_ico0": (
        lambda: (registry_get("sphere_proj"), icosphere(0)),
        "dda4eb3714422bd03890e73604b06e03eae74822e365cd3cd037fa82c44a9a73",
    ),
    "sphere_ico1": (
        lambda: (registry_get("sphere_proj"), icosphere(1)),
        "2a7807851c4b170534c0e146b524bd80bbfa764b68c4676219e30c727f95a94f",
    ),
    "sphere_ico2": (
        lambda: (registry_get("sphere_proj"), icosphere(2)),
        "14283ca4814c339544d983e2cdb1565c15d24216e185163cda1e2a58e3a6bd8d",
    ),
    "sphere_ico3": (
        lambda: (registry_get("sphere_proj"), icosphere(3)),
        "1ff1748860a136ccd84356d3a67b85963fab822fde1e11112eb2a6dd3289336e",
    ),
    "sphere_ico4": (
        lambda: (registry_get("sphere_proj"), icosphere(4)),
        "f951ce6c1cb696b6b4d63b01258c12586e847d16e162ebad81ea1b59ce53b28a",
    ),
    "xminusx_ico1": (
        lambda: (_xminusx_problem(), icosphere(1)),
        "ef89936f340f96db146e2bd0dcdda598888894aba56b6b61823566619e8db4c2",
    ),
}


@pytest.mark.parametrize("case", sorted(CONSTRAINED_CASES))
def test_golden_constrained_digest(case, tmp_path):
    build, digest = CONSTRAINED_CASES[case]
    cp, mesh = build()
    path = tmp_path / "complex.json"
    save_complex(path, analyze_constrained(cp, mesh))
    assert _sha(path.read_bytes()) == digest


def test_golden_cli_manifold_mesh(tmp_path, monkeypatch):
    # relative paths: the mesh path is written into the file's provenance
    monkeypatch.chdir(tmp_path)
    save_mesh("mesh.json", icosphere(2))
    assert main(["run", "--problem", "sphere_proj",
                 "--manifold-mesh", "mesh.json", "--out", "complex.json"]) == 0
    assert (_sha((tmp_path / "complex.json").read_bytes())
            == "6e136ebbdada0037a163159a4409462e92d259235eff5ffdabbbcb5c04697272")
