"""The complex-file writer against json, glued complexes against their
files, and the readers' number rows.

``save_complex`` formats the vertex, simplex and marker sections itself.  Its
bytes must equal ``json.dumps(complex_to_dict(cx, provenance), indent=1)``
plus a newline on every complex: the drawn ones below, the fixed corner cases
and every golden case.  A glued complex loads back equal in every field its
file holds.  The readers take each coordinate or value of a row only as a
JSON number.
"""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoc.complex_io import (_row, complex_from_dict, complex_to_dict, load_complex,
                                load_mesh, save_complex, save_mesh)
from paretoc.constrained import analyze_constrained, icosphere
from paretoc.continuation import MARKER_KINDS, STRATA, Analyzer, ParetoComplex, glue
from paretoc.problems import registry_get
from paretoc.tessellation import Tessellation, kuhn_tessellation

from test_continuation import _same
from test_golden import CASES


def _reference(cx, provenance=None) -> bytes:
    return (json.dumps(complex_to_dict(cx, provenance), indent=1) + "\n").encode()


def _assert_same(cx, path, provenance=None):
    save_complex(path, cx, provenance)
    assert path.read_bytes() == _reference(cx, provenance)


def _complex(positions, u, lam, sigma, simplices=(), markers=(), name="p"):
    """A complex from its arrays, ``simplices`` as (vertex ids, stratum) pairs."""
    positions = np.asarray(positions, dtype=float)
    u = np.asarray(u, dtype=float)
    return ParetoComplex(
        positions=positions, u_values=u,
        lam=np.asarray(lam, dtype=float),
        sigma=None if sigma is None else np.asarray(sigma, dtype=float),
        simplices=[ids for ids, _ in simplices], stratum=[s for _, s in simplices],
        markers=list(markers), problem_name=name,
    )


# -- drawn complexes -------------------------------------------------------------

_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2e-308, 1e16, -1e16, 1.7976931348623157e308,
                     0.1, 1 / 3, float("nan"), float("inf"), float("-inf")]),
)
_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=8)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | _text,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_text, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def complexes(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(2, 3))
    V = draw(st.integers(0, 5))

    def array(k):
        return np.array(draw(st.lists(_floats, min_size=V * k, max_size=V * k)),
                        dtype=float).reshape(V, k)

    lam = array(m)
    lam[draw(st.lists(st.booleans(), min_size=V, max_size=V))] = np.nan
    sigma = None
    if draw(st.booleans()):
        sigma = array(max(n - m + 1, 1))
        sigma[draw(st.lists(st.booleans(), min_size=V, max_size=V))] = np.nan
    ids = st.integers(0, V - 1) if V else st.nothing()
    simplices = draw(st.lists(
        st.tuples(st.lists(ids, min_size=m, max_size=m).map(tuple), st.sampled_from(STRATA)),
        max_size=4 if V else 0))
    markers = draw(st.lists(st.tuples(ids, st.sampled_from(MARKER_KINDS)),
                            max_size=3 if V else 0))
    cx = _complex(array(n), array(m), lam, sigma, simplices, markers,
                  name=draw(_text))
    provenance = draw(st.none() | st.dictionaries(_text, _json, max_size=4))
    return cx, provenance


@settings(max_examples=300)
@given(complexes())
def test_writer_matches_json_on_drawn_complexes(tmp_path_factory, drawn):
    cx, provenance = drawn
    _assert_same(cx, tmp_path_factory.mktemp("drawn") / "c.json", provenance)


# -- fixed cases -------------------------------------------------------------------


def test_writer_nan_lambda_rows_and_sigma(tmp_path):
    pos = [[0.0, 1.0], [-0.0, 5e-324], [1e16, 2.5e-310]]
    u = [[1.0, 2.0], [3.0, 4.0], [1e300, -1e-300]]
    lam = [[0.5, 0.5], [np.nan, np.nan], [0.25, np.nan]]
    sigma = [[1.0], [np.nan], [-0.0]]
    simplices = [((0, 1), "singular_only"), ((1, 2), "critical_stable")]
    markers = [(1, "cusp"), (2, "criticality_boundary")]
    _assert_same(_complex(pos, u, lam, sigma, simplices, markers), tmp_path / "a.json")
    _assert_same(_complex(pos, u, lam, None, simplices, markers), tmp_path / "b.json")
    # a row with a NaN is written as a whole null, which loads as NaN again
    loaded = load_complex(tmp_path / "a.json")
    assert np.isnan(loaded.lam).all(axis=1).tolist() == [False, True, True]
    assert np.isnan(loaded.sigma).all(axis=1).tolist() == [False, True, False]


def test_writer_non_finite_u(tmp_path):
    pos = [[0.0], [1.0]]
    u = [[np.nan, np.inf], [-np.inf, 1.0]]
    _assert_same(_complex(pos, u, [[1.0, 0.0], [0.0, 1.0]], [[2.0], [np.inf]],
                          [((0, 1), "critical_unstable")], [(0, "cusp")]),
                 tmp_path / "c.json")


def test_writer_empty_complex(tmp_path):
    cx = _complex(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), None)
    _assert_same(cx, tmp_path / "c.json")
    assert json.loads((tmp_path / "c.json").read_text())["vertices"] == []
    _assert_same(_complex(np.empty((0, 2)), np.empty((0, 2)), np.empty((0, 2)),
                          np.empty((0, 1))), tmp_path / "d.json")


def test_writer_provenance(tmp_path):
    cx = _complex([[0.5, 0.25]], [[1.0, 2.0]], [[0.5, 0.5]], [[-1.0]],
                  markers=[(0, "cusp")])
    provenance = {
        "problem": 'quote " backslash \\ tab \t newline \n é ∞ \x00',
        "grid": [[1, 2], [3, None, [4.5, -0.0]]],
        "iterations": None,
        "nested": {"empty": {}, "list": [], "ok": True, "nan": float("nan")},
    }
    _assert_same(cx, tmp_path / "c.json", provenance)
    _assert_same(cx, tmp_path / "d.json", {})  # empty: the default provenance


@pytest.mark.parametrize("case", sorted(CASES))
def test_writer_matches_json_on_golden_cases(case, tmp_path):
    # includes the m > n case (paraboloid_sigma_skip) and order-1 files
    build, kwargs, _, _ = CASES[case]
    p, tess = build()
    an = Analyzer(p, tess, **kwargs)
    cx = glue(an.run_cells(), p, tess)
    _assert_same(cx, tmp_path / "c.json")
    _assert_same(cx, tmp_path / "d.json", {"problem": p.name, "grid": [5, 5],
                                           "iterations": 0})


# the golden cases, and an order-2 run of triv on a box off its critical
# set: singular pieces only, so no vertex has a sigma
_GLUED = {case: CASES[case][:2] for case in CASES}
_GLUED["triv_singular_only"] = (
    lambda: (registry_get("triv"), kuhn_tessellation([[-1.5, -0.5], [-1.5, -0.5]], [5, 5])), {})
_NO_SIGMA = {"noncv_order1", "paraboloid_sigma_skip", "sphere_constrained", "triv_singular_only"}


@pytest.mark.parametrize("case", sorted(_GLUED) + ["sphere_constrained"])
def test_glued_complex_equals_its_file(case, tmp_path):
    # every field a complex file holds reads back as glue made it: the
    # golden cases (m = 2, m = 3, m > n, order 1), the constrained sphere
    # and an order-2 run with no critical piece, whose sigma is None
    if case == "sphere_constrained":
        cx = analyze_constrained(registry_get("sphere_proj"), icosphere(2))
    else:
        build, kwargs = _GLUED[case]
        p, tess = build()
        cx = glue(Analyzer(p, tess, **kwargs).run_cells(), p, tess)
    assert (cx.sigma is None) == (case in _NO_SIGMA)
    path = tmp_path / "c.json"
    save_complex(path, cx)
    got = complex_from_dict(json.loads(path.read_text()))
    assert (got.n, got.m) == (cx.n, cx.m) == (cx.positions.shape[1], cx.u_values.shape[1])
    for name in ("positions", "u_values", "lam", "sigma", "simplices"):
        assert _same(getattr(got, name), getattr(cx, name)), name
    assert got.stratum == cx.stratum
    assert got.markers == cx.markers
    assert got.problem_name == cx.problem_name


# -- number rows of the readers ------------------------------------------------------


@pytest.mark.parametrize("entries, index, held", [
    ([True, 1.5], 0, "True"),
    ([0.5, False], 1, "False"),
    ([1.0, "1.5"], 1, "'1.5'"),
    ([True, "1.5"], 0, "True"),
    (["nan", 0.0], 0, "'nan'"),
    ([None, 0.5], 0, "null"),
])
def test_row_takes_only_json_numbers(entries, index, held):
    with pytest.raises(ValueError) as exc:
        _row({"id": 3, "x": entries}, "x", 2)
    assert str(exc.value) == f"the 'x' entry of vertex 3 holds {held} at index {index}, not a number"
    assert _row({"id": 3, "x": [1, -0.0]}, "x", 2).tolist() == [1.0, -0.0]


@pytest.mark.parametrize("name", ["x", "u", "lambda", "sigma"])
@pytest.mark.parametrize("bad", [True, "0.25"])
def test_complex_file_rows_reject_bools_and_strings(name, bad):
    cx = _complex([[0.0, 1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0, 4.0]],
                  [[0.5, 0.5], [0.25, 0.75]], [[1.0], [2.0]], [((0, 1), "critical_stable")])
    doc = complex_to_dict(cx)
    complex_from_dict(doc)
    doc["vertices"][1][name][-1] = bad
    index = len(doc["vertices"][1][name]) - 1
    with pytest.raises(ValueError, match=re.escape(
            f"the {name!r} entry of vertex 1 holds {bad!r} at index {index}, not a number")):
        complex_from_dict(doc)


@pytest.mark.parametrize("point, index, held", [
    ([True, "0.5", 0.0], 0, "True"),
    ([0.0, "0.5", 1.0], 1, "'0.5'"),
    ([0.0, 1.0, None], 2, "null"),
])
def test_mesh_points_take_only_json_numbers(tmp_path, point, index, held):
    path = tmp_path / "mesh.json"
    save_mesh(path, Tessellation([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [[0, 1, 2]]))
    doc = json.loads(path.read_text())
    doc["points"][2] = point
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as exc:
        load_mesh(path)
    assert str(exc.value) == f"point 2 holds {held} at index {index}, not a number"
