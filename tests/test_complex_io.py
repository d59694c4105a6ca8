"""The complex-file writer against json.

``save_complex`` formats the vertex, simplex and marker sections itself.  Its
bytes must equal ``json.dumps(complex_to_dict(cx, provenance), indent=1)``
plus a newline on every complex: the drawn ones below, the fixed corner cases
and every golden case.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoc.complex_io import complex_to_dict, load_complex, save_complex
from paretoc.continuation import MARKER_KINDS, STRATA, Analyzer, ParetoComplex, glue

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
        n=positions.shape[1], m=u.shape[1], positions=positions, u_values=u,
        lam=np.asarray(lam, dtype=float),
        sigma=None if sigma is None else np.asarray(sigma, dtype=float),
        keys=[repr(("f", i)) for i in range(len(positions))],
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
    cx = glue(an.run_cells(), p, tess, order=an.order)
    _assert_same(cx, tmp_path / "c.json")
    _assert_same(cx, tmp_path / "d.json", {"problem": p.name, "grid": [5, 5],
                                           "iterations": 0})
