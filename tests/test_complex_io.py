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

from paretoc.complex_io import (COMPLEX_VERSION, _expect, _integer, _row, _vertex_id,
                                complex_from_dict, complex_to_dict, dumps, load_complex,
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


_SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -2.2e-308, 1e16, -1e16, 0.1, 1 / 3,
                     1.7976931348623157e308, np.inf, -np.inf, np.nan])  # NaN last


@st.composite
def section_complexes(draw):
    """Complexes of up to 60 vertices, whose sections are each one long format
    call: -0.0, subnormals and non-finite values among the entries, and every
    pairing of a null or a written lambda row with a null or a written sigma
    row, unless sigma is None.  A sigma row may be wider or narrower than
    n - m + 1."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, m, V = draw(st.integers(1, 4)), draw(st.integers(2, 3)), draw(st.integers(4, 60))
    k = draw(st.none() | st.integers(1, 4))

    def array(width, nan=True):
        a = rng.normal(size=(V, width)) * 10.0 ** rng.integers(-320, 300, (V, width))
        pick = rng.random((V, width)) < 0.3
        a[pick] = rng.choice(_SPECIAL if nan else _SPECIAL[:-1], pick.sum())
        return a

    def null_rows(a, null):  # a NaN anywhere in a row makes it null
        for i in np.flatnonzero(null):
            a[i, rng.random(a.shape[1]) < 0.5] = np.nan
            a[i, rng.integers(a.shape[1])] = np.nan
        return a

    pairs = np.concatenate([np.arange(4), rng.integers(0, 4, V - 4)])
    rng.shuffle(pairs)
    lam = null_rows(array(m, nan=False), pairs >= 2)
    sigma = None if k is None else null_rows(array(k, nan=False), pairs % 2 == 1)
    simplices = [(tuple(rng.integers(0, V, m).tolist()), STRATA[rng.integers(len(STRATA))])
                 for _ in range(draw(st.integers(0, 80)))]
    markers = [(int(rng.integers(V)), MARKER_KINDS[rng.integers(len(MARKER_KINDS))])
               for _ in range(draw(st.integers(0, 20)))]
    cx = _complex(array(n), array(m), lam, sigma, simplices, markers)
    return cx, draw(st.none() | st.dictionaries(_text, _json, max_size=2))


@settings(max_examples=100)
@given(section_complexes())
def test_writer_matches_json_on_section_scale_complexes(tmp_path_factory, drawn):
    cx, provenance = drawn
    if cx.sigma is not None:
        pairs = zip(np.isnan(cx.lam).any(axis=1).tolist(), np.isnan(cx.sigma).any(axis=1).tolist())
        assert len(set(pairs)) == 4
    _assert_same(cx, tmp_path_factory.mktemp("sections") / "c.json", provenance)


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


# -- the reader against its per-row walk -------------------------------------------

# The reader that complex_from_dict replaced, kept verbatim apart from its
# name: it converts and checks each vertex row and simplex id on its own.
# The array reader must give its complexes and its errors, message for message.


def walk_complex_from_dict(doc: dict) -> ParetoComplex:
    _expect(doc, dict, "the complex file")
    if doc.get("version") != COMPLEX_VERSION:
        raise ValueError(f"unsupported complex file version {doc.get('version')!r}")
    try:
        n = _integer(doc["ambient_dim"], "the 'ambient_dim' entry")
        m = _integer(doc["objectives"], "the 'objectives' entry")
        verts = [_expect(v, dict, "a vertex")
                 for v in _expect(doc["vertices"], list, "the 'vertices' entry")]
        V = len(verts)
        positions = np.empty((V, n))
        u_values = np.empty((V, m))
        lam = np.full((V, m), np.nan)
        has_sigma = any(v.get("sigma") is not None for v in verts)
        sigma = np.full((V, n - m + 1), np.nan) if has_sigma else None
        ids = [_integer(v["id"], "the 'id' entry of a vertex") for v in verts]
        if sorted(ids) != list(range(V)):
            raise ValueError(f"vertex ids are not 0..{V - 1}, each once")
        for i, v in zip(ids, verts):
            positions[i] = _row(v, "x", n)
            u_values[i] = _row(v, "u", m)
            if v.get("lambda") is not None:
                lam[i] = _row(v, "lambda", m)
            if v.get("sigma") is not None:
                sigma[i] = _row(v, "sigma", n - m + 1)
        simplices, names = [], []
        for s in _expect(doc["simplices"], list, "the 'simplices' entry"):
            s = _expect(s, dict, "a simplex")
            stratum = s["stratum"]
            if stratum not in STRATA:
                raise ValueError(f"unknown stratum {stratum!r}")
            vids = [_vertex_id(i, V, "a simplex")
                    for i in _expect(s["vertex_ids"], list, "the 'vertex_ids' entry of a simplex")]
            if len(vids) != m or len(set(vids)) != m:
                raise ValueError(f"simplex {vids} does not name {m} distinct vertices")
            simplices.append(vids)
            names.append(stratum)
        markers = []
        for mk in _expect(doc["markers"], list, "the 'markers' entry"):
            mk = _expect(mk, dict, "a marker")
            if mk["kind"] not in MARKER_KINDS:
                raise ValueError(f"unknown marker kind {mk['kind']!r}")
            markers.append((_vertex_id(mk["vertex"], V, "a marker"), mk["kind"]))
        prov = _expect(doc.get("provenance") or {}, dict, "the 'provenance' entry")
    except KeyError as exc:
        raise ValueError(f"complex file has no {exc.args[0]!r} entry") from None
    return ParetoComplex(
        positions=positions,
        u_values=u_values,
        lam=lam,
        sigma=sigma,
        simplices=simplices,
        stratum=names,
        markers=sorted(markers),
        problem_name=prov.get("problem") or "",
    )


# what an edit may put in place of a record, a row, an id or a stratum, and
# in place of a number in a row
_ODD = [None, True, False, 2.0, 2.5, -1, 2**1100, "1", [0.5], {}, {"a": 1}, "critical_stable"]
_ODD_ENTRY = [None, True, "1", [0.5], 2**1100, -1, 2.0]
_KEYS = {"vertices": ["id", "x", "u", "lambda", "sigma"], "simplices": ["vertex_ids", "stratum"]}


def edits(doc):
    """Every single edit of a vertex or a simplex record of ``doc``, in place:
    each a function of the document, which skips a record that an earlier
    edit has made unfit for it."""
    def at(section, i, change):
        def edit(d):
            try:
                change(d[section], i)
            except (AttributeError, IndexError, KeyError, TypeError):
                pass
        return edit
    for section, keys in _KEYS.items():
        for i, record in enumerate(doc[section]):
            for odd in _ODD:
                yield at(section, i, lambda r, i, odd=odd: r.__setitem__(i, odd))
            for key in keys:
                yield at(section, i, lambda r, i, key=key: r[i].pop(key))
                for odd in _ODD:
                    yield at(section, i, lambda r, i, key=key, odd=odd: r[i].__setitem__(key, odd))
                if not isinstance(record[key], list):
                    continue
                yield at(section, i, lambda r, i, key=key: r[i].__setitem__(key, tuple(r[i][key])))
                yield at(section, i, lambda r, i, key=key: r[i][key].append(r[i][key][0]))
                for j, x in enumerate(record[key]):
                    for odd in _ODD_ENTRY + [len(doc["vertices"]), record[key][0]]:
                        yield at(section, i, lambda r, i, key=key, j=j, odd=odd:
                                 r[i][key].__setitem__(j, odd))


def test_reader_matches_the_per_row_walk_on_every_edit():
    # one complex with null and written lambda and sigma rows; every single
    # edit of it, and every edit after an edit of an earlier record
    cx = _complex([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0]], np.arange(8.0).reshape(4, 2),
                  [[0.5, 0.5], [np.nan, np.nan], [0.25, 0.75], [1.0, 0.0]],
                  [[1.0], [2.0], [np.nan], [3.0]],
                  [((0, 1), "critical_stable"), ((1, 2), "singular_only"), ((2, 3), "critical_stable")],
                  [(0, "boundary")])
    base = json.loads(dumps(complex_to_dict(cx)))
    every = list(edits(base))
    rng = np.random.default_rng(0)
    for first, second in [(None, e) for e in every] + [
            tuple(rng.choice(every, 2, replace=False)) for _ in range(len(every))]:
        doc = json.loads(json.dumps(base))
        for edit in (first, second):
            if edit is not None:
                edit(doc)
        _assert_same_outcome(doc)


@st.composite
def edited_documents(draw):
    """The file document of a drawn complex with up to three of its single
    edits."""
    doc = json.loads(dumps(complex_to_dict(draw(complexes())[0])))
    if doc["ambient_dim"] < doc["objectives"]:  # sigma rows as wide as the reader takes
        for v in doc["vertices"]:
            v["sigma"] = None
    V, m = len(doc["vertices"]), doc["objectives"]
    doc["simplices"] = [  # and simplices it takes
        {"vertex_ids": draw(st.permutations(range(V)))[:m], "stratum": draw(st.sampled_from(STRATA))}
        for _ in range(draw(st.integers(1, 6)) if V >= m else 0)]
    every = list(edits(doc))
    for edit in draw(st.lists(st.sampled_from(every), max_size=3)) if every else []:
        edit(doc)
    return doc


def _outcome(load, doc):
    """What ``load`` makes of ``doc``: its error, or the fields of its complex."""
    try:
        cx = load(doc)
    except Exception as exc:  # noqa: BLE001 -- the type is compared too
        return type(exc), str(exc)
    return (cx.n, cx.m, cx.positions, cx.u_values, cx.lam, cx.sigma, cx.simplices,
            cx.stratum, cx.markers, cx.problem_name)


def _assert_same_outcome(doc):
    got, expect = _outcome(complex_from_dict, doc), _outcome(walk_complex_from_dict, doc)
    assert len(got) == len(expect), (got, expect)
    for a, b in zip(got, expect):
        assert _same(a, b) if isinstance(b, np.ndarray) or b is None else a == b


@settings(max_examples=200)
@given(edited_documents())
def test_reader_matches_the_per_row_walk(doc):
    _assert_same_outcome(doc)
