"""JSON schemas: complex files (version 1) and debug mesh files.

Complex files persist a ParetoComplex together with per-vertex data so
image-space fronts can be plotted without re-evaluating the objectives.
Floats are serialized with shortest round-trip representation, so
``parse(serialize(c))`` reproduces every number exactly and reruns are
byte-identical.  :func:`save_complex` writes the text of
``json.dumps(complex_to_dict(cx, provenance), indent=1)`` byte for byte, but
formats the vertex, simplex and marker sections itself, each by one ``%``
call over one template string and one flat list of arguments.  A vertex
record has one of four templates, as its lambda and sigma rows are null or
not; a null row is ``null`` and one ``%.0s`` per entry it skips, so every
vertex takes the same number of arguments.  Floats go in as
``float.__repr__`` texts, the shortest round-trip text json writes: with the
bytes fixed, that call is the writer's floor and most of its time.
:func:`complex_from_dict` converts each vertex section and the simplex ids
by one array call once the whole section passes a type and shape check;
otherwise it walks the rows one at a time, to name the first bad one.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

import numpy as np

from .continuation import MARKER_KINDS, STRATA, ParetoComplex
from .tessellation import Tessellation

COMPLEX_VERSION = 1
MESH_VERSION = 1


def complex_to_dict(cx: ParetoComplex, provenance: Optional[dict] = None) -> dict:
    vertices = []
    for i in range(cx.num_vertices):
        lam = cx.lam[i]
        sig = cx.sigma[i] if cx.sigma is not None else None
        vertices.append(
            {
                "id": i,
                "x": [float(v) for v in cx.positions[i]],
                "u": [float(v) for v in cx.u_values[i]],
                "lambda": None if np.any(np.isnan(lam)) else [float(v) for v in lam],
                "sigma": None
                if sig is None or np.any(np.isnan(sig))
                else [float(v) for v in sig],
            }
        )
    return {
        "version": COMPLEX_VERSION,
        "ambient_dim": cx.n,
        "objectives": cx.m,
        "vertices": vertices,
        "simplices": [
            {"vertex_ids": ids, "stratum": stratum}
            for ids, stratum in zip(cx.simplices.tolist(), cx.stratum)
        ],
        "markers": [
            {
                "x": [float(v) for v in cx.positions[vid]],
                "kind": kind,
                "vertex": vid,
            }
            for vid, kind in cx.markers
        ],
        "provenance": provenance
        or {"problem": cx.problem_name, "grid": None, "iterations": None},
    }


def _expect(value, kind: type, what: str):
    """``value`` if it is a ``kind``, dict or list; otherwise a ValueError
    names ``what``."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _integer(value, what: str) -> int:
    """``value`` as an int: an int, or a float with an integral value.  A
    bool, a fraction or anything else raises ValueError naming ``what``,
    where ``int()`` would truncate 2.7 to 2 and read true as 1."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{what} is {value!r}, not an integer")
    return value


def _vertex_id(i, V: int, what: str) -> int:
    i = _integer(i, f"a vertex id of {what}")
    if not 0 <= i < V:
        raise ValueError(f"{what} names vertex {i}, the file has {V}")
    return i


_JSON_NUMBERS = {int, float}  # the types json.load reads a number as


def _numbers(entries, what: str) -> None:
    """Raise ValueError naming ``what`` and the index of the first of
    ``entries`` that is not a JSON number, where numpy would read null as
    NaN, true as 1.0 and the string "0.5" as 0.5."""
    if not _JSON_NUMBERS.issuperset(map(type, entries)):
        i, e = next((i, e) for i, e in enumerate(entries) if type(e) not in _JSON_NUMBERS)
        raise ValueError(f"{what} holds {'null' if e is None else repr(e)} at index {i}, "
                         f"not a number")


def _row(v: dict, name: str, k: int) -> np.ndarray:
    """A vertex's ``name`` entry as k floats, each a JSON number."""
    entries = v[name]
    what = f"the {name!r} entry of vertex {v['id']}"
    try:
        row = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):  # an object, a string or a ragged list
        raise ValueError(f"{what} is not a list of {k} numbers") from None
    if row.shape != (k,):
        raise ValueError(f"{what} has shape {row.shape}, not ({k},)")
    _numbers(entries, what)
    return row


def _fill(a, rows: list, ids: list, nullable: bool = False) -> bool:
    """Set row ``ids[j]`` of ``a`` to ``rows[j]`` (skipping null ones if
    ``nullable``) in one array call.  False, with ``a`` untouched, unless
    every such row is a list of ``a.shape[1]`` JSON numbers, none of them an
    int too large for a float."""
    if nullable:
        ids = [i for i, row in zip(ids, rows) if row is not None]
        rows = [row for row in rows if row is not None]
    if not rows:
        return True
    if ({list} != set(map(type, rows)) or {a.shape[1]} != set(map(len, rows))
            or not _JSON_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(rows)))):
        return False
    try:
        a[ids] = np.fromiter(itertools.chain.from_iterable(rows), float).reshape(len(rows), -1)
    except OverflowError:
        return False
    return True


def _simplex_table(sims: list, V: int, m: int):
    """The simplices' vertex ids as an (S, m) array and their strata, or
    None unless every simplex is an object with m distinct int vertex ids
    below V and a known stratum."""
    if not {dict}.issuperset(map(type, sims)):
        return None
    rows = list(map(dict.get, sims, itertools.repeat("vertex_ids")))
    names = list(map(dict.get, sims, itertools.repeat("stratum")))
    if not rows:
        return np.empty((0, m), dtype=np.intp), names
    if ({list} != set(map(type, rows)) or {m} != set(map(len, rows))
            or not all(map(STRATA.__contains__, names))):
        return None
    flat = list(itertools.chain.from_iterable(rows))
    if not {int}.issuperset(map(type, flat)) or flat and not 0 <= min(flat) <= max(flat) < V:
        return None
    ids = np.array(flat, dtype=np.intp).reshape(len(rows), m)
    if m > 1 and not np.all(np.diff(np.sort(ids, axis=1), axis=1)):
        return None
    return ids, names


def _simplex_walk(sims: list, V: int, m: int):
    """The simplices' vertex ids and strata, one simplex at a time: the
    first bad one raises ValueError naming what is wrong."""
    simplices, names = [], []
    for s in sims:
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
    return simplices, names


def complex_from_dict(doc: dict) -> ParetoComplex:
    """A complex from the JSON document of a complex file.  A missing entry,
    an entry of the wrong JSON kind, a non-integral count or id, or a vertex
    id out of range raises ``ValueError`` naming it."""
    _expect(doc, dict, "the complex file")
    if doc.get("version") != COMPLEX_VERSION:
        raise ValueError(f"unsupported complex file version {doc.get('version')!r}")
    try:
        n = _integer(doc["ambient_dim"], "the 'ambient_dim' entry")
        m = _integer(doc["objectives"], "the 'objectives' entry")
        verts = _expect(doc["vertices"], list, "the 'vertices' entry")
        if not {dict}.issuperset(map(type, verts)):
            for v in verts:
                _expect(v, dict, "a vertex")
        V = len(verts)
        rows = {name: list(map(dict.get, verts, itertools.repeat(name)))
                for name in ("id", "x", "u", "lambda", "sigma")}
        positions = np.empty((V, n))
        u_values = np.empty((V, m))
        lam = np.full((V, m), np.nan)
        has_sigma = any(row is not None for row in rows["sigma"])
        sigma = np.full((V, n - m + 1), np.nan) if has_sigma else None
        ids = rows["id"]
        if not {int}.issuperset(map(type, ids)):
            ids = [_integer(v["id"], "the 'id' entry of a vertex") for v in verts]
        if sorted(ids) != list(range(V)):
            raise ValueError(f"vertex ids are not 0..{V - 1}, each once")
        if not (_fill(positions, rows["x"], ids) and _fill(u_values, rows["u"], ids)
                and _fill(lam, rows["lambda"], ids, True)
                and (not has_sigma or _fill(sigma, rows["sigma"], ids, True))):
            for i, v in zip(ids, verts):  # to name the first bad row
                positions[i] = _row(v, "x", n)
                u_values[i] = _row(v, "u", m)
                if v.get("lambda") is not None:
                    lam[i] = _row(v, "lambda", m)
                if v.get("sigma") is not None:
                    sigma[i] = _row(v, "sigma", n - m + 1)
        sims = _expect(doc["simplices"], list, "the 'simplices' entry")
        simplices, names = _simplex_table(sims, V, m) or _simplex_walk(sims, V, m)
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


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _texts(a) -> list:
    """A 2-D array's entries in row order as json writes them, non-finite ones by name."""
    a = np.asarray(a, dtype=float)
    texts = list(map(float.__repr__, a.ravel().tolist()))
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        texts[i] = _NONFINITE[texts[i]]
    return texts


def _json_list(k: int, conv: str = "%s") -> str:
    """The template of a json list of ``k`` entries at nesting level 3."""
    return "[\n    " + ",\n    ".join([conv] * k) + "\n   ]" if k else "[]"


def _interleave(count: int, widths: list, pieces) -> list:
    """The arguments of ``count`` records in one list, ``widths[i]`` each from ``pieces[i]``."""
    w, col = sum(widths), 0
    args = [None] * (count * w)
    for entries, k in zip(pieces, widths):
        for j in range(k):
            args[col + j::w] = entries[j::k]
        col += k
    return args


def _section(templates: list, args: list) -> str:
    """A json list at nesting level 1 of records, each filled by its template."""
    return "[\n  " + ",\n  ".join(templates) % tuple(args) + "\n ]" if templates else "[]"


def _complex_text(cx: ParetoComplex, provenance: Optional[dict] = None) -> str:
    """``json.dumps(complex_to_dict(cx, provenance), indent=1)``, built
    directly: each large section by one format call, the rest by json."""
    V, (S, c) = cx.num_vertices, cx.simplices.shape
    arrays = (cx.positions, cx.u_values, cx.lam,
              np.empty((V, 0)) if cx.sigma is None else cx.sigma)
    n, m, l, k = (a.shape[1] for a in arrays)
    w = 1 + n + m + l + k  # a vertex's arguments: its id, x, u, lambda and sigma
    args = _interleave(V, [1, n, m, l, k], itertools.chain([range(V)], map(_texts, arrays)))
    names = {s: json.dumps(s) for s in {*cx.stratum, *(kind for _, kind in cx.markers)}}
    margs = []
    for vid, kind in cx.markers:  # a marker takes the x texts of its vertex
        margs += args[vid * w + 1:vid * w + 1 + n] + [names[kind], vid]
    markers = _section(['{\n   "x": ' + _json_list(n) + ',\n   "kind": %s,\n   "vertex": %d\n  }']
                       * len(cx.markers), margs)
    head = '{\n   "id": %d,\n   "x": ' + _json_list(n) + ',\n   "u": ' + _json_list(m)
    variants = [head + ',\n   "lambda": ' + lam + ',\n   "sigma": ' + sig + "\n  }"
                for lam in (_json_list(l), "null" + "%.0s" * l)  # null takes its entries
                for sig in (_json_list(k), "null" + "%.0s" * k)]
    null_sigma = np.isnan(arrays[3]).any(axis=1) | (cx.sigma is None)
    codes = 2 * np.isnan(cx.lam).any(axis=1) + null_sigma
    vertices = _section(list(map(variants.__getitem__, codes.tolist())), args)
    del args
    simplices = _section(['{\n   "vertex_ids": ' + _json_list(c, "%d") + ',\n   "stratum": %s\n  }']
                         * S, _interleave(S, [c, 1], [cx.simplices.ravel().tolist(),
                                                      list(map(names.__getitem__, cx.stratum))]))
    prov = provenance or {"problem": cx.problem_name, "grid": None, "iterations": None}
    return ('{\n "version": %d,\n "ambient_dim": %d,\n "objectives": %d,\n "vertices": %s,\n'
            ' "simplices": %s,\n "markers": %s,\n "provenance": %s\n}') % (
        COMPLEX_VERSION, cx.n, cx.m, vertices, simplices, markers,
        json.dumps(prov, indent=1).replace("\n", "\n "))


def save_complex(path, cx: ParetoComplex, provenance: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        fh.write(_complex_text(cx, provenance))
        fh.write("\n")


def load_complex(path) -> ParetoComplex:
    with open(path) as fh:
        return complex_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# mesh schema (debugging / manifold input)
# ---------------------------------------------------------------------------


def save_mesh(path, mesh: Tessellation) -> None:
    """Write a mesh file: ``dim`` is the cells' width less one and
    ``embedding_dim`` the nodes' width."""
    doc = {
        "version": MESH_VERSION,
        "dim": mesh.cells.shape[1] - 1,
        "embedding_dim": mesh.n,
        "points": mesh.nodes.tolist(),
        "cells": mesh.cells.tolist(),
    }
    with open(path, "w") as fh:
        fh.write(dumps(doc))
        fh.write("\n")


def load_mesh(path) -> Tessellation:
    """Read a mesh file.  Its cells must be rows of ``dim + 1`` distinct node
    ids and its points rows of JSON numbers, as many as ``embedding_dim`` if
    the file gives it; anything else raises ``ValueError``."""
    with open(path) as fh:
        doc = _expect(json.load(fh), dict, "the mesh file")
    if doc.get("version") != MESH_VERSION:
        raise ValueError(f"unsupported mesh file version {doc.get('version')!r}")
    try:
        dim = _integer(doc["dim"], "the 'dim' entry")
        points = _expect(doc["points"], list, "the 'points' entry")
        cells = _expect(doc["cells"], list, "the 'cells' entry")
        rows = [p for p in points if isinstance(p, list)]
        if not _JSON_NUMBERS.issuperset(map(type, itertools.chain.from_iterable(rows))):
            for i, p in enumerate(points):
                if isinstance(p, list):
                    _numbers(p, f"point {i}")
        mesh = Tessellation(points, cells or np.empty((0, dim + 1), np.intp))
    except KeyError as exc:
        raise ValueError(f"mesh file has no {exc.args[0]!r} entry") from None
    if mesh.cells.shape[1] != dim + 1:
        raise ValueError(f"mesh file has dim {dim}, but its cells have "
                         f"{mesh.cells.shape[1]} nodes, not {dim + 1}")
    embedding_dim = _integer(doc.get("embedding_dim", mesh.n), "the 'embedding_dim' entry")
    if embedding_dim != mesh.n:
        raise ValueError(f"mesh file has embedding_dim {embedding_dim}, but its points "
                         f"have {mesh.n} coordinates")
    return mesh
