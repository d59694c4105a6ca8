"""JSON schemas: complex files (version 1) and debug mesh files.

Complex files persist a ParetoComplex together with per-vertex data so
image-space fronts can be plotted without re-evaluating the objectives.
Floats are serialized with shortest round-trip representation, so
``parse(serialize(c))`` reproduces every number exactly and reruns are
byte-identical.  :func:`save_complex` writes the text of
``json.dumps(complex_to_dict(cx, provenance), indent=1)`` byte for byte, but
formats the vertex, simplex and marker sections itself from ``tolist()``
values instead of running json's pure-Python encoder over them.
"""

from __future__ import annotations

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


def _row(v: dict, name: str, k: int) -> np.ndarray:
    """A vertex's ``name`` entry as k floats.  A null number raises
    ValueError, where numpy would read it as NaN."""
    entries = v[name]
    try:
        row = np.asarray(entries, dtype=float)
    except (TypeError, ValueError):  # an object, a string or a ragged list
        raise ValueError(f"the {name!r} entry of vertex {v['id']} is not a list of "
                         f"{k} numbers") from None
    if row.shape != (k,):
        raise ValueError(f"the {name!r} entry of vertex {v['id']} has shape {row.shape}, "
                         f"not ({k},)")
    if None in entries:
        raise ValueError(f"the {name!r} entry of vertex {v['id']} holds null at "
                         f"index {entries.index(None)}")
    return row


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
        n=n,
        m=m,
        positions=positions,
        u_values=u_values,
        lam=lam,
        sigma=sigma,
        keys=[repr(("file", i)) for i in range(V)],
        simplices=simplices,
        stratum=names,
        markers=sorted(markers),
        problem_name=prov.get("problem") or "",
    )


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1)


_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _list(texts: list, level: int) -> str:
    """A json list at nesting ``level`` of items already encoded."""
    if not texts:
        return "[]"
    pad = "\n" + " " * (level + 1)
    return "[" + pad + ("," + pad).join(texts) + "\n" + " " * level + "]"


def _rows(a, level: int = 3) -> list:
    """Each row of a 2-D array as a json list at ``level``: floats as
    ``float.__repr__``, non-finite ones as json writes them."""
    a = np.asarray(a, dtype=float)
    texts = list(map(float.__repr__, a.ravel().tolist()))
    if not np.isfinite(a).all():
        texts = [_NONFINITE.get(t, t) for t in texts]
    k = a.shape[1]
    return [_list(texts[i:i + k], level) for i in range(0, k * len(a), k)] if k \
        else ["[]"] * len(a)


def _complex_text(cx: ParetoComplex, provenance: Optional[dict] = None) -> str:
    """``json.dumps(complex_to_dict(cx, provenance), indent=1)``, built
    directly: the three large sections from row texts, the rest by json."""

    def or_null(a):  # a row with a NaN is null, as in complex_to_dict
        if a is None:
            return ["null"] * cx.num_vertices
        return ["null" if nan else t
                for t, nan in zip(_rows(a), np.isnan(a).any(axis=1).tolist())]

    x, u, lam, sigma = _rows(cx.positions), _rows(cx.u_values), or_null(cx.lam), or_null(cx.sigma)
    vertices = [f'{{\n   "id": {i},\n   "x": {x[i]},\n   "u": {u[i]},\n'
                f'   "lambda": {lam[i]},\n   "sigma": {sigma[i]}\n  }}'
                for i in range(cx.num_vertices)]
    names = {s: json.dumps(s) for s in {*cx.stratum, *(k for _, k in cx.markers)}}
    simplices = [f'{{\n   "vertex_ids": {_list(list(map(int.__repr__, vids)), 3)},\n'
                 f'   "stratum": {names[stratum]}\n  }}'
                 for vids, stratum in zip(cx.simplices.tolist(), cx.stratum)]
    markers = [f'{{\n   "x": {x[vid]},\n   "kind": {names[kind]},\n'
               f'   "vertex": {int.__repr__(vid)}\n  }}'
               for vid, kind in cx.markers]
    prov = provenance or {"problem": cx.problem_name, "grid": None, "iterations": None}
    return "".join([
        '{\n "version": ', json.dumps(COMPLEX_VERSION),
        ',\n "ambient_dim": ', json.dumps(cx.n),
        ',\n "objectives": ', json.dumps(cx.m),
        ',\n "vertices": ', _list(vertices, 1),
        ',\n "simplices": ', _list(simplices, 1),
        ',\n "markers": ', _list(markers, 1),
        ',\n "provenance": ', json.dumps(prov, indent=1).replace("\n", "\n "),
        "\n}",
    ])


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
    ids and, if the file gives ``embedding_dim``, its points rows of that
    many coordinates; anything else raises ``ValueError``."""
    with open(path) as fh:
        doc = _expect(json.load(fh), dict, "the mesh file")
    if doc.get("version") != MESH_VERSION:
        raise ValueError(f"unsupported mesh file version {doc.get('version')!r}")
    try:
        dim = _integer(doc["dim"], "the 'dim' entry")
        points = _expect(doc["points"], list, "the 'points' entry")
        cells = _expect(doc["cells"], list, "the 'cells' entry")
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
