"""Span tracing from outside the program.

A traced run wraps public functions of each layer -- module attributes at the
sites that call them, ``Analyzer`` methods, and the callables of a
``dataclasses.replace`` copy of the problem -- and restores them afterwards.
Nothing under ``src/`` changes.  Spans are kept in memory as
``[run_id, span_id, parent_id, layer, name, start, end]`` and written out when
the benchmark ends; every per-layer metric is derived from them, from small
notes the wrappers take, and from log records of the ``paretoc`` loggers.
"""

import dataclasses
import inspect
import logging
import os
import re
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

from workloads import (
    complex_io,
    constrained,
    continuation,
    refinement,
    tessellation,
)

LAYERS = ("tessellation", "problems", "continuation", "constrained",
          "refinement", "metrics", "complex_io")
ROOT_SPAN = "bench.run"  # one per workload run; its self time is unattributed


# Notes: small facts taken from a call's result and bound arguments.  They
# must be cheap, since they run inside the caller's span.


def _cells(result, args):
    return len(result.cells)


def _inserted(result, args):
    return len(result.nodes) - len(args["tess"].nodes)


def _glue_inputs(result, args):
    return args["analyses"], len(args["tess"].cells)  # counted after the run


def _count(result, args):
    return len(result)


def _maximin_count(result, args):
    return len(result[0])


def _iterate_note(result, args):
    return len(args["state"].tess.nodes), len(result.tess.nodes), args.get("budget")


def _samples(result, args):
    return result.sample_count


def _saved_path(result, args):
    return os.fspath(args["path"])


# (owner, attribute, span name, note).  A span name may have several call
# sites; it is absent only when none of them exists any more.
TARGETS = [
    (tessellation, "kuhn_tessellation", "tessellation.kuhn_tessellation", _cells),
    (tessellation, "build_delaunay", "tessellation.build_delaunay", _cells),
    (refinement, "insert_nodes", "tessellation.insert_nodes", _inserted),
    (continuation, "analyze", "continuation.analyze", None),
    (continuation.Analyzer, "__init__", "continuation.Analyzer.__init__", None),
    (continuation.Analyzer, "candidate_cells", "continuation.Analyzer.candidate_cells", None),
    (continuation.Analyzer, "analyze_cell_first_order",
     "continuation.Analyzer.analyze_cell_first_order", None),
    (continuation.Analyzer, "analyze_cell_second_order",
     "continuation.Analyzer.analyze_cell_second_order", None),
    (continuation, "glue", "continuation.glue", _glue_inputs),
    (constrained, "glue", "continuation.glue", _glue_inputs),
    (constrained, "analyze_constrained", "constrained.analyze_constrained", None),
    (constrained, "project_gradients", "constrained.project_gradients", None),
    (constrained, "augmented_minors", "constrained.augmented_minors", None),
    (refinement, "initial_state", "refinement.initial_state", None),
    (refinement, "iterate", "refinement.iterate", _iterate_note),
    (refinement, "resample_polyline", "refinement.resample_polyline", _count),
    (refinement, "_boundary_candidates", "refinement._boundary_candidates", _count),
    (refinement, "_maximin_fill_with_hosts", "refinement._maximin_fill_with_hosts",
     _maximin_count),
    (refinement, "complex_minor_stats", "refinement.complex_minor_stats", None),
    (refinement, "hausdorff", "metrics.hausdorff", _samples),
    (complex_io, "save_complex", "complex_io.save_complex", _saved_path),
]

# Callables of a VectorProblem (and of a ConstrainedProblem's constraint).
PROBLEM_FIELDS = {"eval": "problems.eval", "jacobian": "problems.jacobian",
                  "hessians": "problems.hessians"}
CONSTRAINT_FIELDS = {"g": "problems.g", "g_jacobian": "problems.g_jacobian"}

CANDIDATE_SPANS = ("refinement.resample_polyline", "refinement._boundary_candidates",
                   "refinement._maximin_fill_with_hosts")

# metric -> (unit, spans it needs).  A metric whose spans are all present is
# reported; otherwise it is absent, never zero.
PER_LAYER = {
    "tessellation.build_s": ("s", ["tessellation.kuhn_tessellation",
                                   "tessellation.build_delaunay"]),
    "tessellation.cells": ("count", ["tessellation.kuhn_tessellation",
                                     "tessellation.build_delaunay"]),
    "tessellation.insert_s": ("s", ["tessellation.insert_nodes"]),
    "tessellation.nodes_inserted": ("count", ["tessellation.insert_nodes"]),
    "tessellation.rebuild_fallbacks": ("count", []),
    "problems.jac_calls": ("count", ["problems.jacobian"]),
    "problems.hess_calls": ("count", ["problems.hessians"]),
    "problems.u_calls": ("count", ["problems.eval"]),
    "problems.eval_s": ("s", ["problems.eval", "problems.jacobian", "problems.hessians"]),
    "continuation.setup_s": ("s", ["continuation.Analyzer.__init__"]),
    "continuation.filter_s": ("s", ["continuation.Analyzer.candidate_cells"]),
    "continuation.cells_analyzed": ("count", ["continuation.glue"]),
    "continuation.candidate_ratio": ("ratio", ["continuation.glue"]),
    "continuation.first_order_s": ("s", ["continuation.Analyzer.analyze_cell_first_order"]),
    "continuation.second_order_s": ("s", ["continuation.Analyzer.analyze_cell_second_order"]),
    "continuation.face_vertices": ("count", ["continuation.glue"]),
    "continuation.unique_vertices": ("count", ["continuation.glue"]),
    "continuation.vertex_reuse": ("ratio", ["continuation.glue"]),
    "continuation.glue_s": ("s", ["continuation.glue"]),
    "continuation.rank_deficient_faces": ("count", ["continuation.glue"]),
    "continuation.rank_collapses": ("count", ["continuation.glue"]),
    "continuation.nontransversal_cells": ("count", ["continuation.glue"]),
    "continuation.nontransversal_logged": ("count", []),
    "constrained.nodal_s": ("s", ["constrained.project_gradients",
                                  "constrained.augmented_minors"]),
    "constrained.analyze_s": ("s", ["constrained.analyze_constrained"]),
    "refinement.iterate_s": ("s", ["refinement.iterate"]),
    "refinement.candidates_s": ("s", list(CANDIDATE_SPANS)),
    "refinement.minor_stats_s": ("s", ["refinement.complex_minor_stats"]),
    "refinement.candidates": ("count", list(CANDIDATE_SPANS)),
    "refinement.guard_rejected": ("count", ["refinement.iterate", *CANDIDATE_SPANS]),
    "refinement.guard_accept_ratio": ("ratio", ["refinement.iterate", *CANDIDATE_SPANS]),
    "metrics.hausdorff_s": ("s", ["metrics.hausdorff"]),
    "metrics.hausdorff_samples": ("count", ["metrics.hausdorff"]),
    "complex_io.save_s": ("s", ["complex_io.save_complex"]),
    "complex_io.bytes": ("bytes", ["complex_io.save_complex"]),
    **{f"{layer}.self_s": ("s", []) for layer in LAYERS},
    "trace.unattributed_s": ("s", []),
    "trace.wall_s": ("s", []),
    "trace.overhead_s": ("s", []),
}

# Log messages counted by the handler (matched against the unformatted text).
LOG_REBUILD = "rebuilding from scratch"
LOG_NONTRANSVERSAL = "singular vertices; building a path"

_RANK_DEFICIENT = re.compile(
    r"^(\d+) (?:rank-deficient face system|wholly-singular edge)"
)


class _LogCounter(logging.Handler):
    def __init__(self, counts: Counter):
        super().__init__(level=logging.DEBUG)
        self.counts = counts

    def emit(self, record):
        self.counts[str(record.msg)] += 1


class Tracer:
    """In-memory spans and notes of the traced runs of one benchmark process."""

    def __init__(self):
        self.spans = []   # [run_id, span_id, parent_id, layer, name, start, end]
        self.notes = []   # (span record, note) taken by the wrappers
        self.logs = []    # Counter of log messages, one per run
        self.absent = set()
        self._stack = []
        self.run_id = -1

    def wrap(self, name, fn, note=None):
        spans, stack, notes = self.spans, self._stack, self.notes
        layer = name.split(".", 1)[0]
        bind = inspect.signature(fn).bind if note is not None else None

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [self.run_id, len(spans), stack[-1] if stack else -1,
                   layer, name, perf_counter(), 0.0]
            spans.append(rec)
            stack.append(rec[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = perf_counter()
                stack.pop()
            if note is not None:
                notes.append((rec, note(result, bind(*args, **kwargs).arguments)))
            return result

        return traced

    def _problem_copy(self, problem):
        def traced_copy(obj, fields):
            changes = {}
            for attr, name in fields.items():
                if hasattr(obj, attr):
                    changes[attr] = self.wrap(name, getattr(obj, attr))
                else:
                    self.absent.add(name)
            return dataclasses.replace(obj, **changes)

        if hasattr(problem, "base"):  # a ConstrainedProblem around a VectorProblem
            base = traced_copy(problem.base, PROBLEM_FIELDS)
            return traced_copy(dataclasses.replace(problem, base=base), CONSTRAINT_FIELDS)
        return traced_copy(problem, PROBLEM_FIELDS)

    @contextmanager
    def installed(self, inputs, keep_spans: bool):
        """Wrap every target for one run; yields the inputs with a traced problem.

        On exit the run's notes are freed and, unless ``keep_spans``, its spans.
        """
        saved, present = [], set()
        for owner, attr, name, note in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            present.add(name)
            saved.append((owner, attr, fn))
            setattr(owner, attr, self.wrap(name, fn, note))
        self.absent |= {name for _, _, name, _ in TARGETS} - present
        logs = Counter()
        handler = _LogCounter(logs)
        logger = logging.getLogger("paretoc")
        logger.addHandler(handler)
        self.run_id += 1
        self.logs.append(logs)
        try:
            yield dict(inputs, problem=self._problem_copy(inputs["problem"]))
        finally:
            logger.removeHandler(handler)
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            self.notes.clear()
            if not keep_spans:
                self.spans[:] = [s for s in self.spans if s[0] != self.run_id]

    def run(self, fn, *args):
        """Call ``fn`` under the root span, inside ``installed``.

        Returns the result, the traced wall time and the per-layer metrics.
        """
        first = len(self.spans)
        result = self.wrap(ROOT_SPAN, fn)(*args)
        rec = self.spans[first]
        return result, rec[6] - rec[5], self.run_metrics(self.run_id)

    # -- per-layer metrics -------------------------------------------------------

    def run_metrics(self, run_id) -> dict:
        """Per-layer metrics of one traced run (spans, notes and logs of that run)."""
        spans = [s for s in self.spans if s[0] == run_id]
        notes = defaultdict(list)
        for rec, note in self.notes:
            if rec[0] == run_id:
                notes[rec[4]].append((rec, note))
        logs = self.logs[run_id]

        dur, calls, covered = Counter(), Counter(), Counter()
        for _, sid, parent, layer, name, t0, t1 in spans:
            dur[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                covered[parent] += t1 - t0
        self_s = Counter()
        for _, sid, parent, layer, name, t0, t1 in spans:
            self_s[layer] += (t1 - t0) - covered[sid]

        m = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
        m["trace.unattributed_s"] = self_s["bench"]
        m["trace.wall_s"] = dur[ROOT_SPAN]
        total = sum(self_s.values())
        if abs(total - m["trace.wall_s"]) > 1e-9 * max(1.0, total):
            raise RuntimeError(f"span self times add up to {total}, not {m['trace.wall_s']}")

        builds = ("tessellation.kuhn_tessellation", "tessellation.build_delaunay")
        m["tessellation.build_s"] = sum(dur[n] for n in builds)
        m["tessellation.cells"] = sum(c for n in builds for _, c in notes[n])
        m["tessellation.insert_s"] = dur["tessellation.insert_nodes"]
        m["tessellation.nodes_inserted"] = sum(c for _, c in notes["tessellation.insert_nodes"])
        m["tessellation.rebuild_fallbacks"] = sum(
            c for msg, c in logs.items() if LOG_REBUILD in msg)

        m["problems.jac_calls"] = calls["problems.jacobian"]
        m["problems.hess_calls"] = calls["problems.hessians"]
        m["problems.u_calls"] = calls["problems.eval"]
        m["problems.eval_s"] = sum(d for n, d in dur.items() if n.startswith("problems."))

        m["continuation.setup_s"] = dur["continuation.Analyzer.__init__"]
        m["continuation.filter_s"] = dur["continuation.Analyzer.candidate_cells"]
        m["continuation.first_order_s"] = dur["continuation.Analyzer.analyze_cell_first_order"]
        m["continuation.second_order_s"] = dur["continuation.Analyzer.analyze_cell_second_order"]
        m["continuation.glue_s"] = dur["continuation.glue"]
        analyzed = cells = computed = unique = rank_def = collapses = nontransversal = 0
        for _, (analyses, tess_cells) in notes["continuation.glue"]:
            analyzed += len(analyses)
            cells += tess_cells
            keys = set()
            for a in analyses:
                computed += len(a.singular_vertices)
                keys.update(repr(v.key) for v in a.singular_vertices)
                for w in a.warnings:
                    hit = _RANK_DEFICIENT.match(w)
                    rank_def += int(hit.group(1)) if hit else 0
                    collapses += w.startswith("rank collapse")
                    nontransversal += "non-transversal" in w
            unique += len(keys)
        m["continuation.cells_analyzed"] = analyzed
        m["continuation.candidate_ratio"] = analyzed / cells if cells else 0.0
        m["continuation.face_vertices"] = computed
        m["continuation.unique_vertices"] = unique
        m["continuation.vertex_reuse"] = unique / computed if computed else 0.0
        m["continuation.rank_deficient_faces"] = rank_def
        m["continuation.rank_collapses"] = collapses
        m["continuation.nontransversal_cells"] = nontransversal
        m["continuation.nontransversal_logged"] = sum(
            c for msg, c in logs.items() if LOG_NONTRANSVERSAL in msg)

        m["constrained.nodal_s"] = (dur["constrained.project_gradients"]
                                    + dur["constrained.augmented_minors"])
        m["constrained.analyze_s"] = dur["constrained.analyze_constrained"]

        m["refinement.iterate_s"] = dur["refinement.iterate"]
        m["refinement.candidates_s"] = sum(dur[n] for n in CANDIDATE_SPANS)
        m["refinement.minor_stats_s"] = dur["refinement.complex_minor_stats"]
        per_iteration = Counter()
        for n in CANDIDATE_SPANS:
            for rec, count in notes[n]:
                per_iteration[rec[2]] += count
        post_budget = inserted = 0
        for rec, (before, after, budget) in notes["refinement.iterate"]:
            offered = per_iteration[rec[1]]
            post_budget += offered if budget is None else min(offered, budget)
            inserted += after - before
        m["refinement.candidates"] = sum(per_iteration.values())
        m["refinement.guard_rejected"] = post_budget - inserted
        m["refinement.guard_accept_ratio"] = inserted / post_budget if post_budget else 0.0

        m["metrics.hausdorff_s"] = dur["metrics.hausdorff"]
        m["metrics.hausdorff_samples"] = sum(c for _, c in notes["metrics.hausdorff"])

        m["complex_io.save_s"] = dur["complex_io.save_complex"]
        m["complex_io.bytes"] = sum(os.path.getsize(p) for _, p in notes["complex_io.save_complex"])
        return m

    def absent_metrics(self) -> set:
        return {name for name, (_, needs) in PER_LAYER.items()
                if any(n in self.absent for n in needs)}
