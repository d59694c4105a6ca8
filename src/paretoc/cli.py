"""Command-line interface.

Subcommands: run | iterate | distance | plot-data | list-problems |
check-derivatives.  Exit codes: 0 success, 1 usage error, 2 numerical
failure.  Every run is single-threaded.  The global ``--log-level`` sets
which library log records reach stderr (default ``warning``).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .constrained import analyze_constrained, icosphere
from .continuation import (MARKER_BOUNDARY, MARKER_CUSP, STRATUM_SINGULAR, STRATUM_STABLE,
                           STRATUM_UNSTABLE, analyze)
from .complex_io import load_complex, load_mesh, save_complex
from .errors import ParetocError, UnknownProblem
from .metrics import hausdorff
from .problems import (
    ConstrainedProblem,
    check_derivatives,
    registry_get,
    registry_names,
    sample_domain,
)
from .refinement import initial_state, iterate, segment_chains
from .tessellation import build_delaunay, kuhn_tessellation


class UsageError(Exception):
    """Malformed command-line input (exit 1)."""


def _int_at_least(lo: int):
    """An argparse type: an integer no less than ``lo``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be at least {lo}, got {value}")
        return value

    parse.__name__ = "int"   # argparse names the type in its errors
    return parse


def _parse_grid(spec: str, box: np.ndarray):
    """Grid spec: 'AxB[xC...]' node counts, 'h:0.25' spacing, or
    'random:N[:seed=S]' uniform points (seed 0 by default), so the spec alone
    names the grid.  A malformed spec is a UsageError."""
    spec = spec.strip()
    pts = None
    try:
        if spec.startswith("random:"):
            parts = spec.split(":")
            count = int(parts[1])
            seed = 0
            for extra in parts[2:]:
                k, _, v = extra.partition("=")
                if k != "seed":
                    raise ValueError(f"unknown random-grid option {extra!r}")
                seed = int(v)
            n = box.shape[0]
            if count < n + 1:
                raise ValueError(f"need at least {n + 1} nodes in dimension {n}")
            rng = np.random.default_rng(seed)
            pts = rng.uniform(box[:, 0], box[:, 1], size=(count, n))
        elif spec.startswith("h:"):
            h = float(spec[2:])
            if not h > 0.0:
                raise ValueError("spacing must be positive")
            counts = [int(round((hi - lo) / h)) + 1 for lo, hi in box.tolist()]
        else:
            counts = [int(tok) for tok in spec.lower().split("x")]
            if len(counts) != box.shape[0]:
                raise ValueError(
                    f"{len(counts)} axes, problem has {box.shape[0]}"
                )
        if pts is None and min(counts) < 2:
            raise ValueError("need at least 2 nodes per axis")
    except (ValueError, OverflowError) as exc:  # h:1e-320 makes an infinite count
        raise UsageError(f"bad grid spec {spec!r}: {exc}") from None
    if pts is not None:
        return build_delaunay(pts)
    return kuhn_tessellation(box, counts)


def _run_problem(problem, args):
    """Build the tessellation/mesh and analyze; returns (complex, meta)."""
    if isinstance(problem, ConstrainedProblem):
        if args.manifold_mesh:
            mesh = load_mesh(args.manifold_mesh)
            meta = f"mesh:{args.manifold_mesh}"
        else:
            mesh = icosphere(args.subdiv)
            meta = f"icosphere:{args.subdiv}"
        cx = analyze_constrained(problem, mesh)
        return cx, meta
    tess = _parse_grid(args.grid, problem.domain_box)
    cx = analyze(problem, tess, order=args.order)
    return cx, args.grid


def _print_summary(cx, meta) -> None:
    counts = cx.strata_counts()
    cusps = len(cx.markers_of_kind(MARKER_CUSP))
    bounds = len(cx.markers_of_kind(MARKER_BOUNDARY))
    print(f"grid            {meta}")
    print(f"vertices        {cx.num_vertices}")
    print(f"singular-only   {counts.get(STRATUM_SINGULAR, 0)}")
    print(f"critical        {counts.get(STRATUM_UNSTABLE, 0)}")
    print(f"stable          {counts.get(STRATUM_STABLE, 0)}")
    print(f"markers         {bounds} criticality boundaries, {cusps} cusps")
    print(f"components      {len(cx.components())}")


def cmd_run(args) -> int:
    problem = registry_get(args.problem)
    cx, meta = _run_problem(problem, args)
    prov = {"problem": args.problem, "grid": meta, "iterations": 0}
    if args.out:
        save_complex(args.out, cx, prov)
        print(f"wrote {args.out}")
    _print_summary(cx, meta)
    return 0


def cmd_iterate(args) -> int:
    problem = registry_get(args.problem)
    if isinstance(problem, ConstrainedProblem):
        raise UsageError("iterate supports unconstrained problems only")
    if args.scheme == "polyline" and problem.m != 2:
        raise UsageError(f"polyline resampling applies to two-objective output; "
                         f"{args.problem} has {problem.m} objectives")
    reference = load_complex(args.reference) if args.reference else None
    if reference is not None and reference.n != problem.n:
        raise UsageError(f"the reference complex has ambient dimension {reference.n}; "
                         f"{args.problem} has {problem.n}")
    tess = _parse_grid(args.grid, problem.domain_box)
    state = initial_state(problem, tess, order=args.order)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    save_complex(
        outdir / "complex_iter_00.json",
        state.complex,
        {"problem": args.problem, "grid": args.grid, "iterations": 0},
    )
    for k in range(args.iterations):
        state = iterate(
            state,
            scheme=args.scheme,
            budget=args.budget,
            reference=reference,
        )
        stats = state.history[-1]
        save_complex(
            outdir / f"complex_iter_{stats.iteration:02d}.json",
            state.complex,
            {"problem": args.problem, "grid": args.grid, "iterations": stats.iteration},
        )
        print(
            f"iteration {stats.iteration}: nodes={stats.nodes} "
            f"max_minor={stats.max_minor!r} mean_minor={stats.mean_minor!r}"
        )
    with open(outdir / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "nodes", "max_minor", "mean_minor", "hausdorff_to_ref"])
        for s in state.history:
            writer.writerow(
                [
                    s.iteration,
                    s.nodes,
                    repr(s.max_minor),
                    repr(s.mean_minor),
                    "" if s.hausdorff_to_ref is None else repr(s.hausdorff_to_ref),
                ]
            )
    print(f"wrote {outdir / 'history.csv'}")
    return 0


def cmd_distance(args) -> int:
    a = load_complex(args.file_a)
    b = load_complex(args.file_b)
    report = hausdorff(a, b, density=args.density)
    print(str(report))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(dataclasses.asdict(report), fh, indent=1)
            fh.write("\n")
    return 0


def cmd_plot_data(args) -> int:
    cx = load_complex(args.file)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    strata = [STRATUM_STABLE] if args.stable_only else list(cx.strata_counts())
    if cx.is_empty():
        print("warning: empty complex, writing headers only", file=sys.stderr)
    header = (
        ["component_id", "vertex_index"]
        + [f"x{i}" for i in range(cx.n)]
        + [f"u{j}" for j in range(cx.m)]
        + ["stratum"]
    )
    for stratum in sorted(set(strata)):
        path = outdir / f"plot_{stratum}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for comp_id, rows in enumerate(_component_rows(cx, stratum)):
                for vertex_index, vid in enumerate(rows):
                    writer.writerow(
                        [comp_id, vertex_index]
                        + [repr(float(v)) for v in cx.positions[vid]]
                        + [repr(float(v)) for v in cx.u_values[vid]]
                        + [stratum]
                    )
        print(f"wrote {path}")
    mpath = outdir / "markers.csv"
    with open(mpath, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i}" for i in range(cx.n)] + [f"u{j}" for j in range(cx.m)] + ["kind"])
        for vid, kind in cx.markers:
            writer.writerow(
                [repr(float(v)) for v in cx.positions[vid]]
                + [repr(float(v)) for v in cx.u_values[vid]]
                + [kind]
            )
    print(f"wrote {mpath}")
    return 0


def _component_rows(cx, stratum) -> list:
    """Vertex rows of each component of one stratum, in one pass over it.

    Triangles are listed vertex by vertex.  Segments are walked chain by
    chain (:func:`~paretoc.refinement.segment_chains`), and a chain that
    branches off the rows written so far follows a retrace back to its
    junction, so consecutive rows always draw a segment of the component.
    """
    comps = cx.components(strata=[stratum])
    comp_of = {v: c for c, comp in enumerate(comps) for v in comp}
    simplices = cx.simplices[cx.simplex_ids([stratum])].tolist()
    if cx.simplices.shape[1] != 2:
        out: list = [[] for _ in comps]
        for s in simplices:
            out[comp_of[s[0]]].extend(s)
        return out
    chains: list = [[] for _ in comps]
    for chain in segment_chains(simplices):
        chains[comp_of[chain[0]]].append(chain)
    return [_retraced_walk(cs) for cs in chains]


def _retraced_walk(chains: list) -> list:
    """One walk through the chains of a connected component: each next chain
    is the first that meets the walk, entered at its first vertex on it."""
    rows = list(chains[0])
    seen = set(rows)
    rest = chains[1:]
    while rest:
        chain = rest.pop(next(i for i, c in enumerate(rest) if not seen.isdisjoint(c)))
        j = next(k for k, v in enumerate(chain) if v in seen)
        back = len(rows) - 1 - rows[::-1].index(chain[j])
        rows += rows[back:-1][::-1]  # retrace to the junction chain[j]
        rows += chain[:j][::-1] + chain[1:]
        seen.update(chain)
    return rows


def cmd_list_problems(args) -> int:
    for name in registry_names():
        p = registry_get(name)
        base = p.base if isinstance(p, ConstrainedProblem) else p
        kind = "constrained" if isinstance(p, ConstrainedProblem) else "unconstrained"
        print(f"{name:20s} n={base.n} m={base.m} {kind:14s} {base.description}")
    return 0


def cmd_check_derivatives(args) -> int:
    problem = registry_get(args.problem)
    base = problem.base if isinstance(problem, ConstrainedProblem) else problem
    samples = sample_domain(base, args.samples, seed=args.seed)
    if isinstance(problem, ConstrainedProblem):
        samples = samples / np.linalg.norm(samples, axis=1, keepdims=True)
    report = check_derivatives(problem, samples)
    print(
        f"{args.problem}: jacobian {report.max_jacobian_error:.3e} "
        f"hessians {report.max_hessian_error:.3e} "
        f"constraint {report.max_constraint_error:.3e} "
        f"-> {'PASS' if report.passed else 'FAIL'}"
    )
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="paretoc",
        description="Piecewise-linear approximation of singular, critical and "
        "stable Pareto critical sets by simplicial continuation.",
    )
    ap.add_argument("--log-level", choices=("debug", "info", "warning", "error"),
                    default="warning", help="lowest level of log records shown on stderr")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--problem", required=True, help="registered problem name")
        p.add_argument("--grid", default="40x40",
                       help="'AxB[xC..]' node counts, 'h:SPACING', or 'random:N[:seed=S]'")
        p.add_argument("--order", type=int, choices=(1, 2), default=2,
                       help="1: critical set only; 2: stability clip too")

    rp = sub.add_parser("run", help="analyze one tessellation and write a complex file")
    common(rp)
    rp.add_argument("--subdiv", type=_int_at_least(0), default=1,
                    help="icosphere subdivisions for constrained problems")
    rp.add_argument("--manifold-mesh", default=None,
                    help="manifold mesh JSON for constrained problems")
    rp.add_argument("--out", default=None, help="output complex JSON path")
    rp.set_defaults(func=cmd_run)

    ip = sub.add_parser("iterate", help="refinement iterations with per-step output")
    common(ip)
    ip.add_argument("--scheme", choices=("polyline", "maximin"), default="polyline")
    ip.add_argument("--iterations", type=_int_at_least(0), default=4)
    ip.add_argument("--budget", type=_int_at_least(1), default=None,
                    help="keep only the top-B candidates ranked by minor magnitude")
    ip.add_argument("--reference", default=None,
                    help="complex file for the hausdorff_to_ref history column")
    ip.add_argument("--out-dir", required=True)
    ip.set_defaults(func=cmd_iterate)

    dp = sub.add_parser("distance", help="Hausdorff distance between two complex files")
    dp.add_argument("file_a")
    dp.add_argument("file_b")
    dp.add_argument("--density", type=_int_at_least(1), default=20)
    dp.add_argument("--json", default=None, help="also write a JSON report")
    dp.set_defaults(func=cmd_distance)

    pp = sub.add_parser("plot-data", help="emit plot-ready CSV polylines")
    pp.add_argument("--file", required=True)
    pp.add_argument("--out-dir", required=True)
    pp.add_argument("--stable-only", action="store_true")
    pp.set_defaults(func=cmd_plot_data)

    lp = sub.add_parser("list-problems", help="print the problem registry")
    lp.set_defaults(func=cmd_list_problems)

    cp = sub.add_parser("check-derivatives", help="finite-difference derivative audit")
    cp.add_argument("--problem", required=True)
    cp.add_argument("--samples", type=_int_at_least(1), default=20)
    cp.add_argument("--seed", type=int, default=0)
    cp.set_defaults(func=cmd_check_derivatives)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    logging.basicConfig(stream=sys.stderr, level=args.log_level.upper())
    try:
        return args.func(args)
    except (UsageError, UnknownProblem, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParetocError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
