"""Command-line front end.

Commands: compute, check, generate, sweep, oracle-diff.  Exit codes:
0 success (and every relation holds), 2 unreadable/invalid input or bad
parameters, 3 precondition failure (disconnected graph, degree-1 vertex
without the override, size caps), 4 relation violation or oracle mismatch.
Output is deterministic for a fixed command line and seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import oracle
from .centralities import CentralityReport, compute_report
from .graphs import (FamilyParameterError, Graph, GraphFormatError, generate,
                     load_graph, parse_family, to_edge_list_text, to_json_graph)
from .neighborhood import profiles
from .paths import DisconnectedGraphError, all_pairs
from .relations import PreconditionError, check_all, sweep_windmill
from .serialize import fmt_sig12, rational_json, rational_str

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4


def _graph_from_args(args) -> tuple[Graph, str]:
    if bool(args.input) == bool(args.family):
        raise GraphFormatError("exactly one of --input and --family is required")
    if args.input:
        return load_graph(args.input), args.input
    spec = parse_family(args.family, args.params or "", seed=args.seed)
    return generate(spec, allow_pendant=args.allow_pendant), spec.name()


def _graph_header(g: Graph, source: str) -> dict:
    return {"source": source, "n": g.n, "m": g.m}


def _value_text(x, exact: bool) -> str:
    if x is None:
        return "undefined"
    if exact:
        return f"{rational_str(x)} ({float(x):.6g})"
    return fmt_sig12(x)


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _report_json(g: Graph, source: str, rep: CentralityReport, exact: bool) -> dict:
    vertices = []
    for i in range(g.n):
        vertices.append({
            "vertex": i,
            "label": g.label_of(i),
            "degree": rep.degree[i],
            "local_clustering": rational_json(rep.local_clustering[i], exact),
            "betweenness": rational_json(rep.betweenness[i], exact),
            "stress": rep.stress[i],
            "closeness": rational_json(rep.closeness[i], exact),
            "radiality": rational_json(rep.radiality[i], exact),
        })
    graph_level = {
        "density": rational_json(rep.density, exact),
        "diameter": rep.diameter,
        "avg_path_length": rational_json(rep.avg_path_length, exact),
        "global_efficiency": rational_json(rep.global_efficiency, exact),
        "avg_clustering": rational_json(rep.avg_clustering, exact),
        "global_clustering": rational_json(rep.global_clustering, exact),
        "local_efficiency": rational_json(rep.local_efficiency, exact),
    }
    return {"graph": _graph_header(g, source), "vertices": vertices,
            "graph_level": graph_level}


def _report_csv(g: Graph, rep: CentralityReport) -> str:
    lines = ["scope,metric,value"]
    glevel = [("density", rep.density), ("diameter", rep.diameter),
              ("avg_path_length", rep.avg_path_length),
              ("global_efficiency", rep.global_efficiency),
              ("avg_clustering", rep.avg_clustering),
              ("global_clustering", rep.global_clustering),
              ("local_efficiency", rep.local_efficiency)]
    for name, val in glevel:
        lines.append(f"graph,{name}," + ("" if val is None else fmt_sig12(val)))
    for i in range(g.n):
        lines.append(f"vertex:{i},degree,{rep.degree[i]}")
        lines.append(f"vertex:{i},local_clustering,{fmt_sig12(rep.local_clustering[i])}")
        lines.append(f"vertex:{i},betweenness,{fmt_sig12(rep.betweenness[i])}")
        lines.append(f"vertex:{i},stress,{rep.stress[i]}")
        lines.append(f"vertex:{i},closeness,{fmt_sig12(rep.closeness[i])}")
        lines.append(f"vertex:{i},radiality,{fmt_sig12(rep.radiality[i])}")
    return "\n".join(lines) + "\n"


def _report_human(g: Graph, source: str, rep: CentralityReport, exact: bool) -> str:
    out = [f"graph {source}: n={g.n} m={g.m}", "", "graph-level:"]
    for name in CentralityReport.FIELDS_GRAPH:
        out.append(f"  {name:<18} {_value_text(getattr(rep, name), exact)}")
    out.append("")
    out.append("per-vertex:")
    header = f"  {'v':>4} {'deg':>4} {'clustering':>12} {'betweenness':>12} " \
             f"{'stress':>7} {'closeness':>12} {'radiality':>12}"
    out.append(header)
    for i in range(g.n):
        out.append(f"  {i:>4} {rep.degree[i]:>4} "
                   f"{rational_str(rep.local_clustering[i]):>12} "
                   f"{rational_str(rep.betweenness[i]):>12} "
                   f"{rep.stress[i]:>7} "
                   f"{rational_str(rep.closeness[i]):>12} "
                   f"{rational_str(rep.radiality[i]):>12}")
    return "\n".join(out) + "\n"


def cmd_compute(args) -> int:
    g, source = _graph_from_args(args)
    rep = compute_report(g)
    exact = not args.float_values
    if args.format == "json":
        print(json.dumps(_report_json(g, source, rep, exact), indent=2))
    elif args.format == "csv":
        sys.stdout.write(_report_csv(g, rep))
    else:
        sys.stdout.write(_report_human(g, source, rep, exact))
    return EXIT_OK


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    g, source = _graph_from_args(args)
    reports = check_all(g, allow_pendant=args.allow_pendant)
    all_hold = all(r.holds for r in reports)
    exact = not args.float_values
    if args.format == "json":
        payload = {
            "graph": _graph_header(g, source),
            "all_hold": all_hold,
            "relations": [r.to_json_dict(exact) for r in reports],
        }
        print(json.dumps(payload, indent=2))
    elif args.format == "csv":
        lines = ["relation,direction,lhs,rhs,holds,slack,"
                 "equality_expected,equality_observed,hypothesis_met"]
        for r in reports:
            lines.append(",".join([
                r.relation, r.direction, fmt_sig12(r.lhs), fmt_sig12(r.rhs),
                str(r.holds).lower(), fmt_sig12(r.slack),
                str(r.equality_expected).lower(),
                str(r.equality_observed).lower(),
                str(r.hypothesis_met).lower()]))
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        print(f"graph {source}: n={g.n} m={g.m}")
        for r in reports:
            status = "holds" if r.holds else "VIOLATED"
            eq = " [equality]" if r.equality_observed else ""
            print(f"  {r.relation:<13} {r.direction:<4} {status:<8} "
                  f"lhs={rational_str(r.lhs)} rhs={rational_str(r.rhs)} "
                  f"slack={rational_str(r.slack)}{eq}")
            for note in r.notes:
                print(f"      note: {note}")
        print("all relations hold" if all_hold else "RELATION VIOLATION")
    return EXIT_OK if all_hold else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    if not args.family:
        raise GraphFormatError("generate requires --family")
    spec = parse_family(args.family, args.params or "", seed=args.seed)
    g = generate(spec, allow_pendant=args.allow_pendant)
    text = to_json_graph(g) + "\n" if args.format == "json" else to_edge_list_text(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {spec.name()}: n={g.n} m={g.m} -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_sweep_params(args) -> tuple[int, int, int]:
    if args.family not in (None, "windmill"):
        raise FamilyParameterError("sweep supports only the windmill family")
    try:
        toks = [int(t) for t in (args.params or "").split(",") if t.strip() != ""]
    except ValueError as exc:
        raise FamilyParameterError(f"bad sweep parameters: {exc}") from exc
    if len(toks) == 1:
        k, lo, hi = toks[0], 2, 50
    elif len(toks) == 2:
        k, lo, hi = toks[0], 2, toks[1]
    elif len(toks) == 3:
        k, lo, hi = toks
    else:
        raise FamilyParameterError(
            "sweep --params takes k[,eta_max] or k,eta_min,eta_max")
    if k < 3 or lo < 1 or hi < lo:
        raise FamilyParameterError(
            f"sweep needs k >= 3 and a valid eta range, got k={k}, "
            f"eta={lo}..{hi}")
    return k, lo, hi


def cmd_sweep(args) -> int:
    k, lo, hi = _parse_sweep_params(args)
    if lo < 2:
        print(f"warning: windmill(1,{k}) is a single clique; the eta=1 row "
              "is excluded from the trend summary", file=sys.stderr)
    result = sweep_windmill(hi, k, eta_min=lo)
    if args.format == "json":
        payload = {
            "k": k,
            "rows": [{"eta": eta,
                      "avg_clustering": rational_json(a, not args.float_values),
                      "global_clustering": rational_json(c, not args.float_values),
                      "difference": rational_json(a - c, not args.float_values)}
                     for eta, a, c in result.rows],
            "avg_strictly_increasing": result.avg_strictly_increasing,
            "glob_strictly_decreasing": result.glob_strictly_decreasing,
        }
        print(json.dumps(payload, indent=2))
    else:
        lines = ["eta,avg_clustering,global_clustering,difference"]
        for eta, a, c in result.rows:
            lines.append(f"{eta},{fmt_sig12(a)},{fmt_sig12(c)},{fmt_sig12(a - c)}")
        trend = (f"# trend: avg_clustering strictly increasing: "
                 f"{str(result.avg_strictly_increasing).lower()}; "
                 f"global_clustering strictly decreasing: "
                 f"{str(result.glob_strictly_decreasing).lower()}")
        lines.append(trend)
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-diff
# ---------------------------------------------------------------------------

def cmd_oracle_diff(args) -> int:
    g, source = _graph_from_args(args)
    dd = all_pairs(g)
    fast = compute_report(g, dd)
    slow = oracle.oracle_measures(g, cap=args.cap)
    mismatches = []
    for name in CentralityReport.FIELDS_PER_VERTEX:
        a, b = getattr(fast, name), getattr(slow, name)
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                mismatches.append(f"{name}[{i}]: fast={x} oracle={y}")
    for name in CentralityReport.FIELDS_GRAPH:
        x, y = getattr(fast, name), getattr(slow, name)
        if x != y:
            mismatches.append(f"{name}: fast={x} oracle={y}")
    fast_profiles = profiles(g, dd)
    slow_profiles = oracle.oracle_neighborhood_profiles(g, cap=args.cap)
    for fp, sp in zip(fast_profiles, slow_profiles):
        for fieldname in fp.FIELDS:
            x, y = getattr(fp, fieldname), getattr(sp, fieldname)
            if x != y:
                mismatches.append(
                    f"neighborhood.{fieldname}[{fp.vertex}]: fast={x} oracle={y}")
    if mismatches:
        print(f"graph {source}: {len(mismatches)} mismatches")
        for line in mismatches:
            print("  " + line)
        return EXIT_VIOLATION
    print(f"graph {source}: fast and oracle reports identical "
          f"({g.n} vertices)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centrel",
        description="Exact centrality measures and clustering relation checks "
                    "for simple undirected graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--family", help="generator family name")
        p.add_argument("--params", help="comma-separated integer parameters")

    def add_source(p, with_input=True):
        if with_input:
            p.add_argument("--input", help="edge-list or .json graph file")
        add_family(p)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for the random family")
        p.add_argument("--allow-pendant", action="store_true",
                       help="permit degree-1 vertices (degree-1 conventions apply)")

    def add_format(p, choices=("json", "csv", "human"), default="human"):
        p.add_argument("--format", choices=choices, default=default)
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="float_values", action="store_false",
                           default=False, help="render exact p/q values (default)")
        group.add_argument("--float", dest="float_values", action="store_true",
                           help="render floating values only")

    p_compute = sub.add_parser("compute", help="full centrality report")
    add_source(p_compute)
    add_format(p_compute)
    p_compute.set_defaults(func=cmd_compute)

    p_check = sub.add_parser("check", help="verify every relation")
    add_source(p_check)
    add_format(p_check)
    p_check.set_defaults(func=cmd_check)

    p_gen = sub.add_parser("generate", help="emit a family graph")
    add_source(p_gen, with_input=False)
    p_gen.add_argument("--format", choices=("json", "human"), default="human",
                       help="human = edge-list text")
    p_gen.add_argument("--output", help="write to a file instead of stdout")
    p_gen.set_defaults(func=cmd_generate)

    p_sweep = sub.add_parser(
        "sweep", help="windmill clustering divergence table")
    add_family(p_sweep)
    add_format(p_sweep, choices=("json", "csv"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_diff = sub.add_parser("oracle-diff",
                            help="compare fast measures against brute force")
    add_source(p_diff)
    p_diff.add_argument("--cap", type=int, default=oracle.DEFAULT_ENUMERATION_CAP,
                        help="max vertex count for path enumeration")
    p_diff.set_defaults(func=cmd_oracle_diff)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphFormatError, FamilyParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DisconnectedGraphError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        # size caps and other guards
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
