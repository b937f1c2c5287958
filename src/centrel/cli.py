"""Command-line front end.

Commands: compute, check, generate, sweep, oracle-diff.  Exit codes:
0 success (and every relation holds), 2 unreadable/invalid input or bad
parameters, 3 precondition failure (disconnected graph, degree-1 vertex in
``check`` without ``--allow-pendant``, size caps), 4 relation violation or
oracle mismatch.
Output is deterministic for a fixed command line (random-min-degree-2 needs --seed).
"""

from __future__ import annotations

import argparse
import sys

from . import oracle
from .centralities import CentralityReport, compute_report
from .graphs import (FamilyParameterError, Graph, GraphFormatError,
                     PreconditionError, check_size_cap, generate, load_graph, parse_family,
                     to_edge_list_text, to_json_graph)
from .neighborhood import profiles
from .paths import all_pairs
from .relations import RelationReport, SweepRow, check_all, sweep_windmill
from .serialize import csv_table, csv_value, human_value, json_text

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_VIOLATION = 4


def _graph_from_args(args, limit=None) -> tuple[Graph, str]:
    path = getattr(args, "input", None)  # generate takes no --input
    if bool(path) == bool(args.family):
        raise GraphFormatError("exactly one of --input and --family is required"
                               if hasattr(args, "input") else "generate requires --family")
    if path:
        if args.params is not None or args.seed is not None:
            raise GraphFormatError("--params and --seed apply to --family, not --input")
        g = load_graph(path)
        if g.duplicates_collapsed:
            print(f"warning: {path}: duplicate edges collapsed", file=sys.stderr)
        return g, path
    if args.seed is None and args.family == "random-min-degree-2":
        raise FamilyParameterError("random-min-degree-2 needs --seed")
    if args.seed is not None and args.family != "random-min-degree-2":
        raise FamilyParameterError(f"--seed applies to random-min-degree-2 only, "
                                   f"not {args.family}")
    spec = parse_family(args.family, args.params or "", seed=args.seed)
    if limit is not None:  # before the build; the cap, as in generate, speaks first
        check_size_cap(spec.order())
        limit(spec.order())
    return generate(spec), spec.name()


def _graph_header(g: Graph, source: str) -> dict:
    return {"source": source, "n": g.n, "m": g.m}


def _print_lines(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    g, source = _graph_from_args(args)
    rep = compute_report(all_pairs(g))
    exact = not args.float_values
    per_vertex = [(name, getattr(rep, name))
                  for name in CentralityReport.FIELDS_PER_VERTEX]
    graph_level = [(name, getattr(rep, name)) for name in CentralityReport.FIELDS_GRAPH]
    if args.format == "json":
        vertices = [{"vertex": i, "label": g.label_of(i),
                     **{name: col[i] for name, col in per_vertex}}
                    for i in range(g.n)]
        print(json_text({"graph": _graph_header(g, source), "vertices": vertices,
                         "graph_level": dict(graph_level)}, exact))
    elif args.format == "csv":
        lines = ["scope,metric,value"]
        lines += [f"graph,{name},{csv_value(x)}" for name, x in graph_level]
        lines += [f"vertex:{i},{name},{csv_value(col[i])}"
                  for i in range(g.n) for name, col in per_vertex]
        _print_lines(lines)
    else:
        lines = [f"graph {source}: n={g.n} m={g.m}", "", "graph-level:"]
        for name, x in graph_level:
            text = human_value(x, exact)
            if exact and x is not None:
                text += f" ({float(x):.6g})"
            lines.append(f"  {name:<18} {text}")
        labels, widths = zip(("v", 4), *(CentralityReport.HUMAN_COLUMNS[name]
                                         for name, _ in per_vertex))
        table = [labels] + [(i, *(human_value(col[i], exact) for _, col in per_vertex))
                            for i in range(g.n)]
        widths = [max(width, *(len(str(row[k])) for row in table))
                  for k, width in enumerate(widths)]
        lines += ["", "per-vertex:"]
        lines += ["  " + " ".join(f"{cell:>{width}}" for cell, width in zip(row, widths))
                  for row in table]
        _print_lines(lines)
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
        print(json_text({"graph": _graph_header(g, source), "all_hold": all_hold,
                         "relations": reports}, exact))
    elif args.format == "csv":
        _print_lines(csv_table(RelationReport.CSV_FIELDS, reports))
    else:
        lines = [f"graph {source}: n={g.n} m={g.m}"]
        for r in reports:
            lhs, rhs, slack = (human_value(x, exact) for x in (r.lhs, r.rhs, r.slack))
            status = "holds" if r.holds else "VIOLATED"
            eq = " [equality]" if r.equality_observed else ""
            lines.append(f"  {r.relation:<13} {r.direction:<4} {status:<8} "
                         f"lhs={lhs} rhs={rhs} slack={slack}{eq}")
            lines += [f"      note: {note}" for note in r.notes]
        lines.append("all relations hold" if all_hold else "RELATION VIOLATION")
        _print_lines(lines)
    return EXIT_OK if all_hold else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def cmd_generate(args) -> int:
    g, source = _graph_from_args(args)
    text = to_json_graph(g) + "\n" if args.format == "json" else to_edge_list_text(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {source}: n={g.n} m={g.m} -> {args.output}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _parse_sweep_params(params: str | None) -> tuple[int, int, int]:
    try:
        toks = [int(t) for t in (params or "").split(",") if t.strip() != ""]
    except ValueError as exc:
        raise FamilyParameterError(f"bad sweep parameters: {exc}") from exc
    if not 1 <= len(toks) <= 3:
        raise FamilyParameterError("sweep --params takes k[,eta_max] or k,eta_min,eta_max")
    k, *eta = toks  # sweep_windmill checks the values
    lo, hi = {0: (2, 50), 1: (2, *eta), 2: eta}[len(eta)]
    return k, lo, hi


def cmd_sweep(args) -> int:
    if args.family not in (None, "windmill"):
        raise FamilyParameterError("sweep supports only the windmill family")
    k, lo, hi = _parse_sweep_params(args.params)
    result = sweep_windmill(hi, k, eta_min=lo)
    if lo < 2:
        print(f"warning: windmill(1,{k}) is a single clique; the eta=1 row "
              "is excluded from the trend summary", file=sys.stderr)
    if args.format == "json":
        print(json_text(result, not args.float_values))
    else:
        lines = csv_table(SweepRow.FIELDS, result.rows)
        lines.append(f"# trend: avg_clustering strictly increasing: "
                     f"{csv_value(result.avg_strictly_increasing)}; "
                     f"global_clustering strictly decreasing: "
                     f"{csv_value(result.glob_strictly_decreasing)}")
        _print_lines(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-diff
# ---------------------------------------------------------------------------

def cmd_oracle_diff(args) -> int:
    # a family is refused before it is built, a file before the fast pass
    g, source = _graph_from_args(args, oracle.check_oracle_limit)
    oracle.check_oracle_limit(g.n)
    an = all_pairs(g)  # then n < 2 and disconnected graphs get its messages
    fast = compute_report(an)
    slow = oracle.oracle_measures(g)
    compared = [(f"{name}[{i}]", x, y)
                for name in CentralityReport.FIELDS_PER_VERTEX
                for i, (x, y) in enumerate(zip(getattr(fast, name), getattr(slow, name)))]
    compared += [(name, getattr(fast, name), getattr(slow, name))
                 for name in CentralityReport.FIELDS_GRAPH]
    slow_profiles = oracle.oracle_neighborhood_profiles(g)
    compared += [(f"neighborhood.{name}[{i}]", getattr(fp, name), getattr(sp, name))
                 for i, (fp, sp) in enumerate(zip(profiles(an), slow_profiles))
                 for name in fp.FIELDS]
    mismatches = [f"{label}: fast={x} oracle={y}"
                  for label, x, y in compared if x != y]
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

# name -> (help line, handler), in the order that help and errors list them
COMMANDS = {
    "compute": ("full centrality report", cmd_compute),
    "check": ("verify every relation", cmd_check),
    "generate": ("emit a family graph", cmd_generate),
    "sweep": ("windmill clustering divergence table", cmd_sweep),
    "oracle-diff": ("compare fast measures against the counting oracle", cmd_oracle_diff),
}


def _add_options(p: argparse.ArgumentParser, command: str) -> None:
    if command in ("compute", "check", "oracle-diff"):
        p.add_argument("--input", help="edge-list or .json graph file")
    p.add_argument("--family", help="generator family name")
    p.add_argument("--params", help="comma-separated integer parameters")
    if command != "sweep":
        p.add_argument("--seed", type=int, default=None,
                       help="seed for random-min-degree-2 (refused with other families)")
    if command == "generate":
        p.add_argument("--format", choices=("json", "human"), default="human",
                       help="human = edge-list text")
        p.add_argument("--output", help="write to a file instead of stdout")
    elif command != "oracle-diff":
        sweep = command == "sweep"
        p.add_argument("--format", choices=("json", "csv") if sweep else ("json", "csv", "human"),
                       default="csv" if sweep else "human")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--exact", dest="float_values", action="store_const",
                           const=False, help="render exact p/q values (default; "
                           "not with --format csv)")
        group.add_argument("--float", dest="float_values", action="store_const",
                           const=True, help="render floating values (not with "
                           "--format csv)")
    if command == "check":
        p.add_argument("--allow-pendant", action="store_true",
                       help="permit degree-1 vertices (degree-1 conventions apply)")
    p.set_defaults(func=COMMANDS[command][1])


def build_parser() -> argparse.ArgumentParser:
    """The full tree, for when the top level speaks: every command, each
    with its options."""
    parser = argparse.ArgumentParser(
        prog="centrel",
        description="Exact centrality measures and clustering relation checks "
                    "for simple undirected graphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in COMMANDS.items():
        _add_options(sub.add_parser(name, help=help_text), name)
    return parser


def _csv_refused(args: argparse.Namespace) -> bool:
    return getattr(args, "float_values", None) is not None and args.format == "csv"


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The options of ``argv``.  When ``argv[0]`` names a command, its parser
    alone reads the rest, with the prog, help, usage and errors that
    ``add_parser`` would give it.  The full tree reads ``argv`` only when the
    top level speaks: no command comes first, arguments are left over, or
    csv is asked for with ``--exact`` or ``--float``."""
    if argv and argv[0] in COMMANDS:
        parser = argparse.ArgumentParser(prog=f"centrel {argv[0]}")
        _add_options(parser, argv[0])
        args, extras = parser.parse_known_args(argv[1:])
        if not extras and not _csv_refused(args):
            return args
    parser = build_parser()
    args = parser.parse_args(argv)
    if _csv_refused(args):
        parser.error(f"{args.command} --format csv always renders floats; "
                     "--exact and --float apply to json and human only")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except (GraphFormatError, FamilyParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
