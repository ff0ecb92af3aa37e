"""Command-line front end.

One executable, verb subcommands, stable exit codes:

  0  success / certificate valid
  1  certificate violation (one machine-parseable witness line on stdout)
  2  malformed input or flags (message on stderr, nothing written)
  3  solver budget exhausted (best interval printed)
  4  internal error: an unexpected exception, a bug rather than a bad
     input (one "error: internal: ..." line on stderr)

Outputs are byte-identical across runs: no timestamps, no machine info,
no randomness.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Optional

from .bounds import bounds_report
from .construct import (
    InvalidCoverError,
    bipartite_orientation_cover,
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    cover_via_coloring,
    elbow_cover_complete,
    elbow_double,
    k16_table_cover,
    orientation_cover_from_elbow,
    orientation_cover_from_eq_cover,
    out_star_eq_cover,
)
from .covers import (
    CoverFormatError,
    EquivalenceCover,
    EyebrowCover,
    OrientationCover,
    parse_cover,
    parse_coloring,
    write_cover_for,
    write_coloring,
    write_equivalence_cover,
)
from .exact import Budget, exact_chromatic, greedy_coloring, solve_invariant
from .graphs import Graph, generate_family, read_graph_file, write_graph_file
from .linegraph import line_graph
from .verify import VERIFIERS

# GraphFormatError, CoverFormatError, ShapeError, ImproperColoringError and
# NotBipartiteError all subclass ValueError
_USAGE_ERRORS = (ValueError, OSError)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _read_cover(path: str, g: Graph, kind: str):
    """The file's cover, of the class ``kind``'s verifier reads: so an
    orientation file serves as an elbow cover."""
    with open(path, "r", encoding="utf-8") as fh:
        cover = parse_cover(fh.read(), g)
    if not isinstance(cover, VERIFIERS[kind][0]):
        raise CoverFormatError(f"cover file holds an {cover.kind} cover, not an {kind} cover")
    return cover


def _cmd_verify(args) -> int:
    g = read_graph_file(args.graph)
    kind = args.kind
    cover = _read_cover(args.cover, g, kind)
    violation = VERIFIERS[kind][1](g, cover)
    if violation is None:
        if args.json:
            _emit_json({"status": "valid", "kind": kind, "k": cover.k})
        else:
            print(f"VALID k={cover.k}")
        return 0
    if args.json:
        _emit_json({"status": "violation", "kind": kind, "witness": violation.line()})
    else:
        print(violation.line())
    return 1


def _default_witness_path(graph_path: str, invariant: str) -> str:
    stem = os.path.splitext(graph_path)[0]
    ext = "col" if invariant == "chi" else "cov"
    return f"{stem}.{invariant}.{ext}"


def _cmd_solve(args) -> int:
    g = read_graph_file(args.graph)
    budget = Budget(args.max_nodes, args.max_seconds)
    result = solve_invariant(g, args.invariant, budget)
    witness_path: Optional[str] = None
    if result.status == "exact" and result.witness is not None:
        witness_path = args.output or _default_witness_path(args.graph, args.invariant)
        if args.invariant == "chi":
            _write_text(witness_path, write_coloring(result.witness))
        else:
            _write_text(witness_path, write_cover_for(g, result.witness))
    if args.json:
        _emit_json(
            {
                "invariant": args.invariant,
                "status": result.status,
                "value": result.value,
                "lo": result.lo,
                "hi": result.hi,
                "witness": witness_path,
                "nodes": result.nodes,
            }
        )
    elif result.status == "exact":
        print(f"{args.invariant} = {result.value}")
    else:
        hi = "?" if result.hi is None else str(result.hi)
        print(f"{args.invariant} in [{result.lo}, {hi}]")
    return 0 if result.status == "exact" else 3


# The kind of cover each op reads (None: none), the flags it requires, then the optional
# ones it reads; every op reads --output and --json, and any other flag given is refused.
_CONSTRUCT_FLAGS = {
    "k16-table": (None, (), ("perms_output",)),
    "elbow-complete": (None, ("n",), ()),
    "elbow-double": ("elbow", ("graph", "cover"), ("graph_output",)),
    "bipartite": (None, ("graph",), ()),
    "via-coloring": (None, ("graph",), ("coloring", "greedy", "max_nodes", "max_seconds")),
    "eq-from-orientation": ("orientation", ("graph", "cover"), ()),
    "orientation-from-eq": ("equivalence", ("graph", "cover"), ()),
    "orientation-from-elbow": ("elbow", ("graph", "cover"), ()),
    "coloring-from-elbow": ("elbow", ("graph", "cover"), ()),
    "coloring-from-orientation": ("orientation", ("graph", "cover"), ()),
}
_CONSTRUCT_OP_FLAGS = sorted({f for _, req, opt in _CONSTRUCT_FLAGS.values() for f in req + opt})


def _cmd_construct(args) -> int:
    op = args.op
    cover_kind, needs, reads = _CONSTRUCT_FLAGS[op]
    given = ""
    if op == "via-coloring" and (args.coloring is not None or args.greedy):
        # a coloring file is read in place of --greedy, and neither searches
        reads = ("coloring",) if args.coloring is not None else ("greedy",)
        given = f" with --{reads[0]}"
    for flag in needs:
        if getattr(args, flag) is None:
            raise ValueError(f"construct --op {op} requires --{flag}")
    for flag in _CONSTRUCT_OP_FLAGS:
        if flag not in needs + reads and getattr(args, flag) is not None:
            raise ValueError(
                f"construct --op {op}{given} does not read --{flag.replace('_', '-')}"
            )
    if "graph" in needs:
        g = read_graph_file(args.graph)
    if op in ("eq-from-orientation", "orientation-from-eq"):
        lm = line_graph(g)
    if cover_kind is not None:  # orientation-from-eq reads a cover of L(G)
        base = _read_cover(args.cover, lm.line if op == "orientation-from-eq" else g, cover_kind)
    wrote = []

    def emit_cover(ref_graph: Graph, cover, path: str = args.output) -> None:
        violation = VERIFIERS[cover.kind][1](ref_graph, cover)
        if violation is not None:  # construction bug; never expected
            raise AssertionError(f"constructed cover failed verification: {violation.line()}")
        _write_text(path, write_cover_for(ref_graph, cover))
        wrote.append(path)

    if op == "k16-table":
        rankings, cover = k16_table_cover()
        g16 = generate_family("complete", 16)
        emit_cover(g16, cover)
        if args.perms_output:
            emit_cover(g16, EyebrowCover(16, rankings), args.perms_output)
    elif op == "elbow-complete":
        cover = elbow_cover_complete(args.n)
        emit_cover(generate_family("complete", args.n), cover)
    elif op == "elbow-double":
        cover = elbow_double(g, base)
        big = generate_family("complete", g.n * g.n)
        emit_cover(big, cover)
        if args.graph_output:
            write_graph_file(args.graph_output, big)
            wrote.append(args.graph_output)
    elif op == "bipartite":
        emit_cover(g, bipartite_orientation_cover(g))
    elif op == "via-coloring":
        if args.coloring is not None:
            with open(args.coloring, "r", encoding="utf-8") as fh:
                coloring = parse_coloring(fh.read(), g.n)
        elif args.greedy:
            coloring = greedy_coloring(g)
        else:
            chi = exact_chromatic(g, Budget(args.max_nodes, args.max_seconds))
            if chi.status != "exact":
                raise ValueError(
                    "chromatic search ran out of budget; pass --greedy or --coloring"
                )
            coloring = chi.witness
        emit_cover(g, cover_via_coloring(g, coloring))
    elif op == "eq-from-orientation":
        emit_cover(lm.line, out_star_eq_cover(g, base))
    elif op == "orientation-from-eq":
        emit_cover(g, orientation_cover_from_eq_cover(lm, base))
    elif op == "orientation-from-elbow":
        emit_cover(g, orientation_cover_from_elbow(g, base))
    else:  # coloring-from-elbow or coloring-from-orientation
        extract = (
            coloring_from_elbow_cover if cover_kind == "elbow" else coloring_from_orientation_cover
        )
        _write_text(args.output, write_coloring(extract(g, base)))
        wrote.append(args.output)

    if args.json:
        _emit_json({"op": op, "wrote": wrote})
    else:
        for path in wrote:
            print(f"WROTE {path}")
    return 0


def _cmd_bounds(args) -> int:
    g = read_graph_file(args.graph)
    budget = Budget(args.max_nodes, args.max_seconds)
    report = bounds_report(g, budget)
    witness_files = {}
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
        for key in sorted(report.witnesses):
            w = report.witnesses[key]
            if isinstance(w, OrientationCover):
                suffix, text = "cov", write_cover_for(g, w)
            elif isinstance(w, EquivalenceCover):
                # a cover of L(G), whose n is g.m and whose m counts the
                # pairs of edges at each vertex; L(G) itself is not built
                line_m = sum(d * (d - 1) // 2 for d in g.degrees())
                suffix, text = "cov", write_equivalence_cover(g.m, line_m, w)
            else:
                suffix, text = "col", write_coloring(w)
            path = os.path.join(args.witness_dir, f"{key}.{suffix}")
            _write_text(path, text)
            witness_files[key] = path
    if args.json:
        payload = report.to_dict()
        payload["witness_files"] = witness_files
        _emit_json(payload)
    else:
        for line in report.lines():
            print(line)
        for key in sorted(witness_files):
            print(f"{key}_witness_file: {witness_files[key]}")
    return 0


def _cmd_linegraph(args) -> int:
    g = read_graph_file(args.graph)
    lm = line_graph(g)
    write_graph_file(args.output, lm.line)
    index_lines = [
        f"{i} {u} {v}" for i, (u, v) in enumerate(g.edges)
    ]
    _write_text(args.output + ".index", "\n".join(index_lines) + ("\n" if index_lines else ""))
    if args.json:
        _emit_json(
            {
                "wrote": [args.output, args.output + ".index"],
                "line_n": lm.line.n,
                "line_m": lm.line.m,
            }
        )
    return 0


def _cmd_gen(args) -> int:
    g = generate_family(args.family, args.parameter)
    write_graph_file(args.output, g)
    if args.json:
        _emit_json({"wrote": [args.output], "n": g.n, "m": g.m})
    return 0


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="eqcover",
        description="verify, solve, and construct graph covering certificates",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    # every verb reads --json; solve, construct and bounds also take a budget
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true")
    budget_flags = argparse.ArgumentParser(add_help=False, parents=[json_flag])
    budget_flags.add_argument("--max-nodes", type=int)
    budget_flags.add_argument("--max-seconds", type=float)

    def verb(name: str, func, shared: argparse.ArgumentParser, help: str):
        p = sub.add_parser(name, parents=[shared], help=help)
        p.set_defaults(func=func)
        return p

    p = verb("verify", _cmd_verify, json_flag, "check a cover file against a graph file")
    p.add_argument("--kind", required=True, choices=list(VERIFIERS))
    p.add_argument("--graph", required=True)
    p.add_argument("--cover", required=True)

    p = verb("solve", _cmd_solve, budget_flags, "compute an invariant exactly")
    p.add_argument("--invariant", required=True, choices=["sigma", "elb", "eq", "eye", "chi"])
    p.add_argument("--graph", required=True)
    p.add_argument("--output", help="witness path (default: derived from the graph path)")

    p = verb(
        "construct", _cmd_construct, budget_flags, "emit a certificate from a constructive proof"
    )
    p.add_argument("--op", required=True, choices=list(_CONSTRUCT_FLAGS))
    p.add_argument("--graph")
    p.add_argument("--cover")
    p.add_argument("--coloring")
    p.add_argument("--greedy", action="store_true", default=None)  # None: not given
    p.add_argument("--n", type=int)
    p.add_argument("--output", required=True)
    p.add_argument("--perms-output")
    p.add_argument("--graph-output")

    p = verb("bounds", _cmd_bounds, budget_flags, "interval report for chi, sigma, elb, eq(L)")
    p.add_argument("--graph", required=True)
    p.add_argument("--witness-dir")

    p = verb("linegraph", _cmd_linegraph, json_flag, "write the line graph and its edge index")
    p.add_argument("--graph", required=True)
    p.add_argument("--output", required=True)

    p = verb("gen", _cmd_gen, json_flag, "write a named family graph")
    p.add_argument("--family", required=True)
    p.add_argument("--parameter", type=int)
    p.add_argument("--output", required=True)

    return parser


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvalidCoverError as exc:
        print(exc.violation.line())
        return 1
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, never a verdict on the input
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
