"""report: interval reports and constructions on medium graphs.

Two kinds of job.  Bounds jobs run the interval report on sparse
planted graphs (n = 300, 600), on sparse graphs whose chromatic search
runs out of its node budget, and on a dense graph (n = 100) whose
palette above 16 makes the constructions build the K256 base; half go
through cli.main(["bounds", ...]) with a witness directory, half call
bounds_report from the library.  Pipeline jobs run one library stage
each, in order, on planted graphs up to n = 400: greedy colouring,
the two pullback covers, the two colourings extracted back from them,
the line graph, its equivalence cover, and verification of the covers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from typing import Dict, List

from eqcover import (
    Budget,
    Graph,
    bounds_report,
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    cover_via_coloring,
    elbow_cover_complete,
    elbow_cover_via_coloring,
    eq_cover_from_orientation_cover,
    generate_family,
    greedy_coloring,
    line_graph,
    parse_coloring,
    parse_cover,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)
from eqcover import cli

from gen import geometric, graph_text, loglog_plus_one, planted_graph, proper
from harness import Job, Workload

MAX_NODES = 300
MAX_SECONDS = 30.0

# (family, n, m, planted colours, planted clique)
BOUNDS_SPECS = (
    ("sparse", 300, 900, 5, 5),
    ("dense", 100, 1500, 20, 20),
    ("search", 250, 750, 4, 3),
    ("search", 350, 1050, 4, 3),
    ("sparse", 600, 1800, 16, 16),
)
PIPELINE_SIZES = geometric(100, 400, 15)
PIPELINE_COLOURS = 5
COMPLETE_SIZES = (64,)
ORACLE_MAX_N = 150


def _orientation_size(palette: int) -> int:
    """Size of the pullback orientation covering for a palette."""
    if palette <= 2:
        return 2
    if palette <= 4:
        return 3
    if palette <= 16:
        return 5
    return 2 * loglog_plus_one(palette) + 2


# ---------------------------------------------------------------------------
# bounds jobs
# ---------------------------------------------------------------------------


def _chi_window(family: str, c: int):
    """Chromatic number range known from the planted structure."""
    return (3, 4) if family == "search" else (c, c)


def _check_intervals(chi, sigma, elb, window) -> str:
    lo_chi, hi_chi = window
    if not (chi[0] <= hi_chi and chi[1] >= lo_chi and chi[0] <= chi[1]):
        return f"chi interval {chi} misses the planted range {window}"
    want_elb = {loglog_plus_one(x) for x in range(lo_chi, hi_chi + 1)}
    if not any(elb[0] <= e <= elb[1] for e in want_elb):
        return f"elb interval {elb} misses {sorted(want_elb)}"
    if hi_chi <= 4 and not sigma[0] <= 3 <= sigma[1]:
        return f"sigma interval {sigma} misses 3 (window 3 <= chi <= 4)"
    if 5 <= lo_chi and hi_chi <= 12 and not sigma[0] <= 4 <= sigma[1]:
        return f"sigma interval {sigma} misses 4 (window 5 <= chi <= 12)"
    if lo_chi > 12 and not 5 <= sigma[0] <= sigma[1]:
        return f"sigma interval {sigma} should start at 5 or more (chi > 12)"
    return ""


def _check_witnesses(g: Graph, witnesses: Dict[str, object], chi_hi: int) -> str:
    colours = witnesses["chi"].colors
    if not proper(g, colours) or len(set(colours)) != chi_hi:
        return "chi witness is not a proper colouring with chi_hi colours"
    if verify_orientation_cover(g, witnesses["sigma"]) is not None:
        return "sigma witness rejected by the verifier"
    if verify_elbow_cover(g, witnesses["elb"]) is not None:
        return "elb witness rejected by the verifier"
    lm = line_graph(g)
    if verify_equivalence_cover(lm.line, witnesses["eq_line_graph"]) is not None:
        return "eq_line_graph witness rejected by the verifier"
    return ""


def _bounds_job(job_id: str, via_cli: bool, family: str, c: int, g: Graph, gpath: str, wdir: str) -> Job:
    window = _chi_window(family, c)
    first: Dict[str, str] = {}

    if via_cli:
        argv = [
            "bounds", "--graph", gpath, "--max-nodes", str(MAX_NODES),
            "--max-seconds", str(MAX_SECONDS), "--witness-dir", wdir, "--json",
        ]

        def run(tr):
            buf = io.StringIO()
            with tr.span("cli.bounds") as counts, contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
            report = json.loads(buf.getvalue()) if rc == 0 else None
            if report is not None:
                counts["nodes"] = report["search_nodes"]
            return rc, buf.getvalue(), report

        def check(out, full):
            rc, stdout, report = out
            if rc != 0:
                return f"exit code {rc}"
            files = report["witness_files"]
            digest = hashlib.sha256(stdout.encode())
            for key in sorted(files):
                with open(files[key], "rb") as fh:
                    digest.update(fh.read())
            if not full:
                return None if digest.hexdigest() == first.get("digest") else "output differs from the first pass"
            first["digest"] = digest.hexdigest()
            interval = {key: (report[key]["lo"], report[key]["hi"]) for key in ("chi", "sigma", "elb")}
            err = _check_intervals(interval["chi"], interval["sigma"], interval["elb"], window)
            if err:
                return err
            witnesses = {}
            for key in ("sigma", "elb"):
                with open(files[key], encoding="utf-8") as fh:
                    witnesses[key] = parse_cover(fh.read(), g)
            with open(files["chi"], encoding="utf-8") as fh:
                witnesses["chi"] = parse_coloring(fh.read(), g.n)
            with open(files["eq_line_graph"], encoding="utf-8") as fh:
                witnesses["eq_line_graph"] = parse_cover(fh.read(), line_graph(g).line)
            return _check_witnesses(g, witnesses, interval["chi"][1]) or None

        return Job(job_id, run, check, lambda out: out[2]["search_nodes"])

    def run(tr):
        with tr.span("bounds.bounds_report") as counts:
            report = bounds_report(g, Budget(MAX_NODES, MAX_SECONDS))
        counts["nodes"] = report.nodes
        return report

    def check(report, full):
        lines = "\n".join(report.lines())
        if not full:
            return None if lines == first.get("lines") else "report differs from the first pass"
        first["lines"] = lines
        interval = {
            key: (bv.lo, bv.hi)
            for key, bv in (("chi", report.chi), ("sigma", report.sigma), ("elb", report.elb))
        }
        err = _check_intervals(interval["chi"], interval["sigma"], interval["elb"], window)
        return err or _check_witnesses(g, report.witnesses, interval["chi"][1]) or None

    return Job(job_id, run, check, lambda report: report.nodes)


# ---------------------------------------------------------------------------
# pipeline jobs
# ---------------------------------------------------------------------------


def _pipeline_jobs(prefix: str, g: Graph, oracles) -> List[Job]:
    """One job per library stage; later stages read earlier outputs."""
    state: Dict[str, object] = {}
    small = g.n <= ORACLE_MAX_N
    pairs = sum(d * (d - 1) // 2 for d in g.degrees())

    def stage(name, fn, check):
        def run(tr):
            state[name] = None  # a failed stage must not pass on last pass's output
            state[name] = fn(tr)
            return state[name]

        return Job(f"{prefix}-{name}", run, check)

    def greedy(tr):
        with tr.span("exact.greedy_coloring"):
            return greedy_coloring(g)

    def check_greedy(col, full):
        ok = proper(g, col.colors) and col.palette_size >= PIPELINE_COLOURS
        return None if ok else "greedy colouring improper or below the planted chi"

    def cover(tr):
        with tr.span("construct.cover_via_coloring"):
            return cover_via_coloring(g, state["greedy"])

    def check_cover(c, full):
        if c.k != _orientation_size(state["greedy"].palette_size):
            return f"orientation covering of size {c.k}"
        if full and small and not oracles.orientation_cover_ok(g, [o.direction for o in c.orientations]):
            return "orientation covering rejected by the oracle"
        return None

    def elbow(tr):
        with tr.span("construct.elbow_cover_via_coloring"):
            return elbow_cover_via_coloring(g, state["greedy"])

    def check_elbow(c, full):
        if c.k != loglog_plus_one(state["greedy"].palette_size):
            return f"elbow covering of size {c.k}"
        if full and small and not oracles.elbow_cover_ok(g, [o.direction for o in c.orientations]):
            return "elbow covering rejected by the oracle"
        return None

    def from_elbow(tr):
        with tr.span("construct.coloring_from_cover"):
            return coloring_from_elbow_cover(g, state["elbow"])

    def check_from_elbow(col, full):
        k = state["elbow"].k
        ok = proper(g, col.colors) and col.palette_size <= 2 ** (2 ** (k - 1))
        return None if ok else "colouring from the elbow covering improper or too large"

    def from_orientation(tr):
        with tr.span("construct.coloring_from_cover"):
            return coloring_from_orientation_cover(g, state["cover"])

    def check_from_orientation(col, full):
        k = state["cover"].k
        ok = proper(g, col.colors) and col.palette_size <= k + 2 ** (2 ** (k - 1) - k - 1)
        return None if ok else "colouring from the orientation covering improper or too large"

    def lg(tr):
        with tr.span("linegraph.line_graph") as counts:
            lm = line_graph(g)
        counts["line_edges"] = lm.line.m
        return lm

    def check_lg(lm, full):
        if lm.line.n != g.m or lm.line.m != pairs:
            return f"line graph has shape ({lm.line.n}, {lm.line.m}), expected ({g.m}, {pairs})"
        if full and any(not set(g.edges[e]) & set(g.edges[f]) for e, f in lm.line.edges):
            return "line graph joins two disjoint edges"
        return None

    def eq(tr):
        with tr.span("construct.eq_cover_from_orientation_cover"):
            return eq_cover_from_orientation_cover(state["line_graph"], state["cover"])

    def check_eq(c, full):
        return None if c.k == state["cover"].k else f"equivalence cover of size {c.k}"

    def verify(tr):
        with tr.span("verify.orientation") as counts:
            a = verify_orientation_cover(g, state["cover"])
        counts["pairs"] = pairs
        with tr.span("verify.elbow") as counts:
            b = verify_elbow_cover(g, state["elbow"])
        counts["pairs"] = pairs
        with tr.span("verify.equivalence"):
            c = verify_equivalence_cover(state["line_graph"].line, state["eq"])
        return a, b, c

    def check_verify(out, full):
        return None if out == (None, None, None) else f"constructed cover rejected: {out}"

    return [
        stage("greedy", greedy, check_greedy),
        stage("cover", cover, check_cover),
        stage("elbow", elbow, check_elbow),
        stage("coloring_from_elbow", from_elbow, check_from_elbow),
        stage("coloring_from_orientation", from_orientation, check_from_orientation),
        stage("line_graph", lg, check_lg),
        stage("eq", eq, check_eq),
        stage("verify", verify, check_verify),
    ]


def _complete_job(n: int) -> Job:
    kn = generate_family("complete", n)

    def run(tr):
        with tr.span("construct.elbow_cover_complete"):
            cover = elbow_cover_complete(n)
        with tr.span("verify.elbow") as counts:
            violation = verify_elbow_cover(kn, cover)
        if violation is None:
            counts["pairs"] = n * (n - 1) * (n - 2) // 2
        return cover, violation

    def check(out, full):
        cover, violation = out
        if violation is not None:
            return f"elbow covering of K{n} rejected: {violation.line()}"
        return None if cover.k == loglog_plus_one(n) else f"elbow covering of K{n} has size {cover.k}"

    return Job(f"elbow_cover_complete-K{n}", run, check)


def setup(seed: int, workdir: str, oracles) -> Workload:
    rng = random.Random(seed)
    bounds_jobs = []
    text_bytes = 0
    sizes = []
    for pos, (family, n, m, c, clique) in enumerate(BOUNDS_SPECS):
        edges, _ = planted_graph(rng, n, m, c, clique=clique)
        via_cli = pos % 2 == 0
        job_id = f"bounds-{pos}-{family}-n{n}-m{m}-{'cli' if via_cli else 'lib'}"
        gpath = os.path.join(workdir, f"{job_id}.g")
        text = graph_text(n, edges)
        with open(gpath, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        text_bytes += len(text)
        sizes.append((n, m))
        wdir = os.path.join(workdir, f"{job_id}.witness")
        bounds_jobs.append(_bounds_job(job_id, via_cli, family, c, Graph(n, edges), gpath, wdir))
    complete_jobs = [_complete_job(n) for n in COMPLETE_SIZES]
    jobs: List[Job] = []
    for i, n in enumerate(PIPELINE_SIZES):
        edges, _ = planted_graph(rng, n, 3 * n, PIPELINE_COLOURS, clique=PIPELINE_COLOURS)
        sizes.append((n, len(edges)))
        jobs.extend(_pipeline_jobs(f"pipeline-{i:02d}-n{n}", Graph(n, edges), oracles))
        if i < len(bounds_jobs):
            jobs.append(bounds_jobs[i])
        if i < len(complete_jobs):
            jobs.append(complete_jobs[i])
    summary = {
        "jobs": len(jobs),
        "bounds_jobs": len(bounds_jobs),
        "n": f"{min(s[0] for s in sizes)}..{max(s[0] for s in sizes)}",
        "m": f"{min(s[1] for s in sizes)}..{max(s[1] for s in sizes)}",
        "graph_text_MB": round(text_bytes / 1e6, 2),
        "bounds_budget": f"{MAX_NODES} nodes, {MAX_SECONDS:g} s",
    }
    return Workload(jobs, jobs[:8], summary)
