"""solve: exact decisions on small graphs, each under one fixed budget.

Fixed instances (the same for every seed) plus seeded random graphs
with a planted chromatic number (a planted clique and a planted
colouring of the same size), asked sigma <= 3 and elb <= 2: n = 7..10
with chi = 2..4 (satisfiable), n = 6 with chi = 5 (unsatisfiable).

Expected answers come from the theorem windows of the paper where they
apply (sigma <= 3 iff 3 <= chi <= 4 off bipartite graphs; elb <= 2 iff
chi <= 4; elb(K_n) = ceil(log2 log2 n) + 1; eq(L(G)) = sigma(G) on
triangle-free graphs) and from the table below otherwise.  Every SAT
witness is checked by the package verifier and by the brute-force
definitions in tests/oracles.py.
"""

from __future__ import annotations

import random
from typing import List

from eqcover import (
    Budget,
    Graph,
    decide_elb,
    decide_eq,
    decide_eyebrow,
    decide_sigma,
    exact_chromatic,
    generate_family,
    line_graph,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
)

from gen import loglog_plus_one, planted_graph, proper
from harness import Job, Workload

MAX_NODES = 2_000_000
MAX_SECONDS = 30.0
SAT_QUERIES = 3000
UNSAT_QUERIES = 24

DECIDERS = {
    "sigma": (decide_sigma, "exact.decide_sigma"),
    "elb": (decide_elb, "exact.decide_elb"),
    "eq": (decide_eq, "exact.decide_eq"),
    "eye": (decide_eyebrow, "exact.decide_eyebrow"),
}


def _fixed(oracles) -> List[tuple]:
    """(name, invariant, graph, k, expected, source) for the fixed queries."""
    K = {n: generate_family("complete", n) for n in range(5, 10)}
    petersen = generate_family("petersen", 5)
    queries = []
    for n in (5, 6, 7):
        queries.append((f"K{n}", "sigma", K[n], 3, "unsat", f"window: chi={n} > 4"))
    for n in (5, 6, 7, 8, 9):
        sat = loglog_plus_one(n) <= 2
        queries.append((f"K{n}", "elb", K[n], 2, "sat" if sat else "unsat", "elb(K_n) formula"))
    queries.append(("K8", "elb", K[8], 3, "sat" if loglog_plus_one(8) <= 3 else "unsat", "elb(K_n) formula"))
    for name, g, k, answer in (
        ("L(K5)", K[5], 3, "unsat"),
        ("L(K5)", K[5], 4, "sat"),
        ("L(K6)", K[6], 2, "unsat"),
    ):
        queries.append((name, "eq", line_graph(g).line, k, answer, "table"))
    if not oracles.triangle_free_by_triples(petersen):
        raise ValueError("Petersen graph should be triangle-free")
    for k in (2, 3):  # triangle-free, chi = 3: eq(L) = sigma = 3
        queries.append(("L(Petersen)", "eq", line_graph(petersen).line, k, "sat" if k >= 3 else "unsat", "window: triangle-free, chi=3"))
    # eye(K6) <= 2 is left out: its proof alone took 40% of a pass
    for name, g, value, ks in (
        ("K5", K[5], 3, (2, 3)),
        ("K6", K[6], 3, (1, 3)),
        ("C5", generate_family("cycle", 5), 2, (1, 2)),
        ("C6", generate_family("cycle", 6), 2, (1, 2)),
        ("C7", generate_family("cycle", 7), 2, (1, 2)),
    ):
        for k in ks:
            queries.append((name, "eye", g, k, "sat" if k >= value else "unsat", "table"))
    queries.append(("Mycielski5", "chi", generate_family("mycielski-iterate", 5), None, 5, "paper: chi = 5"))
    return queries


def _random_specs() -> List[tuple]:
    """(invariant, n, c, m) slots; the seed draws only the edges and the
    colouring, so every seed gets the same mix of sizes and answers.

    The satisfiable queries are a sweep of many small graphs, like the
    acceptance sweep in the tests.  They outnumber the unsatisfiable
    and fixed queries more than 60 to 1, so the median and the 90th
    percentile both fall among them, and there are enough of them that
    the 90th percentile hardly depends on which seeded graphs happen to
    be hard; the hard proofs weigh on pass_s.
    """
    specs = []
    for i in range(SAT_QUERIES):  # chi = 2, 3 or 4
        c = (2, 3, 4)[(i // 2) % 3]
        n = 7 + (i // 6) % 4
        specs.append((("sigma", "elb")[i % 2], n, c, n + n // 2))
    for i in range(UNSAT_QUERIES):  # chi = 5: K5 plus a vertex of degree 2 or 3
        specs.append((("sigma", "elb")[i % 2], 6, 5, 12 + (i // 2) % 2))
    return specs


def _check_witness(oracles, invariant: str, g: Graph, k: int, w) -> str:
    """Error text, or '' when both the package verifier and the
    brute-force definition accept the witness."""
    if w.k > k:
        return f"witness has size {w.k} > {k}"
    if invariant in ("sigma", "elb"):
        verifier = verify_orientation_cover if invariant == "sigma" else verify_elbow_cover
        oracle = oracles.orientation_cover_ok if invariant == "sigma" else oracles.elbow_cover_ok
        if verifier(g, w) is not None:
            return "witness rejected by the package verifier"
        return "" if oracle(g, [o.direction for o in w.orientations]) else "witness rejected by the oracle"
    if invariant == "eye":
        if verify_eyebrow_cover(g, w) is not None:
            return "witness rejected by the package verifier"
        return "" if oracles.eyebrow_cover_ok(g, [p.values for p in w.permutations]) else "witness rejected by the oracle"
    if verify_equivalence_cover(g, w) is not None:
        return "witness rejected by the package verifier"
    covered = set()
    for classes in w.subgraphs:
        members = {v: i for i, cls in enumerate(classes) for v in cls}
        labeled = [e for e, (u, v) in enumerate(g.edges) if u in members and members[u] == members.get(v)]
        if not oracles._label_graph_is_clique_union(g, labeled):
            return "witness rejected by the oracle"
        covered.update(labeled)
    return "" if len(covered) == g.m else "witness leaves an edge uncovered"


def _job(oracles, job_id: str, invariant: str, g: Graph, k, expected, source: str) -> Job:
    if invariant == "chi":

        def run(tr):
            with tr.span("exact.exact_chromatic") as counts:
                res = exact_chromatic(g, Budget(MAX_NODES, MAX_SECONDS))
            counts.update(queries=1, answered=int(res.status == "exact"), nodes=res.nodes)
            return res

        def check(res, full):
            if res.status != "exact" or res.lo != expected:
                return f"chi status {res.status} [{res.lo}, {res.hi}], expected {expected} ({source})"
            colours = res.witness.colors
            if not proper(g, colours) or len(set(colours)) != expected:
                return "colouring witness is not a proper colouring with chi colours"
            return None

        return Job(job_id, run, check, lambda res: res.nodes)

    decide, span_name = DECIDERS[invariant]

    def run(tr):
        with tr.span(span_name) as counts:
            res = decide(g, k, Budget(MAX_NODES, MAX_SECONDS))
        counts.update(queries=1, answered=int(res.status != "timeout"), nodes=res.nodes)
        return res

    def check(res, full):
        if res.status != expected:
            return f"{res.status} after {res.nodes} nodes, expected {expected} ({source})"
        if res.status == "sat" and full:  # later passes repeat the node count exactly
            return _check_witness(oracles, invariant, g, k, res.witness) or None
        return None

    return Job(job_id, run, check, lambda res: res.nodes)


def setup(seed: int, workdir: str, oracles) -> Workload:
    queries = [
        (f"{invariant}-{name}" + ("" if k is None else f"-k{k}"), invariant, g, k, expected, source)
        for name, invariant, g, k, expected, source in _fixed(oracles)
    ]
    rng = random.Random(seed)
    for pos, (invariant, n, c, m) in enumerate(_random_specs()):
        edges, _ = planted_graph(rng, n, m, c, clique=c)
        k = 3 if invariant == "sigma" else 2
        queries.append((
            f"r{pos:04d}-{invariant}-n{n}-chi{c}-k{k}", invariant, Graph(n, edges), k,
            "sat" if c <= 4 else "unsat", f"window: planted chi={c}",
        ))
    jobs = [_job(oracles, *q) for q in queries]
    summary = {
        "jobs": len(jobs),
        "fixed": len(jobs) - len(_random_specs()),
        "n": f"{min(q[2].n for q in queries)}..{max(q[2].n for q in queries)}",
        "m": f"{min(q[2].m for q in queries)}..{max(q[2].m for q in queries)}",
        "k": sorted({q[3] for q in queries if q[3] is not None}),
        "budget": f"{MAX_NODES} nodes, {MAX_SECONDS:g} s",
    }
    return Workload(jobs, [j for j in jobs if j.id.startswith("r")][:6], summary)
