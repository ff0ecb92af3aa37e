"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as the
criteria complete.  All comparisons are exact integers.  The heavier
criteria (the 200+-graph window equivalence sweep and the 23-vertex
chromatic search) dominate the runtime.
"""

import math
import random
from itertools import combinations

from eqcover import (
    Graph,
    NotBipartiteError,
    bipartition,
    bounds_report,
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    decide_elb,
    decide_eq,
    decide_sigma,
    elbow_cover_complete,
    elbow_double,
    exact_chromatic,
    generate_family,
    k4_elbow_base,
    k16_table_cover,
    line_graph,
    orientation_cover_from_eq_cover,
    solve_invariant,
    verify_elbow_cover,
    verify_orientation_cover,
)

from eqcover.construct import K16_RANK_ROWS

import oracles
from cover_words import directions


def report(number: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_01_k16_table_certificate():
    g = generate_family("complete", 16)
    rankings, cover = k16_table_cover()
    # orientation i runs each edge out of the end that row i ranks lower
    rebuilt = [tuple(0 if r[u] < r[v] else 1 for u, v in g.edges) for r in K16_RANK_ROWS]
    ok = (
        cover.k == 5
        and rankings == K16_RANK_ROWS
        and directions(cover) == rebuilt
        and verify_orientation_cover(g, cover) is None
    )
    report(1, "five-permutation table covers K16 (sigma(K16) <= 5)", ok)


def test_criterion_02_sigma_k4_equals_3():
    k4 = generate_family("complete", 4)
    unsat = decide_sigma(k4, 2).status == "unsat"
    res = decide_sigma(k4, 3)
    sat = res.status == "sat" and verify_orientation_cover(k4, res.witness) is None
    report(2, "sigma(K4) = 3 by exhaustive decision", unsat and sat)


def test_criterion_03_elbow_k4_k5():
    k4 = generate_family("complete", 4)
    k5 = generate_family("complete", 5)
    ok = (
        decide_elb(k4, 1).status == "unsat"
        and decide_elb(k4, 2).status == "sat"
        and decide_elb(k5, 2).status == "unsat"
        and decide_elb(k5, 3).status == "sat"
        and [math.ceil(math.log2(math.log2(n))) + 1 for n in (4, 5)] == [2, 3]
    )
    report(3, "elb(K4) = 2 and elb(K5) = 3, matching the loglog formula", ok)


def test_criterion_04_triangle_examples():
    k3 = generate_family("complete", 3)
    tpp = generate_family("triangle-plus-pendant")
    ok = (
        solve_invariant(line_graph(k3).line, "eq").value == 1
        and solve_invariant(k3, "sigma").value == 3
        and solve_invariant(tpp, "sigma").value == 3
        and solve_invariant(line_graph(tpp).line, "eq").value == 2
    )
    report(4, "eq(L(K3)) = 1 with sigma(K3) = 3; pendant triangle gives 3 and 2", ok)


def test_criterion_05_elbow_doubling_chain():
    g4 = generate_family("complete", 4)
    base = k4_elbow_base()
    ok = base.k == 2 and verify_elbow_cover(g4, base) is None
    c16 = elbow_double(g4, base)
    g16 = generate_family("complete", 16)
    ok = ok and c16.k == 3 and verify_elbow_cover(g16, c16) is None
    c256 = elbow_double(g16, c16)
    g256 = generate_family("complete", 256)
    ok = ok and c256.k == 4 and verify_elbow_cover(g256, c256) is None
    ok = ok and math.ceil(math.log2(math.log2(256))) + 1 == 4
    report(5, "doubling: K4 (2) -> K16 (3) -> K256 (4), each verified", ok)


def _connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for u in g.adjacency[v]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


def _non_bipartite(g: Graph) -> bool:
    try:
        bipartition(g)
        return False
    except NotBipartiteError:
        return True


def _window_corpus():
    """Deterministic corpus: every connected non-bipartite labeled graph
    on 5 vertices, seeded 6..8-vertex samples, and the dense extremes."""
    graphs = []
    pairs5 = list(combinations(range(5), 2))
    for mask in range(1 << 10):
        edges = [pairs5[i] for i in range(10) if (mask >> i) & 1]
        g = Graph(5, edges)
        if _connected(g) and _non_bipartite(g):
            graphs.append(g)
    rng = random.Random(20260808)
    for n in (6, 7, 8):
        for p in (0.4, 0.6, 0.85):
            got = 0
            while got < 8:
                edges = [
                    (u, v)
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < p
                ]
                g = Graph(n, edges)
                if _connected(g) and _non_bipartite(g):
                    graphs.append(g)
                    got += 1
    for c in (6, 7, 8):
        graphs.append(generate_family("complete", c))
    return graphs


def test_criterion_06_sigma3_window_equivalence():
    corpus = _window_corpus()
    exceptions = 0
    high_chi = 0
    for g in corpus:
        chi = exact_chromatic(g).value
        if chi >= 5:
            high_chi += 1
        sat = decide_sigma(g, 3).status == "sat"
        if sat != (chi in (3, 4)):
            exceptions += 1
    ok = len(corpus) >= 200 and high_chi >= 10 and exceptions == 0
    report(
        6,
        f"sigma<=3 iff chi in {{3,4}} over {len(corpus)} graphs "
        f"({high_chi} with chi>=5), zero exceptions",
        ok,
    )


def test_criterion_07_triangle_free_equality():
    graphs = {
        "P3": generate_family("path", 3),
        "P4": generate_family("path", 4),
        "P6": generate_family("path", 6),
        "C4": generate_family("cycle", 4),
        "C5": generate_family("cycle", 5),
        "C6": generate_family("cycle", 6),
        "C7": generate_family("cycle", 7),
        "star3": generate_family("star", 3),
        "star6": generate_family("star", 6),
        "K23": Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        "spider": Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)]),
        "caterpillar": Graph(6, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 5)]),
    }
    ok = True
    for name, g in graphs.items():
        assert g.m <= 10 and oracles.triangle_free_by_triples(g)
        sigma = solve_invariant(g, "sigma").value
        eq_line = solve_invariant(line_graph(g).line, "eq").value
        if sigma != eq_line:
            ok = False
    report(7, "eq(L(G)) = sigma(G) on the triangle-free corpus", ok)


def test_criterion_08_sandwiches_and_round_trip():
    names = [
        ("K2", generate_family("complete", 2)),
        ("K3", generate_family("complete", 3)),
        ("K4", generate_family("complete", 4)),
        ("K5", generate_family("complete", 5)),
        ("C4", generate_family("cycle", 4)),
        ("C5", generate_family("cycle", 5)),
        ("C6", generate_family("cycle", 6)),
        ("C7", generate_family("cycle", 7)),
        ("P3", generate_family("path", 3)),
        ("P4", generate_family("path", 4)),
        ("P5", generate_family("path", 5)),
        ("star3", generate_family("star", 3)),
        ("tri_pendant", generate_family("triangle-plus-pendant")),
        ("K23", Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])),
        ("bull", Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])),
        ("matching2", Graph(4, [(0, 1), (2, 3)])),
    ]
    ok = True
    for name, g in names:
        sigma = solve_invariant(g, "sigma").value
        elb = solve_invariant(g, "elb").value
        if not (elb <= sigma <= 2 * elb or (elb == 0 and sigma == 0)):
            ok = False
        if g.m == 0:
            continue
        lm = line_graph(g)
        eq_res = solve_invariant(lm.line, "eq")
        eq_line = eq_res.value
        if not (eq_line <= sigma <= 3 * eq_line or (eq_line == 0 and sigma == 0)):
            ok = False
        if eq_line > 0:
            back = orientation_cover_from_eq_cover(lm, eq_res.witness)
            if back.k > 3 * eq_res.witness.k:
                ok = False
            if verify_orientation_cover(g, back) is not None:
                ok = False
    report(8, "elb <= sigma <= 2 elb and eq(L) <= sigma <= 3 eq(L); conversions verify", ok)


def test_criterion_09_coloring_extraction_palettes():
    k4 = generate_family("complete", 4)
    c_k4 = coloring_from_elbow_cover(k4, elbow_cover_complete(4))
    g16 = generate_family("complete", 16)
    c_k16 = coloring_from_elbow_cover(g16, elbow_cover_complete(16))
    cov = decide_sigma(k4, 3).witness
    c_orient = coloring_from_orientation_cover(k4, cov)
    ok = (
        c_k4.palette_size == 4
        and c_k4.check_proper(k4) is None
        and c_k16.palette_size == 16
        and c_k16.check_proper(g16) is None
        and c_orient.palette_size <= 4
        and c_orient.check_proper(k4) is None
    )
    report(9, "elbow colorings use exactly 4 and 16 colors; size-3 cover gives <= 4", ok)


def test_criterion_10_triangle_free_eq_exceeds_three():
    g = generate_family("mycielski-iterate", 5)
    rep = bounds_report(g)
    ok = (
        (g.n, g.m) == (23, 71)
        and rep.triangle_free
        and rep.chi.exact
        and rep.chi.lo == 5
        and rep.sigma.exact
        and rep.sigma.lo == 4
        and rep.eq_line.exact
        and rep.eq_line.lo == 4
        and rep.eq_line.lo > 3
    )
    report(10, "23-vertex triangle-free iterate: chi = 5, sigma = 4, eq(L) = 4 > 3", ok)


def test_criterion_11_enumeration_cross_checks():
    cases_sigma = [
        (generate_family("complete", 3), 2, False),
        (generate_family("complete", 3), 3, True),
        (generate_family("cycle", 4), 1, False),
        (generate_family("cycle", 4), 2, True),
        (generate_family("complete", 4), 2, False),
        (generate_family("triangle-plus-pendant"), 2, False),
    ]
    ok = True
    for g, k, expect in cases_sigma:
        assert g.m * k <= 18
        oracle = oracles.sigma_at_most(g, k)
        solver = decide_sigma(g, k).status == "sat"
        if oracle != expect or solver != expect:
            ok = False
    cases_elb = [
        (generate_family("complete", 4), 1, False),
        (generate_family("complete", 3), 1, False),
        (generate_family("complete", 3), 2, True),
        (generate_family("cycle", 4), 1, True),
    ]
    for g, k, expect in cases_elb:
        assert g.m * k <= 18
        if oracles.elb_at_most(g, k) != expect:
            ok = False
        if (decide_elb(g, k).status == "sat") != expect:
            ok = False
    cases_eq = [
        (generate_family("cycle", 4), 1, False),
        (generate_family("cycle", 4), 2, True),
        (line_graph(generate_family("triangle-plus-pendant")).line, 1, False),
        (line_graph(generate_family("triangle-plus-pendant")).line, 2, True),
    ]
    for h, k, expect in cases_eq:
        assert h.m * k <= 18
        if oracles.eq_at_most(h, k) != expect:
            ok = False
        if (decide_eq(h, k).status == "sat") != expect:
            ok = False
    report(
        11,
        "tiny-size UNSAT/SAT answers agree with full enumeration "
        "(non-reproducible claims are substituted by these checks)",
        ok,
    )
