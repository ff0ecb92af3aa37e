"""Differential tests of the colouring engine and its neighbours.

The quadratic greedy colouring, the recursive k-colouring search, the
set-per-vertex greedy clique, the loop that relabelled colours densely
and the two-pass equivalence verifier they replaced are kept below as
the reference, verbatim but for the recursive search's tie-break: it
breaks ties between the most constrained vertices by higher degree,
then lower index, as the greedy colouring does.  The greedy colouring, now the
first descent of the bucketed k-colouring search, must give the same
colouring and the common-neighbour clique the same clique; the
iterative search must walk the same tree (same status, witness and node
count, and a budget that trips at the same node, a zero budget
included); the verifier must report the same witness.  The
complete-graph elbow cover, which now reads its prefix words by index,
is compared with the restriction of the whole doubled cover.
"""

import random
from itertools import combinations
from typing import Optional, Tuple

import pytest

import eqcover.exact as exact_mod
from eqcover import (
    Budget,
    EquivalenceCover,
    Graph,
    elbow_cover_complete,
    exact_chromatic,
    generate_family,
    greedy_coloring,
    line_graph,
    verify_equivalence_cover,
)
from eqcover.construct import elbow_double, k4_elbow_base
from eqcover.covers import EquivalenceViolation
from eqcover.exact import greedy_clique
from eqcover.graphs import Coloring, ShapeError

from cover_words import restrict

BUDGETS = (None, 0, 1, 7, 50, 300)


# ---------------------------------------------------------------------------
# reference: the code as it was before the rewrite
# ---------------------------------------------------------------------------


def reference_greedy_coloring(g: Graph) -> Coloring:
    """Saturation-guided greedy coloring; deterministic tie-breaking."""
    colors = [-1] * g.n
    neighbor_colors = [set() for _ in range(g.n)]
    for _ in range(g.n):
        v = max(
            (x for x in range(g.n) if colors[x] < 0),
            key=lambda x: (len(neighbor_colors[x]), g.degree(x), -x),
        )
        c = 0
        while c in neighbor_colors[v]:
            c += 1
        colors[v] = c
        for u in g.adjacency[v]:
            neighbor_colors[u].add(c)
    return Coloring(colors) if g.n else Coloring([])


def reference_greedy_clique(g: Graph) -> Tuple[int, ...]:
    """Deterministic greedy clique (seeded at the max-degree vertex)."""
    if g.n == 0:
        return ()
    adj = g.adjacency
    order = sorted(range(g.n), key=lambda v: (-len(adj[v]), v))
    clique = [order[0]]
    adjsets = [set(a) for a in adj]
    for v in order[1:]:
        if all(v in adjsets[u] for u in clique):
            clique.append(v)
    return tuple(sorted(clique))


def reference_dense(coloring: Coloring) -> Coloring:
    """Relabel colors to 0..palette_size-1 by first occurrence."""
    remap: dict[int, int] = {}
    out = []
    for c in coloring.colors:
        if c not in remap:
            remap[c] = len(remap)
        out.append(remap[c])
    return Coloring(out)


def reference_k_colorable(g: Graph, k: int, budget: Budget) -> Optional[Coloring]:
    """Backtracking k-coloring with most-constrained-vertex branching
    (ties to the higher degree, then the lower index) and fresh colors
    introduced in order (color-permutation symmetry)."""
    n = g.n
    adj = g.adjacency
    colors = [-1] * n
    forbid = [0] * n
    full = (1 << k) - 1

    def rec(depth: int, maxused: int) -> bool:
        if depth == n:
            return True
        cap = (1 << min(maxused + 1, k)) - 1
        best, best_key = -1, (k + 2,)
        for v in range(n):
            if colors[v] < 0:
                allowed = full & ~forbid[v] & cap
                cnt = bin(allowed).count("1")
                if cnt == 0:
                    return False
                key = (cnt, -len(adj[v]), v)
                if key < best_key:
                    best, best_key = v, key
        v = best
        allowed = full & ~forbid[v] & cap
        c = 0
        while allowed >> c:
            if (allowed >> c) & 1:
                budget.spend()
                colors[v] = c
                touched = []
                for u in adj[v]:
                    if colors[u] < 0 and not (forbid[u] >> c) & 1:
                        forbid[u] |= 1 << c
                        touched.append(u)
                if rec(depth + 1, max(maxused, c + 1)):
                    return True
                colors[v] = -1
                for u in touched:
                    forbid[u] &= ~(1 << c)
            c += 1
        return False

    if k <= 0:
        return Coloring([]) if n == 0 else None
    return Coloring(colors) if rec(0, 0) else None


def reference_verify_equivalence_cover(
    h: Graph, cover: EquivalenceCover
) -> Optional[EquivalenceViolation]:
    """None iff classes are disjoint cliques and every edge of h lies
    inside some class of some subgraph.

    Scan order (fixes the reported witness): subgraphs in order; within
    one, overlapping classes first (by class index, then vertex), then
    missing clique edges (by class index, then pair); finally uncovered
    host edges by edge index.
    """
    if cover.n != h.n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={h.n}")
    covered = [False] * h.m
    for si, sub in enumerate(cover.subgraphs):
        owner: dict = {}
        for ci, cls in enumerate(sub):
            for v in cls:
                if not (0 <= v < h.n):
                    raise ShapeError(f"vertex {v} out of range in subgraph {si}")
                if v in owner:
                    return EquivalenceViolation(
                        "overlap",
                        subgraph=si,
                        class_pair=(owner[v], ci),
                        vertex=v,
                    )
                owner[v] = ci
        for ci, cls in enumerate(sub):
            for a, b in combinations(cls, 2):
                if not h.has_edge(a, b):
                    return EquivalenceViolation(
                        "not-a-clique",
                        subgraph=si,
                        class_index=ci,
                        edge=(a, b),
                    )
            for a, b in combinations(cls, 2):
                covered[h.index_of(a, b)] = True
    for idx, ok in enumerate(covered):
        if not ok:
            return EquivalenceViolation("uncovered", edge=h.edges[idx])
    return None


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _dense_graph(rng, n, p):
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _random_graph(rng, max_n=10):
    n = rng.randint(1, max_n)
    return _dense_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))


def _sparse_graph(rng, n, m):
    edges = set()
    while len(edges) < m:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(n, edges)


def _chromatic_result(g, max_nodes):
    budget = Budget(max_nodes)
    res = exact_chromatic(g, budget)
    return res.status, res.lo, res.hi, res.witness.colors, res.nodes, budget.exhausted


def _verify_result(verify, h, cover):
    violation = verify(h, cover)
    return None if violation is None else (violation.subkind, violation.line())


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_greedy_coloring_matches_reference(corpus):
    rng = random.Random(20261018)
    graphs = [_random_graph(rng, max_n=40) for _ in range(300)]
    graphs += [_sparse_graph(rng, n, 3 * n) for n in (100, 200, 300)]
    graphs += list(corpus.values())
    graphs += [Graph(0, []), generate_family("mycielski-iterate", 5)]
    # dense graphs open more than 16 saturation buckets
    graphs += [_dense_graph(rng, n, p) for n in (30, 60, 90) for p in (0.6, 0.8, 0.95)]
    graphs.append(generate_family("complete", 40))
    graphs += [Graph(g.n + 3, g.edges) for g in graphs[:20] + [_sparse_graph(rng, 50, 40)]]
    graphs.append(Graph(7, []))
    palettes = []
    for g in graphs:
        got = greedy_coloring(g)
        assert got.colors == reference_greedy_coloring(g).colors, (g.n, g.edges)
        palettes.append(got.palette_size)
        # a non-contiguous relabelling of the colours, made dense again
        spread = Coloring([3 * c * c + rng.choice((0, 1)) * 1000 for c in got.colors])
        assert spread.dense() == reference_dense(spread), (g.n, g.edges)
    assert max(palettes) >= 40
    with pytest.raises(ValueError, match="^colors must be nonnegative$"):
        Coloring([0, 2, -1])
    empty = Coloring([])
    assert (empty.palette_size, empty.dense().colors) == (0, ())


def test_greedy_clique_matches_reference(corpus):
    rng = random.Random(20261019)
    graphs = [_random_graph(rng, max_n=40) for _ in range(300)]
    graphs += [_sparse_graph(rng, n, 3 * n) for n in (100, 200, 300)]
    graphs += list(corpus.values())
    graphs += [generate_family("mycielski-iterate", t) for t in (5, 6)]
    graphs += [generate_family("complete", n) for n in (1, 2, 5, 40)]
    graphs += [Graph(9, []), Graph(0, [])]
    for g in graphs:
        assert greedy_clique(g) == reference_greedy_clique(g), (g.n, g.edges)


def test_chromatic_search_matches_recursive_reference(monkeypatch, corpus):
    rng = random.Random(5)
    graphs = [_random_graph(rng, max_n=12) for _ in range(60)]
    graphs += list(corpus.values())
    graphs += [generate_family("mycielski-iterate", 5), generate_family("cycle", 9)]
    new = [[_chromatic_result(g, mx) for mx in BUDGETS] for g in graphs]
    monkeypatch.setattr(exact_mod, "greedy_coloring", reference_greedy_coloring)
    monkeypatch.setattr(exact_mod, "_k_colorable", reference_k_colorable)
    ref = [[_chromatic_result(g, mx) for mx in BUDGETS] for g in graphs]
    assert new == ref
    statuses = {r[0] for rows in ref for r in rows}
    assert statuses == {"exact", "bounded"}


def test_k_colorable_matches_recursive_reference():
    # below, at and above the chromatic number, so that both unsat proofs
    # and witnesses are compared
    rng = random.Random(11)
    graphs = [_random_graph(rng, max_n=11) for _ in range(40)]
    graphs += [Graph(0, []), generate_family("petersen", 5)]
    for g in graphs:
        for k in range(5):
            for max_nodes in BUDGETS:
                results = []
                for search in (reference_k_colorable, exact_mod._k_colorable):
                    budget = Budget(max_nodes)
                    try:
                        found = search(g, k, budget)
                        out = None if found is None else found.colors
                    except exact_mod._OutOfBudget:
                        out = "timeout"
                    results.append((out, budget.nodes, budget.exhausted))
                assert results[0] == results[1], (g.n, g.edges, k, max_nodes)


def test_verify_equivalence_cover_matches_reference():
    rng = random.Random(3)
    hosts = [line_graph(_random_graph(rng, max_n=9)).line for _ in range(40)]
    hosts.append(line_graph(generate_family("petersen", 5)).line)
    kinds = set()
    for h in hosts:
        if h.n == 0:
            continue
        valid = [[(a, b)] for a, b in h.edges]  # one edge per subgraph
        covers = [EquivalenceCover(h.n, valid)]
        if h.m >= 2:
            covers.append(EquivalenceCover(h.n, valid[:-1]))  # uncovered
            (a, b), (c, d) = h.edges[0], h.edges[-1]
            if len({a, b, c, d}) < 4:
                covers.append(EquivalenceCover(h.n, [[(a, b), (c, d)]]))  # overlap
        for _ in range(6):
            classes = []
            for _ in range(rng.randint(1, 3)):
                cls = rng.sample(range(h.n), min(h.n, rng.randint(1, 3)))
                classes.append(tuple(cls))
            covers.append(EquivalenceCover(h.n, [classes] + valid))
        for cover in covers:
            ref = _verify_result(reference_verify_equivalence_cover, h, cover)
            assert _verify_result(verify_equivalence_cover, h, cover) == ref
            kinds.add(None if ref is None else ref[0])
    assert kinds == {None, "overlap", "not-a-clique", "uncovered"}
    c4 = generate_family("cycle", 4)
    for cover in (
        EquivalenceCover(4, [[(0, 2, 1)]]),  # not a clique
        EquivalenceCover(4, [[(1, 0), (3, 2)], [(0, 1), (1, 2)]]),  # overlap
        EquivalenceCover(4, [[(1, 0)], [(2, 1)]]),  # uncovered
        EquivalenceCover(4, [[(1, 0), (3, 2)], [(3, 0), (2, 1)]]),  # valid
    ):
        ref = _verify_result(reference_verify_equivalence_cover, c4, cover)
        assert _verify_result(verify_equivalence_cover, c4, cover) == ref
    with pytest.raises(ShapeError):
        verify_equivalence_cover(c4, EquivalenceCover._from_sorted(4, [[(0, 1)], [(0, 9)]]))


def test_elbow_cover_complete_matches_restricted_doubling():
    k4 = generate_family("complete", 4)
    k16 = generate_family("complete", 16)
    k256 = generate_family("complete", 256)
    c16 = elbow_double(k4, k4_elbow_base())
    c256 = elbow_double(k16, c16)
    # every n up to 40, then a stride through the K256 range (each
    # restriction of K256 takes tens of milliseconds)
    for n in [*range(3, 41), *range(41, 255, 13), 255, 256]:
        big, cover = (k4, k4_elbow_base()) if n <= 4 else (k16, c16) if n <= 16 else (k256, c256)
        _, expected = restrict(big, cover, range(n))
        got = elbow_cover_complete(n)
        assert (list(got.words), got.k, got.kind, got.graph_shape) == (
            list(expected.words), expected.k, expected.kind, expected.graph_shape
        ), n


def test_k_colorable_matches_reference_past_heap_rebuilds():
    # the Mycielski graphs at k = 4, and M6 at k = 5, backtrack long
    # enough to push more than the 4n + 64 entries that trigger a
    # rebuild of the branching buckets (29 to 91 rebuilds each)
    rng = random.Random(13)
    graphs = [_sparse_graph(rng, n, 2 * n) for n in (30, 50, 80)]
    graphs += [generate_family("mycielski-iterate", t) for t in (5, 6)]
    graphs.append(generate_family("cycle", 61))
    for g in graphs:
        for k in (2, 3, 4, 5):
            results = []
            for search in (reference_k_colorable, exact_mod._k_colorable):
                budget = Budget(3000)
                try:
                    found = search(g, k, budget)
                    out = None if found is None else found.colors
                except exact_mod._OutOfBudget:
                    out = "timeout"
                results.append((out, budget.nodes, budget.exhausted))
            assert results[0] == results[1], (g.n, g.edges, k)
