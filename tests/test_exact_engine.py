"""Differential tests of the iterative decision searches.

The recursive searches they replaced are kept below, verbatim, as the
reference.  Both must walk the same search tree: same status, same
first witness, same node count, and a budget that trips at the same
node for the same reason.  The equivalence search is the exception:
its forward check prunes part of the reference's tree, so it must find
the same status and first witness with no more nodes.  The word search
leaves out the edges whose ends both have degree 1 and gives them word
0, so the reference runs behind the same rule
(``reference_without_free_edges``).  The eyebrow search inserts
vertices into k orders where the slot search it replaced enumerates
whole rankings, so the two walk different trees: they must give the
same status wherever both finish, and every witness must pass the
verifier and the oracle.
"""

import random
from itertools import combinations
from itertools import permutations as iter_permutations
from typing import Iterator, List, Optional, Tuple

import pytest

import eqcover.exact as exact_mod
import oracles
from cover_words import directions
from eqcover import (
    Budget,
    EquivalenceCover,
    EyebrowCover,
    Graph,
    decide_elb,
    decide_eyebrow,
    decide_sigma,
    generate_family,
    line_graph,
    verify_elbow_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
)
from eqcover.construct import pullback_size
from eqcover.exact import (
    DecideResult,
    _kn_cover,
    _OutOfBudget,
    _path_order,
    _ranking,
    decide_eq,
)
from eqcover.graphs import NotBipartiteError, bipartition

BUDGETS = (None, 1, 7, 100, 2500)


# ---------------------------------------------------------------------------
# reference: the recursive searches, as they were before the rewrite
# ---------------------------------------------------------------------------


def reference_decide_words(
    g: Graph, k: int, budget: Budget, elbow: bool
) -> Optional[List[int]]:
    """Backtracking over per-edge direction words; None means unsat.

    Word bit i = edge directed out of its LOW endpoint in orientation i.
    Viewed from the low endpoint the mask is the word itself, from the
    high endpoint its complement.  Pair predicate at a shared vertex:
    orientation covering needs intersecting masks, elbow covering
    forbids complementary ones.
    """
    m = g.m
    full = (1 << k) - 1
    degrees = g.degrees()
    edges = g.edges
    words = [0] * m
    assigned_at: List[List[int]] = [[] for _ in range(g.n)]

    def viewed(e: int, v: int) -> int:
        return words[e] if edges[e][0] == v else full ^ words[e]

    def compatible(v: int, mask: int) -> bool:
        if elbow:
            for f in assigned_at[v]:
                if viewed(f, v) == full ^ mask:
                    return False
        else:
            for f in assigned_at[v]:
                if viewed(f, v) & mask == 0:
                    return False
        return True

    def rec(d: int, lexeq: int) -> bool:
        if d == m:
            return True
        u, v = edges[d]
        for w in range(1 << k):
            budget.spend()
            mu, mv = w, full ^ w
            if not elbow:
                # a never-out mask at a vertex with 2+ edges kills a pair
                if (degrees[u] >= 2 and mu == 0) or (degrees[v] >= 2 and mv == 0):
                    continue
            # keep orientation blocks lexicographically nondecreasing as
            # direction bit-vectors (direction bit = 1 - word bit)
            nlex = lexeq
            ok = True
            for p in range(k - 1):
                if nlex & (1 << p):
                    bi, bj = (w >> p) & 1, (w >> (p + 1)) & 1
                    if bi == 0 and bj == 1:
                        ok = False
                        break
                    if bi == 1 and bj == 0:
                        nlex &= ~(1 << p)
            if not ok:
                continue
            if not (compatible(u, mu) and compatible(v, mv)):
                continue
            words[d] = w
            assigned_at[u].append(d)
            assigned_at[v].append(d)
            if rec(d + 1, nlex):
                return True
            assigned_at[u].pop()
            assigned_at[v].pop()
        return False

    return words if rec(0, (1 << max(k - 1, 0)) - 1) else None


def reference_without_free_edges(
    g: Graph, k: int, budget: Budget, elbow: bool
) -> Optional[List[int]]:
    """The reference word search on g minus its free edges (both ends of
    degree 1), with word 0 filled in for each free edge afterwards."""
    deg = g.degrees()
    is_free = [deg[u] == 1 and deg[v] == 1 for u, v in g.edges]
    rest = Graph(g.n, [e for e, free in zip(g.edges, is_free) if not free])
    words = reference_decide_words(rest, k, budget, elbow)
    if words is None:
        return None
    found = iter(words)
    return [0 if free else next(found) for free in is_free]


def reference_decide_eq(h: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """Can the edges of h be covered by k equivalence subgraphs?

    Each edge is assigned a nonempty subset of the k labels.  The label-i
    edges must form a disjoint union of cliques, which holds exactly
    when any two label-i edges sharing a vertex close a triangle whose
    third edge exists in h and also carries label i.  That closure is
    propagated to not-yet-assigned edges as a required label mask.
    Intended for small hosts (roughly m <= 40), typically line graphs.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = budget or Budget()
    m = h.m
    if m == 0:
        cover = EquivalenceCover(h.n, [[] for _ in range(k)])
        return DecideResult("sat", cover, budget.nodes)
    if k == 0:
        return DecideResult("unsat", None, budget.nodes)

    full = (1 << k) - 1
    edges = h.edges
    # earlier adjacent edges, with the index of the triangle-closing edge
    partners: List[List[Tuple[int, Optional[int]]]] = [[] for _ in range(m)]
    for e in range(m):
        u, v = edges[e]
        for x in (u, v):
            for f in h.incident(x):
                if f >= e:
                    continue
                a = h.other_endpoint(e, x)
                b = h.other_endpoint(f, x)
                t = h.index_of(a, b) if h.has_edge(a, b) else None
                partners[e].append((f, t))

    words = [0] * m
    required = [0] * m

    def rec(d: int, lexeq: int) -> bool:
        if d == m:
            return True
        req = required[d]
        for w in range(1, full + 1):
            budget.spend()
            if w & req != req:
                continue
            # label blocks lexicographically nondecreasing as edge
            # indicator vectors
            nlex = lexeq
            ok = True
            for p in range(k - 1):
                if nlex & (1 << p):
                    bi, bj = (w >> p) & 1, (w >> (p + 1)) & 1
                    if bi == 1 and bj == 0:
                        ok = False
                        break
                    if bi == 0 and bj == 1:
                        nlex &= ~(1 << p)
            if not ok:
                continue
            trail: List[Tuple[int, int]] = []
            for f, t in partners[d]:
                common = w & words[f]
                if not common:
                    continue
                if t is None:
                    ok = False
                    break
                if t < d:
                    if common & ~words[t]:
                        ok = False
                        break
                else:
                    old = required[t]
                    if old | common != old:
                        required[t] = old | common
                        trail.append((t, old))
            if ok:
                words[d] = w
                if rec(d + 1, nlex):
                    return True
            for t, old in reversed(trail):
                required[t] = old
        return False

    try:
        sat = rec(0, (1 << max(k - 1, 0)) - 1)
    except _OutOfBudget:
        return DecideResult("timeout", None, budget.nodes)
    if not sat:
        return DecideResult("unsat", None, budget.nodes)

    subgraphs = []
    for i in range(k):
        marked = [e for e in range(m) if (words[e] >> i) & 1]
        adj: dict = {}
        for e in marked:
            u, v = edges[e]
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        seen = set()
        classes = []
        for start in sorted(adj):
            if start in seen:
                continue
            comp = []
            stack = [start]
            seen.add(start)
            while stack:
                x = stack.pop()
                comp.append(x)
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        stack.append(y)
            classes.append(tuple(sorted(comp)))
        subgraphs.append(classes)
    return DecideResult(
        "sat", EquivalenceCover(h.n, subgraphs), budget.nodes
    )


def _permutations_from(floor: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    """The permutations of 0..n-1 from ``floor`` on, in lexicographic
    order: ``floor``, then, for each position i from the last but one to
    the first, the blocks that keep floor[:i] and put a larger value at
    i, each block an ``itertools.permutations`` run over what is left."""
    yield floor
    for i in range(len(floor) - 2, -1, -1):
        tail = sorted(floor[i:])
        for c in tail[tail.index(floor[i]) + 1:]:
            head = floor[:i] + (c,)
            yield from map(head.__add__, iter_permutations([x for x in tail if x != c]))


def reference_decide_eyebrow(g: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """The slot search: brute force over lexicographically nondecreasing
    k-tuples of rankings, pruning on the constraints still uncovered.
    Every slot tries only the rankings that put vertex 0 below vertex 1,
    starts at the ranking of the slot before, and the last one only
    tests whether a ranking covers every triple left.  The closed forms
    in front are those of ``decide_eyebrow``."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = budget or Budget()
    if g.m == 0 or g.n < 3:  # no edge has a third vertex
        return DecideResult("sat", EyebrowCover(g.n, [range(g.n)] * k), budget.nodes)
    if k <= 1:
        order = _path_order(g) if k == 1 else None
        if order is None:
            return DecideResult("unsat", None, budget.nodes)
        cover = EyebrowCover(g.n, [_ranking(order)])
        return DecideResult("sat", cover, budget.nodes)
    if k >= pullback_size(g.n, "eyebrow"):
        return DecideResult("sat", _kn_cover(g, "eyebrow", k), budget.nodes)
    try:
        side = bipartition(g)
    except NotBipartiteError:
        pass
    else:
        up, down = (_ranking(sorted(range(g.n), key=lambda v: (side[v], s * v))) for s in (1, -1))
        return DecideResult("sat", EyebrowCover(g.n, [up] + [down] * (k - 1)), budget.nodes)
    chosen: List[Tuple[int, ...]] = []

    def between(ranks):
        """The (edge, third vertex) triples that ranks leaves uncovered:
        the vertices ranked strictly between each edge's ends."""
        order = sorted(range(g.n), key=ranks.__getitem__)
        out = []
        for u, v in g.edges:
            lo, hi = ranks[u], ranks[v]
            if lo > hi:
                lo, hi = hi, lo
            out += [(u, v, w) for w in order[lo + 1:hi]]
        return out

    def still_uncovered(uncovered, ranks):
        out = []
        for u, v, w in uncovered:
            lo, hi = ranks[u], ranks[v]
            if lo > hi:
                lo, hi = hi, lo
            if lo < ranks[w] < hi:
                out.append((u, v, w))
        return out

    def covers_all(uncovered, ranks):
        """Does ranks cover every triple left, putting no third vertex
        strictly between the ends of its edge?"""
        for u, v, w in uncovered:
            lo, hi = ranks[u], ranks[v]
            if lo < ranks[w] < hi or hi < ranks[w] < lo:
                return False
        return True

    def rec(slot: int, uncovered, floor: Tuple[int, ...]) -> bool:
        if not uncovered:
            # covered early: pad with repeats to honor the requested size
            while len(chosen) < k:
                chosen.append(chosen[-1])
            return True
        last = slot == k - 1
        for ranks in _permutations_from(floor):
            # a ranking and its reverse cover the same triples
            if ranks[0] > ranks[1]:
                continue
            budget.spend()
            if last:
                # the last slot succeeds only by covering every triple left
                if covers_all(uncovered, ranks):
                    chosen.append(ranks)
                    return True
                continue
            rest = still_uncovered(uncovered, ranks) if slot else between(ranks)
            if len(rest) == len(uncovered):
                # covers nothing new; a minimal covering multiset has no
                # such member, and padding restores the requested size
                continue
            chosen.append(ranks)
            if rec(slot + 1, rest, ranks):
                return True
            chosen.pop()
        return False

    try:
        # before the first slot all m(n - 2) triples are uncovered; the
        # first slot reads only their number, so a range stands for them
        sat = rec(0, range(g.m * (g.n - 2)), tuple(range(g.n)))
    except _OutOfBudget:
        return DecideResult("timeout", None, budget.nodes)
    if not sat:
        return DecideResult("unsat", None, budget.nodes)
    return DecideResult("sat", EyebrowCover(g.n, chosen), budget.nodes)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _run_words(search, g, k, elbow, budget):
    """(status, words, nodes, exhausted) of one word search."""
    try:
        words = search(g, k, budget, elbow)
    except _OutOfBudget:
        return "timeout", None, budget.nodes, budget.exhausted
    status = "unsat" if words is None else "sat"
    return status, None if words is None else list(words), budget.nodes, budget.exhausted


def _assert_same_words(g, k, elbow, max_nodes=None, max_seconds=None):
    ref = _run_words(reference_without_free_edges, g, k, elbow, Budget(max_nodes, max_seconds))
    new = _run_words(exact_mod._decide_words, g, k, elbow, Budget(max_nodes, max_seconds))
    assert new == ref, (g.n, g.edges, k, elbow, max_nodes)
    return ref


def _random_graph(rng, max_n=10):
    n = rng.randint(1, max_n)
    p = rng.choice((0.2, 0.35, 0.5, 0.7))
    return Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def _graphs():
    rng = random.Random(20261018)
    graphs = [_random_graph(rng) for _ in range(70)]
    graphs += [generate_family(f, p) for f, p in (
        ("complete", 5), ("cycle", 7), ("star", 6), ("path", 7),
        ("petersen", 5), ("mycielski-iterate", 4),
    )]
    return graphs


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("elbow", [False, True], ids=["orientation", "elbow"])
def test_word_search_matches_recursive_reference(elbow):
    statuses = set()
    for g in _graphs():
        for k in range(5):
            for max_nodes in BUDGETS:
                if max_nodes is None and k >= 3 and g.m > 15:
                    continue  # unbounded proofs this size are slow in the reference
                statuses.add(_assert_same_words(g, k, elbow, max_nodes)[0])
    assert statuses == {"sat", "unsat", "timeout"}


def _planted_graph(rng, n, c):
    """n vertices, n + n // 2 edges, with a planted c-clique and a planted
    proper c-colouring (vertex v in class v % c)."""
    edges = {(u, v) for u in range(c) for v in range(u + 1, c)}
    pairs = [(u, v) for u, v in combinations(range(n), 2) if (v - u) % c]
    rng.shuffle(pairs)
    edges.update(pairs[: n + n // 2 - len(edges)])
    return Graph(n, edges)


@pytest.mark.parametrize("decide,k,elbow", [(decide_sigma, 3, False), (decide_elb, 2, True)])
def test_small_decisions_match_reference_on_planted_graphs(decide, k, elbow):
    # the sweep of sigma <= 3 and elb <= 2 on n = 7..10: the public
    # decision keeps the reference's status, words and node count
    rng = random.Random(29)
    statuses = set()
    for trial in range(240):
        g = _planted_graph(rng, 7 + trial % 4, 2 + trial // 4 % 3)
        for max_nodes in (None, 7):
            ref = _run_words(reference_without_free_edges, g, k, elbow, Budget(max_nodes))
            res = decide(g, k, Budget(max_nodes))
            words = None if res.witness is None else list(res.witness.words)
            assert (res.status, words, res.nodes) == ref[:3], (g.edges, max_nodes)
            statuses.add(res.status)
    assert statuses == {"sat", "timeout"}


def test_large_k_needs_no_full_size_domains():
    # every k at or above the size of the K_n cover (5 orientations for
    # sigma, 3 for elb at n <= 16) is answered by that cover, padded to
    # size k, so no 2**k-bit table is built
    for g in (generate_family("complete", 5), generate_family("cycle", 7)):
        for decide, verify, oracle in (
            (decide_sigma, verify_orientation_cover, oracles.orientation_cover_ok),
            (decide_elb, verify_elbow_cover, oracles.elbow_cover_ok),
        ):
            for k in (11, 13, 40):
                res = decide(g, k, Budget(max_nodes=0))
                assert (res.status, res.nodes, res.witness.k) == ("sat", 0, k)
                assert verify(g, res.witness) is None
                assert oracle(g, directions(res.witness))


def test_clock_trips_at_the_same_node():
    k5 = generate_family("complete", 5)
    status, _, nodes, exhausted = _assert_same_words(k5, 3, False, max_seconds=0.0)
    assert (status, nodes, exhausted) == ("timeout", 1024, "clock")


def test_bulk_spend_matches_single_spends():
    for max_nodes in (None, 0, 5, 1023, 1024, 3000):
        for counts in ((3, 0, 1, 2000, 7), (1,) * 40, (5000,), (1023, 1, 1, 1024)):
            bulk, single = Budget(max_nodes), Budget(max_nodes)
            for count in counts:
                try:
                    bulk.spend(count)
                except _OutOfBudget:
                    break
            try:
                for count in counts:
                    for _ in range(count):
                        single.spend()
            except _OutOfBudget:
                pass
            assert (bulk.nodes, bulk.exhausted) == (single.nodes, single.exhausted)
    late = Budget(max_seconds=0.0)
    late.spend(1000)
    with pytest.raises(_OutOfBudget):
        late.spend(5000)
    assert (late.nodes, late.exhausted) == (1024, "clock")


def _eq_result(decide, h, k, max_nodes):
    budget = Budget(max_nodes)
    res = decide(h, k, budget)
    witness = None if res.witness is None else res.witness.subgraphs
    return res.status, witness, res.nodes, budget.exhausted


def test_decide_eq_matches_recursive_reference():
    # decide_eq forward-checks forbidden labels and charges no node for a
    # label set that fails the lex, required or forbidden test, so it
    # walks part of the reference's tree: the same first witness, never
    # more nodes, and a budget the reference runs out of may suffice
    rng = random.Random(7)
    hosts = [line_graph(_random_graph(rng, max_n=6)).line for _ in range(40)]
    hosts += [line_graph(generate_family(f, p)).line for f, p in (
        ("complete", 4), ("complete", 5), ("cycle", 6), ("star", 4),
    )]
    statuses = set()
    for h in hosts:
        for k in range(5):
            unbudgeted = None
            for max_nodes in BUDGETS:
                if max_nodes is None and h.m > 30:
                    continue
                ref = _eq_result(reference_decide_eq, h, k, max_nodes)
                got = _eq_result(decide_eq, h, k, max_nodes)
                statuses.add(ref[0])
                case = (h.edges, k, max_nodes)
                if ref[0] != "timeout":
                    assert got[:2] == ref[:2] and got[2] <= ref[2], case
                elif got[0] != "timeout":
                    if unbudgeted is None:
                        unbudgeted = _eq_result(reference_decide_eq, h, k, None)
                    assert got[:2] == unbudgeted[:2], case
    assert statuses == {"sat", "unsat", "timeout"}


@pytest.mark.parametrize("k, status", [(3, "unsat"), (4, "sat")])
def test_decide_eq_on_line_graph_of_k6_matches_reference(k, status):
    # eq(L(K6)) = 4; the reference walks 879,172 and 1,015,732 nodes
    h = line_graph(generate_family("complete", 6)).line
    ref = _eq_result(reference_decide_eq, h, k, None)
    got = _eq_result(decide_eq, h, k, None)
    assert ref[0] == status
    assert got[:2] == ref[:2] and got[2] < ref[2]


def test_decide_eyebrow_matches_slot_reference():
    # the insertion search and the slot search walk different trees, so
    # only the statuses are compared, wherever both finish in 200k nodes
    rng = random.Random(31)
    both, only_new, only_ref = {}, 0, 0
    for trial in range(120):
        n = 3 + trial % 6
        p = rng.choice((0.3, 0.6, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        perm = rng.sample(range(n), n)
        h = Graph(n, [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges])
        for k in range(4):
            ref = reference_decide_eyebrow(g, k, Budget(200_000))
            got = decide_eyebrow(g, k, Budget(200_000))
            moved = decide_eyebrow(h, k, Budget(200_000))
            case = (g.edges, k)
            for graph, res in ((g, got), (h, moved)):
                if res.status == "sat":
                    assert res.witness.k == k, case
                    assert verify_eyebrow_cover(graph, res.witness) is None, case
                    assert oracles.eyebrow_cover_ok(graph, res.witness.rankings), case
            if "timeout" not in (got.status, moved.status):
                assert moved.status == got.status, (case, perm)
            if "timeout" not in (ref.status, got.status):
                assert got.status == ref.status, case
                if got.nodes:
                    both[got.status] = both.get(got.status, 0) + 1
            else:
                only_new += ref.status == "timeout" != got.status
                only_ref += got.status == "timeout" != ref.status
    # searched decisions of both answers, and none the slot search
    # settles that the insertion search does not
    assert both.get("sat", 0) >= 10 and both.get("unsat", 0) >= 3, both
    assert only_ref == 0 and only_new > 0, (only_new, only_ref)
