"""Exact decision procedures for the covering invariants and for the
chromatic number, at desk scale.

All searches are deterministic backtracking with budgets measured in
search nodes (one node per candidate value tried), plus an optional
wall-clock cap.  Budget exhaustion is a first-class result status, not
an error.  The orientation, elbow and equivalence searches (one level
per edge) and the k-coloring and eyebrow searches (one level per
vertex) keep their stack explicitly, so their depth is not bounded by
Python's recursion limit.  The k-coloring search branches as DSATUR
does, and the greedy coloring is its first descent with n colors.

Orientation and elbow coverings are searched edge-major: each edge gets
a k-bit word whose bit i records its direction in orientation i, and
the covering constraints become pair predicates between the words of
edges sharing a vertex (see the verify module).  This explores exactly
the space of k-tuples of orientations, with one sound symmetry
reduction: orientations are interchangeable, so the orientation blocks
are required to be lexicographically nondecreasing as direction
bit-vectors.  The same lexicographic block reduction applies to
equivalence coverings, since label classes are interchangeable too.
The equivalence search also propagates each edge's labels forward, as
labels required on the edges that close its triangles and labels
forbidden on its neighbours that close none, and fails a branch as soon
as an edge has no label set left.  The eyebrow search inserts the
vertices one at a time into k orders, each begun with vertex 0 before
vertex 1 (a ranking and its reverse leave the same vertices between
each edge's ends), and fails an insertion as soon as a triple it
completes lies between its edge's ends in every order.  Its orders are
interchangeable, so those placed alike so far take their insertion
points in nondecreasing order.

The orientation/elbow search runs on bitsets over the words: each
vertex keeps a domain of the words still allowed on its incident edges
(one half for edges where it is the low endpoint, one where it is the
high endpoint), and a table row per lex state holds the words that keep
the blocks in order, so the candidates for an edge are
``lex row & domain(u) & domain(v)`` and assigning a word ANDs one
compatibility row into each endpoint's domain.  The tables are built
whole, once per k and kind.  The node count is that of trying every
word in turn: the words skipped on the way to the next candidate (or to
the end) are charged in bulk through ``Budget.spend(count)``, so
results, witnesses, node counts and the node at which a budget trips
are those of a word-by-word search.

Both ends of k are closed forms that take no search nodes: the small k
(sigma <= 2, elb <= 1, eye <= 1), and every k at or above the size of
the cover of K_n, which restricted to the graph is a witness.  So the
word search only meets k below that size, at most 11 orientations.
The witnesses are built by the construct module, which never imports
this one: the colorings its pullbacks take are chosen here.  The
value of elb is read off chi by an integer rule (``elb_from_chi``); the
word search of ``decide_elb`` is kept as a check on it.
"""

from __future__ import annotations

import heapq
import time
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate
from operator import and_, xor
from typing import List, Optional, Tuple

from . import construct
from .covers import EquivalenceCover, EyebrowCover, OrientationCover
from .graphs import Coloring, Graph, NotBipartiteError, bipartition


class _OutOfBudget(Exception):
    """Raised by ``Budget.spend``; ``Budget.exhausted`` says which limit."""


class Budget:
    """Search budget: node count (deterministic) and optional wall clock.
    Each limit given must be >= 0; a NaN clock limit is refused too."""

    __slots__ = ("max_nodes", "max_seconds", "nodes", "exhausted", "_deadline")

    def __init__(
        self, max_nodes: Optional[int] = None, max_seconds: Optional[float] = None
    ):
        if max_nodes is not None and max_nodes < 0:
            raise ValueError(f"max_nodes must be >= 0, got {max_nodes}")
        if max_seconds is not None and not max_seconds >= 0:
            raise ValueError(f"max_seconds must be >= 0, got {max_seconds}")
        self.max_nodes = max_nodes
        self.max_seconds = max_seconds
        self.nodes = 0
        self.exhausted: Optional[str] = None  # 'nodes' | 'clock' once tripped
        self._deadline = (
            time.monotonic() + max_seconds if max_seconds is not None else None
        )

    def spend(self, count: int = 1) -> None:
        """Charge count nodes, stopping where count single charges would:
        at node max_nodes + 1, or at the first multiple of 1024 charged
        (where the clock is read) once the deadline has passed."""
        before = self.nodes
        nodes = before + count
        over = self.max_nodes is not None and nodes > self.max_nodes
        if over:
            nodes = self.max_nodes + 1
        tick = (before | 1023) + 1  # the next node at which the clock is read
        if (
            self._deadline is not None
            and tick <= nodes - over
            and time.monotonic() > self._deadline
        ):
            self.nodes = tick
            self.exhausted = "clock"
            raise _OutOfBudget
        self.nodes = nodes
        if over:
            self.exhausted = "nodes"
            raise _OutOfBudget


@dataclass(frozen=True)
class DecideResult:
    """Outcome of a single decision query at covering size k."""

    status: str  # 'sat' | 'unsat' | 'timeout'
    witness: object = None
    nodes: int = 0


@dataclass(frozen=True)
class SolveResult:
    """An exact value or a best-effort interval for one invariant.

    The witness certifies the exact value when status is 'exact' and
    the upper endpoint otherwise (when one was established).
    """

    invariant: str
    lo: int
    hi: Optional[int]
    status: str  # 'exact' | 'bounded' (node budget) | 'timeout' (wall clock)
    witness: object = None
    nodes: int = 0

    @property
    def value(self) -> Optional[int]:
        return self.lo if self.status == "exact" else None


def _timeout_status(reason: str) -> str:
    return "timeout" if reason == "clock" else "bounded"


# ---------------------------------------------------------------------------
# orientation / elbow covering decisions
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _word_tables(k: int, elbow: bool) -> Tuple[List[int], List[Tuple[int, int]]]:
    """Bitset rows over the 2**k words: bit w of a row stands for word w.

    A vertex's domain packs two rows into one integer: the words still
    allowed on an incident edge where the vertex is the low endpoint
    (its mask is the word) in the low 2**k bits, and where it is the
    high endpoint (its mask is ``full ^ word``) in the bits above.
    ``lex_rows[state]`` holds the words that keep the orientation blocks
    lexicographically nondecreasing from a lex state; ``rows[w]`` the
    two packed masks that assigning w to an edge ANDs into the domains
    of its low and of its high endpoint.
    """
    size = 1 << k
    full, every = size - 1, (1 << size) - 1
    # word w breaks the order at p when the direction bit of block p
    # exceeds that of block p + 1 (direction bit = 1 - word bit); a state
    # allows the words that break it at none of its positions
    keeps = [
        sum(1 << w for w in range(size) if not (~w & (w >> 1)) >> p & 1)
        for p in range(k - 1)
    ]
    lex_rows = [every]
    for state in range(1, 1 << max(k - 1, 0)):
        low = state & -state
        lex_rows.append(lex_rows[state ^ low] & keeps[low.bit_length() - 1])
    # subsets[w]: the words whose bits all lie in w
    subsets = [1]
    for w in range(1, size):
        low = w & -w
        below = subsets[w ^ low]
        subsets.append(below | below << low)
    rows = []
    for w in range(size):
        # rows for the low and high ends at the edge's low endpoint, whose
        # mask is w, then at its high endpoint, whose mask is full ^ w
        if elbow:  # masks at a shared vertex must not be complementary
            a, b = every ^ 1 << (full ^ w), every ^ 1 << w
            ends = (a, b, b, a)
        else:  # masks at a shared vertex must intersect
            below, off = subsets[w], subsets[full ^ w]
            ends = (every ^ off, every ^ off << w, every ^ below, every ^ below << (full ^ w))
        rows.append((ends[0] | ends[1] << size, ends[2] | ends[3] << size))
    return lex_rows, rows


def _decide_words(
    g: Graph, k: int, budget: Budget, elbow: bool
) -> Optional[List[int]]:
    """Backtracking over per-edge direction words; None means unsat.

    Word bit i = edge directed out of its LOW endpoint in orientation i.
    Viewed from the low endpoint the mask is the word itself, from the
    high endpoint its complement.  Pair predicate at a shared vertex:
    orientation covering needs intersecting masks, elbow covering
    forbids complementary ones.

    An edge whose ends both have degree 1 meets no other edge, so it is
    left out of the search and takes word 0.  The other edges are
    labelled in index order, each trying its words in increasing order,
    with an explicit stack.  Each vertex keeps a domain (see
    _word_tables), so the candidates of an edge are one AND of bitsets,
    and a word assigned ANDs one precomputed row into the domain of each
    endpoint; backtracking restores the two saved domains.  Every word
    tried counts as a node, candidate or not, so the nodes up to the
    next candidate, or to the end of the words, are charged in one go.
    """
    deg = g.degrees()
    edges = g.edges
    free = deg.count(1) > 1 and any(deg[u] == 1 == deg[v] for u, v in edges)
    if free:
        edges = [(u, v) for u, v in edges if deg[u] > 1 or deg[v] > 1]
    if not edges:
        return [0] * g.m
    m = len(edges)
    words = [0] * m
    size = 1 << k
    lex_rows, rows = _word_tables(k, elbow)
    whole = (1 << (2 * size)) - 1
    # for orientations, a never-out mask at a vertex with 2+ edges kills a
    # pair: mask 0 is word 0 at the low end and full at the high end
    pruned = whole if elbow else whole ^ (1 | 1 << (2 * size - 1))
    dom = [whole if dv < 2 else pruned for dv in deg]
    spend = budget.spend
    rest = [0] * m  # candidates above words[d] left at depth d
    lexes = [0] * m  # lex state on reaching depth d
    saved: List[Tuple[int, int]] = [(0, 0)] * m  # endpoint domains before depth d
    d, lex, start = 0, (1 << max(k - 1, 0)) - 1, 0
    u, v = edges[0]
    cand = lex_rows[lex] & dom[u] & (dom[v] >> size)
    while True:
        if cand:
            lowest = cand & -cand
            w = lowest.bit_length() - 1
            spend(w + 1 - start)
            words[d] = w
            rest[d] = cand ^ lowest
            lexes[d] = lex
            u, v = edges[d]
            saved[d] = du, dv = dom[u], dom[v]
            ru, rv = rows[w]
            dom[u], dom[v] = du & ru, dv & rv
            d += 1
            if d == m:
                break
            lex &= ~(w & ~(w >> 1))
            u, v = edges[d]
            cand = lex_rows[lex] & dom[u] & (dom[v] >> size)
            start = 0
        else:
            spend(size - start)
            if d == 0:
                return None
            d -= 1
            u, v = edges[d]
            dom[u], dom[v] = saved[d]
            lex = lexes[d]
            cand = rest[d]
            start = words[d] + 1
    if not free:
        return words
    found = iter(words)
    return [next(found) if deg[u] > 1 or deg[v] > 1 else 0 for u, v in g.edges]


def _closed_form_cover(g: Graph, k: int, kind: str) -> Optional[OrientationCover]:
    """The witness of sigma <= k, k <= 2, or of elb <= k, k <= 1; None if
    there is none.  k = 0 needs no incident edge pairs; sigma <= 1 no edge
    between two vertices of degree >= 2 (each edge runs out of such an
    end, else out of its low end).  A vertex with two edges is a source in
    one of two orientations (a source or a sink in one elbow orientation),
    so sigma <= 2 and elb <= 1 hold exactly on bipartite graphs.
    """
    if k == 0:
        if g.has_incidence_pairs():
            return None
        return OrientationCover((g.n, g.m), 0, [0] * g.m, kind)
    if k == 1 and kind == "orientation":
        deg = g.degrees()
        if any(deg[u] >= 2 and deg[v] >= 2 for u, v in g.edges):
            return None
        words = [int(deg[v] < 2) for _, v in g.edges]
        return OrientationCover((g.n, g.m), 1, words)
    try:
        side = bipartition(g)
    except NotBipartiteError:
        return None
    return construct._pullback(g, side, construct.K2_RANKS[:k], kind)


def _ranking(order: List[int]) -> Tuple[int, ...]:
    """The ranking that lists the vertices in ``order``, rank 0 first."""
    return tuple(sorted(range(len(order)), key=order.__getitem__))


def _kn_cover(g: Graph, kind: str, k: int = 0):
    """The cover of K_n restricted to g, with its last member repeated up
    to size k: the pullback of the identity coloring for kinds
    'orientation' and 'elbow' (k at least its size), the eyebrow
    rankings of K_n, ties broken by vertex, for 'eyebrow' (none when no
    edge has a third vertex).  Its size is ``construct.pullback_size``."""
    if kind == "eyebrow":
        ranks = construct._elbow_ranks(g.n) if g.m and g.n >= 3 else []
        rankings = [_ranking(sorted(range(g.n), key=r.__getitem__)) for r in ranks]
        return EyebrowCover._from_checked(g.n, rankings + rankings[-1:] * (k - len(rankings)))
    return construct._pullback(g, range(g.n), construct._base_ranks(g.n, kind), kind, k)


def _decide_cover(g: Graph, k: int, budget: Optional[Budget], kind: str) -> DecideResult:
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = budget or Budget()
    if k <= (1 if kind == "elbow" else 2):
        witness = _closed_form_cover(g, k, kind)
        return DecideResult("unsat" if witness is None else "sat", witness, budget.nodes)
    if k >= construct.pullback_size(g.n, kind):
        return DecideResult("sat", _kn_cover(g, kind, k), budget.nodes)
    try:
        words = _decide_words(g, k, budget, kind == "elbow")
    except _OutOfBudget:
        return DecideResult("timeout", None, budget.nodes)
    if words is None:
        return DecideResult("unsat", None, budget.nodes)
    witness = OrientationCover._from_words((g.n, g.m), k, words, kind)
    return DecideResult("sat", witness, budget.nodes)


def decide_sigma(g: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """Is there an orientation covering of g with k orientations?"""
    return _decide_cover(g, k, budget, "orientation")


def decide_elb(g: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """Is there an elbow covering of g with k orientations?"""
    return _decide_cover(g, k, budget, "elbow")


# ---------------------------------------------------------------------------
# equivalence covering decision
# ---------------------------------------------------------------------------


def decide_eq(h: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """Can the edges of h be covered by k equivalence subgraphs?

    Each edge is assigned a nonempty subset of the k labels.  The label-i
    edges must form a disjoint union of cliques, which holds exactly
    when any two label-i edges sharing a vertex close a triangle whose
    third edge exists in h and also carries label i.  That closure is
    propagated to not-yet-assigned edges as a required label mask.  Two
    edges sharing a vertex with no triangle-closing edge may share no
    label, so an assigned edge's labels are forward-checked into the
    forbidden masks of its later such neighbours, and the branch fails
    at once when a forbidden mask takes every label or meets a required
    one.  The edges are labelled in index order, each trying, in
    increasing order, the label sets that hold its required labels and
    no forbidden one; one node is charged per such set that keeps the
    label blocks in lexicographic order.  Intended for small hosts,
    typically line graphs: on L(K6) (m = 60), k = 3 is refuted in
    163,484 nodes and k = 4 satisfied in 86,213, each in about 0.2 s;
    on L(K7) (m = 105), k = 5 is satisfied in 902,868 nodes, and
    k = 3 and 4 stay open after 3M nodes.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = budget or Budget()
    m = h.m
    if k == 0 and m:
        return DecideResult("unsat", None, budget.nodes)

    full = (1 << k) - 1
    edges, incidence, index = h.edges, h._incident, h._index
    # earlier adjacent edges with a triangle-closing edge, with its index,
    # and later adjacent edges with none, which may share no label
    partners: List[List[Tuple[int, int]]] = [[] for _ in range(m)]
    apart: List[List[int]] = [[] for _ in range(m)]
    for e in range(m):
        u, v = edges[e]
        for x, a in ((u, v), (v, u)):
            for f in incidence[x]:
                b = h.other_endpoint(f, x)
                t = index.get((a, b) if a < b else (b, a))
                if t is None:
                    if f > e:
                        apart[e].append(f)
                elif f < e:
                    partners[e].append((f, t))

    words = [0] * m
    required = [0] * m
    forbidden = [0] * m  # labels of earlier edges in ``apart``
    lexes = [0] * m  # lex state on reaching depth d
    nexts = [0] * m  # the next subset of free labels to try at depth d
    trails: List[List[Tuple[List[int], int, int]]] = [[] for _ in range(m)]
    spend = budget.spend
    d, lex, s = 0, (1 << max(k - 1, 0)) - 1, 0
    try:
        while d < m:
            # the label sets that hold the required labels and no
            # forbidden one are req | s, s over the subsets of free
            # labels in increasing order; s = -1 once they run out
            req = required[d]
            free = full & ~(req | forbidden[d])
            later = apart[d]
            while s >= 0:
                w = req | s
                # label blocks lexicographically nondecreasing as edge
                # indicator vectors
                if w and not lex & w & ~(w >> 1):
                    spend()
                    # forward check: the later edges in ``apart`` lose the
                    # labels of w; one left with no label, or with a
                    # required one, fails the branch
                    for f in later:
                        ban = forbidden[f] | w
                        if ban == full or ban & required[f]:
                            break
                    else:
                        trail: List[Tuple[List[int], int, int]] = []
                        for f, t in partners[d]:
                            common = w & words[f]
                            if not common:
                                continue
                            if t < d:
                                if common & ~words[t]:
                                    break
                            elif common & ~required[t]:
                                if common & forbidden[t]:
                                    break
                                trail.append((required, t, required[t]))
                                required[t] |= common
                        else:
                            for f in later:
                                trail.append((forbidden, f, forbidden[f]))
                                forbidden[f] |= w
                            break  # w is assigned: leave the while loop
                        for masks, t, old in reversed(trail):
                            masks[t] = old
                s = (s - free) & free or -1
            if s >= 0:
                words[d] = w
                lexes[d] = lex
                nexts[d] = (s - free) & free or -1
                trails[d] = trail
                lex &= ~(~w & (w >> 1))
                d += 1
                s = 0
            elif d == 0:
                return DecideResult("unsat", None, budget.nodes)
            else:
                d -= 1
                for masks, t, old in reversed(trails[d]):
                    masks[t] = old
                lex = lexes[d]
                s = nexts[d]
    except _OutOfBudget:
        return DecideResult("timeout", None, budget.nodes)

    # the label-i edges form disjoint cliques, so a class is a vertex and
    # its label-i neighbours, listed from its lowest vertex
    subgraphs = []
    for i in range(k):
        near: dict = {}
        for (u, v), w in zip(edges, words):
            if w >> i & 1:
                near.setdefault(u, [u]).append(v)
                near.setdefault(v, [v]).append(u)
        subgraphs.append([tuple(sorted(c)) for x, c in sorted(near.items()) if min(c) == x])
    return DecideResult(
        "sat", EquivalenceCover._from_sorted(h.n, subgraphs), budget.nodes
    )


# ---------------------------------------------------------------------------
# eyebrow covering decision
# ---------------------------------------------------------------------------


def _path_order(g: Graph) -> Optional[List[int]]:
    """The vertices path by path when g is a linear forest (maximum
    degree <= 2, no cycle), else None.  Paths are taken in order of
    their lower end and walked from it."""
    adj = g.adjacency
    if any(len(a) > 2 for a in adj):
        return None
    seen = [False] * g.n
    order: List[int] = []
    for start in range(g.n):
        if seen[start] or len(adj[start]) == 2:
            continue  # a path starts at a vertex of degree <= 1
        prev, v = -1, start
        while v >= 0:
            seen[v] = True
            order.append(v)
            prev, v = v, next((u for u in adj[v] if u != prev), -1)
    # a cycle has no vertex of degree <= 1, so its vertices stay unseen
    return order if len(order) == g.n else None


def decide_eyebrow(g: Graph, k: int, budget: Optional[Budget] = None) -> DecideResult:
    """Are there k vertex rankings such that, for every edge uv and third
    vertex w, some ranking r puts r[w] outside the interval of r[u], r[v]?

    k <= 1 is answered in closed form, without search nodes: with an
    edge and a third vertex, k = 0 fails, and one ranking works
    exactly when every edge joins consecutive ranks, that is when g is
    a linear forest (the witness lists the vertices path by path).  So
    is every k at or above the number of eyebrow rankings of K_n, and
    k >= 2 on a bipartite graph: side 0, then side 1, once each ascending
    and once each descending (a third vertex between an edge's ends is
    above the end on its side in one ranking, below it in the other).

    Other graphs are searched by inserting the vertices 2, 3, ... in
    index order into k vertex orders, each begun as [0, 1]: a ranking
    and its reverse leave the same vertices between each edge's ends, so
    every ranking of the witness puts vertex 0 below vertex 1.  A level
    tries the k-tuples of insertion points in lexicographic order, one
    node each, and keeps the first under which every (edge, third
    vertex) triple that the new vertex completes lies outside its edge
    in some order; later insertions keep the relative order of the
    vertices already placed, so the triple stays covered.  Orders are
    interchangeable, so two orders placed alike so far take their
    insertion points in nondecreasing order, and the other tuples cost
    no node.  The stack is explicit, one level per vertex.  Petersen
    and the Grötzsch graph are satisfied at k = 2 in 40 and 112 nodes,
    and K5 at k = 2 is refuted in 354.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    budget = budget or Budget()
    if g.m == 0 or g.n < 3:  # no edge has a third vertex
        cover = EyebrowCover._from_checked(g.n, [tuple(range(g.n))] * k)
        return DecideResult("sat", cover, budget.nodes)
    if k <= 1:
        order = _path_order(g) if k == 1 else None
        if order is None:
            return DecideResult("unsat", None, budget.nodes)
        cover = EyebrowCover(g.n, [_ranking(order)])
        return DecideResult("sat", cover, budget.nodes)
    if k >= construct.pullback_size(g.n, "eyebrow"):
        return DecideResult("sat", _kn_cover(g, "eyebrow", k), budget.nodes)
    try:
        side = bipartition(g)
    except NotBipartiteError:
        pass
    else:
        up, down = (_ranking(sorted(range(g.n), key=lambda v: (side[v], s * v))) for s in (1, -1))
        cover = EyebrowCover._from_checked(g.n, [up] + [down] * (k - 1))
        return DecideResult("sat", cover, budget.nodes)
    n, adj = g.n, g.adjacency
    # the edges by their higher end, so those below v come first; at[x]
    # has bit e for each edge e at x
    edges = sorted(g.edges, key=lambda e: e[::-1])
    ends = [b for _, b in edges]
    at = [0] * n
    for e, (a, b) in enumerate(edges):
        at[a] |= 1 << e
        at[b] |= 1 << e
    orders = [[0, 1] for _ in range(k)]
    stack: List[Tuple[List[int], int]] = []  # (points, ties) of each vertex placed
    v, points, ties = 2, [0] * k, (1 << (k - 1)) - 1  # bit i: orders i, i + 1 alike
    spend = budget.spend
    try:
        while v < n:
            # tables[i][p]: the bitset of the triples completed at v that
            # order i leaves open with v inserted at point p.  A vertex
            # lies between an edge's ends when it comes before exactly one
            # of them, so for the j-th of v's d lower neighbours u, bit
            # j * v + w (edge uv, third vertex w) is [w before v] ^
            # [w before u], and bit d * v + e (edge e = ab below v, third
            # vertex v) is [a before v] ^ [b before v].  The terms in v are
            # the steps of the vertices before p; the rest is a fixed base.
            lower = [u for u in adj[v] if u < v]
            d = len(lower)
            old = (1 << bisect_left(ends, v)) - 1  # the edges below v
            ones = sum(1 << (j * v) for j in range(d))
            steps = [(at[x] & old) << (d * v) | ones << x for x in range(v)]
            for j, u in enumerate(lower):
                steps[u] ^= 1 << (j * v + u)  # u is no third vertex of uv
            tables = []
            for order in orders:
                base = sum(
                    sum(1 << w for w in order[:order.index(u)]) << (j * v)
                    for j, u in enumerate(lower)
                )
                tables.append(list(accumulate(map(steps.__getitem__, order), xor, initial=base)))
            level = v
            while v == level:
                spend()
                if not reduce(and_, map(list.__getitem__, tables, points)):
                    for order, p in zip(orders, points):
                        order.insert(p, v)
                    stack.append((points, ties))
                    ties &= sum(1 << i for i in range(k - 1) if points[i] == points[i + 1])
                    v, points = v + 1, [0] * k
                    continue
                while min(points) == v:  # the level's last tuple: backtrack
                    if not stack:
                        return DecideResult("unsat", None, budget.nodes)
                    v -= 1
                    points, ties = stack.pop()
                    for order, p in zip(orders, points):
                        del order[p]
                # the next tuple: raise the last point below v, and give
                # each later one its least value
                i = max(i for i in range(k) if points[i] < v)
                points[i] += 1
                for j in range(i + 1, k):
                    points[j] = points[j - 1] if ties >> (j - 1) & 1 else 0
    except _OutOfBudget:
        return DecideResult("timeout", None, budget.nodes)
    cover = EyebrowCover._from_checked(n, [_ranking(order) for order in orders])
    return DecideResult("sat", cover, budget.nodes)


# ---------------------------------------------------------------------------
# chromatic number
# ---------------------------------------------------------------------------


def greedy_clique(g: Graph) -> Tuple[int, ...]:
    """Deterministic greedy clique (seeded at the max-degree vertex):
    by decreasing degree, lower index first, a vertex joins when it lies
    in the set of common neighbors of the clique so far."""
    if g.n == 0:
        return ()
    adj = g.adjacency
    order = sorted(range(g.n), key=[-len(a) for a in adj].__getitem__)
    clique = [order[0]]
    common = set(adj[order[0]])
    for v in order[1:]:
        if v in common:
            clique.append(v)
            common.intersection_update(adj[v])
    return tuple(sorted(clique))


def greedy_coloring(g: Graph) -> Coloring:
    """Saturation-guided greedy coloring (DSATUR; Brélaz, CACM 1979).

    The first descent of the k-coloring search with a color for every
    vertex, which never backtracks: each step gives the smallest free
    color to the uncolored vertex with the most distinct colors among
    its neighbors, ties to the higher degree, then to the lower index.
    It charges no caller's budget.
    """
    return _k_colorable(g, g.n, Budget())


def _k_colorable(g: Graph, k: int, budget: Budget) -> Optional[Coloring]:
    """Backtracking k-coloring with DSATUR branching and fresh colors
    introduced in order (color-permutation symmetry).

    Each level colors the uncolored vertex with the most distinct colors
    among its neighbors, ties to the higher degree, then to the lower
    index (a vertex with no color left fails the level), trying its
    colors in increasing order, one node each.  The colors in use all
    lie below the cap of allowed colors, so that is the vertex with the
    fewest allowed colors.  Bucket s is a heap of the (-degree, vertex)
    ranks pushed while a vertex had s forbidden colors; the highest
    non-empty bucket is popped, skipping entries whose vertex is colored
    or has moved to another bucket, and all buckets are rebuilt when
    pushes pile up.  The stack is explicit, one frame per colored
    vertex, so the depth (n) is not bounded by Python's recursion limit.
    """
    n = g.n
    if k <= 0:
        return Coloring([]) if n == 0 else None
    adj = g.adjacency
    degree = [len(a) for a in adj]
    order = sorted(range(n), key=[-d for d in degree].__getitem__)
    rank = sorted(range(n), key=order.__getitem__)  # inverse of order
    colors = [-1] * n
    forbid = [0] * n  # bitset of the colors on each vertex's neighbors
    sat = [0] * n  # the size of forbid
    full = (1 << k) - 1
    spend = budget.spend
    buckets = [list(range(n))] + [[] for _ in range(min(k, max(degree, default=0)))]
    top = 0
    pop, push = heapq.heappop, heapq.heappush
    # frames (vertex, colors left to try, neighbors its color touched,
    # colors in use below it)
    stack: List[tuple] = []
    maxused = 0
    pushes = 0
    while len(stack) < n:
        if pushes > 4 * n + 64:
            buckets = [[] for _ in buckets]
            for r, u in enumerate(order):
                if colors[u] < 0:
                    buckets[sat[u]].append(r)
            pushes = 0
        while True:
            bucket = buckets[top]
            if not bucket:
                top -= 1
                continue
            v = order[pop(bucket)]
            if colors[v] < 0 and sat[v] == top:
                break
        left = full & ((2 << maxused) - 1) & ~forbid[v]  # used colors and one fresh one
        below = maxused
        while not left:  # backtrack: v is uncolored again, undo the frame below
            s = sat[v]
            push(buckets[s], rank[v])
            if s > top:
                top = s
            if not stack:
                return None
            v, left, touched, below = stack.pop()
            off = ~(1 << colors[v])
            colors[v] = -1
            for u in touched:
                forbid[u] &= off
                s = sat[u] = sat[u] - 1
                push(buckets[s], rank[u])
            pushes += len(touched) + 1
        low = left & -left
        c = low.bit_length() - 1
        spend()
        colors[v] = c
        touched = []
        for u in adj[v]:
            if colors[u] < 0 and not forbid[u] & low:
                forbid[u] |= low
                s = sat[u] = sat[u] + 1
                push(buckets[s], rank[u])
                if s > top:
                    top = s
                touched.append(u)
        pushes += len(touched)
        stack.append((v, left ^ low, touched, below))
        maxused = below + 1 if c == below else below
    # fresh colors come in order, so 0..maxused-1 are all used
    return Coloring._from_dense(colors, maxused)


def exact_chromatic(g: Graph, budget: Optional[Budget] = None) -> SolveResult:
    """Chromatic number by increasing-k decision searches.

    Lower bound from a greedy clique, upper bound (and fallback witness)
    from a greedy coloring; status 'exact' with a proper coloring
    witness unless the budget runs out first.
    """
    budget = budget or Budget()
    if g.n == 0:
        return SolveResult("chi", 0, 0, "exact", Coloring([]), budget.nodes)
    if g.m == 0:
        return SolveResult("chi", 1, 1, "exact", Coloring([0] * g.n), budget.nodes)
    lb = max(2, len(greedy_clique(g)))
    greedy = greedy_coloring(g)
    ub = greedy.palette_size
    if lb >= ub:
        return SolveResult("chi", ub, ub, "exact", greedy, budget.nodes)
    for k in range(lb, ub):
        try:
            witness = _k_colorable(g, k, budget)
        except _OutOfBudget:
            return SolveResult(
                "chi", k, ub, _timeout_status(budget.exhausted), greedy, budget.nodes
            )
        if witness is not None:
            return SolveResult("chi", k, k, "exact", witness, budget.nodes)
    return SolveResult("chi", ub, ub, "exact", greedy, budget.nodes)


def elb_from_chi(g: Graph, chi: SolveResult) -> SolveResult:
    """elb(g) read off the chromatic result ``chi``, with no search of its own.

    Past the closed forms at k <= 1, elb <= k exactly when
    chi <= 2^(2^(k-1)) (both ways constructive: the elbow pullback and
    ``coloring_from_elbow_cover``), so chi's interval, raised to 3 off
    bipartite graphs, maps to elb's; the pullback of chi's coloring is
    the witness."""
    for k in (0, 1):
        witness = _closed_form_cover(g, k, "elbow")
        if witness is not None:
            return SolveResult("elb", k, k, "exact", witness, chi.nodes)
    witness = construct.elbow_cover_via_coloring(g, chi.witness)
    lo = construct.pullback_size(max(chi.lo, 3), "elbow")
    status = "exact" if lo == witness.k else chi.status
    return SolveResult("elb", lo, witness.k, status, witness, chi.nodes)


# ---------------------------------------------------------------------------
# minimization loops
# ---------------------------------------------------------------------------


def _greedy_matching_cover(g: Graph) -> EquivalenceCover:
    """Greedy proper edge coloring; matchings are equivalence subgraphs."""
    label_at: List[set] = [set() for _ in range(g.n)]
    labels = []
    for u, v in g.edges:
        c = 0
        while c in label_at[u] or c in label_at[v]:
            c += 1
        label_at[u].add(c)
        label_at[v].add(c)
        labels.append(c)
    k = max(labels) + 1 if labels else 0
    subgraphs: List[List[Tuple[int, int]]] = [[] for _ in range(k)]
    for e, c in enumerate(labels):
        subgraphs[c].append(g.edges[e])
    return EquivalenceCover(g.n, subgraphs)


def _upper_witness(g: Graph, invariant: str):
    """Constructive certificate closing the interval from above."""
    if invariant == "sigma":
        return construct.cover_via_coloring(g, greedy_coloring(g))
    if invariant == "eq":
        return _greedy_matching_cover(g)
    if invariant == "eye":
        return _kn_cover(g, "eyebrow")
    raise ValueError(f"unknown invariant {invariant!r}")


def solve_invariant(
    g: Graph, invariant: str, budget: Optional[Budget] = None
) -> SolveResult:
    """Minimize one invariant by deciding k = 0, 1, 2, ... in turn.

    The values are tiny, so no binary search; 'elb' is read off 'chi'.
    For 'eq' the graph is the host itself (pass a line graph to compute
    eq(L(G))).  Only the k below the constructive cover's size are
    decided: when all of them are unsatisfiable, that cover is the exact
    witness.  When the budget runs out, the cover certifies the
    interval's upper end and is returned as the witness.
    """
    if invariant == "chi":
        return exact_chromatic(g, budget)
    if invariant == "elb":
        return elb_from_chi(g, exact_chromatic(g, budget))
    upper = _upper_witness(g, invariant)  # ValueError for an unknown invariant
    budget = budget or Budget()
    decide = {"sigma": decide_sigma, "eq": decide_eq, "eye": decide_eyebrow}[invariant]
    for k in range(upper.k):
        res = decide(g, k, budget)
        if res.status == "sat":
            return SolveResult(invariant, k, k, "exact", res.witness, budget.nodes)
        if res.status == "timeout":
            return SolveResult(
                invariant,
                k,
                upper.k,
                _timeout_status(budget.exhausted),
                upper,
                budget.nodes,
            )
    return SolveResult(invariant, upper.k, upper.k, "exact", upper, budget.nodes)
