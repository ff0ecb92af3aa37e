"""Constructive conversions between covering certificates.

Each function here emits a certificate that the verify module accepts;
the proofs behind them are constructive, so the outputs double as
machine-checkable evidence for the size relations between the
invariants:

    eq(L(G)) <= sigma(G) <= 3 eq(L(G))       (out-stars / 1 or 3 orientations per subgraph)
    elb(G) <= sigma(G) <= 2 elb(G)           (reversal doubling)
    elb(K_n) = ceil(log2 log2 n) + 1, n >= 3 (self-composition doubling)
    sigma(G) <= sigma(K_c) for any proper c-coloring (pullback)
    chi(G) <= M(k) for a size-k orientation covering, k >= 3, M(k) the
        number of maximal intersecting families on [k] (extraction)

The converse from an equivalence covering of L(G) spends three
orientations only on a subgraph with a triangle class, so on a
triangle-free host, where eq(L(G)) = sigma(G), it preserves size.
Every converter first checks its input cover with the verify module
and raises InvalidCoverError, carrying the witness, when it fails.
Every complete-graph base is kept as vertex rankings, so a pullback
compares the ranks of the endpoint colors and no K_c is built.
A pullback takes the coloring it pulls back along: the callers choose
one (the greedy and exact colorings are in exact), so nothing here searches.
Arbitrary direction choices are everywhere fixed as low-endpoint to
high-endpoint, so identical inputs give identical certificates.
"""

from __future__ import annotations

from itertools import count, product
from typing import Dict, List, Optional, Sequence, Tuple

from .covers import EquivalenceCover, EquivalenceSubgraph, OrientationCover, Violation
from .graphs import Coloring, Graph, bipartition
from .linegraph import LineGraphMap
from .verify import (
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)


class InvalidCoverError(ValueError):
    """An input cover failed verification; the witness is ``violation``."""

    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"input cover is invalid: {violation.line()}")


def _require_valid(violation: Optional[Violation]) -> None:
    """Raise InvalidCoverError for the violation an input cover's verifier found."""
    if violation is not None:
        raise InvalidCoverError(violation)


# Every complete-graph base is a list of vertex rankings: ranking r
# orients {a, b} as a -> b exactly when r[a] < r[b].
# Five rankings of K_16 whose orientations cover it (size five).
K16_RANK_ROWS: Tuple[Tuple[int, ...], ...] = (
    (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    (12, 10, 9, 5, 3, 8, 4, 2, 6, 1, 11, 7, 13, 14, 15, 0),
    (13, 10, 9, 2, 7, 11, 4, 6, 1, 8, 3, 5, 14, 15, 0, 12),
    (14, 6, 7, 8, 5, 3, 2, 11, 9, 10, 4, 1, 15, 0, 12, 13),
    (15, 4, 3, 9, 10, 2, 11, 5, 8, 6, 1, 7, 0, 12, 13, 14),
)
# Elbow covering of K_4 of size two: vertex orders (0,1,2,3) and (2,0,3,1).
K4_ELBOW_RANKS: Tuple[Tuple[int, ...], ...] = ((0, 1, 2, 3), (1, 3, 0, 2))
# Orientation covering of K_4 of size three, pinned from the exact solver.
K4_SIGMA3_RANKS: Tuple[Tuple[int, ...], ...] = ((0, 3, 1, 2), (3, 0, 1, 2), (3, 2, 1, 0))
# Two-source covering of K_2: each side in turn ranks first.
K2_RANKS: Tuple[Tuple[int, ...], ...] = ((0, 1), (1, 0))


# The pinned orientation-covering bases of K_2, K_4 and K_16, by the size
# of the elbow base of the palettes they serve.
_SIGMA_BASES = (K2_RANKS, K4_SIGMA3_RANKS, K16_RANK_ROWS)


def pullback_size(c: int, kind: str) -> int:
    """Size of the cover a palette of c colors pulls back to: through
    ``cover_via_coloring`` for kind 'orientation', ``elbow_cover_via_coloring``
    for 'elbow'; for 'eyebrow' (c >= 3) the number of eyebrow rankings
    of K_c.  No ranking is built: each elbow ranking added squares the
    side of the complete graph covered, from one ranking of K_2."""
    size, side = 1, 2
    while side < c:
        size, side = size + 1, side * side
    if kind != "orientation":
        return size
    return len(_SIGMA_BASES[size - 1]) if size <= len(_SIGMA_BASES) else 2 * size


def _elbow_ranks(n: int) -> List[List[int]]:
    """Rankings of the elbow covering of K_n, n >= 3: ``elbow_double``
    on rankings, from K_4 until n vertices, keeping the first n entries.

    Vertex x of K_{s*s} is the pair (x // s, x % s).  Ranking r becomes
    r[x//s]*s + r[x%s] (first coordinate decides, the second breaks
    ties); the added ranking r0[x//s]*s - r0[x%s] follows ranking 0
    across blocks and reverses it within one.  Each ranking's entries
    span fewer than s*s values, so the next squaring stays lexicographic.
    """
    ranks = [list(r) for r in K4_ELBOW_RANKS]
    side = 4
    while side < n:
        s, side = side, side * side
        xs = range(min(n, side))
        r0 = ranks[0]
        ranks = [[r[x // s] * s + r[x % s] for x in xs] for r in ranks]
        ranks.append([r0[x // s] * s - r0[x % s] for x in xs])
    return [r[:n] for r in ranks]


def _rank_words(
    edges: Sequence[Tuple[int, int]], colors: Sequence[int], ranks: Sequence[Sequence[int]]
) -> List[int]:
    """Per-edge words pulled back along a proper coloring: bit i of the
    word of uv (u < v) is set when ranks[i] puts colors[u] below
    colors[v].  One word is computed per distinct color pair."""
    memo: Dict[Tuple[int, int], int] = {}
    out = []
    for u, v in edges:
        key = (colors[u], colors[v])
        w = memo.get(key)
        if w is None:
            a, b = key
            w = memo[key] = sum(1 << i for i, r in enumerate(ranks) if r[a] < r[b])
        out.append(w)
    return out


def _base_ranks(c: int, kind: str) -> Sequence[Sequence[int]]:
    """The smallest known covering of K_c of the kind, as rankings: for
    'elbow' one ranking of K_2, else the squared K_4 ones; for 'orientation'
    the pinned K_2, K_4 and K_16 bases, else the elbow rankings and their
    reversals.  Their number is ``pullback_size(c, kind)``."""
    size = pullback_size(c, "elbow")
    if kind == "elbow":
        return K2_RANKS[:1] if size == 1 else _elbow_ranks(c)
    if size <= len(_SIGMA_BASES):
        return _SIGMA_BASES[size - 1]
    elbow = _elbow_ranks(c)
    return elbow + [[-x for x in r] for r in elbow]


def _pullback(
    g: Graph, colors: Sequence[int], ranks: Sequence[Sequence[int]], kind: str, k: int = 0
) -> OrientationCover:
    """The cover of g pulled back from the base ``ranks`` along the dense
    proper coloring ``colors`` (the callers check it), its last ranking
    repeated up to size k: every cover built from a coloring is made here."""
    ranks = [*ranks, *ranks[-1:] * (k - len(ranks))]
    words = _rank_words(g.edges, colors, ranks)
    return OrientationCover._from_words((g.n, g.m), len(ranks), words, kind)


def _complete_cover(ranks: Sequence[Sequence[int]], kind: str) -> OrientationCover:
    """The covering of K_n, n = len(ranks[0]), given by the rankings,
    filled one row of the edge list at a time; ``pack`` maps the tuple
    of comparison outcomes (bools, equal to 0 and 1 as keys) to a word."""
    n, k = len(ranks[0]), len(ranks)
    pack = {bits: sum(b << i for i, b in enumerate(bits)) for bits in product((0, 1), repeat=k)}
    words: List[int] = []
    for a in range(n - 1):
        row = zip(*(map(r[a].__lt__, r[a + 1 :]) for r in ranks))
        words.extend(map(pack.__getitem__, row))
    return OrientationCover._from_words((n, len(words)), k, words, kind)


def k16_table_cover() -> Tuple[Tuple[Tuple[int, ...], ...], OrientationCover]:
    """The five hardcoded rankings of K_16 and their induced orientations."""
    return K16_RANK_ROWS, _complete_cover(K16_RANK_ROWS, "orientation")


def k4_sigma3_cover() -> OrientationCover:
    """The pinned size-three orientation covering of K_4."""
    return _complete_cover(K4_SIGMA3_RANKS, "orientation")


def k4_elbow_base() -> OrientationCover:
    """The size-two elbow covering of K_4 from the two pinned vertex orders."""
    return _complete_cover(K4_ELBOW_RANKS, "elbow")


# ---------------------------------------------------------------------------
# orientation covers <-> equivalence covers of the line graph
# ---------------------------------------------------------------------------


def _out_classes(host: Graph, words: Sequence[int], i: int) -> EquivalenceSubgraph:
    """The out-edge set of every vertex with out-degree >= 1 in
    orientation i, given the per-edge words (bit i set when the edge
    runs out of its low endpoint).  The classes are disjoint, as every
    edge runs out of one endpoint, and each is a clique of L(host), as
    its edges share their tail."""
    out: List[List[int]] = [[] for _ in range(host.n)]
    for e, (u, v), w in zip(count(), host.edges, words):
        out[u if w >> i & 1 else v].append(e)
    return tuple(map(tuple, filter(None, out)))


def out_star_eq_cover(g: Graph, c: OrientationCover) -> EquivalenceCover:
    """Equivalence covering of L(g), of size k, from a valid size-k
    orientation covering of g: subgraph i holds the out-stars of
    orientation i.  Only g is read; L(g) is never built."""
    _require_valid(verify_orientation_cover(g, c))
    return EquivalenceCover._from_sorted(
        g.m,
        [_out_classes(g, c.words, i) for i in range(c.k)],
    )


def eq_cover_from_orientation_cover(
    lm: LineGraphMap, c: OrientationCover
) -> EquivalenceCover:
    """``out_star_eq_cover(lm.host, c)``.  Kept for ``bench/`` until
    ROADMAP item 1 moves the benchmark to ``out_star_eq_cover``."""
    return out_star_eq_cover(lm.host, c)


def orientation_cover_from_eq_cover(
    lm: LineGraphMap, c: EquivalenceCover
) -> OrientationCover:
    """Orientation covering from a valid equivalence covering of L(G):
    one orientation per equivalence subgraph made of stars, three per
    subgraph with a triangle class, so the size stays within 3k and
    equals k on a triangle-free host.

    A class of a line graph's equivalence subgraph is a star (edges
    sharing a host vertex) or a host triangle.  Star edges point out of
    the shared vertex and all other edges low -> high.  For the
    edge-disjoint triangles abc (a < b < c) of one subgraph, orientation
    j makes the j-th vertex the source of its two triangle edges, the
    third edge low -> high; stars and free edges keep one direction in
    all three.  Edges ab, ac, bc are the class in edge-index order, and
    ab runs out of its high end in orientation 1, ac and bc in
    orientation 2.
    """
    host = lm.host
    _require_valid(verify_equivalence_cover(lm.line, c))
    edges = host.edges
    high = [0] * host.m  # bits of the orientations directing the edge out of its high end
    k = 0
    for sub in c.subgraphs:
        reversed_edges: List[int] = []
        triangles: List[Sequence[int]] = []
        for cls in sub:
            if len(cls) < 2:
                continue
            ends = [set(edges[e]) for e in cls]
            shared = ends[0].intersection(*ends[1:])
            if shared:
                (s,) = shared
                reversed_edges.extend(e for e in cls if edges[e][1] == s)
            else:  # three edges meeting pairwise at three vertices
                triangles.append(cls)
        width = 3 if triangles else 1
        for e in reversed_edges:
            high[e] |= ((1 << width) - 1) << k
        for ab, ac, bc in triangles:
            high[ab] |= 2 << k
            high[ac] |= 4 << k
            high[bc] |= 4 << k
        k += width
    full = (1 << k) - 1
    return OrientationCover(
        (host.n, host.m), k, [full ^ x for x in high], "orientation"
    )


# ---------------------------------------------------------------------------
# elbow machinery
# ---------------------------------------------------------------------------


def _require_complete(g: Graph) -> None:
    if g.m != g.n * (g.n - 1) // 2:
        raise ValueError(f"expected a complete graph, got n={g.n}, m={g.m}")


def elbow_double(g: Graph, base: OrientationCover) -> OrientationCover:
    """Square a complete-graph elbow covering: k orientations of K_n
    become k+1 of K_{n*n}.

    Vertices of the big graph are pairs (a, b) flattened as a*n + b.
    Orientation i <= k composes base orientation i with itself
    (first coordinate decides, ties broken by the second); the extra
    orientation composes base orientation 1 with its own reversal.
    """
    _require_complete(g)
    base.require_match(g)
    if base.k == 0:
        raise ValueError("doubling needs at least one orientation")
    _require_valid(verify_elbow_cover(g, base))
    n, k = g.n, base.k
    # the extra orientation follows base orientation 0 across blocks and
    # its reversal within a block
    across = {e: w | (w & 1) << k for e, w in zip(g.edges, base.words)}
    within = {e: w | (~w & 1) << k for e, w in zip(g.edges, base.words)}
    # big edges (x, y), x < y, in index order: first the rest of x's
    # block, then every vertex of each later block
    words: List[int] = []
    for a in range(n):
        for b in range(n):
            words.extend(within[b, d] for d in range(b + 1, n))
            for c in range(a + 1, n):
                words.extend([across[a, c]] * n)
    return OrientationCover((n * n, len(words)), k + 1, words, "elbow")


def elbow_cover_complete(n: int) -> OrientationCover:
    """Elbow covering of K_n of size ceil(log2 log2 n) + 1 for n >= 3.

    K_1 and K_2 have no 2-edge path and take the empty covering; larger
    n reads the squared K_4 rankings of ``_elbow_ranks`` off K_n's edges,
    so no larger complete graph is built.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n <= 2:
        m = n * (n - 1) // 2
        return OrientationCover((n, m), 0, [0] * m, "elbow")
    return _complete_cover(_elbow_ranks(n), "elbow")


def orientation_cover_from_elbow(g: Graph, c: OrientationCover) -> OrientationCover:
    """Orientation covering of size 2k: the elbow orientations followed by
    their edge-wise reversals."""
    _require_valid(verify_elbow_cover(g, c))
    full = (1 << c.k) - 1
    words = [w | ((full ^ w) << c.k) for w in c.words]
    return OrientationCover((g.n, g.m), 2 * c.k, words, "orientation")


# ---------------------------------------------------------------------------
# covers from colorings and colorings from covers
# ---------------------------------------------------------------------------


def bipartite_orientation_cover(g: Graph) -> OrientationCover:
    """Size-two covering of a bipartite graph: all of side A sources,
    then all of side B."""
    side = bipartition(g)  # NotBipartiteError carries an odd cycle
    return _pullback(g, side, K2_RANKS, "orientation")


def cover_via_coloring(g: Graph, coloring: Coloring) -> OrientationCover:
    """Orientation covering pulled back from the covering of K_c
    (``_base_ranks``), c the palette size of the proper coloring of g.

    On two colors each color class in turn is the sources, so the cover
    follows the given coloring, not a bipartition of its own.  The word
    of an edge compares the ranks of its endpoint colors, so no K_c is
    built.  The caller chooses the coloring; nothing here searches.
    """
    coloring.require_proper(g)
    dense = coloring.dense()
    ranks = _base_ranks(dense.palette_size, "orientation")
    return _pullback(g, dense.colors, ranks, "orientation")


def elbow_cover_via_coloring(g: Graph, coloring: Coloring) -> OrientationCover:
    """Elbow covering pulled back from the elbow covering of K_c
    (``_base_ranks``), c the palette size of the proper coloring of g.

    The pullback stays an elbow covering even though distinct endpoints
    of a 2-edge path may share a color: the two edges then pull from one
    target edge, so their masks at the center coincide and cannot
    partition the index set.
    """
    coloring.require_proper(g)
    dense = coloring.dense()
    return _pullback(g, dense.colors, _base_ranks(dense.palette_size, "elbow"), "elbow")


def _bit0_clear_masks(g: Graph, c: OrientationCover) -> List[set]:
    """Each vertex's set of bit-0-clear masks, in one pass: an edge shows
    the mask of the orientations directing it out of each end (its word
    at the low end, the complement at the high end), and hands the one
    with bit 0 clear to the endpoint that sees it."""
    full = (1 << c.k) - 1
    seen: List[set] = [set() for _ in range(g.n)]
    for (u, v), x in zip(g.edges, c.words):
        if x & 1:
            seen[v].add(full ^ x)
        else:
            seen[u].add(x)
    return seen


def coloring_from_elbow_cover(g: Graph, c: OrientationCover) -> Coloring:
    """Proper coloring with at most 2^(2^(k-1)) colors from a valid
    size-k elbow covering.

    A vertex's color is the set of the bit-0-clear masks it sees
    (``_bit0_clear_masks``), numbered by first occurrence.  Adjacent
    vertices differ: the edge's mask X with bit 0 clear is seen at one
    end, and the other end sees its complement, so it cannot also see X
    (the two would partition [k], leaving a 2-edge path uncovered).
    One pass over the edges, so no work grows with 2^k.
    """
    _require_valid(verify_elbow_cover(g, c))
    if c.k == 0:
        if g.m == 0:
            return Coloring([0] * g.n)
        raise ValueError("a zero-orientation covering only colors edgeless graphs")
    palette: Dict[frozenset, int] = {}
    coloring = Coloring(
        [palette.setdefault(frozenset(s), len(palette)) for s in _bit0_clear_masks(g, c)]
    )
    coloring.require_proper(g)
    return coloring


def _minimal_masks(masks: frozenset) -> frozenset:
    """The masks that contain no other mask of the set."""
    kept: List[int] = []
    for x in sorted(masks, key=int.bit_count):
        if all(y & ~x for y in kept):
            kept.append(x)
    return frozenset(kept)


def coloring_from_orientation_cover(g: Graph, c: OrientationCover) -> Coloring:
    """Proper coloring with at most M(k) colors from a valid orientation
    covering of size k >= 3, M(k) the number of maximal intersecting
    families on [k] (4, 12, 81, 2646 for k = 3..6).

    The masks a vertex of degree >= 2 sees are non-empty and pairwise
    intersecting, so its bit-0-clear ones, S, span the maximal
    intersecting family Up(S) with, from each pair {y, [k] \\ y} that
    Up(S) leaves out, the member containing 0.  That family is the
    vertex's color; the minimal elements of S stand for it, numbered by
    first occurrence and computed once per distinct S.  Adjacent
    vertices differ: the edge's bit-0-clear mask X at u lies in u's
    family, while every other mask v sees meets the complement of X, so
    none lies inside X.  Vertices of degree <= 1 are then colored
    greedily in vertex order, so they use colors 0 and 1 only.  No work
    grows with 2^k.
    """
    if c.k < 3:
        raise ValueError("needs a covering of size at least 3")
    _require_valid(verify_orientation_cover(g, c))
    adj = g.adjacency
    colors = [-1] * g.n
    families: Dict[frozenset, int] = {}  # minimal masks -> color
    memo: Dict[frozenset, int] = {}  # bit-0-clear masks seen -> color
    for v, s in enumerate(_bit0_clear_masks(g, c)):
        if len(adj[v]) >= 2:
            s = frozenset(s)
            color = memo.get(s)
            if color is None:
                color = memo[s] = families.setdefault(_minimal_masks(s), len(families))
            colors[v] = color
    for v in range(g.n):
        if colors[v] < 0:  # degree <= 1: color 0 unless its neighbor has it
            colors[v] = int(any(colors[u] == 0 for u in adj[v]))
    coloring = Coloring(colors)
    coloring.require_proper(g)
    return coloring
