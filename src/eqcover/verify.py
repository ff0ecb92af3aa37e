"""Certificate verifiers.

A cover by k orientations stores, per edge e, its word: the k-bit mask
of the orientations directing e out of its low endpoint.  Seen from the
high endpoint, the mask out(v, e) of orientations directing e out of v
is the complement of the word within the k used bits.  The two
covering properties become pair predicates on these masks at a shared
vertex:

  orientation covering:  out(v, e) AND out(v, f) != 0
        (some orientation directs both e and f out of v)

  elbow covering:        out(v, e) and out(v, f) do not partition [k]
        (some orientation has e, f both out of v or both into v;
         when the masks partition, the 2-edge path through v is
         traversed as a directed path by every orientation)

Whether a vertex is bad depends only on which masks it sees and how
often, so the check runs on masks, not on pairs: one pass over the
edges in index order keeps, per vertex, the bitset of masks met so far,
and tests each arriving mask against its row of a 2^k-row bad-pair
table (row x is the bitset of the masks bad with x).  A mask bad with
itself has its own bit in its row, so meeting it twice is caught too.
Edges are sorted, so once an edge's low endpoint reaches the lowest bad
vertex found, every vertex below it has been seen whole and the pass
stops.  Above eight orientations, too wide for the table, the pass
counts the masks each vertex meets, and the first bad vertex is the
first whose distinct masks, one met twice listed twice, hold a bad
pair.  Only at that vertex does the row-major pair scan run, to pick
the witness, on its edges read off the sorted edge list.  The colour
extractions in construct read their masks off the same pass, whole
for every vertex of a valid cover.  An eyebrow cover is checked with
vertex bitsets: per ranking, the vertices ranked strictly between
u and v are a difference of two prefix sets.

Verifiers return None for a valid cover and the lexicographically first
Violation otherwise (smallest vertex, then smallest pair of edge
indices; for eyebrow coverings, smallest edge index then third vertex).
They are pure: permuting the cover's orientations (one bit order for
every word) or its rankings never changes the result status.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from itertools import chain, combinations, compress, islice, repeat
from operator import eq, itemgetter
from typing import Iterable, List, Optional, Tuple

from .covers import (
    ElbowViolation,
    EquivalenceCover,
    EquivalenceViolation,
    EyebrowCover,
    EyebrowViolation,
    OrientationCover,
    OrientationViolation,
)
from .graphs import Graph, ShapeError

_TABLE_MAX_K = 8  # a 2^k x 2^k bad-pair table; wider covers count their masks
_EVEN_MASKS = int("01" * (1 << _TABLE_MAX_K - 1), 2)  # the masks with bit 0 clear, as a bitset


def _first_bad_pair(viewed: List[int], full: int, elbow: bool) -> Optional[Tuple[int, int]]:
    """First (i, j), i < j, violating the pair predicate, row-major order."""
    for i, j in combinations(range(len(viewed)), 2):
        if viewed[i] & viewed[j] == 0 and (not elbow or viewed[i] | viewed[j] == full):
            return i, j
    return None


@lru_cache(maxsize=None)
def _word_tables(k: int, elbow: bool) -> Tuple[Tuple[int, ...], ...]:
    """Indexed by an edge's word w: the bad-pair rows of the masks that
    its low and its high endpoint see, w and its complement, and the
    one-hot bit of each.  Row x is the bitset of the k-bit masks y that
    make (x, y) a bad pair, by the same predicate as _first_bad_pair."""
    full = (1 << k) - 1
    masks = range(full + 1)
    rows = tuple(
        sum(1 << y for y in masks if x & y == 0 and (not elbow or x | y == full))
        for x in masks
    )
    high = [full ^ w for w in masks]
    return (
        rows,
        tuple(map(rows.__getitem__, high)),
        tuple(1 << w for w in masks),
        tuple(1 << x for x in high),
    )


def _first_bad_vertex(g: Graph, cover: OrientationCover, elbow: bool) -> Tuple[Optional[int], list]:
    """The first vertex with a bad pair of incident edges, or None, by
    one pass over the edges, and per vertex the masks it met, whole when
    none is bad: a bitset (bit x for mask x) tried against the bad-pair
    table up to _TABLE_MAX_K orientations, above that a dict from each
    mask met to how often, a mask met twice listed twice for the pair test."""
    cover.require_match(g)
    if cover.k > _TABLE_MAX_K:
        full = (1 << cover.k) - 1
        met: List[dict] = [{} for _ in range(g.n)]
        for (u, v), w in zip(g.edges, cover.words):
            at = met[u]
            at[w] = at.get(w, 0) + 1
            at, w = met[v], full ^ w
            at[w] = at.get(w, 0) + 1
        listed = ([*at, *(x for x, c in at.items() if c > 1)] for at in met)
        bad = (v for v, masks in enumerate(listed) if _first_bad_pair(masks, full, elbow))
        return next(bad, None), met
    low_rows, high_rows, low_bits, high_bits = _word_tables(cover.k, elbow)
    seen = [0] * g.n
    first = g.n
    for (u, v), w in zip(g.edges, cover.words):
        if u >= first:
            break
        at = seen[u]
        if at & low_rows[w]:
            first = u
        seen[u] = at | low_bits[w]
        at = seen[v]
        if at & high_rows[w] and v < first:
            first = v
        seen[v] = at | high_bits[w]
    return (first if first < g.n else None), seen


def _bit0_clear(met) -> object:
    """A hashable key for the bit-0-clear masks in a vertex's masks met by
    _first_bad_vertex: the bitset's even bits, or a frozenset of them."""
    return frozenset(x for x in met if not x & 1) if isinstance(met, dict) else met & _EVEN_MASKS


def _key_masks(key) -> Iterable[int]:
    """The masks in a _bit0_clear key."""
    return key if isinstance(key, frozenset) else [x for x in range(key.bit_length()) if key >> x & 1]


def _edges_at(g: Graph, v: int) -> List[int]:
    """Indices of the edges at v, ascending, read off the sorted edges
    without the incidence table: the edges (u, v), u < v, found in one
    scan of the edges before the run of edges (v, w), then that run."""
    start = bisect_left(g.edges, (v,))  # (v,) sorts before every (v, w)
    end = bisect_left(g.edges, (v + 1,), start)
    highs = map(itemgetter(1), islice(g.edges, start))
    return list(compress(range(start), map(eq, highs, repeat(v)))) + list(range(start, end))


def _first_violation(g: Graph, cover: OrientationCover, elbow: bool):
    """(v, e, f): the first vertex with a violated pair of incident
    edges and its row-major first such pair, or None."""
    v = _first_bad_vertex(g, cover, elbow)[0]
    if v is None:
        return None
    inc, full = _edges_at(g, v), (1 << cover.k) - 1
    masks = [cover.words[e] if g.edges[e][0] == v else full ^ cover.words[e] for e in inc]
    i, j = _first_bad_pair(masks, full, elbow)
    return v, inc[i], inc[j]


def verify_orientation_cover(
    g: Graph, cover: OrientationCover
) -> Optional[OrientationViolation]:
    """None if every pair of distinct incident edges is jointly
    out-directed somewhere; else the first uncovered (v, e, f)."""
    found = _first_violation(g, cover, elbow=False)
    if found is None:
        return None
    v, e, f = found
    return OrientationViolation(v, g.edges[e], g.edges[f])


def verify_elbow_cover(g: Graph, cover: OrientationCover) -> Optional[ElbowViolation]:
    """None if every 2-edge path is non-directed in some orientation;
    else the first always-directed path (u, v, w)."""
    found = _first_violation(g, cover, elbow=True)
    if found is None:
        return None
    v, e, f = found
    return ElbowViolation((g.other_endpoint(e, v), v, g.other_endpoint(f, v)))


def verify_eyebrow_cover(g: Graph, cover: EyebrowCover) -> Optional[EyebrowViolation]:
    """None if for every edge uv and third vertex w some ranking ranks
    w outside the open interval spanned by u and v."""
    if cover.n != g.n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={g.n}")
    spans = []  # per ranking: the ranks, and below[r] = vertices ranked below r
    for ranks in cover.rankings:
        below, acc = [], 0
        for v in sorted(range(g.n), key=ranks.__getitem__):
            below.append(acc)
            acc |= 1 << v
        spans.append((ranks, below))
    everyone = (1 << g.n) - 1
    for u, v in g.edges:
        between = everyone ^ (1 << u) ^ (1 << v)
        for ranks, below in spans:
            lo, hi = ranks[u], ranks[v]
            if lo > hi:
                lo, hi = hi, lo
            between &= below[hi] & ~below[lo + 1]
        if between:
            return EyebrowViolation((u, v), (between & -between).bit_length() - 1)
    return None


def verify_equivalence_cover(
    h: Graph, cover: EquivalenceCover
) -> Optional[EquivalenceViolation]:
    """None iff classes are disjoint cliques and every edge of h lies
    inside some class of some subgraph.

    Scan order (fixes the reported witness): subgraphs in order; within
    one, overlapping classes first (by class index, then vertex), then
    missing clique edges (by class index, then pair); finally uncovered
    host edges by edge index.

    Each subgraph is first checked in one pass: a range and overlap test
    on its flattened classes, and one map from its class pairs to host
    edge indices.  Only a subgraph that fails it is scanned in the order
    above, so the witness is the one that scan picks.
    """
    if cover.n != h.n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={h.n}")
    index = h._index
    covered = set()
    for si, sub in enumerate(cover.subgraphs):
        members = list(chain.from_iterable(sub))
        covered.update(map(index.get, chain.from_iterable(map(combinations, sub, repeat(2)))))
        if (
            None in covered
            or len(set(members)) < len(members)
            or (members and (min(members) < 0 or max(members) >= h.n))
        ):
            return _first_fault(h, si, sub)
    if len(covered) < h.m:
        e = next(e for e in range(h.m) if e not in covered)
        return EquivalenceViolation("uncovered", edge=h.edges[e])
    return None


def _first_fault(h: Graph, si: int, sub) -> EquivalenceViolation:
    """The first overlap or missing clique edge of subgraph si, in scan
    order; ShapeError if an out-of-range vertex comes first."""
    index = h._index
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
            if (a, b) not in index:  # classes are sorted, so a < b
                return EquivalenceViolation(
                    "not-a-clique",
                    subgraph=si,
                    class_index=ci,
                    edge=(a, b),
                )
    raise AssertionError(f"subgraph {si} has no fault")


# Each cover-file kind, in COVER_KINDS order: the cover type its file
# holds and the verifier that checks it.
VERIFIERS = {
    "orientation": (OrientationCover, verify_orientation_cover),
    "elbow": (OrientationCover, verify_elbow_cover),
    "eyebrow": (EyebrowCover, verify_eyebrow_cover),
    "equivalence": (EquivalenceCover, verify_equivalence_cover),
}
