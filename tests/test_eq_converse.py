"""The equivalence-to-orientation converter and the violation rechecks
work on the per-edge words.

``orientation_cover_from_eq_cover`` emits one orientation per
equivalence subgraph made of stars and three per subgraph with a
triangle class.  The reference copies below are the earlier converters,
which built one orientation at a time from its direction bits: a
size-preserving one that rejected hosts with a triangle, and a general
one that emitted three orientations for every subgraph.  On a
triangle-free host the words must equal the first's; on any host they
must equal the second's with each star-only triple collapsed to one
orientation.  The word-based ``recheck`` of the orientation and elbow
violations must agree with copies that read each orientation's arrows
on every candidate witness.
"""

import random
from itertools import product
from typing import List, Optional, Sequence, Tuple

from eqcover import (
    EquivalenceCover,
    Graph,
    greedy_coloring,
    InvalidCoverError,
    OrientationCover,
    cover_via_coloring,
    decide_eq,
    find_triangle,
    generate_family,
    line_graph,
    orientation_cover_from_eq_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)
from eqcover.construct import out_star_eq_cover
from eqcover.covers import ElbowViolation, OrientationViolation
from eqcover.exact import _greedy_matching_cover
from eqcover.linegraph import LineGraphMap

from cover_words import arrow, cover_from_directions


# ---------------------------------------------------------------------------
# reference copies of the converters and rechecks, one orientation at a
# time (direction bits and arrows, not words)
# ---------------------------------------------------------------------------


class TriangleError(ValueError):
    """A triangle-free host was required; ``triangle`` is the witness."""

    def __init__(self, triangle: Tuple[int, int, int]):
        self.triangle = triangle
        super().__init__(f"host graph contains triangle {triangle}")


class StructureError(ValueError):
    """A class shape that cannot occur in a line graph's equivalence subgraph."""


class _ReferenceMap:
    """The line graph map the reference copies read: host, line, and the
    cliques C_v of L(G) as frozensets."""

    def __init__(self, lm: LineGraphMap):
        self.host, self.line = lm.host, lm.line
        self.cliques = tuple(frozenset(lm.host.incident(v)) for v in range(lm.host.n))


def _class_direction_bits(
    host: Graph, lm: LineGraphMap, classes: Sequence[Sequence[int]]
) -> List[Optional[int]]:
    """Directions forced by star classes; None where a class leaves the
    edge free (single-member classes and unclassed edges).

    For a class member e = uv with class mates all incident to u, the
    edge is sent out of u (toward v); symmetrically for v.  Mates split
    between the two endpoint cliques cannot occur in a verified cover of
    a triangle-free host.
    """
    bits: List[Optional[int]] = [None] * host.m
    for cls in classes:
        for e in cls:
            mates = [x for x in cls if x != e]
            if not mates:
                continue
            u, v = host.edges[e]
            if all(x in lm.cliques[u] for x in mates):
                bits[e] = 0  # out of the low endpoint u
            elif all(x in lm.cliques[v] for x in mates):
                bits[e] = 1
            else:
                raise StructureError(
                    f"class {tuple(cls)} is neither a star nor a triangle"
                )
    return bits


def reference_trifree(
    lm: LineGraphMap, c: EquivalenceCover
) -> OrientationCover:
    """Size-preserving converse for triangle-free hosts.

    Every clique of L(G) then lies inside a single endpoint clique C_v,
    so each class forces its edges out of the shared vertex; edges with
    no class mates default to low -> high.
    """
    host = lm.host
    triangle = find_triangle(host)
    if triangle is not None:
        raise TriangleError(triangle)
    violation = verify_equivalence_cover(lm.line, c)
    if violation is not None:
        raise InvalidCoverError(violation)
    shape = (host.n, host.m)
    orientations = []
    for sub in c.subgraphs:
        bits = _class_direction_bits(host, lm, sub)
        orientations.append([0 if b is None else b for b in bits])
    return cover_from_directions(shape, orientations)


def reference_general(
    lm: LineGraphMap, c: EquivalenceCover
) -> OrientationCover:
    """General converse: three orientations per equivalence subgraph.

    Classes of a line graph's equivalence subgraph are stars (edges
    sharing a host vertex) or host triangles.  Star classes point out of
    their shared vertex in all three emitted orientations; for the
    edge-disjoint triangle classes, orientation j makes each triangle's
    j-th vertex (sorted order) the source of its two edges, third edge
    low -> high; everything else low -> high.
    """
    host = lm.host
    violation = verify_equivalence_cover(lm.line, c)
    if violation is not None:
        raise InvalidCoverError(violation)
    shape = (host.n, host.m)
    orientations = []
    for sub in c.subgraphs:
        stars: List[Sequence[int]] = []
        triangles: List[Tuple[int, int, int]] = []
        for cls in sub:
            if len(cls) <= 1:
                continue  # no pairs to cover; Prop-2 fallback applies
            common = set(host.edges[cls[0]])
            for e in cls[1:]:
                common &= set(host.edges[e])
            if common:
                stars.append(cls)
            else:
                vertices = set()
                for e in cls:
                    vertices.update(host.edges[e])
                if len(cls) != 3 or len(vertices) != 3:
                    raise StructureError(
                        f"class {tuple(cls)} is neither a star nor a triangle"
                    )
                a, b, cc = sorted(vertices)
                triangles.append((a, b, cc))
        base = _class_direction_bits(host, lm, stars)
        for j in range(3):
            bits = list(base)
            for tri in triangles:
                src = tri[j]
                rest = [x for x in tri if x != src]
                for x in rest:
                    e = host.index_of(src, x)
                    bits[e] = 0 if host.edges[e][0] == src else 1
                bits[host.index_of(rest[0], rest[1])] = 0
            orientations.append([0 if b is None else b for b in bits])
    return cover_from_directions(shape, orientations)


def reference_orientation_recheck(self: OrientationViolation, g: Graph, cover: OrientationCover) -> bool:
    ei = g.index_of(*self.e)
    fi = g.index_of(*self.f)
    if ei == fi or self.vertex not in self.e or self.vertex not in self.f:
        return False
    return not any(
        arrow(g, cover, i, ei)[0] == self.vertex and arrow(g, cover, i, fi)[0] == self.vertex
        for i in range(cover.k)
    )


def reference_elbow_recheck(self: ElbowViolation, g: Graph, cover: OrientationCover) -> bool:
    u, v, w = self.path
    if u == w or not (g.has_edge(u, v) and g.has_edge(v, w)):
        return False
    ei, fi = g.index_of(u, v), g.index_of(v, w)
    for i in range(cover.k):
        forward = arrow(g, cover, i, ei) == (u, v) and arrow(g, cover, i, fi) == (v, w)
        backward = arrow(g, cover, i, fi) == (w, v) and arrow(g, cover, i, ei) == (v, u)
        if not (forward or backward):
            return False
    return True


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _random_bipartite(rng: random.Random, n: int, p: float) -> Graph:
    half = rng.randrange(1, n)
    return Graph(n, [(u, v) for u in range(half) for v in range(half, n) if rng.random() < p])


def _random_subgraph(rng: random.Random, g: Graph) -> List[Tuple[int, ...]]:
    """Disjoint random cliques of L(g): host triangles, stars at random
    vertices and single edges."""
    used = set()
    classes = []
    for _ in range(rng.randrange(1, 6)):
        roll = rng.random()
        if roll < 0.4:
            a, b, c = sorted(rng.sample(range(g.n), 3))
            tri = [(a, b), (a, c), (b, c)]
            if not all(g.has_edge(*e) for e in tri):
                continue
            cls = tuple(g.index_of(*e) for e in tri)
        elif roll < 0.9:
            at = g.incident(rng.randrange(g.n))
            cls = tuple(sorted(rng.sample(at, rng.randint(min(1, len(at)), len(at)))))
        else:
            cls = (rng.randrange(g.m),)
        if cls and not used & set(cls):
            used |= set(cls)
            classes.append(cls)
    return classes


def _eq_covers(rng: random.Random, g: Graph, lm: LineGraphMap):
    """Valid equivalence coverings of L(g): greedy matchings of L(g),
    the out-stars of a pullback orientation covering, a decide_eq
    witness on small line graphs, each padded with random subgraphs of
    stars and triangles and shuffled."""
    bases = [
        _greedy_matching_cover(lm.line),
        out_star_eq_cover(g, cover_via_coloring(g, greedy_coloring(g))),
    ]
    if lm.line.m <= 14:
        for k in range(1, 5):
            res = decide_eq(lm.line, k)
            if res.status == "sat":
                bases.append(res.witness)
                break
    for base in bases:
        subs = list(base.subgraphs) + [_random_subgraph(rng, g) for _ in range(rng.randrange(4))]
        rng.shuffle(subs)
        cover = EquivalenceCover(g.m, subs)
        assert verify_equivalence_cover(lm.line, cover) is None
        yield cover


def _is_triangle(g: Graph, cls: Sequence[int]) -> bool:
    return len(cls) == 3 and len({x for e in cls for x in g.edges[e]}) == 3


def _collapsed(g: Graph, c: EquivalenceCover, general: OrientationCover) -> Tuple[int, List[int]]:
    """The general reference output with the three identical
    orientations of each star-only subgraph kept once, as (k, words)."""
    keep = []
    for i, sub in enumerate(c.subgraphs):
        keep += [3 * i, 3 * i + 1, 3 * i + 2] if any(_is_triangle(g, cls) for cls in sub) else [3 * i]
    words = [sum((w >> j & 1) << i for i, j in enumerate(keep)) for w in general.words]
    return len(keep), words


_TRIANGLE_FREE = [("cycle", 4), ("cycle", 5), ("cycle", 7), ("petersen", 5), ("petersen", 7),
                  ("mycielski-iterate", 3), ("mycielski-iterate", 4), ("complete-bipartite", 3)]
_WITH_TRIANGLES = [("complete", 3), ("complete", 4), ("complete", 6), ("triangle-plus-pendant", None)]


def _hosts(seed: int, triangle_free: bool):
    """The named families first, then seeded random graphs: bipartite
    ones for triangle-free hosts, dense ones otherwise."""
    for family, p in _TRIANGLE_FREE if triangle_free else _WITH_TRIANGLES:
        yield generate_family(family, p)
    rng = random.Random(seed)
    while True:
        n = rng.randrange(3, 12)
        g = _random_bipartite(rng, n, 0.5) if triangle_free else _random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        if g.m and (find_triangle(g) is None) == triangle_free:
            yield g


def _cases(seed: int, triangle_free: bool, count: int):
    rng = random.Random(seed + 1)
    out = []
    for g in _hosts(seed, triangle_free):
        lm = line_graph(g)
        out += [(g, lm, c) for c in _eq_covers(rng, g, lm)]
        if len(out) >= count:
            return out


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_triangle_free_hosts_match_the_size_preserving_reference():
    cases = _cases(61, True, 150)
    for g, lm, c in cases:
        got = orientation_cover_from_eq_cover(lm, c)
        want = reference_trifree(_ReferenceMap(lm), c)
        assert got.words == want.words and got.k == want.k == c.k
        assert verify_orientation_cover(g, got) is None


def test_every_host_matches_the_general_reference_collapsed():
    cases = _cases(62, False, 120) + _cases(63, True, 30)
    with_triangles = 0
    for g, lm, c in cases:
        got = orientation_cover_from_eq_cover(lm, c)
        general = reference_general(_ReferenceMap(lm), c)
        assert (got.k, list(got.words)) == _collapsed(g, c, general)
        assert verify_orientation_cover(g, got) is None
        with_triangles += got.k > c.k
    assert with_triangles >= 20  # the triangle rotations are exercised


def _random_words_cover(rng: random.Random, g: Graph, k: int, kind: str) -> OrientationCover:
    return OrientationCover((g.n, g.m), k, [rng.randrange(1 << k) for _ in range(g.m)], kind)


def test_word_rechecks_match_the_orientation_reference():
    rng = random.Random(64)
    checked = held = 0
    for _ in range(60):
        g = _random_graph(rng, rng.randrange(2, 7), rng.choice([0.4, 0.7, 1.0]))
        if rng.random() < 0.3:  # a valid covering: no orientation witness holds
            cover = cover_via_coloring(g, greedy_coloring(g))
        else:
            k = rng.randrange(0, 5)
            cover = _random_words_cover(rng, g, k, rng.choice(["orientation", "elbow"]))
        for v, e, f in product(range(g.n), g.edges, g.edges):
            w = OrientationViolation(v, e, f)
            got = w.recheck(g, cover)
            assert got == reference_orientation_recheck(w, g, cover)
            checked += 1
            held += got
        for path in product(range(g.n), repeat=3):
            w = ElbowViolation(path)
            got = w.recheck(g, cover)
            assert got == reference_elbow_recheck(w, g, cover)
            checked += 1
            held += got
    assert checked > 10_000 and held > 500
