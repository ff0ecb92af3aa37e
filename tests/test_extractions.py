"""The colour extractions read the per-edge words in one pass.

``coloring_from_elbow_cover`` keys each vertex by the set of masks with
bit 0 clear that it sees, and ``coloring_from_orientation_cover`` by
the minimal elements of that set.  The reference copies below read one
mask per incidence (``cover_words.out_mask``).  The elbow one is the
earlier version, which keys a vertex by its side of every
representative subset (2^(k-1) of them); the orientation one builds
each vertex's maximal intersecting family over all 2^k masks, from the
definition.  Both must give the same Coloring.  The faster
EquivalenceCover._from_sorted must give the covers the validating
constructor gives.
"""

import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path
from itertools import combinations
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from eqcover import (
    Coloring,
    EquivalenceCover,
    Graph,
    greedy_coloring,
    InvalidCoverError,
    bipartition,
    OrientationCover,
    cover_via_coloring,
    decide_eq,
    elbow_cover_via_coloring,
    generate_family,
    line_graph,
    parse_cover,
    ShapeError,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
    write_cover_for,
)
from eqcover.bounds import MAXIMAL_INTERSECTING
from eqcover.construct import (
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    out_star_eq_cover,
)
from eqcover.exact import _greedy_matching_cover

from cover_words import out_mask, out_stars


# ---------------------------------------------------------------------------
# reference copies of the per-incidence extractions
# ---------------------------------------------------------------------------


def _representative_subsets(k: int, min_size: int = 0, max_size: Optional[int] = None) -> List[int]:
    """One representative per complementary pair {X, [k] \\ X}: the subset
    containing orientation index 0, ascending, size-filtered."""
    if max_size is None:
        max_size = k
    return [
        x
        for x in range(1 << k)
        if x & 1 and min_size <= bin(x).count("1") <= max_size
    ]


def _sides(masks: Sequence[int], reps: Sequence[int], full: int) -> Tuple[int, ...]:
    """Per representative X, 1 when the masks include the complement of
    X; a vertex seeing both X and its complement cannot occur in a
    verified covering."""
    seen = set(masks)
    sides = []
    for x in reps:
        on_comp = (full ^ x) in seen
        assert not (on_comp and x in seen), (
            "vertex sees a signature and its complement; "
            "impossible for a verified covering"
        )
        sides.append(1 if on_comp else 0)  # untouched vertices default 0
    return tuple(sides)


def reference_elbow(g: Graph, c: OrientationCover) -> Coloring:
    c.require_match(g)
    violation = verify_elbow_cover(g, c)
    if violation is not None:
        raise InvalidCoverError(violation)
    k = c.k
    if k == 0:
        if g.m == 0:
            return Coloring([0] * g.n)
        raise ValueError("a zero-orientation covering only colors edgeless graphs")
    reps = _representative_subsets(k)
    palette: Dict[Tuple[int, ...], int] = {}
    colors = []
    for v in range(g.n):
        key = _sides([out_mask(g, c, v, e) for e in g.incident(v)], reps, (1 << k) - 1)
        colors.append(palette.setdefault(key, len(palette)))
    coloring = Coloring(colors)
    coloring.require_proper(g)
    return coloring


def _maximal_family(masks: Sequence[int], k: int) -> frozenset:
    """Up(S), S the masks with bit 0 clear, together with every mask
    containing 0 such that neither it nor its complement lies in Up(S)."""
    full = (1 << k) - 1
    clear = [x for x in masks if not x & 1]
    up = {y for y in range(1 << k) if any(x & y == x for x in clear)}
    return frozenset(up | {y for y in range(1 << k) if y & 1 and y not in up and full ^ y not in up})


def reference_orientation(g: Graph, c: OrientationCover) -> Coloring:
    if c.k < 3:
        raise ValueError("needs a covering of size at least 3")
    c.require_match(g)
    violation = verify_orientation_cover(g, c)
    if violation is not None:
        raise InvalidCoverError(violation)
    palette: Dict[frozenset, int] = {}
    colors: Dict[int, int] = {}
    for v in range(g.n):
        if g.degree(v) >= 2:
            family = _maximal_family([out_mask(g, c, v, e) for e in g.incident(v)], c.k)
            if family not in palette:
                assert all(a & b for a, b in combinations(family, 2)), "not intersecting"
                assert len(family) == 1 << (c.k - 1)
                palette[family] = len(palette)
            colors[v] = palette[family]
    for v in range(g.n):
        if v not in colors:
            taken = {colors.get(u) for u in g.adjacency[v]}
            pick = 0
            while pick in taken:
                pick += 1
            colors[v] = pick
    coloring = Coloring([colors[v] for v in range(g.n)])
    coloring.require_proper(g)
    return coloring


def _maximal_intersecting_count(k: int) -> int:
    """M(k) by brute force: the intersecting families holding one set
    from each complementary pair of subsets of [k]."""
    reps = _representative_subsets(k)
    full = (1 << k) - 1

    def extend(chosen: List[int], i: int) -> int:
        if i == len(reps):
            return 1
        return sum(
            extend(chosen + [y], i + 1)
            for y in (reps[i], full ^ reps[i])
            if y and all(y & x for x in chosen)
        )

    return extend([], 0)


BRUTE_M = {k: _maximal_intersecting_count(k) for k in range(1, 6)}


def test_maximal_intersecting_table_matches_brute_force():
    assert list(BRUTE_M.values()) == list(MAXIMAL_INTERSECTING[:5])


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _widen(c: OrientationCover, k: int, rng: random.Random) -> OrientationCover:
    """c with k - c.k random orientations appended; still a covering of
    the same kind, since adding orientations never uncovers a pair."""
    extra = k - c.k
    words = [w | rng.getrandbits(extra) << c.k if extra else w for w in c.words]
    return OrientationCover(c.graph_shape, k, words, c.kind)


def _shuffle_bits(c: OrientationCover, rng: random.Random) -> OrientationCover:
    """c with its orientations in a random order (bit 0 moves too)."""
    order = list(range(c.k))
    rng.shuffle(order)
    words = [sum(((w >> i) & 1) << j for j, i in enumerate(order)) for w in c.words]
    return OrientationCover(c.graph_shape, c.k, words, c.kind)


def _repeat(c: OrientationCover, k: int) -> OrientationCover:
    """The orientations of c repeated in turn up to k of them."""
    words = [sum(((w >> (i % c.k)) & 1) << i for i in range(k)) for w in c.words]
    return OrientationCover(c.graph_shape, k, words, c.kind)


def _one_way_bipartite(g: Graph) -> OrientationCover:
    """One orientation from side 0 to side 1: an elbow covering of a
    bipartite graph."""
    side = bipartition(g)
    words = [1 - side[u] for u, _ in g.edges]
    return OrientationCover((g.n, g.m), 1, words, "elbow")


def _tree_with_triangle(rng: random.Random, n: int) -> Graph:
    edges = {(0, 1), (0, 2), (1, 2)}
    for v in range(3, n):
        edges.add((rng.randrange(v), v))
    return Graph(n, sorted(edges))


def _orientation_cases():
    rng = random.Random(20)
    for trial in range(60):
        n = rng.randrange(4, 40)
        g = _random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.9]))
        if not g.has_incidence_pairs():
            continue
        base = cover_via_coloring(g, greedy_coloring(g))
        if base.k < 3:
            base = _widen(base, 3, rng)
        for k in range(max(3, base.k), 9):
            c = _widen(base, k, rng)
            yield f"random{trial}-k{k}", g, c
            yield f"random{trial}-k{k}-shuffled", g, _shuffle_bits(c, rng)
    for trial in range(15):
        g = _tree_with_triangle(rng, rng.randrange(4, 60))
        c = cover_via_coloring(g, greedy_coloring(g))
        yield f"tree-triangle{trial}", g, c
        yield f"tree-triangle{trial}-k6", g, _shuffle_bits(_widen(c, 6, rng), rng)
    # colourings with many colours reach the K_c elbow bases (k = 8)
    for n in (20, 40):
        g = _random_graph(rng, n, 0.3)
        c = cover_via_coloring(g, Coloring(range(n)))
        yield f"identity{n}", g, c
    # wider than the verifier's bad-pair table: its pass counts the masks met
    for k in range(9, 13):
        g = _random_graph(rng, rng.randrange(6, 16), 0.4)
        base = cover_via_coloring(g, greedy_coloring(g))
        yield f"wide-k{k}", g, _widen(base, k, rng)
        yield f"wide-k{k}-repeated", g, _shuffle_bits(_repeat(base, k), rng)


def _elbow_cases():
    rng = random.Random(21)
    for trial in range(60):
        n = rng.randrange(3, 40)
        g = _random_graph(rng, n, rng.choice([0.1, 0.25, 0.5, 0.9]))
        base = elbow_cover_via_coloring(g, greedy_coloring(g))
        for k in range(base.k, 9):
            c = _widen(base, k, rng)
            yield f"random{trial}-k{k}", g, c
            yield f"random{trial}-k{k}-shuffled", g, _shuffle_bits(c, rng)
    for trial in range(15):
        g = _tree_with_triangle(rng, rng.randrange(4, 60)) if trial % 2 else Graph(
            30, [(u, u + 1) for u in range(29)]
        )
        yield f"tree{trial}", g, elbow_cover_via_coloring(g, greedy_coloring(g))
    for name, g in (
        ("C6", generate_family("cycle", 6)),
        ("K33", generate_family("complete-bipartite", 3)),
        ("path9", generate_family("path", 9)),
        ("star5", generate_family("star", 5)),
    ):
        yield f"{name}-k1", g, _one_way_bipartite(g)
    for n in (17, 40):
        g = _random_graph(rng, n, 0.5)
        yield f"identity{n}", g, elbow_cover_via_coloring(g, Coloring(range(n)))
    for k in range(9, 13):
        g = _random_graph(rng, rng.randrange(6, 30), 0.4)
        base = elbow_cover_via_coloring(g, greedy_coloring(g))
        yield f"wide-k{k}", g, _widen(base, k, rng)
        yield f"wide-k{k}-repeated", g, _shuffle_bits(_repeat(base, k), rng)


def test_orientation_extraction_matches_reference():
    count = 0
    widths = set()
    for name, g, c in _orientation_cases():
        widths.add(c.k)
        assert verify_orientation_cover(g, c) is None, name
        coloring = coloring_from_orientation_cover(g, c)
        assert coloring == reference_orientation(g, c), name
        assert coloring.palette_size <= BRUTE_M.get(c.k, coloring.palette_size), name
        count += 1
    assert count > 400
    assert widths == set(range(3, 13))


def test_elbow_extraction_matches_reference():
    count = 0
    widths = set()
    for name, g, c in _elbow_cases():
        widths.add(c.k)
        assert verify_elbow_cover(g, c) is None, name
        assert coloring_from_elbow_cover(g, c) == reference_elbow(g, c), name
        count += 1
    assert count > 300
    assert widths == set(range(1, 13))


def test_extractions_match_reference_on_corpus(corpus):
    for name, g in corpus.items():
        if not g.has_incidence_pairs():
            continue
        sigma = cover_via_coloring(g, greedy_coloring(g))
        if sigma.k >= 3:
            coloring = coloring_from_orientation_cover(g, sigma)
            assert coloring == reference_orientation(g, sigma), name
            assert coloring.palette_size <= BRUTE_M.get(sigma.k, coloring.palette_size), name
        elbow = elbow_cover_via_coloring(g, greedy_coloring(g))
        assert coloring_from_elbow_cover(g, elbow) == reference_elbow(g, elbow), name
        assert coloring_from_elbow_cover(g, sigma) == reference_elbow(g, sigma), name


def test_repeated_cover_keeps_the_elbow_coloring():
    # repeating orientations maps bit-0-clear masks one to one, keeping
    # which contains which, so both colourings are those of the base cover
    g = _random_graph(random.Random(5), 30, 0.3)
    base = cover_via_coloring(g, greedy_coloring(g))
    assert base.k >= 3
    wide = _repeat(base, 12)
    assert verify_orientation_cover(g, wide) is None
    assert coloring_from_elbow_cover(g, wide) == coloring_from_elbow_cover(g, base)
    assert coloring_from_orientation_cover(g, wide) == coloring_from_orientation_cover(g, base)
    assert coloring_from_orientation_cover(g, wide) == reference_orientation(g, wide)


def _broken_at(g: Graph, c: OrientationCover, x: int, elbow: bool) -> OrientationCover:
    """c broken at x: its first edge runs into x in every orientation
    and, for an elbow cover, its second edge out of x in every one."""
    full = (1 << c.k) - 1
    words = list(c.words)
    e, f = g.incident(x)[:2]
    words[e] = full if g.edges[e][1] == x else 0
    if elbow:
        words[f] = full if g.edges[f][0] == x else 0
    return OrientationCover(c.graph_shape, c.k, words, c.kind)


def test_invalid_covers_raise_the_verifiers_witness():
    # at both widths of the verifier's pass (a bitset up to k = 8, counts above),
    # a bad vertex first, in the middle or last raises InvalidCoverError
    # with the witness the public verifier names
    rng = random.Random(30)
    g = _random_graph(rng, 30, 0.3)
    centers = [v for v in range(g.n) if g.degree(v) >= 2]
    places = (centers[0], centers[len(centers) // 2], centers[-1])
    builds = (
        (coloring_from_orientation_cover, verify_orientation_cover, cover_via_coloring, False),
        (coloring_from_elbow_cover, verify_elbow_cover, elbow_cover_via_coloring, True),
    )
    found = set()
    for extract, verify, build, elbow in builds:
        base = build(g, greedy_coloring(g))
        assert base.k <= 5
        for k in (base.k, 5, 8, 9, 12):
            for x in places:
                bad = _broken_at(g, _widen(base, k, rng), x, elbow)
                violation = verify(g, bad)
                assert violation is not None
                with pytest.raises(InvalidCoverError) as info:
                    extract(g, bad)
                assert info.value.violation.line() == violation.line()
                assert str(info.value) == f"input cover is invalid: {violation.line()}"
                found.add(violation.path[1] if elbow else violation.vertex)
    assert set(places) <= found


def test_extractions_refuse_a_shape_mismatch_and_a_cover_too_small():
    k3, k4 = generate_family("complete", 3), generate_family("complete", 4)
    rng = random.Random(31)
    for k in (3, 9):
        sigma = _widen(cover_via_coloring(k4, greedy_coloring(k4)), k, rng)
        elbow = _widen(elbow_cover_via_coloring(k4, greedy_coloring(k4)), k, rng)
        with pytest.raises(ShapeError):
            coloring_from_orientation_cover(k3, sigma)
        with pytest.raises(ShapeError):
            coloring_from_elbow_cover(k3, elbow)
    matching = Graph(6, [(0, 1), (2, 3), (4, 5)])
    empty = OrientationCover((6, 3), 0, [0, 0, 0], "elbow")
    assert verify_elbow_cover(matching, empty) is None
    with pytest.raises(ValueError, match="zero-orientation covering only colors edgeless"):
        coloring_from_elbow_cover(matching, empty)
    with pytest.raises(ValueError, match="size at least 3"):
        coloring_from_orientation_cover(matching, empty)
    edgeless = Graph(4, [])
    assert coloring_from_elbow_cover(edgeless, OrientationCover((4, 0), 0, [], "elbow")) == Coloring([0] * 4)


def test_trusted_colorings_pass_the_public_constructor():
    # greedy_coloring, Coloring.dense and the elbow extraction build their
    # colourings through Coloring._from_dense, which checks nothing; the
    # public constructor must give the same colours and palette size
    rng = random.Random(2030)
    colorings = []
    for n in range(61):
        g = _random_graph(rng, n, rng.choice([0.05, 0.2, 0.5, 0.9]))
        colorings.append(greedy_coloring(g))
        colorings.append(Coloring([rng.randrange(1, 3 * n + 2) for _ in range(n)]).dense())
    for _, g, c in _elbow_cases():
        colorings.append(coloring_from_elbow_cover(g, c))
    for _, g, c in _orientation_cases():
        if c.k <= 6:
            colorings.append(coloring_from_orientation_cover(g, c))
    assert len(colorings) > 700
    for coloring in colorings:
        public = Coloring(coloring.colors)
        assert (public.colors, public.palette_size) == (coloring.colors, coloring.palette_size)
        assert type(coloring.colors) is tuple and all(type(x) is int for x in coloring.colors)


PRELUDE = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({512 << 20}, {512 << 20}))
"""

# k = 40: the representative subsets (2^39 of them) and the palette
# bound k + 2^(2^39 - 41) as an int are both out of reach, so this case
# only passes when neither is built
K40_CASE = """
import os, sys, tempfile
from eqcover import *
from eqcover.cli import main
g = generate_family("mycielski-iterate", 4)
base = cover_via_coloring(g, greedy_coloring(g))
k = 40
words = [sum(((w >> (i % base.k)) & 1) << i for i in range(k)) for w in base.words]
wide = OrientationCover((g.n, g.m), k, words, "orientation")
assert verify_orientation_cover(g, wide) is None
col = coloring_from_orientation_cover(g, wide)
assert col.check_proper(g) is None
assert coloring_from_elbow_cover(g, wide) == coloring_from_elbow_cover(g, base)
with tempfile.TemporaryDirectory() as d:
    gp, cp, op = (os.path.join(d, x) for x in ("g.txt", "c.txt", "col.txt"))
    write_graph_file(gp, g)
    with open(cp, "w") as fh:
        fh.write(write_cover_for(g, wide))
    code = main(["construct", "--op", "coloring-from-orientation", "--graph", gp,
                 "--cover", cp, "--output", op])
    assert code == 0, code
    with open(op) as fh:
        assert parse_coloring(fh.read(), g.n) == col
"""


def test_k40_cover_under_memory_cap():
    pytest.importorskip("resource")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + textwrap.dedent(K40_CASE)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


# ---------------------------------------------------------------------------
# EquivalenceCover._from_sorted
# ---------------------------------------------------------------------------


def _validated(c: EquivalenceCover) -> EquivalenceCover:
    return EquivalenceCover(c.n, c.subgraphs)


def _same(a: EquivalenceCover, b: EquivalenceCover) -> None:
    assert (a.n, a.subgraphs) == (b.n, b.subgraphs)
    assert all(type(sub) is tuple for sub in a.subgraphs)
    assert all(type(cls) is tuple for sub in a.subgraphs for cls in sub)


def test_from_sorted_out_star_cover_matches_constructor():
    rng = random.Random(7)
    for _ in range(20):
        g = _random_graph(rng, rng.randrange(3, 30), 0.3)
        c = cover_via_coloring(g, greedy_coloring(g))
        eq = out_star_eq_cover(g, c)
        _same(eq, _validated(eq))
        assert eq.subgraphs == out_stars(g, c)
        assert verify_equivalence_cover(line_graph(g).line, eq) is None


def test_from_sorted_decide_eq_matches_constructor(corpus):
    for name in ("K3", "K4", "C5", "bull", "P4", "tri_pendant", "matching2"):
        h = line_graph(corpus[name]).line
        for k in range(4):
            res = decide_eq(h, k)
            if res.status == "sat":
                _same(res.witness, _validated(res.witness))


def test_from_sorted_parse_cover_matches_constructor():
    rng = random.Random(8)
    for _ in range(10):
        h = _random_graph(rng, rng.randrange(3, 25), 0.4)
        cover = _greedy_matching_cover(h)
        parsed = parse_cover(write_cover_for(h, cover), h)
        _same(parsed, _validated(parsed))
        _same(parsed, cover)
    h = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    text = "cover equivalence 2 4 4\nblock 1\nclique 2 0 1\nblock 2\nclique 3 2\n"
    _same(parse_cover(text, h), EquivalenceCover(4, [[(2, 0, 1)], [(3, 2)]]))
