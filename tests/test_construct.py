import random

import pytest

from eqcover import (
    Coloring,
    EquivalenceCover,
    exact_chromatic,
    Graph,
    greedy_coloring,
    ImproperColoringError,
    InvalidCoverError,
    NotBipartiteError,
    OrientationCover,
    ShapeError,
    bipartite_orientation_cover,
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    cover_via_coloring,
    decide_eq,
    decide_sigma,
    elbow_cover_complete,
    elbow_double,
    generate_family,
    induced_subgraph,
    k4_elbow_base,
    k4_sigma3_cover,
    k16_table_cover,
    line_graph,
    orientation_cover_from_elbow,
    orientation_cover_from_eq_cover,
    out_star_eq_cover,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)
from eqcover.construct import _out_classes
from eqcover.graphs import MAX_COMPLETE_EDGES, _require_buildable_complete

from cover_words import arrow, cover_from_directions, directions, ranking, ranking_cover, restrict


# The analogue of an orientation: its out-stars, an equivalence subgraph
# of the line graph.


def test_analogue_of_source_orientation():
    k3 = generate_family("complete", 3)
    classes = _out_classes(k3, [1, 1, 1], 0)  # 0->1, 0->2, 1->2
    assert classes == ((0, 1), (2,))


def test_analogue_of_matching():
    g = generate_family("path", 2)
    classes = _out_classes(g, [1], 0)
    assert classes == ((0,),)


def test_analogue_k4_identity_class_sizes():
    k4 = generate_family("complete", 4)
    lm = line_graph(k4)
    cover = ranking_cover(k4, [range(4)])
    classes = _out_classes(k4, cover.words, 0)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    # classes are disjoint and induce cliques of the line graph
    seen = set()
    for cls in classes:
        assert not (set(cls) & seen)
        seen |= set(cls)
        for a in cls:
            for b in cls:
                if a < b:
                    assert lm.line.has_edge(a, b)


def test_eq_cover_from_k3_rotations():
    k3 = generate_family("complete", 3)
    lm = line_graph(k3)
    res = decide_sigma(k3, 3)
    eq = out_star_eq_cover(k3, res.witness)
    assert eq.k == 3
    assert verify_equivalence_cover(lm.line, eq) is None


def test_eq_cover_from_k16_table():
    g = generate_family("complete", 16)
    lm = line_graph(g)
    _, cover = k16_table_cover()
    eq = out_star_eq_cover(g, cover)
    assert eq.k == 5
    assert verify_equivalence_cover(lm.line, eq) is None


def test_bench_wrapper_forwards_to_out_star_eq_cover():
    from eqcover import eq_cover_from_orientation_cover

    g = generate_family("complete", 16)
    _, cover = k16_table_cover()
    got = eq_cover_from_orientation_cover(line_graph(g), cover)
    assert (got.n, got.subgraphs) == (g.m, out_star_eq_cover(g, cover).subgraphs)


def test_eq_cover_from_bipartite_c4():
    c4 = generate_family("cycle", 4)
    lm = line_graph(c4)
    eq = out_star_eq_cover(c4, bipartite_orientation_cover(c4))
    assert eq.k == 2
    assert verify_equivalence_cover(lm.line, eq) is None


def test_eq_cover_rejects_invalid_input():
    k3 = generate_family("complete", 3)
    too_small = OrientationCover((3, 3), 1, [1, 1, 1])
    with pytest.raises(InvalidCoverError) as info:
        out_star_eq_cover(k3, too_small)
    assert info.value.violation.recheck(k3, too_small)


def test_trifree_converse_path():
    p3 = generate_family("path", 3)
    lm = line_graph(p3)
    cover = orientation_cover_from_eq_cover(lm, EquivalenceCover(2, [[(0, 1)]]))
    assert cover.k == 1
    # both edges leave the middle vertex
    assert arrow(p3, cover, 0, 0) == (1, 0)
    assert arrow(p3, cover, 0, 1) == (1, 2)


def test_trifree_converse_c5():
    c5 = generate_family("cycle", 5)
    lm = line_graph(c5)
    eq = decide_eq(lm.line, 3).witness
    cover = orientation_cover_from_eq_cover(lm, eq)
    assert cover.k == 3
    assert verify_orientation_cover(c5, cover) is None


def test_general_converse_k3_single_class():
    k3 = generate_family("complete", 3)
    lm = line_graph(k3)
    cover = orientation_cover_from_eq_cover(lm, EquivalenceCover(3, [[(0, 1, 2)]]))
    assert cover.k == 3
    assert verify_orientation_cover(k3, cover) is None
    arrows = [tuple(arrow(k3, cover, i, e) for e in range(3)) for i in range(cover.k)]
    # source rotation with low->high leftovers
    assert arrows == [
        ((0, 1), (0, 2), (1, 2)),
        ((1, 0), (0, 2), (1, 2)),
        ((0, 1), (2, 0), (2, 1)),
    ]


def test_general_converse_triangle_plus_pendant():
    g = generate_family("triangle-plus-pendant")
    lm = line_graph(g)
    eq = decide_eq(lm.line, 2).witness
    cover = orientation_cover_from_eq_cover(lm, eq)
    assert cover.k <= 6
    assert verify_orientation_cover(g, cover) is None


def test_general_converse_returns_3k_even_when_triangle_free():
    c5 = generate_family("cycle", 5)
    lm = line_graph(c5)
    eq = decide_eq(lm.line, 3).witness
    cover = orientation_cover_from_eq_cover(lm, eq)
    assert cover.k == 3  # star-only subgraphs take one orientation each
    assert verify_orientation_cover(c5, cover) is None


def test_elbow_double_shapes_and_validity():
    g4 = generate_family("complete", 4)
    base = k4_elbow_base()
    big = elbow_double(g4, base)
    assert big.graph_shape == (16, 120)
    assert big.k == 3
    assert verify_elbow_cover(generate_family("complete", 16), big) is None


def test_elbow_double_rejects_bad_base():
    g4 = generate_family("complete", 4)
    one = ranking_cover(g4, [range(4)], "elbow")
    with pytest.raises(InvalidCoverError):
        elbow_double(g4, one)
    with pytest.raises(ValueError):
        elbow_double(generate_family("path", 4), k4_elbow_base())


@pytest.mark.parametrize(
    "n,size",
    [(1, 0), (2, 0), (3, 2), (4, 2), (5, 3), (16, 3), (17, 4), (256, 4)],
)
def test_elbow_cover_complete_sizes(n, size):
    cover = elbow_cover_complete(n)
    assert cover.k == size
    if n <= 17:
        assert verify_elbow_cover(generate_family("complete", n), cover) is None


def test_complete_graphs_over_the_edge_limit_are_refused_before_building():
    # K2048 has 2,096,128 edges and K2049 2,098,176, either side of 2^21;
    # neither is built here
    assert MAX_COMPLETE_EDGES == 1 << 21
    _require_buildable_complete(2048)
    refusal = r"^complete graph on 2049 vertices would have 2098176 edges, more than 2097152$"
    with pytest.raises(ValueError, match=refusal):
        generate_family("complete", 2049)
    with pytest.raises(ValueError, match=refusal):
        elbow_cover_complete(2049)
    k46 = generate_family("complete", 46)  # doubled, K2116 has 2,237,670 edges
    with pytest.raises(ValueError, match=r"^complete graph on 2116 vertices would have 2237670 "):
        elbow_double(k46, elbow_cover_complete(46))


def test_elbow_cover_complete_rejects_zero():
    with pytest.raises(ValueError):
        elbow_cover_complete(0)


def test_orientation_from_elbow():
    k4 = generate_family("complete", 4)
    cover = orientation_cover_from_elbow(k4, k4_elbow_base())
    assert cover.k == 4
    assert verify_orientation_cover(k4, cover) is None

    c4 = generate_family("cycle", 4)
    alternating = cover_from_directions((4, 4), [(0, 0, 1, 0)], "elbow")
    doubled = orientation_cover_from_elbow(c4, alternating)
    assert doubled.k == 2
    assert verify_orientation_cover(c4, doubled) is None

    k2 = generate_family("complete", 2)
    empty = orientation_cover_from_elbow(k2, OrientationCover((2, 1), 0, [0], "elbow"))
    assert empty.k == 0
    assert verify_orientation_cover(k2, empty) is None


def test_orientation_from_elbow_rejects_invalid():
    k4 = generate_family("complete", 4)
    one = ranking_cover(k4, [range(4)], "elbow")
    with pytest.raises(InvalidCoverError):
        orientation_cover_from_elbow(k4, one)


def test_restriction_keeps_elbow_property():
    g16 = generate_family("complete", 16)
    cover = elbow_cover_complete(16)
    for keep in ([0, 1, 2, 3, 4], [3, 7, 11, 15], list(range(10))):
        sub, restricted = restrict(g16, cover, keep)
        assert sub == induced_subgraph(g16, keep)
        assert verify_elbow_cover(sub, restricted) is None


def test_restriction_keeps_orientation_property():
    # every constraint of an induced subgraph is one of the whole graph
    g16 = generate_family("complete", 16)
    _, cover = k16_table_cover()
    for keep in ([0, 1, 2, 3, 4], [3, 7, 11, 15], list(range(10))):
        sub, restricted = restrict(g16, cover, keep)
        assert sub == induced_subgraph(g16, keep)
        assert verify_orientation_cover(sub, restricted) is None


@pytest.mark.parametrize("vertices", [[0, 1, 7], [-1, 0, 2], [4], range(-3, 0)])
def test_restriction_refuses_vertices_out_of_range(vertices):
    # these once gave Graph(n=3, m=1), with phantom isolated vertices
    k4 = generate_family("complete", 4)
    with pytest.raises(ValueError, match="vertex out of range"):
        induced_subgraph(k4, vertices)


def test_bipartite_cover():
    c4 = generate_family("cycle", 4)
    cover = bipartite_orientation_cover(c4)
    assert cover.k == 2
    assert verify_orientation_cover(c4, cover) is None

    star = generate_family("star", 3)
    cover = bipartite_orientation_cover(star)
    assert cover.k == 2
    assert verify_orientation_cover(star, cover) is None

    with pytest.raises(NotBipartiteError) as info:
        bipartite_orientation_cover(generate_family("complete", 3))
    assert tuple(sorted(info.value.cycle)) == (0, 1, 2)


@pytest.mark.parametrize(
    "name,expected_size",
    [("C5", 3), ("grotzsch", 3), ("K5", 5)],
)
def test_cover_via_coloring_sizes(corpus, name, expected_size):
    g = corpus[name]
    cover = cover_via_coloring(g, exact_chromatic(g).witness)
    assert cover.k == expected_size
    assert verify_orientation_cover(g, cover) is None


def test_cover_via_coloring_large_palette():
    # beyond 16 colors the doubled elbow pipeline takes over
    k17 = generate_family("complete", 17)
    cover = cover_via_coloring(k17, Coloring(range(17)))
    assert cover.k == 2 * 3 + 2
    assert verify_orientation_cover(k17, cover) is None


def test_cover_via_coloring_size_never_exceeds_base(corpus):
    # homomorphism monotonicity, constructively
    sizes = {2: 2, 3: 3, 4: 3, 5: 5}
    for name in ("C4", "C5", "C6", "K4", "K5", "bull", "petersen", "tri_pendant"):
        g = corpus[name]
        chi = exact_chromatic(g)
        cover = cover_via_coloring(g, chi.witness)
        assert cover.k <= sizes[chi.value]


def test_cover_via_coloring_supplied_and_greedy():
    c5 = generate_family("cycle", 5)
    with pytest.raises(ImproperColoringError):
        cover_via_coloring(c5, Coloring((0, 0, 1, 0, 1)))
    cover = cover_via_coloring(c5, Coloring((0, 1, 0, 1, 2)))
    assert verify_orientation_cover(c5, cover) is None
    greedy = cover_via_coloring(c5, greedy_coloring(c5))
    assert verify_orientation_cover(c5, greedy) is None


def test_cover_via_coloring_follows_a_given_two_coloring():
    # the second edge's colors run against a breadth-first bipartition,
    # which would start each component at color 0
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert cover_via_coloring(two_edges, Coloring([0, 1, 1, 0])).words == (1, 2)
    # orientation i runs every edge out of its end of (dense) color i
    rng = random.Random(404)
    for _ in range(40):
        n = rng.randint(2, 12)
        side = [rng.randrange(2) for _ in range(n)]
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if side[u] != side[v] and rng.random() < 0.4
        ]
        g = Graph(n, edges)
        coloring = Coloring([5 * s for s in side])
        dense = coloring.dense().colors
        cover = cover_via_coloring(g, coloring)
        assert cover.k == 2
        assert cover.words == tuple(1 << dense[u] for u, _ in g.edges)
        assert verify_orientation_cover(g, cover) is None


def test_coloring_from_elbow_k4():
    k4 = generate_family("complete", 4)
    coloring = coloring_from_elbow_cover(k4, k4_elbow_base())
    assert coloring.palette_size == 4
    assert coloring.check_proper(k4) is None


def test_coloring_from_elbow_c4():
    c4 = generate_family("cycle", 4)
    cover = cover_from_directions((4, 4), [(0, 0, 1, 0)], "elbow")
    coloring = coloring_from_elbow_cover(c4, cover)
    assert coloring.palette_size <= 2
    assert coloring.check_proper(c4) is None


def test_coloring_from_elbow_k16():
    g16 = generate_family("complete", 16)
    coloring = coloring_from_elbow_cover(g16, elbow_cover_complete(16))
    assert coloring.palette_size == 16
    assert coloring.check_proper(g16) is None


def test_coloring_from_elbow_edge_cases():
    from eqcover import Graph

    edgeless = Graph(3, [])
    empty = OrientationCover((3, 0), 0, [], kind="elbow")
    assert coloring_from_elbow_cover(edgeless, empty).colors == (0, 0, 0)
    matching = generate_family("path", 2)
    with pytest.raises(ValueError):
        coloring_from_elbow_cover(matching, OrientationCover((2, 1), 0, [0], "elbow"))


def test_coloring_from_orientation_k4():
    k4 = generate_family("complete", 4)
    coloring = coloring_from_orientation_cover(k4, k4_sigma3_cover())
    assert coloring.palette_size <= 4
    assert coloring.check_proper(k4) is None


def test_coloring_from_orientation_c5():
    c5 = generate_family("cycle", 5)
    cover = decide_sigma(c5, 3).witness
    coloring = coloring_from_orientation_cover(c5, cover)
    assert coloring.check_proper(c5) is None
    assert 3 <= coloring.palette_size <= 4


def test_coloring_from_orientation_k3():
    k3 = generate_family("complete", 3)
    cover = decide_sigma(k3, 3).witness
    coloring = coloring_from_orientation_cover(k3, cover)
    assert coloring.check_proper(k3) is None
    assert coloring.palette_size <= 4


def test_coloring_from_orientation_colors_pendants_last():
    g = generate_family("triangle-plus-pendant")
    cover = decide_sigma(g, 3).witness
    coloring = coloring_from_orientation_cover(g, cover)
    assert coloring.check_proper(g) is None
    assert coloring.palette_size <= 4


def _tree_plus_triangle(rng, n):
    from eqcover import Graph

    edges = {(rng.randrange(v), v) for v in range(1, n)}
    a, b, c = sorted(rng.sample(range(n), 3))
    edges |= {(a, b), (a, c), (b, c)}
    return Graph(n, edges)


def test_coloring_from_orientation_on_large_tree_plus_triangle():
    import random

    g = _tree_plus_triangle(random.Random(8), 8000)
    coloring = coloring_from_orientation_cover(g, cover_via_coloring(g, greedy_coloring(g)))
    assert coloring.check_proper(g) is None and coloring.palette_size == 3


def test_coloring_from_orientation_requires_k3():
    c4 = generate_family("cycle", 4)
    with pytest.raises(ValueError):
        coloring_from_orientation_cover(c4, bipartite_orientation_cover(c4))


def test_k16_table_rows():
    rankings, cover = k16_table_cover()
    assert rankings[0] == tuple(range(16))
    assert rankings[1] == (12, 10, 9, 5, 3, 8, 4, 2, 6, 1, 11, 7, 13, 14, 15, 0)
    assert cover.k == 5


def test_round_trip_soundness_over_corpus(corpus):
    # every construction's output passes the matching verifier
    for name in ("K3", "K4", "C4", "C5", "C6", "star3", "tri_pendant", "bull", "K23"):
        g = corpus[name]
        cover = cover_via_coloring(g, exact_chromatic(g).witness)
        assert verify_orientation_cover(g, cover) is None
        if g.m:
            lm = line_graph(g)
            eq = out_star_eq_cover(g, cover)
            assert verify_equivalence_cover(lm.line, eq) is None
            back = orientation_cover_from_eq_cover(lm, eq)
            assert back.k <= 3 * eq.k
            assert verify_orientation_cover(g, back) is None


def test_coloring_from_orientation_forest_core_empty():
    # the inner vertices see one family per side of the path; each end
    # takes whichever of colors 0 and 1 its neighbor lacks
    p5 = generate_family("path", 5)
    two = bipartite_orientation_cover(p5)
    padded = cover_from_directions((5, 4), directions(two) + directions(two)[:1])
    assert verify_orientation_cover(p5, padded) is None
    coloring = coloring_from_orientation_cover(p5, padded)
    assert coloring.check_proper(p5) is None
    assert coloring.palette_size <= 2


def test_coloring_from_orientation_isolated_vertex():
    from eqcover import Graph

    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])  # K4 + loner
    base = k4_sigma3_cover()
    cover = OrientationCover((5, 6), base.k, base.words)
    assert verify_orientation_cover(g, cover) is None
    coloring = coloring_from_orientation_cover(g, cover)
    assert coloring.check_proper(g) is None
    assert coloring.palette_size <= 4


def test_coloring_from_orientation_k5_size4():
    k5 = generate_family("complete", 5)
    cover = decide_sigma(k5, 4).witness
    coloring = coloring_from_orientation_cover(k5, cover)
    assert coloring.check_proper(k5) is None
    # M(4) = 12 maximal intersecting families on [4]
    assert coloring.palette_size <= 12


def test_coloring_from_elbow_petersen():
    petersen = generate_family("petersen", 5)
    # size 3; also a valid elbow cover
    cover = cover_via_coloring(petersen, exact_chromatic(petersen).witness)
    coloring = coloring_from_elbow_cover(petersen, cover)
    assert coloring.check_proper(petersen) is None
    assert coloring.palette_size <= 16


def test_elbow_cover_via_coloring():
    from eqcover import Graph, elbow_cover_via_coloring, solve_invariant, verify_elbow_cover

    # complete tripartite: many 2-edge paths join same-colored endpoints
    parts = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
    edges = [
        (a, b)
        for i, p in enumerate(parts)
        for q in parts[i + 1 :]
        for a in p
        for b in q
    ]
    g = Graph(9, edges)
    cover = elbow_cover_via_coloring(g, Coloring((0, 0, 0, 1, 1, 1, 2, 2, 2)))
    assert cover.kind == "elbow"
    assert cover.k == 2  # palette 3: ceil(log2 log2 3) + 1
    assert verify_elbow_cover(g, cover) is None

    c4 = generate_family("cycle", 4)
    one = elbow_cover_via_coloring(c4, exact_chromatic(c4).witness)
    assert one.k == 1 and verify_elbow_cover(c4, one) is None
    res = solve_invariant(c4, "elb")
    assert (res.status, res.value, res.witness.k) == ("exact", 1, 1)

    g17 = generate_family("complete", 17)
    big = elbow_cover_via_coloring(g17, Coloring(range(17)))
    assert big.k == 4
    assert verify_elbow_cover(g17, big) is None


def test_rank_pullbacks_match_explicit_base_pullback():
    # both pullbacks against pulling each orientation of an explicit K_c
    # covering back along the coloring: the K4 direction rows, the K16
    # permutations, and beyond 16 colors the K4 -> K16 -> K256
    # elbow_double chain restricted to the first c vertices
    import random

    from eqcover import Graph, elbow_cover_via_coloring

    k4, k16 = generate_family("complete", 4), generate_family("complete", 16)
    k256 = generate_family("complete", 256)
    rows = ((0, 0, 0, 1, 1, 0), (1, 1, 1, 0, 0, 0), (1, 1, 1, 1, 1, 1))
    sigma4 = cover_from_directions((4, 6), rows)
    sigma16 = ranking_cover(k16, k16_table_cover()[0])
    orders = ((0, 1, 2, 3), (2, 0, 3, 1))
    elbow4 = ranking_cover(k4, [ranking(o) for o in orders], "elbow")
    elbow16 = elbow_double(k4, elbow4)
    elbow256 = elbow_double(k16, elbow16)

    def explicit(g, colors, c, elbow):
        if c <= 4 and not elbow:
            big, base = k4, sigma4
        elif c <= 16 and not elbow:
            big, base = k16, sigma16
        else:
            big, base = (k4, elbow4) if c <= 4 else (k16, elbow16) if c <= 16 else (k256, elbow256)
            big, base = restrict(big, base, range(c))
            if not elbow:
                base = orientation_cover_from_elbow(big, base)
        # edge uv takes the base word of f(u)f(v), flipped when f(u) > f(v)
        full = (1 << base.k) - 1
        words = []
        for u, v in g.edges:
            a, b = colors[u], colors[v]
            w = base.words[big.index_of(min(a, b), max(a, b))]
            words.append(w if a < b else full ^ w)
        return tuple(words)

    rng = random.Random(17)
    for c in range(3, 41):
        for _ in range(3):
            n = rng.randint(c, c + 30)
            colors = [*range(c), *(rng.randrange(c) for _ in range(n - c))]
            rng.shuffle(colors)
            coloring = Coloring(colors).dense()
            p = rng.choice((0.1, 0.3, 0.7))
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if colors[u] != colors[v] and rng.random() < p])
            for fn, elbow in ((cover_via_coloring, False), (elbow_cover_via_coloring, True)):
                got = fn(g, coloring)
                assert got.words == explicit(g, coloring.colors, c, elbow), (c, fn.__name__)


def _words(shape, k, w, kind="orientation"):
    return OrientationCover(shape, k, [w] * shape[1], kind)


_K4 = generate_family("complete", 4)
_LK4 = line_graph(_K4)
_SHAPE = "cover shape (4, 4) does not match graph (4, 6)"


@pytest.mark.parametrize(
    "convert, graph, cover, error, message",
    [
        # a base off a complete graph, then the shape, then k = 0, then validity
        (elbow_double, generate_family("cycle", 4), _words((4, 6), 0, 0, "elbow"),
         ValueError, "expected a complete graph, got n=4, m=4"),
        (elbow_double, _K4, _words((4, 4), 0, 0, "elbow"), ShapeError, _SHAPE),
        (elbow_double, _K4, _words((4, 6), 0, 0, "elbow"),
         ValueError, "doubling needs at least one orientation"),
        (elbow_double, _K4, _words((4, 6), 2, 0, "elbow"),
         InvalidCoverError, "input cover is invalid: VIOLATION path=(0,1,2)"),
        # the size before the shape
        (coloring_from_orientation_cover, _K4, _words((4, 4), 2, 0),
         ValueError, "needs a covering of size at least 3"),
        (coloring_from_orientation_cover, _K4, _words((4, 4), 3, 0), ShapeError, _SHAPE),
        (coloring_from_orientation_cover, _K4, _words((4, 6), 3, 0),
         InvalidCoverError, "input cover is invalid: VIOLATION v=0 e=(0,1) f=(0,2)"),
        # validity before k = 0
        (coloring_from_elbow_cover, _K4, _words((4, 4), 0, 0, "elbow"), ShapeError, _SHAPE),
        (coloring_from_elbow_cover, _K4, _words((4, 6), 0, 0, "elbow"),
         InvalidCoverError, "input cover is invalid: VIOLATION path=(1,0,2)"),
        (coloring_from_elbow_cover, Graph(4, [(0, 1), (2, 3)]), _words((4, 2), 0, 0, "elbow"),
         ValueError, "a zero-orientation covering only colors edgeless graphs"),
        (orientation_cover_from_elbow, _K4, _words((4, 4), 1, 1, "elbow"), ShapeError, _SHAPE),
        (orientation_cover_from_elbow, _K4, _words((4, 6), 1, 1, "elbow"),
         InvalidCoverError, "input cover is invalid: VIOLATION path=(0,1,2)"),
        (out_star_eq_cover, _K4, _words((4, 4), 3, 0), ShapeError, _SHAPE),
        (out_star_eq_cover, _K4, _words((4, 6), 3, 0),
         InvalidCoverError, "input cover is invalid: VIOLATION v=0 e=(0,1) f=(0,2)"),
        (orientation_cover_from_eq_cover, _LK4, EquivalenceCover(5, [[]]),
         ShapeError, "cover n=5 does not match graph n=6"),
        (orientation_cover_from_eq_cover, _LK4, EquivalenceCover(6, [[]]),
         InvalidCoverError, "input cover is invalid: VIOLATION uncovered=(0,1)"),
    ],
)
def test_converters_check_their_input_in_order(convert, graph, cover, error, message):
    with pytest.raises(ValueError) as info:
        convert(graph, cover)
    assert (type(info.value), str(info.value)) == (error, message)
