from itertools import combinations

from eqcover import Graph, generate_family, line_graph


def test_triangle_line_graph_is_triangle():
    lm = line_graph(generate_family("complete", 3))
    assert (lm.line.n, lm.line.m) == (3, 3)


def test_path_line_graph():
    lm = line_graph(generate_family("path", 3))
    assert (lm.line.n, lm.line.m) == (2, 1)


def test_k4_line_graph_is_4_regular():
    lm = line_graph(generate_family("complete", 4))
    assert (lm.line.n, lm.line.m) == (6, 12)
    assert set(lm.line.degrees()) == {4}


def test_line_graph_pair_unpacks_as_host_and_line():
    g = generate_family("cycle", 5)
    lm = line_graph(g)
    host, line = lm
    assert host is g is lm.host and line is lm.line
    assert line == Graph(5, [(0, 1), (0, 2), (1, 4), (2, 3), (3, 4)])


def test_edgeless_host():
    lm = line_graph(Graph(3, []))
    assert (lm.line.n, lm.line.m) == (0, 0)
    assert lm.line.edges == ()


def test_adjacency_iff_shared_endpoint(corpus):
    for g in corpus.values():
        if g.m > 30:
            continue
        lm = line_graph(g)
        for e, f in combinations(range(g.m), 2):
            shares = bool(set(g.edges[e]) & set(g.edges[f]))
            assert lm.line.has_edge(e, f) == shares


def test_degree_formula(corpus):
    # deg_L(e) = deg(u) + deg(v) - 2, exhaustively
    for g in corpus.values():
        lm = line_graph(g)
        for e, (u, v) in enumerate(g.edges):
            assert lm.line.degree(e) == g.degree(u) + g.degree(v) - 2


def test_line_edge_count_formula(corpus):
    from math import comb

    for g in corpus.values():
        lm = line_graph(g)
        assert lm.line.m == sum(comb(g.degree(v), 2) for v in range(g.n))


def test_every_line_vertex_in_exactly_two_cliques(corpus):
    for g in corpus.values():
        lm = line_graph(g)
        for e in range(g.m):
            homes = [v for v in range(g.n) if e in g.incident(v)]
            assert tuple(homes) == g.edges[e]
        for v in range(g.n):  # C_v = host.incident(v) is a clique of L(g)
            assert all(lm.line.has_edge(e, f) for e, f in combinations(g.incident(v), 2))


def test_vertex_numbering_is_edge_index_order(corpus):
    for g in corpus.values():
        lm = line_graph(g)
        assert lm.line.n == g.m
        for e, f in lm.line.edges:  # line vertex e is host edge e
            assert set(g.edges[e]) & set(g.edges[f])


def _fields(g, first="adjacency"):
    """n, edges and the derived views, with the view `first` built first."""
    getattr(g, first)
    return (g.n, g.edges, g.adjacency, g._incident, g._index)


def _reference_line_graph(g):
    """L(g) through the validating constructor, from the pairs at each
    vertex in vertex order (unsorted)."""
    pairs = [p for v in range(g.n) for p in combinations(g.incident(v), 2)]
    return Graph(g.m, pairs)


def _build_cases(corpus):
    import random

    rng = random.Random(7)
    graphs = list(corpus.values())
    graphs += [Graph(0, []), Graph(5, []), Graph(2, [(0, 1)])]
    graphs += [generate_family("star", p) for p in (1, 2, 30)]
    graphs += [generate_family("complete", p) for p in (1, 2, 3, 9, 20)]
    for _ in range(120):
        n = rng.randint(1, 40)
        p = rng.random()
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    return graphs


def test_line_graph_from_sorted_rows_matches_validating_constructor(corpus):
    for g in _build_cases(corpus):
        lm = line_graph(g)
        assert _fields(lm.line) == _fields(_reference_line_graph(g))
        assert lm.host is g
        for first in ("_incident", "_index"):
            fresh = line_graph(g).line
            assert _fields(fresh, first) == _fields(_reference_line_graph(g))


def test_induced_restrictions_match_validating_constructor(corpus):
    import random

    from eqcover import induced_subgraph

    rng = random.Random(11)
    for g in _build_cases(corpus):
        for _ in range(3):
            keep = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
            relabel = {v: i for i, v in enumerate(keep)}
            kept = [(relabel[u], relabel[v]) for u, v in g.edges if u in relabel and v in relabel]
            kept.reverse()  # the reference must sort them itself
            reference = Graph(len(keep), kept)
            assert _fields(induced_subgraph(g, keep)) == _fields(reference)
