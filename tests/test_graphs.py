import gc
import random
import tracemalloc
from itertools import permutations

import pytest

from eqcover import (
    Graph,
    GraphFormatError,
    NotBipartiteError,
    bipartition,
    find_triangle,
    generate_family,
    induced_subgraph,
    mycielskian,
    parse_graph,
    write_graph,
)

import oracles
from line_readers import reference_graph, reference_parse_graph
from writers import reference_write_graph


def test_edges_normalized_and_sorted():
    g = Graph(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))
    assert g.index_of(2, 0) == 1
    assert g.adjacency[2] == (0, 3)
    assert g.incident(2) == (1, 2)
    with pytest.raises(ValueError, match=r"^\(3, 1\) is not an edge$"):
        g.index_of(3, 1)
    with pytest.raises(ValueError, match=r"^vertex 2 is not an endpoint of edge 0$"):
        g.other_endpoint(0, 2)


def test_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_degrees_and_pairs():
    g = Graph(4, [(0, 1), (2, 3)])
    assert g.degrees() == (1, 1, 1, 1)
    assert not g.has_incidence_pairs()
    assert generate_family("path", 3).has_incidence_pairs()


@pytest.mark.parametrize(
    "family,param,n,m",
    [
        ("complete", 4, 4, 6),
        ("cycle", 5, 5, 5),
        ("path", 4, 4, 3),
        ("star", 3, 4, 3),
        ("complete-bipartite", 2, 4, 4),
        ("petersen", 5, 10, 15),
        ("mycielski-iterate", 2, 2, 1),
        ("mycielski-iterate", 3, 5, 5),
        ("mycielski-iterate", 4, 11, 20),
    ],
)
def test_family_shapes(family, param, n, m):
    g = generate_family(family, param)
    assert (g.n, g.m) == (n, m)


def test_triangle_plus_pendant_exact_edges():
    g = generate_family("triangle-plus-pendant")
    assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3))
    with pytest.raises(ValueError):
        generate_family("triangle-plus-pendant", 3)


def test_family_errors():
    with pytest.raises(ValueError):
        generate_family("hypercube", 3)
    with pytest.raises(ValueError):
        generate_family("cycle", 2)
    with pytest.raises(ValueError):
        generate_family("petersen", 4)
    with pytest.raises(ValueError):
        generate_family("mycielski-iterate", 1)
    with pytest.raises(ValueError):
        generate_family("cycle")
    for family in ("complete", "path", "star", "complete-bipartite"):
        with pytest.raises(ValueError, match="at least one"):
            generate_family(family, 0)


def test_grotzsch_iterate_is_triangle_free_with_chi_4():
    # triangle-freeness by full triple enumeration; chi by the exact solver
    from eqcover import exact_chromatic

    g = generate_family("mycielski-iterate", 4)
    assert (g.n, g.m) == (11, 20)
    assert oracles.triangle_free_by_triples(g)
    assert find_triangle(g) is None
    assert exact_chromatic(g).value == 4


def test_mycielski_labeling():
    c5 = generate_family("cycle", 5)
    m = mycielskian(c5)
    assert m.n == 11
    for u, v in c5.edges:
        assert m.has_edge(u, v)
        assert m.has_edge(u, 5 + v)
        assert m.has_edge(v, 5 + u)
    for i in range(5):
        assert m.has_edge(5 + i, 10)
    assert m.degree(10) == 5


def test_mycielski_preserves_triangle_freeness():
    g = generate_family("path", 2)
    for _ in range(3):
        g = mycielskian(g)
        assert oracles.triangle_free_by_triples(g)


def test_petersen_is_cubic():
    g = generate_family("petersen", 5)
    assert set(g.degrees()) == {3}


def test_parse_write_round_trip(corpus):
    for name, g in corpus.items():
        text = write_graph(g)
        again = parse_graph(f"# {name}\n" + text)
        assert again == g
        assert write_graph(again) == text


def _sparse_edges(rng, n, m):
    """Up to m distinct random edges of a graph on n vertices, each
    pair in a random order."""
    pairs = {tuple(rng.sample(range(n), 2)) for _ in range(m)}
    return list({(min(p), max(p)): p for p in pairs}.values())


def test_arrow_blocks_match_a_fresh_format(corpus):
    # Both blocks must equal the edges formatted afresh, out of the low
    # endpoint and out of the high one, whether parse_graph seeded the
    # low block with the body it read, Graph formats it on first read,
    # or the line reader read the text; write_graph must match the
    # reference writer, which formats every line itself.
    rng = random.Random(31)
    graphs = list(corpus.values()) + [Graph(1, []), Graph(7, [])]
    for n in (10, 100, 1000, 10000):  # labels of 1 to 4 digits
        graphs += [Graph(n, _sparse_edges(rng, n, rng.randrange(60))) for _ in range(6)]
    for g in graphs:
        text = write_graph(g)
        assert text == reference_write_graph(g)
        seeded = parse_graph(text)
        line_read = parse_graph(text + "# a comment line\n")
        assert seeded._arrows[0] is not None and line_read._arrows == (None, None)
        low = "".join(f"{u} {v}\n" for u, v in g.edges)
        high = "".join(f"{v} {u}\n" for u, v in g.edges)
        for h in (seeded, line_read, Graph(g.n, reversed(g.edges))):
            assert h == g
            assert h._arrow_blocks == (low, high)
            assert write_graph(h) == text


def test_parse_rejects_with_line_numbers():
    with pytest.raises(GraphFormatError, match="header"):
        parse_graph("0 1\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("p 3 1\n1 0\n")
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("p 3 2\n0 1\n0 9\n")
    with pytest.raises(GraphFormatError, match="line 4"):
        parse_graph("# c\np 3 2\n0 1\n0 1\n")
    with pytest.raises(GraphFormatError, match="declares m=3"):
        parse_graph("p 3 3\n0 1\n0 2\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("p 3 1\n0 1 2\n")


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# a comment\n\np 3 2\n0 1\n\n# mid\n1 2\n")
    assert g.edges == ((0, 1), (1, 2))


def test_bipartition_sides():
    c4 = generate_family("cycle", 4)
    side = bipartition(c4)
    assert side[0] == 0
    for u, v in c4.edges:
        assert side[u] != side[v]


def test_bipartition_odd_cycle_witness():
    c5 = generate_family("cycle", 5)
    with pytest.raises(NotBipartiteError) as info:
        bipartition(c5)
    cycle = info.value.cycle
    assert len(cycle) % 2 == 1
    assert len(set(cycle)) == len(cycle)
    for i, v in enumerate(cycle):
        assert c5.has_edge(v, cycle[(i + 1) % len(cycle)])


def test_find_triangle_lex_first():
    assert find_triangle(generate_family("complete", 3)) == (0, 1, 2)
    assert find_triangle(generate_family("cycle", 4)) is None
    g = Graph(5, [(0, 3), (0, 4), (3, 4), (1, 2), (1, 3), (2, 3)])
    assert find_triangle(g) == (0, 3, 4)


def _reference_find_triangle(g):
    # find_triangle before it read the sets of higher neighbours from the edges
    adjsets = [set(a) for a in g.adjacency]
    for a, b in g.edges:
        common = adjsets[a] & adjsets[b]
        later = [c for c in common if c > b]
        if later:
            return (a, b, min(later))
    return None


def test_find_triangle_matches_set_based_reference(corpus):
    rng = random.Random(5)
    graphs = list(corpus.values())
    for _ in range(200):
        n = rng.randrange(1, 30)
        p = rng.choice((0.05, 0.1, 0.2, 0.4))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        graphs.append(Graph(n, pairs))
    for g in graphs:
        fresh = Graph._from_sorted(g.n, g.edges)
        assert find_triangle(fresh) == _reference_find_triangle(g)
        assert fresh._adj is None  # read from the edges alone


def test_induced_subgraph_relabels():
    k4 = generate_family("complete", 4)
    sub = induced_subgraph(k4, [1, 3])
    assert (sub.n, sub.m) == (2, 1)
    c5 = generate_family("cycle", 5)
    sub = induced_subgraph(c5, [0, 1, 2])
    assert sub.edges == ((0, 1), (1, 2))


def test_constructors_deterministic(corpus):
    for name, g in corpus.items():
        h = build_again(name)
        assert h == g
        assert write_graph(h) == write_graph(g)


def build_again(name):
    from conftest import build_corpus

    return build_corpus()[name]


def test_all_triangle_free_corpus_members_agree_with_oracle(corpus):
    for name, g in corpus.items():
        if g.n <= 12:
            assert (find_triangle(g) is None) == oracles.triangle_free_by_triples(g)


def test_induced_subgraph_rejects_out_of_range():
    with pytest.raises(ValueError):
        induced_subgraph(generate_family("complete", 3), [0, 5])


# ---------------------------------------------------------------------------
# Differential tests: the graph reader and Graph(n, edges) against verbatim
# copies (in line_readers.py) of the line-by-line reader and of the
# sort-and-scan constructor that preceded the bulk decode.  Every text and
# edge list must give the same graph, or the same exception type and message.


def _outcome(build, *args):
    try:
        g = build(*args)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("graph", g.n, g.edges, g.adjacency, g._incident, g._index)


def _random_edges(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return rng.sample(pairs, rng.randrange(len(pairs) + 1))


def _edge_lines(n, edges):
    return [f"p {n} {len(edges)}"] + [f"{u} {v}" for u, v in edges]


def _join(lines):
    return "\n".join(lines) + "\n"


def _layout_variants(rng, n, edges):
    """Texts of one edge set: as written, shuffled, and in every other
    layout the line-by-line reader accepts."""
    lines = _edge_lines(n, sorted(edges))
    shuffled = [lines[0]] + rng.sample(lines[1:], len(lines) - 1)
    yield _join(lines)
    yield _join(shuffled)
    yield "# comment\n" + _join(lines)
    yield _join(lines[:1] + [""] + lines[1:] + ["", "# trailing"])
    yield "\r\n".join(lines) + "\r\n"
    yield _join([line.replace(" ", "\t") for line in lines])
    yield _join([line + " " for line in lines])
    yield _join(["  " + line for line in lines])
    yield "\n".join(lines)
    if len(lines) > 1:
        u, v = lines[-1].split()
        for first, second in (("+" + u, v), (u, "0" + v), (u, v + "_0"), (u, "٣")):
            yield _join(lines[:-1] + [f"{first} {second}"])
        yield _join([lines[0].replace("p ", "p 0", 1)] + lines[1:])


def _corruptions(rng, n, edges):
    """One-point corruptions of the written text of a non-empty edge set."""
    lines = _edge_lines(n, sorted(edges))
    i = rng.randrange(1, len(lines))
    u, v = map(int, lines[i].split())

    def swap(line):
        return _join(lines[:i] + [line] + lines[i + 1 :])

    yield _join(lines[: i + 1] + [lines[i]] + lines[i + 1 :]).replace(
        lines[0], f"p {n} {len(edges) + 1}", 1
    )  # duplicate edge, m adjusted
    yield swap(f"{u} {u}")
    yield swap(f"{v} {u}")
    yield swap(f"{u} {n}")
    yield swap(f"{u} {n + 5}")
    yield swap(f"-1 {v}")
    yield swap(f"{u}")
    yield swap(f"{u} ")
    yield swap(f" {v}")
    yield swap(f"{u} {v} 0")
    yield _join(lines) + str(u)
    yield swap(f"{u} x")
    yield swap(f"{u}.0 {v}")
    yield _join([f"p {n} {len(edges) + 1}"] + lines[1:])
    yield _join([f"p {n} {len(edges) - 1}"] + lines[1:])
    yield _join(lines[1:])
    yield _join([f"p {n} -1"] + lines[1:])
    yield _join([f"p {n} x"] + lines[1:])
    yield _join(["q " + lines[0][2:]] + lines[1:])
    yield _join([lines[0].replace("p ", "p 1 ", 1)] + lines[1:])
    yield _join(["p 0 0"] + lines[1:])
    yield _join([f"p {n} 0"] + lines[1:])


def test_parse_graph_matches_reference_reader():
    rng = random.Random(20261018)
    texts = ["", "\n", "p 1 99999999999999\n", "p 0 0\n", "p 0 0", "p 3 0\n", "p 1 0\n", "p 00 0\n", "p 2 1\n0 1"]
    for _ in range(60):
        n = rng.randrange(0, 12)
        edges = _random_edges(rng, n)
        texts.extend(_layout_variants(rng, n, edges))
        if edges:
            texts.extend(_corruptions(rng, n, edges))
    bulk = 0
    for text in texts:
        expected = _outcome(reference_parse_graph, text)
        assert _outcome(parse_graph, text) == expected, text
        bulk += expected[0] == "graph" and write_graph(parse_graph(text)) == text
    assert bulk >= 60  # the layout write_graph produces is among the texts


def test_parse_graph_handles_numbers_past_the_conversion_limit():
    huge = "9" * 5000
    for text in (f"p {huge} 0\n", f"p 3 1\n0 {huge}\n"):
        assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)


def test_graph_constructor_matches_reference():
    rng = random.Random(7)
    cases = [(0, []), (3, [(1, 1)]), (3, [(0, 3)]), (3, [(0, 1), (1, 0)]), (-1, [])]
    for _ in range(200):
        n = rng.randrange(1, 10)
        edges = _random_edges(rng, n)
        cases.append((n, sorted(edges)))
        cases.append((n, edges))
        cases.append((n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]))
        if edges:
            cases.append((n, sorted(edges + [rng.choice(edges)])))
            cases.append((n, sorted(edges) + [(n - 1, n)]))
            cases.append((n, [(0, 0)] + sorted(edges)))
    for n, edges in cases:
        assert _outcome(Graph, n, edges) == _outcome(reference_graph, n, edges), (n, edges)


def _eager_tables(n, edges):
    # the derived tables as Graph built them in one loop before they were lazy
    adj = [[] for _ in range(n)]
    inc = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        adj[u].append(v)
        adj[v].append(u)
        inc[u].append(i)
        inc[v].append(i)
    return {
        "adjacency": tuple(tuple(a) for a in adj),
        "_incident": tuple(tuple(x) for x in inc),
        "_index": dict(zip(edges, range(len(edges)))),
    }


@pytest.mark.parametrize("order", list(permutations(("adjacency", "_incident", "_index"))))
def test_derived_tables_match_eager_build_in_any_read_order(corpus, order):
    rng = random.Random(3)
    graphs = list(corpus.values()) + [Graph(0, []), Graph(4, [])]
    for _ in range(60):
        n = rng.randrange(1, 14)
        graphs.append(Graph(n, _random_edges(rng, n)))
    for g in graphs:
        fresh = Graph._from_sorted(g.n, g.edges)  # no table read yet
        got = {name: getattr(fresh, name) for name in order}
        expected = _eager_tables(g.n, g.edges)
        assert got == expected
        assert [fresh.incident(v) for v in range(g.n)] == list(expected["_incident"])
        assert all(fresh.index_of(v, u) == e for (u, v), e in expected["_index"].items())


def test_decimal_ints_accepts_only_single_separated_decimals():
    from eqcover.graphs import _decimal_ints

    assert _decimal_ints("") == []
    assert _decimal_ints("0") == [0]
    assert _decimal_ints("10 2\n0 33\n7") == [10, 2, 0, 33, 7]
    for text in [
        "01", "1  2", "1\n\n2", " 1", "1 ", "1\n", "\n", "1\t2", "1\r\n2", "1,2",
        "-1", "+1", "1.0", "1e2", "٣", "[1]", "true", "NaN", "1 x",
    ]:
        assert _decimal_ints(text) is None, text


def test_parse_graph_peak_memory_no_higher_than_reference():
    # The bulk decode must not hold one container per line: a reader that
    # splits every line into a list costs more than the line-by-line
    # reader it replaces, because each list stays live until the end.
    text = write_graph(generate_family("complete", 400))

    def peak(reader):
        gc.collect()
        tracemalloc.start()
        try:
            reader(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_graph) <= peak(reference_parse_graph)
