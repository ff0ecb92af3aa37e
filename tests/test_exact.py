import math
import random
from itertools import combinations, combinations_with_replacement, product

import pytest

from eqcover import (
    Budget,
    EyebrowCover,
    Graph,
    NotBipartiteError,
    OrientationCover,
    bipartition,
    decide_elb,
    decide_eq,
    decide_eyebrow,
    decide_sigma,
    exact_chromatic,
    generate_family,
    greedy_coloring,
    line_graph,
    solve_invariant,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
)
from eqcover import construct
from eqcover.construct import pullback_size

import oracles
from conftest import least_elb_by_word_search, least_sigma_by_word_search
from cover_words import directions, ranking, ranking_cover, restrict


def test_sigma_triangle():
    k3 = generate_family("complete", 3)
    assert decide_sigma(k3, 2).status == "unsat"
    res = decide_sigma(k3, 3)
    assert res.status == "sat"
    assert verify_orientation_cover(k3, res.witness) is None


def test_sigma_k4_and_k5():
    k4 = generate_family("complete", 4)
    assert decide_sigma(k4, 2).status == "unsat"
    res = decide_sigma(k4, 3)
    assert res.status == "sat"
    assert verify_orientation_cover(k4, res.witness) is None
    k5 = generate_family("complete", 5)
    assert decide_sigma(k5, 3).status == "unsat"
    assert decide_sigma(k5, 4).status == "sat"


def test_elb_examples():
    k4 = generate_family("complete", 4)
    assert decide_elb(k4, 1).status == "unsat"
    res = decide_elb(k4, 2)
    assert res.status == "sat"
    assert verify_elbow_cover(k4, res.witness) is None
    k5 = generate_family("complete", 5)
    assert decide_elb(k5, 2).status == "unsat"
    c4 = generate_family("cycle", 4)
    assert decide_elb(c4, 1).status == "sat"


def test_eq_examples():
    lm3 = line_graph(generate_family("complete", 3))
    assert decide_eq(lm3.line, 1).status == "sat"
    lmt = line_graph(generate_family("triangle-plus-pendant"))
    assert decide_eq(lmt.line, 1).status == "unsat"
    res = decide_eq(lmt.line, 2)
    assert res.status == "sat"
    assert verify_equivalence_cover(lmt.line, res.witness) is None
    c4 = generate_family("cycle", 4)
    assert decide_eq(c4, 1).status == "unsat"
    res = decide_eq(c4, 2)
    assert res.status == "sat"
    assert verify_equivalence_cover(c4, res.witness) is None


def test_eyebrow_examples():
    p3 = generate_family("path", 3)
    res = decide_eyebrow(p3, 1)
    assert res.status == "sat"
    assert verify_eyebrow_cover(p3, res.witness) is None
    k4 = generate_family("complete", 4)
    assert decide_eyebrow(k4, 1).status == "unsat"
    res = decide_eyebrow(k4, 2)
    assert res.status == "sat"
    assert verify_eyebrow_cover(k4, res.witness) is None
    k5 = generate_family("complete", 5)
    assert decide_eyebrow(k5, 2).status == "unsat"


# full-enumeration cross-checks wherever m * k stays tiny
_SIGMA_ELB_GRID = [
    ("K3", 0),
    ("K3", 1),
    ("K3", 2),
    ("K3", 3),
    ("P3", 0),
    ("P3", 1),
    ("P4", 1),
    ("P4", 2),
    ("C4", 1),
    ("C4", 2),
    ("C5", 1),
    ("C5", 2),
    ("C5", 3),
    ("K4", 1),
    ("K4", 2),
    ("K4", 3),
    ("star3", 1),
    ("star3", 2),
    ("tri_pendant", 1),
    ("tri_pendant", 2),
    ("matching2", 0),
    ("matching2", 1),
]


@pytest.mark.parametrize("name,k", _SIGMA_ELB_GRID)
def test_sigma_against_enumeration(corpus, name, k):
    g = corpus[name]
    assert g.m * k <= 18
    expected = oracles.sigma_at_most(g, k)
    assert (decide_sigma(g, k).status == "sat") == expected


@pytest.mark.parametrize("name,k", _SIGMA_ELB_GRID)
def test_elb_against_enumeration(corpus, name, k):
    g = corpus[name]
    expected = oracles.elb_at_most(g, k)
    assert (decide_elb(g, k).status == "sat") == expected


def test_oracle_searches_match_plain_enumeration():
    # the sigma and elb oracles prune their enumeration; on graphs small
    # enough for every multiset of k orientations they must agree with it
    rng = random.Random(1980)
    for _ in range(60):
        n = rng.randint(1, 5)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.5])
        every = list(product((0, 1), repeat=g.m))
        for k in range(4):
            if g.m * k > 12:
                continue
            combos = list(combinations_with_replacement(every, k))
            for at_most, ok in (
                (oracles.sigma_at_most, oracles.orientation_cover_ok),
                (oracles.elb_at_most, oracles.elbow_cover_ok),
            ):
                assert at_most(g, k) == any(ok(g, c) for c in combos), (g.edges, k)


@pytest.mark.parametrize(
    "name,k",
    [
        ("K3", 1),
        ("K3", 2),
        ("C4", 1),
        ("C4", 2),
        ("C5", 2),
        ("C5", 3),
        ("P4", 1),
        ("P4", 2),
        ("star3", 1),
        ("tri_pendant", 2),
        ("matching2", 1),
    ],
)
def test_eq_against_enumeration(corpus, name, k):
    g = corpus[name]
    expected = oracles.eq_at_most(g, k)
    assert (decide_eq(g, k).status == "sat") == expected


def test_eq_on_line_graph_against_enumeration():
    h = line_graph(generate_family("triangle-plus-pendant")).line
    for k in (1, 2, 3):
        assert (decide_eq(h, k).status == "sat") == oracles.eq_at_most(h, k)


@pytest.mark.parametrize(
    "name,k",
    [("P3", 1), ("K3", 1), ("K3", 2), ("C4", 1), ("K4", 1), ("K4", 2)],
)
def test_eyebrow_against_enumeration(corpus, name, k):
    g = corpus[name]
    expected = oracles.eye_at_most(g, k)
    assert (decide_eyebrow(g, k).status == "sat") == expected


def test_chromatic_examples():
    assert exact_chromatic(generate_family("complete", 4)).value == 4
    assert exact_chromatic(generate_family("cycle", 5)).value == 3
    assert exact_chromatic(generate_family("petersen", 5)).value == 3
    res = exact_chromatic(generate_family("mycielski-iterate", 5))
    assert (res.value, res.nodes) == (5, 932)
    assert res.witness.check_proper(generate_family("mycielski-iterate", 5)) is None


def test_chromatic_against_enumeration(corpus):
    for name in ("K3", "K4", "C4", "C5", "P4", "star3", "tri_pendant", "bull", "K23"):
        g = corpus[name]
        assert exact_chromatic(g).value == oracles.chromatic_number(g)


def test_chromatic_trivial_graphs():
    assert exact_chromatic(Graph(0, [])).value == 0
    assert exact_chromatic(Graph(3, [])).value == 1


def test_elbow_formula_small_complete():
    # elb(K_n) = ceil(log2 log2 n) + 1 for n = 3, 4, 5
    for n in (3, 4, 5):
        expected = math.ceil(math.log2(math.log2(n))) + 1
        assert solve_invariant(generate_family("complete", n), "elb").value == expected


def test_solve_invariant_values(corpus):
    assert solve_invariant(corpus["K3"], "sigma").value == 3
    assert solve_invariant(corpus["C4"], "sigma").value == 2
    assert solve_invariant(corpus["star3"], "sigma").value == 1
    assert solve_invariant(corpus["matching2"], "sigma").value == 0
    assert solve_invariant(corpus["matching2"], "elb").value == 0
    assert solve_invariant(corpus["C4"], "eq").value == 2
    assert solve_invariant(corpus["K4"], "eye").value == 2
    assert solve_invariant(corpus["K4"], "chi").value == 4


def test_solve_witnesses_verify(corpus):
    for name in ("K3", "K4", "C5", "tri_pendant", "star3"):
        g = corpus[name]
        for invariant, verifier in (
            ("sigma", verify_orientation_cover),
            ("elb", verify_elbow_cover),
            ("eye", verify_eyebrow_cover),
        ):
            res = solve_invariant(g, invariant)
            assert res.status == "exact"
            if res.value > 0:
                assert verifier(g, res.witness) is None


def test_budget_exhaustion_and_interval():
    # sigma(M5) needs 895 nodes to refute 4-colorability, at its threshold M(3)
    m5 = generate_family("mycielski-iterate", 5)
    assert exact_chromatic(m5, Budget(max_nodes=50)).status == "bounded"
    solved = solve_invariant(m5, "sigma", Budget(max_nodes=50))
    assert solved.status == "bounded"
    assert solved.lo <= 4 <= solved.hi
    # the witness is a constructive certificate for the upper endpoint
    assert solved.witness.k == solved.hi
    assert verify_orientation_cover(m5, solved.witness) is None


@pytest.mark.parametrize(
    "family, parameter, value, nodes",
    [
        ("complete", 5, 4, 30),
        ("complete", 6, 4, 50),
        ("complete", 7, 4, 77),
        ("complete", 8, 4, 112),
        ("complete", 9, 4, 1472),
        # the paper's counterexample: chi = 5 > M(3) = 4 refutes sigma <= 3,
        # so 895 nodes refuting 4-colorability and 252 word-search nodes at
        # k = 4 (the greedy coloring has at most M(4) = 12 colors)
        ("mycielski-iterate", 5, 4, 1147),
        # 1,534 nodes refute 4-colorability and 1,018 decide k = 4; the
        # 5-colorability that chi(M6) = 6 refutes is never asked
        ("mycielski-iterate", 6, 4, 2552),
        # clique 2 and greedy 3 both give sigma = 3, so no node is spent
        ("petersen", 5, 3, 0),
    ],
)
def test_sigma_read_off_chi_pins(family, parameter, value, nodes):
    g = generate_family(family, parameter)
    res = solve_invariant(g, "sigma")
    assert (res.status, res.value, res.nodes) == ("exact", value, nodes)
    assert res.witness.k == value
    assert verify_orientation_cover(g, res.witness) is None


@pytest.mark.parametrize(
    "parameter, value, nodes",
    [
        # chi <= 2^(2^1) = 4 is refuted, and the greedy coloring has at
        # most 2^(2^2) = 16 colors, whose elbow pullback has size 3
        (5, 3, 895),
        (6, 3, 1534),
    ],
)
def test_elb_read_off_the_color_thresholds_pins(parameter, value, nodes):
    g = generate_family("mycielski-iterate", parameter)
    res = solve_invariant(g, "elb")
    assert (res.status, res.value, res.nodes) == ("exact", value, nodes)
    assert res.witness.k == value
    assert verify_elbow_cover(g, res.witness) is None


def test_a_coloring_found_at_the_threshold_gives_the_witness():
    # DSATUR colors this graph with 5 colors, so the greedy pullbacks have
    # sizes 5 (sigma) and 3 (elb); the 4-coloring found at the common
    # threshold M(3) = 2^(2^1) = 4 pulls back to the exact witnesses
    g = Graph(9, [
        (0, 2), (0, 3), (0, 5), (0, 7), (0, 8), (1, 2), (1, 3), (1, 6), (1, 7), (2, 3), (2, 4), (2, 6),
        (3, 5), (3, 6), (3, 7), (4, 5), (4, 6), (4, 7), (4, 8), (5, 7), (5, 8), (6, 7), (6, 8), (7, 8),
    ])
    assert greedy_coloring(g).palette_size == 5
    for invariant, value, verifier in (("sigma", 3, verify_orientation_cover), ("elb", 2, verify_elbow_cover)):
        res = solve_invariant(g, invariant)
        assert (res.status, res.value, res.nodes) == ("exact", value, 12)
        assert res.witness.k == value and verifier(g, res.witness) is None


def test_closed_interval_is_exact_without_deciding_the_upper_end():
    # every k below the constructive cover's size is refuted within the
    # budget, so the cover is the exact witness; deciding k = 3 as well
    # used to run out of nodes and report [3, 3] as "bounded".  K4's
    # sigma <= 2 is refuted in closed form, no nodes.  K9's elb is read
    # off chi, whose search takes no nodes (clique 9 = DSATUR 9); the
    # per-k word search took 212,484 nodes to refute elb <= 2
    k4 = generate_family("complete", 4)
    res = solve_invariant(k4, "sigma", Budget(max_nodes=20))
    assert (res.status, res.lo, res.hi, res.nodes) == ("exact", 3, 3, 0)
    assert res.witness.k == 3 and verify_orientation_cover(k4, res.witness) is None

    k9 = generate_family("complete", 9)
    budget = Budget(212485)
    res = solve_invariant(k9, "elb", budget)
    assert (res.status, res.lo, res.hi, res.nodes) == ("exact", 3, 3, 0)
    assert budget.exhausted is None
    assert res.witness.k == 3 and verify_elbow_cover(k9, res.witness) is None


def test_small_k_decisions_take_no_nodes_on_many_disjoint_edges():
    # each disjoint edge used to double the search for sigma <= 1 and
    # sigma <= 2; both are now answered in closed form
    p4 = [(0, 1), (1, 2), (2, 3)]
    g = Graph(40, p4 + [(4 + 2 * i, 5 + 2 * i) for i in range(18)])
    res = decide_sigma(g, 1)
    assert (res.status, res.nodes) == ("unsat", 0)
    res = decide_sigma(g, 2)
    assert (res.status, res.nodes, res.witness.k) == ("sat", 0, 2)
    assert verify_orientation_cover(g, res.witness) is None

    triangle = [(0, 1), (0, 2), (1, 2)]
    g = Graph(27, triangle + [(3 + 2 * i, 4 + 2 * i) for i in range(12)])
    res = solve_invariant(g, "sigma")
    assert (res.status, res.value, res.nodes) == ("exact", 3, 0)
    assert verify_orientation_cover(g, res.witness) is None
    res = solve_invariant(g, "elb")
    assert (res.status, res.value, res.nodes) == ("exact", 2, 0)
    assert verify_elbow_cover(g, res.witness) is None


def test_closed_form_witnesses():
    # sigma <= 1: out of the end of degree >= 2, else out of the low end
    g = Graph(8, [(0, 3), (1, 3), (2, 4), (5, 6), (5, 7)])
    res = decide_sigma(g, 1)
    assert (res.status, res.witness.words) == ("sat", (0, 0, 1, 1, 1))
    res = decide_sigma(Graph(4, [(0, 1), (2, 3)]), 0)
    assert (res.status, res.witness.k, res.witness.words) == ("sat", 0, (0, 0))
    res = decide_elb(Graph(4, [(0, 1), (2, 3)]), 0)
    assert (res.status, res.witness.kind) == ("sat", "elbow")
    c4 = generate_family("cycle", 4)
    assert decide_elb(c4, 1).witness.k == 1 and decide_sigma(c4, 2).witness.k == 2
    c5 = generate_family("cycle", 5)
    assert [decide_sigma(c5, k).status for k in range(3)] == ["unsat"] * 3
    assert [decide_elb(c5, k).status for k in range(2)] == ["unsat"] * 2


def test_truncated_solves_carry_verifying_upper_witnesses(corpus):
    from eqcover import line_graph as _lg

    tiny = Budget(max_nodes=1)
    for name in ("K5", "petersen", "grotzsch"):
        g = corpus[name]
        budgets = {
            "sigma": verify_orientation_cover,
            "elb": verify_elbow_cover,
            "eye": verify_eyebrow_cover,
        }
        for invariant, verifier in budgets.items():
            res = solve_invariant(g, invariant, Budget(max_nodes=1))
            # sigma <= 2 and elb <= 1 fail in closed form off bipartite
            # graphs, which closes sigma = 3 and elb = 2 on these two;
            # elb is read off chi, which K5 settles with no node (clique 5)
            closed = invariant == "elb" or (name != "K5" and invariant != "eye")
            assert res.status == ("exact" if closed else "bounded")
            assert res.witness.k == res.hi
            assert verifier(g, res.witness) is None
    host = _lg(corpus["K4"]).line
    res = solve_invariant(host, "eq", Budget(max_nodes=1))
    assert res.status == "bounded"
    assert res.witness.k == res.hi
    assert verify_equivalence_cover(host, res.witness) is None


def test_eye_upper_witness_matches_complete_graph_ranks():
    # the ranks of each orientation of the explicit K4 -> K16 -> K256
    # elbow_double chain, from the K4 vertex orders (0,1,2,3), (2,0,3,1),
    # restricted to the first n vertices by index
    from eqcover import elbow_double
    from eqcover.exact import _upper_witness

    k4 = generate_family("complete", 4)
    k16 = generate_family("complete", 16)
    k256 = generate_family("complete", 256)
    orders = ((0, 1, 2, 3), (2, 0, 3, 1))
    c4 = ranking_cover(k4, [ranking(o) for o in orders], "elbow")
    c16 = elbow_double(k4, c4)
    c256 = elbow_double(k16, c16)
    for n in [*range(3, 41), *range(41, 255, 7), 255, 256]:
        big, cover = (k4, c4) if n <= 4 else (k16, c16) if n <= 16 else (k256, c256)
        complete, base = restrict(big, cover, range(n))
        want = []
        for i in range(base.k):
            out = [0] * n
            for (u, v), w in zip(complete.edges, base.words):
                out[u if (w >> i) & 1 else v] += 1
            want.append(tuple(n - 1 - d for d in out))
        got = _upper_witness(generate_family("path", n), "eye")
        assert list(got.rankings) == want, n


def test_wall_clock_budget():
    k5 = generate_family("complete", 5)
    res = decide_sigma(k5, 3, Budget(max_seconds=0.0))
    # the k=3 search needs thousands of nodes, so the clock check trips
    assert res.status == "timeout"


def test_budget_refuses_negative_and_nan_limits():
    for kwargs, message in [
        ({"max_nodes": -1}, "max_nodes must be >= 0, got -1"),
        ({"max_seconds": -0.5}, "max_seconds must be >= 0, got -0.5"),
        ({"max_seconds": float("nan")}, "max_seconds must be >= 0, got nan"),
        ({"max_nodes": 5, "max_seconds": -1.0}, "max_seconds must be >= 0, got -1.0"),
    ]:
        with pytest.raises(ValueError) as info:
            Budget(**kwargs)
        assert str(info.value) == message
    # zero and infinity are limits: no node, and no clock
    assert Budget(max_nodes=0, max_seconds=0.0).max_nodes == 0
    m4 = generate_family("mycielski-iterate", 4)
    res = exact_chromatic(m4, Budget(max_nodes=10**6, max_seconds=float("inf")))
    assert (res.status, res.value) == ("exact", 4)


def test_determinism():
    k4 = generate_family("complete", 4)
    a = decide_sigma(k4, 3)
    b = decide_sigma(k4, 3)
    assert a.nodes == b.nodes
    assert a.witness.words == b.witness.words
    ga = generate_family("mycielski-iterate", 4)
    assert exact_chromatic(ga).witness.colors == exact_chromatic(ga).witness.colors


def test_solver_reproduces_pinned_k4_cover():
    from eqcover import k4_sigma3_cover

    res = decide_sigma(generate_family("complete", 4), 3)
    assert directions(res.witness) == directions(k4_sigma3_cover())


def test_greedy_coloring_proper(corpus):
    for g in corpus.values():
        coloring = greedy_coloring(g)
        assert coloring.check_proper(g) is None


def _corpus_and_random_graphs(corpus):
    """The corpus and 80 seeded random graphs with n <= 9."""
    rng = random.Random(8128)
    graphs = list(corpus.values())
    for _ in range(80):
        n = rng.randint(2, 9)
        p = rng.choice((0.2, 0.4, 0.6, 0.8, 0.95))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return graphs


def test_elb_read_off_chi_matches_the_least_sat_word_search(corpus):
    # solve_invariant reads elb off chi; decide_elb still searches words,
    # so the least k it accepts is a reference that shares no rule with it
    for g in _corpus_and_random_graphs(corpus):
        want = least_elb_by_word_search(g)
        res = solve_invariant(g, "elb")
        assert (res.status, res.value, res.witness.k) == ("exact", want, want)
        assert verify_elbow_cover(g, res.witness) is None
        for nodes in (1, 5, 20):
            res = solve_invariant(g, "elb", Budget(max_nodes=nodes))
            assert res.lo <= want <= res.hi == res.witness.k
            assert verify_elbow_cover(g, res.witness) is None


def test_sigma_read_off_chi_matches_the_least_sat_word_search(corpus):
    # solve_invariant takes sigma's lower end from chi and decides only
    # the k it leaves open; decide_sigma from k = 0 is a reference that
    # does not read chi
    for g in _corpus_and_random_graphs(corpus):
        want = least_sigma_by_word_search(g)
        res = solve_invariant(g, "sigma")
        assert (res.status, res.value, res.witness.k) == ("exact", want, want)
        assert verify_orientation_cover(g, res.witness) is None
        for nodes in (1, 5, 20):
            res = solve_invariant(g, "sigma", Budget(max_nodes=nodes))
            assert res.lo <= want <= res.hi == res.witness.k
            assert res.status != "exact" or res.lo == res.hi
            assert verify_orientation_cover(g, res.witness) is None


def test_elb_homomorphism_bound(corpus):
    # elb(G) <= elb(K_chi(G)), with the complete-graph value from the formula
    for name in ("K3", "K4", "C5", "tri_pendant", "bull", "petersen", "grotzsch"):
        g = corpus[name]
        chi = exact_chromatic(g).value
        if chi < 3:
            continue
        bound = math.ceil(math.log2(math.log2(chi))) + 1
        assert solve_invariant(g, "elb").value <= bound


def test_unknown_invariant():
    with pytest.raises(ValueError):
        solve_invariant(generate_family("complete", 3), "girth")


def test_decide_rejects_negative_k():
    g = generate_family("complete", 3)
    for decide in (decide_sigma, decide_elb, decide_eq, decide_eyebrow):
        with pytest.raises(ValueError):
            decide(g, -1)


def test_line_graph_eq_exact_values(corpus):
    # eq(L(K4)) = 3 is cross-checked against full enumeration in a
    # separate probe; the octahedron has no 2-subgraph covering even
    # though two vertex-disjoint triangle pairs exist (they always
    # leave one antipodal-free pair uncovered).
    values = {"K3": 1, "K4": 3, "K5": 4, "tri_pendant": 2}
    for name, expected in values.items():
        host = line_graph(corpus[name]).line
        assert solve_invariant(host, "eq").value == expected


def test_triangle_free_equality_beyond_ten_edges(corpus):
    # Petersen graph: 15 edges, triangle-free, so eq(L) must equal sigma
    petersen = corpus["petersen"]
    sigma = solve_invariant(petersen, "sigma").value
    eq_line = solve_invariant(line_graph(petersen).line, "eq").value
    assert sigma == eq_line == 3


# Node counts are deterministic: one node per word (or label set) tried.
# Pinned as guards against changes to the search tree.
@pytest.mark.parametrize(
    "decide, n, k, status, nodes",
    [
        (decide_sigma, 5, 3, "unsat", 5472),
        (decide_sigma, 6, 3, "unsat", 27544),
        (decide_sigma, 7, 3, "unsat", 130288),
        (decide_elb, 5, 2, "unsat", 2260),
        (decide_elb, 6, 2, "unsat", 7520),
        (decide_elb, 7, 2, "unsat", 23468),
        (decide_elb, 8, 2, "unsat", 71096),
        (decide_elb, 9, 2, "unsat", 212484),
        (decide_elb, 8, 3, "sat", 0),  # k = 3 is the K_8 cover's size: no search
        (decide_sigma, 9, 4, "sat", 1472),
    ],
)
def test_pinned_node_counts(decide, n, k, status, nodes):
    res = decide(generate_family("complete", n), k)
    assert (res.status, res.nodes) == (status, nodes)


@pytest.mark.parametrize("j", range(5))
def test_free_edges_take_no_search_nodes(j):
    # edges whose ends both have degree 1 are left out of the search (word
    # 0): K5 listed after j disjoint edges takes K5's 5,472 nodes for every j
    g = Graph(2 * j + 5, [(2 * i, 2 * i + 1) for i in range(j)] + [
        (2 * j + a, 2 * j + b) for a in range(5) for b in range(a + 1, 5)
    ])
    res = decide_sigma(g, 3)
    assert (res.status, res.nodes) == ("unsat", 5472)
    res = decide_sigma(g, 4)
    assert res.status == "sat"
    assert verify_orientation_cover(g, res.witness) is None
    assert all(res.witness.words[e] == 0 for e in range(j))


def test_pinned_node_counts_eq_and_budget():
    k5 = generate_family("complete", 5)
    res = decide_eq(line_graph(k5).line, 3)
    assert (res.status, res.nodes) == ("unsat", 6334)
    res = decide_eyebrow(k5, 2)
    assert (res.status, res.nodes) == ("unsat", 354)
    budget = Budget(max_nodes=50)
    res = decide_sigma(k5, 3, budget)
    assert (res.status, res.nodes, budget.nodes, budget.exhausted) == (
        "timeout", 51, 51, "nodes"
    )


def test_searches_deeper_than_the_recursion_limit():
    # one search level per edge, far past Python's recursion limit
    cycle = generate_family("cycle", 1500)
    res = decide_elb(cycle, 2)
    assert res.status == "sat"
    assert verify_elbow_cover(cycle, res.witness) is None
    odd = generate_family("cycle", 1501)
    res = solve_invariant(odd, "sigma")
    assert res.value == 3
    assert verify_orientation_cover(odd, res.witness) is None
    # and one level per vertex: the eyebrow search inserts 1001 of them
    odd = generate_family("cycle", 1001)
    res = decide_eyebrow(odd, 2)
    assert (res.status, res.nodes) == ("sat", 1997)
    assert verify_eyebrow_cover(odd, res.witness) is None


def test_chromatic_search_deeper_than_the_recursion_limit():
    # one search level per vertex; the 2-colouring proof runs 1001 deep
    odd = generate_family("cycle", 1001)
    res = exact_chromatic(odd)
    assert (res.value, res.status) == (3, "exact")
    assert res.witness.check_proper(odd) is None


def _random_small_graph(rng, n):
    kind = rng.randrange(3)
    if kind == 0:  # linear forests, the k = 1 yes-instances
        order = rng.sample(range(n), n)
        edges = [(order[i], order[i + 1]) for i in range(n - 1) if rng.random() < 0.7]
    elif kind == 1:  # a linear forest with one chord or closing edge
        order = rng.sample(range(n), n)
        edges = [(order[i], order[i + 1]) for i in range(n - 1)]
        edges.append(tuple(rng.sample(range(n), 2)))
    else:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3]
    return Graph(n, {(min(e), max(e)) for e in edges})


def test_eyebrow_closed_form_agrees_with_enumeration():
    # k <= 1 is decided without search: k = 0 needs no edge with a third
    # vertex, k = 1 needs a linear forest
    rng = random.Random(4242)
    statuses = set()
    for _ in range(400):
        g = _random_small_graph(rng, rng.randint(2, 7))
        for k in (0, 1):
            res = decide_eyebrow(g, k)
            assert (res.status == "sat") == oracles.eye_at_most(g, k), (g.edges, k)
            assert res.nodes == 0
            if res.status == "sat":
                assert res.witness.k == k
                assert verify_eyebrow_cover(g, res.witness) is None
            statuses.add((k, res.status))
    assert statuses == {(0, "sat"), (0, "unsat"), (1, "sat"), (1, "unsat")}


def test_eyebrow_k1_witness_lists_paths_in_turn():
    g = Graph(7, [(0, 5), (1, 2), (2, 6), (3, 6)])
    res = decide_eyebrow(g, 1)
    assert res.witness.rankings == (ranking((0, 5, 1, 2, 6, 3, 4)),)
    assert decide_eyebrow(generate_family("cycle", 5), 1).status == "unsat"
    assert decide_eyebrow(generate_family("star", 3), 1).status == "unsat"


def test_eyebrow_on_bipartite_graphs_is_closed_form():
    # below the K_n cover's size, k >= 2 on a bipartite graph needs no
    # search: side 0 then side 1, each ascending, then each descending
    rng = random.Random(2718)
    for trial in range(300):
        n = rng.randint(3, 40)
        side = [rng.randrange(2) for _ in range(n)]
        p = rng.choice((0.1, 0.3, 0.7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if side[u] != side[v]]
        g = Graph(n, [e for e in pairs if rng.random() < p])
        sides = bipartition(g)
        up = ranking(sorted(range(n), key=lambda v: (sides[v], v)))
        down = ranking(sorted(range(n), key=lambda v: (sides[v], -v)))
        for k in range(2, pullback_size(n, "eyebrow")):
            res = decide_eyebrow(g, k, Budget(max_nodes=0))
            assert (res.status, res.nodes, res.witness.k) == ("sat", 0, k)
            assert verify_eyebrow_cover(g, res.witness) is None
            if g.m:
                assert res.witness.rankings == (up,) + (down,) * (k - 1)
            if n <= 7:
                assert oracles.eyebrow_cover_ok(g, res.witness.rankings)


def test_eyebrow_search_stays_off_bipartite_graphs():
    # C6 at k = 2 took 35 search nodes before the closed form; C5 and
    # C7, which have odd cycles, still search
    c6 = generate_family("cycle", 6)
    res = decide_eyebrow(c6, 2)
    assert (res.status, res.nodes) == ("sat", 0)
    assert res.witness.rankings == (ranking((0, 2, 4, 1, 3, 5)), ranking((4, 2, 0, 5, 3, 1)))
    for n in (5, 7):
        res = decide_eyebrow(generate_family("cycle", n), 2)
        assert res.status == "sat" and res.nodes > 0
        assert verify_eyebrow_cover(generate_family("cycle", n), res.witness) is None


@pytest.mark.parametrize("family, parameter, nodes", [
    ("petersen", 5, 40), ("mycielski-iterate", 4, 112), ("cycle", 61, 117),
])
def test_eye_is_two_on_petersen_groetzsch_and_an_odd_cycle(family, parameter, nodes):
    # eye >= 2 off linear forests, and the eyebrow search finds two
    # rankings
    g = generate_family(family, parameter)
    res = solve_invariant(g, "eye")
    assert (res.status, res.value, res.nodes) == ("exact", 2, nodes)
    assert verify_eyebrow_cover(g, res.witness) is None
    assert oracles.eyebrow_cover_ok(g, res.witness.rankings)


def test_eyebrow_search_ranks_vertex_0_below_vertex_1():
    # a ranking and its reverse cover the same triples, so each order of
    # the search begins as [0, 1]; the closed forms take no node
    rng = random.Random(3141)
    searched = 0
    for _ in range(100):
        g = _random_small_graph(rng, rng.randint(5, 7))
        res = decide_eyebrow(g, 2, Budget(max_nodes=5000))
        if res.status == "sat" and res.nodes:
            searched += 1
            assert res.witness.k == 2
            assert all(r[0] < r[1] for r in res.witness.rankings), g.edges
            assert verify_eyebrow_cover(g, res.witness) is None
            assert oracles.eyebrow_cover_ok(g, res.witness.rankings)
    assert searched >= 10


# Size of the K_n cover that answers every k at or above it: the identity
# coloring's pullbacks for sigma and elb, the eyebrow rankings for eye.
_COMPLETE_SIZES = {
    1: (2, 1, 0),
    2: (2, 1, 0),
    3: (3, 2, 2),
    4: (3, 2, 2),
    5: (5, 3, 3),
    16: (5, 3, 3),
    17: (8, 4, 4),
    256: (8, 4, 4),
    257: (10, 5, 5),
}
_KINDS = (
    (decide_sigma, verify_orientation_cover, oracles.orientation_cover_ok),
    (decide_elb, verify_elbow_cover, oracles.elbow_cover_ok),
    (decide_eyebrow, verify_eyebrow_cover, oracles.eyebrow_cover_ok),
)


def _oracle_rows(witness):
    if hasattr(witness, "rankings"):
        return witness.rankings
    return directions(witness)


@pytest.mark.parametrize("n", sorted(_COMPLETE_SIZES))
def test_complete_cover_size_is_decided_without_search(n):
    g = generate_family("complete", n)
    for (decide, verify, oracle), s in zip(_KINDS, _COMPLETE_SIZES[n]):
        res = decide(g, s, Budget(max_nodes=0))
        assert (res.status, res.nodes, res.witness.k) == ("sat", 0, s), decide
        assert verify(g, res.witness) is None
        if n <= 5:
            assert oracle(g, _oracle_rows(res.witness))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_just_below_the_complete_cover_size_matches_enumeration(n):
    g = generate_family("complete", n)
    sigma, elb, eye = (s - 1 for s in _COMPLETE_SIZES[n])
    expect_sigma, expect_elb = oracles.sigma_at_most(g, sigma), oracles.elb_at_most(g, elb)
    if n == 5:  # sigma(K5) = 4 (chi = 5 lies in the window 5..12), elb(K5) = 3
        assert (expect_sigma, expect_elb) == (True, False)
    assert (decide_sigma(g, sigma).status == "sat") == expect_sigma
    assert (decide_elb(g, elb).status == "sat") == expect_elb
    if eye >= 0:
        assert (decide_eyebrow(g, eye).status == "sat") == oracles.eye_at_most(g, eye)


def test_relabelling_keeps_every_decision():
    rng = random.Random(1519)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        perm = rng.sample(range(n), n)
        h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges])
        # K_6's cover sizes are K_5's
        for (decide, _, _), s in zip(_KINDS, _COMPLETE_SIZES[min(n, 5)]):
            for k in range(s + 2):
                assert decide(g, k).status == decide(h, k).status, (g.edges, perm, k)
        for invariant, check in _SOLVE_CHECKS.items():
            a, b = solve_invariant(g, invariant), solve_invariant(h, invariant)
            assert (a.status, a.lo, a.hi) == (b.status, b.lo, b.hi), (g.edges, perm, invariant)
            assert check(h, b.witness) is None, (g.edges, perm, invariant)


_SOLVE_CHECKS = {
    "chi": lambda g, coloring: coloring.check_proper(g),
    "sigma": verify_orientation_cover,
    "elb": verify_elbow_cover,
    "eq": verify_equivalence_cover,
    "eye": verify_eyebrow_cover,
}


def _eyebrow_base(g, k):
    """The size whose eyebrow witness a decision at k pads with its last
    ranking, or None where k is left to the search: 1 with no third
    vertex, the K_n cover's size from there on, else 2 on a bipartite
    graph."""
    size = pullback_size(g.n, "eyebrow")
    if g.m == 0 or g.n < 3:
        return 1
    if k >= size:
        return size
    try:
        bipartition(g)
    except NotBipartiteError:
        return None
    return 2 if k >= 2 else None


def test_padded_witnesses_repeat_the_last_ranking():
    # up to twice the natural size, a witness padded to k (the K_n
    # pullback, the eyebrow rankings of K_n, the bipartite and the
    # no-third-vertex answers) equals the one built by repeating its
    # last ranking explicitly, and the checking constructors accept it
    rng = random.Random(4127)
    graphs = [generate_family(f, p) for f, p in (("path", 2), ("cycle", 6), ("petersen", 5), ("complete", 5))]
    graphs += [
        Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])
        for n in (1, 2, 3, 4, 6, 7, 9, 17, 18)
    ]
    checked = set()
    for g in graphs:
        for kind, decide, closed in (("orientation", decide_sigma, 2), ("elbow", decide_elb, 1)):
            ranks = construct._base_ranks(g.n, kind)
            size = len(ranks)
            for k in range(max(size, closed + 1), 2 * size + 1):
                explicit = construct._pullback(g, range(g.n), [*ranks, *[ranks[-1]] * (k - size)], kind)
                res = decide(g, k, Budget(max_nodes=0))
                assert (res.status, res.witness.k, res.witness.words) == ("sat", k, explicit.words)
                public = OrientationCover(res.witness.graph_shape, k, res.witness.words, kind)
                assert public.words == explicit.words
                checked.add((kind, k > size))
        for k in range(1, 2 * pullback_size(g.n, "eyebrow") + 1):
            base = _eyebrow_base(g, k)
            if base is None:
                continue
            natural = decide_eyebrow(g, base).witness.rankings
            rankings = decide_eyebrow(g, k, Budget(max_nodes=0)).witness.rankings
            assert rankings == natural + natural[-1:] * (k - base), (g, k)
            assert EyebrowCover(g.n, rankings).rankings == rankings
            checked.add(("eyebrow", k > base))
    assert checked == {(kind, padded) for kind in ("orientation", "elbow", "eyebrow") for padded in (False, True)}
