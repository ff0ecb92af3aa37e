import math

import pytest

from eqcover import (
    Budget,
    Graph,
    alon_bounds,
    bounds_report,
    generate_family,
    verify_equivalence_cover,
    verify_orientation_cover,
    line_graph,
)
from eqcover.bounds import sigma_lower_from_chi
from eqcover.construct import pullback_size

from conftest import least_elb_by_word_search
from cover_words import out_stars


def test_alon_values():
    lo, hi, degenerate = alon_bounds(5, 2)
    assert not degenerate
    assert abs(lo - 1.3219280948873622) < 1e-12
    assert abs(hi - 214.0600864089852) < 1e-9

    lo, hi, degenerate = alon_bounds(4, 3)
    assert degenerate and lo == math.inf
    assert abs(hi - 20.48681360789219) < 1e-12

    lo, hi, degenerate = alon_bounds(2, 0)
    assert lo == 1.0
    assert abs(hi - 40.97362721578438) < 1e-12


def test_alon_rejects_out_of_range():
    with pytest.raises(ValueError):
        alon_bounds(0, 0)
    with pytest.raises(ValueError):
        alon_bounds(4, 4)
    with pytest.raises(ValueError):
        alon_bounds(4, -1)


def test_report_k4():
    rep = bounds_report(generate_family("complete", 4))
    assert (rep.chi.lo, rep.chi.hi) == (4, 4)
    assert (rep.sigma.lo, rep.sigma.hi) == (3, 3)
    assert (rep.elb.lo, rep.elb.hi) == (2, 2)
    assert (rep.eq_line.lo, rep.eq_line.hi) == (1, 3)
    assert not rep.triangle_free
    assert rep.alon.degenerate


def test_report_c4():
    rep = bounds_report(generate_family("cycle", 4))
    assert rep.chi.render() == "2"
    assert rep.sigma.render() == "2"
    assert rep.elb.render() == "1"
    assert rep.eq_line.render() == "2"
    assert rep.triangle_free


def test_report_star_sigma_one():
    rep = bounds_report(generate_family("star", 4))
    assert rep.sigma.render() == "1"
    assert rep.eq_line.render() == "1"


def test_report_matching():
    rep = bounds_report(Graph(4, [(0, 1), (2, 3)]))
    assert rep.sigma.render() == "0"
    assert rep.elb.render() == "0"
    assert rep.eq_line.render() == "0"


def test_report_k16_pins_sigma_five():
    rep = bounds_report(generate_family("complete", 16))
    assert rep.chi.render() == "16"
    assert (rep.sigma.lo, rep.sigma.hi) == (5, 5)
    assert rep.sigma.hi_provenance == "constructive pullback witness"
    assert rep.elb.render() == "3"


@pytest.mark.parametrize("c", [14, 20])
def test_report_sigma_upper_end_is_the_pullback_witness_past_chi_12(c):
    # the pullback witness is five up to chi 16 and 2 ceil(log2 log2 c) + 2
    # beyond, so it is the upper end past the chi 5..12 window
    rep = bounds_report(generate_family("complete", c))
    assert rep.chi.render() == str(c)
    assert rep.sigma.hi == rep.witnesses["sigma"].k == (5 if c <= 16 else 8)
    assert rep.sigma.hi_provenance == "constructive pullback witness"


def test_report_bipartite_sigma_in_closed_form_without_nodes():
    # 30 disjoint edges and a P4: sigma <= 1 fails on the P4's middle
    # edge, so sigma = 2, with no search node and no budget note
    g = Graph(64, [(2 * i, 2 * i + 1) for i in range(30)] + [(60, 61), (61, 62), (62, 63)])
    rep = bounds_report(g)
    assert (rep.sigma.render(), rep.elb.render(), rep.nodes, rep.notes) == ("2", "1", 0, [
        "triangle-free: eq(L) equals sigma exactly"
    ])
    assert rep.sigma.provenance() == "lo: closed form at k=1; hi: two-source bipartite covering"
    assert verify_orientation_cover(g, rep.witnesses["sigma"]) is None
    assert bounds_report(generate_family("star", 4)).sigma.provenance() == "closed form at k=1"


def test_report_mycielski5_chain():
    g = generate_family("mycielski-iterate", 5)
    rep = bounds_report(g)
    assert rep.triangle_free
    assert rep.chi.render() == "5"
    assert (rep.sigma.lo, rep.sigma.hi) == (4, 4)
    assert (rep.eq_line.lo, rep.eq_line.hi) == (4, 4)
    assert rep.eq_line.lo > 3


def test_report_witnesses_verify():
    g = generate_family("complete", 5)
    rep = bounds_report(g)
    assert verify_orientation_cover(g, rep.witnesses["sigma"]) is None
    lm = line_graph(g)
    assert verify_equivalence_cover(lm.line, rep.witnesses["eq_line_graph"]) is None
    assert rep.witnesses["chi"].check_proper(g) is None


def test_report_respects_budget():
    g = generate_family("mycielski-iterate", 5)
    rep = bounds_report(g, Budget(max_nodes=10))
    assert rep.chi.lo <= 5 <= rep.chi.hi
    assert rep.sigma.lo <= 4 <= rep.sigma.hi
    assert any("truncated" in note for note in rep.notes)


def test_truncated_chi_lower_end_names_its_source():
    # the coloring search starts at the clique bound and refutes each k
    # below the one it stops at: M5 (greedy clique 2) stops at k = 4, and
    # C5 with a hub (greedy clique 3) at its first node
    m5 = generate_family("mycielski-iterate", 5)
    chi = bounds_report(m5, Budget(max_nodes=200)).chi
    assert (chi.render(), chi.provenance()) == ("4..5", "lo: coloring search; hi: greedy coloring")
    wheel = Graph(6, [(i, (i + 1) % 5) for i in range(5)] + [(i, 5) for i in range(5)])
    chi = bounds_report(wheel, Budget(max_nodes=1)).chi
    assert (chi.render(), chi.provenance()) == ("3..4", "lo: clique bound; hi: greedy coloring")


def test_truncated_chi_on_an_odd_cycle_is_raised_to_three():
    # the coloring search stops at k = 2, which the odd cycle rules out
    lines = bounds_report(generate_family("cycle", 5), Budget(max_nodes=1)).lines()
    assert "chi: 3 [lo: contains an odd cycle; hi: greedy coloring]" in lines
    assert "note: chromatic search truncated by budget" in lines


def test_sigma_lower_bound_is_the_least_k_with_enough_maximal_families():
    # M(5) = 81 and M(6) = 2646; above k = 6 the bound 2^(2^(k-1)) stands in
    pins = {3: 3, 4: 3, 5: 4, 12: 4, 13: 5, 81: 5, 82: 6, 2646: 6, 2647: 7}
    assert {c: sigma_lower_from_chi(c) for c in pins} == pins
    lines = bounds_report(generate_family("complete", 82)).lines()
    assert "sigma: 6..8 [lo: coloring bound for size-k coverings; hi: constructive pullback witness]" in lines


def test_sigma_lower_bound_is_never_below_elb():
    # M(k) <= 2^(2^(k-1)), so a chi that needs k orientations by the
    # coloring bound needs no more elbow ones
    for c in range(3, 70_000):
        assert sigma_lower_from_chi(c) >= pullback_size(c, "elbow"), c


def test_report_lines_and_dict_are_deterministic():
    g = generate_family("triangle-plus-pendant")
    a, b = bounds_report(g), bounds_report(g)
    assert a.lines() == b.lines()
    assert a.to_dict() == b.to_dict()
    joined = "\n".join(a.lines())
    assert "sigma: 3" in joined
    assert "eq_line_graph: 1..3" in joined


def test_report_interval_consistency_over_corpus(corpus):
    from eqcover import solve_invariant

    for name in ("K3", "K4", "C4", "C5", "C7", "star3", "tri_pendant", "bull", "K23"):
        g = corpus[name]
        rep = bounds_report(g)
        sigma = solve_invariant(g, "sigma").value
        elb = least_elb_by_word_search(g)
        assert rep.sigma.lo <= sigma <= rep.sigma.hi
        assert rep.elb.lo <= elb <= rep.elb.hi
        if g.m:
            eq_line = solve_invariant(line_graph(g).line, "eq").value
            assert rep.eq_line.lo <= eq_line <= rep.eq_line.hi


def test_report_consistent_on_random_graphs():
    import random
    from itertools import combinations

    from eqcover import (
        exact_chromatic,
        solve_invariant,
        verify_orientation_cover,
    )

    rng = random.Random(99173)
    for _ in range(60):
        n = rng.randint(2, 7)
        p = rng.choice((0.2, 0.4, 0.6, 0.9))
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        rep = bounds_report(g)
        assert rep.chi.lo <= exact_chromatic(g).value <= rep.chi.hi
        assert rep.sigma.lo <= solve_invariant(g, "sigma").value <= rep.sigma.hi
        assert rep.elb.lo <= least_elb_by_word_search(g) <= rep.elb.hi
        if "sigma" in rep.witnesses:
            assert verify_orientation_cover(g, rep.witnesses["sigma"]) is None


def test_report_truncated_budget_stays_sound():
    import random
    from itertools import combinations

    from eqcover import solve_invariant

    rng = random.Random(5150)
    for _ in range(12):
        n = rng.randint(4, 7)
        g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.7])
        rep = bounds_report(g, Budget(max_nodes=rng.choice((1, 5, 20))))
        assert rep.sigma.lo <= solve_invariant(g, "sigma").value <= rep.sigma.hi
        assert rep.elb.lo <= least_elb_by_word_search(g) <= rep.elb.hi


def test_report_elbow_witness_matches_upper_endpoint(corpus):
    from eqcover import verify_elbow_cover

    for name in ("K4", "C4", "C5", "grotzsch", "star3"):
        g = corpus[name]
        rep = bounds_report(g)
        if "elb" in rep.witnesses:
            witness = rep.witnesses["elb"]
            assert witness.k == rep.elb.hi
            assert verify_elbow_cover(g, witness) is None
        else:
            assert rep.elb.render() == "0"


def test_report_elb_is_one_exactly_on_bipartite_graphs(corpus):
    from eqcover import decide_elb, verify_elbow_cover

    graphs = dict(corpus)
    graphs["K33"] = generate_family("complete-bipartite", 3)
    graphs["path9"] = generate_family("path", 9)
    for name, g in graphs.items():
        if not g.has_incidence_pairs():
            continue
        rep = bounds_report(g)
        bipartite = rep.chi.hi <= 2
        assert (decide_elb(g, 1).status == "sat") == bipartite, name
        if bipartite:
            assert rep.elb.render() == "1", name
            assert rep.witnesses["elb"].k == 1
            assert verify_elbow_cover(g, rep.witnesses["elb"]) is None
        else:
            assert rep.elb.lo >= 2, name


def test_report_handles_empty_and_single_vertex_graphs():
    rep = bounds_report(Graph(0, []))
    assert rep.sigma.render() == "0" and rep.alon is None
    rep = bounds_report(Graph(1, []))
    assert rep.chi.render() == "1"
    assert rep.alon is not None and rep.alon.degenerate


def _graphs_for_eq_witness(corpus):
    import random
    from itertools import combinations

    rng = random.Random(4242)
    graphs = list(corpus.values()) + [generate_family("star", 40)]
    for _ in range(40):
        n = rng.randint(2, 30)
        p = rng.choice((0.1, 0.3, 0.6))
        graphs.append(Graph(n, [e for e in combinations(range(n), 2) if rng.random() < p]))
    return graphs


def test_report_eq_witness_equals_line_graph_conversion(corpus):
    for g in _graphs_for_eq_witness(corpus):
        rep = bounds_report(g, Budget(max_nodes=300))
        if "sigma" not in rep.witnesses:
            assert "eq_line_graph" not in rep.witnesses
            continue
        lm = line_graph(g)
        witness = rep.witnesses["eq_line_graph"]
        assert witness.n == g.m
        assert witness.subgraphs == out_stars(g, rep.witnesses["sigma"])
        assert verify_equivalence_cover(lm.line, witness) is None


def _forbid_line_graph(monkeypatch):
    import eqcover
    import eqcover.bounds
    import eqcover.cli
    import eqcover.construct
    import eqcover.linegraph

    def refuse(g):
        raise AssertionError("the bounds path must not build a line graph")

    # raising=False: also catches a name imported into a module later on
    for module in (eqcover, eqcover.bounds, eqcover.cli, eqcover.construct, eqcover.linegraph):
        monkeypatch.setattr(module, "line_graph", refuse, raising=False)


def test_report_on_large_star_builds_no_line_graph(monkeypatch):
    # L(star(1500)) = K1499 has 1.12M edges
    g = generate_family("star", 1500)
    _forbid_line_graph(monkeypatch)
    rep = bounds_report(g)
    assert rep.sigma.render() == "1" and rep.eq_line.render() == "1"
    assert rep.witnesses["eq_line_graph"].k == 1


def test_cli_bounds_on_large_star_builds_no_line_graph(tmp_path, capsys, monkeypatch):
    from eqcover import write_graph_file
    from eqcover.cli import main

    gpath = tmp_path / "star.g"
    write_graph_file(str(gpath), generate_family("star", 1500))
    _forbid_line_graph(monkeypatch)
    wdir = tmp_path / "w"
    assert main(["bounds", "--graph", str(gpath), "--witness-dir", str(wdir)]) == 0
    assert "eq_line_graph: 1 [" in capsys.readouterr().out
    header = (wdir / "eq_line_graph.cov").read_text().splitlines()[0]
    assert header == f"cover equivalence 1 1500 {1500 * 1499 // 2}"


def test_cli_eq_witness_file_matches_writer_on_line_graph(tmp_path, capsys, corpus):
    from eqcover import parse_cover, write_cover_for, write_graph_file
    from eqcover.cli import main

    for i, g in enumerate(_graphs_for_eq_witness(corpus)[::3]):
        gpath = tmp_path / f"g{i}.g"
        write_graph_file(str(gpath), g)
        wdir = tmp_path / f"w{i}"
        argv = ["bounds", "--graph", str(gpath), "--witness-dir", str(wdir), "--max-nodes", "300"]
        assert main(argv) == 0
        capsys.readouterr()
        path = wdir / "eq_line_graph.cov"
        if not path.exists():
            continue
        line = line_graph(g).line
        written = path.read_bytes()
        witness = parse_cover(written.decode(), line)
        assert written == write_cover_for(line, witness).encode()
        rep = bounds_report(g, Budget(max_nodes=300))
        assert written == write_cover_for(line, rep.witnesses["eq_line_graph"]).encode()
