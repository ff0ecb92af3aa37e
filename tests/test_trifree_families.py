"""Known answers on triangle-free graphs that are not Mycielski graphs.

The shift graph S_n has the pairs i < j of 0..n-1 as vertices, (i, j)
adjacent to (j, l); it is triangle-free with chi = ceil(log2 n)
(Erdos and Hajnal, 1968).  The Kneser graph KG(n, k) has the k-subsets
of 0..n-1 as vertices, adjacent when disjoint; for n < 3k no three are
pairwise disjoint, and chi = n - 2k + 2 (Lovasz, 1978).  Each builder
returns an explicit colouring of exactly chi colours, so no test needs
a search to know chi:

  - S_n: (i, j) takes the highest bit where i and j differ.  Along an
    edge (i, j), (j, l) that bit of j is 1 for the first pair and 0 for
    the second, so the two colours differ.
  - KG(n, k): S takes min(min(S), n - 2k + 1).  The sets with smallest
    element at least n - 2k + 1 lie in 2k - 1 points and so pairwise
    meet.

On a triangle-free graph sigma = eq(L), and chi fixes both through the
pullback sizes; elb <= k exactly when chi <= 2^(2^(k-1)).
"""

from itertools import combinations

import pytest

from eqcover import (
    Coloring,
    Graph,
    bounds_report,
    cover_via_coloring,
    elbow_cover_via_coloring,
    find_triangle,
    line_graph,
    solve_invariant,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)
from eqcover.construct import pullback_size


def shift_graph(n):
    pairs = list(combinations(range(n), 2))
    index = {p: v for v, p in enumerate(pairs)}
    edges = [(index[i, j], index[j, l]) for i, j in pairs for l in range(j + 1, n)]
    return Graph(len(pairs), edges), Coloring((i ^ j).bit_length() - 1 for i, j in pairs)


def kneser_graph(n, k):
    sets = [frozenset(s) for s in combinations(range(n), k)]
    edges = [(a, b) for a, b in combinations(range(len(sets)), 2) if not sets[a] & sets[b]]
    return Graph(len(sets), edges), Coloring(min(min(s), n - 2 * k + 1) for s in sets)


# (builder, arguments, chi)
FAMILIES = {
    "S9": (shift_graph, (9,), 4),
    "KG(8,3)": (kneser_graph, (8, 3), 4),
    "S17": (shift_graph, (17,), 5),
    "KG(11,4)": (kneser_graph, (11, 4), 5),
    "S33": (shift_graph, (33,), 6),
}
SEARCHED = ("S9", "KG(8,3)")
# the nodes of chi's search on the searched graphs
CHI_NODES = {"S9": 98, "KG(8,3)": 172}


def _build(name):
    build, args, chi = FAMILIES[name]
    g, coloring = build(*args)
    return g, coloring, chi


@pytest.mark.parametrize("name", FAMILIES)
def test_explicit_colouring_is_proper_with_chi_colours(name):
    g, coloring, chi = _build(name)
    assert coloring.check_proper(g) is None
    assert coloring.palette_size == chi
    assert find_triangle(g) is None


@pytest.mark.parametrize("name", FAMILIES)
def test_pullbacks_verify_at_the_stated_sizes(name):
    g, coloring, chi = _build(name)
    cover = cover_via_coloring(g, coloring)
    elbow = elbow_cover_via_coloring(g, coloring)
    assert (cover.k, elbow.k) == (pullback_size(chi, "orientation"), pullback_size(chi, "elbow"))
    assert verify_orientation_cover(g, cover) is None
    assert verify_elbow_cover(g, elbow) is None


@pytest.mark.parametrize("name", SEARCHED)
def test_exact_values_follow_from_chi(name):
    g, _, chi = _build(name)
    got = {inv: solve_invariant(g, inv) for inv in ("chi", "sigma", "elb")}
    assert all(r.status == "exact" for r in got.values())
    assert {inv: r.lo for inv, r in got.items()} == {"chi": chi, "sigma": 3, "elb": 2}
    assert got["chi"].nodes == CHI_NODES[name]
    assert verify_orientation_cover(g, got["sigma"].witness) is None
    assert verify_elbow_cover(g, got["elb"].witness) is None


@pytest.mark.parametrize("name", SEARCHED)
def test_bounds_report_gives_the_triangle_free_equality(name):
    g, _, _ = _build(name)
    rep = bounds_report(g)
    assert rep.triangle_free
    assert (rep.sigma.lo, rep.sigma.hi) == (3, 3)
    assert (rep.eq_line.lo, rep.eq_line.hi) == (3, 3)
    assert "triangle-free equality" in rep.eq_line.lo_provenance
    assert "triangle-free equality" in rep.eq_line.hi_provenance
    witness = rep.witnesses["eq_line_graph"]
    assert witness.k == 3
    assert verify_equivalence_cover(line_graph(g).line, witness) is None
