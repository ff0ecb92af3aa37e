import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

import eqcover.verify as verify_mod
from eqcover.covers import EyebrowViolation
from eqcover import (
    Budget,
    EquivalenceCover,
    exact_chromatic,
    EyebrowCover,
    Graph,
    OrientationCover,
    ShapeError,
    cover_via_coloring,
    elbow_cover_via_coloring,
    generate_family,
    greedy_coloring,
    k16_table_cover,
    line_graph,
    parse_cover,
    parse_graph,
    solve_invariant,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
    write_cover_for,
    write_graph,
)

from eqcover.covers import _out_mask

import oracles
from cover_words import arrow, cover_from_directions, directions, out_mask, ranking, ranking_cover


def source_rotation_cover(k3):
    """Orientation j makes vertex j the source; leftover edge low->high."""
    orientations = []
    for j in range(3):
        bits = []
        for u, v in k3.edges:
            if u == j:
                bits.append(0)
            elif v == j:
                bits.append(1)
            else:
                bits.append(0)
        orientations.append(bits)
    return cover_from_directions((3, 3), orientations)


def alternating_c4():
    c4 = generate_family("cycle", 4)
    # sources 0 and 2: 0->1, 0->3, 2->1, 2->3
    return c4, cover_from_directions((4, 4), [(0, 0, 1, 0)])


def test_k3_source_rotations_valid():
    k3 = generate_family("complete", 3)
    cover = source_rotation_cover(k3)
    assert verify_orientation_cover(k3, cover) is None
    assert oracles.orientation_cover_ok(k3, directions(cover))


def test_k3_any_two_orientations_fail():
    # full 8 x 8 check: no two orientations of the triangle cover it
    k3 = generate_family("complete", 3)
    for b1 in product((0, 1), repeat=3):
        for b2 in product((0, 1), repeat=3):
            cover = cover_from_directions((3, 3), [b1, b2])
            violation = verify_orientation_cover(k3, cover)
            assert violation is not None
            assert violation.recheck(k3, cover)
            assert not oracles.orientation_cover_ok(k3, [b1, b2])


def test_k16_table_certificate():
    g = generate_family("complete", 16)
    _, cover = k16_table_cover()
    assert cover.k == 5
    assert verify_orientation_cover(g, cover) is None


def test_orientation_violation_is_lex_first():
    k3 = generate_family("complete", 3)
    # both orientations leave vertex 0 with no out-pair
    bits = (1, 1, 0)  # 1->0, 2->0, 1->2
    cover = cover_from_directions((3, 3), [bits] * 2)
    violation = verify_orientation_cover(k3, cover)
    assert violation.line() == "VIOLATION v=0 e=(0,1) f=(0,2)"


def test_elbow_k4_two_orders_valid():
    k4 = generate_family("complete", 4)
    cover = ranking_cover(k4, [ranking(o) for o in ((0, 1, 2, 3), (2, 0, 3, 1))], "elbow")
    assert verify_elbow_cover(k4, cover) is None
    assert oracles.elbow_cover_ok(k4, directions(cover))


def test_elbow_single_orientation_fails_on_k4():
    k4 = generate_family("complete", 4)
    cover = ranking_cover(k4, [range(4)], "elbow")
    violation = verify_elbow_cover(k4, cover)
    assert violation is not None
    u, v, w = violation.path
    assert violation.recheck(k4, cover)


def test_elbow_alternating_c4_valid():
    c4, cover = alternating_c4()
    assert verify_elbow_cover(c4, cover) is None


def test_every_orientation_cover_is_elbow_cover(corpus):
    from eqcover import cover_via_coloring

    for name in ("K3", "K4", "C4", "C5", "star3", "tri_pendant", "petersen"):
        g = corpus[name]
        cover = cover_via_coloring(g, exact_chromatic(g).witness)
        assert verify_orientation_cover(g, cover) is None
        assert verify_elbow_cover(g, cover) is None


def test_eyebrow_path_single_permutation():
    p3 = generate_family("path", 3)
    cover = EyebrowCover(3, [range(3)])
    assert verify_eyebrow_cover(p3, cover) is None


def test_eyebrow_k4_two_orders_valid_one_fails():
    k4 = generate_family("complete", 4)
    two = EyebrowCover(4, [ranking((0, 1, 2, 3)), ranking((2, 0, 3, 1))])
    assert verify_eyebrow_cover(k4, two) is None
    one = EyebrowCover(4, [range(4)])
    violation = verify_eyebrow_cover(k4, one)
    assert violation is not None
    assert violation.recheck(k4, one)
    # the two middle ranks witness the first betweenness: edge (0,2), w=1
    assert violation.line() == "VIOLATION edge=(0,2) w=1"


def test_eyebrow_no_third_vertex_is_vacuous():
    k2 = generate_family("complete", 2)
    assert verify_eyebrow_cover(k2, EyebrowCover(2, [])) is None


def test_valid_certificates_are_read_and_checked_without_derived_tables():
    # adjacency, incidence and the edge index are built on first use; a
    # valid orientation, elbow or eyebrow certificate needs none of them
    for family, p in (("petersen", 5), ("mycielski-iterate", 5), ("cycle", 7)):
        g = generate_family(family, p)
        covers = [
            cover_via_coloring(g, greedy_coloring(g)),
            elbow_cover_via_coloring(g, greedy_coloring(g)),
            solve_invariant(g, "eye", Budget(max_nodes=1)).witness,
        ]
        for cover, verify in zip(
            covers, (verify_orientation_cover, verify_elbow_cover, verify_eyebrow_cover)
        ):
            h = parse_graph(write_graph(g))
            assert verify(h, parse_cover(write_cover_for(g, cover), h)) is None
            assert (h._adj, h._inc, h._idx) == (None, None, None)


def test_equivalence_single_class_triangle():
    lm = line_graph(generate_family("complete", 3))
    cover = EquivalenceCover(3, [[(0, 1, 2)]])
    assert verify_equivalence_cover(lm.line, cover) is None


def test_equivalence_two_matchings_cover_c4():
    c4 = generate_family("cycle", 4)
    # edges: (0,1) (0,3) (1,2) (2,3); the two perfect matchings
    cover = EquivalenceCover(4, [[(0, 1), (2, 3)], [(0, 3), (1, 2)]])
    assert verify_equivalence_cover(c4, cover) is None


def test_equivalence_non_clique_class():
    c4 = generate_family("cycle", 4)
    cover = EquivalenceCover(4, [[(0, 1, 2)]])
    violation = verify_equivalence_cover(c4, cover)
    assert violation.subkind == "not-a-clique"
    assert violation.edge == (0, 2)
    assert violation.recheck(c4, cover)
    assert violation.line() == "VIOLATION subgraph=0 class=0 missing=(0,2)"


def test_equivalence_overlap_and_uncovered():
    c4 = generate_family("cycle", 4)
    overlap = EquivalenceCover(4, [[(0, 1), (1, 2)]])
    violation = verify_equivalence_cover(c4, overlap)
    assert violation.subkind == "overlap"
    assert violation.vertex == 1
    assert violation.recheck(c4, overlap)

    partial = EquivalenceCover(4, [[(0, 1)]])
    violation = verify_equivalence_cover(c4, partial)
    assert violation.subkind == "uncovered"
    assert violation.edge == (0, 3)
    assert violation.recheck(c4, partial)


def test_equivalence_out_of_range_vertex():
    c4 = generate_family("cycle", 4)
    with pytest.raises(ShapeError):
        verify_equivalence_cover(c4, EquivalenceCover._from_sorted(4, [[(0, 9)]]))


def _indices(mask):
    """The orientation indices (0-based) in a mask, ascending."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_signatures_k2_single_orientation():
    k2 = generate_family("complete", 2)
    cover = OrientationCover((2, 1), 1, [1])
    assert _indices(_out_mask(k2, cover, 0, 0)) == (0,)
    assert _indices(_out_mask(k2, cover, 0, 1)) == ()


def test_signatures_complementation(corpus):
    from eqcover import cover_via_coloring

    for name in ("K3", "K4", "C5", "tri_pendant"):
        g = corpus[name]
        cover = cover_via_coloring(g, exact_chromatic(g).witness)
        full = (1 << cover.k) - 1
        for e, (u, v) in enumerate(g.edges):
            assert _out_mask(g, cover, e, u) == full ^ _out_mask(g, cover, e, v)
            assert _out_mask(g, cover, e, u) == cover.words[e]


def test_signatures_reversal_append_closure():
    g = generate_family("complete", 4)
    from eqcover import k4_sigma3_cover

    cover = k4_sigma3_cover()
    reversals = [tuple(1 - b for b in row) for row in directions(cover)]
    doubled = cover_from_directions((4, 6), directions(cover) + reversals)
    full = (1 << cover.k) - 1
    for e, (u, v) in enumerate(g.edges):
        for x in (u, v):
            base = _out_mask(g, cover, e, x)
            assert _out_mask(g, doubled, e, x) == base | ((full ^ base) << cover.k)


def test_signatures_k3_golden():
    k3 = generate_family("complete", 3)
    cover = source_rotation_cover(k3)

    def sig(v, e):
        return _indices(_out_mask(k3, cover, e, v))

    # orientation 0 (source 0) and orientation 2's leftover edge both
    # direct {0,1} out of 0
    assert sig(0, 0) == (0, 2)
    assert sig(0, 1) == (0, 1)
    assert sig(1, 0) == (1,)
    assert sig(1, 2) == (0, 1)
    assert sig(2, 1) == (2,)
    assert sig(2, 2) == (2,)


def test_status_is_order_independent():
    k4 = generate_family("complete", 4)
    from eqcover import k4_sigma3_cover

    cover = k4_sigma3_cover()
    shuffled = cover_from_directions((4, 6), directions(cover)[::-1])
    assert verify_orientation_cover(k4, shuffled) is None
    bad = cover_from_directions((4, 6), directions(cover)[:2])
    bad_shuffled = cover_from_directions((4, 6), directions(bad)[::-1])
    v1 = verify_orientation_cover(k4, bad)
    v2 = verify_orientation_cover(k4, bad_shuffled)
    assert v1 is not None and v2 is not None
    assert v1.line() == v2.line()


def test_zero_orientation_covers():
    matching = generate_family("path", 2)
    empty = OrientationCover((2, 1), 0, [0])
    assert verify_orientation_cover(matching, empty) is None
    assert verify_elbow_cover(matching, empty) is None
    p3 = generate_family("path", 3)
    empty3 = OrientationCover((3, 2), 0, [0, 0])
    assert verify_orientation_cover(p3, empty3) is not None
    assert verify_elbow_cover(p3, empty3) is not None


def test_wide_cover_uses_python_fallback():
    # 63 orientations, far past the bad-pair table: the pass counts masks
    c4, single = alternating_c4()
    wide = cover_from_directions((4, 4), directions(single) * 63)
    assert verify_elbow_cover(c4, wide) is None
    # orientation covering with 63 identical orientations still misses sinks
    violation = verify_orientation_cover(c4, wide)
    assert violation is not None and violation.recheck(c4, wide)


def test_shape_mismatch_raises():
    k3 = generate_family("complete", 3)
    k4 = generate_family("complete", 4)
    from eqcover import k4_sigma3_cover

    with pytest.raises(ShapeError):
        verify_orientation_cover(k3, k4_sigma3_cover())
    with pytest.raises(ShapeError):
        verify_eyebrow_cover(k4, EyebrowCover(3, [range(3)]))
    with pytest.raises(ShapeError):
        verify_equivalence_cover(k4, EquivalenceCover(3, [[(0, 1)]]))


def _scan_witness(g, cover, elbow):
    """Witness line of a scan over every vertex and, row-major, every
    pair of its incident edges, read off the orientations' arrows."""
    orientations = range(cover.k)
    for v in range(g.n):
        inc = g.incident(v)
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                e, f = inc[a], inc[b]
                u, w = g.other_endpoint(e, v), g.other_endpoint(f, v)
                if elbow:
                    covered = any(
                        {arrow(g, cover, o, e), arrow(g, cover, o, f)}
                        not in ({(u, v), (v, w)}, {(w, v), (v, u)})
                        for o in orientations
                    )
                    line = f"VIOLATION path=({u},{v},{w})"
                else:
                    covered = any(
                        arrow(g, cover, o, e)[0] == v and arrow(g, cover, o, f)[0] == v
                        for o in orientations
                    )
                    (a0, a1), (b0, b1) = g.edges[e], g.edges[f]
                    line = f"VIOLATION v={v} e=({a0},{a1}) f=({b0},{b1})"
                if not covered:
                    return line
    return None


def _witness_vertex(line):
    """The vertex a scan witness line names: v= of an orientation
    witness, the middle of an elbow path."""
    if line.startswith("VIOLATION v="):
        return int(line.split()[1][2:])
    return int(line[line.index("(") + 1 : -1].split(",")[1])


def _random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def _with_masks(g, cover, x, masks):
    """The cover with the given masks at x, one per edge: {edge: mask}."""
    full = (1 << cover.k) - 1
    words = list(cover.words)
    for e, mask in masks.items():
        words[e] = mask if g.edges[e][0] == x else full ^ mask
    return OrientationCover(cover.graph_shape, cover.k, words, cover.kind)


def _corrupted(rng, g, cover, fault):
    """The cover broken at one vertex x of degree >= 2: fault 'into' runs
    one incident edge into x everywhere (mask 0 at x), 'twice' runs every
    edge at x into it, of degree 2 where one has it, so that mask 0 is
    all x meets, and 'complement' gives two incident edges complementary
    masks at x, half the time 0 and full, the path through them directed
    everywhere (an elbow fault)."""
    centers = [v for v in range(g.n) if g.degree(v) >= 2]
    x = rng.choice([v for v in centers if g.degree(v) == 2] if fault == "twice" else centers)
    e, f = rng.sample(g.incident(x), 2)
    if fault == "into":
        return _with_masks(g, cover, x, {e: 0})
    if fault == "twice":
        return _with_masks(g, cover, x, dict.fromkeys(g.incident(x), 0))
    y = rng.choice((0, rng.getrandbits(cover.k)))
    return _with_masks(g, cover, x, {e: y, f: ((1 << cover.k) - 1) ^ y})


_FAULTS = ("into", "complement", "twice")


def _cases(seed):
    """(graph, cover) pairs for k = 0..12: random words, valid pullback
    covers padded with random orientations, and each of those broken by
    every fault of _corrupted (mask 0 met twice where a vertex of degree
    2 allows it)."""
    rng = random.Random(seed)
    cases = []
    for trial in range(130):
        k = trial % 13
        small = trial % 3 != 2
        g = _random_graph(rng, rng.randint(3, 9) if small else rng.randint(20, 60), rng.choice((0.2, 0.4, 0.7)))
        if not g.has_incidence_pairs():
            continue
        full = (1 << k) - 1
        cases.append((g, OrientationCover((g.n, g.m), k, [rng.randint(0, full) for _ in range(g.m)])))
        for build in (cover_via_coloring, elbow_cover_via_coloring):
            base = build(g, greedy_coloring(g))
            if base.k > k:
                continue
            extra = [rng.randint(0, (1 << (k - base.k)) - 1) for _ in range(g.m)]
            words = [w | x << base.k for w, x in zip(base.words, extra)]
            valid = OrientationCover((g.n, g.m), k, words, base.kind)
            cases.append((g, valid))
            faults = _FAULTS if 2 in g.degrees() else _FAULTS[:2]
            cases.extend((g, _corrupted(rng, g, valid, fault)) for fault in faults)
    # past the bad-pair table: a 6-cycle with both edges at a vertex
    # into it everywhere, and with a complementary pair there
    c6 = generate_family("cycle", 6)
    for k in range(9, 13):
        valid = cover_via_coloring(c6, greedy_coloring(c6))
        words = [w | rng.getrandbits(k - valid.k) << valid.k for w in valid.words]
        valid = OrientationCover((c6.n, c6.m), k, words)
        cases.extend((c6, _corrupted(rng, c6, valid, fault)) for fault in ("twice", "complement"))
    return cases


def _lines(g, cover):
    found = (verify_orientation_cover(g, cover), verify_elbow_cover(g, cover))
    return tuple(None if v is None else v.line() for v in found)


def test_histogram_verifier_matches_scan_and_oracles():
    kinds = set()
    for g, cover in _cases(2024):
        got = _lines(g, cover)
        assert got == (_scan_witness(g, cover, False), _scan_witness(g, cover, True)), (g, cover.words)
        if g.n <= 9:
            bits = directions(cover)
            assert (got[0] is None) == oracles.orientation_cover_ok(g, bits)
            assert (got[1] is None) == oracles.elbow_cover_ok(g, bits)
        kinds.add((cover.k, got[0] is None, got[1] is None))
    # every k, with valid and invalid covers of both kinds among them
    assert {k for k, _, _ in kinds} == set(range(13))
    assert {(a, b) for _, a, b in kinds} >= {(True, True), (False, True), (False, False)}


def test_corrupted_certificates_name_the_scan_witness_without_incidence_table():
    # the bad vertex's edges are read off the sorted edges, so a rejected
    # certificate read from text leaves the incidence table unbuilt, at
    # every width
    checked = set()
    for g, cover in _cases(77):
        want = (_scan_witness(g, cover, False), _scan_witness(g, cover, True))
        # the one pass names the witness's vertex, its masks aside
        for elbow, line in zip((False, True), want):
            vertex = None if line is None else _witness_vertex(line)
            assert verify_mod._first_bad_vertex(g, cover, elbow)[0] == vertex
        if want == (None, None):
            continue
        h = parse_graph(write_graph(g))
        read = parse_cover(write_cover_for(g, cover), h)
        assert _lines(h, read) == want, (g, cover.words)
        assert h._inc is None
        checked.update((kind, cover.k > 8) for kind, line in zip(("orientation", "elbow"), want) if line)
    assert checked == {(kind, wide) for kind in ("orientation", "elbow") for wide in (False, True)}


def _masks_met(g, cover):
    """Per vertex, the masks its edges show it, by the definition: up to
    eight orientations their bitset (bit x for mask x), above that how
    often each is met."""
    met = [Counter(out_mask(g, cover, v, e) for e in g.incident(v)) for v in range(g.n)]
    return [sum(1 << x for x in c) if cover.k <= 8 else dict(c) for c in met]


def test_table_pass_keeps_the_masks_each_vertex_meets():
    # the colour extractions read a valid cover's masks off this pass
    rng = random.Random(2031)
    graphs = [Graph(6, [(0, 1), (2, 3), (4, 5)]), generate_family("cycle", 6), generate_family("path", 7)]
    graphs += [_random_graph(rng, rng.randint(3, 30), rng.choice((0.2, 0.4, 0.7))) for _ in range(20)]
    checked = set()
    for g in graphs:
        covers = [OrientationCover((g.n, g.m), 0, [0] * g.m, kind) for kind in ("orientation", "elbow")]
        for build in (cover_via_coloring, elbow_cover_via_coloring):
            base = build(g, greedy_coloring(g))
            for k in range(base.k, 13):
                words = [w | rng.getrandbits(k - base.k) << base.k for w in base.words]
                covers.append(OrientationCover((g.n, g.m), k, words, base.kind))
        for cover in covers:
            for elbow, verify in ((False, verify_orientation_cover), (True, verify_elbow_cover)):
                if verify(g, cover) is None:
                    assert verify_mod._first_bad_vertex(g, cover, elbow) == (None, _masks_met(g, cover))
                    checked.add((cover.k, elbow))
    assert checked == {(k, elbow) for k in range(13) for elbow in (False, True)}


def test_permuting_orientations_keeps_the_result():
    rng = random.Random(99)
    for g, cover in _cases(5):
        perm = list(range(cover.k))
        rng.shuffle(perm)
        words = [sum(1 << perm[i] for i in range(cover.k) if (w >> i) & 1) for w in cover.words]
        shuffled = OrientationCover(cover.graph_shape, cover.k, words, cover.kind)
        assert _lines(g, shuffled) == _lines(g, cover)
        listed = cover_from_directions(cover.graph_shape, rng.sample(directions(cover), cover.k))
        assert _lines(g, listed) == _lines(g, cover)


def _eyebrow_scan(g, cover):
    """The eyebrow verifier's earlier pure-Python loop: every edge, then
    every third vertex, tested against each ranking's span."""
    if g.n < 3 or g.m == 0:
        return None
    if cover.k == 0:
        u, v = g.edges[0]
        return EyebrowViolation((u, v), min(x for x in range(g.n) if x != u and x != v))
    rows = cover.rankings
    for u, v in g.edges:
        spans = [(min(r[u], r[v]), max(r[u], r[v])) for r in rows]
        for w in range(g.n):
            if all(lo < r[w] < hi for r, (lo, hi) in zip(rows, spans)):
                return EyebrowViolation((u, v), w)
    return None


def test_eyebrow_bitsets_match_scan_and_oracle():
    rng = random.Random(31)
    cases = []
    for trial in range(150):
        if trial % 3 == 2:  # mostly more than 64 edges
            g = _random_graph(rng, rng.randint(16, 24), 0.6)
        else:
            g = _random_graph(rng, rng.randint(1, 16), rng.choice((0.2, 0.5, 0.9)))
        k = trial % 5
        cases.append((g, EyebrowCover(g.n, [rng.sample(range(g.n), g.n) for _ in range(k)])))
        valid = solve_invariant(g, "eye", Budget(max_nodes=1)).witness
        cases.append((g, valid))
        if valid.k and g.n >= 2:
            # swap two vertices adjacent in one ranking's order
            rankings = list(valid.rankings)
            i = rng.randrange(len(rankings))
            order = sorted(range(g.n), key=rankings[i].__getitem__)
            r = rng.randrange(g.n - 1)
            order[r], order[r + 1] = order[r + 1], order[r]
            rankings[i] = ranking(order)
            cases.append((g, EyebrowCover(g.n, rankings)))
    n5 = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    cases.append((n5, EyebrowCover(5, [range(5), (4, 3, 2, 1, 0)])))
    seen = set()
    for g, cover in cases:
        got = verify_eyebrow_cover(g, cover)
        want = _eyebrow_scan(g, cover)
        assert (None if got is None else got.line()) == (None if want is None else want.line())
        assert (got is None) == oracles.eyebrow_cover_ok(g, cover.rankings)
        seen.add((cover.k, g.m > 64, got is None))
    # violations at every k, and valid covers, on graphs with at most and
    # with more than 64 edges
    assert {(k, big) for k, big, ok in seen if not ok} == set(product(range(5), (False, True)))
    assert {big for _, big, ok in seen if ok} == {False, True}


def _move_between(rankings, u, v, w):
    """The rankings with w moved, in each, to just after the earlier of
    u and v in its vertex order, so every ranking puts w between them."""
    out = []
    for r in rankings:
        order = [x for x in sorted(range(len(r)), key=r.__getitem__) if x != w]
        order.insert(min(order.index(u), order.index(v)) + 1, w)
        out.append(ranking(order))
    return out


def test_eyebrow_status_survives_relabelling_and_reordering():
    # valid covers (the K_n rankings, and exact witnesses), random ones,
    # and each broken by one third vertex moved between an edge's ends
    rng = random.Random(1913)
    seen = set()
    for trial in range(120):
        g = _random_graph(rng, rng.randint(3, 7), rng.choice((0.3, 0.6, 0.9)))
        if g.m == 0:
            continue
        valid = [
            solve_invariant(g, "eye", Budget(max_nodes=1)).witness.rankings,
            solve_invariant(g, "eye", Budget(max_nodes=200)).witness.rankings,
        ]
        random_rows = [tuple(rng.sample(range(g.n), g.n)) for _ in range(rng.randint(1, 3))]
        u, v = rng.choice(g.edges)
        w = rng.choice([x for x in range(g.n) if x not in (u, v)])
        for rows in valid + [random_rows] + [_move_between(r, u, v, w) for r in valid]:
            cover = EyebrowCover(g.n, rows)
            status = verify_eyebrow_cover(g, cover) is None
            assert status == oracles.eyebrow_cover_ok(g, rows)
            seen.add(status)
            # reorder the rankings
            shuffled = EyebrowCover(g.n, rng.sample(rows, len(rows)))
            assert (verify_eyebrow_cover(g, shuffled) is None) == status
            # relabel graph and rankings together: vertex x becomes pi[x]
            pi = rng.sample(range(g.n), g.n)
            h = Graph(g.n, [(pi[a], pi[b]) for a, b in g.edges])
            moved = []
            for r in rows:
                r2 = [0] * g.n
                for x in range(g.n):
                    r2[pi[x]] = r[x]
                moved.append(r2)
            violation = verify_eyebrow_cover(h, EyebrowCover(g.n, moved))
            assert (violation is None) == status
            assert violation is None or violation.recheck(h, EyebrowCover(g.n, moved))
        assert verify_eyebrow_cover(g, EyebrowCover(g.n, _move_between(valid[0], u, v, w)))
    assert seen == {True, False}


def test_small_certificates_do_not_load_numpy():
    # nor large ones: the verifiers import no third-party module at all
    code = (
        "import sys\n"
        "from eqcover import Budget, generate_family, k16_table_cover, solve_invariant\n"
        "from eqcover import verify_elbow_cover, verify_eyebrow_cover, verify_orientation_cover\n"
        "k5 = generate_family('complete', 5)\n"
        "assert verify_orientation_cover(k5, solve_invariant(k5, 'sigma').witness) is None\n"
        "assert verify_eyebrow_cover(k5, solve_invariant(k5, 'eye').witness) is None\n"
        "k16 = generate_family('complete', 16)\n"
        "assert verify_orientation_cover(k16, k16_table_cover()[1]) is None\n"
        "assert verify_elbow_cover(k16, solve_invariant(k16, 'elb', Budget(max_nodes=1)).witness) is None\n"
        "eye = solve_invariant(k16, 'eye', Budget(max_nodes=1)).witness\n"
        "assert k16.m > 64 and verify_eyebrow_cover(k16, eye) is None\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_verifier_table_follows_cover_kinds():
    from eqcover.covers import COVER_KINDS, EquivalenceCover, EyebrowCover, OrientationCover
    from eqcover.verify import VERIFIERS

    assert tuple(VERIFIERS) == COVER_KINDS
    assert VERIFIERS["orientation"] == (OrientationCover, verify_orientation_cover)
    assert VERIFIERS["elbow"] == (OrientationCover, verify_elbow_cover)
    assert VERIFIERS["eyebrow"] == (EyebrowCover, verify_eyebrow_cover)
    assert VERIFIERS["equivalence"] == (EquivalenceCover, verify_equivalence_cover)
    # every cover type names the kind whose verifier checks it
    assert (EyebrowCover.kind, EquivalenceCover.kind) == ("eyebrow", "equivalence")
