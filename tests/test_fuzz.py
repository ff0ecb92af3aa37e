"""Seeded randomized cross-checks.

Random tiny graphs and random covers, compared against the brute-force
oracles and re-checked for witness soundness.  Sizes are capped so the
exhaustive oracles stay fast; seeds are fixed so failures reproduce.
"""

import random
from itertools import combinations

import pytest

import eqcover.verify as verify_mod
from eqcover import (
    Budget,
    EquivalenceCover,
    EyebrowCover,
    Graph,
    decide_elb,
    decide_eq,
    decide_eyebrow,
    decide_sigma,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
)

import oracles
from cover_words import cover_from_directions, directions


def random_graph(rng, max_n=5, min_n=2):
    n = rng.randint(min_n, max_n)
    edges = [e for e in combinations(range(n), 2) if rng.random() < 0.55]
    return Graph(n, edges)


def random_cover(rng, g, k, kind="orientation"):
    rows = [[rng.randint(0, 1) for _ in range(g.m)] for _ in range(k)]
    return cover_from_directions((g.n, g.m), rows, kind)


def test_sigma_solver_matches_oracle_on_random_graphs():
    rng = random.Random(4242)
    checked = 0
    while checked < 40:
        g = random_graph(rng)
        k = rng.randint(0, 2)
        if g.m * k > 14:
            continue
        checked += 1
        expected = oracles.sigma_at_most(g, k)
        assert (decide_sigma(g, k).status == "sat") == expected, (g.edges, k)


def test_elb_solver_matches_oracle_on_random_graphs():
    rng = random.Random(733)
    checked = 0
    while checked < 40:
        g = random_graph(rng)
        k = rng.randint(0, 2)
        if g.m * k > 14:
            continue
        checked += 1
        expected = oracles.elb_at_most(g, k)
        assert (decide_elb(g, k).status == "sat") == expected, (g.edges, k)


def test_eq_solver_matches_oracle_on_random_graphs():
    rng = random.Random(90125)
    checked = 0
    while checked < 30:
        g = random_graph(rng)
        k = rng.randint(1, 2)
        if g.m == 0 or g.m * k > 12:
            continue
        checked += 1
        expected = oracles.eq_at_most(g, k)
        assert (decide_eq(g, k).status == "sat") == expected, (g.edges, k)


def test_eyebrow_solver_matches_oracle_on_random_graphs():
    rng = random.Random(1618)
    checked = 0
    while checked < 15:
        g = random_graph(rng, max_n=4, min_n=3)
        k = rng.randint(1, 2)
        if g.m == 0:
            continue
        checked += 1
        expected = oracles.eye_at_most(g, k)
        assert (decide_eyebrow(g, k).status == "sat") == expected, (g.edges, k)


def test_orientation_verifier_matches_oracle_on_random_covers():
    rng = random.Random(5551)
    for _ in range(150):
        g = random_graph(rng)
        cover = random_cover(rng, g, rng.randint(0, 3))
        bits = directions(cover)
        violation = verify_orientation_cover(g, cover)
        assert (violation is None) == oracles.orientation_cover_ok(g, bits)
        if violation is not None:
            assert violation.recheck(g, cover)


def test_elbow_verifier_matches_oracle_on_random_covers():
    rng = random.Random(246)
    for _ in range(150):
        g = random_graph(rng)
        cover = random_cover(rng, g, rng.randint(0, 3), kind="elbow")
        bits = directions(cover)
        violation = verify_elbow_cover(g, cover)
        assert (violation is None) == oracles.elbow_cover_ok(g, bits)
        if violation is not None:
            assert violation.recheck(g, cover)


def test_eyebrow_verifier_matches_oracle_on_random_covers():
    rng = random.Random(872)
    for _ in range(100):
        g = random_graph(rng, max_n=5, min_n=3)
        rankings = []
        for _ in range(rng.randint(0, 2)):
            values = list(range(g.n))
            rng.shuffle(values)
            rankings.append(tuple(values))
        cover = EyebrowCover(g.n, rankings)
        violation = verify_eyebrow_cover(g, cover)
        expected = oracles.eyebrow_cover_ok(g, rankings)
        assert (violation is None) == expected
        if violation is not None:
            assert violation.recheck(g, cover)


def test_equivalence_verifier_witnesses_recheck_on_random_covers():
    rng = random.Random(31337)
    for _ in range(150):
        g = random_graph(rng)
        subgraphs = []
        for _ in range(rng.randint(0, 2)):
            vertices = list(range(g.n))
            rng.shuffle(vertices)
            classes = []
            while vertices:
                take = rng.randint(1, min(3, len(vertices)))
                classes.append(tuple(vertices[:take]))
                del vertices[:take]
            # occasionally make classes overlap on purpose
            if classes and rng.random() < 0.2:
                classes.append(classes[0])
            subgraphs.append(classes)
        cover = EquivalenceCover(g.n, subgraphs)
        violation = verify_equivalence_cover(g, cover)
        if violation is not None:
            assert violation.recheck(g, cover)


def test_bitset_pass_agrees_with_full_scan(monkeypatch):
    rng = random.Random(404)
    cases = []
    for _ in range(60):
        g = random_graph(rng)
        cover = random_cover(rng, g, rng.randint(0, 3))
        cases.append((g, cover))
    fast = [
        (
            verify_orientation_cover(g, c),
            verify_elbow_cover(g, c),
        )
        for g, c in cases
    ]
    monkeypatch.setattr(verify_mod, "_TABLE_MAX_K", -1)
    slow = [
        (
            verify_orientation_cover(g, c),
            verify_elbow_cover(g, c),
        )
        for g, c in cases
    ]
    assert fast == slow


def test_closed_form_decisions_match_oracles_on_random_graphs():
    # sigma <= 2 and elb <= 1 are decided without search nodes
    rng = random.Random(5150)
    checked = 0
    while checked < 60:
        g = random_graph(rng, max_n=6)
        k = rng.randint(0, 2)
        if g.m * k > 14:
            continue
        checked += 1
        for decide, ok, at_most, top in (
            (decide_sigma, oracles.orientation_cover_ok, oracles.sigma_at_most, 2),
            (decide_elb, oracles.elbow_cover_ok, oracles.elb_at_most, 1),
        ):
            if k > top:
                continue
            res = decide(g, k, Budget(max_nodes=0))
            assert (res.status == "sat", res.nodes) == (at_most(g, k), 0), (g.edges, k)
            if res.status == "sat":
                assert res.witness.k == k
                assert ok(g, directions(res.witness))


def test_decide_witnesses_always_verify_on_random_graphs():
    rng = random.Random(60902)
    for _ in range(25):
        g = random_graph(rng)
        for k in (1, 2, 3):
            res = decide_sigma(g, k)
            if res.status == "sat":
                assert verify_orientation_cover(g, res.witness) is None
                break
        for k in (1, 2):
            res = decide_elb(g, k)
            if res.status == "sat":
                assert verify_elbow_cover(g, res.witness) is None
                break
        if g.m:
            for k in (1, 2, 3):
                res = decide_eq(g, k)
                if res.status == "sat":
                    assert verify_equivalence_cover(g, res.witness) is None
                    break


def test_coloring_extraction_on_random_valid_covers():
    from eqcover import coloring_from_elbow_cover, coloring_from_orientation_cover

    rng = random.Random(7321)
    elbow_checked = orientation_checked = 0
    while elbow_checked < 12 or orientation_checked < 12:
        g = random_graph(rng, max_n=6, min_n=3)
        if not g.has_incidence_pairs():
            continue
        if elbow_checked < 12:
            for k in (1, 2, 3):
                res = decide_elb(g, k)
                if res.status == "sat":
                    coloring = coloring_from_elbow_cover(g, res.witness)
                    assert coloring.check_proper(g) is None
                    assert coloring.palette_size <= 1 << (1 << (k - 1))
                    elbow_checked += 1
                    break
        if orientation_checked < 12:
            for k in (3, 4):
                res = decide_sigma(g, k)
                if res.status == "sat":
                    coloring = coloring_from_orientation_cover(g, res.witness)
                    assert coloring.check_proper(g) is None
                    bound = k + (1 << ((1 << (k - 1)) - k - 1))
                    assert coloring.palette_size <= bound
                    orientation_checked += 1
                    break


def test_general_converse_on_random_line_graph_covers():
    from eqcover import line_graph, orientation_cover_from_eq_cover

    rng = random.Random(55051)
    checked = 0
    while checked < 15:
        g = random_graph(rng, max_n=5, min_n=3)
        if g.m == 0 or g.m > 8:
            continue
        lm = line_graph(g)
        for k in (1, 2, 3, 4):
            res = decide_eq(lm.line, k)
            if res.status == "sat":
                back = orientation_cover_from_eq_cover(lm, res.witness)
                # three orientations for a subgraph with a triangle class, else one
                assert back.k == sum(
                    3 if any(len({x for e in cls for x in g.edges[e]}) == 3 == len(cls) for cls in sub) else 1
                    for sub in res.witness.subgraphs
                )
                assert verify_orientation_cover(g, back) is None
                checked += 1
                break


def test_elbow_double_from_triangle_base():
    from eqcover import elbow_double, generate_family

    k3 = generate_family("complete", 3)
    base = decide_elb(k3, 2).witness
    big = elbow_double(k3, base)
    assert big.graph_shape == (9, 36)
    assert big.k == 3
    assert verify_elbow_cover(generate_family("complete", 9), big) is None
