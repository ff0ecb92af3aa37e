import random

import pytest

from eqcover import (
    Coloring,
    HomomorphismError,
    ImproperColoringError,
    Orientation,
    Permutation,
    ShapeError,
    bipartition,
    generate_family,
    k16_table_cover,
    permutation_to_orientation,
    pullback_orientation,
)


def test_orientation_validation():
    with pytest.raises(ShapeError):
        Orientation((3, 3), (0, 1))
    with pytest.raises(ValueError):
        Orientation((3, 3), (0, 1, 2))
    o = Orientation((3, 3), (0, 1, 0))
    assert o.reversed().direction == (1, 0, 1)
    assert o.reversed().reversed() == o


def test_arrow_and_out_edges():
    g = generate_family("complete", 3)
    o = Orientation((3, 3), (0, 0, 1))  # 0->1, 0->2, 2->1
    assert o.arrow(g, 2) == (2, 1)
    assert o.out_edges(g, 0) == (0, 1)
    assert o.out_edges(g, 2) == (2,)
    assert o.directs_out_of(g, 2, 2)
    assert not o.directs_out_of(g, 2, 1)


def test_permutation_basics():
    p = Permutation.from_order((2, 0, 3, 1))
    assert p.values == (1, 3, 0, 2)
    assert p.order() == (2, 0, 3, 1)
    assert p.reversed().order() == (1, 3, 0, 2)
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_identity_permutation_orients_low_to_high():
    g = generate_family("complete", 3)
    o = permutation_to_orientation(g, Permutation.identity(3))
    assert [o.arrow(g, e) for e in range(3)] == [(0, 1), (0, 2), (1, 2)]


def test_k16_table_row_two_direction():
    # vertex 15 has rank 0 under the second table row, so {0,15} points 15 -> 0
    g = generate_family("complete", 16)
    perms, cover = k16_table_cover()
    o = cover.orientations[1]
    assert perms[1].values[15] == 0
    assert o.arrow(g, g.index_of(0, 15)) == (15, 0)


def test_reversed_permutation_reverses_orientation(corpus):
    for g in corpus.values():
        if g.n == 0:
            continue
        # arbitrary but fixed permutations: identity and a rotation
        for values in (tuple(range(g.n)), tuple((i + 1) % g.n for i in range(g.n))):
            p = Permutation(values)
            o = permutation_to_orientation(g, p)
            assert permutation_to_orientation(g, p.reversed()) == o.reversed()


def test_permutation_orientations_are_acyclic(corpus):
    rng = random.Random(1729)
    for g in corpus.values():
        if g.n < 2:
            continue
        for _ in range(100):
            values = list(range(g.n))
            rng.shuffle(values)
            o = permutation_to_orientation(g, Permutation(values))
            assert o.is_acyclic(g)


def test_permutation_length_mismatch():
    g = generate_family("complete", 3)
    with pytest.raises(ShapeError):
        permutation_to_orientation(g, Permutation.identity(4))


def test_pullback_two_coloring():
    c4 = generate_family("cycle", 4)
    k2 = generate_family("complete", 2)
    o = Orientation((2, 1), (0,))  # 0 -> 1
    side = bipartition(c4)
    pulled = pullback_orientation(c4, k2, side, o)
    for e, (u, v) in enumerate(c4.edges):
        tail, head = pulled.arrow(c4, e)
        assert side[tail] == 0 and side[head] == 1


def test_pullback_identity():
    k3 = generate_family("complete", 3)
    o = Orientation((3, 3), (0, 1, 0))
    assert pullback_orientation(k3, k3, [0, 1, 2], o) == o


def test_pullback_rejects_non_homomorphism():
    c5 = generate_family("cycle", 5)
    k2 = generate_family("complete", 2)
    o = Orientation((2, 1), (0,))
    with pytest.raises(HomomorphismError) as info:
        pullback_orientation(c5, k2, [0, 1, 0, 1, 0], o)
    u, v = info.value.edge
    assert c5.has_edge(u, v)


def test_pullback_composes(corpus):
    # pulling back along f then g equals pulling back along their composite
    k4 = generate_family("complete", 4)
    k6 = generate_family("complete", 6)
    inject = [1, 3, 4, 5]  # K4 -> K6 injection
    o6 = permutation_to_orientation(k6, Permutation((3, 0, 5, 1, 4, 2)))
    o4 = pullback_orientation(k4, k6, inject, o6)
    for name in ("C5", "K4", "bull", "petersen"):
        g = corpus[name]
        from eqcover import exact_chromatic

        coloring = exact_chromatic(g).witness
        if coloring.palette_size > 4:
            continue
        f = list(coloring.dense().colors)
        composed = [inject[c] for c in f]
        assert pullback_orientation(g, k6, composed, o6) == pullback_orientation(
            g, k4, f, o4
        )


def test_coloring_properness_and_dense():
    g = generate_family("cycle", 4)
    good = Coloring((0, 5, 0, 5))
    assert good.check_proper(g) is None
    assert good.dense().colors == (0, 1, 0, 1)
    assert good.palette_size == 2
    bad = Coloring((0, 0, 1, 1))
    assert bad.check_proper(g) == (0, 1)
    with pytest.raises(ImproperColoringError):
        bad.require_proper(g)
    with pytest.raises(ShapeError):
        Coloring((0, 1)).check_proper(g)


def test_is_acyclic_detects_cycles():
    g = generate_family("complete", 3)
    cyclic = Orientation((3, 3), (0, 1, 0))  # 0->1, 2->0, 1->2
    assert not cyclic.is_acyclic(g)
    assert permutation_to_orientation(g, Permutation.identity(3)).is_acyclic(g)


def test_signature_mask_rejects_non_endpoint():
    from eqcover import incidence_signatures, k4_sigma3_cover, OrientationCover

    g = generate_family("complete", 4)
    sig = incidence_signatures(g, k4_sigma3_cover())
    with pytest.raises(ValueError):
        sig.mask(3, 0)  # edge 0 is (0,1)


def _old_pullback_words(g, h, f, words, k):
    """The word pullback that pullback_orientation used to call, as it was
    with has_edge plus index_of per edge."""
    full = (1 << k) - 1
    out = []
    for u, v in g.edges:
        fu, fv = f[u], f[v]
        if fu == fv:
            raise HomomorphismError((u, v), f"both endpoints map to {fu}")
        if not (0 <= fu < h.n and 0 <= fv < h.n):
            raise HomomorphismError((u, v), "image vertex out of range")
        if not h.has_edge(fu, fv):
            raise HomomorphismError((u, v), f"({fu}, {fv}) is not an edge of the target")
        w = words[h.index_of(fu, fv)]
        out.append(w if fu < fv else full ^ w)
    return out


def test_pullback_words_single_lookup_matches_checked_path():
    # pullback_orientation's single-lookup loop against the checked word
    # loop, once per bit of 3-bit words (bit set: out of the low endpoint)
    from eqcover import Graph

    def outcome(fn, *args):
        try:
            return fn(*args)
        except HomomorphismError as err:
            return ("error", err.edge, str(err))

    rng = random.Random(31)
    # a target with a missing edge, so some maps fail on a non-edge
    h = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)])
    words = [rng.randrange(8) for _ in range(h.m)]
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 9)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        f = [rng.choice((-1, 5)) if rng.random() < 0.05 else rng.randrange(5) for _ in range(n)]
        want = outcome(_old_pullback_words, g, h, f, words, 3)
        for i in range(3):
            o = Orientation((h.n, h.m), [1 - (w >> i & 1) for w in words])
            got = outcome(pullback_orientation, g, h, f, o)
            if isinstance(want, list):
                assert got == Orientation((g.n, g.m), [1 - (w >> i & 1) for w in want])
            else:
                assert got == want
        if isinstance(want, list):
            kinds.add("ok")
        else:
            kinds.update(k for k in ("both", "range", "not an edge") if k in want[2])
    assert kinds == {"ok", "both", "range", "not an edge"}
