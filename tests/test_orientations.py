import random

import pytest

from eqcover import (
    Coloring,
    EyebrowCover,
    ImproperColoringError,
    OrientationCover,
    ShapeError,
    bipartite_orientation_cover,
    bipartition,
    generate_family,
    k16_table_cover,
)
from eqcover.construct import K16_RANK_ROWS, _pullback

from cover_words import arrow


def _words(g, colors, ranks):
    """The words of g pulled back from the rankings along ``colors``."""
    return list(_pullback(g, colors, ranks, "orientation").words)


def _ranked(g, values):
    """The one-orientation words of g that the ranking ``values`` induces
    (pulled back along the identity coloring)."""
    return _words(g, range(g.n), [values])


def test_orientation_validation():
    with pytest.raises(ShapeError):
        OrientationCover((3, 3), 1, (1, 0))
    with pytest.raises(ValueError):
        OrientationCover((3, 3), 1, (1, 0, 2))
    with pytest.raises(ValueError):
        OrientationCover((3, 3), 1, (1, 0, 1), kind="eyebrow")
    cover = OrientationCover([3, 3], 2, [1, 2, 3], "elbow")
    assert (cover.graph_shape, cover.k, cover.words, cover.kind) == ((3, 3), 2, (1, 2, 3), "elbow")


def test_identity_permutation_orients_low_to_high():
    g = generate_family("complete", 3)
    cover = OrientationCover((3, 3), 1, _ranked(g, range(3)))
    assert [arrow(g, cover, 0, e) for e in range(3)] == [(0, 1), (0, 2), (1, 2)]


def test_k16_table_row_two_direction():
    # vertex 15 has rank 0 under the second table row, so {0,15} points 15 -> 0
    g = generate_family("complete", 16)
    rankings, cover = k16_table_cover()
    assert rankings[1][15] == 0
    assert arrow(g, cover, 1, g.index_of(0, 15)) == (15, 0)


def test_reversed_permutation_reverses_orientation(corpus):
    for g in corpus.values():
        if g.n == 0:
            continue
        # arbitrary but fixed rankings: identity and a rotation
        for values in (tuple(range(g.n)), tuple((i + 1) % g.n for i in range(g.n))):
            reversed_values = tuple(g.n - 1 - r for r in values)
            assert _ranked(g, reversed_values) == [1 - w for w in _ranked(g, values)]


def test_permutation_orientations_are_acyclic(corpus):
    rng = random.Random(1729)
    for g in corpus.values():
        if g.n < 2:
            continue
        for _ in range(100):
            values = list(range(g.n))
            rng.shuffle(values)
            cover = OrientationCover((g.n, g.m), 1, _ranked(g, values))
            assert _is_acyclic(g.n, [arrow(g, cover, 0, e) for e in range(g.m)])


def _is_acyclic(n, arrows):
    """Kahn's algorithm on the directed graph with these (tail, head) arrows."""
    indeg = [0] * n
    for _, h in arrows:
        indeg[h] += 1
    stack = [v for v in range(n) if indeg[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for t, h in arrows:
            if t == v:
                indeg[h] -= 1
                if indeg[h] == 0:
                    stack.append(h)
    return seen == n


def test_permutation_length_mismatch():
    with pytest.raises(ShapeError):
        EyebrowCover(3, [range(4)])


def test_pullback_two_coloring():
    # the K2 orientation 0 -> 1 pulled back along a 2-coloring
    c4 = generate_family("cycle", 4)
    side = bipartition(c4)
    pulled = OrientationCover((c4.n, c4.m), 1, _words(c4, side, [(0, 1)]))
    for e in range(c4.m):
        tail, head = arrow(c4, pulled, 0, e)
        assert side[tail] == 0 and side[head] == 1
    assert [w & 1 for w in bipartite_orientation_cover(c4).words] == list(pulled.words)


def test_pullback_identity():
    # the K16 table pulled back along the identity coloring is the table
    k16 = generate_family("complete", 16)
    assert _words(k16, range(16), K16_RANK_ROWS) == list(k16_table_cover()[1].words)


def test_pullback_composes(corpus):
    # pulling back along f then g equals pulling back along their composite
    k4 = generate_family("complete", 4)
    k6 = generate_family("complete", 6)
    inject = [1, 3, 4, 5]  # K4 -> K6 injection
    r6 = (3, 0, 5, 1, 4, 2)
    r4 = [r6[c] for c in inject]  # the K6 ranking pulled back to K4
    assert _words(k4, inject, [r6]) == _ranked(k4, r4)
    for name in ("C5", "K4", "bull", "petersen"):
        g = corpus[name]
        from eqcover import exact_chromatic

        coloring = exact_chromatic(g).witness
        if coloring.palette_size > 4:
            continue
        f = list(coloring.dense().colors)
        composed = [inject[c] for c in f]
        assert _words(g, composed, [r6]) == _words(g, f, [r4])


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
