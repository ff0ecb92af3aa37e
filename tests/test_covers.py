import random
import re
from itertools import repeat
from operator import eq, lshift, or_

import pytest

from eqcover import (
    CoverFormatError,
    EquivalenceCover,
    EyebrowCover,
    Graph,
    Orientation,
    OrientationCover,
    Permutation,
    ShapeError,
    generate_family,
    k4_elbow_base,
    k4_sigma3_cover,
    parse_coloring,
    parse_cover,
    write_coloring,
    write_cover_for,
)
from eqcover.orientations import Coloring


def test_orientation_cover_round_trip():
    g = generate_family("complete", 4)
    cover = k4_sigma3_cover()
    text = write_cover_for(g, cover)
    again = parse_cover(text, g)
    assert again.kind == "orientation"
    assert list(again.orientations) == list(cover.orientations)
    assert write_cover_for(g, again) == text


def test_elbow_kind_preserved():
    g = generate_family("complete", 4)
    text = write_cover_for(g, k4_elbow_base())
    again = parse_cover(text, g)
    assert again.kind == "elbow"
    assert text.startswith("cover elbow 2 4 6\n")


def test_eyebrow_round_trip():
    g = generate_family("path", 3)
    cover = EyebrowCover(3, [Permutation.identity(3), Permutation((2, 1, 0))])
    text = write_cover_for(g, cover)
    assert "perm 0 1 2" in text
    again = parse_cover(text, g)
    assert [p.values for p in again.permutations] == [(0, 1, 2), (2, 1, 0)]


def test_equivalence_round_trip():
    c4 = generate_family("cycle", 4)
    cover = EquivalenceCover(4, [[(0, 1), (2, 3)], [(0, 3), (1, 2)]])
    text = write_cover_for(c4, cover)
    again = parse_cover(text, c4)
    assert again.subgraphs == cover.subgraphs
    assert write_cover_for(c4, again) == text


def test_arrows_in_any_order_accepted():
    g = generate_family("path", 3)
    text = "cover orientation 1 3 2\nblock 1\n2 1\n0 1\n"
    cover = parse_cover(text, g)
    assert cover.orientations[0].arrow(g, 0) == (0, 1)
    assert cover.orientations[0].arrow(g, 1) == (2, 1)


@pytest.mark.parametrize(
    "text,message",
    [
        ("", "header"),
        ("cover sideways 1 3 2\n", "unknown cover kind"),
        ("cover orientation 1 3 9\n", "does not match graph"),
        ("cover orientation 1 3 2\nblock 2\n", "expected 'block 1'"),
        ("cover orientation 1 3 2\nblock 1\n0 1\n", "expected 2 arrow lines"),
        ("cover orientation 1 3 2\nblock 1\n0 1\n0 2\n", "not an edge"),
        ("cover orientation 1 3 2\nblock 1\n0 1\n1 0\n", "appears twice"),
        (
            "cover orientation 1 3 2\nblock 1\n0 1\n1 2\nextra\n",
            "trailing content",
        ),
        ("cover eyebrow 1 3 2\nperm 0 1\n", "expected 'perm'"),
        ("cover eyebrow 1 3 2\nperm 0 0 1\n", "permutation"),
        ("cover equivalence 1 3 2\nclique 0 1\n", "before any 'block'"),
        ("cover equivalence 1 3 2\nblock 1\nclique\n", "empty clique"),
        ("cover equivalence 1 3 2\nblock 1\nclique 0 0\n", "repeated vertex"),
        ("cover equivalence 1 3 2\nblock 1\nclique 0 7\n", "out of range"),
        ("cover equivalence 2 3 2\nblock 1\nclique 0 1\n", "expected 2 blocks"),
    ],
)
def test_parse_cover_rejections(text, message):
    g = generate_family("path", 3)
    with pytest.raises(CoverFormatError, match=message):
        parse_cover(text, g)


def test_cover_comments_ignored():
    g = generate_family("path", 3)
    text = "# certificate\ncover orientation 1 3 2\n# block follows\nblock 1\n1 0\n1 2\n\n"
    cover = parse_cover(text, g)
    assert cover.orientations[0].arrow(g, 0) == (1, 0)


def test_cover_shape_validation_on_write():
    g = generate_family("path", 3)
    with pytest.raises(ShapeError):
        write_cover_for(g, k4_sigma3_cover())
    with pytest.raises(ShapeError):
        write_cover_for(g, EyebrowCover(4, [Permutation.identity(4)]))


def test_orientation_cover_constructor_checks():
    with pytest.raises(ValueError):
        OrientationCover((3, 3), [], kind="sideways")
    with pytest.raises(ShapeError):
        OrientationCover((3, 3), [Orientation((4, 6), (0,) * 6)])
    with pytest.raises(ValueError):
        EquivalenceCover(3, [[()]])


def test_coloring_file_round_trip():
    coloring = Coloring((0, 2, 1, 2))
    text = write_coloring(coloring)
    assert text == "0 0\n1 2\n2 1\n3 2\n"
    assert parse_coloring(text, 4) == coloring


@pytest.mark.parametrize(
    "text,message",
    [
        ("0 0\n", "expected 4 colored"),
        ("0 0\n1 0\n2 0\n9 0\n", "out of range"),
        ("0 0\n0 1\n1 0\n2 0\n", "colored twice"),
        ("0 -1\n1 0\n2 0\n3 0\n", "negative color"),
        ("0\n1 0\n2 0\n3 0\n", "expected"),
    ],
)
def test_parse_coloring_rejections(text, message):
    with pytest.raises(CoverFormatError, match=message):
        parse_coloring(text, 4)


def test_empty_cover_round_trip():
    g = generate_family("path", 2)
    cover = OrientationCover((2, 1), [])
    text = write_cover_for(g, cover)
    assert text == "cover orientation 0 2 1\n"
    again = parse_cover(text, g)
    assert again.k == 0


def test_eyebrow_cover_constructor_shape():
    with pytest.raises(ShapeError):
        EyebrowCover(4, [Permutation.identity(3)])


def test_violation_recheck_rejects_wrong_witnesses():
    from eqcover.covers import ElbowViolation, EyebrowViolation, OrientationViolation

    g = generate_family("complete", 3)
    cover = k4_sigma3_cover()
    k3_cover = OrientationCover((3, 3), [Orientation((3, 3), (0, 0, 0))])
    # pair (0,1),(0,2) IS covered by the all-low orientation at vertex 0
    assert not OrientationViolation(0, (0, 1), (0, 2)).recheck(g, k3_cover)
    # path through a sink is not always-directed
    assert not ElbowViolation((0, 2, 1)).recheck(g, k3_cover)
    # w cannot be an endpoint
    assert not EyebrowViolation((0, 1), 0).recheck(g, EyebrowCover(3, []))


# Arrow lines that miss the parser's table of canonical "t h" strings are
# read line by line; these outcomes are pinned to that reader's behaviour.
_G6 = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 5)])
_HEAD = "cover orientation 2 6 4\n"
_BLOCK2 = "block 2\n1 0\n1 2\n3 2\n3 5\n"
_PINNED_DIRECTIONS = [(0, 1, 0, 1), (1, 0, 1, 0)]


@pytest.mark.parametrize(
    "text",
    [
        _HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\n" + _BLOCK2,
        _HEAD + "block 1\n0\t1\n2  1\n 2 3 \n5 \t 3\nblock   2\n1 0\n1 2\n3 2\n3 5\n",
        _HEAD + "block 1\n0 1\n2 1\n2 3\n05 3\nblock 2\n1 0\n1 2\n03 2\n3 05\n",
        _HEAD + "block 1\n+0 1\n2 1\n2 3\n5 +3\nblock 2\n1 0\n1 2\n+3 2\n3 5\n",
        "# c\r\n" + _HEAD.replace("\n", "\r\n")
        + "block 1\r\n0 1\r\n\r\n# note\r\n2 1\r\n2 3\r\n5 3\r\n"
        + _BLOCK2.replace("\n", "\r\n"),
    ],
    ids=["canonical", "tabs-and-double-spaces", "leading-zeros", "plus-signs", "comments-crlf"],
)
def test_parse_fallback_accepts_noncanonical_arrows(text):
    cover = parse_cover(text, _G6)
    assert [o.direction for o in cover.orientations] == _PINNED_DIRECTIONS
    assert cover.words == (1, 2, 1, 2)


@pytest.mark.parametrize(
    "text,message",
    [
        (_HEAD + "block 1\n0 1\n2 1\n2 1\n5 3\n" + _BLOCK2, "line 5: edge (1, 2) appears twice in block 1"),
        (_HEAD + "block 1\n0 1\n2 1\n1 2\n5 3\n" + _BLOCK2, "line 5: edge (1, 2) appears twice in block 1"),
        (
            _HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\nblock 2\n1 0\n1 2\n3 5\n3 5\n",
            "line 11: edge (3, 5) appears twice in block 2",
        ),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\nblock 3\n1 0\n1 2\n3 2\n3 5\n", "line 7: expected 'block 2'"),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\n" + _BLOCK2 + "0 1\n", "line 12: trailing content after block 2"),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n" + _BLOCK2, "line 6: non-integer endpoint"),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\n", "missing 'block 2'"),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n5 4\n" + _BLOCK2, "line 6: (5, 4) is not an edge"),
        (_HEAD + "block 1\n0 1\n2 1 7\n2 3\n5 3\n" + _BLOCK2, "line 4: expected '<u> <v>'"),
        (_HEAD + "block 1\n0 1\n2 1\n2 3\n5 3\nblock 2\n1 0\n1 2\n3 2\n3_0 5\n", "line 11: (30, 5) is not an edge"),
    ],
    ids=[
        "duplicate-arrow",
        "duplicate-reversed-arrow",
        "duplicate-in-second-block",
        "wrong-block-number",
        "trailing-content",
        "short-block",
        "missing-block",
        "not-an-edge",
        "three-fields",
        "underscore-digits",
    ],
)
def test_parse_fallback_rejections_keep_line_numbers(text, message):
    with pytest.raises(CoverFormatError, match="^" + re.escape(message)):
        parse_cover(text, _G6)


def test_from_words_matches_orientation_constructor():
    g = generate_family("complete", 4)
    cover = k4_sigma3_cover()
    again = OrientationCover.from_words((4, 6), cover.k, cover.words)
    assert again.orientations == cover.orientations
    assert write_cover_for(g, again) == write_cover_for(g, cover)
    with pytest.raises(ShapeError):
        OrientationCover.from_words((4, 6), 3, cover.words[:5])
    with pytest.raises(ValueError):
        OrientationCover.from_words((4, 6), 1, cover.words)


# ---------------------------------------------------------------------------
# Differential tests: the block-at-a-time decode of orientation and elbow
# covers against the line-by-line reader and against a verbatim copy of
# the parse_cover that split the whole text into lines first.


def _reference_positional_words(raw, g, k):
    # _canonical_words before the block-at-a-time decode
    from eqcover.covers import _arrow_lines

    m = g.m
    if len(raw) != k * (m + 1):
        return None
    out_of_low, out_of_high = _arrow_lines(g)
    words = [0] * m
    for lane in range(0, k, 8):
        acc = 0
        for i in range(lane, min(k, lane + 8)):
            start = i * (m + 1) + 1
            block = raw[start : start + m]
            low = list(map(eq, block, out_of_low))
            high = sum(map(eq, block, out_of_high))
            if raw[start - 1] != f"block {i + 1}" or sum(low) + high != m:
                return None
            acc += int.from_bytes(bytes(low), "little") << (i - lane)
        words = list(map(or_, words, map(lshift, acc.to_bytes(m, "little"), repeat(lane))))
    return words


def _reference_parse_cover(text, g):
    # parse_cover before the block-at-a-time decode
    from eqcover.covers import (
        COVER_KINDS,
        _parse_equivalence,
        _parse_eyebrow,
        _parse_orientation_blocks,
        _significant_lines,
    )

    raw = text.splitlines()
    lines = _significant_lines(raw)
    first = next(lines, None)
    if first is None:
        raise CoverFormatError("missing 'cover <kind> <k> <n> <m>' header")
    lineno, header = first
    parts = header.split()
    if len(parts) != 5 or parts[0] != "cover":
        raise CoverFormatError(f"line {lineno}: expected 'cover <kind> <k> <n> <m>'")
    kind = parts[1]
    if kind not in COVER_KINDS:
        raise CoverFormatError(f"line {lineno}: unknown cover kind {kind!r}")
    try:
        k, n, m = int(parts[2]), int(parts[3]), int(parts[4])
    except ValueError:
        raise CoverFormatError(f"line {lineno}: non-integer header field") from None
    if k < 0:
        raise CoverFormatError(f"line {lineno}: negative k")
    if (n, m) != (g.n, g.m):
        raise CoverFormatError(
            f"line {lineno}: header shape ({n}, {m}) does not match graph "
            f"({g.n}, {g.m})"
        )
    if kind in ("orientation", "elbow"):
        words = _reference_positional_words(raw[lineno:], g, k)
        if words is None:
            words = _parse_orientation_blocks(list(lines), g, k)
        return OrientationCover.from_words((g.n, g.m), k, words, kind)
    body = list(lines)
    return _parse_eyebrow(body, g, k) if kind == "eyebrow" else _parse_equivalence(body, g, k)


def _cover_outcome(text, g, parse=parse_cover):
    try:
        cover = parse(text, g)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("cover", cover.kind, cover.k, cover.words)


def _random_cover_text(rng, k):
    n = rng.randrange(2, 9)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, rng.sample(pairs, rng.randrange(1, len(pairs) + 1)))
    words = [rng.getrandbits(k) if k else 0 for _ in range(g.m)]
    kind = rng.choice(("orientation", "elbow"))
    return g, words, write_cover_for(g, OrientationCover.from_words((g.n, g.m), k, words, kind))


def _cover_corruptions(rng, g, text):
    """One-line corruptions of a written cover text with k >= 1."""
    lines = text.split("\n")[:-1]
    block_lines = [i for i, line in enumerate(lines) if line.startswith("block ")]
    arrows = [i for i in range(1, len(lines)) if i not in block_lines]
    a = rng.choice(arrows)

    def edit(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"

    t, h = lines[a].split()
    yield edit(a, f"{h} {t}")  # reversed arrow
    yield edit(a, lines[a] + " ")  # trailing space
    yield edit(a, lines[rng.choice(arrows)])  # an arrow repeated
    yield edit(rng.choice(block_lines), "block 0")  # wrong block header
    if g.m >= 2:  # two arrows of one block swapped
        start = rng.choice(block_lines) + 1
        i, j = rng.sample(range(start, start + g.m), 2)
        swapped = list(lines)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        yield "\n".join(swapped) + "\n"


def test_positional_decode_matches_line_reader_for_k_up_to_12():
    from eqcover.covers import _canonical_words, _parse_orientation_blocks, _significant_lines

    rng = random.Random(12)
    for k in range(13):
        for _ in range(8):
            g, words, text = _random_cover_text(rng, k)
            raw = text.splitlines()[1:]
            assert _canonical_words(text, text.index("\n") + 1, g, k) == words
            assert _parse_orientation_blocks(list(_significant_lines(raw)), g, k) == words


def _layout_variants(text, g):
    """The same cover with CRLF line ends, with no final newline and
    with a trailing comment line; then with trailing content, and with a
    header whose edge count is not the graph's."""
    return [
        text.replace("\n", "\r\n"),
        text[:-1],
        text + "# end\n",
        text + "block 99\n",
        text.replace(f" {g.m}\n", f" {g.m + 1}\n", 1),
    ]


def test_parse_cover_matches_reference_decode():
    rng = random.Random(2026)
    cases = []
    for k in range(13):
        for _ in range(6):
            g, _, text = _random_cover_text(rng, k)
            cases.append((g, text))
            cases.extend((g, variant) for variant in _layout_variants(text, g))
            if k:
                cases.extend((g, bad) for bad in _cover_corruptions(rng, g, text))
    for n, k in ((0, 0), (3, 0), (3, 2), (1, 9)):
        g = Graph(n, [])  # m = 0: every block is its header alone
        for kind in ("orientation", "elbow"):
            text = write_cover_for(g, OrientationCover.from_words((n, 0), k, [], kind))
            cases.extend((g, t) for t in [text] + _layout_variants(text, g))
    got = [_cover_outcome(text, g) for g, text in cases]
    assert got == [_cover_outcome(text, g, _reference_parse_cover) for g, text in cases]
