import random
import re
from itertools import repeat
from operator import eq, lshift, or_

import pytest

from eqcover import (
    Budget,
    CoverFormatError,
    EquivalenceCover,
    exact_chromatic,
    EyebrowCover,
    Graph,
    OrientationCover,
    ShapeError,
    cover_via_coloring,
    decide_elb,
    decide_sigma,
    generate_family,
    k4_elbow_base,
    k4_sigma3_cover,
    k16_table_cover,
    line_graph,
    out_star_eq_cover,
    parse_coloring,
    parse_cover,
    parse_graph,
    write_coloring,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
    write_cover_for,
    write_graph,
)
from eqcover import construct
from eqcover.covers import write_equivalence_cover
from eqcover.graphs import Coloring

from cover_words import arrow, directions
from writers import (
    reference_write_cover_for,
    reference_write_equivalence_cover,
    reference_write_graph,
)


def test_orientation_cover_round_trip():
    g = generate_family("complete", 4)
    cover = k4_sigma3_cover()
    text = write_cover_for(g, cover)
    again = parse_cover(text, g)
    assert again.kind == "orientation"
    assert again.words == cover.words
    assert write_cover_for(g, again) == text


def test_elbow_kind_preserved():
    g = generate_family("complete", 4)
    text = write_cover_for(g, k4_elbow_base())
    again = parse_cover(text, g)
    assert again.kind == "elbow"
    assert text.startswith("cover elbow 2 4 6\n")


def test_eyebrow_round_trip():
    g = generate_family("path", 3)
    cover = EyebrowCover(3, [range(3), (2, 1, 0)])
    text = write_cover_for(g, cover)
    assert "perm 0 1 2" in text
    again = parse_cover(text, g)
    assert again.rankings == ((0, 1, 2), (2, 1, 0))


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
    assert arrow(g, cover, 0, 0) == (0, 1)
    assert arrow(g, cover, 0, 1) == (2, 1)


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
        # the whole message, line number included, for each bad ranking line
        ("cover eyebrow 2 3 2\nperm 0 1 2\nperm 1 2 3\n",
         r"^line 3: values must be a permutation of 0\.\.n-1$"),
        ("cover eyebrow 2 3 2\nperm 0 1 2\nperm 0 1 2 3\n",
         r"^line 3: expected 'perm' followed by 3 ranks$"),
        ("cover eyebrow 2 3 2\nperm 0 1 2\nperm 0 x 2\n", r"^line 3: non-integer rank$"),
        ("cover eyebrow 2 3 2\nperm 0 1 2\n", r"^expected 2 'perm' lines, found 1$"),
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
    assert arrow(g, cover, 0, 0) == (1, 0)


def test_cover_shape_validation_on_write():
    g = generate_family("path", 3)
    with pytest.raises(ShapeError):
        write_cover_for(g, k4_sigma3_cover())
    with pytest.raises(ShapeError):
        write_cover_for(g, EyebrowCover(4, [range(4)]))


def test_orientation_cover_constructor_checks():
    with pytest.raises(ValueError):
        OrientationCover((3, 3), 0, [0, 0, 0], kind="sideways")
    with pytest.raises(ShapeError):
        OrientationCover((3, 3), 1, [0] * 6)
    with pytest.raises(ValueError):
        OrientationCover((3, 3), 1, [0, 2, 1])
    with pytest.raises(ValueError):
        OrientationCover((3, 3), 2, [0, -1, 1])
    with pytest.raises(ValueError):
        EquivalenceCover(3, [[()]])


def test_trusted_orientation_covers_pass_the_public_constructor():
    # the pullback, the complete-graph covers and the word search build
    # their covers through OrientationCover._from_words, which checks
    # nothing; the checking constructor must accept each one as it is
    rng = random.Random(2029)
    covers = []
    for _ in range(40):
        n, c = rng.randint(1, 9), rng.randint(1, 6)
        colors = [rng.randrange(c) for _ in range(n)]
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if colors[u] != colors[v] and rng.random() < 0.6])
        for kind in ("orientation", "elbow"):
            for k in range(13):
                ranks = [rng.sample(range(c), c) for _ in range(k)]
                covers.append(construct._pullback(g, colors, ranks, kind))
                covers.append(construct._pullback(g, colors, ranks[:1], kind, k))
                if c >= 2 and k:
                    covers.append(construct._complete_cover(ranks, kind))
                for decide in (decide_sigma, decide_elb):
                    res = decide(g, k, Budget(max_nodes=2000))
                    if res.witness is not None:
                        covers.append(res.witness)
    assert len(covers) > 2000
    for cover in covers:
        fields = (cover.graph_shape, cover.k, cover.words, cover.kind)
        public = OrientationCover(*fields)
        assert (public.graph_shape, public.k, public.words, public.kind) == fields, cover
        assert type(cover.words) is tuple and all(type(w) is int for w in cover.words)
        assert all(type(x) is int for x in cover.graph_shape)


def test_equivalence_cover_rejects_a_repeated_vertex():
    # as the text parser does ("repeated vertex in clique"): a class that
    # names a vertex twice would verify as overlapping itself, and be
    # written to a file that parse_cover refuses
    with pytest.raises(ValueError, match="repeated vertex"):
        EquivalenceCover(3, [[(0, 0, 1, 2)]])
    with pytest.raises(ValueError, match="repeated vertex"):
        EquivalenceCover(4, [[(0, 1)], [(2, 3), (1, 1)]])
    assert EquivalenceCover(3, [[(2, 0, 1)]]).subgraphs == (((0, 1, 2),),)


def test_equivalence_cover_rejects_a_vertex_out_of_range():
    # as the text parser does ("vertex 7 out of range"): such a class
    # would be written to a file that parse_cover refuses
    for cls in ((0, 7), (-1, 2), (3,)):
        with pytest.raises(ValueError, match="out of range"):
            EquivalenceCover(3, [[(0, 1)], [cls]])
    assert EquivalenceCover(3, [[(0, 2)]]).subgraphs == (((0, 2),),)
    k3 = generate_family("complete", 3)
    with pytest.raises(CoverFormatError, match="out of range"):
        parse_cover("cover equivalence 1 3 3\nblock 1\nclique 0 7\n", k3)


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
    cover = OrientationCover((2, 1), 0, [0])
    text = write_cover_for(g, cover)
    assert text == "cover orientation 0 2 1\n"
    again = parse_cover(text, g)
    assert again.k == 0


def test_eyebrow_cover_constructor_shape():
    with pytest.raises(ShapeError):
        EyebrowCover(4, [range(3)])


def test_eyebrow_cover_constructor_errors():
    # the types and messages that a permutation object of a given length
    # raised before rankings were stored as plain tuples
    with pytest.raises(ShapeError, match=r"^permutation length 4 != n=3$"):
        EyebrowCover(3, [(0, 1, 2), (3, 1, 0, 2)])
    for n, bad in ((3, (0, 0, 1)), (4, (0, 0, 1)), (3, (1, 2, 3)), (2, (-1, 0))):
        with pytest.raises(ValueError, match=r"^values must be a permutation of 0\.\.n-1$") as info:
            EyebrowCover(n, [range(n), bad])
        assert type(info.value) is ValueError
    cover = EyebrowCover(3, [[2, 0, 1], range(3)])
    assert cover.rankings == ((2, 0, 1), (0, 1, 2)) and cover.k == 2
    assert [p.values for p in cover.permutations] == list(cover.rankings)


def test_violation_recheck_rejects_wrong_witnesses():
    from eqcover.covers import ElbowViolation, EyebrowViolation, OrientationViolation

    g = generate_family("complete", 3)
    cover = k4_sigma3_cover()
    k3_cover = OrientationCover((3, 3), 1, [1, 1, 1])
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
    assert directions(cover) == _PINNED_DIRECTIONS
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


def test_orientations_view_matches_words():
    # the per-orientation direction bits that bench/ reads to feed the
    # oracles, until it reads the words
    covers = [k4_sigma3_cover(), k4_elbow_base(), k16_table_cover()[1], OrientationCover((2, 1), 0, [0])]
    covers.append(OrientationCover((5, 4), 3, [0b101, 0b000, 0b111, 0b010], "elbow"))
    for cover in covers:
        assert [o.direction for o in cover.orientations] == directions(cover)
    assert covers[-1].orientations[0].direction == (0, 1, 0, 1)


# ---------------------------------------------------------------------------
# Differential tests: the block-at-a-time decode of orientation and elbow
# covers against the line-by-line reader and against a verbatim copy of
# the parse_cover that split the whole text into lines first.


def _reference_positional_words(raw, g, k):
    # _canonical_words before the block-at-a-time decode, with arrows
    # formatted apart from the graph's cached blocks
    from writers import reference_arrow_lines

    m = g.m
    if len(raw) != k * (m + 1):
        return None
    out_of_low, out_of_high = reference_arrow_lines(g)
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
        return OrientationCover((g.n, g.m), k, words, kind)
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
    return g, words, write_cover_for(g, OrientationCover((g.n, g.m), k, words, kind))


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


def _boundary_graphs():
    """Graphs whose arrow lines cross the digit-count boundaries, the
    graph of the edge (12, 15), and graphs with m = 0, 1, 2."""
    yield Graph(16, [(12, 15)])
    for b in (10, 100, 1000):
        vs = (b - 2, b - 1, b, b + 1)
        yield Graph(b + 2, [(0, b)] + [(u, v) for u in vs for v in vs if u < v])
    for m in (0, 1, 2):
        yield Graph(3, [(0, 1), (1, 2)][:m])


def _block_edits(rng, text):
    """Texts that differ from a written cover text at one arrow line,
    or around it; the comment on each names the edit."""
    lines = text.split("\n")
    arrows = [i for i, line in enumerate(lines) if line[:1].isdigit()]
    a = rng.choice(arrows)
    t, h = lines[a].split()

    def edit(line):
        return "\n".join(lines[:a] + [line] + lines[a + 1 :])

    yield edit(f"{h} {h}")  # "15 15" for (12, 15): off each arrow at another byte
    yield edit(f"{t} {t}")
    j = rng.choice([i for i, c in enumerate(lines[a]) if c.isdigit()])
    d = int(lines[a][j])
    yield edit(lines[a][:j] + str((d + 1) % 10) + lines[a][j + 1 :])  # one digit off
    yield edit(lines[a][:j] + chr(0x660 + d) + lines[a][j + 1 :])  # a non-ASCII digit
    yield edit(lines[a] + "\r")  # one CRLF line end
    # a newline made a vertical tab, one byte off it: to the line reader,
    # still a line break
    yield "\n".join(lines[:a] + [lines[a] + "\x0b" + lines[a + 1]] + lines[a + 2 :])
    yield text.replace("\n", "\r\n")
    yield edit(lines[a][:-1])  # the block one byte short
    yield edit(lines[a] + " ")  # the block one byte long
    yield edit(lines[a][:-1] + "\n" + lines[a][-1])  # a newline moved up a byte
    if a + 1 in arrows:  # a newline moved down a byte
        yield "\n".join(lines[:a] + [lines[a] + lines[a + 1][0], lines[a + 1][1:]] + lines[a + 2 :])


def test_block_decode_takes_exactly_the_written_texts():
    # The block decoder returns words for a text exactly when
    # write_cover_for writes that text from them; parse_cover gives the
    # same cover, or error, as the reference decode and the line reader.
    from eqcover.covers import _canonical_words

    from line_readers import reference_parse_cover

    rng = random.Random(23)
    for g in _boundary_graphs():
        for k in (0, 1, 8, 9, 16):
            words = [rng.getrandbits(k) if k else 0 for _ in range(g.m)]
            text = write_cover_for(g, OrientationCover((g.n, g.m), k, words, "elbow"))
            start = text.index("\n") + 1
            assert _canonical_words(text, start, g, k) == words
            edits = list(_block_edits(rng, text)) if k and g.m else []
            for t in [text, text[:-1], text + "\n"] + edits:
                outcome = _cover_outcome(t, g)
                assert outcome == _cover_outcome(t, g, _reference_parse_cover), t
                assert outcome == _cover_outcome(t, g, reference_parse_cover), t
                decoded = _canonical_words(t, start, g, k)
                if outcome[0] == "raised":
                    assert decoded is None, t
                    continue
                cover = OrientationCover((g.n, g.m), k, outcome[3], "elbow")
                written = write_cover_for(g, cover) == t
                assert decoded == (list(outcome[3]) if written else None), t


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
            text = write_cover_for(g, OrientationCover((n, 0), k, [], kind))
            cases.extend((g, t) for t in [text] + _layout_variants(text, g))
    got = [_cover_outcome(text, g) for g, text in cases]
    assert got == [_cover_outcome(text, g, _reference_parse_cover) for g, text in cases]


def _three_graphs(n, edges):
    """One graph three ways: parsed from its written text, which seeds
    its all-low block; built from its edges, which formats both blocks
    on first read; and parsed by the line reader from a text with a
    comment line after the edges and CRLF line ends, which seeds
    nothing."""
    text = reference_write_graph(Graph(n, edges))
    seeded = parse_graph(text)
    line_read = parse_graph((text + "# line ends CRLF\n").replace("\n", "\r\n"))
    assert seeded._arrows[0] is not None and line_read._arrows == (None, None)
    return [seeded, Graph(n, edges), line_read]


def _read_and_checked(text, g):
    """parse_cover's outcome on text, and the verifier's verdict on the
    cover it reads."""
    outcome = _cover_outcome(text, g)
    if outcome[0] == "raised":
        return outcome, None
    cover = OrientationCover((g.n, g.m), outcome[2], outcome[3], outcome[1])
    verify = verify_orientation_cover if cover.kind == "orientation" else verify_elbow_cover
    violation = verify(g, cover)
    return outcome, violation and violation.line()


def test_covers_read_and_written_alike_whatever_built_the_graph():
    # The cached arrow blocks must not change what parse_cover reads or
    # the verifier finds, nor what write_cover_for writes, whichever way
    # the graph came to be and whichever of the two reads its blocks first.
    rng = random.Random(47)
    for k in range(13):  # past 8 blocks the words fill a second 8-bit lane
        for kind in ("orientation", "elbow"):
            n = rng.choice((5, 40, 1100))  # labels of 1 to 4 digits
            pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randrange(301))]
            edges = list({(min(e), max(e)): e for e in pairs}.values())
            graphs = _three_graphs(n, edges)
            base = graphs[1]
            cover = OrientationCover((n, base.m), k, [rng.getrandbits(k) for _ in edges], kind)
            text = reference_write_cover_for(base, cover)
            texts = [text] + _layout_variants(text, base)
            if k and base.m:
                texts += _cover_corruptions(rng, base, text)
            want = [_cover_outcome(t, base, _reference_parse_cover) for t in texts]
            results = []
            for i, g in enumerate(graphs):
                if (i + k) % 2:
                    assert write_cover_for(g, cover) == text
                results.append([_read_and_checked(t, g) for t in texts])
                assert [outcome for outcome, _ in results[-1]] == want
                assert write_cover_for(g, cover) == text
            assert results[0] == results[1] == results[2]


def test_writers_match_reference_copies(corpus):
    rng = random.Random(53)
    for g in corpus.values():
        covers = [
            OrientationCover((g.n, g.m), k, [rng.getrandbits(k) for _ in g.edges], kind)
            for k in (0, 1, 3, 9)
            for kind in ("orientation", "elbow")
        ]
        covers.append(EyebrowCover(g.n, [rng.sample(range(g.n), g.n) for _ in range(3)]))
        covers.append(EquivalenceCover(g.n, [[[u, v]] for u, v in g.edges]))
        for h in _three_graphs(g.n, g.edges):
            assert write_graph(h) == reference_write_graph(g)
            for cover in covers:
                assert write_cover_for(h, cover) == reference_write_cover_for(g, cover)


def test_equivalence_writer_matches_reference_copy():
    # k = 0, empty subgraphs, singleton classes and classes as wide as
    # the host, with vertex labels of 1 to 4 digits
    rng = random.Random(59)
    covers = [EquivalenceCover(0, []), EquivalenceCover(3, [[], []])]
    for _ in range(200):
        n = rng.choice((1, 9, 90, 2000))
        subgraphs = []
        for _ in range(rng.randrange(6)):
            free = rng.sample(range(n), rng.randrange(min(n, 50) + 1))
            classes = []
            while free:
                width = rng.choice((1, 1, 2, 3, len(free)))
                classes.append(free[:width])
                free = free[width:]
            subgraphs.append(classes)
        covers.append(EquivalenceCover(n, subgraphs))
    covers.append(EquivalenceCover(2000, [[range(2000)], [[v] for v in range(2000)]]))
    for cover in covers:
        m = rng.randrange(100)
        want = reference_write_equivalence_cover(cover.n, m, cover)
        assert write_equivalence_cover(cover.n, m, cover) == want
        assert _outcome_of(write_equivalence_cover, cover.n + 1, m, cover) == _outcome_of(
            reference_write_equivalence_cover, cover.n + 1, m, cover
        )


def _outcome_of(write, *args):
    try:
        return ("text", write(*args))
    except Exception as exc:
        return ("raised", type(exc), str(exc))


# ---------------------------------------------------------------------------
# Differential tests: the bulk decode of equivalence covers and the
# one-pass equivalence check against verbatim copies of the line-by-line
# reader and of the scan that checked every subgraph.


def _reference_significant_lines(raw):
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _reference_parse_equivalence(body, g, k):
    subs = []
    current = None
    expect_block = 1
    for lineno, line in body:
        parts = line.split()
        if parts[0] == "block":
            if parts != ["block", str(expect_block)]:
                raise CoverFormatError(f"line {lineno}: expected 'block {expect_block}'")
            expect_block += 1
            current = []
            subs.append(current)
        elif parts[0] == "clique":
            if current is None:
                raise CoverFormatError(f"line {lineno}: 'clique' before any 'block'")
            if len(parts) < 2:
                raise CoverFormatError(f"line {lineno}: empty clique")
            try:
                vs = [int(x) for x in parts[1:]]
            except ValueError:
                raise CoverFormatError(f"line {lineno}: non-integer vertex") from None
            if len(set(vs)) != len(vs):
                raise CoverFormatError(f"line {lineno}: repeated vertex in clique")
            for v in vs:
                if not (0 <= v < g.n):
                    raise CoverFormatError(f"line {lineno}: vertex {v} out of range")
            current.append(tuple(sorted(vs)))
        else:
            raise CoverFormatError(f"line {lineno}: expected 'block' or 'clique'")
    if len(subs) != k:
        raise CoverFormatError(f"expected {k} blocks, found {len(subs)}")
    return EquivalenceCover._from_sorted(g.n, subs)


def _reference_parse_equivalence_cover(text, g):
    # parse_cover on an equivalence text before the bulk decode
    lines = _reference_significant_lines(text.splitlines())
    first = next(lines, None)
    if first is None:
        raise CoverFormatError("missing 'cover <kind> <k> <n> <m>' header")
    lineno, header = first
    parts = header.split()
    if len(parts) != 5 or parts[0] != "cover":
        raise CoverFormatError(f"line {lineno}: expected 'cover <kind> <k> <n> <m>'")
    assert parts[1] == "equivalence"
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
    return _reference_parse_equivalence(list(lines), g, k)


def _equivalence_outcome(text, g, parse=parse_cover):
    try:
        cover = parse(text, g)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("cover", type(cover), cover.n, cover.subgraphs)


def _random_line_graph(rng):
    n = rng.randrange(1, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = Graph(n, rng.sample(pairs, rng.randrange(0, len(pairs) + 1)))
    return line_graph(g).line


def _random_equivalence_text(rng, h, k):
    """A written cover of h by k subgraphs of random classes, any of
    them possibly empty; the classes need not be cliques or disjoint."""
    subgraphs = []
    for _ in range(k):
        count = rng.randrange(0, 4) if h.n else 0
        subgraphs.append([rng.sample(range(h.n), rng.randint(1, min(h.n, 4))) for _ in range(count)])
    return write_equivalence_cover(h.n, h.m, EquivalenceCover(h.n, subgraphs))


def _equivalence_mutations(rng, text, h):
    """Variants of a written equivalence cover text, each one edit away:
    line ends, comments and blank lines, header fields, block numbers
    and the numbers, separators and shape of one clique line."""
    lines = text.split("\n")[:-1]

    def edit(i, line):
        return "\n".join(lines[:i] + [line] + lines[i + 1 :]) + "\n"

    _, _, k, n, m = lines[0].split()
    yield text.replace("\n", "\r\n")
    yield text[:-1]  # no final newline
    yield text + "# end\n"
    yield "# cover\n" + text
    yield text.replace("\n", "\n\n", 1)  # blank line after the header
    yield edit(0, f"cover equivalence {int(k) + 1} {n} {m}")
    yield edit(0, f"cover equivalence {k} {int(n) + 1} {m}")
    yield edit(0, f"cover equivalence {k} {n} {int(m) + 1}")
    yield edit(0, f"cover equivalence 0{k} {n} {m}")  # the body still read in bulk
    yield text + f"block {int(k) + 1}\n"
    blocks = [i for i, line in enumerate(lines) if line.startswith("block ")]
    if blocks:
        b = rng.choice(blocks)
        i = int(lines[b].split()[1])
        yield edit(b, f"block {i + 1}")  # skipped number
        yield edit(b, f"block {i - 1}")  # repeated number, or block 0
        yield edit(b, f"block 0{i}")
        yield edit(b, f"block  {i}")
        yield edit(b, f"block {i} ")
        yield text.replace("\nblock ", " block ", 1)  # a block starting mid-line
    cliques = [i for i, line in enumerate(lines) if line.startswith("clique ")]
    if not cliques:
        if h.n:
            yield text + "clique 0\n"
        return
    c = rng.choice(cliques)
    line = lines[c]
    vs = line.split()[1:]
    j = rng.randrange(len(vs))
    for x in ("0" + vs[j], "-1", "+1", "1.0", "1e2", "٣", str(h.n), "9" * 5000):
        yield edit(c, "clique " + " ".join(vs[:j] + [x] + vs[j + 1 :]))
    yield edit(c, line.replace(" ", "\t", 1))
    yield edit(c, line.replace(" ", "  ", 1))
    yield edit(c, line.replace(" ", " \t", 1))
    yield edit(c, line + " ")
    yield edit(c, " " + line)
    yield edit(c, "clique")
    yield edit(c, "clique ")
    yield edit(c, line + " " + vs[-1])  # repeated vertex
    yield edit(c, "clique " + " ".join(reversed(vs)))  # unsorted when |class| > 1
    yield edit(c, line[len("clique ") :])
    yield edit(c, "cliques " + line[len("clique ") :])
    yield edit(c, line + " clique " + vs[0])
    yield edit(c, line + " block 2")
    yield edit(c, line + "\nclique " + vs[0])  # one more class
    yield edit(c, "clique " + ",".join(vs))
    if c + 2 < len(lines) and lines[c + 1].startswith("block ") and lines[c + 2].startswith("clique "):
        # the next block's header hidden in this line, its first class
        # read as the rest of the line
        hidden = list(lines)
        hidden[c : c + 3] = [f"{line} {lines[c + 1]}", lines[c + 2][len("clique ") :]]
        yield "\n".join(hidden) + "\n"
    if len(cliques) > 1:
        # one line's "clique " moved to the end of another
        a, b = rng.sample(cliques, 2)
        moved = list(lines)
        moved[a] = lines[a][len("clique ") :]
        moved[b] = lines[b] + " clique " + rng.choice(vs)
        yield "\n".join(moved) + "\n"


def _written_classes_of(text, h):
    """The equivalence body decoder's cover of a text whose header has
    h's shape, or None when the decoder leaves the text to the line
    reader or the lines up to the header cannot be told from the body
    without splitting the whole text."""
    from eqcover.covers import _cover_header, _written_classes
    from eqcover.graphs import _header_end, _significant_lines

    start = _header_end(text)
    try:
        kind, k = _cover_header(_significant_lines(text[:start].splitlines()), h)
    except CoverFormatError:
        return None
    assert kind == "equivalence"
    return _written_classes(text, start, h, k)


def test_parse_equivalence_cover_matches_line_reader():
    from eqcover.graphs import _header_end

    rng = random.Random(13)
    written, cases = [], []
    for trial in range(60):
        h = _random_line_graph(rng) if trial % 6 else Graph(rng.randrange(0, 3), [])
        for k in range(5):
            text = _random_equivalence_text(rng, h, k)
            written.append((h, text))
            cases.append((h, text))
            cases.extend((h, variant) for variant in _equivalence_mutations(rng, text, h))
    h = line_graph(generate_family("complete", 4)).line  # n = 6, m = 12
    for body in [
        "0 1\nclique 2 clique 3\n",  # a line's "clique " moved to the next line
        "clique 0 block 2\n1\n",  # block 2 hidden in a clique line
        "clique 0,1\n",
        "clique \n",
        "clique 0 1\nclique  2\n",
    ]:
        k = 1 + body.count("block")
        cases.append((h, f"cover equivalence {k} 6 12\nblock 1\n" + body))
    bulk = 0
    for h, text in cases:
        got = _equivalence_outcome(text, h)
        assert got == _equivalence_outcome(text, h, _reference_parse_equivalence_cover), text
        cover = _written_classes_of(text, h)
        if cover is not None:
            bulk += 1
            # the body decoder reads the body alone, as it was written
            body = write_equivalence_cover(h.n, h.m, cover).partition("\n")[2]
            assert body == text[_header_end(text) :]
    assert all(_written_classes_of(text, h) is not None for h, text in written)
    assert bulk >= 500


def _reference_verify_equivalence_cover(h, cover):
    # verify_equivalence_cover before the one-pass check
    from itertools import combinations

    from eqcover.covers import EquivalenceViolation

    if cover.n != h.n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={h.n}")
    index = h._index
    covered = bytearray(h.m)
    for si, sub in enumerate(cover.subgraphs):
        owner: dict = {}
        for ci, cls in enumerate(sub):
            for v in cls:
                if not (0 <= v < h.n):
                    raise ShapeError(f"vertex {v} out of range in subgraph {si}")
                if v in owner:
                    return EquivalenceViolation(
                        "overlap",
                        subgraph=si,
                        class_pair=(owner[v], ci),
                        vertex=v,
                    )
                owner[v] = ci
        for ci, cls in enumerate(sub):
            for a, b in combinations(cls, 2):
                e = index.get((a, b))  # classes are sorted, so a < b
                if e is None:
                    return EquivalenceViolation(
                        "not-a-clique",
                        subgraph=si,
                        class_index=ci,
                        edge=(a, b),
                    )
                covered[e] = 1
    idx = covered.find(0)
    if idx >= 0:
        return EquivalenceViolation("uncovered", edge=h.edges[idx])
    return None


def _verify_outcome(h, cover, verify):
    try:
        found = verify(h, cover)
    except ShapeError as exc:
        return ("ShapeError", str(exc))
    return ("valid",) if found is None else (found.subkind, found.line())


def _seeded_fault(rng, h, subgraphs):
    """The classes with one fault seeded in a random subgraph: a vertex
    put into a second class, a vertex moved to another class, a class
    dropped, or a vertex out of range."""
    subgraphs = [[list(cls) for cls in sub] for sub in subgraphs]
    sub = rng.choice([sub for sub in subgraphs if sub])
    fault = rng.choice(("overlap", "move", "drop", "out-of-range"))
    cls = rng.choice(sub)
    if fault in ("overlap", "move") and len(sub) > 1:
        other = rng.choice([c for c in sub if c is not cls])
        v = rng.choice(other)
        cls.append(v)
        if fault == "move":
            other.remove(v)
            if not other:
                sub.remove(other)
    elif fault == "drop":
        sub.remove(cls)
    elif rng.random() < 0.5:
        cls.append(rng.choice((-1, h.n)))
    else:  # a class of its own, with no pair to look up
        sub.append([rng.choice((-1, h.n))])
    return subgraphs


def _unchecked_cover(n, subgraphs):
    """A cover holding the classes as given, sorted, out-of-range
    vertices and all: the constructor would refuse those."""
    return EquivalenceCover._from_sorted(
        n, [[tuple(sorted(cls)) for cls in sub] for sub in subgraphs]
    )


def test_one_pass_equivalence_check_matches_scan():
    rng = random.Random(17)
    kinds = set()
    for _ in range(80):
        n = rng.randrange(3, 9)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, rng.sample(pairs, rng.randrange(1, len(pairs) + 1)))
        h = line_graph(g).line
        chi = exact_chromatic(g)
        valid = out_star_eq_cover(g, cover_via_coloring(g, chi.witness))
        covers = [valid]
        for _ in range(6):
            covers.append(_unchecked_cover(h.n, _seeded_fault(rng, h, valid.subgraphs)))
        for cover in covers:
            got = _verify_outcome(h, cover, verify_equivalence_cover)
            assert got == _verify_outcome(h, cover, _reference_verify_equivalence_cover)
            kinds.add(got[0])
    assert kinds == {"valid", "overlap", "not-a-clique", "uncovered", "ShapeError"}
