"""Differential header corpus: ``parse_graph`` and ``parse_cover``
against the verbatim copies in ``line_readers`` of the line-by-line
readers that parsed every header before one function read each header
grammar.

Each written text is varied only around its header: comment and blank
lines before it, spaces around and inside it, every line break that
``str.splitlines`` knows, number fields that ``int`` reads but a
``[0-9]+`` pattern does not, and a missing final newline.  Both readers
must give equal objects, or the same exception type and message.
"""

import random

from eqcover import (
    EquivalenceCover,
    EyebrowCover,
    Graph,
    OrientationCover,
    generate_family,
    line_graph,
    parse_cover,
    parse_graph,
    write_cover_for,
    write_graph,
)
from eqcover.covers import COVER_KINDS, write_equivalence_cover
from eqcover.graphs import _header_end
from line_readers import reference_parse_cover, reference_parse_graph


def _graph_outcome(parse, text):
    try:
        g = parse(text)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    return ("graph", g.n, g.edges)


def _cover_outcome(parse, text, g):
    try:
        cover = parse(text, g)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    if isinstance(cover, OrientationCover):
        return ("cover", cover.kind, cover.k, cover.words)
    if isinstance(cover, EyebrowCover):
        return ("cover", cover.kind, cover.n, cover.rankings)
    return ("cover", cover.kind, cover.n, cover.subgraphs)


# Line breaks of str.splitlines besides "\n": CRLF, a lone CR, vertical
# tab, form feed, the file/group/record separators, NEL and the Unicode
# line and paragraph separators.
_BREAKS = ("\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


def _number_forms(x):
    """Spellings of the number x that ``int`` reads but a ``[0-9]+``
    pattern does not, then one past the int string-conversion limit."""
    digits = str(x)
    arabic_indic = digits.translate({ord("0") + i: 0x660 + i for i in range(10)})
    fullwidth = digits.translate({ord("0") + i: 0xFF10 + i for i in range(10)})
    underscored = "_".join(digits) if len(digits) > 1 else "0_" + digits
    return ["+" + digits, "0" + digits, underscored, arabic_indic, fullwidth, "9" * 5000]


def _header_variants(text):
    """The text varied around its header line only."""
    header, _, body = text.partition("\n")
    fields = header.split()
    yield text
    yield text[:-1]  # no final newline
    yield header  # the header alone, with no newline
    yield header + "\n"
    yield "# a comment\n" + text
    yield "\n\n" + text
    yield "   \n\t\n# c\n\n" + text
    yield header + "   \n" + body  # trailing spaces
    yield "  " + header + "\n" + body  # leading spaces
    yield header.replace(" ", "\t") + "\n" + body
    yield header.replace(" ", "  ") + "\n" + body
    yield header.replace(" ", "\xa0", 1) + "\n" + body  # a space that is no ASCII space
    yield " ".join(fields[:-1]) + "\n" + body  # a field short
    yield header + " 0\n" + body  # a field over
    for brk in _BREAKS:
        yield text.replace("\n", brk)  # every line break
        yield header + brk + body  # the header's break only
        yield header + brk + "\n" + body  # a break before the header's newline
        yield "# c" + brk + text  # a comment line ended by it
        # the header broken in two at its last space
        head, _, last = header.rpartition(" ")
        yield head + brk + last + "\n" + body
    for i in range(1, len(fields)):
        if fields[i].isdigit():
            for form in _number_forms(int(fields[i])):
                yield " ".join(fields[:i] + [form] + fields[i + 1 :]) + "\n" + body


def _graphs():
    rng = random.Random(22)
    graphs = [Graph(0, []), Graph(3, []), generate_family("complete", 4)]
    graphs.append(generate_family("petersen", 5))
    for _ in range(6):
        n = rng.randrange(2, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graphs.append(Graph(n, rng.sample(pairs, rng.randrange(1, len(pairs) + 1))))
    return graphs


def test_graph_header_corpus_matches_line_reader():
    for g in _graphs():
        for text in _header_variants(write_graph(g)):
            expected = _graph_outcome(reference_parse_graph, text)
            assert _graph_outcome(parse_graph, text) == expected, repr(text[:80])


def _written_covers():
    """One written text per cover kind and graph, with its reference
    graph: orientation and elbow covers of random words, an eyebrow
    cover of random rankings, and an equivalence cover of the line
    graph by its stars."""
    rng = random.Random(5)
    for g in _graphs():
        for kind, k in (("orientation", 3), ("elbow", 2), ("orientation", 0)):
            words = [rng.getrandbits(k) if k else 0 for _ in range(g.m)]
            yield g, write_cover_for(g, OrientationCover((g.n, g.m), k, words, kind))
        rankings = [rng.sample(range(g.n), g.n) for _ in range(2)]
        yield g, write_cover_for(g, EyebrowCover(g.n, rankings))
        h = line_graph(g).line
        stars = [[e for e in range(g.m) if v in g.edges[e]] for v in range(g.n)]
        cover = EquivalenceCover(h.n, [[s for s in stars if s]])
        yield h, write_equivalence_cover(h.n, h.m, cover)


def test_cover_header_corpus_matches_line_reader():
    kinds = set()
    for g, text in _written_covers():
        kinds.add(text.split()[1])
        for variant in _header_variants(text):
            expected = _cover_outcome(reference_parse_cover, variant, g)
            assert _cover_outcome(parse_cover, variant, g) == expected, repr(variant[:80])
    assert kinds == set(COVER_KINDS)


def test_the_bulk_path_needs_only_the_body_in_the_written_layout(monkeypatch):
    # A header that the line reader reads as such, after any comment and
    # blank lines that are each one line, is enough for the bulk
    # decoders, which never split the whole text into lines; the
    # package's own texts take the same path.
    import eqcover.covers as covers
    import eqcover.graphs as graphs

    original = graphs._significant_lines

    def header_only(raw):
        lines = list(original(raw))
        assert len(lines) <= 1, "the whole text was split into lines"
        return iter(lines)

    monkeypatch.setattr(graphs, "_significant_lines", header_only)
    monkeypatch.setattr(covers, "_significant_lines", header_only)
    cases = [(lambda t: _graph_outcome(parse_graph, t), write_graph(g)) for g in _graphs()]
    for h, text in _written_covers():
        if not text.startswith("cover eyebrow"):  # read line by line, having no bulk decoder
            cases.append((lambda t, h=h: _cover_outcome(parse_cover, t, h), text))
    for outcome, text in cases:
        expected = outcome(text)
        assert expected[0] != "raised", expected
        header, _, body = text.partition("\n")
        fields = header.split()
        for prefix in ("", "# M13\n", "\n \t\n# a comment\r\n\n"):
            for form in _number_forms(int(fields[-1]))[:-1]:
                variant = prefix + "  " + " ".join(fields[:-1] + [form]) + " \t\n" + body
                assert _header_end(variant) == len(variant) - len(body)
                assert outcome(variant) == expected, variant[:80]
