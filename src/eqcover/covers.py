"""Covering certificates and their violation witnesses.

A cover is a claim: k orientations stored as one k-bit word per edge
(orientation or elbow covering), k vertex rankings (eyebrow covering),
or clique-partitions (equivalence covering) said to satisfy a covering
property over one reference graph.  Cover objects only carry the claim;
the ``verify`` module checks it and returns a Violation on failure.

Every Violation is self-certifying: ``recheck(graph, cover)`` re-tests
the witness against the definition in isolation, so a reported witness
can be trusted without re-running the full verifier.
"""

from __future__ import annotations

from itertools import accumulate, chain, compress, count, islice, repeat
from operator import and_, ge, getitem, lshift, or_, rshift
from typing import Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .graphs import (
    _DELETE_DIGITS,
    Coloring,
    Graph,
    ShapeError,
    _decimal_ints,
    _header_end,
    _int_fields,
    _significant_lines,
)

COVER_KINDS = ("orientation", "elbow", "eyebrow", "equivalence")


class CoverFormatError(ValueError):
    """Raised when a cover file violates the text format."""


class _OrientationView(NamedTuple):
    """One orientation of a cover as its direction bits, 0 where the
    edge runs out of its low endpoint.  Kept for ``bench/`` until
    ROADMAP item 1 moves the benchmark to ``OrientationCover.words``."""

    direction: Tuple[int, ...]


class OrientationCover:
    """k orientations of one reference graph; kind is a label only.

    Stored as one k-bit word per edge index, bit i set when orientation
    i directs the edge out of its low endpoint.

    The kind tag records intent ('orientation' or 'elbow') for file
    round-trips; verifiers accept either tag, and a valid orientation
    covering is always a valid elbow covering.
    """

    __slots__ = ("graph_shape", "k", "words", "kind")

    def __init__(
        self,
        graph_shape: Tuple[int, int],
        k: int,
        words: Sequence[int],
        kind: str = "orientation",
    ):
        shape = (int(graph_shape[0]), int(graph_shape[1]))
        words = tuple(words)
        if len(words) != shape[1]:
            raise ShapeError(f"expected {shape[1]} words, got {len(words)}")
        if k < 0 or (words and not (0 <= min(words) and max(words) >> k == 0)):
            raise ValueError(f"words must lie in [0, 2^{k})")
        if kind not in ("orientation", "elbow"):
            raise ValueError(f"kind must be 'orientation' or 'elbow', got {kind!r}")
        self.graph_shape = shape
        self.k = k
        self.words = words
        self.kind = kind

    @classmethod
    def _from_words(
        cls, graph_shape: Tuple[int, int], k: int, words: Sequence[int], kind: str
    ) -> "OrientationCover":
        """Cover of one int word in [0, 2^k) per edge of a graph of shape
        (n, m) of ints, kind 'orientation' or 'elbow'; none of that is
        checked."""
        cover = cls.__new__(cls)
        cover.graph_shape = graph_shape
        cover.k = k
        cover.words = tuple(words)
        cover.kind = kind
        return cover

    @property
    def orientations(self) -> Tuple[_OrientationView, ...]:
        """Each orientation's direction bits, derived from the words on
        every read."""
        return tuple(
            _OrientationView(tuple(0 if w >> i & 1 else 1 for w in self.words))
            for i in range(self.k)
        )

    def require_match(self, g: Graph) -> None:
        if self.graph_shape != (g.n, g.m):
            raise ShapeError(
                f"cover shape {self.graph_shape} does not match graph {(g.n, g.m)}"
            )

    def __repr__(self) -> str:
        return f"OrientationCover(kind={self.kind}, k={self.k}, shape={self.graph_shape})"


class _PermutationView(NamedTuple):
    """One ranking of an eyebrow cover.  Kept for ``bench/`` until
    ROADMAP item 1 moves the benchmark to ``EyebrowCover.rankings``."""

    values: Tuple[int, ...]


def _check_ranking(ranks: Tuple[int, ...], n: int) -> None:
    """Raise unless ``ranks`` is a permutation of 0..n-1."""
    if sorted(ranks) != list(range(len(ranks))):
        raise ValueError("values must be a permutation of 0..n-1")
    if len(ranks) != n:
        raise ShapeError(f"permutation length {len(ranks)} != n={n}")


class EyebrowCover:
    """k rankings of the reference graph's vertices: ranking r gives
    vertex v the rank r[v], and is a permutation of 0..n-1."""

    __slots__ = ("n", "rankings")
    kind = "eyebrow"

    def __init__(self, n: int, rankings: Sequence[Sequence[int]]):
        self.n = int(n)
        self.rankings = tuple(tuple(map(int, r)) for r in rankings)
        for r in self.rankings:
            _check_ranking(r, self.n)

    @classmethod
    def _from_checked(cls, n: int, rankings: List[Tuple[int, ...]]) -> "EyebrowCover":
        """Cover of int tuples already known to permute 0..n-1."""
        cover = cls.__new__(cls)
        cover.n = n
        cover.rankings = tuple(rankings)
        return cover

    @property
    def permutations(self) -> Tuple[_PermutationView, ...]:
        """Each ranking in a ``values`` field, built on every read."""
        return tuple(map(_PermutationView, self.rankings))

    @property
    def k(self) -> int:
        return len(self.rankings)

    def __repr__(self) -> str:
        return f"EyebrowCover(k={self.k}, n={self.n})"


# An equivalence subgraph is a list of pairwise-disjoint vertex classes,
# each claimed to induce a clique of the host.
EquivalenceSubgraph = Tuple[Tuple[int, ...], ...]


class EquivalenceCover:
    """k equivalence subgraphs over one host graph."""

    __slots__ = ("n", "subgraphs")
    kind = "equivalence"

    def __init__(self, n: int, subgraphs: Sequence[Sequence[Sequence[int]]]):
        self.n = int(n)
        subs: List[EquivalenceSubgraph] = []
        for sub in subgraphs:
            classes = []
            for cls in sub:
                cls = tuple(sorted(int(v) for v in cls))
                if not cls:
                    raise ValueError("empty class in equivalence subgraph")
                if len(set(cls)) < len(cls):
                    raise ValueError(f"repeated vertex in equivalence class {cls}")
                if cls[0] < 0 or cls[-1] >= self.n:
                    raise ValueError(
                        f"vertex out of range 0..{self.n - 1} in equivalence class {cls}"
                    )
                classes.append(cls)
            subs.append(tuple(classes))
        self.subgraphs: Tuple[EquivalenceSubgraph, ...] = tuple(subs)

    @classmethod
    def _from_sorted(
        cls, n: int, subgraphs: Sequence[Sequence[Tuple[int, ...]]]
    ) -> "EquivalenceCover":
        """Cover whose classes are already non-empty tuples of sorted
        ints; none of that is checked."""
        cover = cls.__new__(cls)
        cover.n = n
        cover.subgraphs = tuple(map(tuple, subgraphs))
        return cover

    @property
    def k(self) -> int:
        return len(self.subgraphs)

    def __repr__(self) -> str:
        return f"EquivalenceCover(k={self.k}, n={self.n})"


class Violation:
    """Base class for covering-property counterexamples."""

    kind = "generic"

    def line(self) -> str:
        raise NotImplementedError

    def recheck(self, g: Graph, cover) -> bool:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.line()!r}>"

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and self.line() == other.line()

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.line()))


def _out_mask(g: Graph, cover: OrientationCover, e: int, v: int) -> int:
    """The orientations of ``cover`` directing edge e out of its endpoint v."""
    w = cover.words[e]
    return w if g.edges[e][0] == v else w ^ ((1 << cover.k) - 1)


class OrientationViolation(Violation):
    """A vertex with two incident edges never jointly directed out of it."""

    kind = "orientation"

    def __init__(self, vertex: int, e: Tuple[int, int], f: Tuple[int, int]):
        self.vertex = vertex
        self.e = e
        self.f = f

    def line(self) -> str:
        return f"VIOLATION v={self.vertex} e=({self.e[0]},{self.e[1]}) f=({self.f[0]},{self.f[1]})"

    def recheck(self, g: Graph, cover: OrientationCover) -> bool:
        ei = g.index_of(*self.e)
        fi = g.index_of(*self.f)
        if ei == fi or self.vertex not in self.e or self.vertex not in self.f:
            return False
        return not _out_mask(g, cover, ei, self.vertex) & _out_mask(g, cover, fi, self.vertex)


class ElbowViolation(Violation):
    """A 2-edge path traversed as a directed path in every orientation."""

    kind = "elbow"

    def __init__(self, path: Tuple[int, int, int]):
        self.path = path

    def line(self) -> str:
        u, v, w = self.path
        return f"VIOLATION path=({u},{v},{w})"

    def recheck(self, g: Graph, cover: OrientationCover) -> bool:
        u, v, w = self.path
        if u == w or not (g.has_edge(u, v) and g.has_edge(v, w)):
            return False
        # an orientation directs the path exactly when it sends one of
        # the two edges out of the middle vertex and not the other
        out_e = _out_mask(g, cover, g.index_of(u, v), v)
        out_f = _out_mask(g, cover, g.index_of(v, w), v)
        return out_e ^ out_f == (1 << cover.k) - 1


class EyebrowViolation(Violation):
    """An edge and a third vertex ranked strictly between its endpoints
    by every ranking."""

    kind = "eyebrow"

    def __init__(self, edge: Tuple[int, int], w: int):
        self.edge = edge
        self.w = w

    def line(self) -> str:
        return f"VIOLATION edge=({self.edge[0]},{self.edge[1]}) w={self.w}"

    def recheck(self, g: Graph, cover: EyebrowCover) -> bool:
        u, v = self.edge
        if self.w in (u, v) or not g.has_edge(u, v):
            return False
        for r in cover.rankings:
            lo, hi = sorted((r[u], r[v]))
            if not (lo < r[self.w] < hi):
                return False
        return True


class EquivalenceViolation(Violation):
    """Witness against an equivalence covering.

    Three subkinds:
      uncovered    -- a host edge inside no class of any subgraph
      not-a-clique -- (subgraph, class) with a missing host edge
      overlap      -- (subgraph, two classes) sharing a vertex
    """

    kind = "equivalence"

    def __init__(
        self,
        subkind: str,
        edge: Optional[Tuple[int, int]] = None,
        subgraph: Optional[int] = None,
        class_index: Optional[int] = None,
        class_pair: Optional[Tuple[int, int]] = None,
        vertex: Optional[int] = None,
    ):
        if subkind not in ("uncovered", "not-a-clique", "overlap"):
            raise ValueError(f"unknown subkind {subkind!r}")
        self.subkind = subkind
        self.edge = edge
        self.subgraph = subgraph
        self.class_index = class_index
        self.class_pair = class_pair
        self.vertex = vertex

    def line(self) -> str:
        if self.subkind == "uncovered":
            return f"VIOLATION uncovered=({self.edge[0]},{self.edge[1]})"
        if self.subkind == "not-a-clique":
            return (
                f"VIOLATION subgraph={self.subgraph} class={self.class_index} "
                f"missing=({self.edge[0]},{self.edge[1]})"
            )
        return (
            f"VIOLATION subgraph={self.subgraph} "
            f"classes=({self.class_pair[0]},{self.class_pair[1]}) vertex={self.vertex}"
        )

    def recheck(self, h: Graph, cover: EquivalenceCover) -> bool:
        if self.subkind == "uncovered":
            u, v = self.edge
            if not h.has_edge(u, v):
                return False
            for sub in cover.subgraphs:
                for cls in sub:
                    if u in cls and v in cls:
                        return False
            return True
        if self.subkind == "not-a-clique":
            cls = cover.subgraphs[self.subgraph][self.class_index]
            u, v = self.edge
            return u in cls and v in cls and not h.has_edge(u, v)
        a, b = self.class_pair
        sub = cover.subgraphs[self.subgraph]
        return self.vertex in sub[a] and self.vertex in sub[b]


# ---------------------------------------------------------------------------
# cover file format
#
#   cover <kind> <k> <n> <m>
#
# orientation / elbow: k blocks, each "block <i>" (1-based) followed by
# exactly m lines "<u> <v>" meaning u -> v, in any order; the undirected
# pairs must be exactly the graph's edge set.
# eyebrow: k lines "perm <r_0> ... <r_{n-1}>" (rank of each vertex).
# equivalence: k blocks, each "block <i>" followed by one line
# "clique <v_1> <v_2> ..." per class.
# "#" comment lines and blank lines are ignored.
# ---------------------------------------------------------------------------


# Byte maps of _canonical_words: a newline to 0xFF and every other
# byte to 0; a line's "not the low arrow" byte, 0 or 1, to its flag.
_NEWLINES_TO_FF = bytes(0xFF if b == 10 else 0 for b in range(256))
_LOW_FLAGS = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def write_cover_for(g: Graph, cover) -> str:
    """Serialize a cover against its reference graph."""
    if isinstance(cover, EquivalenceCover):
        return write_equivalence_cover(g.n, g.m, cover)
    lines: List[str] = []
    if isinstance(cover, OrientationCover):
        cover.require_match(g)
        lines.append(f"cover {cover.kind} {cover.k} {g.n} {g.m}")
        out_of_low, out_of_high = g._arrow_blocks
        # edge e's arrow for a 0 bit and a 1 bit
        arrows = list(zip(out_of_high.splitlines(), out_of_low.splitlines()))
        ones = int.from_bytes(b"\x01" * g.m, "little")
        for lane in range(0, cover.k, 8):
            # bits lane..lane+7 of every word, one byte per edge: with
            # k <= 8, the words themselves
            if cover.k <= 8:
                octets = bytes(cover.words)
            else:
                octets = bytes(map(and_, map(rshift, cover.words, repeat(lane)), repeat(0xFF)))
            acc = int.from_bytes(octets, "little")
            for i in range(lane, min(cover.k, lane + 8)):
                lines.append(f"block {i + 1}")
                bits = (acc >> (i - lane) & ones).to_bytes(g.m, "little")  # bit i of every word
                lines.extend(map(getitem, arrows, bits))
    elif isinstance(cover, EyebrowCover):
        if cover.n != g.n:
            raise ShapeError(f"cover n={cover.n} does not match graph n={g.n}")
        lines.append(f"cover eyebrow {cover.k} {g.n} {g.m}")
        lines.extend(["perm " + " ".join(map(str, r)) for r in cover.rankings])
    else:
        raise TypeError(f"cannot serialize {type(cover).__name__}")
    return "\n".join(lines) + "\n"


def write_equivalence_cover(n: int, m: int, cover: EquivalenceCover) -> str:
    """Serialize an equivalence cover against a reference graph given
    only by its vertex and edge counts, so a cover of a line graph can
    be written without building the line graph."""
    if cover.n != n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={n}")
    # one line template per class width; a block is filled by one format
    widths = set(map(len, chain.from_iterable(cover.subgraphs)))
    line = {r: "clique" + " %d" * r + "\n" for r in widths}
    parts = [f"cover equivalence {cover.k} {n} {m}\n"]
    for i, sub in enumerate(cover.subgraphs, start=1):
        template = "".join(map(line.__getitem__, map(len, sub)))
        parts.append(f"block {i}\n" + template % tuple(chain.from_iterable(sub)))
    return "".join(parts)


def _cover_header(lines: Iterator[Tuple[int, str]], g: Graph) -> Tuple[str, int]:
    """The kind and k of the header "cover <kind> <k> <n> <m>", the
    first of the significant ``lines``, whose shape must be g's."""
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
    k, n, m = _int_fields(CoverFormatError, lineno, parts[2:], "header field")
    if k < 0:
        raise CoverFormatError(f"line {lineno}: negative k")
    if (n, m) != (g.n, g.m):
        raise CoverFormatError(
            f"line {lineno}: header shape ({n}, {m}) does not match graph "
            f"({g.n}, {g.m})"
        )
    return kind, k


def parse_cover(text: str, g: Graph):
    """Parse a cover file against its reference graph.

    Returns an OrientationCover, EyebrowCover, or EquivalenceCover
    according to the header kind.  Raises CoverFormatError with 1-based
    line numbers on malformed input.

    When every line up to the header ends in "\n" and holds no other
    line break, an orientation or elbow body laid out as
    ``write_cover_for`` writes it is decoded one block at a time, never
    split into lines, and an equivalence body laid out as
    ``write_equivalence_cover`` writes it is decoded in bulk; every other
    text gives the same cover, or error, line by line.
    """
    start = _header_end(text)
    if start:
        kind, k = _cover_header(_significant_lines(text[:start].splitlines()), g)
        if kind in ("orientation", "elbow"):
            words = _canonical_words(text, start, g, k)
            if words is not None:
                return OrientationCover((g.n, g.m), k, words, kind)
        elif kind == "equivalence":
            cover = _written_classes(text, start, g, k)
            if cover is not None:
                return cover
    lines = _significant_lines(text.splitlines())
    kind, k = _cover_header(lines, g)
    body = list(lines)
    if kind in ("orientation", "elbow"):
        return OrientationCover((g.n, g.m), k, _parse_orientation_blocks(body, g, k), kind)
    return _parse_eyebrow(body, g, k) if kind == "eyebrow" else _parse_equivalence(body, g, k)


def _canonical_words(text: str, start: int, g: Graph, k: int) -> Optional[List[int]]:
    """Per-edge words of the k blocks that make up ``text[start:]``
    when they are written as ``write_cover_for`` writes them ("block
    <i>", then line e is edge e's arrow "t h", nothing else, each line
    ending in a newline); None for any other text, left to the
    line-by-line reader, which accepts the arrows of a block in any
    order.

    An arrow and its reverse have the same length, so every block has
    the width of the all-low block, and its newlines sit where that
    block's do.  Both the all-low and the all-high block are g's, made
    once per graph.  A block is never split into lines: its bytes become
    one integer, byte j at bits 8j..8j+7, and each step below acts on
    every byte at once.  The test is per line, not per byte: the line
    "15 15" differs from both "12 15" and "15 12", but never at the same
    byte.  Line e's flag "runs out of the low endpoint" becomes byte e
    of the block's flags, shifted to bit i mod 8 and summed into one
    integer per eight blocks, so no bit carries into the next edge's
    byte.
    """
    m = g.m
    low_text, high_text = g._arrow_blocks
    written = low_text.encode("ascii")
    width = len(written)
    low = int.from_bytes(written, "little")
    high = int.from_bytes(high_text.encode("ascii"), "little")
    newlines = int.from_bytes(written.translate(_NEWLINES_TO_FF), "little")
    del written
    fill = ((1 << 8 * width) - 1) ^ newlines  # 0xFF in every byte but a newline
    words = [0] * m
    pos = start
    for lane in range(0, k, 8):
        acc = 0
        for i in range(lane, min(k, lane + 8)):
            head = f"block {i + 1}\n"
            if not text.startswith(head, pos):
                return None
            pos += len(head) + width  # past the text's end only if short, so None below
            try:
                block = int.from_bytes(text[pos - width : pos].encode("ascii"), "little")
            except UnicodeEncodeError:
                return None
            x = block ^ low
            if x & newlines:  # a newline moved
                return None
            # Adding 0xFF to each byte of a line but its newline carries
            # a 1 from the line's first nonzero byte of x through the
            # rest onto its newline byte, where x and fill are 0, so
            # the carry stops there: a newline byte of not_low reads 1
            # when its line is not the low arrow, 0 when it is.
            not_low = x + fill
            not_high = (block ^ high) + fill
            if not_low & not_high & newlines:  # a line that is neither arrow
                return None
            # with every byte but the newlines made 0xFF, the translate
            # drops those and turns each newline byte into its flag
            flags = (not_low | fill).to_bytes(width, "little").translate(_LOW_FLAGS, b"\xff")
            acc += int.from_bytes(flags, "little") << (i - lane)
        lanes = acc.to_bytes(m, "little")
        words = list(map(or_, words, map(lshift, lanes, repeat(lane)))) if lane else list(lanes)
    return words if pos == len(text) else None


def _written_classes(text: str, start: int, g: Graph, k: int) -> Optional[EquivalenceCover]:
    """The equivalence cover whose k blocks make up ``text[start:]``
    when they are laid out exactly as ``write_equivalence_cover`` writes
    them: "block i" for i = 1..k, each followed by lines
    "clique v_1 ... v_r" with 0 <= v_1 < ... < v_r < n, single spaces,
    each line ending in a newline.  None for any other text, left to the
    line-by-line reader.

    The body is checked and decoded whole: it is split into blocks at
    "block ", the clique lines of all blocks are joined, and their
    vertices are decoded by one ``_decimal_ints`` call, then cut into
    classes by the number of spaces on each line.
    """
    blocks = text[start:].split("block ")
    if len(blocks) != k + 1 or blocks[0]:
        return None
    sizes = []  # the number of classes of each block
    for i in range(1, k + 1):
        head = f"{i}\n"
        # a block ending mid-line would let the next "block " hide in a clique line
        if not blocks[i].startswith(head) or not blocks[i].endswith("\n"):
            return None
        blocks[i] = blocks[i][len(head) :]
        sizes.append(blocks[i].count("\n"))
    lines = "".join(blocks)
    if ("\n" + lines).count("\nclique ") != sum(sizes):  # a line not starting "clique "
        return None
    vertices = _decimal_ints(lines.replace("clique ", "")[:-1])
    if vertices is None or (vertices and max(vertices) >= g.n):
        return None
    # With its digits deleted, a written line is "clique" and one space
    # per vertex.  A second "clique " on a line, or a lone line "clique "
    # without a vertex, adds to these widths but not to the vertices.
    widths = [len(line) - 6 for line in lines.translate(_DELETE_DIGITS).split("\n")[:-1]]
    if sum(widths) != len(vertices):
        return None
    # a vertex not above the one before it must start a class
    if not set(accumulate(widths)).issuperset(
        compress(count(1), map(ge, vertices, vertices[1:]))
    ):
        return None
    # islice over one shared iterator takes each class, then each block, in turn
    classes = map(tuple, map(islice, repeat(iter(vertices)), widths))
    return EquivalenceCover._from_sorted(g.n, list(map(tuple, map(islice, repeat(classes), sizes))))


def _parse_orientation_blocks(body, g: Graph, k: int) -> List[int]:
    index = g._index
    words = [0] * g.m
    pos = 0
    for i in range(1, k + 1):
        if pos >= len(body):
            raise CoverFormatError(f"missing 'block {i}'")
        lineno, line = body[pos]
        if line.split() != ["block", str(i)]:
            raise CoverFormatError(f"line {lineno}: expected 'block {i}'")
        pos += 1
        seen = bytearray(g.m)
        for _ in range(g.m):
            if pos >= len(body):
                raise CoverFormatError(f"block {i}: expected {g.m} arrow lines")
            lineno, line = body[pos]
            pos += 1
            t, h = _int_fields(CoverFormatError, lineno, line.split(), "endpoint", "'<u> <v>'")
            e = index.get((t, h) if t < h else (h, t))
            if e is None:
                raise CoverFormatError(
                    f"line {lineno}: ({t}, {h}) is not an edge of the graph"
                )
            if seen[e]:
                raise CoverFormatError(
                    f"line {lineno}: edge ({min(t, h)}, {max(t, h)}) appears twice in block {i}"
                )
            seen[e] = 1
            if t < h:
                words[e] |= 1 << (i - 1)
    if pos != len(body):
        lineno, _ = body[pos]
        raise CoverFormatError(f"line {lineno}: trailing content after block {k}")
    return words


def _parse_eyebrow(body, g: Graph, k: int) -> EyebrowCover:
    rankings = []
    if len(body) != k:
        raise CoverFormatError(f"expected {k} 'perm' lines, found {len(body)}")
    for lineno, line in body:
        parts = line.split()
        if parts[0] != "perm" or len(parts) != g.n + 1:
            raise CoverFormatError(
                f"line {lineno}: expected 'perm' followed by {g.n} ranks"
            )
        ranks = _int_fields(CoverFormatError, lineno, parts[1:], "rank")
        try:
            _check_ranking(ranks, g.n)
        except ValueError as exc:
            raise CoverFormatError(f"line {lineno}: {exc}") from None
        rankings.append(ranks)
    return EyebrowCover._from_checked(g.n, rankings)


def _parse_equivalence(body, g: Graph, k: int) -> EquivalenceCover:
    subs: List[List[Tuple[int, ...]]] = []
    current: Optional[List[Tuple[int, ...]]] = None
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
            vs = _int_fields(CoverFormatError, lineno, parts[1:], "vertex")
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


def write_coloring(coloring: Coloring) -> str:
    return "".join(f"{v} {c}\n" for v, c in enumerate(coloring.colors))


def parse_coloring(text: str, n: int) -> Coloring:
    colors: List[Optional[int]] = [None] * n
    count = 0
    for lineno, line in _significant_lines(text.splitlines()):
        v, c = _int_fields(CoverFormatError, lineno, line.split(), "field", "'<v> <color>'")
        if not (0 <= v < n):
            raise CoverFormatError(f"line {lineno}: vertex {v} out of range")
        if colors[v] is not None:
            raise CoverFormatError(f"line {lineno}: vertex {v} colored twice")
        if c < 0:
            raise CoverFormatError(f"line {lineno}: negative color")
        colors[v] = c
        count += 1
    if count != n:
        raise CoverFormatError(f"expected {n} colored vertices, found {count}")
    return Coloring(colors)
