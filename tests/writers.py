"""Verbatim copies of the package's writers as they stood before each
graph kept the text of its edge lines: they format every arrow and
every edge line from ``g.edges`` on each call, sharing no code with the
package's cached blocks, so tests compare ``write_graph``,
``write_cover_for``, ``write_equivalence_cover`` and the block decoder
against them."""

from itertools import repeat
from operator import and_, getitem, itemgetter, rshift

from eqcover import EquivalenceCover, EyebrowCover, OrientationCover, ShapeError


def reference_arrow_lines(g):
    """Each edge's arrow line out of its low endpoint and out of its high
    one, joined from one decimal string per vertex."""
    names = list(map(str, range(g.n)))
    low = list(map(names.__getitem__, map(itemgetter(0), g.edges)))
    high = list(map(names.__getitem__, map(itemgetter(1), g.edges)))
    return list(map(" ".join, zip(low, high))), list(map(" ".join, zip(high, low)))


def reference_write_graph(g):
    lines = [f"p {g.n} {g.m}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def reference_write_cover_for(g, cover):
    if isinstance(cover, EquivalenceCover):
        return reference_write_equivalence_cover(g.n, g.m, cover)
    lines = []
    if isinstance(cover, OrientationCover):
        cover.require_match(g)
        lines.append(f"cover {cover.kind} {cover.k} {g.n} {g.m}")
        out_of_low, out_of_high = reference_arrow_lines(g)
        arrows = list(zip(out_of_high, out_of_low))  # edge e's arrow for a 0 bit and a 1 bit
        ones = int.from_bytes(b"\x01" * g.m, "little")
        for lane in range(0, cover.k, 8):
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


def reference_write_equivalence_cover(n, m, cover):
    if cover.n != n:
        raise ShapeError(f"cover n={cover.n} does not match graph n={n}")
    lines = [f"cover equivalence {cover.k} {n} {m}"]
    for i, sub in enumerate(cover.subgraphs, start=1):
        lines.append(f"block {i}")
        lines.extend(["clique " + " ".join(map(str, cls)) for cls in sub])
    return "\n".join(lines) + "\n"
