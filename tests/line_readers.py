"""Verbatim copies of the package's line-by-line readers as they
stood before the bulk decoders and the one-parser-per-header rewrite:
tests compare ``Graph``, ``parse_graph`` and ``parse_cover`` against
them.  The cover reader hands its body lines to the package's body
readers, which neither rewrite touched."""

from eqcover import CoverFormatError, Graph, GraphFormatError, OrientationCover
from eqcover.covers import (
    COVER_KINDS,
    _parse_equivalence,
    _parse_eyebrow,
    _parse_orientation_blocks,
)


def reference_graph(n, edges):
    # Graph.__init__ before the already-sorted fast path
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    norm = []
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        norm.append((u, v) if u < v else (v, u))
    norm.sort()
    for i in range(1, len(norm)):
        if norm[i] == norm[i - 1]:
            raise ValueError(f"duplicate edge {norm[i]}")
    return Graph._from_sorted(n, norm)


def reference_parse_graph(text):
    # parse_graph before the bulk decode
    header = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "p" or len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected header 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: negative header value")
            header = (n, m)
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected '<u> <v>'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer endpoint") from None
        n = header[0]
        if not (0 <= u < v < n):
            raise GraphFormatError(
                f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < {n}"
            )
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        edges.append((u, v))
    if header is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    if len(edges) != header[1]:
        raise GraphFormatError(
            f"header declares m={header[1]} but found {len(edges)} edge lines"
        )
    return reference_graph(header[0], edges)


def _reference_significant_lines(raw):
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def reference_parse_cover(text, g):
    # the line-by-line reader of parse_cover, header included; the body
    # readers it hands the lines to are the package's
    lines = _reference_significant_lines(text.splitlines())
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
    body = list(lines)
    if kind in ("orientation", "elbow"):
        return OrientationCover((g.n, g.m), k, _parse_orientation_blocks(body, g, k), kind)
    return _parse_eyebrow(body, g, k) if kind == "eyebrow" else _parse_equivalence(body, g, k)
