"""Simple undirected graphs with canonical edge indexing.

Vertices are the integers 0..n-1.  Edges are unordered pairs stored
normalized (u < v) and sorted lexicographically; the index of an edge is
its position in that sorted list.  Every other object in this package
(covers, colorings) refers to edges by these indices, so the indexing
must be reproducible: identical inputs always produce the same edge
order.  Colorings and the shape and coloring errors live here too.

A graph stores only n and the sorted edges.  Adjacency, incidence, the
edge-to-index map and the edge-line text are each derived on first read,
then cached: reading and checking a valid orientation, elbow or eyebrow
certificate builds none of the first three.

Self-loops and duplicate edges are rejected.  Graphs with two vertices
sharing a closed neighborhood need no special treatment here; callers
that want the reduction can apply it themselves.
"""

from __future__ import annotations

import json
import re
from itertools import chain, groupby
from operator import itemgetter, lt
from typing import AbstractSet, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

Edge = Tuple[int, int]


class GraphFormatError(ValueError):
    """Raised when a graph file violates the text format."""


class NotBipartiteError(ValueError):
    """Raised when a bipartition is required but an odd cycle exists.

    The offending cycle (a vertex sequence of odd length) is stored in
    ``self.cycle``.
    """

    def __init__(self, cycle: Sequence[int]):
        self.cycle = tuple(cycle)
        super().__init__(f"graph is not bipartite: odd cycle {self.cycle}")


class ShapeError(ValueError):
    """A cover, ranking or coloring does not fit its graph."""


class ImproperColoringError(ValueError):
    """A supplied coloring gives both endpoints of ``self.edge`` one color."""

    def __init__(self, edge: Tuple[int, int]):
        self.edge = edge
        super().__init__(f"coloring is not proper: edge {edge} is monochromatic")


class Graph:
    """Immutable simple undirected graph.

    Attributes:
        n: number of vertices.
        edges: tuple of (u, v) pairs with u < v, lexicographically sorted.
        adjacency: per-vertex tuple of sorted neighbors, derived on first
            use, then cached, like the incidence rows behind
            ``incident``, the edge index behind ``index_of`` and
            ``has_edge``, and the pair of edge-line texts behind
            ``_low_arrows`` and ``_arrow_blocks``.  ``parse_graph``
            seeds the first text of that pair with the body it read.
    """

    __slots__ = ("n", "edges", "_adj", "_inc", "_idx", "_arrows")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        norm = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            norm.append((u, v) if u < v else (v, u))
        if not all(map(lt, norm, norm[1:])):
            norm.sort()
            for i in range(1, len(norm)):
                if norm[i] == norm[i - 1]:
                    raise ValueError(f"duplicate edge {norm[i]}")
        self._fill(n, norm)

    @classmethod
    def _from_sorted(cls, n: int, edges: Sequence[Edge]) -> "Graph":
        """Graph on edges already normalized (u < v), in range, sorted
        and free of duplicates; none of that is checked."""
        g = cls.__new__(cls)
        g._fill(n, edges)
        return g

    def _fill(self, n: int, edges: Sequence[Edge]) -> None:
        self.n = n
        self.edges: Tuple[Edge, ...] = tuple(edges)
        self._adj: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._inc: Optional[Tuple[Tuple[int, ...], ...]] = None
        self._idx: Optional[Dict[Edge, int]] = None
        self._arrows: Tuple[Optional[str], Optional[str]] = (None, None)

    # Rows come out ascending because the edges are sorted: the edges
    # (u, x) with u < x precede the edges (x, w), each group in order.

    @property
    def adjacency(self) -> Tuple[Tuple[int, ...], ...]:
        if self._adj is None:
            adj: List[List[int]] = [[] for _ in range(self.n)]
            for u, v in self.edges:
                adj[u].append(v)
                adj[v].append(u)
            self._adj = tuple(map(tuple, adj))
        return self._adj

    @property
    def _incident(self) -> Tuple[Tuple[int, ...], ...]:
        """Row v holds the ascending indices of the edges at v."""
        if self._inc is None:
            inc: List[List[int]] = [[] for _ in range(self.n)]
            for i, (u, v) in enumerate(self.edges):
                inc[u].append(i)
                inc[v].append(i)
            self._inc = tuple(map(tuple, inc))
        return self._inc

    @property
    def _index(self) -> Dict[Edge, int]:
        """Each edge (u, v), u < v, to its index."""
        if self._idx is None:
            self._idx = dict(zip(self.edges, range(len(self.edges))))
        return self._idx

    @property
    def _low_arrows(self) -> str:
        """Each edge's line "u v\n" out of its low endpoint, in index
        order: the body ``write_graph`` writes, and the all-low block of
        an orientation or elbow cover file."""
        if self._arrows[0] is None:
            self._arrows = ("%d %d\n" * self.m % tuple(chain.from_iterable(self.edges)), None)
        return self._arrows[0]

    @property
    def _arrow_blocks(self) -> Tuple[str, str]:
        """The all-low block and the all-high block, each edge's line
        "v u\n" out of its high endpoint, in index order."""
        low, high = self._low_arrows, self._arrows[1]
        if high is None:
            ends = list(chain.from_iterable(self.edges))
            ends[0::2], ends[1::2] = ends[1::2], ends[0::2]
            self._arrows = (low, "%d %d\n" * self.m % tuple(ends))
        return self._arrows

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> Tuple[int, ...]:
        return tuple(map(len, self.adjacency))

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self._index

    def index_of(self, u: int, v: int) -> int:
        try:
            return self._index[(min(u, v), max(u, v))]
        except KeyError:
            raise ValueError(f"({u}, {v}) is not an edge") from None

    def incident(self, v: int) -> Tuple[int, ...]:
        """Indices of the edges touching v, ascending."""
        return self._incident[v]

    def other_endpoint(self, edge_index: int, v: int) -> int:
        u, w = self.edges[edge_index]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {edge_index}")

    def has_incidence_pairs(self) -> bool:
        """True if some vertex has two distinct incident edges.

        This is exactly the condition under which orientation-covering
        and elbow-covering constraints exist; graphs without such a pair
        (matchings, edgeless graphs) are covered by zero orientations.
        """
        return any(len(a) >= 2 for a in self.adjacency)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class Coloring:
    """A vertex coloring; palette_size counts the distinct colors used."""

    __slots__ = ("colors", "palette_size")

    def __init__(self, colors: Iterable[int]):
        cols = tuple(map(int, colors))
        if cols and min(cols) < 0:
            raise ValueError("colors must be nonnegative")
        self.colors = cols
        self.palette_size = len(set(cols))

    @classmethod
    def _from_dense(cls, colors: Iterable[int], palette_size: int) -> "Coloring":
        """Coloring of ints using each of 0..palette_size-1; unchecked."""
        coloring = cls.__new__(cls)
        coloring.colors = tuple(colors)
        coloring.palette_size = palette_size
        return coloring

    def check_proper(self, g: Graph) -> Optional[Tuple[int, int]]:
        """First monochromatic edge, or None when the coloring is proper."""
        if len(self.colors) != g.n:
            raise ShapeError(f"coloring has {len(self.colors)} entries, graph has {g.n}")
        for u, v in g.edges:
            if self.colors[u] == self.colors[v]:
                return (u, v)
        return None

    def require_proper(self, g: Graph) -> None:
        bad = self.check_proper(g)
        if bad is not None:
            raise ImproperColoringError(bad)

    def dense(self) -> "Coloring":
        """Relabel colors to 0..palette_size-1 by first occurrence."""
        remap = {c: i for i, c in enumerate(dict.fromkeys(self.colors))}
        return Coloring._from_dense(map(remap.__getitem__, self.colors), len(remap))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        return f"Coloring(palette={self.palette_size}, n={len(self.colors)})"


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Subgraph induced by `vertices`, relabeled 0..len-1 in sorted order."""
    keep = sorted(set(vertices))
    if keep and not (0 <= keep[0] and keep[-1] < g.n):
        raise ValueError("vertex out of range")
    relabel = {v: i for i, v in enumerate(keep)}
    # a monotone relabeling keeps the edges normalized and sorted
    edges = [
        (relabel[u], relabel[v])
        for (u, v) in g.edges
        if u in relabel and v in relabel
    ]
    return Graph._from_sorted(len(keep), edges)


def bipartition(g: Graph) -> List[int]:
    """2-color g by breadth-first search; sides are 0 and 1.

    Component roots are the smallest unvisited vertices and get side 0.
    Raises NotBipartiteError carrying an odd cycle when none exists.
    """
    adj = g.adjacency
    side = [-1] * g.n
    parent = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        queue = [root]
        while queue:
            nxt: List[int] = []
            for u in queue:
                for v in adj[u]:
                    if side[v] < 0:
                        side[v] = 1 - side[u]
                        parent[v] = u
                        nxt.append(v)
                    elif side[v] == side[u]:
                        raise NotBipartiteError(_odd_cycle(parent, u, v))
            queue = nxt
    return side


def _odd_cycle(parent: List[int], u: int, v: int) -> List[int]:
    """Cycle through the tree paths of u and v up to their meeting point."""
    up, vp = [u], [v]
    seen = {u: 0}
    x = u
    while parent[x] >= 0:
        x = parent[x]
        seen[x] = len(up)
        up.append(x)
    x = v
    while x not in seen:
        x = parent[x]
        vp.append(x)
    cycle = up[: seen[x] + 1]
    cycle.reverse()
    cycle.extend(vp[:-1])
    return cycle


def find_triangle(g: Graph) -> Optional[Tuple[int, int, int]]:
    """Lexicographically first triangle (a, b, c) with a < b < c, or None.

    For each edge (a, b) in index order, c is the lowest common neighbour
    of a and b above b.  ``above[x]`` is the set of x's neighbours above
    x, read from the runs of the sorted edges without building the
    adjacency; memory stays O(n + m).
    """
    above: List[AbstractSet[int]] = [frozenset()] * g.n
    for u, run in groupby(g.edges, itemgetter(0)):
        above[u] = set(map(itemgetter(1), run))
    for a, b in g.edges:
        if not above[a].isdisjoint(above[b]):
            return (a, b, min(above[a] & above[b]))
    return None


def mycielskian(g: Graph) -> Graph:
    """Mycielski construction: triangle-free preserving, raises chi by one.

    Labeling: original vertices keep 0..n-1, the shadow of vertex i is
    n+i, and the apex is 2n.
    """
    n = g.n
    edges = list(g.edges)
    for u, v in g.edges:
        edges.append((u, n + v))
        edges.append((v, n + u))
    for i in range(n):
        edges.append((n + i, 2 * n))
    return Graph(2 * n + 1, edges)


# The most edges of a complete graph that is built: K2048, with
# 2,096,128 edges, is the largest.
MAX_COMPLETE_EDGES = 1 << 21


def _require_buildable_complete(n: int) -> None:
    """Refuse K_n when it has more than ``MAX_COMPLETE_EDGES`` edges."""
    m = n * (n - 1) // 2
    if m > MAX_COMPLETE_EDGES:
        raise ValueError(
            f"complete graph on {n} vertices would have {m} edges, more than {MAX_COMPLETE_EDGES}"
        )


def _complete(p: int) -> Graph:
    if p < 1:
        raise ValueError("complete graph needs at least one vertex")
    _require_buildable_complete(p)
    return Graph(p, [(u, v) for u in range(p) for v in range(u + 1, p)])


def _cycle(p: int) -> Graph:
    if p < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(p, [(i, (i + 1) % p) for i in range(p)])


def _path(p: int) -> Graph:
    if p < 1:
        raise ValueError("path needs at least one vertex")
    return Graph(p, [(i, i + 1) for i in range(p - 1)])


def _star(p: int) -> Graph:
    if p < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(p + 1, [(0, i) for i in range(1, p + 1)])


def _complete_bipartite(p: int) -> Graph:
    # single-parameter family: the balanced K_{p,p}
    if p < 1:
        raise ValueError("complete bipartite needs at least one vertex per side")
    return Graph(2 * p, [(a, p + b) for a in range(p) for b in range(p)])


def _petersen(p: int) -> Graph:
    # generalized Petersen graph GP(p, 2); GP(5, 2) is the Petersen graph
    if p < 5:
        raise ValueError("petersen family needs parameter >= 5")
    edges = []
    for i in range(p):
        edges.append((i, (i + 1) % p))  # outer cycle
        edges.append((p + i, p + (i + 2) % p))  # inner star polygon
        edges.append((i, p + i))  # spokes
    return Graph(2 * p, edges)


def _mycielski_iterate(t: int) -> Graph:
    # iterate 2 is a single edge; 3 is the 5-cycle; 4 is the Grotzsch graph
    if t < 2:
        raise ValueError("mycielski iterate needs parameter >= 2")
    g = Graph(2, [(0, 1)])
    for _ in range(t - 2):
        g = mycielskian(g)
    return g


def _triangle_plus_pendant() -> Graph:
    return Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])


def generate_family(family: str, parameter: Optional[int] = None) -> Graph:
    """Canonical named test graphs with deterministic labelings.

    Families: complete(n), cycle(n>=3), path(n>=1), star(leaves>=1),
    complete-bipartite(p) = K_{p,p}, petersen(p>=5) = GP(p,2),
    mycielski-iterate(t>=2), triangle-plus-pendant (no parameter).
    A complete graph over ``MAX_COMPLETE_EDGES`` edges is refused.
    """
    name = family.replace("_", "-").lower()
    if name == "triangle-plus-pendant":
        if parameter is not None:
            raise ValueError("triangle-plus-pendant takes no parameter")
        return _triangle_plus_pendant()
    makers = {
        "complete": _complete,
        "cycle": _cycle,
        "path": _path,
        "star": _star,
        "complete-bipartite": _complete_bipartite,
        "petersen": _petersen,
        "mycielski-iterate": _mycielski_iterate,
    }
    if name not in makers:
        raise ValueError(f"unknown family {family!r}")
    if parameter is None:
        raise ValueError(f"family {family!r} requires an integer parameter")
    return makers[name](parameter)


_DELETE_DIGITS = str.maketrans("", "", "0123456789")
_DECIMAL_TEXT = re.compile(r"[0-9 \n]*")
_SEPARATORS_TO_COMMAS = {32: 44, 10: 44}


def _decimal_ints(text: str) -> Optional[List[int]]:
    """The numbers of a text of ASCII decimal numbers, each separated
    from the next by one space or one newline, with none before the
    first or after the last; None for any other text.

    The text becomes one JSON array, so the numbers are converted by
    CPython's C JSON scanner, not one ``int`` call each.  The scanner
    rejects an empty field and a leading zero.  It accepts digit strings
    past the int string-conversion limit, so callers range-check every
    number.
    """
    if _DECIMAL_TEXT.fullmatch(text) is None:
        return None
    try:
        return json.loads("[" + text.translate(_SEPARATORS_TO_COMMAS) + "]")
    except ValueError:
        return None


def _significant_lines(raw: Iterable[str]) -> Iterator[Tuple[int, str]]:
    """Each line of ``raw`` that is neither blank nor a "#" comment,
    stripped, with its 1-based line number."""
    for lineno, line in enumerate(raw, start=1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _int_fields(
    error: type, lineno: int, fields: Sequence[str], what: str, pair: str = ""
) -> Tuple[int, ...]:
    """The ``fields`` of line ``lineno`` as ints.  Raises ``error``
    naming the line and ``what`` when a field is not an integer, and,
    given a ``pair`` layout such as "'<u> <v>'", first when there are
    not two fields."""
    if pair and len(fields) != 2:
        raise error(f"line {lineno}: expected {pair}")
    try:
        return tuple(map(int, fields))
    except ValueError:
        raise error(f"line {lineno}: non-integer {what}") from None


def _header_end(text: str) -> int:
    """The offset past the header line when the line-by-line reader
    would number the lines up to it alike: the header and the blank and
    "#" comment lines before it each end in "\n" and are one line under
    ``str.splitlines``.  0 otherwise, when only that reader can find the
    header.

    Past this offset a bulk decoder reads the body alone, so it never
    splits the whole text into lines."""
    start = 0
    while True:
        end = text.find("\n", start) + 1
        raw = text[start:end].splitlines()
        if len(raw) != 1:
            return 0
        if any(_significant_lines(raw)):
            return end
        start = end


def _graph_header(lines: Iterator[Tuple[int, str]]) -> Tuple[int, int]:
    """n and m from the header "p <n> <m>", the first of the significant
    ``lines``."""
    first = next(lines, None)
    if first is None:
        raise GraphFormatError("missing 'p <n> <m>' header")
    lineno, line = first
    parts = line.split()
    if parts[0] != "p" or len(parts) != 3:
        raise GraphFormatError(f"line {lineno}: expected header 'p <n> <m>'")
    n, m = _int_fields(GraphFormatError, lineno, parts[1:], "header")
    if n < 0 or m < 0:
        raise GraphFormatError(f"line {lineno}: negative header value")
    return n, m


def _written_edges(text: str, start: int, n: int, m: int) -> Optional[List[Edge]]:
    """The edges of ``text[start:]`` when it is laid out as
    ``write_graph`` writes a body (m sorted lines "u v" with
    u < v < n, ASCII digits, single spaces, each line ending in a
    newline); None for any other body, left to the line-by-line reader.

    The layout is checked on the whole body at once: with its digits
    deleted, every line must read one space.  The endpoints are decoded
    by ``_decimal_ints``.
    """
    shape = text[start:].translate(_DELETE_DIGITS)
    # the length test first: a forged header m builds no long string
    if len(shape) != 2 * m or shape != " \n" * m:
        return None
    del shape
    ends = _decimal_ints(text[start:-1])
    if ends is None:
        return None
    # each list is dropped as soon as the next one is built, which keeps
    # the peak below the line-by-line reader's
    low, high = ends[0::2], ends[1::2]
    del ends
    if m and (max(high) >= n or not all(map(lt, low, high))):
        return None
    edges = list(zip(low, high))
    del low, high
    return edges if all(map(lt, edges, edges[1:])) else None


def parse_graph(text: str) -> Graph:
    """Parse the graph file format.

    Format: optional ``#`` comment lines and blank lines, a header
    ``p <n> <m>``, then exactly m lines ``<u> <v>`` with 0 <= u < v < n
    and no duplicates, in any order; edge indices follow the sorted
    order.  Violations raise GraphFormatError naming the 1-based line
    number.

    When every line up to the header ends in "\n" and holds no other
    line break, a body laid out as ``write_graph`` writes it is decoded
    in bulk and kept as the graph's all-low arrow block; every other
    accepted layout gives the same graph line by line.
    """
    start = _header_end(text)
    if start:
        n, m = _graph_header(_significant_lines(text[:start].splitlines()))
        edges = _written_edges(text, start, n, m)
        if edges is not None:
            g = Graph._from_sorted(n, edges)
            # the body passed the layout test and the JSON decode, which
            # rejects leading zeros: it is the all-low block byte for byte
            g._arrows = (text[start:], None)
            return g
    lines = _significant_lines(text.splitlines())
    n, m = _graph_header(lines)
    seen = set()
    for lineno, line in lines:
        u, v = _int_fields(GraphFormatError, lineno, line.split(), "endpoint", "'<u> <v>'")
        if not (0 <= u < v < n):
            raise GraphFormatError(
                f"line {lineno}: edge ({u}, {v}) must satisfy 0 <= u < v < {n}"
            )
        if (u, v) in seen:
            raise GraphFormatError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
    if len(seen) != m:
        raise GraphFormatError(f"header declares m={m} but found {len(seen)} edge lines")
    # every edge is checked above: normalized, in range and not repeated
    return Graph._from_sorted(n, sorted(seen))


def write_graph(g: Graph) -> str:
    return f"p {g.n} {g.m}\n" + g._low_arrows


def read_graph_file(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph_file(path: str, g: Graph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(write_graph(g))
