"""Orientations, permutations, and vertex colorings of a reference graph.

An orientation assigns a direction to every edge of a fixed graph.  It
stores one bit per edge index: 0 sends the edge from its low endpoint to
its high endpoint, 1 reverses it.  Orientations carry only the shape
(n, m) of their reference graph, so they must always be interpreted
against a graph with a matching edge list.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .graphs import Graph


class ShapeError(ValueError):
    """An orientation, cover, or permutation does not fit its graph."""


class HomomorphismError(ValueError):
    """A claimed vertex map is not edge-preserving.

    ``self.edge`` is the offending edge of the source graph.
    """

    def __init__(self, edge: Tuple[int, int], reason: str):
        self.edge = edge
        super().__init__(f"not a homomorphism on edge {edge}: {reason}")


class ImproperColoringError(ValueError):
    """A supplied coloring gives both endpoints of ``self.edge`` one color."""

    def __init__(self, edge: Tuple[int, int]):
        self.edge = edge
        super().__init__(f"coloring is not proper: edge {edge} is monochromatic")


class Orientation:
    """A direction for every edge of a reference graph of shape (n, m)."""

    __slots__ = ("graph_shape", "direction")

    def __init__(self, graph_shape: Tuple[int, int], direction: Iterable[int]):
        bits = tuple(int(b) for b in direction)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("direction bits must be 0 or 1")
        if len(bits) != graph_shape[1]:
            raise ShapeError(
                f"expected {graph_shape[1]} direction bits, got {len(bits)}"
            )
        self.graph_shape = (int(graph_shape[0]), int(graph_shape[1]))
        self.direction: Tuple[int, ...] = bits

    def matches(self, g: Graph) -> bool:
        return self.graph_shape == (g.n, g.m)

    def require_match(self, g: Graph) -> None:
        if not self.matches(g):
            raise ShapeError(
                f"orientation shape {self.graph_shape} does not match "
                f"graph shape {(g.n, g.m)}"
            )

    def arrow(self, g: Graph, edge_index: int) -> Tuple[int, int]:
        """The edge as a (tail, head) pair under this orientation."""
        u, v = g.edges[edge_index]
        return (u, v) if self.direction[edge_index] == 0 else (v, u)

    def directs_out_of(self, g: Graph, edge_index: int, v: int) -> bool:
        return self.arrow(g, edge_index)[0] == v

    def reversed(self) -> "Orientation":
        return Orientation(self.graph_shape, tuple(1 - b for b in self.direction))

    def out_edges(self, g: Graph, v: int) -> Tuple[int, ...]:
        """Indices of the edges directed out of v, ascending."""
        return tuple(
            e for e in g.incident(v) if self.directs_out_of(g, e, v)
        )

    def is_acyclic(self, g: Graph) -> bool:
        """Kahn's algorithm on the directed graph."""
        indeg = [0] * g.n
        outs: list[list[int]] = [[] for _ in range(g.n)]
        for e in range(g.m):
            t, h = self.arrow(g, e)
            outs[t].append(h)
            indeg[h] += 1
        stack = [v for v in range(g.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for w in outs[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    stack.append(w)
        return seen == g.n

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Orientation)
            and self.graph_shape == other.graph_shape
            and self.direction == other.direction
        )

    def __hash__(self) -> int:
        return hash((self.graph_shape, self.direction))

    def __repr__(self) -> str:
        return f"Orientation(shape={self.graph_shape})"


class Permutation:
    """A bijection on 0..n-1; values[i] is the rank of vertex i."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(x) for x in values)
        if sorted(vals) != list(range(len(vals))):
            raise ValueError("values must be a permutation of 0..n-1")
        self.values = vals

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(n))

    @classmethod
    def from_order(cls, order: Sequence[int]) -> "Permutation":
        """Build from a vertex sequence listed in increasing rank."""
        ranks = [0] * len(order)
        for rank, v in enumerate(order):
            ranks[v] = rank
        return cls(ranks)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, v: int) -> int:
        return self.values[v]

    def order(self) -> Tuple[int, ...]:
        """Vertices sorted by rank (inverse permutation)."""
        out = [0] * len(self.values)
        for v, r in enumerate(self.values):
            out[r] = v
        return tuple(out)

    def reversed(self) -> "Permutation":
        n = len(self.values)
        return Permutation(tuple(n - 1 - r for r in self.values))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Permutation({list(self.values)})"


class Coloring:
    """A vertex coloring; palette_size counts the distinct colors used."""

    __slots__ = ("colors", "palette_size")

    def __init__(self, colors: Iterable[int]):
        cols = tuple(int(c) for c in colors)
        if any(c < 0 for c in cols):
            raise ValueError("colors must be nonnegative")
        self.colors = cols
        self.palette_size = len(set(cols))

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
        remap: dict[int, int] = {}
        out = []
        for c in self.colors:
            if c not in remap:
                remap[c] = len(remap)
            out.append(remap[c])
        return Coloring(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        return f"Coloring(palette={self.palette_size}, n={len(self.colors)})"


def permutation_to_orientation(g: Graph, p: Permutation) -> Orientation:
    """Acyclic orientation induced by vertex ranks: u -> v iff rank(u) < rank(v)."""
    if len(p) != g.n:
        raise ShapeError(f"permutation length {len(p)} != vertex count {g.n}")
    bits = tuple(0 if p.values[u] < p.values[v] else 1 for u, v in g.edges)
    return Orientation((g.n, g.m), bits)


def pullback_orientation(g: Graph, h: Graph, f: Sequence[int], o: Orientation) -> Orientation:
    """Pull an orientation of h back along a homomorphism f: g -> h.

    Edge uv of g points u -> v exactly when f(u)f(v) points f(u) -> f(v).
    Raises HomomorphismError naming the first edge of g on which f is
    not edge-preserving.
    """
    o.require_match(h)
    if len(f) != g.n:
        raise ShapeError(f"vertex map has {len(f)} entries, graph has {g.n}")
    index = h._index
    bits = []
    for u, v in g.edges:
        fu, fv = f[u], f[v]
        e = index.get((fu, fv) if fu < fv else (fv, fu))
        if e is None:
            if fu == fv:
                raise HomomorphismError((u, v), f"both endpoints map to {fu}")
            if not (0 <= fu < h.n and 0 <= fv < h.n):
                raise HomomorphismError((u, v), "image vertex out of range")
            raise HomomorphismError((u, v), f"({fu}, {fv}) is not an edge of the target")
        b = o.direction[e]
        bits.append(b if fu < fv else 1 - b)
    return Orientation((g.n, g.m), bits)
