"""Permutations and vertex colorings of a reference graph, and the
errors raised when a certificate does not fit its graph.

Orientations themselves have no type of their own: a cover of k
orientations is stored as one k-bit word per edge index
(``covers.OrientationCover``), bit i set when orientation i directs the
edge out of its low endpoint.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple

from .graphs import Graph


class ShapeError(ValueError):
    """An orientation, cover, or permutation does not fit its graph."""


class ImproperColoringError(ValueError):
    """A supplied coloring gives both endpoints of ``self.edge`` one color."""

    def __init__(self, edge: Tuple[int, int]):
        self.edge = edge
        super().__init__(f"coloring is not proper: edge {edge} is monochromatic")


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
