"""Seeded input generation and reference formulas shared by the workloads.

Graphs carry a planted proper colouring, generated directly (no
colouring heuristic is run), and optionally a planted clique on the
first vertices, so the chromatic number is known by construction.
"""

from __future__ import annotations

import math
import random
from typing import List, Sequence, Tuple

Edge = Tuple[int, int]


def planted_graph(
    rng: random.Random, n: int, m: int, c: int, clique: int = 0
) -> Tuple[List[Edge], List[int]]:
    """m distinct edges on n vertices, each joining two colour classes of
    a planted c-colouring; vertices 0..clique-1 form a clique.

    With clique == c the chromatic number is exactly c.  Returns the
    sorted edge list and the colouring.
    """
    if not 0 <= clique <= c <= n:
        raise ValueError("need 0 <= clique <= c <= n")
    colours = [v % c for v in range(n)]  # balanced classes
    rest = colours[c:]
    rng.shuffle(rest)
    colours[c:] = rest
    edges = {(a, b) for a in range(clique) for b in range(a + 1, clique)}
    if n <= 64:  # small: draw exactly from the allowed pairs
        pairs = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if colours[u] != colours[v] and (u, v) not in edges
        ]
        if len(edges) + len(pairs) < m:
            raise ValueError(f"{m} edges do not fit a {c}-colouring of {n} vertices")
        rng.shuffle(pairs)
        edges.update(pairs[: max(0, m - len(edges))])
    while len(edges) < m:  # large and sparse: rejection sampling
        u, v = rng.randrange(n), rng.randrange(n)
        if colours[u] != colours[v]:
            edges.add((u, v) if u < v else (v, u))
    return sorted(edges), colours


def graph_text(n: int, edges: Sequence[Edge]) -> str:
    """The graph file format: header ``p n m`` and one ``u v`` per edge."""
    return f"p {n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def geometric(lo: int, hi: int, count: int) -> List[int]:
    """count sizes spread evenly in log scale from lo to hi."""
    if count == 1:
        return [lo]
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


def degrees(n: int, edges: Sequence[Edge]) -> List[int]:
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def incident(n: int, edges: Sequence[Edge]) -> List[List[int]]:
    """Edge indices at each vertex, ascending (edges are sorted)."""
    inc: List[List[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        inc[u].append(e)
        inc[v].append(e)
    return inc


def loglog_plus_one(c: int) -> int:
    """ceil(log2 log2 c) + 1: elb(K_c) for c >= 3, and elb(G) for a graph
    of chromatic number c."""
    return math.ceil(math.log2(math.log2(c))) + 1


def proper(g, colours: Sequence[int]) -> bool:
    """Whether the colouring covers g's vertices and gives the two ends of
    every edge different colours."""
    return len(colours) == g.n and all(colours[u] != colours[v] for u, v in g.edges)
