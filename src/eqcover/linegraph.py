"""Line graph construction.

The line graph L(G) has one vertex per edge of G, adjacent exactly when
the two edges share an endpoint.  Vertex i of L(G) IS edge i of G (the
numbering is the identity on edge indices), which keeps covering
certificates over L(G) human-checkable against the host edge list.

For each host vertex v the edges incident to v, ``host.incident(v)``,
form a clique C_v of L(G); every L(G)-vertex lies in exactly the two
cliques of its edge's endpoints.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph


class LineGraphMap(NamedTuple):
    """A host graph together with its line graph."""

    host: Graph
    line: Graph


def line_graph(g: Graph) -> LineGraphMap:
    """Build L(g) with deterministic vertex numbering (edge index order).

    n(L) = m(g) and m(L) = sum over vertices of C(deg(v), 2): each pair
    of distinct edges at a shared endpoint contributes exactly one line
    edge (two simple edges share at most one vertex).

    The line edges come out already sorted: for host edges e = uv in
    index order, the neighbours of e above e are the edges after e in
    the ascending incidence lists of u and v.  Those at u are (u, w)
    with w > v, and those at v have both endpoints above u, so the
    first list ends below where the second starts.  ``at[x]`` counts
    the edges at x handled so far, so x's edges above e start there.
    """
    incident = g._incident
    at = [0] * g.n
    line_edges = []
    for e, (u, v) in enumerate(g.edges):
        iu, iv = at[u] + 1, at[v] + 1
        at[u], at[v] = iu, iv
        line_edges.extend([(e, f) for f in incident[u][iu:] + incident[v][iv:]])
    return LineGraphMap(g, Graph._from_sorted(g.m, line_edges))
