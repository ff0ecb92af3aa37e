"""Test helpers that read and build orientation covers through their
per-edge words: bit i of edge e's word is set when orientation i
directs e out of its low endpoint.  Each is written from that
definition alone, so tests can use them as references.
"""

from eqcover import Graph, OrientationCover


def directions(cover):
    """Each orientation's direction bits (0: out of the low endpoint,
    1: out of the high one), the form ``oracles`` takes."""
    return [tuple(0 if w >> i & 1 else 1 for w in cover.words) for i in range(cover.k)]


def cover_from_directions(shape, rows, kind="orientation"):
    """The cover of a graph of shape (n, m) whose orientation i has the
    direction bits rows[i]."""
    words = [0] * shape[1]
    for i, row in enumerate(rows):
        words = [w if d else w | 1 << i for w, d in zip(words, row)]
    return OrientationCover(shape, len(rows), words, kind)


def ranking_cover(g, rankings, kind="orientation"):
    """The cover of g whose orientation i runs each edge from the end
    that rankings[i] ranks lower."""
    rows = [[0 if r[u] < r[v] else 1 for u, v in g.edges] for r in rankings]
    return cover_from_directions((g.n, g.m), rows, kind)


def ranking(order):
    """The vertex ranking that lists the vertices in ``order``: the
    vertex at position i of the order gets rank i."""
    ranks = [0] * len(order)
    for rank, v in enumerate(order):
        ranks[v] = rank
    return tuple(ranks)


def arrow(g, cover, i, e):
    """Edge e as a (tail, head) pair in orientation i."""
    u, v = g.edges[e]
    return (u, v) if cover.words[e] >> i & 1 else (v, u)


def out_mask(g, cover, v, e):
    """The orientations of the cover directing edge e out of its
    endpoint v, as a bit mask."""
    return sum(1 << i for i in range(cover.k) if arrow(g, cover, i, e)[0] == v)


def out_stars(g, cover):
    """The subgraphs of an equivalence cover of L(g), one per
    orientation: in subgraph i, the class of v holds the edges that
    orientation i directs out of v, in index order, and vertices with
    no such edge have no class."""
    subgraphs = []
    for i in range(cover.k):
        tails = [arrow(g, cover, i, e)[0] for e in range(g.m)]
        classes = (tuple(e for e, t in enumerate(tails) if t == v) for v in range(g.n))
        subgraphs.append(tuple(filter(None, classes)))
    return tuple(subgraphs)


def restrict(g, cover, vertices):
    """The subgraph of g induced on the distinct given vertices,
    relabelled 0..len-1 in increasing order, and the cover of it made
    of the words of the edges between them."""
    keep = sorted(set(vertices))
    relabel = {v: i for i, v in enumerate(keep)}
    kept = [
        (e, relabel[u], relabel[v])
        for e, (u, v) in enumerate(g.edges)
        if u in relabel and v in relabel
    ]
    sub = Graph(len(keep), [(u, v) for _, u, v in kept])
    words = [cover.words[e] for e, _, _ in kept]
    return sub, OrientationCover((sub.n, sub.m), cover.k, words, cover.kind)
