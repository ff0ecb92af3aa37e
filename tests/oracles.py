"""Brute-force oracles for the test suite.

Everything here re-derives covering properties straight from their
definitions with exhaustive loops, sharing no machinery with the
package's verifiers or solvers.  Feasible only at tiny sizes; the tests
keep instance sizes such that full enumeration stays cheap.  The sigma
and elb searches read off each of the 2^m orientations the incident
pairs it covers, then look for k of those sets that cover every pair
with two sound reductions (``_some_k_cover``), which bring K5 at k = 4
within a fraction of a second.
"""

from itertools import combinations, combinations_with_replacement, permutations, product


def _arrow(g, bits, e):
    u, v = g.edges[e]
    return (u, v) if bits[e] == 0 else (v, u)


def orientation_cover_ok(g, bits_list):
    """Definition: every two distinct edges at a shared vertex are both
    directed out of it in some orientation."""
    for v in range(g.n):
        inc = [e for e in range(g.m) if v in g.edges[e]]
        for e, f in combinations(inc, 2):
            if not any(
                _arrow(g, bits, e)[0] == v and _arrow(g, bits, f)[0] == v
                for bits in bits_list
            ):
                return False
    return True


def elbow_cover_ok(g, bits_list):
    """Definition: every 2-edge path u,v,w is, in some orientation,
    directed neither u->v->w nor w->v->u."""
    for v in range(g.n):
        inc = [e for e in range(g.m) if v in g.edges[e]]
        for e, f in combinations(inc, 2):
            u = g.edges[e][0] if g.edges[e][1] == v else g.edges[e][1]
            w = g.edges[f][0] if g.edges[f][1] == v else g.edges[f][1]
            covered = False
            for bits in bits_list:
                fwd = _arrow(g, bits, e) == (u, v) and _arrow(g, bits, f) == (v, w)
                bwd = _arrow(g, bits, f) == (w, v) and _arrow(g, bits, e) == (v, u)
                if not fwd and not bwd:
                    covered = True
                    break
            if not covered:
                return False
    return True


def _incident_pairs(g):
    """(v, e, f) for every two edges e < f at a shared vertex v."""
    return [
        (v, e, f)
        for v in range(g.n)
        for e, f in combinations([e for e in range(g.m) if v in g.edges[e]], 2)
    ]


def _some_k_cover(masks, full, k):
    """Do k of the bitsets in masks, repeats allowed, have union full?

    Two sound reductions keep this exhaustive: only the distinct masks
    that lie in no other are kept (a superset serves wherever its subset
    does), and each level branches only on the masks that hold the
    lowest bit still missing, which every cover must contain."""
    masks = set(masks)
    top = [a for a in masks if not any(a != b and a | b == b for b in masks)]

    def grow(have, left):
        if have == full:
            return True
        if left == 0:
            return False
        missing = full & ~have
        low = missing & -missing
        return any(grow(have | a, left - 1) for a in top if a & low)

    return grow(0, k)


def _orientations_at_most(g, k, covers):
    """Does some multiset of k orientations cover every incident pair?
    ``covers(out_e, out_f)`` says whether an orientation that directs
    edge e (edge f) out of their shared vertex exactly when out_e
    (out_f) covers the pair; each orientation is reduced to the set of
    pairs it covers."""
    pairs = _incident_pairs(g)
    masks = [
        sum(
            1 << i
            for i, (v, e, f) in enumerate(pairs)
            if covers(_arrow(g, bits, e)[0] == v, _arrow(g, bits, f)[0] == v)
        )
        for bits in product((0, 1), repeat=g.m)
    ]
    return _some_k_cover(masks, (1 << len(pairs)) - 1, k)


def sigma_at_most(g, k):
    """Exhaustive: does some multiset of k orientations cover g?  A pair
    is covered when both edges leave their shared vertex."""
    return _orientations_at_most(g, k, lambda out_e, out_f: out_e and out_f)


def elb_at_most(g, k):
    """Exhaustive: does some multiset of k orientations elbow-cover g?
    A 2-edge path is covered when it is directed neither way, that is
    when both edges leave, or both enter, the middle vertex."""
    return _orientations_at_most(g, k, lambda out_e, out_f: out_e == out_f)


def _label_graph_is_clique_union(h, labeled_edges):
    """Each connected component of the labeled edge set must be complete,
    using labeled edges only."""
    vertices = set()
    adj = {}
    for e in labeled_edges:
        u, v = h.edges[e]
        vertices.update((u, v))
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    seen = set()
    for start in vertices:
        if start in seen:
            continue
        comp = set()
        stack = [start]
        while stack:
            x = stack.pop()
            if x in comp:
                continue
            comp.add(x)
            stack.extend(adj[x] - comp)
        seen |= comp
        for a, b in combinations(sorted(comp), 2):
            if b not in adj.get(a, ()):
                return False
    return True


def eq_at_most(h, k):
    """Exhaustive: assign every edge a nonempty subset of k labels such
    that each label class is a disjoint union of cliques."""
    if h.m == 0:
        return True
    if k == 0:
        return False
    words = range(1, 1 << k)
    for assignment in product(words, repeat=h.m):
        ok = True
        for i in range(k):
            labeled = [e for e in range(h.m) if (assignment[e] >> i) & 1]
            if not _label_graph_is_clique_union(h, labeled):
                ok = False
                break
        if ok:
            return True
    return False


def eyebrow_cover_ok(g, rank_rows):
    for u, v in g.edges:
        for w in range(g.n):
            if w in (u, v):
                continue
            if not any(
                not (min(r[u], r[v]) < r[w] < max(r[u], r[v])) for r in rank_rows
            ):
                return False
    return True


def eye_at_most(g, k):
    perms = list(permutations(range(g.n)))
    if k == 0:
        return eyebrow_cover_ok(g, [])
    for combo in combinations_with_replacement(perms, k):
        if eyebrow_cover_ok(g, combo):
            return True
    return False


def chromatic_number(g):
    """Exhaustive over all assignments; for very small n only."""
    if g.n == 0:
        return 0
    for k in range(1, g.n + 1):
        for colors in product(range(k), repeat=g.n):
            if all(colors[u] != colors[v] for u, v in g.edges):
                return k
    raise AssertionError("unreachable: n colors always suffice")


def triangle_free_by_triples(g):
    return not any(
        g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
        for a, b, c in combinations(range(g.n), 3)
    )
