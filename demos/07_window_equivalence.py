"""The chromatic windows of the orientation covering number.

Three orientations suffice exactly for the graphs with chromatic number
3 or 4, and four exactly for 5 through 12.  The upper halves come from
pullbacks (sigma(K_4) = 3 and a known size-4 covering of K_12); the
lower halves from the coloring extracted out of any size-k covering,
which needs at most M(k) colors, M(k) the number of maximal
intersecting families on [k]: M(3) = 4 and M(4) = 12.

Here the first window is checked against brute force: for a sample of
small connected non-bipartite graphs, the exhaustive decision search
at k = 3 must say SAT precisely when the exact chromatic number lands
in {3, 4}.
"""

import random
from itertools import combinations

from eqcover import (
    Graph,
    NotBipartiteError,
    bipartition,
    decide_sigma,
    exact_chromatic,
    generate_family,
)


def connected(g):
    seen, stack = {0}, [0]
    while stack:
        for u in g.adjacency[stack.pop()]:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == g.n


rng = random.Random(1234)
sample = [
    generate_family("complete", 4),
    generate_family("complete", 5),
    generate_family("complete", 6),
    generate_family("cycle", 5),
    generate_family("cycle", 7),
    generate_family("mycielski-iterate", 4),
    generate_family("petersen", 5),
]
while len(sample) < 40:
    n = rng.randint(5, 7)
    g = Graph(n, [e for e in combinations(range(n), 2) if rng.random() < 0.55])
    try:
        if connected(g):
            bipartition(g)
    except NotBipartiteError:
        sample.append(g)

agree = 0
histogram = {}
for g in sample:
    chi = exact_chromatic(g).value
    sat = decide_sigma(g, 3).status == "sat"
    in_window = chi in (3, 4)
    histogram[chi] = histogram.get(chi, 0) + 1
    marker = "==" if sat == in_window else "!!"
    agree += sat == in_window
    if marker == "!!":
        print(f"  DISAGREEMENT on n={g.n} m={g.m} chi={chi}")

print(f"{len(sample)} connected non-bipartite graphs, chi histogram {histogram}")
print(f"decide(sigma<=3) agreed with 'chi in {{3,4}}' (4 = M(3)) on {agree}/{len(sample)}")
assert agree == len(sample)
