"""Proper colorings extracted from coverings.

A size-k elbow covering yields a proper coloring with at most
2^(2^(k-1)) colors: for each complementary pair of orientation subsets,
the edges whose incidence signature matches the pair form a bipartite
subgraph with locally forced sides, and the product of the side choices
separates every edge.  K_4 and K_16 meet the bound with equality.

Orientation coverings say more.  With k >= 3 of them, the masks a vertex
of degree >= 2 sees pairwise intersect, so they span a maximal
intersecting family on [k], and adjacent vertices span different ones.
That gives at most M(k) colors, M(k) the number of such families (4, 12,
81, 2646 for k = 3..6); at k = 3 that is 4, which is why sigma = 3 forces
chi <= 4.
"""

from eqcover import (
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    decide_sigma,
    elbow_cover_complete,
    generate_family,
)

for n, k in ((4, 2), (16, 3)):
    g = generate_family("complete", n)
    cover = elbow_cover_complete(n)
    assert cover.k == k
    coloring = coloring_from_elbow_cover(g, cover)
    print(
        f"K_{n}: size-{k} elbow covering -> proper coloring with "
        f"{coloring.palette_size} colors (bound 2^(2^{k - 1}) = {2 ** (2 ** (k - 1))})"
    )

k4 = generate_family("complete", 4)
cover = decide_sigma(k4, 3).witness
coloring = coloring_from_orientation_cover(k4, cover)
print(
    f"\nK_4: size-3 orientation covering -> proper coloring with "
    f"{coloring.palette_size} colors (bound M(3) = 4)"
)

c5 = generate_family("cycle", 5)
cover = decide_sigma(c5, 3).witness
coloring = coloring_from_orientation_cover(c5, cover)
print(
    f"C_5: size-3 orientation covering -> proper coloring with "
    f"{coloring.palette_size} colors (chi(C5) = 3, bound M(3) = 4)"
)
