"""Orientations of G versus equivalence subgraphs of L(G).

Directing the edges of G splits each vertex's incident edges into an
out-set; the out-sets are disjoint cliques of the line graph, an
equivalence subgraph of L(G) per orientation.  A set of orientations covering every
incidence pair therefore becomes an equivalence covering of L(G) of the
same size, which is the cheap direction of

    eq(L(G)) <= sigma(G) <= 3 eq(L(G)).

The expensive direction converts equivalence subgraphs back into
orientations: classes of a line graph are stars or triangles.  A
subgraph of stars becomes one orientation (every star out of its shared
vertex); a subgraph with a triangle class needs the triangle's three
rotations, hence the factor three, which a triangle-free host never pays.
"""

from eqcover import (
    decide_eq,
    generate_family,
    k4_sigma3_cover,
    line_graph,
    orientation_cover_from_eq_cover,
    out_star_eq_cover,
    verify_equivalence_cover,
    verify_orientation_cover,
)

k4 = generate_family("complete", 4)
lm = line_graph(k4)
print(f"L(K4) has {lm.line.n} vertices and {lm.line.m} edges")

cover = k4_sigma3_cover()
eq = out_star_eq_cover(k4, cover)
print("\nout-stars of the three covering orientations of K4:")
for classes in eq.subgraphs:
    print(f"  classes (as host edge indices): {classes}")
print(f"together: equivalence covering of L(K4) of size {eq.k}, "
      f"valid: {verify_equivalence_cover(lm.line, eq) is None}")

# Every class is an out-star, so each subgraph converts back
# to a single orientation.
back = orientation_cover_from_eq_cover(lm, eq)
print(f"converted back: {back.k} orientations (one per star subgraph), "
      f"valid: {verify_orientation_cover(k4, back) is None}")

# Triangle-free hosts convert size-for-size: every line graph clique is
# a star there, so each subgraph forces a single orientation.
c5 = generate_family("cycle", 5)
lm5 = line_graph(c5)
eq5 = decide_eq(lm5.line, 3).witness
one_per = orientation_cover_from_eq_cover(lm5, eq5)
print(f"\nC5 (triangle-free): eq cover of size {eq5.k} -> orientation cover "
      f"of size {one_per.k}, valid: {verify_orientation_cover(c5, one_per) is None}")

# A triangle class costs three orientations: the triangle's rotations.
k3 = generate_family("complete", 3)
lm3 = line_graph(k3)
tri = decide_eq(lm3.line, 1).witness
rotations = orientation_cover_from_eq_cover(lm3, tri)
print(f"\nK3 (one triangle class): eq cover of size {tri.k} -> orientation cover "
      f"of size {rotations.k}, valid: {verify_orientation_cover(k3, rotations) is None}")
