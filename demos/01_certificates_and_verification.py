"""Certificates and their verification.

A covering claim is a set of orientations (one bit per orientation in
each edge's word), vertex rankings, or clique-partitions over one
reference graph.  The verifiers either
confirm the claim or return a self-certifying counterexample, so a
certificate file can be trusted end to end.

The centerpiece here is a hand-built table of five rankings of 16
vertices: their induced acyclic orientations cover every incidence pair
of K_16, which pins sigma(K_16) <= 5 (two better than the generic
doubling construction gives).
"""

from eqcover import (
    OrientationCover,
    generate_family,
    k16_table_cover,
    verify_orientation_cover,
    write_cover_for,
)

g16 = generate_family("complete", 16)
rankings, cover = k16_table_cover()

print("The five permutations (ranks of vertices 0..15):")
for i, ranks in enumerate(rankings, start=1):
    print(f"  pi_{i}: {list(ranks)}")

violation = verify_orientation_cover(g16, cover)
print(f"\nverify_orientation_cover(K16, table) -> {violation}  (None = valid)")
print(f"so sigma(K16) <= {cover.k}")

# Drop one orientation and the claim collapses; the verifier names the
# first incidence pair left uncovered.
broken = OrientationCover((16, 120), 4, [w & 0b1111 for w in cover.words])
violation = verify_orientation_cover(g16, broken)
print(f"\nwith only four of the five orientations: {violation.line()}")
print(f"witness rechecks in isolation: {violation.recheck(g16, broken)}")

# Certificates serialize to a line-oriented text format.
k3 = generate_family("complete", 3)
tiny = OrientationCover((3, 3), 1, [1, 1, 1])  # every edge low -> high
print("\nA cover file for one orientation of the triangle:")
print(write_cover_for(k3, tiny))
