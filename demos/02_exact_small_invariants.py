"""Exact values of the four covering invariants on small graphs.

The solvers decide "is there a covering of size k?" for k = 0, 1, 2, ...
by exhaustive backtracking, so every value below is exact and every SAT
answer carries a verified witness.  Two sandwich relations tie the
invariants together:

    elb(G) <= sigma(G) <= 2 elb(G)
    eq(L(G)) <= sigma(G) <= 3 eq(L(G))

and on triangle-free graphs the second collapses to equality.
"""

from eqcover import Graph, find_triangle, generate_family, line_graph, solve_invariant

GALLERY = [
    ("K3 (triangle)", generate_family("complete", 3)),
    ("K4", generate_family("complete", 4)),
    ("K5", generate_family("complete", 5)),
    ("C4", generate_family("cycle", 4)),
    ("C5", generate_family("cycle", 5)),
    ("C6", generate_family("cycle", 6)),
    ("path on 4", generate_family("path", 4)),
    ("star K_{1,5}", generate_family("star", 5)),
    ("triangle+pendant", generate_family("triangle-plus-pendant")),
    ("K_{2,3}", Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])),
    ("bull", Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])),
    ("2-edge matching", Graph(4, [(0, 1), (2, 3)])),
    ("Petersen", generate_family("petersen", 5)),
    ("Grotzsch (M4)", generate_family("mycielski-iterate", 4)),
]

header = f"{'graph':>18} | {'chi':>3} {'sigma':>5} {'elb':>3} {'eye':>3} {'eq(L)':>5} | tri-free"
print(header)
print("-" * len(header))
for name, g in GALLERY:
    chi = solve_invariant(g, "chi").value
    sigma = solve_invariant(g, "sigma").value
    elb = solve_invariant(g, "elb").value
    eye = solve_invariant(g, "eye").value
    eq_line = solve_invariant(line_graph(g).line, "eq").value if g.m else 0
    tf = find_triangle(g) is None
    print(
        f"{name:>18} | {chi:>3} {sigma:>5} {elb:>3} {eye:>3} {eq_line:>5} | {'yes' if tf else 'no'}"
    )
    assert elb <= sigma <= 2 * elb or sigma == elb == 0
    assert eq_line <= sigma <= 3 * eq_line or sigma == eq_line == 0
    if tf and g.m:
        assert eq_line == sigma

print("\nNote the triangle: eq(L(K3)) = 1 yet sigma(K3) = 3, and the")
print("pendant triangle: eq(L) = 2 versus sigma = 3 -- the two invariants")
print("genuinely differ on graphs with triangles.")
