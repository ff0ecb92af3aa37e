"""Covering invariants of graphs and their line graphs.

Four covering numbers of a finite simple graph, with verifiable
certificates for every claim:

  - eq(L(G)): minimum equivalence subgraphs (disjoint unions of
    cliques) covering the edges of the line graph;
  - sigma(G): minimum orientations such that every two edges sharing a
    vertex point out of it together somewhere;
  - elb(G): minimum orientations leaving every 2-edge path non-directed
    somewhere;
  - eye(G): minimum vertex rankings placing, for every edge and third
    vertex, the third vertex outside the edge's rank interval
    somewhere.

The package provides the value types (graphs, colorings, covers; a
cover of k orientations is one k-bit word per edge, an eyebrow cover
k tuples of vertex ranks), verifiers returning self-certifying
violations, constructive conversions realizing the known inequalities
between the invariants, exact solvers for small instances, and
composed interval reports.
"""

from .bounds import AlonBounds, BoundsReport, alon_bounds, bounds_report
from .construct import (
    InvalidCoverError,
    bipartite_orientation_cover,
    coloring_from_elbow_cover,
    coloring_from_orientation_cover,
    cover_via_coloring,
    elbow_cover_complete,
    elbow_cover_via_coloring,
    elbow_double,
    eq_cover_from_orientation_cover,
    k4_elbow_base,
    k4_sigma3_cover,
    k16_table_cover,
    orientation_cover_from_elbow,
    orientation_cover_from_eq_cover,
    out_star_eq_cover,
)
from .covers import (
    CoverFormatError,
    EquivalenceCover,
    EyebrowCover,
    OrientationCover,
    Violation,
    parse_coloring,
    parse_cover,
    write_coloring,
    write_cover_for,
)
from .exact import (
    Budget,
    DecideResult,
    SolveResult,
    decide_elb,
    decide_eq,
    decide_eyebrow,
    decide_sigma,
    exact_chromatic,
    greedy_coloring,
    solve_invariant,
)
from .graphs import (
    Coloring,
    Graph,
    GraphFormatError,
    ImproperColoringError,
    NotBipartiteError,
    ShapeError,
    bipartition,
    find_triangle,
    generate_family,
    induced_subgraph,
    mycielskian,
    parse_graph,
    read_graph_file,
    write_graph,
    write_graph_file,
)
from .linegraph import LineGraphMap, line_graph
from .verify import (
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
)

__version__ = "0.1.0"

__all__ = [
    "AlonBounds",
    "BoundsReport",
    "Budget",
    "Coloring",
    "CoverFormatError",
    "DecideResult",
    "EquivalenceCover",
    "EyebrowCover",
    "Graph",
    "GraphFormatError",
    "ImproperColoringError",
    "InvalidCoverError",
    "LineGraphMap",
    "NotBipartiteError",
    "OrientationCover",
    "ShapeError",
    "SolveResult",
    "Violation",
    "alon_bounds",
    "bipartite_orientation_cover",
    "bipartition",
    "bounds_report",
    "coloring_from_elbow_cover",
    "coloring_from_orientation_cover",
    "cover_via_coloring",
    "decide_elb",
    "decide_eq",
    "decide_eyebrow",
    "decide_sigma",
    "elbow_cover_complete",
    "elbow_cover_via_coloring",
    "elbow_double",
    "eq_cover_from_orientation_cover",
    "exact_chromatic",
    "find_triangle",
    "generate_family",
    "greedy_coloring",
    "induced_subgraph",
    "k16_table_cover",
    "k4_elbow_base",
    "k4_sigma3_cover",
    "line_graph",
    "mycielskian",
    "orientation_cover_from_elbow",
    "orientation_cover_from_eq_cover",
    "out_star_eq_cover",
    "parse_coloring",
    "parse_cover",
    "parse_graph",
    "read_graph_file",
    "solve_invariant",
    "verify_elbow_cover",
    "verify_equivalence_cover",
    "verify_eyebrow_cover",
    "verify_orientation_cover",
    "write_coloring",
    "write_cover_for",
    "write_graph",
    "write_graph_file",
]
