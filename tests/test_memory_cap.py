"""Inputs past 256 vertices or colors, which the complete-graph bases
must handle without building a complete graph larger than the input:
squaring the K_256 elbow covering whole gives all 2.1e9 edges of
K_65536, and a pullback through an explicit K_c costs c^2/2 edges.
Each case runs in a child interpreter whose address space is capped, so
such a build fails there with MemoryError instead of filling the
machine; each of those cases needs less than a tenth of the cap.

The find-triangle case runs the triangle search on sparse graphs of
1e5 vertices.  The m13 case is the paper's certificate at full size:
the Mycielski iterate M13 (6143 vertices, 613,871 edges,
triangle-free) with its size-5 pullback cover, whose written text is
27.9 MB; the m13-text case reads both back from their texts."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

pytest.importorskip("resource")

CAP_BYTES = 512 << 20

PRELUDE = f"""
import resource
resource.setrlimit(resource.RLIMIT_AS, ({CAP_BYTES}, {CAP_BYTES}))
from eqcover import *
"""

CASES = {
    "bounds-K257": """
        g = generate_family("complete", 257)
        w = bounds_report(g).witnesses
        assert (w["sigma"].k, w["elb"].k) == (10, 5)
        assert verify_orientation_cover(g, w["sigma"]) is None
        assert verify_elbow_cover(g, w["elb"]) is None
    """,
    "solve-eye-path400": """
        from eqcover.exact import _upper_witness
        g = generate_family("path", 400)
        res = solve_invariant(g, "eye", Budget(max_nodes=1))
        assert verify_eyebrow_cover(g, res.witness) is None
        upper = _upper_witness(g, "eye")
        assert upper.k == 5 and verify_eyebrow_cover(g, upper) is None
    """,
    # eye <= 1 is decided in closed form, not from m(n-2) constraints
    "solve-eye-path2000": """
        g = generate_family("path", 2000)
        res = solve_invariant(g, "eye", Budget(max_nodes=1))
        assert (res.status, res.value, res.nodes) == ("exact", 1, 0)
        assert verify_eyebrow_cover(g, res.witness) is None
    """,
    # eye <= 2 on a bipartite graph is decided in closed form too
    "solve-eye-cycle1000": """
        g = generate_family("cycle", 1000)
        res = solve_invariant(g, "eye", Budget(max_nodes=1))
        assert (res.status, res.value, res.nodes) == ("exact", 2, 0)
        assert verify_eyebrow_cover(g, res.witness) is None
    """,
    # an odd cycle keeps the eyebrow search, which holds bitsets only of
    # the triples its current vertex completes: a list of all m(n - 2)
    # triples would take about 109 MB here
    "solve-eye-cycle1001": """
        g = generate_family("cycle", 1001)
        res = solve_invariant(g, "eye", Budget(max_nodes=1))
        assert (res.status, res.lo, res.hi) == ("bounded", 2, 5)
        assert verify_eyebrow_cover(g, res.witness) is None
        # the peak RSS of this process image: on Linux ru_maxrss also
        # keeps that of the test process this one was forked from
        with open("/proc/self/status") as fh:
            peak_kb = int(next(line for line in fh if line.startswith("VmHWM:")).split()[1])
        assert peak_kb < 64 << 10, peak_kb
    """,
    "elbow-complete-300": """
        cover = elbow_cover_complete(300)
        assert cover.k == 5
        assert verify_elbow_cover(generate_family("complete", 300), cover) is None
    """,
    "pullbacks-path3000": """
        g = generate_family("path", 3000)
        identity = Coloring(range(3000))
        sigma = cover_via_coloring(g, identity)
        elbow = elbow_cover_via_coloring(g, identity)
        assert (sigma.k, elbow.k) == (10, 5)
        assert verify_orientation_cover(g, sigma) is None
        assert verify_elbow_cover(g, elbow) is None
    """,
    # past K_65536 the squaring keeps only the first n entries of each
    # ranking, not all 2^32 of K_65536 squared
    "elbow-pullback-path70000": """
        g = generate_family("path", 70000)
        elbow = elbow_cover_via_coloring(g, Coloring(range(70000)))
        assert elbow.k == 6 and verify_elbow_cover(g, elbow) is None
    """,
    # find_triangle keeps O(n + m) memory on sparse graphs: int bitsets
    # of the neighbours above each vertex would take about n^2/15 bytes
    "find-triangle-sparse-100000": """
        import random
        assert find_triangle(generate_family("path", 100000)) is None
        assert find_triangle(generate_family("star", 100000)) is None
        rng = random.Random(7)
        g = Graph(100000, {tuple(sorted(rng.sample(range(100000), 2))) for _ in range(300000)})
        a, b, c = find_triangle(g)
        assert g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    """,
    "m13": """
        g = generate_family("mycielski-iterate", 13)
        assert find_triangle(g) is None
        cover = cover_via_coloring(g, greedy_coloring(g))
        assert cover.k == 5 and verify_orientation_cover(g, cover) is None
        assert parse_cover(write_cover_for(g, cover), g).words == cover.words
    """,
    # the same certificate read back through text: the parsed graph
    # keeps its body as the all-low arrow block, which the cover reader
    # and writer both use
    "m13-text": """
        g = generate_family("mycielski-iterate", 13)
        cover = cover_via_coloring(g, greedy_coloring(g))
        text = write_cover_for(g, cover)
        h = parse_graph(write_graph(g))
        assert h._arrows[0] is not None
        del g
        again = parse_cover(text, h)
        assert again.k == 5 and again.words == cover.words
        assert write_cover_for(h, again) == text
    """,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_large_input_fits_under_memory_cap(case):
    code = PRELUDE + textwrap.dedent(CASES[case])
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
