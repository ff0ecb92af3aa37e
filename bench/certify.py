"""certify: parse certificate files and check them, with no search.

Sparse planted-colouring graphs carry orientation covers (k=3 or 5,
pulled back from the K4 or K16 bases) and elbow covers (k=2 or 3);
line graphs carry equivalence covers; mid-size graphs carry eyebrow
covers; K64 and K96 carry elbow covers (k=4) and their reversal-doubled
orientation covers (k=8).  About a quarter of the certificates are
corrupted at one seeded spot, and the expected witness is derived here
from the covering definitions, not by the package.

Jobs rotate through four ways of reading a certificate: graph text
through parse_graph, an in-memory edge list through Graph, the text
path plus a write_cover_for write-back, and cli.main(["verify", ...]).
"""

from __future__ import annotations

import contextlib
import io
import os
import random
from typing import List

import numpy as np

from eqcover import (
    Graph,
    elbow_cover_complete,
    generate_family,
    k4_elbow_base,
    k4_sigma3_cover,
    k16_table_cover,
    line_graph,
    parse_cover,
    parse_graph,
    verify_elbow_cover,
    verify_equivalence_cover,
    verify_eyebrow_cover,
    verify_orientation_cover,
    write_cover_for,
)
from eqcover import cli

from gen import degrees, geometric, graph_text, incident, planted_graph
from harness import Job, Workload

VERIFIERS = {
    "orientation": verify_orientation_cover,
    "elbow": verify_elbow_cover,
    "eyebrow": verify_eyebrow_cover,
    "equivalence": verify_equivalence_cover,
}
VARIANTS = ("text", "edges", "writeback", "cli")


def _direction_table(g: Graph, cover) -> np.ndarray:
    """T[i, a, b] is True when orientation i directs edge ab as a -> b."""
    ends = np.array(g.edges, dtype=np.int64).reshape(-1, 2)
    table = np.zeros((cover.k, g.n, g.n), dtype=bool)
    for i, o in enumerate(cover.orientations):
        out_of_low = np.array(o.direction, dtype=np.int64) == 0
        table[i, ends[out_of_low, 0], ends[out_of_low, 1]] = True
        table[i, ends[~out_of_low, 1], ends[~out_of_low, 0]] = True
    return table


def _bases() -> dict:
    k4, k16 = generate_family("complete", 4), generate_family("complete", 16)
    k256 = generate_family("complete", 256)
    return {
        ("orientation", 4): _direction_table(k4, k4_sigma3_cover()),
        ("orientation", 16): _direction_table(k16, k16_table_cover()[1]),
        ("elbow", 4): _direction_table(k4, k4_elbow_base()),
        ("elbow", 16): _direction_table(k16, elbow_cover_complete(16)),
        "k256": _direction_table(k256, elbow_cover_complete(256)),
    }


def _orientation_text(kind: str, n: int, edges, fwd: np.ndarray) -> str:
    """Cover file for orientations given as fwd[i, e] = edge e runs low -> high."""
    fwd_lines = [f"{u} {v}" for u, v in edges]
    back_lines = [f"{v} {u}" for u, v in edges]
    lines = [f"cover {kind} {fwd.shape[0]} {n} {len(edges)}"]
    for i, row in enumerate(fwd.tolist(), start=1):
        lines.append(f"block {i}")
        lines.extend([a if x else b for a, b, x in zip(fwd_lines, back_lines, row)])
    return "\n".join(lines) + "\n"


def _middle_vertex(rng: random.Random, deg: List[int]) -> int:
    """A seeded vertex of degree >= 2 near the middle of the vertex range,
    so the verifier's scan up to the witness has a steady length."""
    n = len(deg)
    x = n // 2 + rng.randrange(-(n // 10), n // 10 + 1)
    while deg[x % n] < 2:
        x += 1
    return x % n


def _first_pair_violation(edges, inc, fwd, vertices, elbow: bool):
    """Lexicographically first violated incident pair at the given
    vertices, from the definitions: orientation covering needs some
    orientation directing both edges out of the vertex; elbow covering
    needs some orientation not traversing the 2-edge path."""
    k = fwd.shape[0]
    full = (1 << k) - 1
    low_word = (fwd.astype(np.int64) << np.arange(k)[:, None]).sum(axis=0).tolist()
    for x in sorted(vertices):
        es = inc[x]
        masks = [low_word[e] if edges[e][0] == x else full ^ low_word[e] for e in es]
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                a, b = masks[i], masks[j]
                if a & b == 0 and (not elbow or a | b == full):
                    return x, es[i], es[j]
    return None


def _corrupt_pairs(rng, kind, n, edges, fwd) -> str:
    """Break one vertex's pairs; return the expected witness line."""
    deg, inc = degrees(n, edges), incident(n, edges)
    x = _middle_vertex(rng, deg)

    def direct(e: int, out_of_x: bool) -> None:
        fwd[:, e] = (edges[e][0] == x) == out_of_x

    if kind == "orientation":
        e = rng.choice(inc[x])
        direct(e, False)  # never directed out of x
        changed = set(edges[e])
    else:
        e, f = rng.sample(inc[x], 2)
        direct(e, False)  # every orientation runs other(e) -> x -> other(f)
        direct(f, True)
        changed = set(edges[e]) | set(edges[f])
    v, e, f = _first_pair_violation(edges, inc, fwd, changed, kind == "elbow")
    if kind == "orientation":
        (a, b), (c, d) = edges[e], edges[f]
        return f"VIOLATION v={v} e=({a},{b}) f=({c},{d})"
    u = edges[e][0] + edges[e][1] - v
    w = edges[f][0] + edges[f][1] - v
    return f"VIOLATION path=({u},{v},{w})"


def _eyebrow_ranks(k256: np.ndarray, n: int) -> List[List[int]]:
    """Ranks on the first n vertices from the transitive tournaments of
    the K256 elbow covering (rank = n - 1 - out-degree)."""
    out = k256[:, :n, :n].sum(axis=2)
    ranks = (n - 1 - out).tolist()
    for r in ranks:
        if sorted(r) != list(range(n)):
            raise ValueError("K256 base orientation is not a transitive tournament")
    return ranks


def _corrupt_eyebrow(rng, n, edges, ranks) -> str:
    """Move one third vertex w between the ends of one edge in every
    permutation; return the expected witness line."""
    u, v = edges[len(edges) // 2 + rng.randrange(-(len(edges) // 10), len(edges) // 10 + 1)]
    w = rng.choice([x for x in range(n) if x not in (u, v)])
    for r in ranks:
        order = sorted(range(n), key=r.__getitem__)
        order.remove(w)
        first = min(order.index(u), order.index(v))
        order.insert(first + 1, w)
        for pos, x in enumerate(order):
            r[x] = pos
    # only relations involving w changed, so only they can fail
    for a, b in edges:
        for x in range(n) if w in (a, b) else (w,):
            if x in (a, b):
                continue
            if all(min(r[a], r[b]) < r[x] < max(r[a], r[b]) for r in ranks):
                return f"VIOLATION edge=({a},{b}) w={x}"
    raise AssertionError("eyebrow corruption left the cover valid")


def _eyebrow_text(n: int, m: int, ranks) -> str:
    lines = [f"cover eyebrow {len(ranks)} {n} {m}"]
    lines.extend("perm " + " ".join(map(str, r)) for r in ranks)
    return "\n".join(lines) + "\n"


def _equivalence_classes(n, edges, fwd) -> List[List[List[int]]]:
    """Analogue of each orientation on L(G): the out-edge set of every
    vertex with out-degree >= 1."""
    inc = incident(n, edges)
    subgraphs = []
    for row in fwd.tolist():
        classes = []
        for x in range(n):
            out = [e for e in inc[x] if row[e] == (edges[e][0] == x)]
            if out:
                classes.append(out)
        subgraphs.append(classes)
    return subgraphs


def _corrupt_equivalence(rng, subgraphs) -> str:
    """Put one vertex of L(G) into a second class of the middle subgraph."""
    s = len(subgraphs) // 2
    classes = subgraphs[s]
    c1, c2 = rng.sample(range(len(classes)), 2)
    x = rng.choice(classes[c1])
    classes[c2] = sorted(classes[c2] + [x])
    return f"VIOLATION subgraph={s} classes=({min(c1, c2)},{max(c1, c2)}) vertex={x}"


def _equivalence_text(n: int, m: int, subgraphs) -> str:
    lines = [f"cover equivalence {len(subgraphs)} {n} {m}"]
    for i, classes in enumerate(subgraphs, start=1):
        lines.append(f"block {i}")
        lines.extend("clique " + " ".join(map(str, cls)) for cls in classes)
    return "\n".join(lines) + "\n"


def _specs() -> List[tuple]:
    """(kind, family, n, c, variant, corrupt) for one pass.

    Within each kind the variants rotate and a quarter of the
    certificates are corrupted, spread over every variant and size;
    the kinds are then interleaved round-robin.
    """
    groups = [
        [("orientation", "sparse", n, (4, 16)[i % 2]) for i, n in enumerate(geometric(60, 600, 50))],
        [("elbow", "sparse", n, (4, 16)[i % 2]) for i, n in enumerate(geometric(60, 600, 30))],
        [("equivalence", "line", n, 4) for n in geometric(40, 300, 18)],
        [("eyebrow", "sparse", n, 4) for n in geometric(24, 96, 18)],
        # K128 and K256 (together half of a pass) are left out to keep
        # every job short
        [(kind, "complete", n, n) for n in (64, 96) for kind in ("elbow", "orientation")],
    ]
    groups = [
        [spec + (VARIANTS[i % 4], (i + i // 4) % 4 == 0) for i, spec in enumerate(group)]
        for group in groups
    ]
    specs = []
    while any(groups):
        for group in groups:
            if group:
                specs.append(group.pop(0))
    return specs


def _pullback(table: np.ndarray, edges, colours) -> np.ndarray:
    """fwd[i, e] for the orientations of a base K_c pulled back along a
    proper colouring: edge uv runs u -> v when c(u) -> c(v) in the base."""
    idx = np.array(edges, dtype=np.int64)
    col = np.array(colours, dtype=np.int64)
    return table[:, col[idx[:, 0]], col[idx[:, 1]]]


def _certificate(rng, bases, kind, family, n, c, corrupt):
    """(n, edges, cover text, k, expected witness line or None, incident
    pairs or None) of the graph the certificate refers to."""
    if family == "complete":
        edges, colours = [(a, b) for a in range(n) for b in range(a + 1, n)], range(n)
    else:
        edges, colours = planted_graph(rng, n, 3 * n, c, clique=c)
    expected = None
    if kind in ("orientation", "elbow"):
        if family == "complete":
            fwd = _pullback(bases["k256"], edges, colours)
            if kind == "orientation":  # reversal doubling
                fwd = np.concatenate([fwd, ~fwd])
        else:
            fwd = _pullback(bases[(kind, c)], edges, colours)
        if corrupt:
            expected = _corrupt_pairs(rng, kind, n, edges, fwd)
        pairs = sum(d * (d - 1) // 2 for d in degrees(n, edges))
        return n, edges, _orientation_text(kind, n, edges, fwd), fwd.shape[0], expected, pairs
    if kind == "eyebrow":
        ranks = _eyebrow_ranks(bases["k256"], n)
        if corrupt:
            expected = _corrupt_eyebrow(rng, n, edges, ranks)
        return n, edges, _eyebrow_text(n, len(edges), ranks), len(ranks), expected, None
    # equivalence cover of L(G): the analogues of G's K4-pulled orientation cover
    subgraphs = _equivalence_classes(n, edges, _pullback(bases[("orientation", 4)], edges, colours))
    if corrupt:
        expected = _corrupt_equivalence(rng, subgraphs)
    line = line_graph(Graph(n, edges)).line
    text = _equivalence_text(line.n, line.m, subgraphs)
    return line.n, list(line.edges), text, len(subgraphs), expected, None


def setup(seed: int, workdir: str, oracles) -> Workload:
    rng = random.Random(seed)
    bases = _bases()
    jobs: List[Job] = []
    total_bytes = corrupted = 0
    sizes = []
    for pos, (kind, family, n, c, variant, corrupt) in enumerate(_specs()):
        n, edges, cover_text, k, expected, pairs = _certificate(rng, bases, kind, family, n, c, corrupt)
        gtext = graph_text(n, edges)
        job_id = f"{pos:03d}-{kind}-{family}-n{n}-k{k}-{variant}" + ("-bad" if corrupt else "")
        gpath = os.path.join(workdir, f"{job_id}.g")
        cpath = os.path.join(workdir, f"{job_id}.cov")
        for path, text in ((gpath, gtext), (cpath, cover_text)):
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        total_bytes += len(gtext) + len(cover_text)
        corrupted += corrupt
        sizes.append((n, len(edges), k, len(gtext) + len(cover_text)))
        jobs.append(
            _job(job_id, variant, kind, k, n, edges, gpath, cpath, cover_text, expected, pairs)
        )
    summary = {
        "jobs": len(jobs),
        "corrupted": corrupted,
        "n": f"{min(s[0] for s in sizes)}..{max(s[0] for s in sizes)}",
        "m": f"{min(s[1] for s in sizes)}..{max(s[1] for s in sizes)}",
        "k": f"{min(s[2] for s in sizes)}..{max(s[2] for s in sizes)}",
        "text_MB": round(total_bytes / 1e6, 2),
    }
    by_size = sorted(range(len(jobs)), key=lambda i: sizes[i][3])
    return Workload(jobs, [jobs[i] for i in by_size[:4]], summary)


def _job(job_id, variant, kind, k, n, edges, gpath, cpath, cover_text, expected, pairs) -> Job:
    verifier = VERIFIERS[kind]
    span_name = f"verify.{kind}"

    def run(tr):
        if variant == "cli":
            buf = io.StringIO()
            with tr.span("cli.verify") as counts, contextlib.redirect_stdout(buf):
                rc = cli.main(["verify", "--kind", kind, "--graph", gpath, "--cover", cpath])
            counts["violations"] = int(rc == 1)
            return rc, buf.getvalue()
        if variant == "edges":
            with tr.span("graphs.Graph"):
                g = Graph(n, edges)
        else:
            with open(gpath, encoding="utf-8") as fh:
                gtext = fh.read()
            with tr.span("graphs.parse_graph", bytes=len(gtext)):
                g = parse_graph(gtext)
        with open(cpath, encoding="utf-8") as fh:
            ctext = fh.read()
        with tr.span("covers.parse_cover", bytes=len(ctext)):
            cover = parse_cover(ctext, g)
        with tr.span(span_name) as counts:
            violation = verifier(g, cover)
        if violation is not None:
            counts["violations"] = 1
        elif pairs is not None:
            counts["pairs"] = pairs
        written = None
        if variant == "writeback" and violation is None:
            with tr.span("covers.write_cover_for") as counts:
                written = write_cover_for(g, cover)
            counts["bytes"] = len(written)
            with open(cpath + ".out", "w", encoding="utf-8", newline="\n") as fh:
                fh.write(written)
        return violation, g, cover, written

    def check(out, full):
        if variant == "cli":
            rc, stdout = out
            want = (0, f"VALID k={k}\n") if expected is None else (1, expected + "\n")
            return None if (rc, stdout) == want else f"cli gave {rc} {stdout!r}, expected {want}"
        violation, g, cover, written = out
        if expected is None:
            if violation is not None:
                return f"valid cover rejected: {violation.line()}"
            if written is not None and written != cover_text:
                return "write_cover_for output differs from the file read"
            return None
        if violation is None:
            return "corrupted cover accepted"
        if violation.line() != expected:
            return f"witness {violation.line()!r}, expected {expected!r}"
        return None if violation.recheck(g, cover) else "witness fails Violation.recheck"

    return Job(job_id, run, check)
