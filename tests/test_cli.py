import json
import time

import pytest

from eqcover import read_graph_file
from eqcover.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_verify_k16_table(tmp_path, capsys):
    g16 = tmp_path / "k16.g"
    cov = tmp_path / "k16.cov"
    code, out, err = run(capsys, "gen", "--family", "complete", "--parameter", "16", "--output", str(g16))
    assert code == 0 and err == ""
    code, out, err = run(capsys, "construct", "--op", "k16-table", "--output", str(cov))
    assert code == 0
    code, out, err = run(capsys, "verify", "--kind", "orientation", "--graph", str(g16), "--cover", str(cov))
    assert code == 0
    assert out == "VALID k=5\n"


def test_solve_sigma_k4(tmp_path, capsys):
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    witness = tmp_path / "k4.sigma.cov"
    code, out, err = run(capsys, "solve", "--invariant", "sigma", "--graph", str(g4))
    assert code == 0
    assert out == "sigma = 3\n"
    assert witness.exists()
    code, out, err = run(capsys, "verify", "--kind", "orientation", "--graph", str(g4), "--cover", str(witness))
    assert code == 0


def test_verify_violation_line(tmp_path, capsys):
    g3 = tmp_path / "k3.g"
    g3.write_text("p 3 3\n0 1\n0 2\n1 2\n")
    cov = tmp_path / "two.cov"
    # both orientations point edges at vertex 0 inward
    cov.write_text(
        "cover orientation 2 3 3\n"
        "block 1\n1 0\n2 0\n1 2\n"
        "block 2\n1 0\n2 0\n2 1\n"
    )
    code, out, err = run(capsys, "verify", "--kind", "orientation", "--graph", str(g3), "--cover", str(cov))
    assert code == 1
    assert out == "VIOLATION v=0 e=(0,1) f=(0,2)\n"
    code, out, err = run(
        capsys, "verify", "--kind", "orientation", "--graph", str(g3), "--cover", str(cov), "--json"
    )
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "status": "violation", "kind": "orientation", "witness": "VIOLATION v=0 e=(0,1) f=(0,2)"
    }


def test_solve_budget_exit_code(tmp_path, capsys):
    g5 = tmp_path / "k5.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "5", "--output", str(g5))
    code, out, err = run(capsys, "solve", "--invariant", "sigma", "--graph", str(g5), "--max-nodes", "10")
    assert code == 3
    assert out.startswith("sigma in [")


def test_solve_closed_interval_exits_0(tmp_path, capsys):
    # k = 0..2 are refuted within 20 nodes and the constructive cover has
    # size 3, so the answer is exact without deciding k = 3
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    code, out, err = run(capsys, "solve", "--invariant", "sigma", "--graph", str(g4), "--max-nodes", "20")
    assert code == 0
    assert out == "sigma = 3\n"


def test_malformed_graph_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.g"
    bad.write_text("p 3 1\n2 1\n")
    code, out, err = run(capsys, "verify", "--kind", "orientation", "--graph", str(bad), "--cover", str(bad))
    assert code == 2
    assert "line 2" in err
    assert out == ""


def test_malformed_flags_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "solve", "--invariant", "girth", "--graph", "x.g")
    assert code == 2


def test_unknown_family_exits_2(tmp_path, capsys):
    out_path = tmp_path / "g.g"
    code, out, err = run(capsys, "gen", "--family", "hypercube", "--parameter", "3", "--output", str(out_path))
    assert code == 2
    assert not out_path.exists()


def test_gen_triangle_plus_pendant_no_parameter(tmp_path, capsys):
    path = tmp_path / "tp.g"
    code, out, err = run(capsys, "gen", "--family", "triangle-plus-pendant", "--output", str(path))
    assert code == 0
    g = read_graph_file(str(path))
    assert g.edges == ((0, 1), (0, 2), (1, 2), (2, 3))


def test_linegraph_sidecar(tmp_path, capsys):
    g = tmp_path / "p3.g"
    run(capsys, "gen", "--family", "path", "--parameter", "3", "--output", str(g))
    out_path = tmp_path / "lp3.g"
    code, _, _ = run(capsys, "linegraph", "--graph", str(g), "--output", str(out_path))
    assert code == 0
    line = read_graph_file(str(out_path))
    assert (line.n, line.m) == (2, 1)
    sidecar = (tmp_path / "lp3.g.index").read_text()
    assert sidecar == "0 0 1\n1 1 2\n"


def test_eq_round_trip_via_files(tmp_path, capsys):
    g = tmp_path / "c5.g"
    run(capsys, "gen", "--family", "cycle", "--parameter", "5", "--output", str(g))
    sigma_cov = tmp_path / "c5.sigma.cov"
    run(capsys, "solve", "--invariant", "sigma", "--graph", str(g), "--output", str(sigma_cov))
    eq_cov = tmp_path / "c5.eq.cov"
    code, _, _ = run(
        capsys, "construct", "--op", "eq-from-orientation",
        "--graph", str(g), "--cover", str(sigma_cov), "--output", str(eq_cov),
    )
    assert code == 0
    lg = tmp_path / "lc5.g"
    run(capsys, "linegraph", "--graph", str(g), "--output", str(lg))
    code, out, _ = run(capsys, "verify", "--kind", "equivalence", "--graph", str(lg), "--cover", str(eq_cov))
    assert code == 0 and out == "VALID k=3\n"
    back = tmp_path / "back.cov"
    code, _, _ = run(
        capsys, "construct", "--op", "orientation-from-eq",
        "--graph", str(g), "--cover", str(eq_cov), "--output", str(back),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--kind", "orientation", "--graph", str(g), "--cover", str(back))
    assert code == 0 and out == "VALID k=3\n"  # triangle-free: size preserved
    code, _, err = run(
        capsys, "construct", "--op", "orientation-from-eq", "--triangle-free",
        "--graph", str(g), "--cover", str(eq_cov), "--output", str(back),
    )
    assert code == 2 and "--triangle-free" in err


def test_construct_invalid_cover_exits_1(tmp_path, capsys):
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    bad = tmp_path / "bad.cov"
    bad.write_text(
        "cover elbow 1 4 6\n"
        "block 1\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
    )
    out_path = tmp_path / "never.cov"
    code, out, err = run(
        capsys, "construct", "--op", "orientation-from-elbow",
        "--graph", str(g4), "--cover", str(bad), "--output", str(out_path),
    )
    assert code == 1
    assert out.startswith("VIOLATION path=")
    assert not out_path.exists()


def test_construct_not_bipartite_exits_2(tmp_path, capsys):
    g3 = tmp_path / "k3.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "3", "--output", str(g3))
    code, out, err = run(
        capsys, "construct", "--op", "bipartite", "--graph", str(g3),
        "--output", str(tmp_path / "never.cov"),
    )
    assert code == 2
    assert "odd cycle" in err


def test_bounds_text_and_json(tmp_path, capsys):
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    code, out, err = run(capsys, "bounds", "--graph", str(g4))
    assert code == 0
    assert "chi: 4 [exact search]" in out
    assert "sigma: 3" in out
    code, out, err = run(capsys, "bounds", "--graph", str(g4), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma"]["lo"] == 3 and payload["sigma"]["exact"]


def test_bounds_witness_dir(tmp_path, capsys):
    g5 = tmp_path / "k5.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "5", "--output", str(g5))
    wdir = tmp_path / "w"
    code, out, err = run(capsys, "bounds", "--graph", str(g5), "--witness-dir", str(wdir))
    assert code == 0
    assert (wdir / "sigma.cov").exists()
    assert (wdir / "chi.col").exists()
    assert "sigma_witness_file:" in out
    code, _, _ = run(capsys, "verify", "--kind", "orientation", "--graph", str(g5), "--cover", str(wdir / "sigma.cov"))
    assert code == 0


def test_outputs_byte_identical(tmp_path, capsys):
    g = tmp_path / "tp.g"
    run(capsys, "gen", "--family", "triangle-plus-pendant", "--output", str(g))
    _, out1, _ = run(capsys, "bounds", "--graph", str(g), "--json")
    _, out2, _ = run(capsys, "bounds", "--graph", str(g), "--json")
    assert out1 == out2
    cov1 = tmp_path / "a.cov"
    cov2 = tmp_path / "b.cov"
    run(capsys, "construct", "--op", "via-coloring", "--graph", str(g), "--output", str(cov1))
    run(capsys, "construct", "--op", "via-coloring", "--graph", str(g), "--output", str(cov2))
    assert cov1.read_bytes() == cov2.read_bytes()


def test_workers_flag_rejected(tmp_path, capsys):
    g = tmp_path / "c4.g"
    run(capsys, "gen", "--family", "cycle", "--parameter", "4", "--output", str(g))
    cov = tmp_path / "c4.cov"
    run(capsys, "construct", "--op", "bipartite", "--graph", str(g), "--output", str(cov))
    code, out, err = run(
        capsys, "verify", "--kind", "orientation", "--graph", str(g),
        "--cover", str(cov), "--workers", "4",
    )
    assert code == 2 and out == ""
    assert "--workers" in err


@pytest.mark.parametrize("exc", [AssertionError("broken invariant"), RecursionError("too deep")])
def test_unexpected_exception_exits_4(tmp_path, capsys, monkeypatch, exc):
    from eqcover.covers import OrientationCover
    from eqcover.verify import VERIFIERS

    g = tmp_path / "c4.g"
    run(capsys, "gen", "--family", "cycle", "--parameter", "4", "--output", str(g))
    cov = tmp_path / "c4.cov"
    run(capsys, "construct", "--op", "bipartite", "--graph", str(g), "--output", str(cov))

    def boom(graph, cover):
        raise exc

    monkeypatch.setitem(VERIFIERS, "orientation", (OrientationCover, boom))
    code, out, err = run(
        capsys, "verify", "--kind", "orientation", "--graph", str(g), "--cover", str(cov)
    )
    assert code == 4 and out == ""
    assert err == f"error: internal: {type(exc).__name__}: {exc}\n"


def test_solve_json(tmp_path, capsys):
    g = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g))
    code, out, _ = run(capsys, "solve", "--invariant", "elb", "--graph", str(g), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["status"] == "exact"


def test_elbow_complete_and_double_files(tmp_path, capsys):
    cov4 = tmp_path / "k4.elb.cov"
    code, _, _ = run(capsys, "construct", "--op", "elbow-complete", "--n", "4", "--output", str(cov4))
    assert code == 0
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    code, out, _ = run(capsys, "verify", "--kind", "elbow", "--graph", str(g4), "--cover", str(cov4))
    assert code == 0 and out == "VALID k=2\n"
    big = tmp_path / "k16.elb.cov"
    gbig = tmp_path / "k16.g"
    code, _, _ = run(
        capsys, "construct", "--op", "elbow-double", "--graph", str(g4),
        "--cover", str(cov4), "--output", str(big), "--graph-output", str(gbig),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify", "--kind", "elbow", "--graph", str(gbig), "--cover", str(big))
    assert code == 0 and out == "VALID k=3\n"


def test_elbow_double_refuses_a_square_over_the_edge_limit_at_once(tmp_path, capsys):
    g82, cov82 = tmp_path / "k82.g", tmp_path / "k82.cov"
    run(capsys, "gen", "--family", "complete", "--parameter", "82", "--output", str(g82))
    run(capsys, "construct", "--op", "elbow-complete", "--n", "82", "--output", str(cov82))
    big, gbig = tmp_path / "k6724.cov", tmp_path / "k6724.g"
    start = time.perf_counter()
    got = run(
        capsys, "construct", "--op", "elbow-double", "--graph", str(g82),
        "--cover", str(cov82), "--output", str(big), "--graph-output", str(gbig),
    )
    # refused before K6724, 22.6M edges, is built
    assert time.perf_counter() - start < 10
    assert got == (
        2, "", "error: complete graph on 6724 vertices would have 22602726 edges, more than 2097152\n"
    )
    assert not big.exists() and not gbig.exists()


def test_coloring_from_elbow_file(tmp_path, capsys):
    g4 = tmp_path / "k4.g"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    cov = tmp_path / "k4.elb.cov"
    run(capsys, "construct", "--op", "elbow-complete", "--n", "4", "--output", str(cov))
    col = tmp_path / "k4.col"
    code, _, _ = run(
        capsys, "construct", "--op", "coloring-from-elbow",
        "--graph", str(g4), "--cover", str(cov), "--output", str(col),
    )
    assert code == 0
    from eqcover import parse_coloring

    coloring = parse_coloring(col.read_text(), 4)
    assert coloring.palette_size == 4


def test_construct_missing_required_flags_exit_2(tmp_path, capsys):
    code, out, err = run(capsys, "construct", "--op", "bipartite", "--output", str(tmp_path / "x.cov"))
    assert code == 2
    assert "requires --graph" in err
    code, out, err = run(capsys, "construct", "--op", "elbow-double", "--graph", str(tmp_path / "g.g"), "--output", str(tmp_path / "x.cov"))
    assert code == 2
    assert "requires --cover" in err
    code, out, err = run(capsys, "construct", "--op", "elbow-complete", "--output", str(tmp_path / "x.cov"))
    assert code == 2
    assert "requires --n" in err


def test_public_api_all_resolves():
    import types

    import eqcover

    missing = [name for name in eqcover.__all__ if not hasattr(eqcover, name)]
    assert missing == []
    # a stale export fails, and so does a name imported but not listed
    bound = {
        name
        for name, value in vars(eqcover).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(eqcover.__all__) == sorted(bound)


def test_solve_eq_and_eye_write_witness_files(tmp_path, capsys):
    g = tmp_path / "tpp.g"
    run(capsys, "gen", "--family", "triangle-plus-pendant", "--output", str(g))
    lg = tmp_path / "ltpp.g"
    run(capsys, "linegraph", "--graph", str(g), "--output", str(lg))
    code, out, _ = run(capsys, "solve", "--invariant", "eq", "--graph", str(lg))
    assert code == 0 and out == "eq = 2\n"
    code, out, _ = run(
        capsys, "verify", "--kind", "equivalence", "--graph", str(lg),
        "--cover", str(tmp_path / "ltpp.eq.cov"),
    )
    assert code == 0 and out == "VALID k=2\n"
    code, out, _ = run(capsys, "solve", "--invariant", "eye", "--graph", str(g))
    assert code == 0 and out == "eye = 2\n"
    code, out, _ = run(
        capsys, "verify", "--kind", "eyebrow", "--graph", str(g),
        "--cover", str(tmp_path / "tpp.eye.cov"),
    )
    assert code == 0 and out == "VALID k=2\n"


@pytest.mark.parametrize(
    "family, parameter, invariant, kind, value",
    [
        ("cycle", "1501", "sigma", "orientation", 3),
        ("path", "1500", "eq", "equivalence", 2),
    ],
)
def test_solve_deeper_than_the_recursion_limit(tmp_path, capsys, family, parameter, invariant, kind, value):
    graph = tmp_path / f"{family}.g"
    run(capsys, "gen", "--family", family, "--parameter", parameter, "--output", str(graph))
    code, out, err = run(capsys, "solve", "--invariant", invariant, "--graph", str(graph))
    assert (code, out, err) == (0, f"{invariant} = {value}\n", "")
    witness = tmp_path / f"{family}.{invariant}.cov"
    code, out, err = run(capsys, "verify", "--kind", kind, "--graph", str(graph), "--cover", str(witness))
    assert code == 0


def test_bounds_deeper_than_the_recursion_limit(tmp_path, capsys):
    # the chromatic search in the report runs one level per vertex
    graph = tmp_path / "cycle.g"
    run(capsys, "gen", "--family", "cycle", "--parameter", "1001", "--output", str(graph))
    code, out, err = run(capsys, "bounds", "--graph", str(graph))
    assert (code, err) == (0, "")
    assert "\nchi: 3 [exact search]\n" in out


def test_parser_built_once_gives_fresh_parser_results(tmp_path, capsys):
    from eqcover import cli, generate_family, k4_sigma3_cover, write_cover_for

    g4, cov = tmp_path / "k4.g", tmp_path / "k4.cov"
    run(capsys, "gen", "--family", "complete", "--parameter", "4", "--output", str(g4))
    cov.write_text(write_cover_for(generate_family("complete", 4), k4_sigma3_cover()))
    files = ["--graph", str(g4), "--cover", str(cov)]
    calls = [
        ["verify", "--kind", "orientation", *files, "--json"],
        ["verify", "--kind", "elbow", *files],
        ["verify", "--kind", "sideways", *files],
        ["solve", "--invariant", "sigma", "--graph", str(g4), "--output", str(tmp_path / "w.cov")],
    ]
    cli._build_parser.cache_clear()
    reused = [run(capsys, *argv) for argv in calls]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert json.loads(reused[0][1]) == {"status": "valid", "kind": "orientation", "k": 3}
    assert reused[1][1] == "VALID k=3\n"
    assert "invalid choice: 'sideways'" in reused[2][2]
    assert reused[3][1] == "sigma = 3\n"


# One file per cover kind over K4, valid and corrupted; every --kind reads
# each of them, and a file of the wrong cover type exits 2
_K4_COVER_FILES = {
    "orientation": (
        "cover orientation 3 4 6\nblock 1\n0 1\n0 2\n0 3\n2 1\n3 1\n2 3\n"
        "block 2\n1 0\n2 0\n3 0\n1 2\n1 3\n2 3\nblock 3\n1 0\n2 0\n3 0\n2 1\n3 1\n3 2\n"
    ),
    "orientation-bad": (
        "cover orientation 3 4 6\nblock 1\n0 1\n0 2\n0 3\n2 1\n3 1\n2 3\n"
        "block 2\n1 0\n2 0\n3 0\n1 2\n1 3\n2 3\nblock 3\n1 0\n2 0\n3 0\n2 1\n3 1\n2 3\n"
    ),
    "elbow": (
        "cover elbow 2 4 6\nblock 1\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"
        "block 2\n0 1\n2 0\n0 3\n2 1\n3 1\n2 3\n"
    ),
    "elbow-bad": "cover elbow 1 4 6\nblock 1\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n",
    "eyebrow": "cover eyebrow 2 4 6\nperm 0 1 2 3\nperm 1 0 3 2\n",
    "eyebrow-bad": "cover eyebrow 1 4 6\nperm 0 1 2 3\n",
    "equivalence": "cover equivalence 1 4 6\nblock 1\nclique 0 1 2 3\n",
    "equivalence-bad": "cover equivalence 2 4 6\nblock 1\nclique 0 1 2\nblock 2\nclique 2 3\n",
}


@pytest.mark.parametrize(
    "name, kind, code, want",
    [
        ("orientation", "orientation", 0, "VALID k=3\n"),
        ("orientation", "elbow", 0, "VALID k=3\n"),
        ("orientation", "eyebrow", 2, ""),
        ("orientation", "equivalence", 2, ""),
        ("orientation-bad", "orientation", 1, "VIOLATION v=3 e=(0,3) f=(2,3)\n"),
        ("orientation-bad", "elbow", 0, "VALID k=3\n"),
        ("orientation-bad", "eyebrow", 2, ""),
        ("orientation-bad", "equivalence", 2, ""),
        ("elbow", "orientation", 1, "VIOLATION v=1 e=(0,1) f=(1,2)\n"),
        ("elbow", "elbow", 0, "VALID k=2\n"),
        ("elbow", "eyebrow", 2, ""),
        ("elbow", "equivalence", 2, ""),
        ("elbow-bad", "orientation", 1, "VIOLATION v=1 e=(0,1) f=(1,2)\n"),
        ("elbow-bad", "elbow", 1, "VIOLATION path=(0,1,2)\n"),
        ("elbow-bad", "eyebrow", 2, ""),
        ("elbow-bad", "equivalence", 2, ""),
        ("eyebrow", "orientation", 2, ""),
        ("eyebrow", "elbow", 2, ""),
        ("eyebrow", "eyebrow", 0, "VALID k=2\n"),
        ("eyebrow", "equivalence", 2, ""),
        ("eyebrow-bad", "orientation", 2, ""),
        ("eyebrow-bad", "elbow", 2, ""),
        ("eyebrow-bad", "eyebrow", 1, "VIOLATION edge=(0,2) w=1\n"),
        ("eyebrow-bad", "equivalence", 2, ""),
        ("equivalence", "orientation", 2, ""),
        ("equivalence", "elbow", 2, ""),
        ("equivalence", "eyebrow", 2, ""),
        ("equivalence", "equivalence", 0, "VALID k=1\n"),
        ("equivalence-bad", "orientation", 2, ""),
        ("equivalence-bad", "elbow", 2, ""),
        ("equivalence-bad", "eyebrow", 2, ""),
        ("equivalence-bad", "equivalence", 1, "VIOLATION uncovered=(0,3)\n"),
    ],
)
def test_verify_every_kind_on_every_cover_file(tmp_path, capsys, name, kind, code, want):
    g = tmp_path / "k4.g"
    g.write_text("p 4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    cov = tmp_path / "k4.cov"
    cov.write_text(_K4_COVER_FILES[name])
    got = run(capsys, "verify", "--kind", kind, "--graph", str(g), "--cover", str(cov))
    assert got[:2] == (code, want)
    if code == 2:
        tag = name.split("-")[0]
        assert got[2] == f"error: cover file holds an {tag} cover, not an {kind} cover\n"
    else:
        assert got[2] == ""


@pytest.mark.parametrize(
    "op, kind",
    [
        ("elbow-double", "elbow"),
        ("eq-from-orientation", "orientation"),
        ("orientation-from-eq", "equivalence"),
        ("orientation-from-elbow", "elbow"),
        ("coloring-from-elbow", "elbow"),
        ("coloring-from-orientation", "orientation"),
    ],
)
def test_construct_refuses_a_cover_of_another_class(tmp_path, capsys, op, kind):
    # the class rule of verify --kind: a cover of any class its kind's
    # verifier does not read exits 2 and writes nothing
    from eqcover import (
        EquivalenceCover,
        EyebrowCover,
        OrientationCover,
        generate_family,
        line_graph,
        write_cover_for,
        write_graph_file,
    )

    g = generate_family("complete", 4)
    ref = line_graph(g).line if op == "orientation-from-eq" else g
    covers = {
        "orientation": OrientationCover((ref.n, ref.m), 1, [0] * ref.m),
        "eyebrow": EyebrowCover(ref.n, [range(ref.n)]),
        "equivalence": EquivalenceCover(ref.n, [[e] for e in ref.edges]),
    }
    gpath, cpath = tmp_path / "k4.g", tmp_path / "wrong.cov"
    out_path, big = tmp_path / "never.out", tmp_path / "never.g"
    write_graph_file(str(gpath), g)
    extra = ["--graph-output", str(big)] if op == "elbow-double" else []
    # an orientation file serves the elbow ops, as in verify
    refused = ("orientation", "eyebrow") if kind == "equivalence" else ("eyebrow", "equivalence")
    for name in refused:
        cpath.write_text(write_cover_for(ref, covers[name]))
        code, out, err = run(
            capsys, "construct", "--op", op, "--graph", str(gpath), "--cover", str(cpath),
            "--output", str(out_path), *extra,
        )
        assert (code, out) == (2, ""), name
        assert err == f"error: cover file holds an {name} cover, not an {kind} cover\n"
        assert not out_path.exists() and not big.exists()


def test_construct_elbow_ops_read_an_orientation_file(tmp_path, capsys):
    # every orientation covering is an elbow covering, and verify --kind
    # elbow accepts the file, so the elbow ops do too
    from eqcover import generate_family, k4_sigma3_cover, write_cover_for, write_graph_file

    g = generate_family("complete", 4)
    gpath, cpath, out_path = tmp_path / "k4.g", tmp_path / "k4.cov", tmp_path / "k4.col"
    write_graph_file(str(gpath), g)
    cpath.write_text(write_cover_for(g, k4_sigma3_cover()))
    code, out, err = run(
        capsys, "construct", "--op", "coloring-from-elbow", "--graph", str(gpath),
        "--cover", str(cpath), "--output", str(out_path),
    )
    assert (code, out, err) == (0, f"WROTE {out_path}\n", "")


def test_construct_via_coloring_out_of_budget_exits_2(tmp_path, capsys):
    # the exact chromatic search stops at its first node on the Groetzsch
    # graph (chi 4, greedy 4, clique 2), so no coloring is pulled back
    g = tmp_path / "m4.g"
    run(capsys, "gen", "--family", "mycielski-iterate", "--parameter", "4", "--output", str(g))
    out_path = tmp_path / "never.cov"
    code, out, err = run(
        capsys, "construct", "--op", "via-coloring", "--graph", str(g),
        "--max-nodes", "1", "--output", str(out_path),
    )
    assert code == 2 and out == ""
    assert err == "error: chromatic search ran out of budget; pass --greedy or --coloring\n"
    assert not out_path.exists()
    code, out, _ = run(
        capsys, "construct", "--op", "via-coloring", "--graph", str(g),
        "--greedy", "--output", str(out_path),
    )
    assert code == 0 and out == f"WROTE {out_path}\n"
    code, out, _ = run(capsys, "verify", "--kind", "orientation", "--graph", str(g), "--cover", str(out_path))
    assert code == 0 and out == "VALID k=3\n"


@pytest.mark.parametrize("limit", [["--max-nodes", "-1"], ["--max-seconds", "-1"], ["--max-seconds", "nan"]])
def test_budget_verbs_refuse_a_negative_or_nan_limit(tmp_path, capsys, limit):
    # the parent printed "chi in [2, 4]" and exited 3 for --max-nodes -1
    g = tmp_path / "m4.g"
    run(capsys, "gen", "--family", "mycielski-iterate", "--parameter", "4", "--output", str(g))
    out_path = tmp_path / "never.out"
    witnesses = tmp_path / "witnesses"
    for argv in [
        ["solve", "--invariant", "chi", "--graph", str(g), "--output", str(out_path)],
        ["construct", "--op", "via-coloring", "--graph", str(g), "--output", str(out_path)],
        ["bounds", "--graph", str(g), "--witness-dir", str(witnesses)],
    ]:
        code, out, err = run(capsys, *argv, *limit)
        assert (code, out) == (2, ""), argv
        name = limit[0][2:].replace("-", "_")
        assert err.startswith(f"error: {name} must be >= 0, got "), err
        assert not out_path.exists() and not witnesses.exists()


@pytest.mark.parametrize(
    "source,unread",
    [
        (["--coloring", "COL"], ["--greedy"]),
        (["--coloring", "COL"], ["--max-nodes", "1"]),
        (["--coloring", "COL"], ["--max-seconds", "1"]),
        (["--coloring", "COL"], ["--greedy", "--max-nodes", "1"]),
        (["--greedy"], ["--max-nodes", "1"]),
        (["--greedy"], ["--max-seconds", "1"]),
    ],
)
def test_via_coloring_refuses_the_flags_its_coloring_source_does_not_read(
    tmp_path, capsys, source, unread
):
    # a coloring file is read in place of --greedy, and neither takes a
    # search budget; a refused flag exits 2 and writes nothing
    g, col, out_path = tmp_path / "p.g", tmp_path / "p.col", tmp_path / "never.cov"
    run(capsys, "gen", "--family", "petersen", "--parameter", "5", "--output", str(g))
    col.write_text("".join(f"{v} {c}\n" for v, c in enumerate((0, 1, 0, 1, 2, 1, 2, 2, 0, 0))))
    argv = [str(col) if a == "COL" else a for a in source + unread]
    code, out, err = run(
        capsys, "construct", "--op", "via-coloring", "--graph", str(g), *argv,
        "--output", str(out_path),
    )
    assert code == 2 and out == ""
    assert err == f"error: construct --op via-coloring with {source[0]} does not read {unread[0]}\n"
    assert not out_path.exists()
    code, out, _ = run(
        capsys, "construct", "--op", "via-coloring", "--graph", str(g), *argv[: len(source)],
        "--output", str(out_path),
    )
    assert code == 0 and out == f"WROTE {out_path}\n"


@pytest.mark.parametrize(
    "op,given,unread",
    [
        ("bipartite", ["--graph", "G"], ["--greedy"]),
        ("bipartite", ["--graph", "G"], ["--n", "7"]),
        ("bipartite", ["--graph", "G"], ["--perms-output", "P"]),
        ("bipartite", ["--graph", "G"], ["--max-nodes", "3"]),
        ("bipartite", ["--graph", "G"], ["--coloring", "nofile"]),
        ("bipartite", ["--graph", "G"], ["--cover", "nofile"]),
        ("k16-table", [], ["--graph", "G"]),
        ("k16-table", [], ["--graph-output", "P"]),
        ("elbow-complete", ["--n", "4"], ["--max-seconds", "1"]),
        ("elbow-double", ["--graph", "G", "--cover", "C"], ["--perms-output", "P"]),
        ("via-coloring", ["--graph", "G"], ["--cover", "C"]),
        ("eq-from-orientation", ["--graph", "G", "--cover", "C"], ["--greedy"]),
        ("coloring-from-elbow", ["--graph", "G", "--cover", "C"], ["--max-nodes", "0"]),
    ],
)
def test_construct_refuses_flags_its_op_does_not_read(tmp_path, capsys, op, given, unread):
    files = {"G": tmp_path / "c4.g", "C": tmp_path / "c4.cov", "P": tmp_path / "extra"}
    run(capsys, "gen", "--family", "cycle", "--parameter", "4", "--output", str(files["G"]))
    run(capsys, "construct", "--op", "bipartite", "--graph", str(files["G"]), "--output", str(files["C"]))
    out_path = tmp_path / "never.out"
    argv = [str(files.get(a, a)) for a in given + unread]
    code, out, err = run(capsys, "construct", "--op", op, *argv, "--output", str(out_path))
    assert code == 2 and out == ""
    assert err == f"error: construct --op {op} does not read {unread[0]}\n"
    assert not out_path.exists() and not files["P"].exists()


def test_k16_table_perms_output_is_a_valid_eyebrow_cover(tmp_path, capsys):
    g16, cov, perms = tmp_path / "k16.g", tmp_path / "k16.cov", tmp_path / "k16.eye"
    run(capsys, "gen", "--family", "complete", "--parameter", "16", "--output", str(g16))
    code, out, _ = run(
        capsys, "construct", "--op", "k16-table", "--output", str(cov),
        "--perms-output", str(perms),
    )
    assert code == 0 and out == f"WROTE {cov}\nWROTE {perms}\n"
    code, out, _ = run(capsys, "verify", "--kind", "eyebrow", "--graph", str(g16), "--cover", str(perms))
    assert code == 0 and out == "VALID k=5\n"


def test_k16_table_perms_output_is_verified_before_it_is_written(tmp_path, capsys, monkeypatch):
    from eqcover import cli
    from eqcover.covers import EyebrowViolation

    def reject(g, cover):
        return EyebrowViolation((0, 1), 2)

    monkeypatch.setitem(cli.VERIFIERS, "eyebrow", (cli.EyebrowCover, reject))
    perms = tmp_path / "k16.eye"
    code, _, err = run(
        capsys, "construct", "--op", "k16-table", "--output", str(tmp_path / "k16.cov"),
        "--perms-output", str(perms),
    )
    assert code == 4 and "failed verification" in err
    assert not perms.exists()


def _verb_argv(tmp_path, capsys):
    g, cov = tmp_path / "c4.g", tmp_path / "c4.cov"
    run(capsys, "gen", "--family", "cycle", "--parameter", "4", "--output", str(g))
    run(capsys, "construct", "--op", "bipartite", "--graph", str(g), "--output", str(cov))
    return {
        "verify": ["--kind", "orientation", "--graph", str(g), "--cover", str(cov)],
        "solve": ["--invariant", "chi", "--graph", str(g), "--output", str(tmp_path / "w")],
        "construct": ["--op", "bipartite", "--graph", str(g), "--output", str(tmp_path / "w")],
        "bounds": ["--graph", str(g)],
        "linegraph": ["--graph", str(g), "--output", str(tmp_path / "w")],
        "gen": ["--family", "path", "--parameter", "3", "--output", str(tmp_path / "w")],
    }


def test_every_verb_accepts_json(tmp_path, capsys):
    for verb, argv in _verb_argv(tmp_path, capsys).items():
        code, out, err = run(capsys, verb, *argv, "--json")
        assert (code, err) == (0, ""), verb
        assert isinstance(json.loads(out), dict)


@pytest.mark.parametrize("verb", ["verify", "linegraph", "gen"])
@pytest.mark.parametrize("flag", ["--max-nodes", "--max-seconds"])
def test_verbs_that_never_search_refuse_budget_flags(tmp_path, capsys, verb, flag):
    argv = _verb_argv(tmp_path, capsys)[verb]
    code, out, err = run(capsys, verb, *argv, flag, "5")
    assert code == 2 and out == ""
    assert f"unrecognized arguments: {flag} 5" in err
    assert not (tmp_path / "w").exists()
