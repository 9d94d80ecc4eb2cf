import contextlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

import graphck
from graphck import Graph, element_w_normal_form, is_maximal_tail, parse_element, parse_graph, sources
from graphck import cli
from graphck.cli import main
from graphck.graph import cyclic_components
from corpus import BUDGET_GRAPH, CORPUS, EXTRAS, g1_loop, g2_cyc2, g3_ent, g4_line, layered_graph


@pytest.fixture
def files(tmp_path):
    out = {}
    for name, g in (
        ("g1", g1_loop()),
        ("g2", g2_cyc2()),
        ("g3", g3_ent()),
        ("g4", g4_line()),
    ):
        path = tmp_path / f"{name}.graph"
        path.write_text(g.to_text())
        out[name] = str(path)
    bad = tmp_path / "bad.graph"
    bad.write_text("vertex v\nedge e : v -> q\n")
    out["bad"] = str(bad)
    return out


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_g1(files, capsys):
    code, out, _ = _run(capsys, ["analyze", files["g1"]])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "analyze"
    assert report["version"]
    result = report["result"]
    assert result["entranceFreeClasses"] == [["e"]]
    assert result["cuttingSet"] == ["e"]
    assert result["cofinal"] is True and result["simple"] is True


def test_analyze_g3(files, capsys):
    code, out, _ = _run(capsys, ["analyze", files["g3"]])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["entranceFreeClasses"] == []
    assert result["cofinal"] is False and result["simple"] is False


def test_analyze_malformed_exits_2(files, capsys):
    code, out, err = _run(capsys, ["analyze", files["bad"]])
    assert code == 2
    assert "error" in err


def test_analyze_missing_file_exits_2(capsys):
    code, _, err = _run(capsys, ["analyze", "/nonexistent.graph"])
    assert code == 2 and "error" in err


def test_determinism_byte_identical(files, capsys):
    argv = ["analyze", files["g3"]]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2
    argv = ["tails", files["g1"], "--toeplitz-of"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    assert out1 == out2


def test_transform_toeplitz(files, capsys, tmp_path):
    out_file = tmp_path / "te.graph"
    code, out, _ = _run(
        capsys, ["transform", files["g1"], "--toeplitz", "--output", str(out_file)]
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["kind"] == "toeplitz"
    text = out_file.read_text()
    assert "vertex alpha:v" in text and "vertex beta:v" in text
    assert "edge beta:e : beta:v -> alpha:v" in text
    assert result["graphText"] == text


def test_transform_reduce(files, capsys):
    code, out, _ = _run(capsys, ["transform", files["g1"], "--reduce"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["cuttingSet"] == ["e"]
    assert result["graphText"] == "vertex zeta:v\n"
    code, out, _ = _run(
        capsys, ["transform", files["g2"], "--reduce", "--cutting-set", "e2"]
    )
    assert json.loads(out)["result"]["edgeMap"] == {"e1": "zeta:e1"}
    code, out, _ = _run(capsys, ["transform", files["g3"], "--reduce"])
    result = json.loads(out)["result"]
    assert result["cuttingSet"] == []
    assert len(result["edgeMap"]) == 3


def test_transform_invalid_cutting_set(files, capsys):
    code, _, err = _run(
        capsys, ["transform", files["g2"], "--reduce", "--cutting-set", "e1,e2"]
    )
    assert code == 2 and "cutting set" in err


def test_tails_toeplitz_of_g1(files, capsys):
    code, out, _ = _run(capsys, ["tails", files["g1"], "--toeplitz-of"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["over"] == "toeplitz"
    assert result["tails"] == [
        {"vertices": ["alpha:v"], "kind": "tau", "class": ["alpha:e"]},
        {"vertices": ["alpha:v", "beta:v"], "kind": "gamma"},
    ]
    kinds = [d["kind"] for d in result["primIdeals"]]
    assert kinds == ["circle", "gauge"]


def test_tails_plain(files, capsys):
    code, out, _ = _run(capsys, ["tails", files["g2"]])
    result = json.loads(out)["result"]
    assert [t["kind"] for t in result["tails"]] == ["tau"]
    code, out, _ = _run(capsys, ["tails", files["g4"]])
    result = json.loads(out)["result"]
    assert [t["kind"] for t in result["tails"]] == ["gamma"]


def _tails_of_file(capsys, path):
    code, out, _ = _run(capsys, ["tails", str(path)])
    assert code == 0
    return json.loads(out)["result"]["tails"]


def test_tails_twenty_isolated_vertices(capsys, tmp_path):
    big = tmp_path / "big.graph"
    big.write_text("".join(f"vertex v{i}\n" for i in range(20)))
    tails = _tails_of_file(capsys, big)
    assert tails == [
        {"vertices": [v], "kind": "gamma"} for v in sorted(f"v{i}" for i in range(20))
    ]


def test_tails_of_a_large_graph_are_maximal(capsys, tmp_path):
    rng = random.Random(40)
    n = 48
    vs = [f"v{i}" for i in range(n)]
    edges = [(f"e{k}", rng.choice(vs), rng.choice(vs)) for k in range(n)]
    g = Graph(vs, edges)
    path = tmp_path / "large.graph"
    path.write_text(g.to_text())
    tails = _tails_of_file(capsys, path)
    assert len(tails) == len(sources(g)) + len(cyclic_components(g)) > 1
    for t in tails:
        assert is_maximal_tail(g, t["vertices"])


def test_verify_left_regular_ck_fails(files, capsys):
    code, out, _ = _run(
        capsys, ["verify", files["g1"], "--rep=left-regular", "--level=ck"]
    )
    assert code == 1
    result = json.loads(out)["result"]
    assert result["pass"] is False
    assert result["failures"] == [{"relation": "CK[v]", "witness": "@v"}]


def test_verify_omega_normalized_passes(files, capsys):
    code, out, _ = _run(
        capsys, ["verify", files["g1"], "--rep=omega", "--level=normalized"]
    )
    assert code == 0
    assert json.loads(out)["result"]["pass"] is True


def test_verify_twisted_reports_kappa(files, capsys):
    code, out, _ = _run(
        capsys,
        [
            "verify",
            files["g1"],
            "--rep=twisted",
            "--kappa=e:1/2",
            "--level=reduced",
        ],
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["pass"] is True
    assert result["kappa"] == [{"class": "e", "turn": "1/2", "value": "-1"}]


def test_verify_kappa_flag_validation(files, capsys):
    code, _, err = _run(
        capsys, ["verify", files["g1"], "--rep=twisted", "--level=reduced"]
    )
    assert code == 2 and "kappa" in err
    # a graph without entrance-free classes needs no kappa
    code, out, _ = _run(
        capsys, ["verify", files["g3"], "--rep=twisted", "--level=ck"]
    )
    assert code == 0 and json.loads(out)["result"]["kappa"] == []
    code, _, err = _run(
        capsys,
        ["verify", files["g1"], "--rep=boundary", "--level=tck", "--kappa=e:1/2"],
    )
    assert code == 2
    code, _, err = _run(
        capsys,
        ["verify", files["g1"], "--rep=twisted", "--level=tck", "--kappa=e:bad"],
    )
    assert code == 2
    # a repeated edge is refused, not overwritten by its last turn
    code, out, err = _run(
        capsys,
        ["verify", files["g1"], "--rep=twisted", "--level=reduced", "--kappa=e:1/3,e:1/4"],
    )
    assert code == 2 and not out and "'e'" in err and "twice" in err


PARSER_CASES = (
    ["--help"],
    *([command, "--help"] for command in ("analyze", "transform", "tails", "verify", "expect")),
    ["--version"],
    [],
    ["verify", "--rep=nope", "--level=ck", "G"],
    ["transform", "--toeplitz", "--reduce", "G"],
)


def _fresh_process(argv):
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(graphck.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "graphck.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    return done.returncode, done.stdout, done.stderr


def _run_exiting(capsys, argv):
    """(exit code, stdout, stderr) of ``main``, also when argparse exits."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_reused_parser_prints_what_a_fresh_one_prints(files, capsys, monkeypatch):
    """``main`` builds its parser once; help, version and argparse errors
    match a freshly built parser's, before and after other commands ran."""
    cases = [[files["g1"] if arg == "G" else arg for arg in argv] for argv in PARSER_CASES]
    _run(capsys, ["analyze", files["g1"]])
    shared = cli._PARSER
    assert shared is not None
    fresh = []
    for argv in cases:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(_run_exiting(capsys, argv))
    monkeypatch.setattr(cli, "_PARSER", shared)
    assert [code for code, _, _ in fresh] == [0] * 7 + [2] * 3
    assert all(out for _, out, _ in fresh[:7]) and all(err for _, _, err in fresh[7:])
    others = (
        ["verify", files["g1"], "--rep=twisted", "--level=normalized", "--kappa=e:1/3"],
        ["transform", files["g2"], "--reduce", "--cutting-set=e2", "--pretty"],
        ["tails", files["g1"], "--toeplitz-of"],
        ["expect", files["g2"], "--element=s[e1] * s*[e1]"],
        ["verify", files["g3"], "--rep=left-regular", "--level=ck", "--depth=3"],
    )
    for _ in range(2):
        assert [_run_exiting(capsys, argv) for argv in cases] == fresh
        for argv in others:
            _run(capsys, argv)
    assert cli._PARSER is shared


def test_no_flag_leaks_from_one_call_to_the_next(files, capsys):
    for first, second in (
        (["verify", files["g1"], "--rep=twisted", "--level=reduced", "--kappa=e:1/3"],
         ["verify", files["g1"], "--rep=boundary", "--level=reduced"]),
        (["transform", files["g2"], "--reduce", "--cutting-set=e2"],
         ["transform", files["g2"], "--reduce"]),
    ):
        assert _run(capsys, first)[0] == 0
        assert _run(capsys, second) == _fresh_process(second)


def test_twisted_verify_reads_the_scalars_of_its_report(files, capsys, monkeypatch):
    """From ``reduced`` on, the kappa entries come from the report's scalars."""
    argv = ["verify", files["g2"], "--rep=twisted", "--kappa=e2:1/6"]

    def refuse(rep, depth=None):
        raise AssertionError("extract_kappa was called")

    monkeypatch.setattr(cli, "extract_kappa", refuse)
    for level, code in (("reduced", 0), ("normalized", 1)):
        got, out, _ = _run(capsys, [*argv, f"--level={level}"])
        assert got == code and json.loads(out)["result"]["kappa"] == [
            {"class": "e1 e2", "turn": "1/6", "value": "1@1/6"}]
    with pytest.raises(AssertionError, match="extract_kappa"):
        main([*argv, "--level=ck"])


def test_expect_examples(files, capsys):
    code, out, _ = _run(capsys, ["expect", files["g3"], "--element=s[e1] * s*[f]"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["expectation"] == "0"
    code, out, _ = _run(capsys, ["expect", files["g1"], "--element=s[e e]"])
    result = json.loads(out)["result"]
    assert result["wNormalForm"] == "p[v]" and result["expectation"] == "p[v]"
    code, out, _ = _run(capsys, ["expect", files["g2"], "--element=p[u]"])
    assert json.loads(out)["result"]["expectation"] == "p[u]"


def test_expect_parse_error(files, capsys):
    code, _, err = _run(capsys, ["expect", files["g1"], "--element=s[e"])
    assert code == 2 and "error" in err


def test_pretty_mode_runs(files, capsys):
    code, out, _ = _run(capsys, ["analyze", files["g1"], "--pretty"])
    assert code == 0
    assert "command : analyze" in out


def test_verify_decides_graphs_above_the_old_budget(capsys, tmp_path):
    """Graphs whose full test set is far above WORK_BUDGET: passing relations
    build no test set, and failing ones stop at their least witness."""
    dense = tmp_path / "dense.graph"
    dense.write_text(BUDGET_GRAPH)
    layered = tmp_path / "layered.graph"
    layered.write_text(layered_graph(18).to_text())
    for path in (dense, layered):
        started = time.perf_counter()
        code, out, err = _run(capsys, ["verify", str(path), "--rep=boundary", "--level=ck"])
        assert time.perf_counter() - started < 2.0
        assert code == 0 and err == "" and json.loads(out)["result"]["pass"] is True
        started = time.perf_counter()
        code, out, err = _run(capsys, ["verify", str(path), "--rep=left-regular", "--level=ck"])
        assert time.perf_counter() - started < 2.0
        failures = json.loads(out)["result"]["failures"]
        assert code == 1 and err == ""
        assert all(f["witness"] == "@" + f["relation"][3:-1] for f in failures)
        assert len(failures) == {dense: 7, layered: 35}[path]  # one per receiving vertex


@pytest.mark.parametrize("literal", ["1/0", "1@1/0"])
def test_zero_denominator_literal_exits_2(files, capsys, literal):
    code, out, err = _run(capsys, ["expect", files["g1"], f"--element={literal} * p[v]"])
    assert code == 2 and out == ""
    assert "zero denominator" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,level", [
    (["expect", "--element=1@1/99991 * p[a]"], 99991),
    (["expect", "--element=1@1/97 * p[a] + 1@1/101 * s[la]"], 9797),
    (["verify", "--rep=twisted", "--level=ck", "--kappa=la:1/99991"], 99991),
])
def test_large_turn_denominators_exit_2(capsys, tmp_path, argv, level):
    path = tmp_path / "loop.graph"
    path.write_text("vertex a\nvertex b\nedge la : a -> a\nedge f : a -> b\n")
    started = time.perf_counter()
    code, out, err = _run(capsys, [argv[0], str(path), *argv[1:]])
    assert time.perf_counter() - started < 2.0
    assert code == 2 and out == ""
    assert f"level {level}" in err and "1000" in err
    # a prime denominator within the limit passes
    code, _, _ = _run(capsys, ["verify", str(path), "--rep=twisted", "--level=ck", "--kappa=la:1/97"])
    assert code == 0


def test_expect_sums_two_directions(capsys, tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("vertex a\nvertex b\nedge la : a -> a\nedge f : a -> b\n")
    text = "1@1/3 * p[a] + i * s[la]"
    code, out, _ = _run(capsys, ["expect", str(path), f"--element={text}"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["element"] == "1@1/3 * p[a] + 1@1/4 * s[la]"
    # s_la = p_a merges the terms into exp(2 pi i/3) + i, which is no single
    # direction; it prints over the power basis of Q(zeta_12)
    assert result["wNormalForm"] == result["expectation"] == "-(1-1@1/6-1@1/4) * p[a]"
    g = parse_graph(path.read_text())
    assert parse_element(g, result["wNormalForm"]) == element_w_normal_form(g, parse_element(g, text))


def test_expect_on_four_thousand_terms_is_fast(capsys, tmp_path):
    """Each term is parsed as one monomial and the sum kept in one map, so a
    4,000-term element with distinct keys is read in linear time (the
    factor-by-factor route took about 20 s)."""
    path = tmp_path / "loop.graph"
    path.write_text("vertex v\nedge f : v -> v\n")
    power = lambda n: " ".join(["f"] * n)  # noqa: E731
    text = " + ".join(f"{n % 7 + 1}/{n % 5 + 1} * s[{power(n // 64 + 1)}] * s*[{power(n % 64 + 1)}]"
                      for n in range(4000))
    started = time.perf_counter()
    code, out, err = _run(capsys, ["expect", str(path), f"--element={text}"])
    assert time.perf_counter() - started < 3.0
    assert code == 0 and err == ""
    result = json.loads(out)["result"]
    assert result["element"].count(" * s*[") == 4000
    # f is an entrance-free loop, so every key's W-normal form is p[v]
    total = sum(Fraction(n % 7 + 1, n % 5 + 1) for n in range(4000))
    assert result["wNormalForm"] == result["expectation"] == f"{total} * p[v]"


ELEMENT_TOKENS = ("p[v0]", "p[v1]", "p[q]", "s[e0]", "s*[e0]", "s[e0 e1]", "s*[e1]", "s[]",
                  "1", "2/3", "1/0", "0", "i", "@", "1@1/3", "1@1/0", "2@-1/4",
                  "*", "+", "-", "(", ")", " ", "x")
COEFFS = ("1", "2/3", "i", "1@1/3", "(1+i)", "(1-1@1/6)", "1/0")
MONOMIALS = ("p[v0]", "p[v1]", "s[e0]", "s*[e0]", "s[e0] * s*[e0]", "s[e1 e0]")
KAPPA_ENTRIES = ("e0:1/4", "e1:1/3", "e0:0", "e0:1/0", "e0:2/7", "q:1/2", "e0", ":", "e0:abc", "")
BAD_LINES = ("vertex", "vertex v0", "vertex bad!id", "edge x : v0 -> q", "edge e0 : v0 -> v0", "bogus")


@st.composite
def graph_texts(draw):
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    lines = [f"vertex {v}" for v in vs]
    for k in range(draw(st.integers(0, 6))):
        lines.append(f"edge e{k} : {draw(st.sampled_from(vs))} -> {draw(st.sampled_from(vs))}")
    if draw(st.sampled_from([False, False, False, True])):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(BAD_LINES)))
    return "\n".join(lines) + "\n"


@st.composite
def command_args(draw, command):
    """Options for ``command`` that argparse accepts, with values that may not
    make sense for the graph."""
    if command == "transform":
        if draw(st.booleans()):
            return ["--toeplitz"]
        cut = draw(st.lists(st.sampled_from(["e0", "e1", "e2", "q", ""]), max_size=2))
        return ["--reduce"] + ([f"--cutting-set={','.join(cut)}"] if cut else [])
    if command == "tails":
        return ["--toeplitz-of"] if draw(st.booleans()) else []
    if command == "verify":
        rep = draw(st.sampled_from(["left-regular", "boundary", "omega", "twisted"]))
        args = [f"--rep={rep}", f"--level={draw(st.sampled_from(['tck', 'ck', 'reduced', 'normalized']))}"]
        depth = draw(st.sampled_from([None, None, -2, -1, 0, 1, 2, 3, 4]))
        if depth is not None:
            args.append(f"--depth={depth}")
        if draw(st.integers(0, 7)) < (6 if rep == "twisted" else 1):
            args.append(f"--kappa={','.join(draw(st.lists(st.sampled_from(KAPPA_ENTRIES), max_size=3)))}")
        return args
    if command == "expect":
        if draw(st.booleans()):  # token soup
            return [f"--element={''.join(draw(st.lists(st.sampled_from(ELEMENT_TOKENS), max_size=8)))}"]
        terms = draw(st.lists(st.tuples(st.sampled_from(COEFFS), st.sampled_from(MONOMIALS)), min_size=1, max_size=3))
        return [f"--element={' + '.join(f'{c} * {m}' for c, m in terms)}"]
    return []


@settings(max_examples=500, deadline=None)
@given(graph_texts(), st.sampled_from(["analyze", "transform", "tails", "verify", "expect"]), st.data())
def test_main_returns_an_exit_code_and_never_raises(tmp_path_factory, text, command, data):
    path = tmp_path_factory.mktemp("cli") / "g.graph"
    path.write_text(text)
    argv = [command, str(path)] + data.draw(command_args(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    event(f"{command} exit {code}")
    assert code in (0, 1, 2) and (code == 1) <= (command == "verify")
    assert (code == 2) == err.getvalue().startswith("graphck: error:")


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "expect_golden.json").read_text())


def test_expect_output_matches_the_recorded_golden_file(tmp_path, capsys):
    """``graphck expect`` prints exactly what ``tests/data/make_expect_golden.py``
    recorded: exit code, standard output and standard error, byte for byte."""
    graphs = dict(CORPUS + EXTRAS)
    for name, g in graphs.items():
        (tmp_path / f"{name}.graph").write_text(g.to_text())
    assert len(GOLDEN) >= 190 and {r["graph"] for r in GOLDEN} == set(graphs)
    for record in GOLDEN:
        got = _run(capsys, ["expect", str(tmp_path / f"{record['graph']}.graph"),
                            f"--element={record['element']}"])
        assert got == (record["code"], record["stdout"], record["stderr"]), record["element"]
