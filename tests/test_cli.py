import ast
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from forestchain import cli, format_rational

A_DOC = json.dumps({
    "n": 3,
    "rows": [["0", "1/2", "1/2"], ["1/3", "0", "2/3"], ["1", "0", "0"]],
})

R3_DOC = json.dumps({
    "n": 3,
    "rows": [["0", "1/2", "1/2"], ["0", "1", "0"], ["0", "0", "1"]],
})


@pytest.fixture
def a_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(A_DOC)
    return str(path)


@pytest.fixture
def r3_file(tmp_path):
    path = tmp_path / "r3.json"
    path.write_text(R3_DOC)
    return str(path)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_fixture(capsys, a_file):
    code, out, _ = run_cli(capsys, ["analyze", "--input", a_file])
    doc = json.loads(out)
    assert code == 0
    assert doc["kemeny"] == "16/7"
    assert doc["pi"] == ["3/7", "3/14", "5/14"]
    assert doc["pi"] == doc["pi_oracle"]
    assert doc["mfpt"][0][1] == "3"
    assert doc["mfpt"][0][0] == "7/3"
    assert doc["methods_agree"] is True


def test_analyze_float_fields(capsys, a_file):
    code, out, _ = run_cli(capsys, ["analyze", "--input", a_file, "--float"])
    doc = json.loads(out)
    assert code == 0
    assert doc["pi_float"] == pytest.approx([3 / 7, 3 / 14, 5 / 14])
    assert doc["kemeny_float"] == pytest.approx(16 / 7)


def test_analyze_from_stdin(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO(A_DOC))
    code, out, _ = run_cli(capsys, ["analyze"])
    assert code == 0
    assert json.loads(out)["kemeny"] == "16/7"


def test_analyze_one_state_chain(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO('{"n": 1, "rows": [["1"]]}'))
    code, out, _ = run_cli(capsys, ["analyze"])
    doc = json.loads(out)
    assert code == 0
    assert doc["pi"] == doc["pi_oracle"] == ["1"]
    assert doc["mfpt"] == doc["mfpt_oracle"] == [["1"]]
    assert doc["kemeny"] == doc["kemeny_oracle"] == "1"
    assert doc["methods_agree"] is True


def test_analyze_reducible_exit_and_certificate(capsys, r3_file):
    code, out, err = run_cli(capsys, ["analyze", "--input", r3_file])
    assert code == 3
    doc = json.loads(err)
    assert doc["error"] == "reducible"
    cert = doc["certificate"]
    assert cert["unreachable"] is not None


def test_hit_subcommand(capsys, r3_file, a_file):
    code, out, _ = run_cli(
        capsys, ["hit", "--input", r3_file, "--targets", "1,2", "--from", "0"])
    doc = json.loads(out)
    assert code == 0
    assert doc["hit"] == ["1/2", "1/2"]
    assert doc["hit_oracle"] == ["1/2", "1/2"]
    assert doc["mean"] == "1"

    code, out, _ = run_cli(
        capsys, ["hit", "--input", a_file, "--targets", "0", "--from", "1"])
    doc = json.loads(out)
    assert doc["mean"] == "5/3"

    # start inside the target set: immediate absorption
    code, out, _ = run_cli(
        capsys, ["hit", "--input", a_file, "--targets", "1,2", "--from", "2"])
    doc = json.loads(out)
    assert doc["hit"] == ["0", "1"]
    assert doc["mean"] == "0"


def test_hit_infeasible_exit_code(capsys, r3_file):
    code, _, err = run_cli(
        capsys, ["hit", "--input", r3_file, "--targets", "1", "--from", "0"])
    assert code == 4
    assert json.loads(err)["error"] == "infeasible-roots"


def test_green_subcommand(capsys, a_file):
    code, out, _ = run_cli(
        capsys, ["green", "--input", a_file, "--targets", "0"])
    doc = json.loads(out)
    assert code == 0
    assert doc["green"] == [["1", "2/3"], ["0", "1"]]
    assert doc["green"] == doc["green_oracle"]
    assert doc["interior"] == [1, 2]


def test_count_cayley(capsys):
    code, out, _ = run_cli(capsys, ["count", "--cayley", "4", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"] == 8
    assert doc["enumerated"] == 8
    assert doc["agree"] is True


def test_count_reads_every_forest_count_off_the_tree_sums(
        capsys, tmp_path, monkeypatch):
    # a dense 9-state chain has 10^8 forests and --cayley 10 2 has 2 * 10^7;
    # neither is listed, so both finish at once
    from forestchain import forests

    def no_listing(*a, **k):
        raise AssertionError("count listed a forest")

    monkeypatch.setattr(forests, "_walk", no_listing)
    path = tmp_path / "d9.json"
    path.write_text(json.dumps({"n": 9, "rows": [
        [f"{i + j + 1}/{9 * i + 45}" for j in range(9)] for i in range(9)]}))
    code, out, _ = run_cli(capsys, ["count", "--input", str(path)])
    doc = json.loads(out)
    assert code == 0
    counts = doc["forest_counts"]
    assert [c["trees"] for c in counts] == list(range(1, 10))
    assert all(c["enumerated"] == c["closed_form"] for c in counts)
    assert sum(c["enumerated"] for c in counts) == 10**8
    code, out, _ = run_cli(capsys, ["count", "--cayley", "10", "2"])
    doc = json.loads(out)
    assert code == 0
    assert doc["enumerated"] == doc["closed_form"] == 2 * 10**7
    assert doc["agree"] is True


def test_count_refuses_past_the_guard_before_any_sum(
        capsys, tmp_path, monkeypatch):
    # one root of a 10-state chain leaves 9 free states, past the default
    # guard of 8: refused before any tree sum is taken
    from forestchain import forests
    work = []
    monkeypatch.setattr(forests, "_layer_sums", lambda *a: work.append(a))
    path = tmp_path / "u10.json"
    path.write_text(json.dumps({"n": 10, "rows": [["1/10"] * 10] * 10}))
    for argv, free in ((["count", "--input", str(path)], 9),
                       (["count", "--cayley", "4000", "1"], 3999)):
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "guard", "detail": (
            f"{free} free vertices exceeds enumeration guard 8; "
            f"pass a larger guard to override")}
    assert work == []


def test_count_prism(capsys):
    code, out, _ = run_cli(capsys, ["count", "--prism", "2", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["closed_form"] == 75
    assert doc["determinant"] == 75


def test_count_chain_mode(capsys, a_file):
    code, out, _ = run_cli(capsys, ["count", "--input", a_file])
    doc = json.loads(out)
    assert code == 0
    assert doc["sigma"] == ["1", "1/2", "5/6"]
    assert doc["sigma1"] == "7/3"
    assert doc["sigma_r"]["2"] == "3"


def test_sample_tree_two_state(capsys, tmp_path):
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(
        {"n": 2, "rows": [["0", "1"], ["1", "0"]]}))
    code, out, _ = run_cli(
        capsys, ["sample", "--input", str(path), "--mode", "tree",
                 "--root", "0", "--count", "5", "--seed", "9"])
    lines = out.strip().splitlines()
    assert code == 0
    draws, summary = lines[:-1], json.loads(lines[-1])["summary"]
    assert len(draws) == 5
    assert all(json.loads(ln)["parent"] == {"1": 0} for ln in draws)
    assert summary["distinct"] == 1
    assert summary["seed"] == 9


def test_sample_forest_gof(capsys, a_file):
    code, out, _ = run_cli(
        capsys, ["sample", "--input", a_file, "--mode", "forest",
                 "--roots", "0", "--count", "4000", "--seed", "1069",
                 "--gof"])
    lines = out.strip().splitlines()
    assert code == 0
    summary = json.loads(lines[-1])["summary"]
    assert summary["gof"]["passed"] is True
    assert summary["count"] == 4000


def test_sample_ecrsf_runs(capsys, a_file):
    code, out, _ = run_cli(
        capsys, ["sample", "--input", a_file, "--mode", "ecrsf",
                 "--roots", "0", "--alpha", "1/2", "--count", "50",
                 "--seed", "4", "--gof"])
    lines = out.strip().splitlines()
    assert code == 0
    assert len(lines) == 51
    first = json.loads(lines[0])
    assert "cycles" in first


# stdout digests of `sample --gof` as recorded before the law builders were
# merged into forests.exact_law; the chi-square statistic is a float sum in
# the law's key order, so a reordered law changes the digest
C4_DOC = json.dumps({"n": 4, "rows": [["0", "1/2", "1/4", "1/4"],
                                      ["1/3", "0", "2/3", "0"],
                                      ["1/5", "2/5", "0", "2/5"],
                                      ["1/2", "0", "1/4", "1/4"]]})


@pytest.mark.parametrize("mode,digest", [
    (["--root", "0"],
     "be84a621600f8a5a7ec05fa23d84404e6d96b586cba72fdc4ab07873618aaeb0"),
    (["--mode", "ecrsf", "--roots", "0", "--alpha", "1/2"],
     "618edcece8ceef49127779645a363d52a42437e9c3472dacd0e902e9cfdfe656"),
])
def test_sample_gof_stdout_is_pinned(capsys, tmp_path, mode, digest):
    path = tmp_path / "c4.json"
    path.write_text(C4_DOC)
    code, out, _ = run_cli(
        capsys, ["sample", "--input", str(path), *mode, "--count", "300",
                 "--seed", "1069", "--gof"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# stdout digests of analyze, hit and green as recorded while the forest sums
# and the oracle solves still went through a Fraction per entry; Fractions
# are canonical, so integer-only arithmetic must print the same bytes
M3_DOC = json.dumps({"n": 3, "rows": [["1/2", "1/2", "0"],
                                      ["1/1000003", "0", "1000002/1000003"],
                                      ["2/3", "1/7", "4/21"]]})
PINNED_DOCS = {"a": A_DOC, "r3": R3_DOC, "c4": C4_DOC, "m3": M3_DOC}


@pytest.mark.parametrize("doc,argv,digest", [
    ("a", ["analyze"],
     "49d9c1cc7cd441c9c94290211fe177f257c04ed4f725425bf442bf5342792d43"),
    ("a", ["analyze", "--float"],
     "e111bcd50ae38f1f42dba0729d4a02c7b0d50e6c604f853d63c3aef4b2b168c3"),
    ("c4", ["analyze"],
     "f7c623d50bc469d90114d4546737ad43d483a4615f0327b8528adf9d6cdb3372"),
    ("c4", ["analyze", "--float"],
     "a52c8ef1511d5a093608a815ffd58718eebf9293f3a47b763acefa31a8af1a82"),
    ("m3", ["analyze"],
     "bdd743513023263ad0473004cfe809a936b8f4ce87cc824205047f79cb76d547"),
    ("r3", ["hit", "--targets", "1,2", "--from", "0"],
     "3b64808788051f66e17a7091e7d5f0c105f8300095c925e3f15938b5cba70fc6"),
    ("a", ["hit", "--targets", "0", "--from", "1"],
     "f25cf457fe87c48edd26a2b110fd13295310196097f422a840e613d3e17f72cf"),
    ("a", ["hit", "--targets", "1,2", "--from", "2"],
     "3a0063091031c8ee84cdd615489268281abd3b387665b8108969ba6812d3822f"),
    ("c4", ["hit", "--targets", "0,3", "--from", "1", "--float"],
     "4f852e8d6209f0325e91a9400ac77ab8f9f7e50b512b8edacfea32f8e9aeca9a"),
    ("m3", ["hit", "--targets", "2", "--from", "0"],
     "8a8a3e2cbcce83ea247609fb12771ddc8bba69e8c02f0a3f18a449523d2170ad"),
    ("a", ["green", "--targets", "0"],
     "1f55e9f35e5e24dd562e7a4303ab8b985a6b0fb4816ab3f4f30bb979f5ef3a70"),
    ("r3", ["green", "--targets", "1,2"],
     "8d40e08a0ca735e187abdb8d43665cbd9c0c3217e509fc722f5b809d92eaf9a2"),
    ("c4", ["green", "--targets", "2", "--float"],
     "312bdc0e1ace72ac10049249fef1076700529635dc4da7b1300ef592c368f8da"),
    ("m3", ["green", "--targets", "0"],
     "45d8cd0fa9dae9f40ee918480ae729b766bebeceac7450736c0d00377d635fd1"),
])
def test_exact_stdout_is_pinned(capsys, tmp_path, doc, argv, digest):
    path = tmp_path / f"{doc}.json"
    path.write_text(PINNED_DOCS[doc])
    code, out, _ = run_cli(capsys, [argv[0], "--input", str(path), *argv[1:]])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_gof_over_the_guard_prints_no_draws(capsys, monkeypatch):
    import io
    rows = [["1/10"] * 10 for _ in range(10)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"n": 10, "rows": rows})))
    code, out, err = run_cli(
        capsys, ["sample", "--root", "0", "--count", "3", "--gof"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "guard"


def test_sample_rejects_bad_root(capsys, a_file):
    code, _, err = run_cli(
        capsys, ["sample", "--input", a_file, "--mode", "tree",
                 "--root", "7", "--count", "1"])
    assert code == 2


def test_verify_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--suite", "kirchhoff", "--trials", "6",
                 "--max-n", "3", "--seed", "11"])
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] is True
    assert doc["results"][0]["suite"] == "kirchhoff"
    assert doc["results"][0]["checks"] > 0


def test_parse_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "rows": [["1/2", "1/3"], ["0", "1"]]}')
    code, _, err = run_cli(capsys, ["analyze", "--input", str(bad)])
    assert code == 2
    assert json.loads(err)["error"] == "parse"


def test_edge_list_format(capsys, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("a b 1\nb a 1\n")
    code, out, _ = run_cli(
        capsys, ["analyze", "--input", str(path), "--format", "edges"])
    doc = json.loads(out)
    assert code == 0
    assert doc["pi"] == ["1/2", "1/2"]
    assert doc["labels"] == ["a", "b"]


def test_edge_list_row_error_exits_cleanly(capsys, monkeypatch):
    import io
    monkeypatch.setattr(sys, "stdin", io.StringIO("0 2000 1\n"))
    code, _, err = run_cli(capsys, ["analyze", "--format", "edges"])
    assert code == 2
    assert json.loads(err) == {"error": "parse", "detail": "row 1 sums to 0"}


def test_edge_list_over_the_state_cap_exits_2(capsys, monkeypatch):
    import io
    from forestchain.chains import MAX_STATES
    text = "".join(f"{v} {v} 1\n" for v in range(MAX_STATES + 1))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run_cli(capsys, ["analyze", "--format", "edges"])
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "parse",
        "detail": f"state index {MAX_STATES} exceeds the limit of {MAX_STATES} states"}


def test_cli_import_loads_neither_scipy_nor_numpy():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import forestchain.cli, sys; "
         "print(sorted({'scipy', 'numpy'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # dataclasses brings in inspect, ast, dis and tokenize: most of what the
    # package once cost to import. -S keeps site's own imports out of it.
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, forestchain.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_does_not_load_the_verify_suites():
    src = Path(cli.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, forestchain.cli; "
         "print('forestchain.verify' in sys.modules)"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_suite_choices_are_verify_suites():
    from forestchain import verify
    assert cli.SUITE_NAMES == verify.SUITE_NAMES
    args = cli.build_parser().parse_args(["verify", "--suite", "treealg"])
    assert args.suite == "treealg"


def test_package_imports_only_the_standard_library():
    import ast
    from pathlib import Path

    import forestchain
    for path in Path(forestchain.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "forestchain", (
                    f"{path.name} imports {name}")


def test_cli_and_verify_use_no_private_sibling_names():
    import forestchain
    package = Path(forestchain.__file__).parent
    siblings = {path.stem for path in package.glob("*.py")}
    for name in ("cli.py", "verify.py"):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        # local names bound to sibling modules: `from . import verify as v`
        local = {alias.asname or alias.name
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and node.module is None
                 for alias in node.names if alias.name in siblings}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                private = [a.name for a in node.names if a.name.startswith("_")]
                assert not private, f"{name} imports {private}"
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name)
                  and node.value.id in local):
                assert False, f"{name} uses {node.value.id}.{node.attr}"


def test_module_entry_point(tmp_path):
    path = tmp_path / "a.json"
    path.write_text(A_DOC)
    proc = subprocess.run(
        [sys.executable, "-m", "forestchain", "analyze", "--input", str(path)],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kemeny"] == "16/7"


def test_analyze_solves_pi_once(capsys, monkeypatch, tmp_path):
    # pi, the MFPT matrix and Kemeny's trace share one solve of I - P + 1 e^T:
    # pi is G's last row and m_ij = (g_jj - g_ij) / pi_j
    from forestchain import oracle
    doc = {"n": 4, "rows": [["1/8", "3/8", "1/4", "1/4"],
                            ["1/5", "0", "2/5", "2/5"],
                            ["1/2", "1/6", "0", "1/3"],
                            ["1/7", "2/7", "3/7", "1/7"]]}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    calls = []
    real = oracle._solve

    def counting(a, b):
        calls.append(len(a))
        return real(a, b)

    monkeypatch.setattr(oracle, "_solve", counting)
    oracle._chain_solve.cache_clear()
    code, out, _ = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 0 and json.loads(out)["methods_agree"] is True
    assert calls == [4]
    assert oracle._chain_solve.cache_info().maxsize is not None


# ---------------------------------------------------------------------------
# fuzzing the command line

# wall-clock budget for one command on a chain of at most five states; such
# a command takes a few milliseconds
FUZZ_BUDGET_S = 2.0


@st.composite
def _cli_cases(draw):
    """(argv, stdin text) for analyze, hit or green on a random document.

    Rows are random weights normalised, so most documents are valid chains;
    zero weights make reducible chains and infeasible target sets. One
    document in five has an all-zero row or a negative entry, which the
    parser refuses, and target and start states may fall out of range.
    """
    n = draw(st.integers(1, 5))
    weights = draw(st.lists(st.lists(st.integers(0, 3), min_size=n,
                                     max_size=n), min_size=n, max_size=n))
    for i, ws in enumerate(weights):
        if not any(ws):
            ws[(i + 1) % n] = 1
    rows = [[Fraction(w, sum(ws)) for w in ws] for ws in weights]
    broken = draw(st.integers(0, 9))
    if broken < 2:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[i] = ([Fraction(0)] * n if broken == 0
                   else rows[i][:j] + [rows[i][j] - 1] + rows[i][j + 1:])
    fmt = draw(st.sampled_from(["matrix", "edges"]))
    if fmt == "matrix":
        text = json.dumps({"n": n, "rows": [[format_rational(x) for x in row]
                                            for row in rows]})
    else:
        names = (str if draw(st.booleans()) else "s{}".format)
        text = "".join(f"{names(i)} {names(j)} {format_rational(x)}\n"
                       for i, row in enumerate(rows)
                       for j, x in enumerate(row) if x)
    command = draw(st.sampled_from(["analyze", "hit", "green"]))
    argv = [command, "--format", fmt]
    # a state index, out of range one time in eight
    state = st.integers(0, 7).flatmap(
        lambda k: st.sampled_from([-1, n]) if k == 0 else st.integers(0, n - 1))
    if command != "analyze":
        targets = draw(st.lists(state, min_size=1, max_size=n))
        argv.append("--targets=" + ",".join(map(str, targets)))
    if command == "hit":
        argv.append(f"--from={draw(state)}")
    if draw(st.booleans()):
        argv.append("--float")
    return argv, text


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_cli_cases())
def test_cli_fuzz_exits_cleanly_and_routes_agree(case):
    argv, text = case
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
    finally:
        sys.stdin = stdin
    assert code in (0, 2, 3, 4), (argv, text, err.getvalue())
    assert elapsed < FUZZ_BUDGET_S
    if code == 0:
        assert json.loads(out.getvalue())["methods_agree"] is True
    else:
        # a refusal prints nothing on stdout and one error line on stderr
        assert out.getvalue() == ""
        assert "error" in json.loads(err.getvalue())
