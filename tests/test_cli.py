import ast
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from forestchain import cli

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
    # pi, the MFPT systems and the fundamental matrix share one stationary
    # solve: n first-step systems, one inverse and one solve for pi in all
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
    oracle.stationary_solve.cache_clear()
    code, out, _ = run_cli(capsys, ["analyze", "--input", str(path)])
    assert code == 0 and json.loads(out)["methods_agree"] is True
    assert sorted(calls) == [3, 3, 3, 3, 4, 4]
    assert oracle.stationary_solve.cache_info().maxsize is not None
