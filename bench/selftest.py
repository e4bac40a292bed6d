"""Self-test of the benchmark.

    python3 -m pytest -q bench/selftest.py

Runs every workload at a tiny size through the real command and checks the
printed metrics against BENCHMARK.json, then shows that a wrong output is
counted as a failed operation: an oracle value patched inside the test, and
a perturbed pinned digest. The file name keeps it out of the repository's
default test collection, because the runs take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    if trace:
        assert any(line.startswith("tracing overhead: ") for line in lines)
    else:
        assert any(line.startswith("as measured, before scaling") for line in lines)


def test_patched_oracle_value_counts_as_failed(monkeypatch):
    workloads.make("exact", workloads.DEFAULT_SEED)
    from forestchain import oracle
    real = oracle.kemeny_trace
    monkeypatch.setattr(oracle, "kemeny_trace", lambda p: real(p) + 1)
    result = workloads.run("exact", workloads.DEFAULT_SEED, 0.1, trace=False)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "Kemeny constant differs between routes" in result["problems"]
    assert f"error_rate = {1:.4f}" in " ".join(result["info"])


@pytest.mark.parametrize("workload,first", [("sample", "n4-r1-plain/0"),
                                            ("cold", "analyze-n3")])
def test_perturbed_digest_counts_as_failed(workload, first):
    pins = workloads.load_pins(workload, workloads.DEFAULT_SEED)
    good = workloads.run(workload, workloads.DEFAULT_SEED, 0.1, trace=False, pins=pins)
    assert good["failed"] == 0
    assert any(line.startswith("digest check: ") and "had a pinned digest" in line
               for line in good["info"])
    pins[first] = pins[first][::-1]
    bad = workloads.run(workload, workloads.DEFAULT_SEED, 0.1, trace=False, pins=pins)
    assert bad["failed"] >= 1
    assert any("pin" in p for p in bad["problems"])


def test_digests_do_not_apply_at_other_seeds():
    assert workloads.load_pins("cold", workloads.DEFAULT_SEED + 1) == {}
    result = workloads.run("cold", workloads.DEFAULT_SEED + 1, 0.1, trace=False)
    assert any(line.startswith("digest check: not applicable")
               for line in result["info"])


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "exact", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_scaling_keeps_the_share_a_program_change_moves():
    import hostspeed
    assert hostspeed.scale(1.5, 1.0, 1.0) == pytest.approx(1.5)
    # a host twice as slow doubles both the probes and the operation
    assert hostspeed.scale(3.0, 2.0, 2.0) == pytest.approx(1.5)
    # an operation 10% slower on the same host reads 10% slower
    assert hostspeed.scale(3.3, 2.0, 2.0) == pytest.approx(1.65)
    assert hostspeed.probe() > 0 and hostspeed.probe_process() > 0


def test_tail_has_ten_samples_beyond_it():
    value, pct, n = workloads.tail([float(x) for x in range(40)])
    assert (value, pct, n) == (29.0, 75.0, 40)
    assert sum(1 for x in range(40) if x > value) == 10
