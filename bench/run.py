"""Benchmark entry point.

    python3 bench/run.py --workload {exact,crosscheck,sample,cold}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Each run starts the workload in a
fresh worker process (bench/worker.py) with PYTHONPATH set to the checkout's
src/, prints what it observed, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
run that is half untraced and half traced.

setup_s is the median over three fresh processes of the time from process
start to the first timed operation; two of them only set up and exit. Like
every end-to-end time it is scaled to the reference host speed
(hostspeed.py), here by the workload's probe just before the process starts
and again right after its set-up ends.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import scale
from workloads import CLASSES, DEFAULT_SEED, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUPS = 3
BUDGET_S = 170  # the whole run, all processes included


def _units() -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def _worker(args, deadline: float, setup_only: bool) -> tuple[dict, list[str], float]:
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    before = CLASSES[args.workload].host_probe()
    t0 = time.monotonic()
    # its own process group, so that a timeout also ends the CLI processes
    # a cold worker may have running
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    result = json.loads(lines[-1])
    setup = result["ready"] - t0
    return result, lines[:-1], (scale(setup, before, result["probe"]), setup)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "forestchain" / "__init__.py").is_file():
        print(f"error: no forestchain sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        units = _units()
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_worker(args, deadline, True)[2])
        result, out, setup = _worker(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups.append(setup)
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(s for s, _raw in setups)
        out.append("setup_s per process: " + ", ".join(f"{s:.3f}" for s, _raw in setups)
                   + "; as measured: " + ", ".join(f"{raw:.3f}" for _s, raw in setups))
    for line in out:
        print(line)
    for r in result["info"]:
        print(r)
    for p in result["problems"]:
        print(f"FAILED: {p}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
