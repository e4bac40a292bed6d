"""Record the pinned output digests at the default seed.

    python3 bench/pin.py

Writes bench/pinned.json: one digest per sample batch of the first four
rounds, and one per cold process (stdout plus exit code). The benchmark
counts a mismatch as a failed operation, which turns "seeded sample streams
and CLI output stay the same" into a check. Run this only in a change that
means to alter those streams or that output, and say so in that change.
"""

import json

import workloads

ROUNDS = 4


def main() -> int:
    doc = {"seed": workloads.DEFAULT_SEED}
    for name in ("sample", "cold"):
        wl = workloads.make(name, workloads.DEFAULT_SEED)
        wl.setup()
        ops = ROUNDS * len(wl.cases) if name == "sample" else len(wl.mix)
        digests = {}
        for k in range(ops):
            r = wl.op(k)
            if r.problems:
                raise SystemExit(f"not pinning a failing output: {r.problems}")
            digests[r.extra["pin"]] = r.extra["digest"]
        doc[name] = digests
    workloads.PINS_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
