"""One workload in a fresh process; prints its result record as one JSON line.

Started by run.py, never by hand: run.py passes the same arguments and reads
the last line of standard output.
"""

import argparse
import json
import sys

import workloads


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), setup_only=args.setup_only)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
