"""Run one traced `forestchain` CLI command; used by the traced cold workload.

    python3 bench/trace_child.py SPANS_OUT CLI_ARGS...

Installs the span shims from tracing.py, runs forestchain.cli.main on the
arguments and writes the spans to SPANS_OUT when the command ends. Standard
output and the exit code are the command's own.
"""

import sys

from tracing import Tracer


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    import forestchain.cli
    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    tracer.active = True
    try:
        code = forestchain.cli.main(argv)
    finally:
        tracer.active = False
        sys.stdout.flush()
        tracer.write(out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
