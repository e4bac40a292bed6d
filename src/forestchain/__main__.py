"""Process entry: ``python -m forestchain`` and the ``forestchain`` script."""

import atexit
import os
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """Run one command and exit with its code.

    Once the command has returned, its buffered output is flushed, the
    registered atexit handlers run, what they wrote is flushed in turn,
    and the process ends at once (``os._exit``), with no interpreter
    teardown: tearing down every module and walking the heap once more
    cost a cold ``analyze`` more than a millisecond and changed nothing it
    printed. A usage error, ``--help`` (argparse's ``SystemExit``) and a
    traceback still end through the normal exit. ``cli.main`` has no such
    process-wide effect, so in-process callers (tests, ``verify``) keep a
    normal interpreter.

    A reader that closes stdout early (``forestchain sample ... | head``)
    ends the process with exit 1 and nothing on stderr. stdout then points
    at the null device, so a later flush cannot fail again (the "Note on
    SIGPIPE" in the ``signal`` module documentation). A process started
    with no stdout at all (fd 1 closed, so ``sys.stdout`` is None) exits
    the same way before it runs the command.
    """
    if sys.stdout is None:
        raise SystemExit(1)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    atexit._run_exitfuncs()
    # what the handlers wrote too, since no teardown will flush it
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
