"""Process entry: ``python -m forestchain`` and the ``forestchain`` script."""

import gc
import os
import sys
from typing import NoReturn

from .cli import main


def run() -> NoReturn:
    """Run one command and exit with its code.

    Once the command has returned, every object the cyclic collector
    tracks is frozen out of its reach, so interpreter shutdown does not
    walk the whole heap again before the process exits: a cold ``analyze``
    spent longer in that walk than in the command itself. Buffered output
    is still flushed and atexit handlers still run. ``cli.main`` has no
    such process-wide effect, so in-process callers (tests, ``verify``)
    keep a normal collector.

    A reader that closes stdout early (``forestchain sample ... | head``)
    ends the process with exit 1 and nothing on stderr. stdout then points
    at the null device, so the flush at shutdown cannot fail again (the
    "Note on SIGPIPE" in the ``signal`` module documentation). A process
    started with no stdout at all (fd 1 closed, so ``sys.stdout`` is None)
    exits the same way before it runs the command.
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
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    run()
