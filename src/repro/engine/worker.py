"""Fresh-process task worker: one sealed task unit in, one sealed frame out.

This is the receiving end of the ``subprocess`` transport
(:mod:`repro.engine.transport`).  It reads one unit on stdin, runs it
through the frame codec the fleet workers share
(:func:`repro.engine.transport.execute_unit`), and writes the frame to a
duplicate of file descriptor 1, which it first re-points at stderr, so a
task that prints cannot corrupt the frame.  It exits 0 whenever a frame
was written; any other exit (70 for a planned ``worker_crash``) is an
uncontrolled death.

The codec lives in the transport module, not here: the engine package
imports it, and a module the package imports cannot also run cleanly
as ``python -m``.
"""

from __future__ import annotations

import os
import sys

__all__ = ["main"]


def main() -> int:
    result_fd = os.dup(1)
    os.dup2(2, 1)
    sys.stdout = sys.stderr
    from repro.engine.transport import execute_unit

    frame, _ = execute_unit(sys.stdin.buffer.read())
    with os.fdopen(result_fd, "wb") as out:
        out.write(frame)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
