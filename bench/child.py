"""Run ``python -m splineineq ARGS`` in this process, as a benchmark child.

    python bench/child.py META SRC TRACE -- ARGS...

Imports ``splineineq.cli`` from SRC and notes the monotonic clock when the
import is done, so the parent can time set-up from its spawn.  With TRACE 1
it then wraps the package's public functions (see tracing.py).  It runs the
package's ``__main__`` exactly as ``-m`` would and, on exit, writes META (JSON)
and, when tracing, the spans next to it.  The exit code is the CLI's.
"""

import json
import os
import runpy
import sys
import time


def main() -> int:
    meta_path, src, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py META SRC TRACE -- ARGS...")
    cli_args = sys.argv[5:]

    import splineineq.cli

    t_import = time.clock_gettime(time.CLOCK_MONOTONIC)
    want = os.path.realpath(os.path.join(src, "splineineq"))
    got = os.path.dirname(os.path.realpath(splineineq.cli.__file__))
    if got != want:
        print(f"child: splineineq imported from {got}, expected {want}", file=sys.stderr)
        return 3

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    sys.argv = ["splineineq", *cli_args]
    code = 0
    try:
        runpy.run_module("splineineq", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    meta = {"t_import": t_import}
    if tracer is not None:
        meta["trace"] = tracer.dump(meta_path + ".npz")
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
