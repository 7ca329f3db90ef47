"""Run the indres command line once, as its console entry point would.

    python3 perfbench/launch.py STAMP_FILE TRACE_FILE -- <indres arguments>

The process imports ``indres.cli`` exactly as the ``indres`` console
script does, then writes to STAMP_FILE the monotonic times at which the
import finished (the benchmark's ``setup_s`` ends there) and the command
returned, and the versions and settings the run saw.  TRACE_FILE is ``-`` for an untraced run;
otherwise the outside-in tracer is installed after the import and its
spans are written to TRACE_FILE when the command ends.  The exit code is
the command's own.
"""

import json
import os
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def main():
    stamp_file, trace_file, sep, *args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: launch.py STAMP_FILE TRACE_FILE -- ARGS...")
    import indres.cli

    ready = time.monotonic()
    import numpy
    import sympy

    stamp = {
        "ready": ready,
        "indres_file": indres.cli.__file__,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }
    tracer = None
    if trace_file != "-":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    code = 0
    try:
        indres.cli.main(args, prog_name="indres")
    except SystemExit as exc:
        code = exc.code
    finally:
        stamp["done"] = time.monotonic()
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(trace_file)
        with open(stamp_file, "w") as fh:
            json.dump(stamp, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
