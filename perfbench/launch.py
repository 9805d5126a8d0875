"""Child-process launcher for the paper_noisy workload.

    python3 perfbench/launch.py --t0 <monotonic> [--trace-out FILE] -- <twobell argv>

Runs ``twobell.cli.main(argv)`` from the checkout's ``src`` in a fresh
interpreter, as the ``twobell`` console script would, and exits with its
return code.  Only with ``--trace-out`` does it install the layer
wrappers; it then writes the spans and ``cli.startup_s`` (from ``--t0``,
taken by the parent just before it started this process, to the entry
of ``main``) as JSON to FILE.  ``--warmup`` only imports the package.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace-out")
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    from twobell import cli

    if args.warmup:
        return 0
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    startup_s = time.monotonic() - args.t0
    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    rc = cli.main(argv)
    sys.stdout.flush()
    if tracer is not None:
        tracer.uninstall()
        with open(args.trace_out, "w") as fh:
            json.dump({"startup_s": startup_s, "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
