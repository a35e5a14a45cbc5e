"""One benchmark child process: import `hyperwave.cli` from this checkout,
record when the import finished, then run one CLI command, traced or not.

    python3 bench/child.py --marker PATH [--info] [--trace PATH] [-- CLI ARGS]

The marker file receives {"imported": time.monotonic()} (plus library
versions with --info); CLOCK_MONOTONIC is shared with the parent, which
subtracts its spawn time. Without CLI ARGS the child only imports. The
parent sets PYTHONPATH to this checkout's src/; a `hyperwave` resolved
anywhere else is refused with exit code 3.
"""

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--marker", required=True)
    parser.add_argument("--info", action="store_true")
    parser.add_argument("--trace")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    import hyperwave
    import hyperwave.cli

    imported = time.monotonic()
    where = os.path.dirname(os.path.realpath(hyperwave.__file__))
    if where != os.path.realpath(os.path.join(ROOT, "src", "hyperwave")):
        print(f"hyperwave resolved to {where}, not this checkout's src/", file=sys.stderr)
        return 3
    info = {"imported": imported}
    if args.info:
        info.update(_versions(), hyperwave=where)
    with open(args.marker, "w") as fh:
        json.dump(info, fh)
    if not cli_args:
        return 0
    if not args.trace:
        return hyperwave.cli.main(cli_args)

    import tracer

    spans = tracer.Tracer()
    tracer.install(spans)
    try:
        return hyperwave.cli.main(cli_args)
    finally:
        spans.dump(args.trace)


if __name__ == "__main__":
    sys.exit(main())
