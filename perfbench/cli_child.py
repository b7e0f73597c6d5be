"""One collardiff CLI call under the tracer, for the traced cli rounds.

    python3 perfbench/cli_child.py TOTALS_FILE [collardiff arguments ...]

Behaves like ``python -m collardiff.cli`` on stdout, stderr and exit
code, and writes the call's layer totals and import time to TOTALS_FILE.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402
import collardiff.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0


def main() -> int:
    totals_file, argv = sys.argv[1], sys.argv[2:]
    tracer = tr.Tracer()
    tracer.install()
    try:
        rc = collardiff.cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        rec = tr.totals(tracer.spans)
        rec["import_s"] = IMPORT_S
        with open(totals_file, "w", encoding="utf-8") as fh:
            json.dump(rec, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
