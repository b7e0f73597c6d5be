"""Record perfbench/golden.json: the sha256 of every report each
workload's golden-seed plan emits, at both sizes.

    python3 perfbench/record_golden.py

Run it only at the commit that defines the expected report bytes; every
benchmark run compares against the file and reports differences as
``digest_changes``.
"""

import json
import os
import sys

import run

os.environ.update(run.child_env())   # same thread settings as the runs
sys.path[:0] = [os.path.join(run.ROOT, "src"), run.HERE]

import worker  # noqa: E402


def main() -> int:
    golden = {w: {size: worker.golden_digests(w, size)
                  for size in ("full", "tiny")}
              for w in run.WORKLOADS}
    with open(os.path.join(run.HERE, "golden.json"), "w",
              encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
