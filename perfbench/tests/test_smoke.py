"""Smoke test of the benchmark: every workload at the tiny size, untraced
and traced.  The result must parse and carry every metric BENCHMARK.json
names, with its unit.

    python3 -m pytest perfbench/tests -q

It takes a few minutes and is not part of the tier-1 suite (pyproject's
testpaths only lists tests/).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

PROVENANCE = {"nproc", "python", "numpy", "scipy", "click", "git_commit",
              "source_sha256", "workload", "seed", "size", "inputs",
              "ops_per_round", "work_per_round"}


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["decay", "lp", "library", "cli"])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout.splitlines()[-2])
    result = json.loads(proc.stdout.splitlines()[-1])

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))

    assert PROVENANCE <= set(record["provenance"])
    assert record["digest_changes"] == 0
    if workload == "library":
        # the known lp_norm overflow fails once per round, and only it
        assert set(record["problems"]) == {"lp_norm.p4.overflow"}
        assert result["failed"] * record["provenance"]["ops_per_round"] \
            == result["attempted"]
    else:
        assert result["failed"] == 0, record["problems"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "decay", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
