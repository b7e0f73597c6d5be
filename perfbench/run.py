"""collardiff benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload decay|lp|library|cli --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root.  It times set-up in fresh interpreters,
then runs the workload in a fresh worker process (perfbench/worker.py)
for S seconds of whole rounds, one op at a time.  End-to-end times are
divided by the host's slowdown, timed on a reference next to each op or
set-up (see workloads.py); the run record also gives them as measured.
With ``--trace 1`` the first half of the time runs untraced and the
second half under the span tracer, and the per-layer metrics (as
measured) are reported instead of the end-to-end ones.

Stdout ends with two JSON lines: the run record (provenance, sample
counts, checks, digests) and then the result
``{"correct", "attempted", "failed", "metrics"}`` with the metrics named
in BENCHMARK.json.  Exits 2 without a result when the package sources
are missing or a child process fails.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("decay", "lp", "library", "cli")
SETUP_PROBES = 5
# every child is stopped in time for the run to end within 180 s
RUN_DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # at most nproc threads at once: the lp workload's two sweep workers
    # would otherwise each fan out into BLAS threads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class ChildFailed(RuntimeError):
    pass


def run_child(cmd, deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group and wait for it; past the
    deadline the whole group (the worker's CLI processes too) is killed."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildFailed("child timed out")
    if proc.returncode != 0:
        sys.stderr.write(err)
        raise ChildFailed(f"child exited {proc.returncode}")
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def scipy_integrate_import_s(importtime_log: str) -> float:
    """Cumulative import time of scipy.integrate* modules that are not
    nested in another scipy.integrate* module, from ``-X importtime``.

    scipy's lazy loader can hide the ``scipy.integrate`` line itself, so
    its top-level submodules are summed instead.  Lines come in post-order
    (children before their parent), so they are read backwards while
    keeping the stack of enclosing modules.
    """
    pat = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")
    total = 0
    stack = []   # (depth, inside scipy.integrate)
    for line in reversed(importtime_log.splitlines()):
        m = pat.match(line)
        if not m:
            continue
        cumulative, depth, name = int(m.group(1)), len(m.group(2)), m.group(3)
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        mine = name == "scipy.integrate" or name.startswith("scipy.integrate.")
        if mine and not inside:
            total += cumulative
        stack.append((depth, inside or mine))
    return total / 1e6


def setup_probes(args, deadline) -> list:
    base = [sys.executable]
    if args.trace:
        base += ["-X", "importtime"]
    out = []
    for _ in range(SETUP_PROBES):
        proc = run_child(base + [WORKER, "--workload", args.workload,
                                 "--seed", str(args.seed), "--size",
                                 args.size, "--setup-only"], deadline)
        rec = json.loads(proc.stdout.splitlines()[-1])
        if args.trace:
            rec["scipy_integrate_s"] = scipy_integrate_import_s(proc.stderr)
        out.append(rec)
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="collardiff benchmark run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "collardiff", "cli.py")):
        sys.stderr.write("perfbench: no collardiff sources under src/; "
                         "run from a repository checkout\n")
        return 2
    spec = load_spec()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        probes = setup_probes(args, deadline)
        proc = run_child([sys.executable, WORKER, "--workload", args.workload,
                          "--seed", str(args.seed), "--size", args.size,
                          "--seconds", str(args.seconds), "--trace",
                          str(args.trace)], deadline)
    except ChildFailed as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2
    res = json.loads(proc.stdout.splitlines()[-1])

    error_rate = res["failed"] / res["attempted"]
    if args.trace:
        values = dict(res["layers"])
        values["cli.import_s"] = statistics.median(r["import_s"] for r in probes)
        values["cli.import_scipy_integrate_s"] = statistics.median(
            r["scipy_integrate_s"] for r in probes)
        values["check.error_rate"] = error_rate
        values["check.digest_changes"] = res["digest_changes"]
        wanted = spec["per_layer"]
    else:
        values = {k: res[k] for k in ("throughput_ops_per_s", "latency_p50_s",
                                      "latency_tail_s", "peak_rss_mb")}
        values["setup_s"] = statistics.median(r["setup_s"] / r["slowdown"]
                                              for r in probes)
        values["ok_share"] = 1.0 - error_rate
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    record = {k: v for k, v in res.items() if k != "layers"}
    record["error_rate"] = error_rate
    record["setup_probes"] = probes
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": res["deterministic"] and not res["check_failed"],
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
