"""One workload in a fresh process: set-up probe or measured run.

    python3 perfbench/worker.py --workload W --seed N --size full --setup-only
    python3 perfbench/worker.py --workload W --seed N --size full \
        --seconds S --trace 0|1

Run from the repository root with ``src`` on PYTHONPATH (run.py does
this).  Prints one JSON object on stdout.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _workdir(tag: str) -> str:
    return os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")


def setup_probe(args) -> dict:
    """Time a fresh interpreter's ``import collardiff.cli`` plus input
    generation, as a user of the library pays it, and then the host's
    slowdown on a bare interpreter start (workloads.start_slowdown)."""
    import collardiff.cli  # noqa: F401
    t_import = time.perf_counter()
    import workloads
    workdir = _workdir("setup")
    try:
        workloads.build(args.workload, args.seed, args.size, ROOT, workdir)
        t_ready = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    slowdown = workloads.start_slowdown(workloads.cli_env(ROOT))
    return {"import_s": t_import - T0, "setup_s": t_ready - T0,
            "slowdown": slowdown}


class Run:
    """Outcome of every op of one measured run."""

    def __init__(self, plan):
        self.plan = plan
        self.tracer = None          # set while a traced loop runs
        self.latencies = []         # op (or round) times as measured
        self.scaled = []            # the same divided by the slowdown
        self.slowdowns = []
        self.scaled_op_s = 0.0      # summed scaled op time of kept rounds
        self.attempted = 0
        self.failed = 0
        self.problems = {}          # op name -> first problem seen
        self.digests = {}           # op name -> set of sha256 seen
        self.first_outputs = None
        self.check_failed = False

    def _harness(self):
        # checks and digests call into the library; keep them out of spans
        if self.tracer is not None:
            self.tracer.paused = True

    def _resume(self):
        if self.tracer is not None:
            self.tracer.paused = False

    def round(self, keep: bool) -> float:
        """Run every op once; returns the summed op time.  Kept rounds
        time the host reference before each op and record latencies."""
        outputs = {}
        total = scaled = 0.0
        for op in self.plan.ops:
            slowdown = self.plan.reference() if keep else 1.0
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a raising op is a failed op
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            total += dt
            scaled += dt / slowdown
            self._harness()
            if err is None:
                try:
                    err = op.check(out, outputs)
                except Exception as exc:  # unparsable output
                    err = f"check raised {type(exc).__name__}: {exc}"
                if err is not None:
                    self.check_failed = True
                else:
                    digest = hashlib.sha256(op.text(out)).hexdigest()
                    self.digests.setdefault(op.name, set()).add(digest)
            self._resume()
            self.attempted += op.work
            if err is not None:
                self.failed += op.work
                self.problems.setdefault(op.name, err)
            outputs[op.name] = out
            if keep:
                self.slowdowns.append(slowdown)
            if keep and self.plan.latency_unit == "op":
                self.latencies.append(dt)
                self.scaled.append(dt / slowdown)
        if keep:
            self.scaled_op_s += scaled
        if keep and self.plan.latency_unit == "round":
            self.latencies.append(total)
            self.scaled.append(scaled)
        if self.first_outputs is None:
            self.first_outputs = outputs
        return total

    def loop(self, seconds: float, keep: bool = True) -> tuple:
        """Whole rounds until ``seconds`` have passed:
        (rounds, wall, summed op time)."""
        start = time.perf_counter()
        rounds = 0
        op_s = 0.0
        while True:
            op_s += self.round(keep)
            rounds += 1
            wall = time.perf_counter() - start
            if wall >= seconds:
                return rounds, wall, op_s

    def finish(self) -> None:
        """Cross-checks on the first round's outputs, untimed."""
        self._harness()
        for name, problem in self.plan.finish(self.first_outputs).items():
            op = next(o for o in self.plan.ops if o.name == name)
            self.check_failed = True
            self.problems.setdefault(name, problem)
            # every round of the op repeated the same inputs
            rounds = self.attempted // sum(o.work for o in self.plan.ops)
            self.failed += op.work * rounds
        self._resume()

    @property
    def deterministic(self) -> bool:
        return all(len(d) == 1 for d in self.digests.values())


def golden_digests(workload, size) -> dict:
    """sha256 of every report the golden-seed plan emits, run once."""
    import workloads
    workdir = _workdir("golden")
    try:
        plan = workloads.build(workload, workloads.GOLDEN_SEED, size, ROOT,
                               workdir, inprocess=True)
        run = Run(plan)
        run.round(keep=False)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {name: sorted(d)[0] for name, d in run.digests.items()}


def golden_changes(workload, size) -> list:
    """Names of golden-seed reports whose sha256 differs from golden.json."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh).get(workload, {}).get(size, {})
    seen = golden_digests(workload, size)
    return sorted(name for name in set(golden) | set(seen)
                  if seen.get(name) != golden.get(name))


def percentile_tail(samples) -> tuple:
    """Highest sample with at least ten samples beyond it, and its
    percentile; the maximum when there are too few samples."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def provenance(args, plan) -> dict:
    import click  # noqa: F401
    import importlib.metadata as md
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "click": md.version("click"),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "inputs": plan.sizes,
        "ops_per_round": len(plan.ops),
        "work_per_round": sum(op.work for op in plan.ops),
    }


def _git_commit():
    """HEAD of the checkout's own .git, if it has one (never searches
    parent directories)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        return None
    return None


def _source_digest() -> str:
    """sha256 over the package sources, so two results can be matched to
    the same code without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "collardiff")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _traced_cli_loop(run, seconds, workdir) -> tuple:
    """cli rounds whose processes run under the tracer (cli_child.py)."""
    import tracer as tr
    import workloads
    env = workloads.cli_env(ROOT)
    child = [sys.executable, os.path.join(HERE, "cli_child.py")]
    acc, exec_times, rounds, nonzero, op_s = {}, [], 0, 0, 0.0
    start = time.perf_counter()
    while True:
        for op in run.plan.ops:
            spans_file = os.path.join(workdir, "spans.json")
            t0 = time.perf_counter()
            rc, _ = workloads.run_cli_subprocess(
                run.plan.argv[op.name], env, prefix=child + [spans_file])
            dt = time.perf_counter() - t0
            op_s += dt
            if rc != 0:
                nonzero += 1
                run.failed += 1
                run.problems.setdefault(op.name, f"traced exit code {rc}")
            run.attempted += 1
            with open(spans_file, encoding="utf-8") as fh:
                rec = json.load(fh)
            exec_times.append(dt - rec.pop("import_s"))
            tr.add_totals(acc, rec)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            layers = tr.per_round(acc, rounds, 1)
            layers["cli.exec_s"] = statistics.fmean(exec_times)
            layers["cli.exit_nonzero"] = nonzero / rounds
            return rounds, op_s, layers


def _traced_loop(run, seconds, _workdir) -> tuple:
    """In-process rounds under the span tracer."""
    import tracer as tr
    tracer = tr.Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        rounds, _wall, op_s = run.loop(seconds, keep=False)
    finally:
        tracer.uninstall()
        run.tracer = None
    layers = tr.per_round(tr.totals(tracer.spans), rounds, run.plan.workers)
    layers["cli.exec_s"] = 0.0
    layers["cli.exit_nonzero"] = 0.0
    return rounds, op_s, layers


def measured(args) -> dict:
    import workloads
    changed = golden_changes(args.workload, args.size)   # also warms up
    workdir = _workdir("run")
    try:
        plan = workloads.build(args.workload, args.seed, args.size, ROOT,
                               workdir)
        run = Run(plan)
        span = args.seconds / 2 if args.trace else args.seconds
        rounds, wall, op_s = run.loop(span)
        who = (resource.RUSAGE_CHILDREN if plan.workload == "cli"
               else resource.RUSAGE_SELF)
        rss = resource.getrusage(who).ru_maxrss
        layers = None
        if args.trace:
            traced = (_traced_cli_loop if plan.workload == "cli"
                      else _traced_loop)
            t_rounds, t_op_s, layers = traced(run, span, workdir)
            layers["trace.overhead_ratio"] = ((t_op_s / t_rounds)
                                              / (op_s / rounds))
            layers.update(plan.counts(run.first_outputs))
        run.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tail, tail_pct = percentile_tail(run.scaled)
    work = rounds * sum(op.work for op in plan.ops)
    return {
        "provenance": provenance(args, plan),
        "rounds": rounds,
        "wall_s": wall,
        "throughput_ops_per_s": work / run.scaled_op_s,
        "latency_p50_s": statistics.median(run.scaled),
        "latency_tail_s": tail,
        # the same, unscaled, and the host slowdown they were divided by
        "measured": {"throughput_ops_per_s": work / op_s,
                     "latency_p50_s": statistics.median(run.latencies),
                     "latency_tail_s": percentile_tail(run.latencies)[0],
                     "slowdown_p50": statistics.median(run.slowdowns)},
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(run.latencies),
        "latency_unit": plan.latency_unit,
        "peak_rss_mb": rss / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "deterministic": run.deterministic,
        "check_failed": run.check_failed,
        "digest_changes": len(changed),
        "digests_changed": changed,
        "layers": layers,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    sys.path.insert(0, HERE)
    out = setup_probe(args) if args.setup_only else measured(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
