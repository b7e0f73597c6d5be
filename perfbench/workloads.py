"""Benchmark workloads: inputs made from a seed, the ops of one round,
and the checks every op's output must pass.

A workload is a ``Plan``: a fixed list of ops that the harness runs in
order, round after round, one at a time (a closed loop with one client).
Inputs come only from the seed; the library sees the generated inputs.

Why these workloads:

* ``decay``: ``decay_sweep`` at one worker, n_max 32 and 64, rendered to
  CSV.  The sup-only density path (exp matrix, FFT, max) does nearly all
  the work and no quadrature runs, so changes to the sup and the FFT
  show here.
* ``lp``: ``lp_vanishing_sweep`` (p = 1, 2, 4, inf) at two workers on the
  same seeds.  Same density layer used differently: sum-of-powers
  reducers next to the sup, and the thread-pool path.
* ``library``: many small in-process calls (L^p norms, mode orthogonality,
  cusp classification and L^1 routes, W-subspace work, pinch moves).
  QUADPACK with Python callbacks and single-element ``linf_thin`` calls
  do the work; the sweep engine is bypassed.  One op is the known
  ``lp_norm`` overflow (b_1 = 1e-300, ell = 0.01, thin L^4), which raises
  at the commit that defined the benchmark and so counts as failed.
  BENCHMARK.json leaves it out: a fourth workload does not fit the
  benchmark's total time at run lengths that keep the others steady (see
  README.md).  Its layers are still traced through the cli workload,
  and ``run.py --workload library`` runs it.
* ``cli``: every subcommand as its own ``python -m collardiff.cli``
  process on small inputs, mixing ``--format csv|json`` and ``--out``.
  Start-up (imports) dominates, so only this workload shows import cost.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from collardiff import cli as cd_cli
from collardiff import collar as cg
from collardiff import cusps as cu
from collardiff import laurent as lq
from collardiff import spaces as sp
from collardiff import sweeps as sw
from collardiff import topology as tp

# Reports of the plan built from this seed are compared with golden.json.
GOLDEN_SEED = 0

CSV_SCHEMA = "# collardiff-sweep v1"
CSV_COLUMNS = ["ell", "delta", "statistic", "value", "normalized", "status"]

# Relative slack for ThinSup.sup <= envelope: both sides are rounded
# separately, and for a lone principal mode the sup is attained exactly
# (at s = 0), where the grid value can exceed the envelope by one ulp.
SUP_SLACK = 1e-12

SIZES = {
    "decay": {
        "full": {"ell_grid": (1e-4, 1e-2, 1.0), "delta_grid": (0.3,),
                 "trials": 64, "n_max": (32, 64), "workers": 1},
        "tiny": {"ell_grid": (1e-4, 1.0), "delta_grid": (0.3,),
                 "trials": 4, "n_max": (8, 16), "workers": 1},
    },
    "lp": {
        "full": {"ell_grid": (1e-4, 1e-2), "delta_grid": (0.3,),
                 "trials": 64, "n_max": (32,), "workers": 2},
        "tiny": {"ell_grid": (1e-4, 1e-2), "delta_grid": (0.3,),
                 "trials": 4, "n_max": (8,), "workers": 2},
    },
    "library": {
        "full": {"thin_ells": (0.5, 0.05, 1e-3), "inner_ells": (0.5, 0.05),
                 "pole_orders": (0, 1, 2), "dims": (6, 12, 24),
                 "w_samples": 16, "surfaces": 1},
        "tiny": {"thin_ells": (0.5,), "inner_ells": (0.5,),
                 "pole_orders": (0, 2), "dims": (6,),
                 "w_samples": 4, "surfaces": 1},
    },
    "cli": {
        "full": {"commands": ("collar-info", "topology-dim",
                              "topology-pinch", "qd-norms",
                              "qd-principal-mass", "qd-bij-check",
                              "qd-decay-sweep", "space-project",
                              "space-w-report", "cusp-classify")},
        "tiny": {"commands": ("collar-info", "topology-dim",
                              "cusp-classify")},
    },
}


# --- host-speed references --------------------------------------------------------
# The cores of the shared host this runs on change speed by up to half from
# one minute to the next, while the VM shows no steal time, so whole runs
# of unchanged code differ by that much.  Before each timed op the harness
# times a reference: fixed work of the same kind as the op that runs no
# collardiff code.  Its slowdown (its time over its time on an undisturbed
# host) divides the op's time, which cancels most of the drift.  Both
# nominal times are near the fastest seen on a 2-vCPU Intel Xeon VM.

LOOP_N = 200_000
LOOP_S = 0.0125
START_S = 0.050


def loop_slowdown() -> float:
    """Reference for in-process ops: a pure-Python loop (the sweeps' numpy
    kernels drift with it more closely than with a numpy reference)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_N):
        acc += i * i
    return (time.perf_counter() - t0) / LOOP_S


def start_slowdown(env: dict) -> float:
    """Reference for a CLI process: a bare interpreter start and exit."""
    t0 = time.perf_counter()
    # piped like the CLI ops: without pipes, a wait with a timeout polls
    # in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                   capture_output=True, timeout=60)
    return (time.perf_counter() - t0) / START_S


@dataclass
class Op:
    """One timed call.  ``check`` gets the output and the outputs of the
    round's earlier ops and returns a problem or None; ``text`` gives the
    bytes whose sha256 is the op's digest."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], str | None]
    text: Callable[[object], bytes]
    work: int = 1


@dataclass
class Plan:
    workload: str
    ops: list
    # "round": one latency sample per round (sweeps); "op": one per op.
    latency_unit: str
    workers: int
    sizes: dict
    # cross-checks run once after the timed loop: outputs -> {op: problem}
    finish: Callable[[dict], dict] = lambda outputs: {}
    # per-round sweep counts read from a round's outputs
    counts: Callable[[dict], dict] = lambda outputs: {
        "sweeps.trial_cells": 0, "sweeps.cells_empty": 0}
    # argv of each cli op, for the traced child processes
    argv: dict = field(default_factory=dict)
    # host slowdown now, timed right before each measured op
    reference: Callable[[], float] = loop_slowdown


# --- output parsing and canonical bytes ------------------------------------------

def parse_csv(text: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_SCHEMA:
        raise ValueError("missing CSV schema line")
    rows = list(csv.reader(lines[1:]))
    if not rows or rows[0] != CSV_COLUMNS:
        raise ValueError("bad CSV header")
    return [dict(zip(CSV_COLUMNS, r)) for r in rows[1:]]


def parse_json(text: str) -> list:
    rows = json.loads(text)
    if not isinstance(rows, list) or any(
            not isinstance(r, dict) or set(r) != set(CSV_COLUMNS)
            for r in rows):
        raise ValueError("JSON report is not a list of rows")
    return rows


def _num(x) -> float:
    return float(x) if x not in ("", None) else math.nan


def _utf8(text: str) -> bytes:
    return text.encode("utf-8")


def _canon(out) -> bytes:
    """Exact bytes for a library result: reprs round-trip floats."""
    if isinstance(out, np.ndarray):
        return repr((out.shape, out.dtype.str)).encode() + out.tobytes()
    if isinstance(out, sp.QDSpace):
        return _canon([_canon(e) for e in out.basis]) + out.gram.tobytes()
    if isinstance(out, sp.MultiCollarQD):
        return repr([sorted(p.coeffs.items()) for p in out.parts]).encode()
    if isinstance(out, sw.Report):
        return _utf8(out.to_csv())
    return repr(out).encode()


# --- sweeps ----------------------------------------------------------------------

def _sweep_rows_problem(rows, cfg, stats) -> str | None:
    cells = {}
    for r in rows:
        if r["statistic"] in stats:
            cells.setdefault((r["ell"], r["delta"]), []).append(r)
    if len(cells) != len(cfg.ell_grid) * len(cfg.delta_grid):
        return f"{len(cells)} cells in the report"
    for key, cell in cells.items():
        status = {r["status"] for r in cell}
        if status == {"empty-thin"}:
            continue
        if status != {"ok"} or len(cell) != cfg.trials * len(stats):
            return f"cell {key}: statuses {sorted(status)}, {len(cell)} rows"
        for r in cell:
            v = _num(r["value"])
            if not (math.isfinite(v) and v > 0.0):
                return f"cell {key}: value {r['value']}"
    return None


def _empty_cells(rows) -> int:
    return len({(r["ell"], r["delta"]) for r in rows
                if r["status"] == "empty-thin"})


def _sweep_config(size: dict, seed: int, n_max: int) -> sw.SweepConfig:
    return sw.SweepConfig(ell_grid=size["ell_grid"],
                          delta_grid=size["delta_grid"], n_max=n_max,
                          trials=size["trials"], seed=seed % 2 ** 64)


def _decay_plan(seed: int, size: dict) -> Plan:
    ops = []
    for n_max in size["n_max"]:
        cfg = _sweep_config(size, seed, n_max)

        def check(text, _outputs, cfg=cfg):
            return _sweep_rows_problem(parse_csv(text), cfg, ("linf_ratio",))

        ops.append(Op(f"decay_sweep.n{n_max}",
                      lambda cfg=cfg: sw.decay_sweep(
                          cfg, workers=size["workers"]).render("csv"),
                      check, _utf8, work=_trial_cells(cfg)))

    def counts(outputs):
        return {"sweeps.trial_cells": sum(op.work for op in ops),
                "sweeps.cells_empty": sum(_empty_cells(parse_csv(outputs[op.name]))
                                          for op in ops)}

    return Plan("decay", ops, "round", size["workers"], dict(size),
                counts=counts)


def _trial_cells(cfg: sw.SweepConfig) -> int:
    return len(cfg.ell_grid) * len(cfg.delta_grid) * cfg.trials


_LP_STATS = ("lp_ratio_p1", "lp_ratio_p2", "lp_ratio_p4", "lp_ratio_pinf")


def _lp_plan(seed: int, size: dict) -> Plan:
    cfg = _sweep_config(size, seed, size["n_max"][0])
    workers = size["workers"]
    name = "lp_vanishing_sweep"

    def check(text, _outputs):
        return _sweep_rows_problem(parse_json(text), cfg, _LP_STATS)

    def finish(outputs):
        # The p = inf rows reproduce decay_sweep's linf_ratio rows bit for bit.
        lp = [float(r["value"]).hex() for r in parse_json(outputs[name])
              if r["statistic"] == "lp_ratio_pinf" and r["status"] == "ok"]
        decay = [float(r.value).hex()
                 for r in sw.decay_sweep(cfg, workers=1).rows
                 if r.statistic == "linf_ratio" and r.status == "ok"]
        return {} if lp == decay else {name: "lp_ratio_pinf != linf_ratio"}

    op = Op(name, lambda: sw.lp_vanishing_sweep(cfg, workers=workers)
            .render("json"), check, _utf8, work=_trial_cells(cfg))

    def counts(outputs):
        return {"sweeps.trial_cells": op.work,
                "sweeps.cells_empty": _empty_cells(parse_json(outputs[name]))}

    return Plan("lp", [op], "round", workers, dict(size), finish=finish,
                counts=counts)


# --- library ---------------------------------------------------------------------

def _cnormal(rng) -> complex:
    return complex(rng.standard_normal(), rng.standard_normal())


def _unit_mode_qd(rng, c, modes, win) -> lq.LaurentQD:
    """Random differential whose modes each have unit L^2 norm on ``win``;
    modes whose scale is not representable are left out."""
    coeffs = {}
    for n in modes:
        g = _cnormal(rng)
        m = lq.mode_l2_norm_sq(c, n, win)
        if math.isfinite(m) and m > 0.0 and g / math.sqrt(m) != 0:
            coeffs[n] = g / math.sqrt(m)
    return lq.LaurentQD(c, coeffs)


def _rel_close(a: float, b: float, rel: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _positive(out, _outputs):
    return None if math.isfinite(out) and out > 0.0 else f"value {out!r}"


def _general(g: int, k: int) -> bool:
    return 2 * g + k > 2


def _valid_moves(components) -> set:
    """Pinch moves by the rule in the topology docstring, computed here
    independently of topology.enumerate_moves."""
    out = set()
    for ci, (g, k) in enumerate(components):
        if g >= 1 and _general(g - 1, k + 2):
            out.add((ci, tp.NONSEPARATING, None))
        for g1 in range(g + 1):
            for k1 in range(k + 1):
                a, b = (g1, k1), (g - g1, k - k1)
                if a <= b and _general(g1, k1 + 1) \
                        and _general(b[0], b[1] + 1):
                    out.add((ci, tp.SEPARATING, (a, b)))
    return out


def _apply(components, move) -> tuple:
    ci, kind, split = move
    comps = list(components)
    g, k = comps[ci]
    if kind == tp.NONSEPARATING:
        comps[ci] = (g - 1, k + 2)
    else:
        (g1, k1), (g2, k2) = split
        comps[ci:ci + 1] = [(g1, k1 + 1), (g2, k2 + 1)]
    return tuple(comps)


def _hol_dim(components) -> int:
    return sum(3 * (g - 1) + k for g, k in components)


def _random_degeneration(rng, components) -> list:
    """A full pinch script: random valid moves until none is left."""
    script = []
    while True:
        moves = sorted(_valid_moves(components), key=repr)
        if not moves:
            return script
        move = moves[int(rng.integers(len(moves)))]
        script.append(move)
        components = _apply(components, move)


def _library_plan(seed: int, size: dict) -> Plan:
    rng = np.random.default_rng(seed)
    ops = []

    # L^p norms next to the closed-form L^2 norm on delta = 0.4 thin windows
    for ell in size["thin_ells"]:
        c = cg.CollarParams(ell)
        xd = cg.thin_boundary(c, 0.4).x_delta
        thin = lq.SubCollar(-xd, xd)
        q = _unit_mode_qd(rng, c, range(-4, 5), thin)
        tag = f"ell{ell:g}"

        def l2_route(out, outputs, tag=tag):
            closed = outputs[f"l2_norm.{tag}"]
            return (None if _rel_close(out, closed, 1e-8)
                    else f"lp_norm(p=2) {out!r} vs l2_norm {closed!r}")

        def under_envelope(out, _outputs):
            return (None if 0.0 < out.sup <= out.envelope * (1.0 + SUP_SLACK)
                    else f"sup {out.sup!r} vs envelope {out.envelope!r}")

        ops += [
            Op(f"l2_norm.{tag}", lambda q=q, w=thin: lq.l2_norm(q, w),
               _positive, _canon),
            Op(f"lp_norm.p1.{tag}", lambda q=q, w=thin: lq.lp_norm(q, 1.0, w),
               _positive, _canon),
            Op(f"lp_norm.p2.{tag}", lambda q=q, w=thin: lq.lp_norm(q, 2.0, w),
               l2_route, _canon),
            Op(f"lp_norm.p4.{tag}", lambda q=q, w=thin: lq.lp_norm(q, 4.0, w),
               _positive, _canon),
            Op(f"linf_thin.{tag}", lambda q=q: lq.linf_thin(q, 0.4),
               under_envelope, _canon),
        ]

    # Known defect: dens**p overflows although the thin L^4 norm is ~1e125.
    c = cg.CollarParams(0.01)
    xd = cg.thin_boundary(c, 0.4).x_delta
    q = lq.LaurentQD(c, {1: 1e-300})
    ops.append(Op("lp_norm.p4.overflow",
                  lambda q=q, w=lq.SubCollar(-xd, xd): lq.lp_norm(q, 4.0, w),
                  _positive, _canon))

    # quadrature-only mode orthogonality on a sub-window at a random
    # place; a fixed width keeps the quadrature effort the same per seed
    for ell in size["inner_ells"]:
        c = cg.CollarParams(ell)
        x = c.half_length
        s1 = float(rng.uniform(-x, x - 6.0))
        win = lq.SubCollar(s1, s1 + 6.0)

        def orthonormal(out, _outputs):
            off = np.max(np.abs(out - np.diag(np.diag(out))))
            diag = np.max(np.abs(np.diag(out) - 1.0))
            return (None if off <= 1e-10 and diag <= 1e-10
                    else f"off-diagonal {off:.3g}, diagonal error {diag:.3g}")

        ops.append(Op(f"mode_inner_quadrature_ratios.ell{ell:g}",
                      lambda c=c, w=win: lq.mode_inner_quadrature_ratios(
                          c, range(-4, 5), w),
                      orthonormal, _canon))

    # cusp germs: classification and the three L^1 routes
    for pole in size["pole_orders"]:
        g = cu.PunctureGerm({k: _cnormal(rng) for k in range(-pole, 3)})
        tag = f"pole{pole}"

        def agree(out, _outputs, pole=pole):
            return (None if out.agree and out.simple_pole_or_better == (pole <= 1)
                    else f"classification {out}")

        def routes_agree(out, outputs, tag=tag):
            vals = [outputs[f"l1.{r}.{tag}"] for r in ("first", "hyperbolic")]
            vals.append(out)
            return (None if all(_rel_close(v, vals[0], 1e-8) for v in vals)
                    else f"L^1 routes disagree: {vals}")

        # the polar quadrature route refuses divergent germs; l1_norm
        # reports +inf for them instead
        first = cu.l1_norm_quadrature if pole <= 1 else cu.l1_norm
        ops += [
            Op(f"classify.{tag}", lambda g=g: cu.classify(g), agree, _canon),
            Op(f"l1.first.{tag}", lambda g=g, f=first: f(g),
               lambda out, _o: None, _canon),
            Op(f"l1.hyperbolic.{tag}", lambda g=g: cu.l1_norm_hyperbolic(g),
               lambda out, _o: None, _canon),
            Op(f"l1.cylinder.{tag}", lambda g=g: cu.l1_norm_cylinder(g),
               routes_agree, _canon),
        ]

    # W-subspace, projection and the W decay report
    for dim in size["dims"]:
        # ell < 2 * 0.25 keeps both thin parts of the report nonempty, and
        # ell > 0.35 keeps every mode up to n_max = 12 representable
        ells = sorted(float(e) for e in rng.uniform(0.35, 0.48, size=2))
        collars = [cg.CollarParams(e) for e in ells]
        n_max = (dim + 1) // 2
        modes = range(-n_max, n_max + 1)

        def element():
            return sp.MultiCollarQD([_unit_mode_qd(rng, c, modes,
                                                   lq.full_window(c))
                                     for c in collars])

        space = sp.QDSpace([element() for _ in range(dim)])
        psi = element()
        w_seed = int(rng.integers(2 ** 32))

        def w_ok(out, _outputs, dim=dim):
            if out.dim != dim - 2:
                return f"W has dimension {out.dim}"
            if any(0 in p.coeffs for e in out.basis for p in e.parts):
                return "W element with a principal part"
            err = np.max(np.abs(out.gram - np.eye(out.dim)))
            return None if err <= 1e-9 else f"W Gram off identity by {err:.3g}"

        def proj_ok(out, _outputs):
            return (None if all(0 not in p.coeffs for p in out.parts)
                    else "projection has a principal part")

        def report_ok(out, _outputs):
            if len(out.rows) != 1:
                return f"{len(out.rows)} rows for one delta"
            for r in out.rows:
                want = r.value * r.delta ** 2 * math.exp(math.pi / r.delta)
                if not (r.status == "ok" and r.value > 0.0
                        and _rel_close(r.normalized, want, 1e-12)):
                    return f"bad row {r}"
            return None

        tag = f"dim{dim}"
        ops += [
            Op(f"w_subspace.{tag}", lambda s=space: sp.w_subspace(s),
               w_ok, _canon),
            Op(f"project_onto_w.{tag}",
               lambda s=space, p=psi: sp.project_onto_w(s, p), proj_ok, _canon),
        ]
        # one report per delta: two of the heaviest ops per round keep the
        # tail percentile inside one cluster of samples
        ops += [Op(f"w_decay_report.{tag}.delta{d:g}",
                   lambda s=space, d=d, k=w_seed: sp.w_decay_report(
                       s, (d,), samples=size["w_samples"], seed=k),
                   report_ok, _canon)
                for d in (0.25, 0.5)]

    # pinch bookkeeping
    for i in range(size["surfaces"]):
        comps = tuple((int(rng.integers(2, 5)), int(rng.integers(0, 3)))
                      for _ in range(2))
        surface = tp.SurfaceTopology(comps)
        script = _random_degeneration(rng, comps)
        moves = [tp.PinchMove(ci, kind, split) for ci, kind, split in script]
        d0 = _hol_dim(comps)

        def moves_ok(out, _outputs, comps=comps):
            got = {(m.component, m.kind, m.split) for m in out}
            return (None if got == _valid_moves(comps) and len(got) == len(out)
                    else "enumerate_moves differs from the pinch rule")

        def dims_ok(out, _outputs, d0=d0, n=len(moves)):
            want = [d0 - j for j in range(1, n + 1)]
            return None if out == want else f"dims {out} != {want}"

        ops += [
            Op(f"enumerate_moves.{i}", lambda t=surface: tp.enumerate_moves(t),
               moves_ok, _canon),
            Op(f"degeneration_dims.{i}",
               lambda t=surface, m=moves: tp.degeneration_dims(t, m),
               dims_ok, _canon),
        ]

    return Plan("library", ops, "op", 1, dict(size))


# --- cli ---------------------------------------------------------------------------

def _qd_json(rng, modes, scale=0.5) -> list:
    return [{"n": n, "re": float(rng.standard_normal()) * scale ** abs(n),
             "im": float(rng.standard_normal()) * scale ** abs(n)}
            for n in modes]


def _cli_inputs(rng, workdir: str) -> dict:
    """Seeded CLI command lines; input files are written to ``workdir``."""

    def put(name, data):
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        return path

    def out(name):
        return os.path.join(workdir, name)

    ell = f"{rng.uniform(0.05, 1.5):.6f}"
    comps = tuple((int(rng.integers(2, 5)), int(rng.integers(0, 3)))
                  for _ in range(2))
    surface = ";".join(f"{g},{k}" for g, k in comps)
    script = _random_degeneration(rng, comps)[:4]
    moves = put("moves.json", [
        {"component": ci, "kind": kind}
        | ({"split": [list(split[0]), list(split[1])]} if split else {})
        for ci, kind, split in script])
    coeffs = put("coeffs.json", _qd_json(rng, range(-3, 4)))
    # ell < 0.7 keeps the delta 0.4 thin window non-empty, so lp_norm runs
    q_ell = f"{rng.uniform(0.3, 0.7):.6f}"
    space_ells = sorted(float(f"{e:.6f}") for e in rng.uniform(0.2, 1.0, 2))
    space = put("space.json", {
        "collars": space_ells,
        "basis": [[_qd_json(rng, range(-2, 3)) for _ in space_ells]
                  for _ in range(4)]})
    target = put("target.json", [_qd_json(rng, range(-2, 3))
                                 for _ in space_ells])
    pole = int(rng.integers(0, 3))
    germ = put("germ.json", [{"k": k, "re": float(rng.standard_normal()),
                              "im": float(rng.standard_normal())}
                             for k in range(-pole, 3)])
    seed = str(int(rng.integers(2 ** 32)))
    return {
        "collar-info": ["collar", "info", ell, "--delta", "0.2",
                        "--delta", "0.4"],
        "topology-dim": ["topology", "dim", surface],
        "topology-pinch": ["--format", "json", "--out", out("pinch.json"),
                           "topology", "pinch", surface, "--moves", moves],
        "qd-norms": ["--format", "json", "qd", "norms", "--coeffs", coeffs,
                     "--ell", q_ell, "--delta", "0.4"],
        "qd-principal-mass": ["qd", "principal-mass", "--ell-grid",
                              "log:1e-4:1:9", "--delta-grid",
                              "lin:0.1:0.6:4"],
        "qd-bij-check": ["qd", "bij-check", "--b0",
                         f"pow:{int(rng.integers(1, 4))}", "--ell-grid",
                         "log:1e-4:1:9"],
        "qd-decay-sweep": ["--seed", seed, "--out", out("decay.csv"), "qd",
                           "decay-sweep", "--ell-grid", "1e-3,0.1",
                           "--delta-grid", "0.3", "--trials", "8"],
        "space-project": ["space", "project", space, target],
        "space-w-report": ["--seed", seed, "--format", "json", "--out",
                           out("w.json"), "space", "w-report", space,
                           "--delta", "0.2", "--delta", "0.5",
                           "--samples", "8"],
        "cusp-classify": ["cusp", "classify", germ],
    }


def _out_path(argv) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_cli_subprocess(argv, env, prefix=None) -> tuple:
    """Run one CLI call as its own process; returns (exit code, report)."""
    path = _out_path(argv)
    if path and os.path.exists(path):
        os.remove(path)
    cmd = (prefix or [sys.executable, "-m", "collardiff.cli"]) + list(argv)
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    text = proc.stdout.decode("utf-8")
    if path and proc.returncode == 0:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return proc.returncode, text


def run_cli_inprocess(argv) -> tuple:
    path = _out_path(argv)
    if path and os.path.exists(path):
        os.remove(path)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cd_cli.main(list(argv))
    text = buf.getvalue()
    if path and rc == 0:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    return rc, text


def _cli_check(name, argv):
    as_json = "--format" in argv and argv[argv.index("--format") + 1] == "json"

    def check(out, _outputs):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        if name == "topology-dim":
            int(text)
        elif as_json:
            parse_json(text)
        else:
            parse_csv(text)
        return None
    return check


def _cli_plan(seed: int, size: dict, root: str, workdir: str,
              inprocess: bool) -> Plan:
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    argvs = _cli_inputs(rng, workdir)
    env = cli_env(root)
    ops = []
    for name in size["commands"]:
        argv = argvs[name]
        call = ((lambda a=argv: run_cli_inprocess(a)) if inprocess
                else (lambda a=argv: run_cli_subprocess(a, env)))
        ops.append(Op(name, call, _cli_check(name, argv),
                      lambda out: _utf8(out[1])))
    return Plan("cli", ops, "op", 1, dict(size),
                argv={n: argvs[n] for n in size["commands"]},
                reference=lambda: start_slowdown(env))


def build(workload: str, seed: int, size_name: str, root: str, workdir: str,
          inprocess: bool = False) -> Plan:
    """The plan of ``workload`` for ``seed``; ``inprocess`` runs cli
    commands through ``collardiff.cli.main`` instead of new processes."""
    size = SIZES[workload][size_name]
    if workload == "decay":
        return _decay_plan(seed, size)
    if workload == "lp":
        return _lp_plan(seed, size)
    if workload == "library":
        return _library_plan(seed, size)
    if workload == "cli":
        return _cli_plan(seed, size, root, workdir, inprocess)
    raise ValueError(f"unknown workload {workload!r}")
