"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public collardiff functions at every module attribute
where callers look them up (``from .collar import thin_boundary`` binds
the function into the importing module as well), so the library itself
is untouched.  Each call records a span: group, start, end, parent span
and, for some groups, process CPU time or a size.  Spans stay in memory;
``totals`` and ``per_round`` turn them into per-layer numbers.

Spans opened on a pool thread have no parent on their own thread; they
are attached to the innermost span open on the main thread, which is the
sweep that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

# (defining module, attribute, group).  An attribute "Class.method" is
# patched on the class.
TARGETS = (
    ("collardiff.collar", "cos_profile_vec", "collar"),
    ("collardiff.collar", "thin_boundary", "collar"),
    ("collardiff.numerics", "adaptive_quad", "numerics.quad"),
    ("collardiff.numerics", "exp_cos2_window", "numerics.window"),
    ("collardiff.numerics", "vec_exp_cos2_window", "numerics.window"),
    ("collardiff.numerics", "exp_cos2_integral", "numerics.window"),
    ("collardiff.sweeps", "decay_sweep", "sweeps"),
    ("collardiff.sweeps", "lp_vanishing_sweep", "sweeps"),
    ("collardiff.sweeps", "principal_mass_sweep", "sweeps"),
    ("collardiff.sweeps", "bij_normalization_check", "sweeps"),
    ("collardiff.sweeps", "draw_coefficients", "sweeps.draw"),
    ("collardiff.laurent", "lp_norm", "laurent.lp_norm"),
    ("collardiff.laurent", "linf_thin", "laurent.linf_thin"),
    ("collardiff.laurent", "l2_norm", "laurent.closed_form"),
    ("collardiff.laurent", "l2_inner", "laurent.closed_form"),
    ("collardiff.laurent", "mode_l2_norm_sq", "laurent.closed_form"),
    ("collardiff.spaces", "w_subspace", "spaces.w_subspace"),
    ("collardiff.spaces", "w_decay_report", "spaces.w_report"),
    ("collardiff.spaces", "mc_inner", "spaces.mc_inner"),
    ("collardiff.cusps", "classify", "cusps.classify"),
    ("collardiff.cusps", "l1_norm", "cusps.l1"),
    ("collardiff.cusps", "l1_norm_quadrature", "cusps.l1"),
    ("collardiff.cusps", "l1_norm_hyperbolic", "cusps.l1"),
    ("collardiff.cusps", "l1_norm_cylinder", "cusps.l1"),
    ("collardiff.topology", "hol_dimension", "topology"),
    ("collardiff.topology", "max_short_geodesics", "topology"),
    ("collardiff.topology", "pinch", "topology"),
    ("collardiff.topology", "degeneration_dims", "topology"),
    ("collardiff.topology", "enumerate_moves", "topology"),
    ("collardiff.report", "Report.render", "report"),
    ("collardiff.report", "Report.to_csv", "report"),
    ("collardiff.report", "Report.to_json", "report"),
)

# Groups whose spans also record process CPU time.
_CPU_GROUPS = {"sweeps"}

# Child groups subtracted from a sweep span to get the sweep's own time:
# what is left is the density engine and the reducers.
_SWEEP_CHILDREN = {"collar", "numerics.quad", "numerics.window",
                   "sweeps.draw"}


class Span:
    __slots__ = ("group", "start", "end", "parent", "cpu", "size", "evals",
                 "failed")

    def __init__(self, group, parent):
        self.group = group
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.cpu = 0.0
        self.size = 0
        self.evals = 0
        self.failed = False


class Tracer:
    """Wraps the TARGETS while installed and records one Span per call."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self.paused = False

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = (self._main_stack
                     if threading.current_thread() is threading.main_thread()
                     else [])
            self._local.stack = stack
        return stack

    def _wrap(self, fn, group):
        tracer = self
        is_quad = group == "numerics.quad"
        is_report = group == "report"
        with_cpu = group in _CPU_GROUPS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(group, parent)
            if is_quad:
                integrand = args[0]

                def counted(*a):
                    span.evals += 1
                    return integrand(*a)
                args = (counted,) + args[1:]
            tracer.spans.append(span)
            stack.append(span)
            cpu0 = time.process_time() if with_cpu else 0.0
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                if with_cpu:
                    span.cpu = time.process_time() - cpu0
                stack.pop()
            if is_report and isinstance(out, str):
                span.size = len(out.encode("utf-8"))
            return out

        return traced

    def install(self) -> None:
        """Patch every binding of each target inside loaded collardiff modules."""
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "collardiff"
                                      or name.startswith("collardiff."))]
        for modname, attr, group in TARGETS:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, orig, self._wrap(orig, group))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(orig, group)
            for m in mods:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, name, orig, wrapped)

    def _patch(self, owner, name, orig, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, orig))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._patches):
            setattr(owner, name, orig)
        self._patches.clear()


def _outermost(spans, group):
    """Spans of ``group`` with no ancestor in the same group."""
    out = []
    for s in spans:
        if s.group != group:
            continue
        p = s.parent
        while p is not None and p.group != group:
            p = p.parent
        if p is None:
            out.append(s)
    return out


def _covered(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _under(span, ancestor) -> bool:
    p = span.parent
    while p is not None:
        if p is ancestor:
            return True
        p = p.parent
    return False


def totals(spans) -> dict:
    """Additive layer totals over ``spans``; ``per_round`` normalizes them."""
    by_group: dict[str, list] = {}
    for s in spans:
        by_group.setdefault(s.group, []).append(s)

    def calls(group):
        return len(by_group.get(group, ()))

    def busy(group):
        return sum(s.end - s.start for s in _outermost(spans, group))

    sweeps = _outermost(spans, "sweeps")
    children = [s for s in spans if s.group in _SWEEP_CHILDREN]
    sweep_self = 0.0
    for sw in sweeps:
        inner = [(c.start, c.end) for c in children if _under(c, sw)]
        sweep_self += (sw.end - sw.start) - _covered(inner)
    quads = by_group.get("numerics.quad", ())
    return {
        "report.render_s": busy("report"),
        "report.bytes": sum(s.size for s in _outermost(spans, "report")),
        "sweeps.busy_s": busy("sweeps"),
        "sweeps.self_s": sweep_self,
        "sweeps.draw_s": busy("sweeps.draw"),
        "sweeps.cpu_s": sum(s.cpu for s in sweeps),
        "numerics.quad_calls": calls("numerics.quad"),
        "numerics.quad_s": busy("numerics.quad"),
        "numerics.integrand_evals": sum(s.evals for s in quads),
        "numerics.quad_failures": sum(s.failed for s in quads),
        "numerics.window_calls": calls("numerics.window"),
        "numerics.window_s": busy("numerics.window"),
        "collar.calls": calls("collar"),
        "collar.busy_s": busy("collar"),
        "laurent.lp_norm_s": busy("laurent.lp_norm"),
        "laurent.lp_norm_calls": calls("laurent.lp_norm"),
        "laurent.linf_thin_s": busy("laurent.linf_thin"),
        "laurent.linf_thin_calls": calls("laurent.linf_thin"),
        "laurent.closed_form_s": busy("laurent.closed_form"),
        "laurent.closed_form_calls": calls("laurent.closed_form"),
        "spaces.w_subspace_s": busy("spaces.w_subspace"),
        "spaces.w_report_s": busy("spaces.w_report"),
        "spaces.mc_inner_calls": calls("spaces.mc_inner"),
        "cusps.classify_s": busy("cusps.classify"),
        "cusps.l1_s": busy("cusps.l1"),
        "topology.busy_s": busy("topology"),
    }


def add_totals(acc: dict, more: dict) -> dict:
    for k, v in more.items():
        acc[k] = acc.get(k, 0) + v
    return acc


def per_round(tot: dict, rounds: int, workers: int) -> dict:
    """Totals divided by the number of traced rounds; sweep CPU time
    becomes a utilization of ``workers`` threads over the sweep wall time."""
    out = {k: v / rounds for k, v in tot.items() if k != "sweeps.cpu_s"}
    wall = tot.get("sweeps.busy_s", 0.0)
    out["sweeps.cpu_util"] = (tot.get("sweeps.cpu_s", 0.0) / (wall * workers)
                              if wall > 0 else 0.0)
    return out
