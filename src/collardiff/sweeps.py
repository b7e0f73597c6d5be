"""Degeneration experiments: pinching sweeps over (ell, delta) grids.

Every sweep walks a grid of collars and thin windows and emits a
:class:`~collardiff.report.Report`.  Cells are independent, seeded from
(seed, ell-index, delta-index, trial), and evaluated in deterministic
grid order, so output bytes do not depend on the worker count.

Random trial differentials never materialize raw Laurent coefficients:
at ell = 1e-4 the coefficient law e^{-|n|X} is far below the smallest
double, so each cell works with the scaled draws g_n and carries the
e^{-|n|X} factor inside anchored-exponent integrals and density
evaluations, where it combines with e^{+|n|s}-type terms into
representable exponents.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .collar import (CollarParams, DEFAULT_DELTA0, DELTA_MAX, ELL_MAX,
                     cos_profile_vec, thin_boundary, validate_delta0)
from .errors import ValidationError
from .laurent import (DensityRows, SubCollar, _norm_const, full_window,
                      mode_l2_norm_sq)
from .numerics import exp_cos2_window
from .report import (Report, ReportRow, STATUS_EMPTY, STATUS_FAILED,
                     STATUS_OK)

#: C0 = 32 pi^5: thin L^2 mass of the principal differential is C0/ell^3 + O(delta^-3)
PRINCIPAL_MASS_CONSTANT = 32.0 * math.pi ** 5

DEFAULT_ELL_GRID = tuple(float(x) for x in np.logspace(-4.0, 0.0, 25))
DEFAULT_DELTA_GRID = tuple(float(x) for x in np.linspace(0.05, 0.8, 16))

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
# geometric panel cuts, as fractions of the covered depth from the thin edge
_PANEL_FRACTIONS = (0.0, 1e-5, 1e-4, 1e-3, 0.01, 0.05, 0.15, 0.35, 0.65, 1.0)
_EDGE_DEPTH = 40.0   # e^{-40}: deeper contributions are below double noise
_LP_CHUNK = 48       # s-nodes per partial sum, rows per gemv in _row_dots


def _strictly_increasing(xs) -> bool:
    return all(a < b for a, b in zip(xs, xs[1:]))


@dataclass(frozen=True)
class SweepConfig:
    ell_grid: tuple = DEFAULT_ELL_GRID
    delta_grid: tuple = DEFAULT_DELTA_GRID
    delta0: float = DEFAULT_DELTA0
    n_max: int = 32
    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        ells = tuple(float(x) for x in self.ell_grid)
        deltas = tuple(float(x) for x in self.delta_grid)
        object.__setattr__(self, "ell_grid", ells)
        object.__setattr__(self, "delta_grid", deltas)
        if not ells or not deltas:
            raise ValidationError("sweep grids must be nonempty")
        if not all(0.0 < x <= ELL_MAX and math.isfinite(x) for x in ells):
            raise ValidationError(
                f"core lengths must lie in (0, {ELL_MAX:.6g}]")
        if not all(0.0 < d < DELTA_MAX for d in deltas):
            raise ValidationError(
                f"delta grid must lie in (0, {DELTA_MAX:.6g})")
        if not (_strictly_increasing(ells) and _strictly_increasing(deltas)):
            raise ValidationError("sweep grids must be strictly increasing")
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise ValidationError("n_max must be a positive integer")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ValidationError("trials must be a positive integer")
        if not isinstance(self.seed, int) or not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        validate_delta0(self.delta0, ell_values=ells)


def interleaved_modes(n_max: int) -> np.ndarray:
    """Nonzero modes ordered 1, -1, 2, -2, ...

    Drawing coefficients in this order makes the random stream for
    n_max a prefix of the stream for any larger n_max, so truncation
    comparisons see the same low modes.
    """
    ns = np.empty(2 * n_max, dtype=np.int64)
    ns[0::2] = np.arange(1, n_max + 1)
    ns[1::2] = -np.arange(1, n_max + 1)
    return ns


def draw_coefficients(seed: int, li: int, di: int, trial: int,
                      count: int) -> np.ndarray:
    """Scaled coefficient draws g_n for one cell trial (law: the raw
    coefficient is g_n e^{-|n|X})."""
    ss = np.random.SeedSequence(seed, spawn_key=(li, di, trial))
    z = np.random.default_rng(ss).standard_normal(2 * count)
    return z[0::2] + 1j * z[1::2]


def _window_weights(c: CollarParams, ns: np.ndarray, windows) -> np.ndarray:
    """Per-mode L^2 weights sum_w integral_w e^{2 n s} cos^2(b s) ds,
    times the e^{-2|n|X} law factor and the 32 pi^3/ell^2 constant.

    Every exponent is assembled as 2(n*anchor - |n|X) <= 0 before
    exponentiation, so underflow is the only rounding mode and it is
    the honest one.
    """
    X = c.half_length
    t = np.zeros(ns.size)
    for s1, s2 in windows:
        vals, anchors = exp_cos2_window(2.0 * ns, c.freq, s1, s2)
        t += vals * np.exp(2.0 * (ns * anchors - np.abs(ns) * X))
    return _norm_const(c) * t


def _thick_windows(c: CollarParams, delta0: float):
    w0 = thin_boundary(c, delta0)
    X = c.half_length
    if w0.empty:
        return [(-X, X)]
    return [(w0.x_delta, X), (-X, -w0.x_delta)]


def _normalized_draws(cfg: SweepConfig, c: CollarParams, li: int, di: int,
                      ns: np.ndarray) -> np.ndarray:
    """Trial coefficient matrix with unit L^2 norm on the delta0-thick part."""
    t = _window_weights(c, ns, _thick_windows(c, cfg.delta0))
    G = np.stack([draw_coefficients(cfg.seed, li, di, trial, ns.size)
                  for trial in range(cfg.trials)])
    norms = np.sqrt(_row_dots(np.abs(G) ** 2, t))
    return G / norms[:, None]


def _sup_nodes(x_delta: float) -> np.ndarray:
    """s-grid for thin sups: clustered at both thin-boundary edges (every
    single mode peaks exactly there) with a sparse bridge across."""
    cap = min(x_delta, _EDGE_DEPTH)
    u = cap * np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 96)])
    right = x_delta - u
    bridge = np.linspace(-x_delta, x_delta, 19)[1:-1]
    return np.unique(np.concatenate([right, -right, bridge]))


def _density_max(Gt: np.ndarray, ns: np.ndarray, c: CollarParams,
                 s_nodes: np.ndarray, n_theta: int) -> np.ndarray:
    """Per-trial sup of |phi| * 2 rho^{-2} over s_nodes x theta grid (exact,
    see DensityRows.sup); the law factor e^{-|n|X} enters as the log-scale."""
    pref = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
        * cos_profile_vec(c, s_nodes) ** 2
    return DensityRows(Gt, ns, -np.abs(ns) * c.half_length, s_nodes, pref,
                       n_theta).sup()


def _cell_sups(cfg: SweepConfig, c: CollarParams, li: int, di: int,
               x_delta: float, ns: np.ndarray) -> np.ndarray:
    Gt = _normalized_draws(cfg, c, li, di, ns)
    n_theta = max(256, 8 * cfg.n_max)
    return _density_max(Gt, ns, c, _sup_nodes(x_delta), n_theta)


def _envelope(delta: float) -> float:
    return delta * delta * math.exp(math.pi / delta)


def _trial_row(ell: float, delta: float, statistic: str, value: float,
               env: float) -> ReportRow:
    """One trial's row; a non-finite value is reported as non-converged."""
    status = STATUS_OK if math.isfinite(value) else STATUS_FAILED
    return ReportRow(ell, delta, statistic, value, value * env, status)


# --- decay of zero-principal differentials into the thin part ------------------

def _decay_cell(cfg: SweepConfig, li: int, di: int) -> list:
    ell, delta = cfg.ell_grid[li], cfg.delta_grid[di]
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    if win.empty:
        return [ReportRow(ell, delta, "linf_ratio", 0.0, 0.0, STATUS_EMPTY)]
    sups = _cell_sups(cfg, c, li, di, win.x_delta,
                      interleaved_modes(cfg.n_max))
    env = _envelope(delta)
    return [_trial_row(ell, delta, "linf_ratio", float(s), env) for s in sups]


def _run_cells(cfg: SweepConfig, cell_fn, workers: int) -> list:
    cells = [(li, di) for li in range(len(cfg.ell_grid))
             for di in range(len(cfg.delta_grid))]
    if workers <= 1:
        chunks = [cell_fn(cfg, li, di) for li, di in cells]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda cell: cell_fn(cfg, *cell), cells))
    return [row for chunk in chunks for row in chunk]


def _append_max_row(rows: list, statistic: str, name: str) -> None:
    best = None
    for r in rows:
        if r.statistic == statistic and r.status == STATUS_OK \
                and (best is None or r.normalized > best.normalized):
            best = r
    if best is None:
        rows.append(ReportRow(math.nan, math.nan, name, 0.0, 0.0,
                              STATUS_EMPTY))
    else:
        rows.append(ReportRow(best.ell, best.delta, name, best.value,
                              best.normalized))


def decay_sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """Thin-part sups of random unit-norm zero-principal differentials.

    One ``linf_ratio`` row per (ell, delta, trial): value is the sup of
    the pointwise size over the delta-thin part (the differential has
    unit L^2 norm on the delta0-thick part, so this is already the
    ratio), and the normalized column multiplies by delta^2 e^{pi/delta}.
    The decay estimate says the normalized column is bounded by one
    constant; the final ``max_normalized`` row reports that constant's
    empirical value and the cell attaining it.
    """
    rows = _run_cells(cfg, _decay_cell, workers)
    _append_max_row(rows, "linf_ratio", "max_normalized")
    return Report(rows)


# --- principal-mode mass concentration ------------------------------------------

def _principal_cell(cfg: SweepConfig, li: int, di: int) -> list:
    ell, delta = cfg.ell_grid[li], cfg.delta_grid[di]
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    if win.empty:
        return [
            ReportRow(ell, delta, "principal_thin_mass", 0.0, 0.0,
                      STATUS_EMPTY),
            ReportRow(ell, delta, "principal_mass_fraction", 0.0, 0.0,
                      STATUS_EMPTY),
        ]
    thin = mode_l2_norm_sq(c, 0, SubCollar(-win.x_delta, win.x_delta))
    full = mode_l2_norm_sq(c, 0, full_window(c))
    scaled = ell ** 3 * thin
    return [
        ReportRow(ell, delta, "principal_thin_mass", scaled,
                  scaled / PRINCIPAL_MASS_CONSTANT),
        ReportRow(ell, delta, "principal_mass_fraction", thin / full,
                  thin / full),
    ]


def principal_mass_sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """ell^3-scaled thin L^2 mass of the principal differential dw^2.

    The ``principal_thin_mass`` rows report ell^3 ||dw^2||^2 on the
    delta-thin part (normalized column: divided by 32 pi^5, the ell -> 0
    limit); ``principal_mass_fraction`` rows report the thin/full mass
    ratio, which tends to 1 as the collar pinches.
    """
    return Report(_run_cells(cfg, _principal_cell, workers))


# --- the ell^{-3/2} principal-coefficient normalization --------------------------

def bij_normalization_check(cfg: SweepConfig, b0_sequence) -> Report:
    """Thin L^2 norms of b0 * dw^2 along the ell grid.

    ``b0_thin_norm`` rows pair each ell with |b0| ||dw^2||_{L^2(delta0-thin)};
    the normalized column is the asymptotically equivalent quantity
    |b0| ell^{-3/2} sqrt(32 pi^5).  The summary ``b0_vanishing`` row fits
    the log-log slope of the norm against ell over the small-ell half of
    the grid and passes (normalized = 1.0) iff the norm tends to zero:
    slope bounded away from zero, or the tail already at zero.
    """
    b0 = [complex(b) for b in b0_sequence]
    if len(b0) != len(cfg.ell_grid):
        raise ValidationError(
            f"b0 sequence length {len(b0)} does not match the ell grid "
            f"length {len(cfg.ell_grid)}")
    rows = []
    norms = []
    for ell, b in zip(cfg.ell_grid, b0):
        c = CollarParams(ell)
        win = thin_boundary(c, cfg.delta0)
        ref = abs(b) * ell ** -1.5 * math.sqrt(PRINCIPAL_MASS_CONSTANT)
        if win.empty:
            rows.append(ReportRow(ell, cfg.delta0, "b0_thin_norm", 0.0, ref,
                                  STATUS_EMPTY))
            norms.append(0.0)
            continue
        thin = mode_l2_norm_sq(c, 0, SubCollar(-win.x_delta, win.x_delta))
        val = abs(b) * math.sqrt(thin)
        rows.append(ReportRow(ell, cfg.delta0, "b0_thin_norm", val, ref))
        norms.append(val)
    slope, passed = _vanishing_verdict(cfg.ell_grid, norms)
    rows.append(ReportRow(math.nan, cfg.delta0, "b0_vanishing", slope,
                          1.0 if passed else 0.0))
    return Report(rows)


def _vanishing_verdict(ells, norms) -> tuple[float, bool]:
    # the grid is ascending; vanishing concerns the ell -> 0 end
    half = max(2, len(norms) // 2)
    tail = norms[:half]
    scale = max(norms) if norms else 0.0
    if scale == 0.0 or max(tail) <= 1e-12 * max(1.0, scale):
        return math.nan, True
    pts = [(l, v) for l, v in zip(ells[:half], tail) if v > 0.0]
    if len(pts) < 2:
        return math.nan, False
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    # norm ~ ell^slope as ell -> 0: any decisively positive power vanishes
    return slope, slope >= 0.05


# --- L^p thin norms of the same random trials -----------------------------------

_LP_STATS = {1.0: "lp_ratio_p1", 2.0: "lp_ratio_p2", 4.0: "lp_ratio_p4",
             math.inf: "lp_ratio_pinf"}


def _thin_panels(x_delta: float):
    """(s1, s2) panels covering [-x_delta, x_delta] exactly, geometric
    toward both edges."""
    cap = min(x_delta, _EDGE_DEPTH)
    cuts = x_delta - cap * np.array(_PANEL_FRACTIONS[::-1])
    right = list(zip(cuts[:-1], cuts[1:]))
    left = [(-s2, -s1) for s1, s2 in right[::-1]]
    inner = x_delta - cap
    bridge = []
    if inner > 0.0:
        edges = np.linspace(-inner, inner, 9)
        bridge = list(zip(edges[:-1], edges[1:]))
    return left + bridge + right


def _row_dots(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w, reduced in gemv blocks of _LP_CHUNK rows.

    BLAS rounds a row differently when it lands in a short remainder
    group, so the last rows are padded to a whole block: every row is
    reduced in the shape the s-chunked full tile used, and a trial's
    value does not depend on how many trials or rows run.
    """
    k, n = rows.shape
    head = k - k % _LP_CHUNK
    tail = np.zeros((_LP_CHUNK, n))
    tail[:k - head] = rows[head:]
    return np.concatenate([(rows[:head].reshape(-1, _LP_CHUNK, n) @ w)
                           .ravel(), (tail @ w)[:k - head]])


def _density_lp(Gt: np.ndarray, ns: np.ndarray, c: CollarParams,
                s_nodes: np.ndarray, w_nodes: np.ndarray, n_theta: int,
                ps) -> dict:
    """Per-trial (sum of dens^p rho^2 w dtheta over s_nodes x theta)^{1/p}
    for each finite p, where dens = |phi| * 2 rho^{-2}.

    Exact, not approximate.  A (trial, s) row whose triangle bound
    pref(s) * sum_n |g_n| e^{ns - |n|X} is at most 2^{-1080/p} adds exactly
    +0 to the p-th power sum: its true dens^p is below 2^-1080, far under
    half the smallest subnormal, so pow rounds it to +0.  At p = 1 the cut
    2^-1080 is itself +0, which leaves the rows whose every term
    underflowed (their F row is all zeros).  A row is raised only to the
    p for which it is hot and transformed only if some p needs it; hot
    rows get the arithmetic of the full tile, so the result is
    bit-identical to evaluating every row.
    """
    rho_sq = (c.ell / (2.0 * math.pi)) ** 2 \
        / cos_profile_vec(c, s_nodes) ** 2
    pref = 2.0 / rho_sq
    rows = DensityRows(Gt, ns, -np.abs(ns) * c.half_length, s_nodes, pref,
                       n_theta)
    # the ~(<=) form keeps NaN bounds, whose rows must be evaluated
    hot = {p: ~(rows.bound <= 2.0 ** (-1080.0 / p)) for p in ps}
    t_idx, s_idx = np.nonzero(np.logical_or.reduce(list(hot.values())))
    w_theta = np.full(n_theta, 2.0 * math.pi / n_theta)
    contrib = {p: np.zeros(rows.bound.shape) for p in ps}
    for t, s, dens in rows.batches(t_idx, s_idx):
        dens *= pref[s][:, None]
        for p in ps:
            if p == 1.0:
                # every transformed row is hot at p = 1, and dens ** 1.0
                # is a bitwise copy of dens
                powers = dens
            else:
                powers = np.power(dens, p, out=np.zeros_like(dens),
                                  where=hot[p][t, s][:, None])
            contrib[p][t, s] = _row_dots(powers, w_theta)
    rw = rho_sq * w_nodes
    out = {}
    for p in ps:
        acc = np.zeros(Gt.shape[0])
        for lo in range(0, s_nodes.size, _LP_CHUNK):
            sl = slice(lo, lo + _LP_CHUNK)
            acc += (contrib[p][:, sl] * rw[sl]).sum(axis=1)
        out[p] = acc ** (1.0 / p)
    return out


def _cell_lp(cfg: SweepConfig, c: CollarParams, li: int, di: int,
             x_delta: float, ns: np.ndarray, ps) -> dict:
    """Per-trial L^p(thin) norms; p=2 by anchored closed form, finite p
    by composite Gauss-Legendre panels, p=inf by the shared sup grid."""
    Gt = _normalized_draws(cfg, c, li, di, ns)
    n_theta = max(256, 8 * cfg.n_max)
    out = {}
    if math.inf in ps:
        out[math.inf] = _density_max(Gt, ns, c, _sup_nodes(x_delta), n_theta)
    if 2.0 in ps:
        t2 = _window_weights(c, ns, [(-x_delta, x_delta)])
        out[2.0] = np.sqrt(_row_dots(np.abs(Gt) ** 2, t2))
    finite = sorted(p for p in ps if p not in (2.0, math.inf))
    if finite:
        panels = _thin_panels(x_delta)
        s_nodes, w_nodes = [], []
        for s1, s2 in panels:
            mid, hw = 0.5 * (s1 + s2), 0.5 * (s2 - s1)
            s_nodes.append(mid + hw * _GL_NODES)
            w_nodes.append(hw * _GL_WEIGHTS)
        out.update(_density_lp(Gt, ns, c, np.concatenate(s_nodes),
                               np.concatenate(w_nodes), n_theta, finite))
    return out


def _lp_cell(cfg: SweepConfig, li: int, di: int, ps) -> list:
    ell, delta = cfg.ell_grid[li], cfg.delta_grid[di]
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    if win.empty:
        return [ReportRow(ell, delta, _LP_STATS[p], 0.0, 0.0, STATUS_EMPTY)
                for p in ps]
    per_p = _cell_lp(cfg, c, li, di, win.x_delta,
                     interleaved_modes(cfg.n_max), ps)
    env = _envelope(delta)
    return [_trial_row(ell, delta, _LP_STATS[p], float(per_p[p][trial]), env)
            for trial in range(cfg.trials) for p in ps]


def lp_vanishing_sweep(cfg: SweepConfig, workers: int = 1,
                       ps=(1.0, 2.0, 4.0, math.inf)) -> Report:
    """L^p(delta-thin) norms of the decay sweep's random differentials.

    The trials are seeded identically to :func:`decay_sweep`, so the
    ``lp_ratio_pinf`` rows reproduce its ``linf_ratio`` values exactly.
    All columns share the delta^2 e^{pi/delta} normalization; per-p
    ``max_normalized_p*`` summary rows report the empirical envelope
    constants.
    """
    ps = tuple(sorted({float(p) for p in ps}))
    for p in ps:
        if p not in _LP_STATS:
            raise ValidationError(f"unsupported exponent p={p}")
    rows = _run_cells(cfg, lambda c, li, di: _lp_cell(c, li, di, ps), workers)
    for p in ps:
        suffix = _LP_STATS[p].split("_")[-1]
        _append_max_row(rows, _LP_STATS[p], f"max_normalized_{suffix}")
    return Report(rows)
