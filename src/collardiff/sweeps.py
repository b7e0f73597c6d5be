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

import functools
import math
from dataclasses import dataclass

import numpy as np

from .collar import (CollarParams, DEFAULT_DELTA0, DELTA_MAX, ELL_MAX,
                     thin_boundary, validate_delta0)
from .errors import MODE_MAX, ValidationError, is_int
from .laurent import (_EDGE_DEPTH, DensityRows, _norm_const, _thick_windows,
                      density_weight, mode_weights)
from .numerics import exp_scale
from .report import Report, ReportRow, STATUS_EMPTY, STATUS_OK

#: C0 = 32 pi^5: thin L^2 mass of the principal differential is C0/ell^3 + O(delta^-3)
PRINCIPAL_MASS_CONSTANT = 32.0 * math.pi ** 5

DEFAULT_ELL_GRID = tuple(float(x) for x in np.logspace(-4.0, 0.0, 25))
DEFAULT_DELTA_GRID = tuple(float(x) for x in np.linspace(0.05, 0.8, 16))

# ln 2^53: a mode whose amplitude at the thin edge is below the first
# mode's by this many e-folds is below its last bit there
_MODE_DEPTH = 37.0
# Gauss points per thin edge before the modes' share: p = 4's pref^3 is
# smooth in the depth d = -ln t (about 8 (u + d)^6) but not in t, so a
# rule exact for polynomials in t leaves an error that falls only like a
# power of the point count
_EDGE_NODES = 24
_LP_CHUNK = 48       # s-nodes per partial sum, rows per gemv in _row_dots
# the L^1 tile skips rows whose terms add at most 2^-80 of a trial's sum:
# 2^-27 of its last bit, so the sum moves only across a rounding midpoint
_LP_PRUNE = 2.0 ** -80


def _python_int(x) -> bool:
    # the seed is hashed in Python int arithmetic; numpy integers stay out
    return isinstance(x, int) and is_int(x)


def check_grids(ell_grid, delta_grid=None) -> list:
    """``[ells]``, or ``[ells, deltas]``, as float tuples: each grid
    nonempty and strictly increasing, ell in (0, ELL_MAX], delta in
    (0, DELTA_MAX)."""
    grids = [ell_grid] if delta_grid is None else [ell_grid, delta_grid]
    ells, *deltas = grids = [tuple(float(x) for x in g) for g in grids]
    if not all(grids):
        raise ValidationError("sweep grids must be nonempty")
    if not all(0.0 < x <= ELL_MAX for x in ells):
        raise ValidationError(
            f"core lengths must lie in (0, {ELL_MAX:.6g}]")
    if not all(0.0 < d < DELTA_MAX for g in deltas for d in g):
        raise ValidationError(
            f"delta grid must lie in (0, {DELTA_MAX:.6g})")
    if not all(a < b for g in grids for a, b in zip(g, g[1:])):
        raise ValidationError("sweep grids must be strictly increasing")
    return grids


@dataclass(frozen=True)
class SweepConfig:
    """Config of the random-trial sweeps, decay and L^p."""

    ell_grid: tuple = DEFAULT_ELL_GRID
    delta_grid: tuple = DEFAULT_DELTA_GRID
    delta0: float = DEFAULT_DELTA0
    n_max: int = 32
    trials: int = 64
    seed: int = 0

    def __post_init__(self):
        ells, deltas = check_grids(self.ell_grid, self.delta_grid)
        object.__setattr__(self, "ell_grid", ells)
        object.__setattr__(self, "delta_grid", deltas)
        if not _python_int(self.n_max) or not 1 <= self.n_max <= MODE_MAX:
            raise ValidationError(
                f"n_max must be an integer in [1, {MODE_MAX}]")
        if not _python_int(self.trials) or self.trials < 1:
            raise ValidationError("trials must be a positive integer")
        if not _python_int(self.seed) or not 0 <= self.seed < 2 ** 64:
            raise ValidationError("seed must be an unsigned 64-bit integer")
        validate_delta0(self.delta0)


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


# NumPy's SeedSequence hash (seed_seq_fe, pool of four uint32 words) and
# PCG64 seeding, whose streams NEP 19 keeps stable across releases
_MASK32, _MASK128 = 0xFFFFFFFF, (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _words(n: int) -> list:
    """A nonnegative int as SeedSequence's little-endian uint32 words."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(value, h: int, mult: int):
    """One SeedSequence hash step on a word (an int or a uint32 array);
    returns the hashed value and the next hash constant."""
    h2 = h * mult & _MASK32
    value = (value ^ h) * h2 & _MASK32
    return value ^ value >> 16, h2


def _mix(x, y):
    # each product is reduced first, so an int x meets a uint32 array y
    # inside the uint32 range
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _pcg64_states(seed: int, li: int, di: int, trials: int) -> list:
    """PCG64(SeedSequence(seed, spawn_key=(li, di, t))).state for each
    t < trials, from one hash per cell.

    The hash constants step the same way whatever the words, and the
    trial word comes last, so the pool is mixed once from the seed
    (padded to the pool size, as a spawned SeedSequence does), li and di,
    and only the trial word's four mixes and the eight output words run
    on a uint32 array of trials.
    """
    if min(seed, li, di, trials) < 0 or trials > _MASK32 + 1:
        raise ValidationError("seed words must be nonnegative and trial "
                              "indices must fit one 32-bit word")
    run = _words(seed)
    entropy = run + [0] * (_POOL_SIZE - len(run)) + _words(li) + _words(di)
    h = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        word, h = _hashmix(word, h, _MULT_A)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, h = _hashmix(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL_SIZE:] + [np.arange(trials, dtype=np.uint32)]:
        for dst in range(_POOL_SIZE):
            mixed, h = _hashmix(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    # generate_state(4, uint64): eight words cycled from the pool, read as
    # little-endian pairs (s_hi, s_lo, seq_hi, seq_lo)
    h, out = _INIT_B, []
    for i in range(8):
        word, h = _hashmix(pool[i % _POOL_SIZE], h, _MULT_B)
        out.append(word.tolist())
    states = []
    for w0, w1, w2, w3, w4, w5, w6, w7 in zip(*out):
        initstate = w1 << 96 | w0 << 64 | w3 << 32 | w2
        inc = ((w5 << 96 | w4 << 64 | w7 << 32 | w6) << 1 | 1) & _MASK128
        # pcg64 srandom: state 0, step, add initstate, step
        state = (inc + initstate) * _PCG_MULT + inc & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def draw_coefficients(seed: int, li: int, di: int, trials: int,
                      count: int) -> np.ndarray:
    """Scaled coefficient draws g_n for the trials of one cell (law: the
    raw coefficient is g_n e^{-|n|X}), one row per trial.

    Row t holds the bits of
    default_rng(SeedSequence(seed, spawn_key=(li, di, t)))
    .standard_normal(2 * count), pairs (z_2k, z_2k+1) read as
    z_2k + i z_2k+1.  One PCG64 and Generator pair per call is re-seeded
    per trial; pool threads each make their own.
    """
    states = _pcg64_states(seed, li, di, trials)
    bits = np.random.PCG64(0)
    gen = np.random.Generator(bits)
    G = np.empty((trials, 2 * count))
    for row, state in zip(G, states):
        bits.state = state
        gen.standard_normal(out=row)
    return G.view(complex)


def _window_weights(c: CollarParams, ns: np.ndarray, windows) -> np.ndarray:
    """Per-mode L^2 weights over the windows times the e^{-2|n|X} law
    factor, folded into mode_weights' exponent: every exponent is <= 0
    before exp, so underflow is the only, and the honest, rounding."""
    t, e = mode_weights(c, ns, windows)
    with np.errstate(invalid="ignore"):   # inf * 0 once ell * ell underflows
        return _norm_const(c) * (t * np.exp(2.0 * (e - np.abs(ns)
                                                   * c.half_length)))


def _normalized_draws(cfg: SweepConfig, c: CollarParams, li: int, di: int,
                      ns: np.ndarray) -> np.ndarray:
    """Trial coefficient matrix with unit L^2 norm on the delta0-thick part;
    NaN rows, undivided, where that norm is 0 (every weight underflows)."""
    t = _window_weights(c, ns, _thick_windows(c, cfg.delta0))
    G = draw_coefficients(cfg.seed, li, di, cfg.trials, ns.size)
    norms = np.sqrt(_row_dots(np.abs(G) ** 2, t))
    return np.divide(G, norms[:, None], where=norms[:, None] > 0.0,
                     out=np.full(G.shape, math.nan, dtype=complex))


# --- decay of zero-principal differentials into the thin part ------------------

def _append_max_row(rows: list, statistic: str, name: str) -> None:
    """The best ``ok`` row of ``statistic``; with none, ``empty-thin`` if
    every cell is empty and NaN (so ``non-converged``) if a trial failed."""
    mine = [r for r in rows if r.statistic == statistic]
    best = max((r for r in mine if r.status == STATUS_OK),
               key=lambda r: r.normalized, default=None)
    if best is not None:
        rows.append(ReportRow(best.ell, best.delta, name, best.value,
                              best.normalized))
    elif all(r.status == STATUS_EMPTY for r in mine):
        rows.append(ReportRow(math.nan, math.nan, name, 0.0, 0.0, STATUS_EMPTY))
    else:
        rows.append(ReportRow(math.nan, math.nan, name, math.nan, math.nan))


def decay_sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """Thin-part sups of random unit-norm zero-principal differentials.

    One ``linf_ratio`` row per (ell, delta, trial): value is the sup of
    the pointwise size over the delta-thin part (the differential has
    unit L^2 norm on the delta0-thick part, so this is already the
    ratio), and the normalized column multiplies by delta^2 e^{pi/delta}.
    The decay estimate says the normalized column is bounded by one
    constant; the final ``max_normalized`` row reports that constant's
    empirical value and the cell attaining it.  This is the p = inf
    column of :func:`lp_vanishing_sweep` under its own names.
    """
    return _thin_sweep(cfg, workers,
                       {math.inf: ("linf_ratio", "max_normalized")})


# --- principal-mode mass concentration ------------------------------------------

def _principal_mass(c: CollarParams, x: float) -> tuple:
    """(m, ell^3 m, t) for m = ||dw^2||^2 on the window (-x, x), bit for
    bit mode_l2_norm_sq's 32 pi^3 t / ell^2 with t from mode_weights (its
    exponent is 0 for n = 0).  m overflows below ell ~ 4e-102; there
    ell^3 m is formed as 32 pi^3 ell t, so only a true overflow reads inf."""
    t = float(mode_weights(c, np.zeros(1, dtype=int), [(-x, x)])[0][0])
    m = _norm_const(c) * t
    if math.isfinite(m):
        return m, c.ell ** 3 * m, t
    return m, 32.0 * math.pi ** 3 * (c.ell * t), t


def _principal_cell(ell: float, delta: float) -> list:
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    if win.empty:
        return [ReportRow(ell, delta, name, 0.0, 0.0, STATUS_EMPTY)
                for name in ("principal_thin_mass", "principal_mass_fraction")]
    thin, scaled, t = _principal_mass(c, win.x_delta)
    full, _, t_full = _principal_mass(c, c.half_length)
    frac = thin / full if math.isfinite(full) else t / t_full
    return [
        ReportRow(ell, delta, "principal_thin_mass", scaled,
                  scaled / PRINCIPAL_MASS_CONSTANT),
        ReportRow(ell, delta, "principal_mass_fraction", frac, frac),
    ]


def principal_mass_sweep(ell_grid, delta_grid) -> Report:
    """ell^3-scaled thin L^2 mass of the principal differential dw^2.

    The ``principal_thin_mass`` rows report ell^3 ||dw^2||^2 on the
    delta-thin part (normalized column: divided by 32 pi^5, the ell -> 0
    limit); ``principal_mass_fraction`` rows report the thin/full mass
    ratio, which tends to 1 as the collar pinches.
    """
    ells, deltas = check_grids(ell_grid, delta_grid)
    return Report([row for ell in ells for delta in deltas
                   for row in _principal_cell(ell, delta)])


# --- the ell^{-3/2} principal-coefficient normalization --------------------------

def bij_normalization_check(ell_grid, b0_sequence,
                            delta0: float = DEFAULT_DELTA0) -> Report:
    """Thin L^2 norms of b0 * dw^2 along the ell grid.

    ``b0_thin_norm`` rows pair each ell with |b0| ||dw^2||_{L^2(delta0-thin)};
    the normalized column is the asymptotically equivalent quantity
    |b0| ell^{-3/2} sqrt(32 pi^5).  The summary ``b0_vanishing`` row fits
    the log-log slope of the norm against ell over the small-ell half of
    the grid and passes (normalized = 1.0) iff the norm tends to zero:
    slope bounded away from zero, or the tail already at zero.
    """
    ells, = check_grids(ell_grid)
    b0 = [complex(b) for b in b0_sequence]
    if len(b0) != len(ells):
        raise ValidationError(
            f"b0 sequence length {len(b0)} does not match the ell grid "
            f"length {len(ells)}")
    rows = []
    for ell, b in zip(ells, b0):
        c = CollarParams(ell)
        win = thin_boundary(c, delta0)
        size = abs(b)   # before the try: abs(nan) raises after an overflow
        try:
            ref = size * ell ** -1.5 * math.sqrt(PRINCIPAL_MASS_CONSTANT)
        except OverflowError:   # ell^-1.5 alone overflows; the product may not
            ref = exp_scale(size * math.sqrt(PRINCIPAL_MASS_CONSTANT),
                            -1.5 * math.log(ell))
        if win.empty:
            rows.append(ReportRow(ell, delta0, "b0_thin_norm", 0.0, ref,
                                  STATUS_EMPTY))
            continue
        thin, scaled, _ = _principal_mass(c, win.x_delta)
        norm = (size * math.sqrt(thin) if math.isfinite(thin) else
                ref * math.sqrt(scaled / PRINCIPAL_MASS_CONSTANT))
        rows.append(ReportRow(ell, delta0, "b0_thin_norm", norm, ref))
    slope, passed = _vanishing_verdict(ells, [row.value for row in rows])
    rows.append(ReportRow(math.nan, delta0, "b0_vanishing", slope,
                          float(passed)))
    return Report(rows)


def _vanishing_verdict(ells, norms) -> tuple[float, float]:
    if not all(map(math.isfinite, norms)):   # their max scales the threshold
        return math.nan, math.nan
    # the grid is ascending; vanishing concerns the ell -> 0 end
    half = max(2, len(norms) // 2)
    tail = norms[:half]
    scale = max(norms)
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

# p -> (trial row, summary row) statistic names
_LP_STATS = {1.0: ("lp_ratio_p1", "max_normalized_p1"),
             2.0: ("lp_ratio_p2", "max_normalized_p2"),
             4.0: ("lp_ratio_p4", "max_normalized_p4"),
             math.inf: ("lp_ratio_pinf", "max_normalized_pinf")}


@functools.lru_cache(maxsize=256)
def _edge_rule(cap: float, n_eff: int) -> tuple:
    """(d, w): depths in (0, cap), ascending, and weights of the m-point
    Gauss rule of the measure dd in tau = 1 - e^{-d}, m = _EDGE_NODES +
    ceil(sqrt(8 n_eff)); read-only, as calls share them.

    Each mode's e^{-nd} is a polynomial of degree n in tau, so the rule is
    exact for n < 2m, constants included: the weights sum to cap.  A
    faster mode sits within 1/n of d = 0, where the nodes cluster, and the
    sqrt(8 n_eff) term keeps every n <= n_eff to ~1e-14 plus the ~n eps
    that the nodes' rounding brings (e^{n(x - 1)/2} on [-1, 1] has
    Chebyshev coefficients 2 e^{-n/2} I_k(n/2), below 1e-14 of the first
    from k ~ sqrt(32 n)).  The recurrence comes from the Stieltjes
    procedure on the measure discretized by 24-point Gauss-Legendre
    panels, each in its own tau: ceil(m/4) even in tau from d = 0, then
    one depth unit each down to cap; the nodes and weights from its
    Jacobi matrix's eigenvectors (Golub-Welsch).  tau, not t = e^{-d},
    keeps the shallow nodes' relative accuracy as cap -> 0.
    """
    m = _EDGE_NODES + math.ceil(math.sqrt(8 * n_eff))
    even, b = math.ceil(m / 4), -math.expm1(-cap)
    cuts = -np.log1p(-b * np.arange(even) / even)
    cuts = np.concatenate([cuts, np.arange(cuts[-1] + 1.0, cap), [cap]])
    x, gw = np.polynomial.legendre.leggauss(24)
    half = -0.5 * np.expm1(-np.diff(cuts))[:, None]   # each panel's tau / 2
    local = half * (x + 1.0)
    tau = -np.expm1(-(cuts[:-1, None] - np.log1p(-local)).ravel())
    mu = (half * gw / (1.0 - local)).ravel()
    # p: the orthonormal polynomials' values at the panel nodes
    alpha, beta = np.zeros(m), np.zeros(m)
    p, p_prev = np.full(tau.size, 1.0 / math.sqrt(cap)), np.zeros(tau.size)
    for k in range(m):
        alpha[k] = mu @ (tau * p * p)
        if k + 1 < m:
            q = (tau - alpha[k]) * p - beta[k] * p_prev
            beta[k + 1] = math.sqrt(mu @ (q * q))
            p_prev, p = p, q / beta[k + 1]
    nodes, vecs = np.linalg.eigh(np.diag(alpha) + np.diag(beta[1:], 1)
                                 + np.diag(beta[1:], -1))
    d, w = -np.log1p(-nodes), cap * vecs[0] ** 2
    d.flags.writeable = w.flags.writeable = False
    return d, w


def _tile_nodes(x_delta: float, u_delta: float, n_max: int) -> tuple:
    """(s, w): the finite-p tile's s-nodes on (-x_delta, x_delta),
    ascending and mirror-symmetric bit for bit, and their weights.

    Each thin edge takes _edge_rule over the depths [0, cap] below it,
    cap = min(x_delta / 2, 40), for the n_eff = min(n_max,
    ceil(37 / u_delta)) modes that reach within 2^-53 of the first there:
    mode n's amplitude at the edge is e^{-n u_delta}, u_delta = X -
    x_delta, and it fades into the collar as e^{-nd} = t^n.  The middle,
    (-x_delta + cap, x_delta - cap), where both edges' modes meet, takes
    8 even 8-point Gauss-Legendre panels.
    """
    n_eff = (n_max if n_max * u_delta <= _MODE_DEPTH
             else math.ceil(_MODE_DEPTH / u_delta))
    cap = min(0.5 * x_delta, _EDGE_DEPTH)
    d, w_edge = _edge_rule(cap, n_eff)
    cuts = (x_delta - cap) * np.arange(5) / 4.0
    x, gw = np.polynomial.legendre.leggauss(8)
    mid, hw = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * np.diff(cuts)
    s = np.concatenate([(mid[:, None] + hw[:, None] * x).ravel(),
                        x_delta - d[::-1]])
    w = np.concatenate([(hw[:, None] * gw).ravel(), w_edge[::-1]])
    return np.concatenate([-s[::-1], s]), np.concatenate([w[::-1], w])


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
                s_nodes: np.ndarray, w_nodes: np.ndarray) -> dict:
    """Per-trial (sum of dens^p rho^2 w dtheta over s_nodes x theta)^{1/p}
    for p = 1 and 4, where dens = |phi| pref and pref = 2 rho^{-2}.

    p = 1 sums dens rho^2 = 2|phi| w_theta w_s over the tile's (trial, s)
    rows, skipping two kinds.  The row's term is at most u = 4 pi (1 +
    kappa) w_s sum_n |g_n| amp[s, n] (the triangle bound before pref;
    kappa is DensityRows' rounding plus the theta sum's).  Each trial's
    largest-u row is transformed first: its computed term x_seed bounds the
    trial's sum from below, as every term is >= 0, and each row with u <=
    _LP_PRUNE x_seed / n_s is skipped, so the skipped rows add at most
    2^-80 of the sum.  A row whose every term underflowed has u = +0 and is
    skipped too (its Fourier row is zero), also where a subnormal seed
    term underflows the threshold to 0.  So the sum is the full tile's bit
    for bit unless the 2^-80 crosses a rounding midpoint.
    p = 4 has no tile: by discrete Parseval (|k| <= 2 n_max < n_theta / 2)
    the theta sum of |phi|^4 is 2 pi sum_k |D_k|^2 e^{2(ks - |k|X)}, where
    D_k = sum_{n+m=k} g_n g_m e^{-(|n| + |m| - |k|)X} is the autoconvolution
    of g_n e^{-(|n| -+ n)X} for k >= 0 (k < 0); V_k = sum_s 2 w_s pref_s^3
    e^{2|k| (+-s - X)} (rho^2 pref^4 = 2 pref^3), s -+ X exact near the
    dominant edge: every exponent is <= 0, so underflow alone rounds.
    """
    pref = density_weight(c, s_nodes)
    X = c.half_length
    rows = DensityRows(Gt, ns, -np.abs(ns) * X, s_nodes, pref)
    w2_theta = np.full(rows.n_theta, 4.0 * math.pi / rows.n_theta)
    contrib = np.zeros(rows.triangle.shape)   # sums of 2|phi| w_theta
    # u n_s / _LP_PRUNE, so a row is skipped where it is <= x_seed
    kappa = rows.kappa + (rows.n_theta + 8.0) * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):   # inf and NaN kept
        u = rows.triangle * (4.0 * math.pi * (1.0 + kappa) * s_nodes.size
                             / _LP_PRUNE * w_nodes)
    trials, top = np.arange(Gt.shape[0]), np.argmax(u, axis=1)
    contrib[trials, top] = _row_dots(rows.abs_phi(trials, top), w2_theta)
    # the ~(<=) form keeps NaN and inf bounds, whose rows must be seen
    keep = ~(u <= (contrib[trials, top] * w_nodes[top])[:, None])
    keep[trials, top] = False
    for t, s, phi_abs in rows.batches(*np.nonzero(keep)):
        contrib[t, s] = _row_dots(phi_abs, w2_theta)
    p1 = np.zeros(Gt.shape[0])
    for lo in range(0, s_nodes.size, _LP_CHUNK):
        sl = slice(lo, lo + _LP_CHUNK)
        p1 += (contrib[:, sl] * w_nodes[sl]).sum(axis=1)
    n_max = int(np.abs(ns).max())
    n = np.arange(-n_max, n_max + 1)
    g = np.zeros((Gt.shape[0], n.size), dtype=complex)
    g[:, ns + n_max] = Gt
    # D_k for k = -2 n_max .. 2 n_max
    D = np.empty((Gt.shape[0], 4 * n_max + 1), dtype=complex)
    for row, a, b in zip(D, g * np.exp(-(np.abs(n) + n) * X),
                         g * np.exp(-(np.abs(n) - n) * X)):
        row[:2 * n_max] = np.convolve(a, a)[:2 * n_max]
        row[2 * n_max:] = np.convolve(b, b)[2 * n_max:]
    k = np.arange(-2 * n_max, 2 * n_max + 1)
    with np.errstate(invalid="ignore", over="ignore"):   # pref ** 3 = inf
        V = (2.0 * w_nodes * pref ** 3) @ np.exp(
            2.0 * np.abs(k) * (np.sign(k) * s_nodes[:, None] - X))
    return {1.0: p1,
            4.0: (2.0 * math.pi * _row_dots(np.abs(D) ** 2, V)) ** 0.25}


def _lp_cell(cfg: SweepConfig, li: int, di: int, stats: dict) -> list:
    """The trial rows of cell (li, di) for each p of ``stats``.

    The collar, thin window and draws are built once.  p = inf is the
    exact sup over the thin-sup nodes x theta grid, from the pruned pass
    of DensityRows.row_max (the law factor e^{-|n|X} enters as the
    log-scale); p = 2 is the anchored closed form; p = 1 and 4 come
    together from _density_lp on the s-nodes of _tile_nodes (p = 4 by
    Parseval in theta).
    """
    ell, delta = cfg.ell_grid[li], cfg.delta_grid[di]
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    if win.empty:
        return [ReportRow(ell, delta, name, 0.0, 0.0, STATUS_EMPTY)
                for name, _ in stats.values()]
    xd, ns = win.x_delta, interleaved_modes(cfg.n_max)
    Gt = _normalized_draws(cfg, c, li, di, ns)
    per_p = {}
    if math.inf in stats:
        per_p[math.inf] = DensityRows.thin(
            c, xd, Gt, ns, -np.abs(ns) * c.half_length).row_max().max(axis=1)
    if 2.0 in stats:
        t2 = _window_weights(c, ns, [(-xd, xd)])
        per_p[2.0] = np.sqrt(_row_dots(np.abs(Gt) ** 2, t2))
    if 1.0 in stats or 4.0 in stats:
        per_p.update(_density_lp(Gt, ns, c, *_tile_nodes(
            xd, c.half_length - xd, cfg.n_max)))
    env = exp_scale(delta * delta, math.pi / delta)   # delta^2 e^{pi/delta}
    log_env = math.pi / delta + 2.0 * math.log(delta)

    def scaled(v):   # env alone is inf below delta ~ 0.00435; 0 * inf is NaN
        if math.isfinite(env) or not v > 0.0:
            return v * env
        return exp_scale(v, log_env)

    cols = [(name, per_p[p].tolist()) for p, (name, _) in stats.items()]
    return [ReportRow(ell, delta, name, vals[trial], scaled(vals[trial]))
            for trial in range(cfg.trials) for name, vals in cols]


def _thin_sweep(cfg: SweepConfig, workers: int, stats: dict) -> Report:
    """The thin-norm sweep body: trial rows for each p of ``stats`` (p
    ascending -> (trial row, summary row) names), then one summary row
    per p."""
    cells = [(cfg, li, di, stats) for li in range(len(cfg.ell_grid))
             for di in range(len(cfg.delta_grid))]
    if workers <= 1:
        chunks = [_lp_cell(*cell) for cell in cells]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(lambda cell: _lp_cell(*cell), cells))
    rows = [row for chunk in chunks for row in chunk]
    for name, summary in stats.values():
        _append_max_row(rows, name, summary)
    return Report(rows)


def lp_vanishing_sweep(cfg: SweepConfig, workers: int = 1) -> Report:
    """L^p(delta-thin) norms of the decay sweep's random differentials.

    :func:`decay_sweep` is this sweep's p = inf column under its own
    names, so the ``lp_ratio_pinf`` rows equal its ``linf_ratio`` values
    by construction.  All columns share the delta^2 e^{pi/delta}
    normalization; per-p ``max_normalized_p*`` summary rows report the
    empirical envelope constants.
    """
    return _thin_sweep(cfg, workers, _LP_STATS)
