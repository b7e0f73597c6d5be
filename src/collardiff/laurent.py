"""Laurent-mode quadratic differentials on a single collar.

An element is Theta = phi(w) dw^2 with w = s + i*theta and

    phi(s, theta) = sum_n b_n exp(n*s) exp(i*n*theta),

finitely many modes, |n| <= n_max.  Sizes are measured against the
collar metric, under which |dw^2| = 2*rho(s)^-2, so the pointwise
density is |Theta|(s, theta) = |phi(s, theta)| * 2 * rho(s)^-2.

Distinct modes are L2-orthogonal over every sub-collar (s1, s2) x S^1,
and each mode norm has an elementary closed form:

    ||e^{nw} dw^2||^2_{L2} = 8*pi*(2*pi/ell)^2 *
                             integral_{s1}^{s2} e^{2ns} cos^2(ell*s/2pi) ds.

The closed forms here and the adaptive-quadrature path in lp_norm are
deliberately independent pipelines; tests pit one against the other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .collar import CollarParams, thin_boundary, cos_profile_vec, \
    conformal_factor, DEFAULT_DELTA0
from .errors import (DomainError, mode_table, modes_from_json, modes_to_json,
                     read_json)
from .numerics import (DEFAULT_TOL_ABS, DEFAULT_TOL_REL, adaptive_quad,
                       exp_cos2_window, exp_scale, scale_complex, square,
                       vec_scale_complex)


@dataclass(frozen=True)
class SubCollar:
    """A window (s1, s2) x S^1 inside a collar; s1 = s2 is allowed (empty)."""

    s1: float
    s2: float

    def __post_init__(self):
        if not (math.isfinite(self.s1) and math.isfinite(self.s2)):
            raise DomainError(f"window endpoints must be finite: {self}")
        if self.s1 > self.s2:
            raise DomainError(f"window endpoints out of order: {self}")

    @property
    def width(self) -> float:
        return self.s2 - self.s1


@dataclass(frozen=True, eq=False)
class LaurentQD:
    """A finite Laurent-mode quadratic differential on one collar.

    Coefficients are stored raw (exactly as given); entries equal to
    zero are dropped so that an absent index always means b_n = 0.
    ``n_max`` is the largest |n| stored (0 for the zero differential).
    """

    collar: CollarParams
    coeffs: dict[int, complex]
    n_max: int = field(init=False, repr=False)

    def __post_init__(self):
        coeffs = mode_table(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "n_max", max(map(abs, coeffs), default=0))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs


@dataclass(frozen=True)
class ThinSup:
    """Grid supremum of the density over a thin part, plus a rigorous cap.

    ``sup`` is a maximum over sample points (a lower bound for the true
    supremum); ``envelope`` is the mode-wise upper bound
    sum_n |b_n| * sup(e^{ns} * 2 rho^-2), which the true sup never exceeds.
    """

    sup: float
    envelope: float
    s_at: float | None = None
    theta_at: float | None = None


@dataclass(frozen=True)
class CoefficientBoundReport:
    """Scale-invariant decay constants max |b_n| |n|^{-1/2} e^{|n|X} / thick-norm."""

    constant: float
    per_mode: dict
    thick_norm: float


def full_window(c: CollarParams) -> SubCollar:
    x = c.half_length
    return SubCollar(-x, x)


def _check_window(c: CollarParams, win: SubCollar | None) -> SubCollar:
    """``win`` clipped to the collar; the full collar for None."""
    if win is None:
        return full_window(c)
    x = c.half_length
    slack = 1e-9 * max(1.0, x)
    if win.s1 < -x - slack or win.s2 > x + slack:
        raise DomainError(
            f"window {win} is not contained in the collar [-{x:.6g}, {x:.6g}]")
    return SubCollar(max(win.s1, -x), min(win.s2, x))


def principal_part(q: LaurentQD) -> complex:
    """The n = 0 coefficient b_0."""
    return q.coeffs.get(0, 0j)


def remove_principal(q: LaurentQD) -> LaurentQD:
    """The same differential with its n = 0 mode deleted."""
    rest = {n: b for n, b in q.coeffs.items() if n != 0}
    return LaurentQD(q.collar, rest)


def eval_density(q: LaurentQD, s: float, theta: float) -> float:
    """|Theta|(s, theta) = |phi| * 2 * rho(s)^-2 at one point."""
    rho = conformal_factor(q.collar, s)  # validates s inside the collar
    phi = 0j
    for n, b in q.coeffs.items():
        phi += scale_complex(b, n * s) * complex(math.cos(n * theta),
                                                 math.sin(n * theta))
    rho_sq = rho * rho
    if rho_sq == 0.0:   # rho^2 underflows below ell ~ 1e-161
        return math.inf if phi else 0.0
    return abs(phi) * 2.0 / rho_sq


def _norm_const(c: CollarParams) -> float:
    # 8*pi*(2*pi/ell)^2 = 32*pi^3/ell^2, inf where ell*ell underflows to 0
    sq = c.ell * c.ell
    return 32.0 * math.pi ** 3 / sq if sq else math.inf


def density_weight(c: CollarParams, s):
    """2 rho(s)^-2 = 2 (2 pi/ell)^2 cos^2(ell s/2 pi) = |Theta| / |phi|, at a
    point or elementwise; silently NaN where a vanishing ell gives inf * 0."""
    with np.errstate(invalid="ignore"):
        return 2.0 * square(2.0 * math.pi / c.ell) * cos_profile_vec(c, s) ** 2


def _thick_windows(c: CollarParams, delta0: float) -> list:
    """The (s1, s2) windows of the delta0-thick part: the collar outside
    its delta0-thin window, or the whole collar where that is empty."""
    X, xd = c.half_length, thin_boundary(c, delta0).x_delta
    return [(xd, X), (-X, -xd)] if xd else [(-X, X)]


def mode_weights(c: CollarParams, ns: np.ndarray, windows):
    """(t, e) with ||e^{nw} dw^2||^2 over the union of the windows equal to
    _norm_const(c) t_n e^{2 e_n}, e_n the largest n * anchor, so every
    exponent 2(n * anchor - e_n) is <= 0; one kernel call per window."""
    kernel = [exp_cos2_window(2.0 * ns, c.freq, s1, s2) for s1, s2 in windows]
    na = [ns * anchors for _, anchors in kernel]
    e = functools.reduce(np.maximum, na)
    return sum(v * np.exp(2.0 * (x - e)) for (v, _), x in zip(kernel, na)), e


def _coords(c: CollarParams, tables, windows) -> list:
    """Mode coordinates b_n ||e^{nw} dw^2||, one list per coefficient table
    and one entry per mode of their union (sorted; 0 where a table lacks
    the mode).  Distinct modes are orthogonal, so L^2 over the windows is
    the Euclidean geometry of the rows, and no b_n is squared."""
    ns = sorted(set().union(*tables))
    t, e = mode_weights(c, np.array(ns, dtype=int), windows)
    k = _norm_const(c)
    cols = [(n, math.sqrt(k * tn), en)
            for n, tn, en in zip(ns, t.tolist(), e.tolist())]
    return [[_coord(table[n], w, en) if n in table else 0j
             for n, w, en in cols] for table in tables]


def _coord(b: complex, w: float, e: float) -> complex:
    # b w e^e; a subnormal b w would keep few digits, so b is lifted by an
    # exact 2^600 first and the lift taken back in the exponent
    z = b * w
    if abs(z) < 2.0 ** -1022:
        return scale_complex(b * 2.0 ** 600 * w, e - 600 * math.log(2.0))
    return scale_complex(z, e)


def mode_l2_norm_sq(c: CollarParams, n: int, win: SubCollar) -> float:
    """Closed-form ||e^{nw} dw^2||^2 over the window (unit coefficient)."""
    win = _check_window(c, win)
    t, e = mode_weights(c, np.array([n]), [(win.s1, win.s2)])
    return exp_scale(_norm_const(c) * float(t[0]), 2.0 * float(e[0]))


def l2_inner(q: LaurentQD, r: LaurentQD, win: SubCollar | None = None) -> complex:
    """Closed-form L2 inner product <q, r> over a window (default: full)."""
    if q.collar != r.collar:
        raise DomainError("inner product requires matching collars")
    win = _check_window(q.collar, win)
    shared = [n for n in q.coeffs if n in r.coeffs]
    x, y = _coords(q.collar, [{n: p.coeffs[n] for n in shared}
                              for p in (q, r)], [(win.s1, win.s2)])
    return sum((a * b.conjugate() for a, b in zip(x, y)), 0j)


def l2_norm(q: LaurentQD, win: SubCollar | None = None) -> float:
    """Closed-form L2 norm over a window (default: the full collar)."""
    win = _check_window(q.collar, win)
    return _coord_norm(q, [(win.s1, win.s2)])


def _coord_norm(q: LaurentQD, windows) -> float:
    return math.hypot(*map(abs, _coords(q.collar, [q.coeffs], windows)[0]))


def _phi_on_circle(q: LaurentQD, s: np.ndarray, n_theta: int) -> np.ndarray:
    # phi(s_i, theta_j) on the uniform grid, one row per height s_i, via
    # an inverse FFT of the Laurent spectrum at that height.
    spec = np.zeros((s.size, n_theta), dtype=complex)
    for n, b in q.coeffs.items():
        spec[:, n % n_theta] += vec_scale_complex(b, n * s)
    return np.fft.ifft(spec, axis=1, norm="forward")


def _endpoint_cascade(win: SubCollar) -> list[float]:
    # breakpoints clustered at both window ends; mode mass concentrates
    # within O(1/n) of an endpoint, so a dyadic cascade captures it.
    offs = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
    pts = []
    for u in offs:
        if u < win.width:
            pts.append(win.s2 - u)
            pts.append(win.s1 + u)
    return pts


def lp_norm(q: LaurentQD, p: float, win: SubCollar | None = None, *,
            tol_abs: float = DEFAULT_TOL_ABS,
            tol_rel: float = DEFAULT_TOL_REL) -> float:
    """L^p norm by quadrature: adaptive in s, uniform periodic rule in theta.

    The theta rule has max(64, 8 n_max) points, exact for even integer p
    up to 8 and spectrally accurate otherwise.  Raises QuadratureError
    when the s-integration cannot reach tolerance.  p = infinity is not
    handled here (use linf_thin for suprema).
    """
    if not (1.0 <= p < math.inf):
        raise DomainError(f"p must lie in [1, inf), got {p!r}")
    win = _check_window(q.collar, win)
    if q.is_zero or win.width == 0.0:
        return 0.0
    n_theta = max(64, 8 * q.n_max)
    c = q.collar
    two_pi = 2.0 * math.pi
    base = square(two_pi / c.ell)  # rho(s)^-2 = base * cos^2

    def integrand(s: np.ndarray) -> np.ndarray:
        cs = cos_profile_vec(c, s)
        rho_inv_sq = base * cs * cs
        dens = np.abs(_phi_on_circle(q, s, n_theta)) \
            * (2.0 * rho_inv_sq)[:, None]
        # theta average times 2*pi, weighted by the area element rho^2
        rho_sq = (c.ell / two_pi) ** 2 / (cs * cs)
        return np.mean(dens ** p, axis=1) * two_pi * rho_sq

    total = adaptive_quad(integrand, win.s1, win.s2,
                          tol_abs=tol_abs, tol_rel=tol_rel,
                          points=_endpoint_cascade(win))
    return total ** (1.0 / p)


_ROW_BATCH = 128     # (t, s) rows per FFT call in DensityRows.batches
_EDGE_DEPTH = 40.0   # e^{-40}: deeper contributions are below double noise
# depths of the thin-sup s-nodes below each thin edge, as fractions of the cap
_SUP_LADDER = np.concatenate([[0.0], np.geomspace(1e-10, 1.0, 96)])


def _sup_nodes(x_delta: float, ns: np.ndarray) -> np.ndarray:
    """The s-nodes of every thin sup: a ladder to depth min(x_delta, 40)
    below each thin edge, where every nonzero mode peaks, and an even
    bridge across, of 257 points with an exact s = 0 where the modes hold
    n = 0 (b_0 pref(s) peaks on the core) and of 19 points otherwise."""
    cap = min(x_delta, _EDGE_DEPTH)
    right = x_delta - cap * _SUP_LADDER
    half = 0.5 * x_delta  # exact; 2 x_delta overflows past DBL_MAX/2
    bridge = 2.0 * np.linspace(-half, half, 257 if 0 in ns else 19)[1:-1]
    return _sorted_unique(np.concatenate([right, -right, bridge]))


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    """np.unique of a float array without NaNs, bit for bit, without the
    numpy.ma import that np.unique does on its first call."""
    x = np.sort(x)
    keep = np.empty(x.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(x[1:], x[:-1], out=keep[1:])
    return x[keep]


class DensityRows:
    """Rows of the density |phi| * pref(s) on the theta grid, one per (t, s):
    phi_t(s, theta) = sum_n coef[t, n] amp[s, n] e^{i n theta}, where
    amp[s, n] = e^{sn + log_scale_n}, on n_theta = max(256, 8 max|n|) theta
    points: the modes are distinct modulo n_theta, the highest sampled 8
    times a period.  pocketfft gives a row the same bits in any batch, so
    rows are transformed on demand, any subset at a time.  ``bound``, the
    triangle bound pref(s) * sum_n |coef[t, n]| amp[s, n], is at least the
    row's largest density; ``triangle`` is the sum before pref.
    ``thin`` builds the rows of every thin sup (linf_thin's value and
    location, the sweeps' p = inf column) on the one s-node rule, and
    ``row_max`` is the one pruned pass over rows: each sup is read off its
    matrix.

    A transformed row s of trial t, with computed grid max M_s of |phi|,
    also bounds every other row s' of t (the transfer bound).  For any
    rho >= 0, phi_{s'} = rho phi_s + sum_n coef_n (amp[s', n] - rho
    amp[s, n]) e^{i n theta}, so the density of row s' is at most

        pref(s') * (rho M_s + sum_n |coef_n| |amp[s', n] - rho amp[s, n]|
                    + kappa sum_n |coef_n| (amp[s', n] + rho amp[s, n])
                    + (1 + rho) floor_t).

    rho = amp[s', n*] / amp[s, n*] for the mode n* that dominates row s,
    from the stored amplitudes (exp(n*(s' - s)) rounds by ~1e-9 at
    |s n| ~ 6e6), so the n* term drops out of the sum and the bound sits
    just above the row's max wherever n* dominates.  ``kappa`` is the rounding
    of the products, the FFT (a few eps per stage of log2(n_theta), each
    relative to sum_n |coef_n| amp[., n]), |.| and the bound's own sums
    over n_modes terms.  floor_t = (sum_n |coef[t, n]| + n_theta (n_modes +
    n_theta)) 2^-1070 covers operations that round at subnormal scale, each
    off by up to 2^-1075 absolute: times |coef_n| in the correction sum,
    at most n_theta-fold in the transform.  The constructor
    takes |coef| once, for the triangle bound too, and sums floor_t in the
    stored (FFT-bin) column order described below.

    rho and the correction row |amp[s', .] - rho amp[s, .]| depend only on
    (s, n*, s'), so trials that share a seed row and n* share them: the
    correction sums are taken by group, one (rows, modes) matrix per
    (seed row, n*) contracted with the group's |coef| rows in one einsum
    (a sweep cell has a group per thin edge).  einsum, not matmul: it
    reduces each sum in the order of the per-row form, so every bound keeps
    its bits, where BLAS rounds about a third of them differently.

    The modes are kept in FFT-bin order and split into runs of consecutive
    bins (two for the sweeps' +-n modes), so a batch writes its products
    coef[t, n] amp[s, n] straight into the columns of one spectrum buffer
    that ``batches`` reuses; the columns outside the runs stay zero.  The
    transform is a forward-normalized inverse FFT: it never scales by
    1/n_theta, so a row at subnormal scale is not flushed toward zero.
    """

    def __init__(self, coef: np.ndarray, ns: np.ndarray, log_scale: np.ndarray,
                 s_nodes: np.ndarray, pref: np.ndarray):
        self.s_nodes, self.pref = s_nodes, pref
        self.n_theta = n_theta = max(256, 8 * int(np.abs(ns).max()))
        amp = np.exp(s_nodes[:, None] * ns[None, :] + log_scale[None, :])
        abs_coef = np.abs(coef)
        self.triangle = abs_coef @ amp.T
        self.bound = self.triangle * pref[None, :]
        bins = np.mod(ns, n_theta)
        order = np.argsort(bins)
        bins = bins[order]
        cuts = [0, *(np.flatnonzero(np.diff(bins) != 1) + 1), bins.size]
        # (first bin, end bin, first column, end column) per run
        self._runs = [(int(bins[a]), int(bins[a]) + b - a, a, b)
                      for a, b in zip(cuts, cuts[1:])]
        self._coef, self._amp = coef[:, order], amp[:, order]
        self._abs_coef = abs_coef[:, order]
        with np.errstate(over="ignore", invalid="ignore"):
            self._floor = (self._abs_coef.sum(axis=1)
                           + n_theta * (ns.size + n_theta)) * 2.0 ** -1070
        self.kappa = 4.0 * np.finfo(float).eps \
            * (ns.size + 8.0 * math.log2(n_theta) + 8.0)

    @classmethod
    def thin(cls, c: CollarParams, x_delta: float, coef: np.ndarray,
             ns: np.ndarray, log_scale: np.ndarray) -> "DensityRows":
        """The rows of a thin sup over (-x_delta, x_delta): on the
        _sup_nodes of the modes, weighted by density_weight."""
        s_nodes = _sup_nodes(x_delta, ns)
        return cls(coef, ns, log_scale, s_nodes, density_weight(c, s_nodes))

    def abs_phi(self, t: np.ndarray, s: np.ndarray,
                spec: np.ndarray | None = None) -> np.ndarray:
        """|phi| on the theta grid for the (t, s) index pairs; ``spec`` is a
        spectrum buffer of at least t.size rows, zero outside the runs."""
        if spec is None:
            spec = np.zeros((t.size, self.n_theta), dtype=complex)
        F = spec[:t.size]
        coef, amp = self._coef[t], self._amp[s]
        for lo, hi, a, b in self._runs:
            np.multiply(coef[:, a:b], amp[:, a:b], out=F[:, lo:hi])
        return np.abs(np.fft.ifft(F, axis=1, norm="forward"))

    def batches(self, t: np.ndarray, s: np.ndarray):
        """(t, s, |phi| rows) for the index pairs, _ROW_BATCH rows at a time."""
        spec = np.zeros((min(t.size, _ROW_BATCH), self.n_theta), dtype=complex)
        for lo in range(0, t.size, _ROW_BATCH):
            tb, sb = t[lo:lo + _ROW_BATCH], s[lo:lo + _ROW_BATCH]
            yield tb, sb, self.abs_phi(tb, sb, spec)

    def row_max(self) -> np.ndarray:
        """The (trials, rows) matrix of scaled row maxima max_theta |phi|
        pref(s) on the rows that the seed, triangle and transfer tests keep,
        -inf on the rows they skip.

        Exact, not approximate.  Each t is seeded with its highest-bound
        row; the other rows are transformed only if both their triangle
        bound and their transfer bound from the seed reach the seed's max
        (a NaN or inf bound keeps its row).  A skipped row has every
        computed density strictly below that max, and the transformed rows
        get the same arithmetic as a full-grid evaluation, so each t's max
        over the matrix, and the first row attaining it, are bit-identical
        to transforming every row.  (pref > 0 and rounding is monotone, so
        scaling a row's max equals the max of the scaled row, bit for bit.)
        """
        # seed: each trial's highest-bound row
        trials = np.arange(self.bound.shape[0])
        top = np.argmax(self.bound, axis=1)
        m = self.abs_phi(trials, top).max(axis=1)
        level = m * self.pref[top]
        # triangle test.  Rounding in the bound (a sum of nonnegative
        # terms) and in the FFT is of order n_modes * eps relative to
        # sum_n |coef_n amp_n| (~1e-14 at 64 modes), 100x below the 1e-12
        # margin.  At subnormal scale operations round by up to 2^-1075
        # absolute, which pref(s) floor_t covers as in the transfer bound;
        # the margin takes 2^48 floor_t, a normal number, because products
        # with subnormal operands run ~10x slower; it still moves only rows
        # whose bound lies within pref(s) 2^48 floor_t (~1e-290 in the
        # sweeps) of the level.  So a row outside this mask has every
        # computed density strictly below the level.  The ~(<) forms keep
        # NaN and inf bounds, whose rows must be seen.
        margin = self._floor * 2.0 ** 48
        with np.errstate(invalid="ignore", over="ignore"):
            keep = ~(self.bound + margin[:, None] * self.pref[None, :]
                     < level[:, None] * (1.0 - 1e-12))
        keep[trials, top] = False
        t, s = np.nonzero(keep)
        # transfer test from the seed rows, then transform the rows kept
        keep = ~(self.transfer_bound(t, s, top, m) < level[t])
        out = np.full(self.bound.shape, -np.inf)
        out[trials, top] = level
        for t, s, phi_abs in self.batches(t[keep], s[keep]):
            out[t, s] = phi_abs.max(axis=1) * self.pref[s]
        return out

    def transfer_bound(self, t: np.ndarray, s: np.ndarray, top: np.ndarray,
                       m: np.ndarray) -> np.ndarray:
        """The transfer bound (class docstring) on the density of each row
        (t, s), from the seed row top[t] of t whose computed |phi| max is
        m[t]; top has one entry per trial, and n* is the seed row's
        dominant mode, argmax_n |coef[t, n]| amp[top[t], n].  NaN or inf
        where the seed's dominant amplitude is zero or a term overflows
        (silently: 0/0 and inf * 0 are expected here), and NaN for every
        row of a trial whose seed max is NaN.

        The correction sums are taken per (seed row, n*) group, each
        (trial, row) sum by einsum "tn,rn->tr" in the order of the per-row
        "ij,ij->i" form (class docstring).  The rest of the bound is one
        expression over all pairs in input order: evaluated group by group,
        NaN * NaN keeps whichever operand numpy's loop issues first, so NaN
        sign bits would depend on the grouping."""
        abs_coef, floor, amp = self._abs_coef, self._floor, self._amp
        n_modes = abs_coef.shape[1]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            seed, n = top[t], np.argmax(abs_coef * amp[top], axis=1)[t]
            key = seed * n_modes + n
            order = np.argsort(key, kind="stable")
            groups = np.split(order, np.flatnonzero(np.diff(key[order])) + 1) \
                if t.size else []
            corr = np.empty(t.size)
            for g in groups:
                r, j = seed[g[0]], n[g[0]]
                trials, ti = _distinct(t[g], abs_coef.shape[0])
                rows, si = _distinct(s[g], amp.shape[0])
                # |amp[s', .] - rho amp[r, .]|, one row per s' of the group
                rho_rows = amp[rows, j] / amp[r, j]
                diff = np.multiply(amp[r], rho_rows[:, None])
                np.subtract(amp[rows], diff, out=diff)
                np.abs(diff, out=diff)
                corr[g] = np.einsum("tn,rn->tr", abs_coef[trials],
                                    diff)[ti, si]
            rho = amp[s, n] / amp[seed, n]
            # sum_n |coef_n| (amp[s', n] + rho amp[s, n]) from the triangle
            # bounds: kappa needs it only to within a few eps
            rnd = self.bound[t, s] / self.pref[s] \
                + rho * (self.bound[t, seed] / self.pref[seed])
            return self.pref[s] * (rho * m[t] + corr + self.kappa * rnd
                                   + (1.0 + rho) * floor[t])


def _distinct(idx: np.ndarray, size: int):
    """The distinct values of idx (integers in [0, size)) in increasing
    order, and the position of each entry of idx among them."""
    hit = np.zeros(size, dtype=bool)
    hit[idx] = True
    return np.flatnonzero(hit), (np.cumsum(hit) - 1)[idx]


def linf_thin(q: LaurentQD, delta: float) -> ThinSup:
    """Supremum of the density over the delta-thin sub-collar.

    Returns the grid supremum together with the analytic mode-wise
    envelope; for an empty thin part both are zero.
    """
    tw = thin_boundary(q.collar, delta)
    if tw.empty or q.is_zero:
        return ThinSup(0.0, 0.0)
    c = q.collar
    xd = tw.x_delta
    center = density_weight(c, 0.0)

    modes = sorted(q.coeffs)
    # |b_n| e^{n s} as e^{n s + log|b_n|}; sane inputs keep every exponent <= 0
    logb = np.array([math.log(abs(q.coeffs[n])) for n in modes])
    phase = np.array([q.coeffs[n] / abs(q.coeffs[n]) for n in modes])
    rows = DensityRows.thin(c, xd, phase[None, :], np.array(modes), logb)
    row_max = rows.row_max()[0]
    # the first row holding the sup (a NaN sup: the first NaN row), then
    # the first theta in it, as a row-major argmax of the full grid finds
    i = int(np.argmax(row_max))
    sup = float(row_max[i])
    j = int(np.argmax(rows.abs_phi(np.zeros(1, dtype=int), np.array([i]))[0]
                      * rows.pref[i]))

    # envelope: each mode profile e^{ns} cos^2 is monotone for n != 0
    # (max at the matching endpoint) and peaks at s = 0 for n = 0
    edge = center * tw.r * tw.r
    env = sum(abs(b) * center if n == 0
              else exp_scale(abs(b) * edge, abs(n) * xd)
              for n, b in q.coeffs.items())
    return ThinSup(sup, env, float(rows.s_nodes[i]),
                   2.0 * math.pi * j / rows.n_theta)


def coefficient_bound_check(q: LaurentQD) -> CoefficientBoundReport:
    """Empirical constants in |b_n| <= C sqrt(|n|) e^{-|n| X}.

    Requires a vanishing principal part.  The reported numbers are
    normalized by the L2 norm over the DEFAULT_DELTA0-thick part of the
    collar, so they equal the raw constants for unit-normalized input.
    """
    if principal_part(q) != 0:
        raise DomainError("coefficient bound check requires b_0 = 0")
    if q.is_zero:
        return CoefficientBoundReport(0.0, {}, 0.0)
    x = q.collar.half_length
    tn = _coord_norm(q, _thick_windows(q.collar, DEFAULT_DELTA0))
    # the kernel's cancellation leaves the thick norm at 0 for ell from
    # ~1e-8 to ~1e-150, and no constant can be read off a zero norm
    per = {n: exp_scale(abs(b) / (math.sqrt(abs(n)) * tn), abs(n) * x)
           if tn else math.nan for n, b in q.coeffs.items()}
    return CoefficientBoundReport(max(per.values()), per, tn)


def mode_inner_quadrature_ratios(c: CollarParams, modes, win: SubCollar
                                 ) -> np.ndarray:
    """Normalized mode inner products |<n, m>| / (||n|| ||m||) by quadrature.

    Built entirely from numerical integration (adaptive in s, uniform
    rule in theta) as an independent check that distinct modes really
    land orthogonal in floating point; the s-integrals are computed in
    anchored form so arbitrarily wide windows stay in range.
    """
    win = _check_window(c, win)
    modes = sorted(set(int(n) for n in modes))
    if win.width == 0.0:
        raise DomainError("degenerate window has no normalizable modes")

    log_i: dict[int, float] = {}
    for ktot in sorted({n + m for n in modes for m in modes}):
        anchor = win.s2 if ktot > 0 else win.s1

        def f(s, _k=ktot, _a=anchor):
            return np.exp(_k * (s - _a)) * cos_profile_vec(c, s) ** 2

        val = adaptive_quad(f, win.s1, win.s2, tol_abs=1e-14, tol_rel=1e-11,
                            points=_endpoint_cascade(win))
        log_i[ktot] = math.log(val) + ktot * anchor

    theta = np.arange(256) * (2.0 * math.pi / 256)
    out = np.zeros((len(modes), len(modes)))
    for i, n in enumerate(modes):
        for j, m in enumerate(modes[i:], start=i):
            tsum = abs(np.exp(1j * (n - m) * theta).sum()) / 256
            out[i, j] = out[j, i] = tsum * math.exp(
                log_i[n + m] - 0.5 * log_i[2 * n] - 0.5 * log_i[2 * m])
    return out


# --- JSON coefficient files -------------------------------------------------

def coeffs_from_json(data) -> dict[int, complex]:
    """Parse [{"n": ..., "re": ..., "im": ...}, ...]; duplicate n rejected."""
    return modes_from_json(data, "n")


def coeffs_to_json(coeffs) -> list:
    return modes_to_json(coeffs, "n")


def load_coeffs(path) -> dict[int, complex]:
    return coeffs_from_json(read_json(path))
