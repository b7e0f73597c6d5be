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

import json
import math
from dataclasses import dataclass

import numpy as np

from .collar import CollarParams, ThinWindow, thin_boundary, cos_profile_vec, \
    conformal_factor, DEFAULT_DELTA0
from .errors import DomainError, ValidationError
from .numerics import (DEFAULT_TOL_ABS, DEFAULT_TOL_REL, adaptive_quad,
                       exp_cos2_window, exp_scale, scale_complex,
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


class LaurentQD:
    """A finite Laurent-mode quadratic differential on one collar.

    Coefficients are stored raw (exactly as given); entries equal to
    zero are dropped so that an absent index always means b_n = 0.
    """

    __slots__ = ("collar", "coeffs", "n_max")

    def __init__(self, collar: CollarParams, coeffs, n_max: int | None = None):
        clean: dict[int, complex] = {}
        for n, b in dict(coeffs).items():
            if not isinstance(n, (int, np.integer)):
                raise ValidationError(f"mode index must be an integer, got {n!r}")
            b = complex(b)
            if not (math.isfinite(b.real) and math.isfinite(b.imag)):
                raise ValidationError(f"coefficient for mode {n} is not finite: {b!r}")
            if b != 0:
                clean[int(n)] = b
        inferred = max((abs(n) for n in clean), default=0)
        if n_max is None:
            n_max = inferred
        if n_max < inferred:
            raise ValidationError(
                f"coefficients use mode {inferred}, beyond n_max = {n_max}")
        self.collar = collar
        self.coeffs = clean
        self.n_max = int(n_max)

    def __repr__(self):
        return (f"LaurentQD(ell={self.collar.ell:.6g}, "
                f"modes={sorted(self.coeffs)})")

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


def _check_window(c: CollarParams, win: SubCollar) -> SubCollar:
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
    return LaurentQD(q.collar, rest, q.n_max)


def eval_density(q: LaurentQD, s: float, theta: float) -> float:
    """|Theta|(s, theta) = |phi| * 2 * rho(s)^-2 at one point."""
    rho = conformal_factor(q.collar, s)  # validates s inside the collar
    phi = 0j
    for n, b in q.coeffs.items():
        phi += scale_complex(b, n * s) * complex(math.cos(n * theta),
                                                 math.sin(n * theta))
    return abs(phi) * 2.0 / (rho * rho)


def _norm_const(c: CollarParams) -> float:
    # 8*pi*(2*pi/ell)^2 = 32*pi^3/ell^2
    return 32.0 * math.pi ** 3 / (c.ell * c.ell)


def _mode_sum(c: CollarParams, weights: dict, windows) -> complex:
    """sum_n weights[n] * ||e^{nw} dw^2||^2 over the union of the windows.

    One kernel call per window covers every mode; each term is re-scaled
    through the overflow guard and the terms are summed in mode order,
    windows innermost.  Real weights give a real sum (imaginary part 0).
    """
    ns = list(weights)
    a = 2.0 * np.array(ns, dtype=float)
    k = _norm_const(c)
    kernel = [[part.tolist() for part in exp_cos2_window(a, c.freq, s1, s2)]
              for s1, s2 in windows]
    total = 0j
    for i, n in enumerate(ns):
        for vals, anchors in kernel:
            total += scale_complex(weights[n] * k * vals[i],
                                   2.0 * n * anchors[i])
    return total


def mode_l2_norm_sq(c: CollarParams, n: int, win: SubCollar) -> float:
    """Closed-form ||e^{nw} dw^2||^2 over the window (unit coefficient)."""
    win = _check_window(c, win)
    return _mode_sum(c, {n: 1.0}, [(win.s1, win.s2)]).real


def l2_inner(q: LaurentQD, r: LaurentQD, win: SubCollar | None = None) -> complex:
    """Closed-form L2 inner product <q, r> over a window (default: full)."""
    if q.collar != r.collar:
        raise DomainError("inner product requires matching collars")
    if win is None:
        win = full_window(q.collar)
    win = _check_window(q.collar, win)
    weights = {n: b * r.coeffs[n].conjugate()
               for n, b in q.coeffs.items() if n in r.coeffs}
    return _mode_sum(q.collar, weights, [(win.s1, win.s2)])


def l2_norm(q: LaurentQD, win: SubCollar | None = None) -> float:
    """Closed-form L2 norm over a window (default: the full collar)."""
    if win is None:
        win = full_window(q.collar)
    win = _check_window(q.collar, win)
    weights = {n: abs(b) ** 2 for n, b in q.coeffs.items()}
    return math.sqrt(_mode_sum(q.collar, weights, [(win.s1, win.s2)]).real)


def _theta_points(n_theta: int) -> np.ndarray:
    return np.arange(n_theta) * (2.0 * math.pi / n_theta)


def _phi_on_circle(q: LaurentQD, s: np.ndarray, n_theta: int) -> np.ndarray:
    # phi(s_i, theta_j) on the uniform grid, one row per height s_i, via
    # an inverse FFT of the Laurent spectrum at that height.
    spec = np.zeros((s.size, n_theta), dtype=complex)
    for n, b in q.coeffs.items():
        spec[:, n % n_theta] += vec_scale_complex(b, n * s)
    return np.fft.ifft(spec, axis=1) * n_theta


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
            tol_abs: float = DEFAULT_TOL_ABS, tol_rel: float = DEFAULT_TOL_REL,
            n_theta: int | None = None) -> float:
    """L^p norm by quadrature: adaptive in s, uniform periodic rule in theta.

    Exact in theta for even integer p up to 8 with the default rule
    size; spectrally accurate otherwise.  Raises QuadratureError when
    the s-integration cannot reach tolerance.  p = infinity is not
    handled here (use linf_thin for suprema).
    """
    if not (1.0 <= p < math.inf):
        raise DomainError(f"p must lie in [1, inf), got {p!r}")
    if win is None:
        win = full_window(q.collar)
    win = _check_window(q.collar, win)
    if q.is_zero or win.width == 0.0:
        return 0.0
    if n_theta is None:
        n_theta = max(64, 8 * q.n_max)
    c = q.collar
    two_pi = 2.0 * math.pi
    base = (two_pi / c.ell) ** 2  # rho(s)^-2 = base * cos^2

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


_ROW_BATCH = 256     # (batch, s) rows per FFT call


class DensityRows:
    """Rows of the density |phi| * pref(s) on the theta grid, one per (t, s):
    phi_t(s, theta) = sum_n coef[t, n] e^{sn + log_scale_n} e^{i n theta},
    modes ns distinct modulo n_theta.  pocketfft gives a row the same bits
    in any batch, so rows are transformed on demand, any subset at a time.
    ``bound``, the triangle bound pref(s) * sum_n |coef[t, n]| e^{sn +
    log_scale_n}, is at least the row's largest density.
    """

    def __init__(self, coef: np.ndarray, ns: np.ndarray, log_scale: np.ndarray,
                 s_nodes: np.ndarray, pref: np.ndarray, n_theta: int):
        self.coef, self.pref, self.n_theta = coef, pref, n_theta
        self.bins = np.mod(ns, n_theta)
        self.amp = np.exp(s_nodes[:, None] * ns[None, :] + log_scale[None, :])
        self.bound = (np.abs(coef) @ self.amp.T) * pref[None, :]

    def abs_phi(self, t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """|phi| on the theta grid for the (t, s) index pairs."""
        F = np.zeros((t.size, self.n_theta), dtype=complex)
        F[:, self.bins] = self.coef[t] * self.amp[s]
        phi = np.fft.ifft(F, axis=1)
        phi *= self.n_theta
        return np.abs(phi)

    def batches(self, t: np.ndarray, s: np.ndarray):
        """(t, s, |phi| rows) for the index pairs, _ROW_BATCH rows at a time."""
        for lo in range(0, t.size, _ROW_BATCH):
            tb, sb = t[lo:lo + _ROW_BATCH], s[lo:lo + _ROW_BATCH]
            yield tb, sb, self.abs_phi(tb, sb)

    def sup(self) -> np.ndarray:
        """Per-t max of the density over every (s, theta) point.

        Exact, not approximate.  Each t is seeded with its highest-bound
        row, and only rows whose bound reaches the running max are
        transformed.  They get the same arithmetic as a full-grid
        evaluation, so the result is bit-identical to transforming every
        row.  (pref > 0 and rounding is monotone, so scaling a row's max
        equals the max of the scaled row, bit for bit.)
        """
        trials = np.arange(self.coef.shape[0])
        top = np.argmax(self.bound, axis=1)
        out = self.abs_phi(trials, top).max(axis=1) * self.pref[top]
        keep = self._reaches(out[:, None])
        keep[trials, top] = False
        for t, s, phi_abs in self.batches(*np.nonzero(keep)):
            np.maximum.at(out, t, phi_abs.max(axis=1) * self.pref[s])
        return out

    def _reaches(self, level) -> np.ndarray:
        # Rounding in the bound (a sum of nonnegative terms) and in the FFT
        # is of order n_modes * eps relative to sum_n |coef_n amp_n| (~1e-14
        # at 64 modes), 100x below the 1e-12 margin, so a row outside this
        # mask has every computed density strictly below the level.  The
        # ~(<) form keeps NaN and inf bounds, whose rows must be seen.
        return ~(self.bound < level * (1.0 - 1e-12))

    def argmax(self, sup: float) -> tuple[int, int]:
        """(s, theta) indices of the first row-major point where the density
        of t = 0 equals its sup; every row is searched for a NaN sup."""
        s = np.nonzero(self._reaches(sup)[0])[0]
        dens = self.abs_phi(np.zeros_like(s), s) * self.pref[s][:, None]
        i, j = divmod(int(np.argmax(dens)), self.n_theta)
        return int(s[i]), j


def linf_thin(q: LaurentQD, delta: float, *, n_s: int = 257) -> ThinSup:
    """Supremum of the density over the delta-thin sub-collar.

    Returns the grid supremum together with the analytic mode-wise
    envelope; for an empty thin part both are zero.
    """
    tw = thin_boundary(q.collar, delta)
    if tw.empty or q.is_zero:
        return ThinSup(0.0, 0.0)
    n_theta = max(256, 8 * q.n_max)
    c = q.collar
    xd = tw.x_delta
    center = 2.0 * (2.0 * math.pi / c.ell) ** 2  # 2 rho^-2 = center * cos^2

    grid = _sup_grid(xd, n_s)
    modes = sorted(q.coeffs)
    # |b_n| e^{n s} as e^{n s + log|b_n|}; sane inputs keep every exponent <= 0
    logb = np.array([math.log(abs(q.coeffs[n])) for n in modes])
    phase = np.array([q.coeffs[n] / abs(q.coeffs[n]) for n in modes])
    rows = DensityRows(phase[None, :], np.array(modes), logb, grid,
                       center * cos_profile_vec(c, grid) ** 2, n_theta)
    sup = float(rows.sup()[0])
    i, j = rows.argmax(sup)

    # envelope: each mode profile e^{ns} cos^2 is monotone for n != 0
    # (max at the matching endpoint) and peaks at s = 0 for n = 0
    r = math.sinh(0.5 * c.ell) / math.sinh(delta)
    edge = center * r * r
    env = 0.0
    for n, b in q.coeffs.items():
        if n == 0:
            env += abs(b) * center
        else:
            env += exp_scale(abs(b) * edge, abs(n) * xd)
    return ThinSup(sup, env, float(grid[i]), 2.0 * math.pi * j / n_theta)


def _sup_grid(xd: float, n_s: int) -> np.ndarray:
    pts = list(np.linspace(-xd, xd, n_s))
    u = 0.125
    while u < xd:
        pts.extend((xd - u, u - xd))
        u *= 2.0
    return np.unique(np.asarray(pts))


def coefficient_bound_check(q: LaurentQD, delta0: float = DEFAULT_DELTA0
                            ) -> CoefficientBoundReport:
    """Empirical constants in |b_n| <= C sqrt(|n|) e^{-|n| X}.

    Requires a vanishing principal part.  The reported numbers are
    normalized by the L2 norm over the delta0-thick part of the collar,
    so they equal the raw constants for unit-normalized input.
    """
    if principal_part(q) != 0:
        raise DomainError("coefficient bound check requires b_0 = 0")
    if q.is_zero:
        return CoefficientBoundReport(0.0, {}, 0.0)
    c = q.collar
    x = c.half_length
    xd = thin_boundary(c, delta0).x_delta
    weights = {n: abs(b) ** 2 for n, b in q.coeffs.items()}
    tn = math.sqrt(_mode_sum(c, weights, [(xd, x), (-x, -xd)]).real)
    per = {}
    for n, b in q.coeffs.items():
        per[n] = exp_scale(abs(b) / (math.sqrt(abs(n)) * tn), abs(n) * x)
    return CoefficientBoundReport(max(per.values()), per, tn)


def mode_inner_quadrature_ratios(c: CollarParams, modes, win: SubCollar, *,
                                 n_theta: int = 256,
                                 tol_abs: float = 1e-14,
                                 tol_rel: float = 1e-11) -> np.ndarray:
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

    needed = set()
    for i, n in enumerate(modes):
        needed.add(2 * n)
        for m in modes[i:]:
            needed.add(n + m)
    log_i: dict[int, float] = {}
    for ktot in sorted(needed):
        anchor = win.s2 if ktot > 0 else win.s1

        def f(s, _k=ktot, _a=anchor):
            return np.exp(_k * (s - _a)) * cos_profile_vec(c, s) ** 2

        val = adaptive_quad(f, win.s1, win.s2, tol_abs=tol_abs,
                            tol_rel=tol_rel, points=_endpoint_cascade(win))
        log_i[ktot] = math.log(val) + ktot * anchor

    theta = _theta_points(n_theta)
    tsum: dict[int, float] = {}
    for i, n in enumerate(modes):
        for m in modes[i:]:
            d = n - m
            if d not in tsum:
                tsum[d] = abs(np.exp(1j * d * theta).sum()) / n_theta

    out = np.zeros((len(modes), len(modes)))
    for i, n in enumerate(modes):
        for j, m in enumerate(modes[i:], start=i):
            ratio = tsum[n - m] * math.exp(
                log_i[n + m] - 0.5 * log_i[2 * n] - 0.5 * log_i[2 * m])
            out[i, j] = out[j, i] = ratio
    return out


# --- JSON coefficient files -------------------------------------------------

def coeffs_from_json(data) -> dict[int, complex]:
    """Parse [{"n": ..., "re": ..., "im": ...}, ...]; duplicate n rejected."""
    if not isinstance(data, list):
        raise ValidationError("coefficient file must be a JSON array")
    out: dict[int, complex] = {}
    for item in data:
        if not isinstance(item, dict) or not {"n", "re", "im"} <= set(item):
            raise ValidationError(
                f"coefficient entries need keys n/re/im, got {item!r}")
        n = item["n"]
        if not isinstance(n, int) or isinstance(n, bool):
            raise ValidationError(f"mode index must be an integer, got {n!r}")
        if n in out:
            raise ValidationError(f"duplicate mode index {n} in coefficient file")
        try:
            out[n] = complex(float(item["re"]), float(item["im"]))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad coefficient for mode {n}: {exc}") from exc
    return out


def coeffs_to_json(coeffs) -> list:
    return [{"n": int(n), "re": float(b.real), "im": float(b.imag)}
            for n, b in sorted(dict(coeffs).items())]


def load_coeffs(path) -> dict[int, complex]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON in {path}: {exc}") from exc
    return coeffs_from_json(data)
