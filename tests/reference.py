"""High-precision mpmath references for the collar geometry and the
closed-form mode norms.

The collar half-length X, the thin-part half-width X_delta and the thin
area follow from r = sinh(ell/2)/sinh(delta).  Each mode norm comes from
the elementary antiderivative of e^{as} cos^2(bs),

    F(s) = e^{as} (1/(2a) + (a cos 2bs + 2b sin 2bs) / (2(a^2 + 4b^2))),
    F(s) = s/2 + sin(2bs)/(4b) for a = 0,

evaluated at 60 digits, where no exponent over- or underflows.  It shares
no code with collardiff: the inputs (ell, delta, coefficients, window
endpoints) are taken as exact and every step after them runs in mpmath.
The geometric references return mpf values, so that a caller working at
DPS digits can take differences of them without cancellation.
"""

from __future__ import annotations

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DPS = 60


def half_length(ell: float):
    """X = (2 pi/ell)(pi/2 - atan(sinh(ell/2))) as an mpf."""
    with mpmath.workdps(DPS):
        ell = mp.mpf(ell)
        return 2 * mp.pi / ell * (mp.pi / 2 - mp.atan(mp.sinh(ell / 2)))


def _thin_ratio(ell: float, delta: float):
    return mp.sinh(mp.mpf(ell) / 2) / mp.sinh(mp.mpf(delta))


def x_delta(ell: float, delta: float):
    """X_delta = (2 pi/ell) acos(r) as an mpf; 0 where r >= 1 (empty)."""
    with mpmath.workdps(DPS):
        r = _thin_ratio(ell, delta)
        return 2 * mp.pi / mp.mpf(ell) * mp.acos(r) if r < 1 else mp.mpf(0)


def thin_area(ell: float, delta: float):
    """2 ell sqrt(1 - r^2)/r, the thin part's hyperbolic area, as an mpf;
    0 where r >= 1 (empty)."""
    with mpmath.workdps(DPS):
        r = _thin_ratio(ell, delta)
        return 2 * mp.mpf(ell) * mp.sqrt(1 - r * r) / r if r < 1 \
            else mp.mpf(0)


def mode_norm_sq(ell: float, n: int, s1: float, s2: float):
    """||e^{nw} dw^2||^2 over (s1, s2) x S^1 as an mpf:
    8 pi (2 pi/ell)^2 times the integral of e^{2ns} cos^2(ell s/(2 pi))."""
    with mpmath.workdps(DPS):
        ell, s1, s2 = mp.mpf(ell), mp.mpf(s1), mp.mpf(s2)
        a, b = 2 * n, ell / (2 * mp.pi)
        if a == 0:
            def F(s):
                return s / 2 + mp.sin(2 * b * s) / (4 * b)
        else:
            def F(s):
                return mp.exp(a * s) * (
                    mp.mpf(1) / (2 * a)
                    + (a * mp.cos(2 * b * s) + 2 * b * mp.sin(2 * b * s))
                    / (2 * (a * a + 4 * b * b)))
        return 8 * mp.pi * (2 * mp.pi / ell) ** 2 * (F(s2) - F(s1))


def l2_norm(ell: float, coeffs: dict, windows) -> float:
    """sqrt(sum_n |b_n|^2 ||e^{nw} dw^2||^2) over the union of the
    (s1, s2) windows, rounded once to a double (inf past the range)."""
    with mpmath.workdps(DPS):
        total = mp.mpf(0)
        for n, coef in coeffs.items():
            weight = sum(mode_norm_sq(ell, n, s1, s2) for s1, s2 in windows)
            total += abs(mp.mpc(coef)) ** 2 * weight
        return float(mp.sqrt(total))
