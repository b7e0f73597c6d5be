"""High-precision mpmath references for the closed-form mode norms.

Each value comes from the elementary antiderivative of e^{as} cos^2(bs),

    F(s) = e^{as} (1/(2a) + (a cos 2bs + 2b sin 2bs) / (2(a^2 + 4b^2))),
    F(s) = s/2 + sin(2bs)/(4b) for a = 0,

evaluated at 60 digits, where no exponent over- or underflows.  It shares
no code with collardiff: the inputs (ell, coefficients, window endpoints)
are taken as exact and every step after them runs in mpmath.
"""

from __future__ import annotations

import pytest

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

DPS = 60


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
