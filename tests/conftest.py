import math

import numpy as np
import pytest
from hypothesis import settings

from collardiff.collar import CollarParams, ELL_MAX
from collardiff.laurent import (DensityRows, LaurentQD, full_window,
                                mode_l2_norm_sq)

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


def random_collar(rng, lo: float = 0.05, hi: float = ELL_MAX) -> CollarParams:
    return CollarParams(float(np.exp(rng.uniform(math.log(lo), math.log(hi)))))


def random_qd(rng, c: CollarParams, n_max: int = 8, modes=None,
              zero_principal: bool = False) -> LaurentQD:
    """Random differential with unit-mode-normalized coefficients.

    Scaling each draw by mode_l2_norm_sq^{-1/2} keeps every mode's L2
    contribution O(1) whatever the collar, so norms and Gram matrices
    stay well conditioned across the whole ell range.
    """
    if modes is None:
        modes = [n for n in range(-n_max, n_max + 1)
                 if not (zero_principal and n == 0)]
    win = full_window(c)
    coeffs = {}
    for n in modes:
        g = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[n] = g / math.sqrt(mode_l2_norm_sq(c, n, win))
    return LaurentQD(c, coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


@pytest.fixture
def transfer_calls(monkeypatch):
    """Records, per DensityRows._transfer call, how many rows beyond the
    seeds it keeps and whether its level was finite."""
    calls = []
    real = DensityRows._transfer

    def recording(self, t, s, top, m, level):
        kept = real(self, t, s, top, m, level)
        calls.append((kept[0].size, bool(np.isfinite(level).all())))
        return kept

    monkeypatch.setattr(DensityRows, "_transfer", recording)
    return calls
