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
    """Records, per DensityRows.row_max pass, how many rows beyond the
    seeds it keeps (transforms) and whether its level, the seed rows'
    scaled maxima, was finite."""
    calls = []
    real = DensityRows.row_max

    def recording(self):
        out = real(self)
        trials = np.arange(out.shape[0])
        level = out[trials, np.argmax(self.bound, axis=1)]
        calls.append((np.count_nonzero(~np.isneginf(out)) - trials.size,
                      bool(np.isfinite(level).all())))
        return out

    monkeypatch.setattr(DensityRows, "row_max", recording)
    return calls
