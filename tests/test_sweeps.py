"""Sweep engine: seeding, determinism, closed-form anchors, and the
independent-quadrature cross checks of the scaled-coefficient cells."""

import math

import numpy as np
import pytest

from collardiff.collar import (CollarParams, cos_profile_vec, thin_area,
                               thin_boundary)
from collardiff.errors import DomainError, ValidationError
from collardiff.laurent import LaurentQD, SubCollar, l2_norm, lp_norm
from collardiff.report import STATUS_EMPTY, STATUS_FAILED, STATUS_OK
from collardiff.sweeps import (PRINCIPAL_MASS_CONSTANT, SweepConfig,
                               bij_normalization_check, decay_sweep,
                               draw_coefficients, interleaved_modes,
                               lp_vanishing_sweep, principal_mass_sweep)
import collardiff.sweeps as sweeps

# mpmath mp.dps=60 anchors for the principal-mode masses
M0_SCALED_THIN_0001_04 = 9792.6299056325103   # ell^3 * thin mass, (1e-3, 0.4)
M0_THIN_01_02 = 9727674.2370222428            # thin mass, (0.1, 0.2)
M0_FULL_01 = 9792111.3058505275               # full-collar mass, ell = 0.1

SMALL = dict(ell_grid=(0.4, 0.7), delta_grid=(0.35, 0.5),
             n_max=4, trials=3, seed=11)


def test_config_validation():
    SweepConfig(**SMALL)
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=())
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=(0.5, 0.4))
    with pytest.raises(ValidationError):
        SweepConfig(ell_grid=(0.5, 3.0))
    with pytest.raises(ValidationError):
        SweepConfig(delta_grid=(0.9,))
    with pytest.raises(ValidationError):
        SweepConfig(n_max=0)
    with pytest.raises(ValidationError):
        SweepConfig(trials=-1)
    with pytest.raises(ValidationError):
        SweepConfig(seed=-1)
    with pytest.raises(ValidationError):
        SweepConfig(seed=2 ** 64)
    with pytest.raises(DomainError):
        SweepConfig(delta0=0.75)  # thick-gap constraint fails as ell -> 0


def test_interleaved_modes_and_draw_prefix():
    assert list(interleaved_modes(3)) == [1, -1, 2, -2, 3, -3]
    assert list(interleaved_modes(8)[:6]) == list(interleaved_modes(3))
    d4 = draw_coefficients(9, 1, 2, 3, 4)
    d8 = draw_coefficients(9, 1, 2, 3, 8)
    assert np.array_equal(d8[:4], d4)
    # distinct cells and trials get distinct streams
    assert not np.array_equal(draw_coefficients(9, 1, 2, 4, 4), d4)
    assert not np.array_equal(draw_coefficients(9, 0, 2, 3, 4), d4)


def test_decay_sweep_shape_and_statuses():
    cfg = SweepConfig(**SMALL)
    rep = decay_sweep(cfg)
    rows = rep.values("linf_ratio")
    # (0.7, 0.35) is empty (sinh(0.35)/sinh(0.35) = 1): one row, not trials
    empty = [r for r in rows if r.status == STATUS_EMPTY]
    ok = [r for r in rows if r.status == STATUS_OK]
    assert len(empty) == 1 and empty[0].ell == 0.7 and empty[0].delta == 0.35
    assert len(ok) == 3 * cfg.trials
    for r in ok:
        assert r.value > 0.0
        assert r.normalized == pytest.approx(
            r.value * r.delta ** 2 * math.exp(math.pi / r.delta), rel=1e-12)
    summary = rep.single("max_normalized")
    assert summary.normalized == max(r.normalized for r in ok)
    assert (summary.ell, summary.delta) in {(r.ell, r.delta) for r in ok}


def test_decay_sweep_deterministic_across_workers():
    cfg = SweepConfig(**SMALL)
    rep1 = decay_sweep(cfg, workers=1)
    rep8 = decay_sweep(cfg, workers=8)
    assert rep1.rows == rep8.rows
    assert rep1.to_csv() == rep8.to_csv()


def test_decay_summary_monotone_in_trials():
    base = dict(SMALL)
    lo = decay_sweep(SweepConfig(**{**base, "trials": 2}))
    hi = decay_sweep(SweepConfig(**{**base, "trials": 5}))
    # trial draws are seeded per trial index, so more trials = superset
    assert hi.single("max_normalized").normalized >= \
        lo.single("max_normalized").normalized


def test_cell_against_unscaled_laurent_oracle():
    # Rebuild one cell's trials as literal LaurentQD objects (raw
    # coefficients g_n e^{-|n|X} are representable at ell = 0.5) and
    # compare every statistic against the laurent-module routes.
    ell, delta, delta0, n_max, trials, seed = 0.5, 0.45, 0.4, 4, 3, 123
    cfg = SweepConfig(ell_grid=(ell,), delta_grid=(delta,), delta0=delta0,
                      n_max=n_max, trials=trials, seed=seed)
    c = CollarParams(ell)
    x = c.half_length
    xd0 = thin_boundary(c, delta0).x_delta
    xd = thin_boundary(c, delta).x_delta
    ns = interleaved_modes(n_max)

    units = []
    for trial in range(trials):
        g = draw_coefficients(seed, 0, 0, trial, ns.size)
        raw = {int(n): g[i] * math.exp(-abs(int(n)) * x)
               for i, n in enumerate(ns)}
        q = LaurentQD(c, raw)
        thick = math.sqrt(l2_norm(q, SubCollar(xd0, x)) ** 2
                          + l2_norm(q, SubCollar(-x, -xd0)) ** 2)
        units.append(LaurentQD(c, {n: b / thick for n, b in raw.items()}))

    lp = lp_vanishing_sweep(cfg)
    thin = SubCollar(-xd, xd)
    for trial, q in enumerate(units):
        p2 = lp.values("lp_ratio_p2")[trial].value
        assert p2 == pytest.approx(l2_norm(q, thin), rel=1e-12)
        p1 = lp.values("lp_ratio_p1")[trial].value
        assert p1 == pytest.approx(
            lp_norm(q, 1.0, thin, tol_abs=1e-13, tol_rel=1e-11), rel=1e-8)
        p4 = lp.values("lp_ratio_p4")[trial].value
        assert p4 == pytest.approx(
            lp_norm(q, 4.0, thin, tol_abs=1e-13, tol_rel=1e-11), rel=1e-8)


def _full_grid_density_max(Gt, ns, c, s_nodes, n_theta):
    """Reference for sweeps._density_max: transform every (trial, s) row."""
    X = c.half_length
    pref = 2.0 * (2.0 * math.pi / c.ell) ** 2 \
        * cos_profile_vec(c, s_nodes) ** 2
    bins = np.mod(ns, n_theta)
    out = np.zeros(Gt.shape[0])
    for lo in range(0, s_nodes.size, 48):
        sl = slice(lo, min(lo + 48, s_nodes.size))
        amp = np.exp(s_nodes[sl][:, None] * ns[None, :]
                     - np.abs(ns)[None, :] * X)          # (chunk, modes)
        F = np.zeros((Gt.shape[0], amp.shape[0], n_theta), dtype=complex)
        F[:, :, bins] = Gt[:, None, :] * amp[None, :, :]
        phi = np.fft.ifft(F, axis=2) * n_theta
        dens = np.abs(phi) * pref[sl][None, :, None]
        np.maximum(out, dens.max(axis=(1, 2)), out=out)
    return out


@pytest.mark.parametrize("n_max", [1, 13, 48])
def test_pruned_density_max_matches_full_grid_bitwise(n_max):
    # n_theta = 256 for n_max 1 and 13, 384 (not a power of two) for 48
    cfg = SweepConfig(ell_grid=(1e-4, 1e-2, 0.3, 0.9),
                      delta_grid=(0.05, 0.3, 0.79), n_max=n_max, trials=24,
                      seed=5)
    ns = interleaved_modes(n_max)
    n_theta = max(256, 8 * n_max)
    checked = 0
    for li, ell in enumerate(cfg.ell_grid):
        c = CollarParams(ell)
        for di, delta in enumerate(cfg.delta_grid):
            win = thin_boundary(c, delta)
            if win.empty:
                continue
            Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
            s_nodes = sweeps._sup_nodes(win.x_delta)
            want = _full_grid_density_max(Gt, ns, c, s_nodes, n_theta)
            got = sweeps._density_max(Gt, ns, c, s_nodes, n_theta)
            assert got.tobytes() == want.tobytes(), (ell, delta)
            checked += 1
    assert checked == 9


def _full_tile_lp(Gt, ns, c, x_delta, n_theta, finite):
    """Reference for the finite-p path of sweeps._cell_lp: transform every
    (trial, s) row of the Gauss-Legendre tile, 48 s-nodes at a time."""
    s_nodes, w_nodes = [], []
    for s1, s2 in sweeps._thin_panels(x_delta):
        mid, hw = 0.5 * (s1 + s2), 0.5 * (s2 - s1)
        s_nodes.append(mid + hw * sweeps._GL_NODES)
        w_nodes.append(hw * sweeps._GL_WEIGHTS)
    s_nodes = np.concatenate(s_nodes)
    w_nodes = np.concatenate(w_nodes)
    X = c.half_length
    rho_sq = (c.ell / (2.0 * math.pi)) ** 2 \
        / cos_profile_vec(c, s_nodes) ** 2
    pref = 2.0 / rho_sq
    bins = np.mod(ns, n_theta)
    acc = {p: np.zeros(Gt.shape[0]) for p in finite}
    for lo in range(0, s_nodes.size, 48):
        sl = slice(lo, min(lo + 48, s_nodes.size))
        amp = np.exp(s_nodes[sl][:, None] * ns[None, :]
                     - np.abs(ns)[None, :] * X)
        F = np.zeros((Gt.shape[0], amp.shape[0], n_theta), dtype=complex)
        F[:, :, bins] = Gt[:, None, :] * amp[None, :, :]
        dens = np.abs(np.fft.ifft(F, axis=2) * n_theta) \
            * pref[sl][None, :, None]
        for p in finite:
            contrib = dens ** p @ np.full(n_theta, 2.0 * math.pi / n_theta)
            acc[p] += (contrib * (rho_sq[sl] * w_nodes[sl])[None, :]) \
                .sum(axis=1)
    # the triangle bound of every row, to show which skip branches ran
    bound = (np.abs(Gt) @ np.exp(s_nodes[:, None] * ns[None, :]
                                 - np.abs(ns)[None, :] * X).T) * pref
    return {p: acc[p] ** (1.0 / p) for p in finite}, bound


@pytest.mark.parametrize("n_max", [1, 13, 48])
def test_lp_tile_matches_full_tile_bitwise(n_max):
    # n_theta = 256 for n_max 1 and 13, 384 (not a power of two) for 48
    cfg = SweepConfig(ell_grid=(1e-4, 1e-2, 0.3, 0.9),
                      delta_grid=(0.05, 0.3, 0.79), n_max=n_max, trials=24,
                      seed=5)
    ns = interleaved_modes(n_max)
    n_theta = max(256, 8 * n_max)
    checked = zero_rows = underflow_rows = 0
    for li, ell in enumerate(cfg.ell_grid):
        c = CollarParams(ell)
        for di, delta in enumerate(cfg.delta_grid):
            win = thin_boundary(c, delta)
            if win.empty:
                continue
            Gt = sweeps._normalized_draws(cfg, c, li, di, ns)
            for ps in ((1.0, 4.0), (4.0,)):
                want, bound = _full_tile_lp(Gt, ns, c, win.x_delta, n_theta,
                                            ps)
                got = sweeps._cell_lp(cfg, c, li, di, win.x_delta, ns, ps)
                for p in ps:
                    assert got[p].tobytes() == want[p].tobytes(), \
                        (ell, delta, ps, p)
            zero_rows += np.count_nonzero(bound == 0.0)
            underflow_rows += np.count_nonzero(
                (bound > 0.0) & (bound < 2.0 ** (-1080.0 / 4.0)))
            checked += 1
    assert checked == 9
    # both skips ran: all-zero rows, and p = 4 powers that underflow
    assert zero_rows > 0 and underflow_rows > 0, (zero_rows, underflow_rows)


@pytest.mark.parametrize("count", [1, 2, 3, 47, 49, 101])
def test_theta_sums_round_rows_as_the_chunked_tile(count):
    # BLAS gemv rounds the rows of a short remainder group differently;
    # any subset of rows must come out as in the (trial, 48, n_theta) tile
    rng = np.random.default_rng(count)
    tile = rng.random((3, 48, 256)) ** 4
    w = np.full(256, 2.0 * math.pi / 256)
    want = (tile @ w).ravel()
    rows = np.sort(rng.choice(tile.shape[0] * 48, count, replace=False))
    got = sweeps._row_dots(tile.reshape(-1, 256)[rows], w)
    assert got.tobytes() == want[rows].tobytes()


def test_trial_values_do_not_depend_on_trial_count():
    # the thick-part normalization and the p = 2 closed form reduce one
    # row per trial; each trial must keep its bits as the trial count grows
    grid = dict(ell_grid=(0.01,), delta_grid=(0.3,), n_max=32, seed=11)

    def values(trials):
        rep = lp_vanishing_sweep(SweepConfig(trials=trials, **grid),
                                 ps=(2.0, math.inf))
        return [r.value.hex() for r in rep.rows
                if r.statistic.startswith("lp_ratio_")]

    ref = values(13)
    for trials in range(1, 13):
        assert values(trials) == ref[:2 * trials], trials


def test_lp_pinf_reproduces_decay_exactly():
    cfg = SweepConfig(**SMALL)
    decay = decay_sweep(cfg)
    lp = lp_vanishing_sweep(cfg, ps=(2.0, math.inf))
    got = [(r.ell, r.delta, r.value, r.status)
           for r in lp.values("lp_ratio_pinf")]
    want = [(r.ell, r.delta, r.value, r.status)
            for r in decay.values("linf_ratio")]
    assert got == want  # same draws, same sup nodes: bitwise equal


def test_lp_rows_satisfy_holder():
    cfg = SweepConfig(**SMALL)
    lp = lp_vanishing_sweep(cfg)
    by_p = {p: [r for r in lp.values(f"lp_ratio_{p}") if r.status == STATUS_OK]
            for p in ("p1", "p2", "p4", "pinf")}
    for r1, r2, r4, rinf in zip(*by_p.values()):
        area = thin_area(CollarParams(r1.ell), r1.delta)
        # the sup row is a grid max (a slight under-estimate), hence slack
        assert r1.value <= area * rinf.value * 1.01
        assert r1.value <= math.sqrt(area) * r2.value * (1 + 1e-9)
        assert r2.value ** 2 <= r1.value * rinf.value * 1.01
        assert r4.value ** 4 <= (rinf.value ** 2) * (r2.value ** 2) * 1.01


def test_lp_rejects_unknown_exponent():
    with pytest.raises(ValidationError):
        lp_vanishing_sweep(SweepConfig(**SMALL), ps=(3.0,))


def test_nan_trial_is_non_converged(monkeypatch):
    # one NaN draw in cell (0.4, 0.5), trial 2, poisons only that trial
    cfg = SweepConfig(**SMALL)
    clean = [decay_sweep(cfg), lp_vanishing_sweep(cfg)]
    real = sweeps.draw_coefficients

    def draws(seed, li, di, trial, count):
        g = real(seed, li, di, trial, count)
        if (li, di, trial) == (0, 1, 2):
            g[0] = math.nan
        return g

    monkeypatch.setattr(sweeps, "draw_coefficients", draws)
    for want, rep in zip(clean, [decay_sweep(cfg), lp_vanishing_sweep(cfg)]):
        trial_stats = {r.statistic for r in want.rows
                       if not r.statistic.startswith("max_normalized")}
        for stat in trial_stats:
            rows, rows0 = rep.values(stat), want.values(stat)
            i = [j for j, r in enumerate(rows)
                 if (r.ell, r.delta) == (0.4, 0.5)][2]
            assert rows[i].status == STATUS_FAILED
            assert math.isnan(rows[i].value)
            assert rows[:i] + rows[i + 1:] == rows0[:i] + rows0[i + 1:]
            # the summary row is the best finite trial, not the NaN one
            suffix = "" if stat == "linf_ratio" else "_" + stat.split("_")[-1]
            best = rep.single("max_normalized" + suffix)
            ok = [r for r in rows if r.status == STATUS_OK]
            assert best.status == STATUS_OK
            assert math.isfinite(best.normalized)
            assert best.normalized == max(r.normalized for r in ok)


def test_principal_mass_frozen_values():
    cfg = SweepConfig(ell_grid=(0.001, 0.1), delta_grid=(0.2, 0.4))
    rep = principal_mass_sweep(cfg)
    rows = {(r.ell, r.delta): r for r in rep.values("principal_thin_mass")}
    assert rows[(0.001, 0.4)].value == pytest.approx(
        M0_SCALED_THIN_0001_04, rel=1e-12)
    assert rows[(0.001, 0.4)].normalized == pytest.approx(
        M0_SCALED_THIN_0001_04 / PRINCIPAL_MASS_CONSTANT, rel=1e-12)
    assert rows[(0.1, 0.2)].value == pytest.approx(
        1e-3 * M0_THIN_01_02, rel=1e-12)
    fracs = {(r.ell, r.delta): r for r in rep.values("principal_mass_fraction")}
    assert fracs[(0.1, 0.2)].value == pytest.approx(
        M0_THIN_01_02 / M0_FULL_01, rel=1e-12)
    # pinching concentrates everything in the thin part
    assert fracs[(0.001, 0.4)].value > 0.999


def test_principal_mass_empty_cells():
    cfg = SweepConfig(ell_grid=(0.9,), delta_grid=(0.3,))
    rep = principal_mass_sweep(cfg)
    assert all(r.status == STATUS_EMPTY and r.value == 0.0 for r in rep.rows)


def _bij_cfg(n=8):
    return SweepConfig(ell_grid=tuple(np.geomspace(1e-4, 0.1, n)))


def test_bij_rows_and_ref_column():
    cfg = _bij_cfg()
    rep = bij_normalization_check(cfg, [1.0] * len(cfg.ell_grid))
    rows = rep.values("b0_thin_norm")
    assert len(rows) == len(cfg.ell_grid)
    for r in rows:
        assert r.normalized == pytest.approx(
            r.ell ** -1.5 * math.sqrt(PRINCIPAL_MASS_CONSTANT), rel=1e-12)
    # at the pinched end the thin mass is within rounding of 32 pi^5
    assert rows[0].value == pytest.approx(rows[0].normalized, rel=1e-8)


@pytest.mark.parametrize("power,slope,passes", [
    (2.0, 0.5, True),    # b0 = ell^2: norm ~ ell^{1/2} -> vanishes
    (1.0, -0.5, False),  # b0 = ell: norm ~ ell^{-1/2} -> diverges
    (0.0, -1.5, False),  # constant b0: norm ~ ell^{-3/2}
])
def test_bij_vanishing_verdicts(power, slope, passes):
    cfg = _bij_cfg()
    rep = bij_normalization_check(cfg, [e ** power for e in cfg.ell_grid])
    verdict = rep.single("b0_vanishing")
    assert verdict.value == pytest.approx(slope, abs=0.05)
    assert verdict.normalized == (1.0 if passes else 0.0)


def test_bij_zero_sequence_passes():
    cfg = _bij_cfg(4)
    rep = bij_normalization_check(cfg, [0.0] * 4)
    verdict = rep.single("b0_vanishing")
    assert math.isnan(verdict.value) and verdict.normalized == 1.0
    assert all(r.value == 0.0 for r in rep.values("b0_thin_norm"))


def test_bij_empty_thin_row():
    cfg = SweepConfig(ell_grid=(0.5, 0.81))
    rep = bij_normalization_check(cfg, [1.0, 1.0])
    rows = rep.values("b0_thin_norm")
    assert rows[1].status == STATUS_EMPTY and rows[1].value == 0.0


def test_bij_length_mismatch():
    with pytest.raises(ValidationError):
        bij_normalization_check(_bij_cfg(4), [1.0, 2.0])
