"""Acceptance suite.

Nine end-to-end criteria, one test each, every one printing a single
``criterion N (...): PASS|FAIL`` line on the terminal.  Tolerances are
fixed here on purpose -- loosening them is not an option, a failure
means the library broke.  Criterion 4 runs two full default-size decay
sweeps and dominates the suite's runtime (about a minute and a half).
"""

import json
import math

import numpy as np
import pytest

from collardiff.collar import (CollarParams, DELTA_MAX, ELL_MAX,
                               cos_profile_vec, injectivity_radius,
                               thin_boundary)
from collardiff.cli import main as cli_main
from collardiff.laurent import (LaurentQD, SubCollar, full_window, l2_norm,
                                lp_norm, mode_inner_quadrature_ratios)
from collardiff.numerics import adaptive_quad
from collardiff.cusps import PunctureGerm, classify, l1_norm, pole_order
from collardiff.report import CSV_SCHEMA
from collardiff.spaces import (MultiCollarQD, QDSpace, mc_combine, mc_inner,
                               mc_norm, project_onto_w, w_subspace)
from collardiff.sweeps import SweepConfig, decay_sweep
from collardiff.topology import (SurfaceTopology, enumerate_moves,
                                 hol_dimension, max_short_geodesics, pinch)
from conftest import random_qd


@pytest.fixture
def announce(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(text: str) -> None:
        if reporter is not None:
            reporter.write_line(text)
        print(text)

    return _announce


def _verdict(announce, num: int, name: str, failures: list) -> None:
    announce(f"criterion {num} ({name}): {'FAIL' if failures else 'PASS'}")
    assert not failures, f"criterion {num}: {failures[:5]}"


def test_criterion_1_thin_boundary_identity(announce):
    """10^4 random collars: injectivity radius at the thin boundary equals
    delta to 1e-12; 10^3 of them: closed-form thin area vs quadrature 1e-8."""
    rng = np.random.default_rng(1)
    failures = []
    pairs = []
    while len(pairs) < 10_000:
        ell = float(np.exp(rng.uniform(math.log(5e-3), math.log(ELL_MAX))))
        delta = float(rng.uniform(0.05, DELTA_MAX - 1e-9))
        if math.sinh(0.5 * ell) >= math.sinh(delta):
            continue  # empty thin part: identity has no boundary to test
        pairs.append((ell, delta))
        c = CollarParams(ell)
        win = thin_boundary(c, delta)
        got = injectivity_radius(c, win.x_delta)
        if abs(got - delta) > 1e-12 * delta:
            failures.append((ell, delta, got))
    for ell, delta in pairs[:1000]:
        c = CollarParams(ell)
        win = thin_boundary(c, delta)
        closed = win.area
        quad = 2.0 * math.pi * adaptive_quad(
            lambda s: (c.ell / (2.0 * math.pi * cos_profile_vec(c, s))) ** 2,
            -win.x_delta, win.x_delta, tol_abs=1e-12, tol_rel=1e-12)
        if abs(closed - quad) > 1e-8 * abs(quad):
            failures.append(("area", ell, delta, closed, quad))
    _verdict(announce, 1, "thin boundary placement and area", failures)


def test_criterion_2_mode_orthogonality(announce):
    """Quadrature-only inner products of modes |n| <= 16 over 100 random
    sub-collars: normalized off-diagonal entries below 1e-10."""
    rng = np.random.default_rng(2)
    modes = range(-16, 17)
    failures = []
    for _ in range(100):
        ell = float(np.exp(rng.uniform(math.log(0.05), math.log(ELL_MAX))))
        c = CollarParams(ell)
        x = c.half_length
        width = float(rng.uniform(0.5, min(2.0 * x, 20.0)))
        s1 = float(rng.uniform(-x, x - width))
        ratios = mode_inner_quadrature_ratios(c, modes, SubCollar(s1, s1 + width))
        off = ratios - np.diag(np.diag(ratios))
        worst_off = float(np.max(np.abs(off)))
        worst_diag = float(np.max(np.abs(np.diag(ratios) - 1.0)))
        if worst_off > 1e-10 or worst_diag > 1e-10:
            failures.append((ell, s1, width, worst_off, worst_diag))
    _verdict(announce, 2, "L2 mode orthogonality by quadrature", failures)


def test_criterion_3_norms_dual_route(announce):
    """500 random differentials: closed-form L2 norm against the adaptive
    quadrature route, relative difference below 1e-8."""
    rng = np.random.default_rng(3)
    failures = []
    for _ in range(500):
        ell = float(np.exp(rng.uniform(math.log(0.05), math.log(ELL_MAX))))
        c = CollarParams(ell)
        q = random_qd(rng, c, n_max=int(rng.integers(1, 9)))
        closed = l2_norm(q)
        quad = lp_norm(q, 2.0, full_window(c))
        if abs(closed - quad) > 1e-8 * closed:
            failures.append((ell, sorted(q.coeffs), closed, quad))
    _verdict(announce, 3, "closed-form vs quadrature L2 norms", failures)


def test_criterion_4_decay_constant_stable(announce):
    """The empirical decay constant (max over the default sweep grid of
    sup / (delta^-2 e^{-pi/delta})) is finite and moves by less than 5%
    when the mode cutoff doubles from 32 to 64."""
    base = decay_sweep(SweepConfig()).single("max_normalized").normalized
    wide = decay_sweep(SweepConfig(n_max=64)).single("max_normalized").normalized
    failures = []
    if not (math.isfinite(base) and math.isfinite(wide) and base > 0):
        failures.append(("not finite", base, wide))
    else:
        drift = abs(wide - base) / base
        if drift >= 0.05:
            failures.append(("drift", base, wide, drift))
    _verdict(announce, 4, "decay envelope constant, cutoff-stable", failures)


def test_criterion_5_principal_mass_concentration(announce):
    """ell = 1e-3, delta = 0.4: the ell^3-scaled thin mass of dw^2 agrees
    with both the quadrature route and the constant 32 pi^5 within 1%."""
    ell, delta = 1e-3, 0.4
    c = CollarParams(ell)
    win = thin_boundary(c, delta)
    sub = SubCollar(-win.x_delta, win.x_delta)
    q = LaurentQD(c, {0: 1.0})
    scaled_closed = ell ** 3 * l2_norm(q, sub) ** 2
    scaled_quad = ell ** 3 * lp_norm(q, 2.0, sub) ** 2
    limit = 32.0 * math.pi ** 5
    failures = []
    if abs(scaled_closed - scaled_quad) > 0.01 * scaled_quad:
        failures.append(("routes disagree", scaled_closed, scaled_quad))
    if abs(scaled_closed - limit) > 0.01 * limit:
        failures.append(("limit missed", scaled_closed, limit))
    _verdict(announce, 5, "principal mass 32 pi^5 / ell^3", failures)


def test_criterion_6_projection_operator(announce):
    """200 random 2-collar spaces (dim <= 6): projection onto W is
    idempotent, self-adjoint and basis-independent at 1e-9, and fixes W
    members at 1e-10."""
    rng = np.random.default_rng(6)
    failures = []
    for trial in range(200):
        ells = sorted(float(np.exp(rng.uniform(math.log(0.1),
                                               math.log(ELL_MAX))))
                      for _ in range(2))
        if ells[0] == ells[1]:
            continue
        collars = [CollarParams(e) for e in ells]
        d = int(rng.integers(2, 7))
        basis = [MultiCollarQD([random_qd(rng, c, n_max=3) for c in collars])
                 for _ in range(d)]
        space = QDSpace(basis)
        psi = MultiCollarQD([random_qd(rng, c, n_max=3) for c in collars])
        phi = MultiCollarQD([random_qd(rng, c, n_max=3) for c in collars])
        p_psi = project_onto_w(space, psi)
        p_phi = project_onto_w(space, phi)
        scale = max(mc_norm(psi), 1.0)
        twice = project_onto_w(space, p_psi)
        if mc_norm(mc_combine([twice, p_psi], [1, -1])) > 1e-9 * scale:
            failures.append((trial, "idempotence"))
        sym = abs(mc_inner(p_psi, phi) - mc_inner(psi, p_phi))
        if sym > 1e-9 * mc_norm(psi) * mc_norm(phi):
            failures.append((trial, "self-adjointness", sym))
        m = np.eye(d) + 0.5 * rng.standard_normal((d, d)) / math.sqrt(d)
        mixed = QDSpace([mc_combine(basis, m[i]) for i in range(d)])
        p_mixed = project_onto_w(mixed, psi)
        if mc_norm(mc_combine([p_mixed, p_psi], [1, -1])) > 1e-9 * scale:
            failures.append((trial, "basis dependence"))
        w = w_subspace(space)
        if w.dim:
            z = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
            member = mc_combine(w.basis, z)
            fixed = project_onto_w(space, member)
            err = mc_norm(mc_combine([fixed, member], [1, -1]))
            if err > 1e-10 * mc_norm(member):
                failures.append((trial, "W member moved", err))
    _verdict(announce, 6, "W-projection operator identities", failures)


def test_criterion_7_pinching_dimension(announce):
    """Exhaustive pinch graphs for closed genus 2 and 3 (every edge drops
    the dimension by exactly one, depth is path-independent, terminals are
    thrice-punctured spheres at dimension 0), plus 1000 random full
    degenerations for each genus in {4, 5, 6}."""
    failures = []
    for g in (2, 3):
        root = SurfaceTopology.closed(g)
        dist = {root.canonical(): 0}
        stack = [root]
        while stack:
            t = stack.pop()
            moves = enumerate_moves(t)
            if not moves:
                if hol_dimension(t) != 0 or any(comp != (0, 3)
                                                for comp in t.components):
                    failures.append(("bad terminal", t.components))
                continue
            for mv in moves:
                child = pinch(t, mv)
                if hol_dimension(child) != hol_dimension(t) - 1:
                    failures.append(("dim step", t.components, mv))
                key = child.canonical()
                depth = dist[t.canonical()] + 1
                if key not in dist:
                    dist[key] = depth
                    stack.append(child)
                elif dist[key] != depth:
                    failures.append(("path-dependent depth", key))
    rng = np.random.default_rng(7)
    for g in (4, 5, 6):
        for _ in range(1000):
            t = SurfaceTopology.closed(g)
            k = 0
            while True:
                moves = enumerate_moves(t)
                if not moves:
                    break
                t = pinch(t, moves[int(rng.integers(len(moves)))])
                k += 1
                if hol_dimension(t) != 3 * (g - 1) - k:
                    failures.append(("random walk dim", g, k))
            if k != 3 * g - 3 or hol_dimension(t) != 0:
                failures.append(("run length", g, k))
            if k != max_short_geodesics(SurfaceTopology.closed(g)):
                failures.append(("capacity mismatch", g, k))
    _verdict(announce, 7, "pinch bookkeeping, exhaustive + random", failures)


def test_criterion_8_cusp_classification(announce):
    """Single modes k in [-4, 4] and 200 random germs: the three
    finiteness conditions agree and match the pole-order truth; the
    simple-pole L1 mass equals 4 pi e^{-pi} to 1e-10."""
    failures = []
    for k in range(-4, 5):
        v = classify(PunctureGerm({k: 1.5 - 0.5j}))
        if not v.agree or v.integrable != (k >= -1):
            failures.append(("single", k, v))
    rng = np.random.default_rng(8)
    for trial in range(200):
        ks = rng.choice(np.arange(-4, 7), size=int(rng.integers(1, 6)),
                        replace=False)
        coeffs = {}
        for k in ks:
            mag = 10.0 ** rng.uniform(-2, 2)
            coeffs[int(k)] = mag * complex(rng.standard_normal(),
                                           rng.standard_normal())
        g = PunctureGerm(coeffs)
        v = classify(g)
        expect = pole_order(g) <= 1
        if not v.agree or v.integrable != expect:
            failures.append(("random", trial, sorted(coeffs), v))
    mass = l1_norm(PunctureGerm({-1: 1.0}))
    if abs(mass - 0.54304211260118677) > 1e-10 * mass:
        failures.append(("mass", mass))
    _verdict(announce, 8, "cusp germ three-way classification", failures)


def test_criterion_9_cli_determinism(announce, tmp_path):
    """The decay-sweep command writes byte-identical reports for 1 and 8
    worker threads."""
    failures = []
    outs = {}
    for workers in (1, 8):
        path = tmp_path / f"sweep-w{workers}.csv"
        code = cli_main([
            "--n-max", "8", "--out", str(path), "qd", "decay-sweep",
            "--ell-grid", "log:1e-3:1:3", "--delta-grid", "0.2,0.4,0.6",
            "--trials", "8", "--workers", str(workers)])
        if code != 0:
            failures.append(("exit code", workers, code))
            continue
        outs[workers] = path.read_bytes()
    if len(outs) == 2:
        if outs[1] != outs[8]:
            failures.append(("outputs differ",))
        if not outs[1].startswith(CSV_SCHEMA.encode()):
            failures.append(("schema line missing",))
    _verdict(announce, 9, "CLI sweep determinism across workers", failures)
