"""Multi-collar spans, W-subspaces, and orthogonal projection."""

import json
import math

import numpy as np
import pytest

from collardiff.collar import CollarParams
from collardiff.errors import (DomainError, RankDeficiencyError,
                               ValidationError)
from collardiff.laurent import LaurentQD, lp_norm, principal_part
from collardiff.report import STATUS_EMPTY, STATUS_OK
from collardiff.spaces import (MultiCollarQD, QDSpace, load_space, mc_combine,
                               mc_inner, mc_norm, mc_zero, multi_from_json,
                               multi_to_json, principal_vector, project_onto_w,
                               space_from_json, unitary_basis, w_decay_report,
                               w_subspace)
from conftest import random_qd

ELLS = (0.3, 0.8)


def random_multi(rng, n_max=3, zero_principal=False):
    return MultiCollarQD([random_qd(rng, CollarParams(e), n_max=n_max,
                                    zero_principal=zero_principal)
                          for e in ELLS])


def random_space(rng, dim=3, **kw):
    return QDSpace([random_multi(rng, **kw) for _ in range(dim)])


def assert_same_element(u, v, rel=1e-9):
    scale = max(mc_norm(u), mc_norm(v))
    assert mc_norm(mc_combine([u, v], [1.0, -1.0])) <= rel * max(scale, 1e-30)


def test_mc_basics(rng):
    u = random_multi(rng)
    v = random_multi(rng)
    assert mc_inner(u, u).real == pytest.approx(mc_norm(u) ** 2, rel=1e-13)
    assert abs(mc_inner(u, v) - mc_inner(v, u).conjugate()) < 1e-13
    w = mc_combine([u, v], [2.0, -1j])
    assert mc_norm(w) > 0
    assert mc_zero([CollarParams(e) for e in ELLS]).is_zero
    with pytest.raises(ValidationError):
        mc_combine([], [])
    other = MultiCollarQD([LaurentQD(CollarParams(0.5), {1: 1.0})])
    with pytest.raises(DomainError):
        mc_inner(u, other)
    with pytest.raises(DomainError):
        mc_combine([u, other], [1.0, 1.0])
    with pytest.raises(ValidationError, match=">= 1 collar"):
        MultiCollarQD([])
    with pytest.raises(DomainError, match="different collars"):
        QDSpace([u, other])


def test_gram_closed_form_vs_quadrature(rng):
    space = random_space(rng, dim=2, n_max=2)
    g = space.gram
    assert np.allclose(g, g.conj().T)
    # independent route: polarization of the p = 2 quadrature norm
    u, v = space.basis

    def qnorm_sq(elem):
        return sum(lp_norm(p, 2.0, tol_abs=1e-13, tol_rel=1e-12) ** 2
                   for p in elem.parts)

    re = 0.5 * (qnorm_sq(mc_combine([u, v], [1, 1])) - qnorm_sq(u) - qnorm_sq(v))
    im = 0.5 * (qnorm_sq(mc_combine([u, v], [1, 1j])) - qnorm_sq(u) - qnorm_sq(v))
    assert g[0, 1] == pytest.approx(complex(re, im), rel=1e-8)


def test_unitary_basis_is_orthonormal(rng):
    space = random_space(rng, dim=4)
    ortho = unitary_basis(space)
    g = np.array([[mc_inner(a, b) for b in ortho] for a in ortho])
    assert np.max(np.abs(g - np.eye(4))) < 1e-12
    assert unitary_basis(QDSpace([], collars=space.collars)) == []


def test_unitary_basis_rank_deficiency(rng):
    u = random_multi(rng)
    space = QDSpace([u, mc_combine([u], [2.0])])
    with pytest.raises(RankDeficiencyError) as exc:
        unitary_basis(space)
    assert exc.value.eigenvalue < 1e-10
    # mode 6's coordinate overflows at ell 0.05 (e^{6X}, X ~ 194), so its
    # Gram entries are NaN, even against the element that shares no mode
    c = CollarParams(0.05)
    space = QDSpace([MultiCollarQD([LaurentQD(c, {6: 1.0})]),
                     MultiCollarQD([LaurentQD(c, {1: 1.0})])])
    with pytest.raises(RankDeficiencyError, match="Gram matrix is not finite"):
        unitary_basis(space)


def test_cholesky_failure_is_rank_deficiency(monkeypatch, rng):
    # a Gram matrix that passes the eigenvalue screen but that LAPACK still
    # refuses is reported the same way, with its smallest eigenvalue
    space = random_space(rng, dim=2)

    def refuse(g):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    with pytest.raises(RankDeficiencyError,
                       match="Cholesky factorization failed: Matrix is not"
                       ) as exc:
        unitary_basis(space)
    assert exc.value.eigenvalue == np.linalg.eigvalsh(space.gram)[0] > 0.0
    assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


def test_w_subspace_dimension_and_exact_principal(rng):
    # 4 elements over 2 collars, generic principal parts: rank 2, dim W = 2
    space = random_space(rng, dim=4)
    w = w_subspace(space)
    assert w.dim == 2
    for e in w.basis:
        assert np.all(principal_vector(e) == 0)  # exactly zero, not small
        for p in e.parts:
            assert principal_part(p) == 0
    # principal-free basis: W is the whole span
    free = random_space(rng, dim=3, zero_principal=True)
    assert w_subspace(free).dim == 3
    # principal-only elements: W is trivial
    collars = [CollarParams(e) for e in ELLS]
    only = QDSpace([MultiCollarQD([LaurentQD(c, {0: 1.0 + 0.5j * i})
                                   for i, c in enumerate(collars)])])
    assert w_subspace(only).dim == 0


def test_projection_properties(rng):
    space = random_space(rng, dim=4)
    psi = random_multi(rng)
    proj = project_onto_w(space, psi)
    # idempotence
    assert_same_element(project_onto_w(space, proj), proj, rel=1e-10)
    # residual is orthogonal to W
    resid = mc_combine([psi, proj], [1.0, -1.0])
    for e in w_subspace(space).basis:
        assert abs(mc_inner(resid, e)) < 1e-10 * mc_norm(psi)
    # projection never increases the norm
    assert mc_norm(proj) <= mc_norm(psi) * (1.0 + 1e-12)


def test_projection_fixes_w_and_kills_principal(rng):
    space = random_space(rng, dim=4)
    w = w_subspace(space)
    member = mc_combine(w.basis, [0.7, -0.2j])
    assert_same_element(project_onto_w(space, member), member, rel=1e-10)
    principal_only = MultiCollarQD(
        [LaurentQD(CollarParams(e), {0: 1.0}) for e in ELLS])
    assert project_onto_w(space, principal_only).is_zero
    with pytest.raises(DomainError):
        project_onto_w(space, MultiCollarQD(
            [LaurentQD(CollarParams(0.5), {1: 1.0})]))


def test_projection_basis_independence(rng):
    space = random_space(rng, dim=3)
    d = space.dim
    m = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    mixed = QDSpace([mc_combine(space.basis, m[i]) for i in range(d)])
    psi = random_multi(rng)
    assert_same_element(project_onto_w(space, psi),
                        project_onto_w(mixed, psi), rel=1e-9)


def test_w_trivial_projection_is_zero(rng):
    collars = [CollarParams(e) for e in ELLS]
    only = QDSpace([MultiCollarQD([LaurentQD(c, {0: 1.0}) for c in collars]),
                    MultiCollarQD([LaurentQD(c, {0: 1j * (i + 1)})
                                   for i, c in enumerate(collars)])])
    psi = random_multi(rng)
    assert project_onto_w(only, psi).is_zero


def test_w_decay_report(rng):
    space = random_space(rng, dim=3)
    deltas = [0.2, 0.5]
    rep = w_decay_report(space, deltas, samples=4, seed=7)
    assert [r.delta for r in rep.rows] == deltas
    for r in rep.rows:
        assert r.statistic == "w_linf_ratio_max"
        # thin parts of ell = 0.3 and 0.8 are nonempty at these deltas
        assert r.status == STATUS_OK
        assert r.normalized == pytest.approx(
            r.value * r.delta ** 2 * math.exp(math.pi / r.delta), rel=1e-12)
    # same seed, same numbers
    rep2 = w_decay_report(space, deltas, samples=4, seed=7)
    assert [r.value for r in rep2.rows] == [r.value for r in rep.rows]
    # delta below every injectivity radius: geometry empty
    c = CollarParams(0.8)
    small = QDSpace([MultiCollarQD([random_qd(rng, c, n_max=2,
                                              zero_principal=True)])])
    rep3 = w_decay_report(small, [0.2])
    assert rep3.rows[0].status == STATUS_EMPTY
    # trivial W: empty table
    only = QDSpace([MultiCollarQD([LaurentQD(c, {0: 1.0})])])
    assert w_decay_report(only, deltas).rows == []


def test_w_decay_report_takes_each_norm_once(rng, monkeypatch):
    # the element norms do not depend on delta, and every sample's part
    # norms on a collar come from one coordinate pass: a report over one
    # threshold or three takes one pass per collar beyond W's own
    import collardiff.spaces as sp

    space = random_space(rng, dim=3)
    deltas = [0.2, 0.35, 0.5]
    want = w_decay_report(space, deltas, samples=4, seed=7).render("csv")
    w = w_subspace(space)
    real = sp._coords
    calls = []
    monkeypatch.setattr(sp, "w_subspace", lambda _: w)
    monkeypatch.setattr(sp, "_coords",
                        lambda *a: calls.append(a) or real(*a))
    assert w_decay_report(space, deltas, samples=4, seed=7) \
        .render("csv") == want
    assert len(calls) == len(space.collars)
    calls.clear()
    w_decay_report(space, deltas[:1], samples=4, seed=7)
    assert len(calls) == len(space.collars)


def test_w_decay_report_keeps_a_non_finite_sup():
    # the ell-0.01 parts {-2: 1e-300j} and {0: 0.2, 3: 1e-300} overflow at
    # the thin edge, and so do their L2 norms (|b_n| e^{|n|X}, X ~ 984): a
    # W element with a non-finite norm cannot be normalized, so the report
    # stops with an error that names it
    cs = (CollarParams(0.01), CollarParams(0.3))
    basis = [({0: 1}, {0: 0.5}), ({1: 1e-300}, {0: 1}),
             ({-2: 1e-300j}, {1: 1}), ({0: 0.2, 3: 1e-300}, {2: 0.3})]
    space = QDSpace([MultiCollarQD([LaurentQD(c, d) for c, d in zip(cs, e)])
                     for e in basis], collars=cs)
    with pytest.raises(DomainError,
                       match=r"W element \d+ has a non-finite L2 norm inf"):
        w_decay_report(space, [0.3], samples=4, seed=1)


def test_gram_matrix_is_the_pairwise_inner_products(rng):
    space = random_space(rng, dim=6)
    g = space.gram
    want = np.array([[mc_inner(a, b) for b in space.basis]
                     for a in space.basis])
    assert np.max(np.abs(g - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(g, g.conj().T)
    assert QDSpace([], collars=space.collars).gram.shape == (0, 0)


def test_space_json_round_trip(tmp_path, rng):
    space = random_space(rng, dim=2, n_max=2)
    data = {"collars": list(ELLS),
            "basis": [multi_to_json(e) for e in space.basis]}
    again = space_from_json(data)
    assert again.dim == 2
    for a, b in zip(space.basis, again.basis):
        assert_same_element(a, b, rel=1e-15)
    p = tmp_path / "space.json"
    p.write_text(json.dumps(data))
    assert load_space(p).dim == 2
    psi = multi_from_json(multi_to_json(space.basis[0]), space.collars)
    assert_same_element(psi, space.basis[0], rel=1e-15)


def test_space_json_errors(tmp_path):
    with pytest.raises(ValidationError):
        space_from_json([1, 2])
    with pytest.raises(ValidationError):
        space_from_json({"collars": [], "basis": []})
    with pytest.raises(ValidationError):
        space_from_json({"collars": [0.5], "basis": [[[], []]]})
    with pytest.raises(ValidationError):
        space_from_json({"collars": ["x"], "basis": []})
    with pytest.raises(ValidationError):
        multi_from_json([[]], collars=(CollarParams(0.5), CollarParams(0.6)))
    with pytest.raises(ValidationError):
        QDSpace([])  # no way to infer the collars
    with pytest.raises(ValidationError, match="'basis' must be an array"):
        space_from_json({"collars": [0.5], "basis": {"0": []}})
    with pytest.raises(ValidationError, match="basis element 1: "):
        space_from_json({"collars": [0.5], "basis": [[[]], [[{"n": 1.5}]]]})
    # collar lengths are JSON numbers in the double range, named by entry
    for collars, message in (([True, "0.8"], "collar 0: True is not a number"),
                             ([0.5, "0.8"], "collar 1: '0.8' is not a number"),
                             ([10 ** 400], "collar 0: an integer beyond"),
                             ([0.5, 3.0], "collar 1: collar core length"),
                             (0.5, "'collars' must be an array")):
        with pytest.raises(ValidationError, match=message):
            space_from_json({"collars": collars, "basis": []})
    bad = tmp_path / "space.json"
    bad.write_text("[")
    with pytest.raises(ValidationError):
        load_space(bad)
