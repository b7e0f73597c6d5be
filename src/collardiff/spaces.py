"""Finite-dimensional spans of multi-collar differentials.

A MultiCollarQD assigns one Laurent-mode differential to each collar in
a fixed tuple; the inner product is the sum of the per-collar L2 pairings
over full collars.  A QDSpace is a span of such elements together with
its Gram matrix.  The W-subspace consists of the elements whose
principal part vanishes on every collar; its codimension is at most the
number of collars.  Projection onto W is the usual orthogonal projection
P(psi) = sum_j <psi, w_j> w_j over an L2-unitary basis of W.
"""

from __future__ import annotations

import math

import numpy as np

from .collar import CollarParams, thin_boundary
from .errors import (DomainError, RankDeficiencyError, ValidationError,
                     read_json)
from .laurent import (LaurentQD, coeffs_from_json, coeffs_to_json, l2_inner,
                      l2_norm, linf_thin, principal_part, remove_principal)
from .numerics import exp_scale, square
from .report import Report, ReportRow, STATUS_EMPTY

# Relative spectral floor below which a Gram matrix counts as singular.
RANK_TOL = 1e-12

# Pivot floor (relative to the largest principal-part entry) for the
# kernel elimination in w_subspace.
_PIVOT_TOL = 1e-12


class MultiCollarQD:
    """One Laurent differential per collar, over a shared collar tuple."""

    __slots__ = ("parts",)

    def __init__(self, parts):
        parts = tuple(parts)
        if not parts:
            raise ValidationError("a multi-collar differential needs >= 1 collar")
        self.parts = parts

    @property
    def collars(self) -> tuple:
        return tuple(p.collar for p in self.parts)

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self.parts)

    def __repr__(self):
        ells = ", ".join(f"{c.ell:.4g}" for c in self.collars)
        return f"MultiCollarQD(ells=[{ells}])"


def mc_inner(u: MultiCollarQD, v: MultiCollarQD) -> complex:
    """<u, v>: sum of full-collar L2 pairings."""
    if u.collars != v.collars:
        raise DomainError("operands live over different collar tuples")
    return sum((l2_inner(a, b) for a, b in zip(u.parts, v.parts)), 0j)


def mc_norm(u: MultiCollarQD) -> float:
    return math.sqrt(sum(square(l2_norm(p)) for p in u.parts))


def mc_combine(elems, weights) -> MultiCollarQD:
    """Linear combination sum_i weights[i] * elems[i]."""
    elems = list(elems)
    if not elems:
        raise ValidationError("empty combination")
    collars = elems[0].collars
    for e in elems[1:]:
        if e.collars != collars:
            raise DomainError("combination mixes different collar tuples")
    parts = []
    for j, collar in enumerate(collars):
        acc: dict[int, complex] = {}
        for w, e in zip(weights, elems):
            if w == 0:
                continue
            for n, b in e.parts[j].coeffs.items():
                acc[n] = acc.get(n, 0j) + complex(w) * b
        n_max = max(e.parts[j].n_max for e in elems)
        parts.append(LaurentQD(collar, acc, n_max))
    return MultiCollarQD(parts)


def mc_zero(collars) -> MultiCollarQD:
    return MultiCollarQD([LaurentQD(c, {}) for c in collars])


def principal_vector(u: MultiCollarQD) -> np.ndarray:
    """b_0 on each collar, as a complex vector."""
    return np.array([principal_part(p) for p in u.parts], dtype=complex)


class QDSpace:
    """A span of multi-collar differentials with its Gram matrix."""

    __slots__ = ("collars", "basis", "gram")

    def __init__(self, basis, collars=None):
        basis = tuple(basis)
        if basis:
            collars = basis[0].collars
            for e in basis[1:]:
                if e.collars != collars:
                    raise DomainError("basis elements live over different collars")
        elif collars is None:
            raise ValidationError("zero-dimensional space needs explicit collars")
        self.collars = tuple(collars)
        self.basis = basis
        self.gram = gram_matrix_of(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)


def gram_matrix_of(basis) -> np.ndarray:
    basis = tuple(basis)
    d = len(basis)
    g = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(i, d):
            g[i, j] = mc_inner(basis[i], basis[j])
            g[j, i] = g[i, j].conjugate()
    return g


def _cholesky_or_raise(g: np.ndarray):
    evals = np.linalg.eigvalsh(g)
    if evals[0] < RANK_TOL * max(evals[-1], 0.0) or evals[0] <= 0.0:
        raise RankDeficiencyError(
            f"Gram matrix is numerically rank deficient: smallest eigenvalue "
            f"{evals[0]:.6g} vs largest {evals[-1]:.6g}", eigenvalue=float(evals[0]))
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise RankDeficiencyError(
            f"Cholesky factorization failed: {exc}",
            eigenvalue=float(evals[0])) from exc


def unitary_basis(space: QDSpace) -> list:
    """An L2-orthonormal basis of the span, via Hermitian factorization.

    Equivalent to Gram-Schmidt in exact arithmetic; one refinement pass
    is applied when the recomputed Gram of the result drifts from the
    identity.  Raises RankDeficiencyError (with the offending eigenvalue)
    if the smallest Gram eigenvalue falls below RANK_TOL * largest.
    """
    if space.dim == 0:
        return []
    g = space.gram
    elems = list(space.basis)
    for _ in range(3):
        low = _cholesky_or_raise(g)
        inv = np.linalg.inv(low)
        elems = [mc_combine(elems, inv[i, :]) for i in range(len(elems))]
        g = gram_matrix_of(elems)
        if np.max(np.abs(g - np.eye(len(elems)))) < 1e-13:
            break
    return elems


def w_subspace(space: QDSpace) -> QDSpace:
    """The subspace with vanishing principal part on every collar.

    The kernel of the principal-part functionals is computed by Gaussian
    elimination directly on the b_0 coefficient data; the resulting
    combinations then have their (roundoff-sized) n = 0 modes removed
    outright, so every returned element has principal_part exactly zero.
    The basis is orthonormalized in the L2 Gram geometry.  The result may
    be zero-dimensional.
    """
    d = space.dim
    if d == 0:
        return space
    p = np.array([principal_vector(e) for e in space.basis], dtype=complex).T
    # p has one row per collar, one column per basis element
    kernel = _kernel_columns(p)
    if kernel.shape[1] == 0:
        return QDSpace([], collars=space.collars)
    combos = []
    for v in kernel.T:
        elem = MultiCollarQD([remove_principal(part)
                              for part in mc_combine(space.basis, v).parts])
        nrm = mc_norm(elem)
        if nrm > 0:
            elem = mc_combine([elem], [1.0 / nrm])
        combos.append(elem)
    span = QDSpace(combos)
    return QDSpace(unitary_basis(span), collars=space.collars)


def _kernel_columns(p: np.ndarray) -> np.ndarray:
    """Null-space basis of p (k x d) by partial-pivot elimination."""
    k, d = p.shape
    r = p.astype(complex)
    scale = np.max(np.abs(r))
    tol = _PIVOT_TOL * scale
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(d):
        if row >= k:
            break
        sub = np.abs(r[row:, col])
        best = int(np.argmax(sub)) + row
        if np.abs(r[best, col]) <= tol:
            continue
        if best != row:
            r[[row, best]] = r[[best, row]]
        r[row] = r[row] / r[row, col]
        for other in range(k):
            if other != row and r[other, col] != 0:
                r[other] = r[other] - r[other, col] * r[row]
        pivots.append((row, col))
        row += 1
    pivot_cols = [c for _, c in pivots]
    free_cols = [c for c in range(d) if c not in pivot_cols]
    basis = np.zeros((d, len(free_cols)), dtype=complex)
    for idx, fc in enumerate(free_cols):
        basis[fc, idx] = 1.0
        for (pr, pc) in pivots:
            basis[pc, idx] = -r[pr, fc]
    return basis


def project_onto_w(space: QDSpace, psi: MultiCollarQD) -> MultiCollarQD:
    """Orthogonal projection of psi onto the W-subspace of the span."""
    if psi.collars != space.collars:
        raise DomainError("psi lives over different collars than the space")
    w = w_subspace(space)
    if w.dim == 0:
        return mc_zero(space.collars)
    weights = [mc_inner(psi, e) for e in w.basis]
    return mc_combine(w.basis, weights)


def w_decay_report(space: QDSpace, deltas, *, samples: int = 48,
                   seed: int = 0) -> Report:
    """Thin-part sup over unit-norm W elements, per threshold delta.

    Samples the unit sphere of W (plus the basis directions), measures
    max over collars of the thin-part density sup against the unit L2
    norm, and reports the e^{pi/delta} delta^-2 normalization alongside.
    A NaN or inf ratio is reported as computed (so non-converged).
    Empty table when W is trivial.
    """
    w = w_subspace(space)
    rows: list[ReportRow] = []
    if w.dim == 0:
        return Report(rows)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(101,)))
    vecs = [np.eye(w.dim, dtype=complex)[i] for i in range(w.dim)]
    for _ in range(samples):
        z = rng.standard_normal(w.dim) + 1j * rng.standard_normal(w.dim)
        vecs.append(z / np.linalg.norm(z))
    elems = [mc_combine(w.basis, v) for v in vecs]
    norms = [mc_norm(elem) for elem in elems]
    for delta in deltas:
        # np.max keeps a NaN or inf sup, which Python's max may drop
        ratios = [float(np.max([linf_thin(part, delta).sup
                                for part in elem.parts])) / norm
                  for elem, norm in zip(elems, norms)]
        best = float(np.max(ratios))
        empty = all(thin_boundary(c, delta).empty for c in space.collars)
        rows.append(ReportRow(None, float(delta), "w_linf_ratio_max", best,
                              exp_scale(best * delta * delta, math.pi / delta),
                              STATUS_EMPTY if empty else None))
    return Report(rows)


# --- JSON space files --------------------------------------------------------

def space_from_json(data) -> QDSpace:
    """Parse {"collars": [ell...], "basis": [[coeff-list per collar]...]}."""
    if not isinstance(data, dict) or "collars" not in data or "basis" not in data:
        raise ValidationError("space file needs 'collars' and 'basis' keys")
    try:
        collars = tuple(CollarParams(float(e)) for e in data["collars"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"bad collar list: {exc}") from exc
    if not collars:
        raise ValidationError("space file lists no collars")
    basis = []
    if not isinstance(data["basis"], list):
        raise ValidationError("'basis' must be an array")
    for bi, elem in enumerate(data["basis"]):
        if not isinstance(elem, list) or len(elem) != len(collars):
            raise ValidationError(
                f"basis element {bi} must list coefficients for each of "
                f"{len(collars)} collars")
        parts = [LaurentQD(c, coeffs_from_json(cl))
                 for c, cl in zip(collars, elem)]
        basis.append(MultiCollarQD(parts))
    return QDSpace(basis, collars=collars)


def multi_from_json(data, collars) -> MultiCollarQD:
    """Parse a per-collar coefficient list-of-lists against known collars."""
    if not isinstance(data, list) or len(data) != len(collars):
        raise ValidationError(
            f"expected one coefficient list per collar ({len(collars)})")
    parts = [LaurentQD(c, coeffs_from_json(cl)) for c, cl in zip(collars, data)]
    return MultiCollarQD(parts)


def multi_to_json(u: MultiCollarQD) -> list:
    return [coeffs_to_json(p.coeffs) for p in u.parts]


def load_space(path) -> QDSpace:
    return space_from_json(read_json(path))
