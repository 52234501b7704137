"""Loop-group factorizations and the energy flow.

Four pieces live here.  `unitarize` splits an invertible numeric loop into a
based unitary factor and a disc-holomorphic factor through spectral
factorization of the symbol F = Psi~ Psi: one dense Cholesky of its
block-Toeplitz matrix with n*d + 1 block rows, exact for algebraic loops
(det Psi = c lambda^m); the factor's residual is always checked and a loop
that misses it raises NoConvergence.  `bruhat_cell` recovers the diagonal
lambda-exponents of an exact loop by Smith reduction over the
rational-function field.  `cstar_flow` and `flow_limit` implement the
lambda -> u*lambda deformation and its u -> 0 limit.  `uniton_factorize`
splits a built solution into affine projector factors by unitarizing along
a chain of partial exponent subsets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exactmat
from .errors import (
    ExactKindUnsupported,
    NoConvergence,
    NotCanonical,
    NotInBigCellForm,
    NotInvertibleLoop,
    PoleAtZ,
    SingularOnCircle,
)
from .loops import LoopMat
from .roots import marks_from_exponents
from .scalars import Poly
from .weierstrass import (
    ExtendedSolutionSpec,
    WeierstrassData,
    assemble_loop,
    left_log_derivative,
    transform_subset,
)

__all__ = [
    "IwasawaFactors",
    "BruhatCell",
    "unitarize",
    "harmonic_map_at",
    "bruhat_cell",
    "cstar_flow",
    "flow_limit",
    "uniton_factorize",
    "big_cell_check",
    "energy",
]

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class IwasawaFactors:
    """Split Psi = unitary_part @ plus_part with unitary_part(1) = I."""

    unitary_part: LoopMat
    plus_part: LoopMat
    residual_unitarity: float
    residual_split: float


@dataclass(frozen=True)
class BruhatCell:
    exponents: tuple


def _as_numeric_loop(obj, z=None) -> LoopMat:
    if isinstance(obj, ExtendedSolutionSpec):
        obj = assemble_loop(obj)
    if not isinstance(obj, LoopMat):
        raise TypeError("expected a LoopMat or an ExtendedSolutionSpec")
    try:
        return obj.to_numeric(z)
    except ZeroDivisionError:
        raise PoleAtZ(f"loop entries have a pole at z = {z}") from None


def _symbol_blocks(psi: LoopMat):
    """Fourier blocks F_0..F_d of F = Psi~ Psi (F_{-k} = F_k^*)."""
    sym = psi.circle_adjoint() @ psi
    d = sym.hi
    return [np.array(sym.coeff(k)) for k in range(d + 1)], d


def _circle_min_singular(psi: LoopMat, samples: int = 64):
    """Smallest and largest singular value of Psi over sampled |lambda| = 1."""
    vals = psi.circle_values(samples)
    if not np.isfinite(vals).all():
        raise PoleAtZ("loop values on |lambda| = 1 are not finite")
    sing = np.linalg.svd(vals, compute_uv=False)
    return float(sing[:, -1].min()), float(sing[:, 0].max())


def _factor_residual(fblocks, g, d: int) -> float:
    """max_k ||F_k - sum_l G_l^* G_(l+k)||_F; NaN if any term is NaN."""
    norms = [
        np.linalg.norm(
            fblocks[k] - sum(g[l].conj().T @ g[l + k] for l in range(d + 1 - k))
        )
        for k in range(d + 1)
    ]
    return float(np.max(norms))


def _spectral_factor(psi: LoopMat, tol: float):
    """Polynomial G with G~G = Psi~Psi, invertible on the closed disc.

    G is read off one dense Cholesky factorization T = L L^* of the Hermitian
    block-Toeplitz matrix T[i][j] = F_(j-i) with rows = n*d + 1 block rows,
    where F = Psi~Psi has Fourier blocks F_-d..F_d.  The last block row of
    L, read backwards, is G: G_j = L[rows-1][rows-1-j]^*.

    The row count is exact, not a truncation, for algebraic loops
    (det Psi = c lambda^m).  There det G is a polynomial without zeros in
    the closed disc and of constant modulus on the circle, hence constant,
    so G^-1 = adj G / det G is a polynomial of degree e <= (n-1)*d.  Row k of
    L^-1 solves the Yule-Walker equations of the leading k+1 block rows;
    for k >= e its solution is the coefficient row of G~^-1 lambda^k, since
    G~^-1 lambda^k F = lambda^k G has no powers below k.  Then
    L = T L^-*, and the last row of L sees only rows k >= rows-1-d of L^-1,
    which gives L[rows-1][rows-1-j] = G_j^* once rows-1-d >= e, that is
    rows >= n*d + 1.

    The residual of G~G against F is always checked: a loop that is not
    algebraic, or too ill-conditioned for the factorization, raises
    NoConvergence with its residual and row count.
    """
    if psi.lo < 0:
        raise ValueError("spectral factor expects nonnegative powers")
    smin, smax = _circle_min_singular(psi)
    if not smin > 1e-10 * max(1.0, smax):
        raise SingularOnCircle(
            f"loop is numerically singular on |lambda| = 1 (sigma_min = {smin:.3e})"
        )
    fblocks, d = _symbol_blocks(psi)
    if not np.isfinite(fblocks).all():
        raise PoleAtZ("symbol blocks of the loop are not finite")
    n = psi.n
    rows = n * d + 1
    # band[rows - 1 + k] = F_k for |k| <= d, zero blocks outside the band
    band = np.zeros((2 * rows - 1, n, n), dtype=complex)
    for k in range(d + 1):
        band[rows - 1 + k] = fblocks[k]
        band[rows - 1 - k] = fblocks[k].conj().T
    idx = np.arange(rows)
    toeplitz = band[rows - 1 + idx[None, :] - idx[:, None]]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(rows * n, rows * n)
    try:
        chol = np.linalg.cholesky(toeplitz)
    except np.linalg.LinAlgError:
        raise SingularOnCircle(
            "block-Toeplitz matrix of the symbol is not positive definite"
        ) from None
    last = chol[-n:]
    g = [
        last[:, (rows - 1 - j) * n : (rows - j) * n].conj().T
        for j in range(d + 1)
    ]
    res = _factor_residual(fblocks, g, d)
    scale = max(1.0, np.linalg.norm(fblocks[0]))
    if not res <= tol * scale:
        raise NoConvergence(
            f"spectral factorization residual {res:.3e} exceeds "
            f"{tol * scale:.3e} at {rows} block rows (n = {n}, d = {d}); "
            "the loop is not algebraic (det Psi = c lambda^m) or is too "
            "ill-conditioned"
        )
    return g, res


def _fourier_coeffs(values, lo: int, hi: int) -> LoopMat:
    """LoopMat with powers lo..hi from equispaced circle samples."""
    arr = np.array(values)
    m = arr.shape[0]
    hat = np.fft.fft(arr, axis=0) / m
    coeffs = [hat[k % m] for k in range(lo, hi + 1)]
    return LoopMat.numeric(coeffs, lo)


def unitarize(psi, z=None, tol: float = DEFAULT_TOL) -> IwasawaFactors:
    """Split an invertible loop into (based unitary) times (powers >= 0).

    The symbol F = Psi~Psi is factored as G~G with G polynomial and
    invertible on the disc, by one Cholesky factorization of the
    block-Toeplitz matrix of F with n*d + 1 block rows (d the degree of F).
    That row count is exact for algebraic loops, det Psi = c lambda^m, which
    is every loop this package builds; numeric loops passed in must be
    algebraic too.  The factor's residual is checked against tol, and a
    loop that misses it (not algebraic, or too ill-conditioned) raises
    NoConvergence.  Then Phi = Psi G^-1 is unitary on the circle and the
    returned parts are Phi(lambda) Phi(1)^-1 and Phi(1) G.
    """
    psi = _as_numeric_loop(psi, z)
    shift = min(psi.lo, 0)
    work = psi.shift(-shift) if shift else psi
    g, _ = _spectral_factor(work, tol)
    gloop = LoopMat.numeric(g, 0)
    d = work.hi
    msamp = 8
    while msamp < 4 * (d + 2):
        msamp *= 2
    phi_vals = work.circle_values(msamp) @ np.linalg.inv(gloop.circle_values(msamp))
    phi = _fourier_coeffs(phi_vals, 0, d)
    phi_one = phi.evaluate(1.0)
    unitary = (phi @ LoopMat.numeric([np.linalg.inv(phi_one)])).shift(shift)
    plus = LoopMat.numeric([phi_one]) @ gloop
    resid_u = unitary.unitarity_residual(samples=64)
    psi_v, unitary_v, plus_v = (
        loop.circle_values(64, 0.5) for loop in (psi, unitary, plus)
    )
    resid_s = float(np.linalg.norm(psi_v - unitary_v @ plus_v, axis=(1, 2)).max())
    return IwasawaFactors(unitary, plus, resid_u, resid_s)


def harmonic_map_at(obj, z, tol: float = DEFAULT_TOL):
    """Value at lambda = -1 of the based unitary factor of the loop at z.

    Works pointwise from the spectral factor: with Phi = Psi G^-1 the result
    is Phi(-1) Phi(1)^-1, no Fourier extraction involved.  G comes from the
    same finite block-Toeplitz Cholesky as in `unitarize` (n*d + 1 block
    rows, the exact count for algebraic loops), so the value is a smooth
    function of z; a loop whose factor misses tol raises NoConvergence.
    """
    psi = _as_numeric_loop(obj, z)
    shift = min(psi.lo, 0)
    work = psi.shift(-shift) if shift else psi
    g, _ = _spectral_factor(work, tol)
    gloop = LoopMat.numeric(g, 0)
    pm = work.evaluate(-1.0) @ np.linalg.inv(gloop.evaluate(-1.0))
    pp = work.evaluate(1.0) @ np.linalg.inv(gloop.evaluate(1.0))
    # the lambda^shift prefactor contributes (-1)^shift at lambda = -1
    return float((-1) ** shift) * (pm @ np.linalg.inv(pp))


def energy(obj, z=None) -> float:
    """Sum of k^2 ||A_k||_F^2 over the Fourier blocks of the loop.

    Normalized so a diagonal power loop with exponents k_i has energy
    sum k_i^2.
    """
    loop = _as_numeric_loop(obj, z)
    return float(
        sum(
            k * k * np.linalg.norm(loop.coeff(k)) ** 2
            for k in range(loop.lo, loop.hi + 1)
        )
    )


def cstar_flow(obj, t: float, z=None, tol: float = DEFAULT_TOL) -> LoopMat:
    """Unitary factor of the loop with lambda replaced by exp(-t)*lambda.

    Columns decay like exp(-t*k_j) under the substitution, so before
    factorizing they are rebalanced by a constant diagonal; that is a right
    Lambda+ factor and leaves the based unitary part untouched.
    """
    loop = _as_numeric_loop(obj, z)
    try:
        u = math.exp(-t)
        blocks = [
            np.array(loop.coeff(k)) * u**k for k in range(loop.lo, loop.hi + 1)
        ]
    except (OverflowError, ZeroDivisionError):
        raise PoleAtZ(f"lambda -> exp(-t) lambda leaves the float range at t = {t!r}") from None
    scale = np.ones(loop.n)
    for j in range(loop.n):
        top = max(np.linalg.norm(b[:, j]) for b in blocks)
        if top > 0:
            scale[j] = 1.0 / top
    d = np.diag(scale)
    scaled = LoopMat.numeric([b @ d for b in blocks], loop.lo)
    return unitarize(scaled, tol=tol).unitary_part


def flow_limit(spec: ExtendedSolutionSpec) -> ExtendedSolutionSpec:
    """The t -> infinity flow destination: only the lambda^0 slots survive."""
    kept = {
        key: [row[:] for row in mat]
        for key, mat in spec.c_slots.items()
        if key[0] == 0
    }
    return ExtendedSolutionSpec(
        n=spec.n,
        exponents=spec.exponents,
        c_slots=kept,
        even_only=spec.even_only,
        strict_grading=spec.strict_grading,
    )


def _poly_valuation(p: Poly) -> int:
    for k in range(p.degree + 1):
        if not p[k].is_zero():
            return k
    raise ValueError("zero polynomial has no valuation")


def _smith_diagonal(m, n: int):
    """Diagonalize a matrix over F[lambda] by row/column operations."""
    m = [row[:] for row in m]
    diag = []
    for k in range(n):
        while True:
            pivot = None
            best = -1
            for i in range(k, n):
                for j in range(k, n):
                    if m[i][j].is_zero():
                        continue
                    if pivot is None or m[i][j].degree < best:
                        pivot, best = (i, j), m[i][j].degree
            if pivot is None:
                raise NotInvertibleLoop("matrix is singular over the field")
            pi, pj = pivot
            if pi != k:
                m[pi], m[k] = m[k], m[pi]
            if pj != k:
                for row in m:
                    row[pj], row[k] = row[k], row[pj]
            p = m[k][k]
            clean = True
            for i in range(k + 1, n):
                if m[i][k].is_zero():
                    continue
                q = m[i][k] // p
                m[i] = [a - q * b for a, b in zip(m[i], m[k])]
                if not m[i][k].is_zero():
                    clean = False
            for j in range(k + 1, n):
                if m[k][j].is_zero():
                    continue
                q = m[k][j] // p
                for row in m:
                    row[j] = row[j] - q * row[k]
                if not m[k][j].is_zero():
                    clean = False
            if clean:
                break
        diag.append(m[k][k])
    return diag


def bruhat_cell(obj) -> BruhatCell:
    """Diagonal lambda-exponents of an exact loop under two-sided reduction.

    Reduction happens over the univariate polynomial ring in lambda with
    rational-function coefficients, so the answer is the generic-z cell.
    Numeric loops are refused: rank decisions over floats are ill-posed.
    """
    if isinstance(obj, ExtendedSolutionSpec):
        obj = assemble_loop(obj)
    if not isinstance(obj, LoopMat):
        raise TypeError("expected a LoopMat or an ExtendedSolutionSpec")
    if obj.kind != "exact":
        raise ExactKindUnsupported("cell recovery needs an exact loop")
    obj.det_lambda()  # raises unless det is a nonzero lambda monomial
    diag = _smith_diagonal(obj._entry_polys(), obj.n)
    exps = sorted((_poly_valuation(p) + obj.lo for p in diag), reverse=True)
    return BruhatCell(tuple(exps))


def uniton_factorize(spec: ExtendedSolutionSpec, z, tol: float = DEFAULT_TOL):
    """Affine projector factors of the built solution at a point z.

    Walks the chain of exponent subsets J_1 subset J_2 subset ... obtained by
    adding marked positions in decreasing order, unitarizes each partial loop
    at z, and returns the successive quotients u_{j-1}^* u_j (with u_0 = I).
    Each quotient is affine, pi + lambda*(1 - pi) with pi a Hermitian
    projection, and the factors multiply back to the full unitary part.
    """
    marks = marks_from_exponents(spec.exponents)
    if any(m not in (0, 1) for m in marks):
        raise NotCanonical(
            f"exponents {spec.exponents} are not canonical (marks {marks})"
        )
    support = [i + 1 for i, m in enumerate(marks) if m == 1]
    if not support:
        return []
    factors = []
    prev = None
    for count in range(1, len(support) + 1):
        subset = sorted(support, reverse=True)[:count]
        partial = transform_subset(spec, subset)
        u = unitarize(assemble_loop(partial), z=z, tol=tol).unitary_part
        q = u if prev is None else prev.circle_adjoint() @ u
        factors.append(q)
        prev = u
    return factors


def big_cell_check(spec: ExtendedSolutionSpec) -> WeierstrassData:
    """Certify that the loop's log derivative is pure lambda^-1 and return it.

    For Phi = exp(C) gamma the z-derivative term gamma^-1 (exp C)^-1
    (exp C)_z gamma puts a grade-g component of the lambda^i coefficient at
    lambda^(i-g); the normalized form requires every component to land at
    lambda^-1 exactly.
    """
    n = spec.n
    lp = left_log_derivative(spec.c_lambda())
    v = exactmat.zeros(n)
    for i in range(lp.lo, lp.hi + 1):
        mat = lp.coeff(i)
        for a in range(n):
            for b in range(n):
                if mat[a][b].is_zero():
                    continue
                g = spec.exponents[a] - spec.exponents[b]
                if g != i + 1:
                    raise NotInBigCellForm(
                        f"lambda^{i} coefficient has a grade-{g} entry at "
                        f"({a + 1},{b + 1}); it would land at lambda^{i - g}"
                    )
                v[a][b] = mat[a][b]
    return WeierstrassData(V=tuple(tuple(row) for row in v))
