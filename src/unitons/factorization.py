"""Loop-group factorizations and the energy flow.

Four pieces live here.  `unitarize` splits an invertible numeric loop into a
based unitary factor and a disc-holomorphic factor through spectral
factorization of the symbol F = Psi~ Psi: one dense Cholesky of its
block-Toeplitz matrix with n*d + 1 block rows, exact for algebraic loops
(det Psi = c lambda^m).  Phi = Psi G^-1 is then formed from the polynomial
G^-1 (degree <= (n-1)*d) without sampling.  The factor's residual and the
split's unitarity and reassembly residuals are always checked against the
fixed bound 1e-9 (relative where it has a scale), and a loop that exceeds
one raises NoConvergence.
`bruhat_cell` recovers the diagonal lambda-exponents of an exact loop by
Smith reduction over the rational-function field.  `cstar_flow` and
`flow_limit` implement the lambda -> u*lambda deformation and its u -> 0
limit.  `uniton_factorize` splits a built solution into affine projector
factors by unitarizing along a chain of partial exponent subsets.
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
from .loops import CompiledLoop, LoopMat, convolve, monomial_power, trim_blocks, values_at
from .roots import marks_from_exponents
from .weierstrass import (
    ExtendedSolutionSpec,
    WeierstrassData,
    assemble_loop,
    exp_nilpotent,
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
# a loop is singular on |lambda| = 1 where sigma_min <= SINGULAR_TOL * max(1, sigma_max)
SINGULAR_TOL = 1e-10


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


def _as_loop(obj) -> LoopMat:
    if isinstance(obj, ExtendedSolutionSpec):
        obj = assemble_loop(obj)
    if not isinstance(obj, LoopMat):
        raise TypeError("expected a LoopMat or an ExtendedSolutionSpec")
    return obj


def _at(z) -> str:
    return "" if z is None else f" at z = {z}"


def _circle_values(blocks, zs):
    """Values at 64 samples of |lambda| = 1, a (Z, 64, n, n) stack, for each
    loop of the (Z, K, n, n) coefficient stack; PoleAtZ names the first z
    whose values there are not finite."""
    vals = values_at(blocks, 0, np.exp(2j * np.pi * np.arange(64) / 64))
    finite = np.isfinite(vals).all(axis=(1, 2, 3))
    if not finite.all():
        raise PoleAtZ(
            f"loop values on |lambda| = 1 are not finite{_at(zs[np.argmin(finite)])}"
        )
    return vals


def _circle_certified(vals):
    """True for each loop of the (Z, S, n, n) stack of circle values that is
    certainly regular: |det A| = prod sigma_i <= sigma_min sigma_max^(n-1)
    and sigma_max <= ||A||_F give sigma_min >= |det A| / ||A||_F^(n-1) at
    every sample, and the loop passes when the smallest of these bounds
    exceeds 2 * SINGULAR_TOL * max(1, largest ||A||_F).  The 2 is room for
    the rounding of the LU determinant.  An overflowing or underflowing
    bound (NaN or 0) does not pass."""
    n = vals.shape[-1]
    with np.errstate(all="ignore"):
        fro = np.linalg.norm(vals, axis=(-2, -1))
        lower = np.abs(np.linalg.det(vals)) / fro ** (n - 1)
        return lower.min(axis=1) > 2 * SINGULAR_TOL * np.maximum(1.0, fro.max(axis=1))


def _circle_min_singular(blocks, zs):
    """Smallest and largest singular value over 64 samples of |lambda| = 1
    for each loop of the (Z, K, n, n) coefficient stack, from one stacked
    SVD: the fallback guard for a stack that `_circle_certified` does not
    pass."""
    sing = np.linalg.svd(_circle_values(blocks, zs), compute_uv=False)
    return sing[..., -1].min(axis=1), sing[..., 0].max(axis=1)


def _check_circle(blocks, zs):
    """SingularOnCircle naming the first z whose loop has sigma_min <=
    SINGULAR_TOL * max(1, sigma_max) over 64 samples of |lambda| = 1 (PoleAtZ
    where its values are not finite).  A stack that `_circle_certified`
    passes is regular without an SVD; any other stack is decided by the
    SVD of `_circle_min_singular`, so the verdict is the SVD's."""
    if _circle_certified(_circle_values(blocks, zs)).all():
        return
    for z, smin, smax in zip(zs, *_circle_min_singular(blocks, zs)):
        if not smin > SINGULAR_TOL * max(1.0, smax):
            raise SingularOnCircle(
                f"loop is numerically singular on |lambda| = 1{_at(z)} (sigma_min = {smin:.3e})"
            )


def _symbol(blocks):
    """Blocks 0..K-1 of Psi~ Psi for a (..., K, n, n) stack of Psi's blocks:
    the upper half of the product of Psi~, whose blocks are those of Psi
    adjoined and reversed, with Psi."""
    adj = np.asarray(blocks)[..., ::-1, :, :].conj().swapaxes(-1, -2)
    return convolve(adj, blocks)[..., adj.shape[-3] - 1 :, :, :]


def _factor_residual(fblocks, g):
    """max_k ||F_k - (G~G)_k||_F over blocks 0..d of (..., d+1, n, n) stacks,
    one value per stack; NaN if any term is NaN."""
    diff = np.asarray(fblocks) - _symbol(g)
    return np.max(np.linalg.norm(diff, axis=(-2, -1)), axis=-1)


def _toeplitz_factor(fblocks, z):
    """G_0..G_d from one dense Cholesky factorization of the block-Toeplitz
    matrix of F_0..F_d with n*d + 1 block rows (see `_spectral_factors`)."""
    d = len(fblocks) - 1
    n = fblocks.shape[-1]
    rows = n * d + 1
    # band[rows - 1 + k] = F_k and band[rows - 1 - k] = F_k^* for k <= d (the
    # centre F_0^*), zero blocks outside the band
    band = np.zeros((2 * rows - 1, n, n), dtype=complex)
    band[rows - 1 : rows + d] = fblocks
    band[rows - 1 - d : rows] = fblocks[::-1].conj().swapaxes(1, 2)
    idx = np.arange(rows)
    toeplitz = band[rows - 1 + idx[None, :] - idx[:, None]]
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(rows * n, rows * n)
    try:
        chol = np.linalg.cholesky(toeplitz)
    except np.linalg.LinAlgError:
        raise SingularOnCircle(
            f"block-Toeplitz matrix of the symbol is not positive definite{_at(z)}"
        ) from None
    # G_j = L[rows-1][rows-1-j]^*: the last d+1 blocks of L's last block row
    last = chol[-n:, (rows - 1 - d) * n :].reshape(n, d + 1, n)
    return last.transpose(1, 2, 0)[::-1].conj()


def _spectral_factors(blocks, zs):
    """Polynomial G with G~G = Psi~Psi, invertible on the closed disc, for
    each loop of the (Z, K, n, n) coefficient stack (loop i taken at zs[i]).

    Returns the (Z, d+1, n, n) stack of G_0..G_d, trimmed like a numeric
    LoopMat, and each factor's residual.  The whole stack is factored at one
    degree: d is the top degree of the trimmed symbols F = Psi~Psi, so each
    F has Fourier blocks F_-d..F_d, zero above its own degree.  Each G is
    read off its own dense Cholesky factorization T = L L^* of the Hermitian
    block-Toeplitz matrix T[i][j] = F_(j-i) with rows = n*d + 1 block rows.
    The last block row of L, read backwards, is G: G_j = L[rows-1][rows-1-j]^*.

    The row count is exact, not a truncation, for algebraic loops
    (det Psi = c lambda^m).  There det G is a polynomial without zeros in
    the closed disc and of constant modulus on the circle, hence constant,
    so G^-1 = adj G / det G is a polynomial of degree e <= (n-1)*d.  Row k of
    L^-1 solves the Yule-Walker equations of the leading k+1 block rows;
    for k >= e its solution is the coefficient row of G~^-1 lambda^k, since
    G~^-1 lambda^k F = lambda^k G has no powers below k.  Then
    L = T L^-*, and the last row of L sees only rows k >= rows-1-d of L^-1,
    which gives L[rows-1][rows-1-j] = G_j^* once rows-1-d >= e, that is
    rows >= n*d + 1.  Any larger row count is exact too, so a point whose
    own symbol has a lower degree than d factors exactly at the stack's d.

    Every guard works per z and names the first z it fails at: a loop
    singular on the circle or a Toeplitz matrix that is not positive
    definite raises SingularOnCircle, a non-finite symbol PoleAtZ.  The
    circle guard `_check_circle` is a det/Frobenius certificate with an SVD
    fallback.  The residual of G~G against F is checked against the
    relative bound DEFAULT_TOL (1e-9 times max(1, ||F_0||)): a loop that is
    not algebraic, or too ill-conditioned for the factorization, raises
    NoConvergence with its residual and row count.
    """
    _check_circle(blocks, zs)
    fblocks = trim_blocks(_symbol(blocks))
    finite = np.isfinite(fblocks).all(axis=(1, 2, 3))
    if not finite.all():
        raise PoleAtZ(f"symbol blocks of the loop are not finite{_at(zs[np.argmin(finite)])}")
    d = int(np.flatnonzero(fblocks.any(axis=(0, 2, 3)))[-1])
    fblocks = fblocks[:, : d + 1]
    g = np.array([_toeplitz_factor(f, z) for f, z in zip(fblocks, zs)])
    res = _factor_residual(fblocks, g)
    scale = np.maximum(1.0, np.linalg.norm(fblocks[:, 0], axis=(1, 2)))
    n = blocks.shape[-1]
    for z, r, s in zip(zs, res, scale):
        if not r <= DEFAULT_TOL * s:
            raise NoConvergence(
                f"spectral factorization residual {r:.3e} exceeds "
                f"{DEFAULT_TOL * s:.3e}{_at(z)} at {n * d + 1} block rows (n = {n}, d = {d}); "
                "the loop is not algebraic (det Psi = c lambda^m) or is too "
                "ill-conditioned"
            )
    return trim_blocks(g), res


def unitarize(psi, z=None) -> IwasawaFactors:
    """Split an invertible loop into (based unitary) times (powers >= 0).

    The symbol F = Psi~Psi is factored as G~G with G polynomial and
    invertible on the disc, by one Cholesky factorization of the
    block-Toeplitz matrix of F with n*d + 1 block rows (d the degree of F).
    Every row count >= n*d + 1 is exact for algebraic loops,
    det Psi = c lambda^m, which is every loop this package builds; numeric
    loops passed in must be algebraic too.  A factor residual above the
    relative bound 1e-9 (the loop is not algebraic, or too ill-conditioned)
    raises NoConvergence.
    Then Phi = Psi G^-1 is unitary on the circle and the returned parts
    are Phi(lambda) Phi(1)^-1 and Phi(1) G.  G^-1 is a polynomial of degree
    <= (n-1)*d (see `_spectral_factors`), so its blocks come from the power
    series recursion H_0 = G_0^-1, H_k = -H_0 sum_(j=1..min(k,d)) G_j H_(k-j),
    and Phi = Psi H is an exact product: no circle samples, no truncation.
    A unitarity residual above 1e-9, or a split residual above 1e-9 times
    max(1, max_k ||Psi_k||), raises NoConvergence naming both, the bound
    and z.
    """
    psi = _as_loop(psi).to_numeric(z)
    g = _spectral_factors(np.array(psi.coeffs)[None], [z])[0][0]
    d = len(g) - 1
    h = np.zeros(((psi.n - 1) * d + 1, psi.n, psi.n), dtype=complex)
    h[0] = np.linalg.inv(g[0])
    for k in range(1, len(h)):
        j = np.arange(1, min(k, d) + 1)
        h[k] = -h[0] @ (g[j] @ h[k - j]).sum(axis=0)
    phi = psi @ LoopMat.numeric(h)
    phi_one = phi.evaluate(1.0)
    unitary = phi @ LoopMat.numeric([np.linalg.inv(phi_one)])
    plus = LoopMat.numeric([phi_one]) @ LoopMat.numeric(g)
    resid_u = unitary.unitarity_residual(samples=64)
    psi_v, unitary_v, plus_v = (
        loop.circle_values(64, 0.5) for loop in (psi, unitary, plus)
    )
    resid_s = float(np.linalg.norm(psi_v - unitary_v @ plus_v, axis=(1, 2)).max())
    bound = DEFAULT_TOL * max(1.0, psi.max_coeff_norm())
    if not (resid_u <= DEFAULT_TOL and resid_s <= bound):
        raise NoConvergence(
            f"Iwasawa split residuals exceed their bounds{_at(z)}: unitarity "
            f"{resid_u:.3e} (bound {DEFAULT_TOL:.0e}), split {resid_s:.3e} "
            f"(bound {bound:.3e})"
        )
    return IwasawaFactors(unitary, plus, resid_u, resid_s)


def harmonic_map_at(obj, z) -> np.ndarray:
    """Value at lambda = -1 of the based unitary factor of the loop at z; for
    a 1-D array of z, the (Z, n, n) stack of the values.

    obj is a LoopMat, an ExtendedSolutionSpec or a CompiledLoop; an exact
    loop is compiled once and evaluated at every z with one array pass.
    Works pointwise from the spectral factor: with Phi = Psi G^-1 the value
    is Phi(-1) Phi(1)^-1, no Fourier extraction involved.  Each G comes from
    its own finite block-Toeplitz Cholesky as in `unitarize`, at one degree
    for the whole stack: d is the top symbol degree over all z and every
    point gets n*d + 1 block rows.  Any count >= n*d + 1 is exact for
    algebraic loops, so a point of lower degree (z = 0 of a Veronese loop)
    factors exactly too, and the value is a smooth function of z.  The
    guards work per z: a pole raises PoleAtZ, a loop singular on the circle
    SingularOnCircle, and a factor residual or a value ||phi phi* - I||_F
    above the 1e-9 bound NoConvergence, each naming the first z that fails.
    """
    one_point = np.ndim(z) == 0
    zs = [z] if one_point else z
    loop = obj if isinstance(obj, CompiledLoop) else CompiledLoop(_as_loop(obj))
    # trimmed as a numeric LoopMat is, so each point factors as in `unitarize`
    blocks = trim_blocks(loop.values(zs))
    g = _spectral_factors(blocks, zs)[0]
    # Phi(-1) and Phi(1) for each z, Phi = Psi G^-1
    phi = values_at(blocks, loop.lo, [-1, 1]) @ np.linalg.inv(values_at(g, 0, [-1, 1]))
    values = phi[:, 0] @ np.linalg.inv(phi[:, 1])
    resid = np.linalg.norm(values @ values.conj().transpose(0, 2, 1) - np.eye(loop.n), axis=(1, 2))
    bad = np.flatnonzero(~(resid <= DEFAULT_TOL))
    if bad.size:
        raise NoConvergence(
            f"map value is {resid[bad[0]]:.3e} from unitary (bound {DEFAULT_TOL:.0e})"
            f"{_at(zs[bad[0]])}; the loop is too ill-conditioned there"
        )
    return values[0] if one_point else values


def energy(obj, z=None) -> float:
    """Sum of k^2 ||A_k||_F^2 over the Fourier blocks of the loop.

    Normalized so a diagonal power loop with exponents k_i has energy
    sum k_i^2.
    """
    loop = _as_loop(obj).to_numeric(z)
    return float(
        sum(
            k * k * np.linalg.norm(loop.coeff(k)) ** 2
            for k in range(loop.lo, loop.hi + 1)
        )
    )


def cstar_flow(obj, t: float, z=None) -> LoopMat:
    """Unitary factor of the loop with lambda replaced by exp(-t)*lambda.

    Columns decay like exp(-t*k_j) under the substitution, so before
    factorizing they are rebalanced by a constant diagonal; that is a right
    Lambda+ factor and leaves the based unitary part untouched.
    """
    loop = _as_loop(obj).to_numeric(z)
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
    return unitarize(scaled, z).unitary_part


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


def _smith_diagonal(m, n: int):
    """Diagonalize over F[lambda] by swaps and row/column additions: prod = +-det."""
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
                raise NotInvertibleLoop("loop determinant is identically zero")
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
    The determinant, read off the reduced diagonal, must be a nonzero lambda
    monomial (NotInvertibleLoop, NonMonomialDeterminant otherwise).  Numeric
    loops are refused: rank decisions over floats are ill-posed.
    """
    obj = _as_loop(obj)
    if obj.kind != "exact":
        raise ExactKindUnsupported("cell recovery needs an exact loop")
    diag = _smith_diagonal(obj._entry_polys(), obj.n)
    det = diag[0]
    for p in diag[1:]:
        det = det * p
    monomial_power(det, obj.n * obj.lo)
    # every factor of a monomial is a monomial, so its degree is its power
    exps = sorted((p.degree + obj.lo for p in diag), reverse=True)
    return BruhatCell(tuple(exps))


def uniton_factorize(spec: ExtendedSolutionSpec, z):
    """Affine projector factors at z and the unitary factor of the whole loop.

    Walks the chain of exponent subsets J_1 subset J_2 subset ... obtained by
    adding marked positions in decreasing order, unitarizes each partial loop
    exp(C) gamma_J at z with one exp C, and returns the successive quotients
    u_{j-1}^* u_j (with u_0 = I) and the last u_j (I for an empty chain).
    Each quotient is affine, pi + lambda*(1 - pi) with pi a Hermitian
    projection, and the factors multiply back to the full unitary part.
    """
    marks = marks_from_exponents(spec.exponents)
    if any(m not in (0, 1) for m in marks):
        raise NotCanonical(
            f"exponents {spec.exponents} are not canonical (marks {marks})"
        )
    support = [i + 1 for i, m in enumerate(marks) if m == 1]
    exp_c = exp_nilpotent(spec.c_lambda())
    factors = []
    unitary = LoopMat.identity(spec.n, kind="numeric")
    for count in range(1, len(support) + 1):
        subset = sorted(support, reverse=True)[:count]
        partial = exp_c.times_diag_powers(transform_subset(spec, subset).exponents)
        u = unitarize(partial, z=z).unitary_part
        factors.append(unitary.circle_adjoint() @ u if factors else u)
        unitary = u
    return factors, unitary


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
