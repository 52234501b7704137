"""Loop-group factorizations and the energy flow.

Four pieces live here.  `unitarize` splits an invertible numeric loop into a
based unitary factor and a disc-holomorphic factor in Segal's Grassmannian
model: for an algebraic loop (det Psi = c lambda^m) shifted to powers >= 0,
W = Psi H+ lies between lambda^R H+ and H+, and the unitary factor's columns
are an orthonormal basis of W - lambda W, read off the n(R+1) x nR
generator matrix of lambda W, whose rank nR - m is known.  A loop built
from a spec, exp(C) gamma, carries gamma's exponents k: m = sum k and
R = max k, and exactly nR - m generator columns are nonzero, so one QR
gives the basis.  A bare loop is sampled on |lambda| = 1, where one SVD
finds it regular and det Psi gives m, whose single lambda power is
checked; it takes the QR too when its count of nonzero columns is nR - m,
or an SVD whose singular values must be separated at that rank.  The
split's unitarity and reassembly residuals and the map value's unitarity
are always checked against the fixed bound 1e-9 (relative where it has a
scale), and a loop that fails a check raises NoConvergence.
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
    NonMonomialDeterminant,
    NotCanonical,
    NotInBigCellForm,
    NotInvertibleLoop,
    PoleAtZ,
    SingularOnCircle,
)
from .loops import CompiledLoop, LoopMat, convolve, trim_blocks, values_at
from .roots import exponents_from_marks, marks_from_exponents
from .weierstrass import (
    ExtendedSolutionSpec,
    WeierstrassData,
    assemble_loop,
    assemble_numeric,
    exp_nilpotent,
    left_log_derivative,
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


def _power_and_height(blocks, lo, zs, exponents):
    """(m, R) for the (Z, K, n, n) coefficient stack of loops Psi = lambda^lo
    (blocks[0] + blocks[1] lambda + ...), loop i taken at zs[i]: m, an array,
    is each point's power of det(lambda^-lo Psi) = c lambda^m, and R, one
    integer for the stack, a height with lambda^R H+ inside W = Psi H+.
    PoleAtZ names the first z whose loop values on |lambda| = 1 are not
    finite.

    exponents is None for a bare loop.  For a loop Psi = exp(C) gamma built
    from a spec they are gamma's k: exp C is unipotent at lambda = 0, so
    column i of Psi starts at lambda^(k_i) with an invertible matrix of
    lowest coefficients, det Psi = lambda^(sum k) and R = max k, with no
    circle samples; its values are finite where its coefficients are.  That
    holds while the trim of small blocks keeps the lowest one (lo = 0).

    Any other loop is sampled at S points of |lambda| = 1: S = 64, or the
    next multiple of 64 above n*(K-1), the degree of det Psi, so that no
    power aliases.  One stacked SVD of the samples raises SingularOnCircle
    naming the first z with sigma_min <= SINGULAR_TOL * max(1, sigma_max)
    over them.  m is read off the discrete Fourier transform of det Psi at
    the samples: a non-finite det raises PoleAtZ, and a det with a second
    power above DEFAULT_TOL times its largest raises NoConvergence naming
    the powers, since the loop is not algebraic.  If column j has lowest
    power o_j, then lambda^(m - sum o + max o) Psi^-1 is a polynomial (by
    Cramer's rule on the column-shifted loop), so R is the largest
    m - sum o + max o over the stack; any larger R serves as well.
    """
    spec = exponents is not None and lo == 0
    n = blocks.shape[-1]
    if spec:
        vals = blocks
    else:
        samples = 64 * (n * (blocks.shape[-3] - 1) // 64 + 1)
        vals = values_at(blocks, 0, np.exp(2j * np.pi * np.arange(samples) / samples))
    finite = np.isfinite(vals)
    if not finite.all():
        z = zs[np.argmin(finite.all(axis=(1, 2, 3)))]
        raise PoleAtZ(f"loop values on |lambda| = 1 are not finite{_at(z)}")
    if spec:
        return np.full(len(blocks), sum(exponents)), max(exponents)
    sing = np.linalg.svd(vals, compute_uv=False)
    for z, smin, smax in zip(zs, sing[..., -1].min(axis=1), sing[..., 0].max(axis=1)):
        if not smin > SINGULAR_TOL * max(1.0, smax):
            raise SingularOnCircle(
                f"loop is numerically singular on |lambda| = 1{_at(z)} (sigma_min = {smin:.3e})"
            )
    with np.errstate(all="ignore"):
        dets = np.linalg.det(vals)
    finite = np.isfinite(dets).all(axis=1)
    if not finite.all():
        raise PoleAtZ(f"det Psi on |lambda| = 1 is not finite{_at(zs[np.argmin(finite)])}")
    coeffs = np.abs(np.fft.fft(dets))
    present = coeffs > DEFAULT_TOL * coeffs.max(axis=1, keepdims=True)
    for z, powers in zip(zs, present):
        if powers.sum() > 1:
            raise NoConvergence(
                f"det Psi has lambda powers {(np.flatnonzero(powers) + n * lo).tolist()}{_at(z)}; "
                "the loop is not algebraic (det Psi = c lambda^m)"
            )
    m = coeffs.argmax(axis=1)
    low = (blocks != 0).any(axis=-2).argmax(axis=1)
    return m, int((m - low.sum(axis=1) + low.max(axis=1)).max())


def _wandering_blocks(blocks, m, height, zs):
    """Blocks 0..R of a unitary Phi with Phi H+ = W = Psi H+, for each loop
    of the (Z, K, n, n) coefficient stack of polynomial loops Psi, given the
    powers m of their dets and a height R with lambda^R H+ inside W.

    Phi's columns are an orthonormal basis of W - lambda W, which lies in
    the polynomials P_R of degree <= R (Beurling-Lax).  Truncated to P_R,
    lambda W is spanned by the columns lambda^j Psi e_i, j = 1..R, of one
    n(R+1) x nR generator matrix of rank nR - m, known in advance.  When
    exactly nR - m of its columns are nonzero at every point, as for every
    loop built from a spec, they are independent, and one QR of them
    followed by Psi's columns gives Phi as its last n columns.  Otherwise
    an SVD gives an orthonormal basis of truncated lambda W; Psi's columns
    less their part in it span W - lambda W, and a QR of them gives Phi.
    The singular values on either side of rank nR - m must be separated,
    the lower at most DEFAULT_TOL times the upper, or NoConvergence names z.
    """
    count, k, n = len(blocks), blocks.shape[1], blocks.shape[-1]
    gen = np.zeros((count, height + 1, n, height + 1, n), dtype=complex)
    for j in range(height + 1):
        top = min(k, height + 1 - j)
        gen[:, j : j + top, :, j] = blocks[:, :top]
    gen = gen.reshape(count, (height + 1) * n, (height + 1) * n)
    psi, shifted = gen[..., :n], gen[..., n:]
    rank = n * height - m
    nonzero = shifted.any(axis=1)
    if (nonzero.sum(axis=1) == rank).all() and (rank == rank[0]).all():
        kept = np.argsort(~nonzero, axis=1, kind="stable")[:, None, : rank[0]]
        basis = np.take_along_axis(shifted, kept, axis=2)
        q = np.linalg.qr(np.concatenate([basis, psi], axis=2))[0][..., -n:]
        return q.reshape(count, height + 1, n, n)
    u, sing, _ = np.linalg.svd(shifted, full_matrices=False)
    # sigma_0 := sigma_1 and sigma_(nR+1) := 0 at the ends
    sing = np.pad(sing, ((0, 0), (1, 1)))
    sing[:, 0] = sing[:, 1]
    upper, lower = sing[np.arange(count), rank], sing[np.arange(count), rank + 1]
    for z, r, s_up, s_low in zip(zs, rank, upper, lower):
        if not s_low <= DEFAULT_TOL * s_up:
            raise NoConvergence(
                f"singular values {s_up:.3e} and {s_low:.3e} on either side of rank {r} "
                f"of lambda W are not separated (bound {DEFAULT_TOL:.0e}){_at(z)}; "
                "the loop is too ill-conditioned"
            )
    basis = u * (np.arange(n * height) < rank[:, None])[:, None, :]
    q = np.linalg.qr(psi - basis @ (basis.conj().swapaxes(-1, -2) @ psi))[0]
    return q.reshape(count, height + 1, n, n)


def unitarize(psi, z=None) -> IwasawaFactors:
    """Split an invertible loop into (based unitary) times (powers >= 0).

    Shifted to powers >= 0, the loop spans W = Psi H+ with
    lambda^R H+ inside W inside H+, and the unitary Phi whose columns are an
    orthonormal basis of W - lambda W has Phi H+ = W (see `_wandering_blocks`).
    The returned parts are lambda^lo Phi(lambda) Phi(1)^-1 and
    Phi(1) (Phi* Psi)+, from Phi's R + 1 blocks without circle samples or
    truncation.  The loop must be algebraic, det Psi = c lambda^m, as
    every loop this package builds is; a det with other powers, a
    generator whose rank nR - m is not separated, a unitarity residual
    above 1e-9 or a split residual above 1e-9 times max(1, max_k ||Psi_k||)
    raises NoConvergence naming its values, the bound and z.  A loop built
    from a spec reads m and R off its exponents, with no circle pass.
    """
    psi = _as_loop(psi).to_numeric(z)
    blocks = psi.coeffs[None]
    shape = _power_and_height(blocks, psi.lo, [z], psi.exponents)
    phi = _wandering_blocks(blocks, *shape, [z])[0]
    phi_one = phi.sum(axis=0)
    unitary = LoopMat.numeric(phi @ np.linalg.inv(phi_one), psi.lo)
    adjoint = phi[::-1].conj().swapaxes(-1, -2)
    plus = LoopMat.numeric(phi_one @ convolve(adjoint, psi.coeffs)[len(phi) - 1 :])
    resid_u = unitary.unitarity_residual()
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
    The value is Phi(-1) Phi(1)^-1 for the unitary Phi of `unitarize`, read
    off its blocks: no Fourier extraction involved.  The whole stack is
    split at one height R, and any R with lambda^R H+ inside Psi H+ gives
    the same Phi, so a point of lower height (z = 0 of a Veronese loop)
    splits exactly too, and the value is a smooth function of z.  The
    guards work per z: a pole raises PoleAtZ, a loop singular on the circle
    SingularOnCircle, and a det that is not a lambda monomial, a generator
    rank that is not separated or a value ||phi phi* - I||_F above the 1e-9
    bound NoConvergence, each naming the first z that fails.  A loop built
    from a spec reads m and R off its exponents and skips the circle pass
    with its regularity and algebraicity guards.
    """
    one_point = np.ndim(z) == 0
    zs = [z] if one_point else z
    loop = obj if isinstance(obj, CompiledLoop) else CompiledLoop(_as_loop(obj))
    # trimmed as a numeric LoopMat is, so each point splits as in `unitarize`
    blocks = trim_blocks(loop.values(zs))
    shape = _power_and_height(blocks, loop.lo, zs, loop.exponents)
    phi = _wandering_blocks(blocks, *shape, zs)
    # lambda^lo Phi at lambda = -1 and 1 for each z
    ends = values_at(phi, loop.lo, [-1, 1])
    values = ends[:, 0] @ np.linalg.inv(ends[:, 1])
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
    Lambda+ factor and leaves the based unitary part untouched.  Neither
    step moves a column's lowest power, so the flowed loop keeps the
    exponents of a loop built from a spec.
    """
    loop = _as_loop(obj).to_numeric(z)
    try:
        u = math.exp(-t)
        powers = np.array([u**k for k in range(loop.lo, loop.hi + 1)])
    except (OverflowError, ZeroDivisionError):
        raise PoleAtZ(f"lambda -> exp(-t) lambda leaves the float range at t = {t!r}") from None
    blocks = loop.coeffs * powers[:, None, None]
    # one 1-D norm per block and column, and a product with diag(scale)
    # rather than an entrywise one: a norm along an axis of the stack rounds
    # differently, and the entrywise product signs some zero entries
    # differently, which steers the SVD's reflections; both move printed digits
    top = np.array([[np.linalg.norm(b[:, j]) for j in range(loop.n)] for b in blocks]).max(axis=0)
    scale = np.divide(1.0, top, out=np.ones(loop.n), where=top > 0)
    flowed = LoopMat.numeric(blocks @ np.diag(scale), loop.lo)
    flowed.exponents = loop.exponents
    return unitarize(flowed, z).unitary_part


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


def monomial_power(det, shift: int) -> int:
    """The power of the monomial det * lambda^shift, for det the nonzero
    determinant of lambda^(-lo) L and shift = n * lo; NonMonomialDeterminant
    names the true powers when there are several."""
    support = [k + shift for k in range(det.degree + 1) if not det[k].is_zero()]
    if len(support) != 1:
        raise NonMonomialDeterminant(
            f"determinant has lambda powers {support}; expected a monomial"
        )
    return support[0]


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
    exp(C) gamma_J at z, whose coefficients are those of exp C at z with
    column b moved up k^J_b powers (one evaluation of exp C for the whole
    chain), and returns the successive quotients u_{j-1}^* u_j (with
    u_0 = I) and the last u_j (I for an empty chain).
    Each quotient is affine, pi + lambda*(1 - pi) with pi a Hermitian
    projection, and the factors multiply back to the full unitary part.
    """
    marks = marks_from_exponents(spec.exponents)
    if any(m not in (0, 1) for m in marks):
        raise NotCanonical(
            f"exponents {spec.exponents} are not canonical (marks {marks})"
        )
    exp_c = CompiledLoop(exp_nilpotent(spec.c_lambda())).values([z])[0]
    factors = []
    unitary = LoopMat.identity(spec.n, kind="numeric")
    chain = [0] * len(marks)
    for i in reversed(range(len(marks))):
        if not marks[i]:
            continue
        chain[i] = 1
        partial = assemble_numeric(exp_c, exponents_from_marks(chain))
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
