"""Loop-group factorizations and the energy flow.

Four pieces live here.  `unitarize` splits an invertible numeric loop into a
based unitary factor and a disc-holomorphic factor in Segal's Grassmannian
model: shifted to powers >= 0, Psi spans W = Psi H+, and its uniton
factorization Phi = prod_j (pi_j + lambda (I - pi_j)) (Uhlenbeck; Segal)
has Phi H+ = W.  `_uniton_projections` finds the pi_j of every loop: a
loop built from a spec reads its ranks off its exponents (one QR of exp C
for a lambda-free spec, whose projections nest), and any other loop counts
them by SVD, after a circle pass that finds it regular and reads the power
m of det Psi.  The split's unitarity and reassembly residuals and the map
value's unitarity are always checked against the fixed bound 1e-9
(relative where it has a scale), and a loop that fails a check raises
NoConvergence.
`bruhat_cell` recovers the diagonal lambda-exponents of an exact loop by
Smith reduction over the rational-function field, and reads a spec's off
its exponents.  `cstar_flow` and `flow_limit` implement the
lambda -> u*lambda deformation and its u -> 0 limit.  `uniton_factorize`
reads a built solution's affine projector factors off its uniton chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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
from .loops import CompiledLoop, LoopMat, convolve, shift_columns, trim_blocks, values_at
from .roots import marks_from_exponents
from .weierstrass import (
    ExtendedSolutionSpec,
    WeierstrassData,
    assemble_loop,
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


def _det_power(blocks, lo, zs):
    """The powers m, an array, of det(lambda^-lo Psi) = c lambda^m for the
    (Z, K, n, n) coefficient stack of loops Psi = lambda^lo (blocks[0] +
    blocks[1] lambda + ...), loop i taken at zs[i]: the circle pass,
    with its regularity and algebraicity guards.

    The loops are sampled at S points of |lambda| = 1: S = 64, or the next
    multiple of 64 above n*(K-1), the degree of det Psi, so that no power
    aliases.  PoleAtZ names the first z whose samples are not finite.  One
    stacked SVD of the samples raises SingularOnCircle naming the first z
    with sigma_min <= SINGULAR_TOL * max(1, sigma_max) over them.  m is read
    off the discrete Fourier transform of det Psi at the samples: a
    non-finite det raises PoleAtZ, and a det with a second
    power above DEFAULT_TOL times its largest raises NoConvergence.  That
    error names the condition number kappa = max sigma_max / sigma_min over
    the samples when the det's rounding, n eps kappa, exceeds DEFAULT_TOL,
    and otherwise the powers, since the loop is not algebraic.
    """
    n = blocks.shape[-1]
    samples = 64 * (n * (blocks.shape[-3] - 1) // 64 + 1)
    vals = values_at(blocks, 0, np.exp(2j * np.pi * np.arange(samples) / samples))
    finite = np.isfinite(vals)
    if not finite.all():
        z = zs[np.argmin(finite.all(axis=(1, 2, 3)))]
        raise PoleAtZ(f"loop values on |lambda| = 1 are not finite{_at(z)}")
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
    for z, powers, s in zip(zs, present, sing):
        if powers.sum() <= 1:
            continue
        # the det's relative rounding, about n eps kappa, on the worst sample
        kappa = (s[:, 0] / s[:, -1]).max()
        if n * np.finfo(float).eps * kappa > DEFAULT_TOL:
            raise NoConvergence(
                f"loop is too ill-conditioned on |lambda| = 1{_at(z)} (condition number "
                f"{kappa:.3e}) for det Psi to show its lambda powers"
            )
        raise NoConvergence(
            f"det Psi has lambda powers {(np.flatnonzero(powers) + n * lo).tolist()}{_at(z)}; "
            "the loop is not algebraic (det Psi = c lambda^m)"
        )
    return coeffs.argmax(axis=1)


def _peel_basis(x0, floor, deficits, m, zs, j):
    """One bare peel of the (Z, n, n) stack x0 of X_j(0): (q, deficits), q
    an orthonormal basis of range X_j(0), padded with zero columns, where a
    point's deficits are below m and the identity where they have reached
    it, and the deficits after the peel.

    rank_j counts the singular values above the floor.  The one below must
    be at most DEFAULT_TOL times the one above, and a peel that leaves the
    deficits past m, or stops short of m at full rank, raises NoConvergence
    naming z.
    """
    n = x0.shape[-1]
    done = deficits == m
    u, sing, _ = np.linalg.svd(x0)
    rank = np.where(done, n, (sing > floor[:, None]).sum(axis=1))
    after = deficits + n - rank
    # sigma_(-1) := inf and sigma_n := 0 at the ends
    sing = np.pad(sing, ((0, 0), (1, 1)), constant_values=((0, 0), (np.inf, 0)))
    upper, lower = sing[np.arange(len(x0)), rank], sing[np.arange(len(x0)), rank + 1]
    for z, r, s_up, s_low, d, want in zip(zs, rank, upper, lower, after, m):
        if not s_low <= DEFAULT_TOL * s_up:
            raise NoConvergence(
                f"singular values {s_up:.3e} and {s_low:.3e} on either side of rank {r} "
                f"of X_{j}(0) are not separated (bound {DEFAULT_TOL:.0e}){_at(z)}; "
                "the loop is too ill-conditioned"
            )
        if d > want or d < want and r == n:
            raise NoConvergence(
                f"the uniton peel stops at a rank deficit of {d}, not the power "
                f"m = {want} of det Psi{_at(z)}; the loop is too ill-conditioned"
            )
    q = u * (np.arange(n) < rank[:, None])[:, None]
    return np.where(done[:, None, None], np.eye(n), q), after


def _projection(q):
    """q q*, the projection onto the orthonormal columns of q, Hermitian to
    the last bit, so that a printed diagonal is real."""
    pi = q @ q.conj().swapaxes(-1, -2)
    return (pi + pi.conj().swapaxes(-1, -2)) / 2


def _uniton_projections(blocks, lo, exponents, zs, map_value=False):
    """The (Z, r, n, n) projections pi_0 .. pi_(r-1) of the (Z, K, n, n)
    coefficient stack of loops Psi = lambda^lo (blocks[0] + blocks[1] lambda
    + ...) with exponents k or None, loop i taken at zs[i], with Phi =
    prod_j (pi_j + lambda (I - pi_j)) the unitary of Phi H+ = lambda^-lo Psi
    H+; with map_value, in their place, the (Z, n, n) map values (-1)^lo
    Phi(-1), and no projection stack.

    Each step splits off one uniton (Uhlenbeck; Segal): with X_0 =
    lambda^-lo Psi, pi_j projects onto range X_j(0), and X_(j+1) = (pi_j +
    lambda^-1 (I - pi_j)) X_j, whose block i is X_j[i+1] + pi_j (X_j[i] -
    X_j[i+1]), has no lambda^-1 part, and det X_(j+1) = det X_j
    lambda^-(n - rank X_j(0)).  Once these deficits add up to m, X_r is a
    unit of Lambda+ and Psi = lambda^lo Phi X_r, so the last step makes no
    X_r.  Only the source of the ranks differs.

    A spec loop exp(C) gamma, or its flowed loop, has lo = 0 and column b
    starting at block k_b, since exp C is unipotent at lambda = 0; a finite
    stack of them is split as given, untrimmed.  Column b of X_j is exactly
    zero below block k_b - j, so range X_j(0) is spanned by the columns with
    k_b <= j, pi_j is one QR of them and r = max k, with no rank decision;
    pi_j reads X_0's blocks 0..j alone, so X is kept to blocks 0..r-1-j.
    When every column has one nonzero block, block k_b (a lambda-free spec,
    Psi = A diag(lambda^k) with A = exp C times a constant diagonal), the
    projections nest: pi_j projects onto the flag F_j = A span{e_b : k_b <=
    j}, the twistor lift of Eells & Wood.  With A's columns stably sorted by
    k, one QR A = QT gives every pi_j from the Q columns with k <= j, with
    no chain steps, and Phi(-1) = Q diag((-1)^k) Q* from Q alone.

    Any other stack is bare, a spec stack the trim has cut past its shape
    included (it drops small low-k blocks at large |z| and far down the
    flow).  Trimmed as a numeric LoopMat is, it takes the circle pass
    (`_det_power`), which finds each loop regular and reads its m, and
    rank_j counts the singular values of X_j(0) above DEFAULT_TOL max(1,
    max_k ||Psi_k||) (`_peel_basis`).  X keeps its full length, one zero
    block padded per step, and a point whose deficits have reached m peels
    with pi = I, so one loop serves the whole stack.  Apart from the nested
    stack, Phi(-1) = prod_j (2 pi_j - I) is a product of reflections, each
    multiplied in as its step makes it.
    """
    n = blocks.shape[-1]
    k = None
    if exponents is not None and lo == 0 and np.isfinite(blocks).all():
        nonzero = blocks.any(axis=-2)  # (Z, K, n): block i of column b is nonzero
        if nonzero.any(axis=1).all() and (nonzero.argmax(axis=1) == exponents).all():
            k = np.asarray(exponents)
    if k is not None and (nonzero.sum(axis=1) == 1).all():
        order = np.argsort(k, kind="stable")
        # column b of A is block k_b of column b; the gather puts the column axis first
        q = np.linalg.qr(np.moveaxis(blocks[:, k[order], :, order], 0, -1))[0]
        if map_value:
            return (q * (-1.0) ** k[order]) @ q.conj().swapaxes(-1, -2)
        return _projection(q[:, None] * (k[order] <= np.arange(k.max())[:, None])[:, None])
    if k is None:
        x = trim_blocks(blocks)
        m = _det_power(x, lo, zs)
        floor = DEFAULT_TOL * np.maximum(1.0, np.linalg.norm(x, axis=(-2, -1)).max(axis=1))
        deficits, steps = np.zeros_like(m), m.max(initial=0)
        x = np.concatenate([x, np.zeros_like(x, shape=(len(x), steps, n, n))], axis=1)
    else:
        x, steps = blocks[:, : k.max()], k.max()
    projections, value = [], None
    for j in range(steps):
        if k is not None:
            q = np.linalg.qr(x[:, 0][..., k <= j])[0]
        else:
            q, deficits = _peel_basis(x[:, 0], floor, deficits, m, zs, j)
        pi = _projection(q)
        if map_value:
            reflection = 2 * pi - np.eye(n)
            value = reflection if value is None else value @ reflection
        else:
            projections.append(pi)
        if j + 1 == steps or k is None and (deficits == m).all():
            break
        x = x[:, 1:] + pi[:, None] @ (x[:, :-1] - x[:, 1:])
    if not map_value:
        return np.stack(projections, axis=1) if projections else blocks[:, :0]
    if value is None:
        value = np.repeat(np.eye(n, dtype=complex)[None], len(blocks), axis=0)
    return value * (-1) ** lo


def _affine_blocks(projections):
    """Coefficient stacks (..., 2, n, n) of pi + lambda (I - pi), pi in projections."""
    return np.stack([projections, np.eye(projections.shape[-1]) - projections], axis=-3)


def _split(blocks, lo, exponents, z):
    """The IwasawaFactors of the loop lambda^lo (blocks[0] + blocks[1] lambda
    + ...) with exponents k or None, split from its (K, n, n) coefficient
    stack as given, trimmed or not, and the (r, n, n) projections its
    unitary Phi is the product of (`_uniton_projections`).  Phi is
    multiplied out of those projections; no map value is formed."""
    projections = _uniton_projections(blocks[None], lo, exponents, [z])[0]
    phi = np.eye(blocks.shape[-1], dtype=complex)[None]
    for factor in _affine_blocks(projections):
        phi = convolve(phi, factor)
    phi_one = phi.sum(axis=0)
    unitary = LoopMat.numeric(phi @ np.linalg.inv(phi_one), lo)
    adjoint = phi[::-1].conj().swapaxes(-1, -2)
    plus = LoopMat.numeric(phi_one @ convolve(adjoint, blocks)[len(phi) - 1 :])
    resid_u = unitary.unitarity_residual()
    # the 64 points of `LoopMat.circle_values(64, 0.5)`
    psi_v = values_at(blocks, lo, np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64))
    unitary_v, plus_v = (loop.circle_values(64, 0.5) for loop in (unitary, plus))
    resid_s = float(np.linalg.norm(psi_v - unitary_v @ plus_v, axis=(1, 2)).max())
    bound = DEFAULT_TOL * max(1.0, *(np.linalg.norm(b) for b in blocks))
    if not (resid_u <= DEFAULT_TOL and resid_s <= bound):
        raise NoConvergence(
            f"Iwasawa split residuals exceed their bounds{_at(z)}: unitarity "
            f"{resid_u:.3e} (bound {DEFAULT_TOL:.0e}), split {resid_s:.3e} "
            f"(bound {bound:.3e})"
        )
    return IwasawaFactors(unitary, plus, resid_u, resid_s), projections


def unitarize(psi, z=None) -> IwasawaFactors:
    """Split an invertible loop into (based unitary) times (powers >= 0).

    Shifted to powers >= 0, the loop spans W = Psi H+, and its uniton
    projections (`_uniton_projections`) give the unitary Phi = prod_j (pi_j
    + lambda (I - pi_j)) with Phi H+ = W.  The returned parts are lambda^lo
    Phi(lambda) Phi(1)^-1 and Phi(1) (Phi* Psi)+, from Phi's blocks without
    circle samples or truncation.  A loop built from a spec (or its flowed
    loop) reads its projections off its uniton chain, or off one QR of exp
    C for a lambda-free spec, whose projections nest.  A numeric LoopMat has
    trimmed its small blocks; one whose trim zeroed the lowest block of a
    column, at large |z| or far down the flow, has lost its shape and is
    peeled as a bare loop, after the circle pass.  A bare loop must be
    algebraic, det Psi = c lambda^m, as every loop this package builds is;
    a det with other powers, a peel whose ranks are not separated or do not
    add up to m, a unitarity residual above 1e-9 or a split residual above
    1e-9 times max(1, max_k ||Psi_k||) raises NoConvergence naming its
    values, the bound and z.
    """
    psi = _as_loop(psi).to_numeric(z)
    return _split(psi.coeffs, psi.lo, psi.exponents, z)[0]


def harmonic_map_at(obj, z) -> np.ndarray:
    """Value at lambda = -1 of the based unitary factor of the loop at z; for
    a 1-D array of z, the (Z, n, n) stack of the values.

    obj is a LoopMat, an ExtendedSolutionSpec or a CompiledLoop; an exact
    loop is compiled once and evaluated at every z with one array pass.
    The value is (-1)^lo Phi(-1) for the unitary Phi of `unitarize`, the
    one output `_uniton_projections` returns here in place of the
    projections: Q diag((-1)^k) Q* from the one QR of exp C of a
    lambda-free spec, with no projection formed, and otherwise the product
    of the reflections 2 pi_j - I, each multiplied in as the uniton chain or
    the peel makes pi_j.  A loop built from a spec splits its untrimmed
    values, which keep the small low-k blocks that fix its projections, so
    it works over the whole input range and skips the circle pass.  A bare
    loop is trimmed and peeled; a point whose peel is done early peels with
    pi = I while the rest of the stack goes on, so the value is a smooth
    function of z.  The guards work per z: a pole raises PoleAtZ, a bare
    loop singular on the circle SingularOnCircle, and a det that is not a
    lambda monomial, a peel whose ranks are not separated or miss m, or a
    value ||phi phi* - I||_F above the 1e-9 bound NoConvergence, each naming
    the first z that fails.
    """
    one_point = np.ndim(z) == 0
    zs = [z] if one_point else z
    loop = obj if isinstance(obj, CompiledLoop) else CompiledLoop(_as_loop(obj))
    values = _uniton_projections(loop.values(zs), loop.lo, loop.exponents, zs, map_value=True)
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
        if not math.isfinite(u):  # math.exp(inf) is inf, not an OverflowError
            raise OverflowError
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
    return replace(spec, c_slots=kept)


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
            # a - q * 0 = a: an update skips each entry whose partner in the
            # pivot row or column is zero
            for i in range(k + 1, n):
                if m[i][k].is_zero():
                    continue
                q = m[i][k] // p
                m[i] = [a if b.is_zero() else a - q * b for a, b in zip(m[i], m[k])]
                if not m[i][k].is_zero():
                    clean = False
            for j in range(k + 1, n):
                if m[k][j].is_zero():
                    continue
                q = m[k][j] // p
                for row in m:
                    if not row[k].is_zero():
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


def _spec_cell(spec: ExtendedSolutionSpec) -> BruhatCell:
    """The cell of Psi = exp(C) gamma: gamma's exponents, in decreasing order.
    For C nilpotent, exp C is a unit of Q(i)(z)[lambda]^(n x n) with inverse
    exp(-C), so Psi has the Smith form of gamma.  A strictly upper
    triangular C is nilpotent; every built spec's is, since a grade
    k_a - k_b >= 1 puts a < b.  Any other C runs the exp series, which
    raises NotNilpotent when C is not nilpotent."""
    c = spec.c_lambda()
    if not all(m[a][b].is_zero() for m in c.coeffs for a in range(c.n) for b in range(a + 1)):
        exp_nilpotent(c)
    return BruhatCell(tuple(sorted(spec.exponents, reverse=True)))


def bruhat_cell(obj) -> BruhatCell:
    """Diagonal lambda-exponents of an exact loop under two-sided reduction.

    Reduction happens over the univariate polynomial ring in lambda with
    rational-function coefficients, so the answer is the generic-z cell.
    The determinant, read off the reduced diagonal, must be a nonzero lambda
    monomial (NotInvertibleLoop, NonMonomialDeterminant otherwise).  Numeric
    loops are refused: rank decisions over floats are ill-posed.  A spec
    needs no reduction: its cell is its exponents once C is known nilpotent.
    """
    if isinstance(obj, ExtendedSolutionSpec):
        return _spec_cell(obj)
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

    The factors are pi_j + lambda (I - pi_j), j = 0 .. r-1, read off the
    projections (`_uniton_projections`) of the raw values of Psi = exp(C)
    gamma at z: exp C evaluated once, column b moved up k_b blocks, no trim.
    exp C is unipotent at lambda = 0, so column b starts at block k_b, and
    the projections always exist.  Canonical exponents (marks 0 or 1) give
    r = max k factors, each one uniton.  The unitary factor is the split of
    the same raw stack (the numeric identity when r = 0), whose unitarity
    and split residuals are checked, so no trim at large |z| costs the loop
    its shape.
    """
    marks = marks_from_exponents(spec.exponents)
    if any(m not in (0, 1) for m in marks):
        raise NotCanonical(
            f"exponents {spec.exponents} are not canonical (marks {marks})"
        )
    exp_c = CompiledLoop(exp_nilpotent(spec.c_lambda())).values([z])[0]
    parts, projections = _split(shift_columns(exp_c, spec.exponents), 0, spec.exponents, z)
    return [LoopMat.numeric(blocks) for blocks in _affine_blocks(projections)], parts.unitary_part


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
