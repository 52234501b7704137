"""Laurent-polynomial matrix loops lambda -> M_n, exact or numeric.

A loop is stored as coefficient matrices for powers lambda^lo .. lambda^hi.
Exact loops hold a list of nested-list matrices with entries in the
rational-function field Q(i)(z); numeric loops hold one complex (K, n, n)
stack.  The two kinds never mix silently: numeric data cannot be promoted
back to exact, and exact operations that would need complex conjugation of
z-dependent entries refuse instead of rounding.
"""

from __future__ import annotations

import numpy as np

from . import exactmat
from .errors import (
    ExactKindUnsupported,
    NotInvertibleLoop,
    PoleAtZ,
    SingularAtMinusOne,
    SizeMismatch,
    ZeroLambda,
)
from .scalars import GaussianRational, Poly, RatFun

__all__ = [
    "LoopMat", "CompiledLoop", "NUMERIC_TRIM", "trim_blocks", "convolve", "values_at",
    "shift_columns",
]

# relative Frobenius threshold below which numeric coefficients are dropped
NUMERIC_TRIM = 1e-12
# largest |RE|, |IM| of a coefficient from to_numeric: norms square
# magnitudes, so this keeps them far from overflow; det Psi, a product of n
# magnitudes, is checked for overflow where the split reads it
MAX_COEFF = 1e100


def trim_blocks(blocks) -> np.ndarray:
    """Zero the blocks of a (..., K, n, n) stack whose Frobenius norm is below
    NUMERIC_TRIM times the largest norm in their stack: the trim of a
    numeric LoopMat, which trims its own blocks with it, applied to many
    loops at once.

    A stack with a non-finite block is left as it is, so NaN and inf reach
    the checks; the norm of an inf block is NaN or inf, without a warning.
    """
    with np.errstate(invalid="ignore"):
        norms = np.linalg.norm(blocks, axis=(-2, -1))
    top = norms.max(axis=-1, keepdims=True)
    drop = (norms < NUMERIC_TRIM * top) & (top > 0) & (top < np.inf)
    return np.where(drop[..., None, None], 0, blocks)


def convolve(a, b) -> np.ndarray:
    """Coefficient stack of the product of the loops with (..., K, n, n)
    coefficient stacks a and b: block k sums a_i @ b_(k-i) over increasing
    i, with one matmul per block of a broadcast over b and the leading axes.
    The product's lowest power is the sum of the factors' lowest powers.
    """
    a, b = np.asarray(a), np.asarray(b)
    ka, kb = a.shape[-3], b.shape[-3]
    lead = np.broadcast_shapes(a.shape[:-3], b.shape[:-3])
    out = np.zeros(lead + (ka + kb - 1,) + a.shape[-2:], dtype=np.result_type(a, b))
    for i in range(ka):
        out[..., i : i + kb, :, :] += a[..., i : i + 1, :, :] @ b
    return out


def values_at(blocks, lo: int, lams) -> np.ndarray:
    """Values at each lambda of the sequence lams of the loops with
    (..., K, n, n) coefficient stack blocks for the powers lo .. lo+K-1:
    a (..., L, n, n) stack, one contraction over the blocks."""
    blocks = np.asarray(blocks)
    powers = np.asarray(lams, dtype=complex)[:, None] ** np.arange(lo, lo + blocks.shape[-3])
    return np.einsum("lk,...kab->...lab", powers, blocks)


def shift_columns(blocks, exponents) -> np.ndarray:
    """Coefficient stack of L diag(lambda^k_1, ..., lambda^k_n) for the loops
    L with (..., K, n, n) coefficient stack blocks and exponents k_b >= 0:
    column b moves up k_b blocks and the lowest power stays, the numeric
    twin of `LoopMat.times_diag_powers`.  No block is trimmed, so a moved
    stack of raw values trims as the moved exact loop does."""
    blocks = np.asarray(blocks)
    k = blocks.shape[-3]
    out = np.zeros(blocks.shape[:-3] + (k + max(exponents),) + blocks.shape[-2:], blocks.dtype)
    for b, s in enumerate(exponents):
        out[..., s : s + k, :, b] = blocks[..., b]
    return out


def _exact_matrix(m, n: int):
    rows = [[RatFun(x) for x in row] for row in m]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SizeMismatch(f"expected a {n} x {n} matrix")
    return rows


class LoopMat:
    """Matrix-valued Laurent polynomial in lambda.

    `exponents` is None, or the exponents k of gamma for a loop exp(C) gamma
    built from a spec (`weierstrass.assemble_loop`): exp C is unipotent at
    lambda = 0, so column b starts at lambda^(k_b), and the split reads its
    uniton projections off those columns, with no circle pass (they nest,
    the flag, when the spec is lambda-free).
    `to_numeric` and `CompiledLoop` keep it; every other operation returns
    a loop without it.
    """

    __slots__ = ("kind", "n", "lo", "coeffs", "exponents")

    def __init__(self, kind: str, n: int, lo: int, coeffs):
        if kind not in ("exact", "numeric"):
            raise ValueError("kind must be 'exact' or 'numeric'")
        self.kind = kind
        self.n = n
        self.lo = lo
        self.coeffs = coeffs
        self.exponents = None
        self._trim()

    # -- constructors -------------------------------------------------------

    @classmethod
    def exact(cls, coeffs, lo: int = 0) -> "LoopMat":
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("need at least one coefficient matrix")
        n = len(coeffs[0])
        return cls("exact", n, lo, [_exact_matrix(m, n) for m in coeffs])

    @classmethod
    def numeric(cls, coeffs, lo: int = 0) -> "LoopMat":
        """Numeric loop from a (K, n, n) stack or a sequence of n x n matrices."""
        stack = np.asarray(coeffs, dtype=complex)
        if not len(stack):
            raise ValueError("need at least one coefficient matrix")
        if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            raise SizeMismatch("coefficient matrices must share a square shape")
        return cls("numeric", stack.shape[1], lo, stack)

    @classmethod
    def identity(cls, n: int, kind: str = "exact") -> "LoopMat":
        if kind == "exact":
            return cls("exact", n, 0, [exactmat.eye(n)])
        return cls("numeric", n, 0, np.eye(n, dtype=complex)[None])

    @classmethod
    def diag_powers(cls, exponents) -> "LoopMat":
        """Exact homomorphism loop diag(lambda^k_1, ..., lambda^k_n)."""
        return cls.identity(len(exponents)).times_diag_powers(exponents)

    # -- bookkeeping ---------------------------------------------------------

    @property
    def hi(self) -> int:
        return self.lo + len(self.coeffs) - 1

    def coeff(self, k: int):
        if self.lo <= k <= self.hi:
            return self.coeffs[k - self.lo]
        if self.kind == "exact":
            return exactmat.zeros(self.n)
        return np.zeros((self.n, self.n), dtype=complex)

    def _trim(self):
        """Keep the blocks from the first to the last nonzero one (a zero loop
        keeps one block, at power 0) by slicing, so the caller's list or
        array is never edited; numeric blocks are first trimmed by
        `trim_blocks`, which returns a new stack."""
        if self.kind == "numeric":
            self.coeffs = trim_blocks(self.coeffs)
            nonzero = np.flatnonzero(self.coeffs.any(axis=(1, 2)))
        else:
            nonzero = [k for k, m in enumerate(self.coeffs) if not exactmat.mat_is_zero(m)]
        if not len(nonzero):
            self.coeffs, self.lo = self.coeffs[:1], 0
            return
        first, last = int(nonzero[0]), int(nonzero[-1])
        self.coeffs, self.lo = self.coeffs[first : last + 1], self.lo + first

    def is_zero(self) -> bool:
        if self.kind == "numeric":
            return not self.coeffs.any()
        return all(exactmat.mat_is_zero(m) for m in self.coeffs)

    # -- algebra -------------------------------------------------------------

    def _check_compatible(self, other: "LoopMat"):
        if not isinstance(other, LoopMat):
            raise TypeError("expected a LoopMat")
        if self.n != other.n:
            raise SizeMismatch("loop sizes differ")
        if self.kind != other.kind:
            raise ExactKindUnsupported(
                "cannot mix exact and numeric loops; convert explicitly"
            )

    def __matmul__(self, other: "LoopMat") -> "LoopMat":
        self._check_compatible(other)
        lo = self.lo + other.lo
        if self.kind == "numeric":
            return LoopMat("numeric", self.n, lo, convolve(self.coeffs, other.coeffs))
        out = [exactmat.zeros(self.n) for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = exactmat.mat_add(out[i + j], exactmat.mat_mul(a, b))
        return LoopMat("exact", self.n, lo, out)

    def __add__(self, other: "LoopMat") -> "LoopMat":
        return self._blockwise(other, np.add, exactmat.mat_add)

    def __sub__(self, other: "LoopMat") -> "LoopMat":
        return self._blockwise(other, np.subtract, exactmat.mat_sub)

    def _blockwise(self, other: "LoopMat", numeric_op, exact_op) -> "LoopMat":
        """Apply numeric_op or exact_op, by kind, to each pair of coefficients."""
        self._check_compatible(other)
        op = exact_op if self.kind == "exact" else numeric_op
        lo = min(self.lo, other.lo)
        coeffs = [op(self.coeff(k), other.coeff(k)) for k in range(lo, max(self.hi, other.hi) + 1)]
        return LoopMat(self.kind, self.n, lo, coeffs)

    def times_diag_powers(self, exponents) -> "LoopMat":
        """Exact L diag(lambda^k_1, ..., lambda^k_n): column b moves up k_b powers."""
        low = min(exponents)
        coeffs = [exactmat.zeros(self.n) for _ in range(len(self.coeffs) + max(exponents) - low)]
        for j, m in enumerate(self.coeffs):
            for b, k in enumerate(exponents):
                for a in range(self.n):
                    coeffs[j + k - low][a][b] = m[a][b]
        return LoopMat("exact", self.n, self.lo + low, coeffs)

    def scale(self, c) -> "LoopMat":
        if self.kind == "exact":
            return LoopMat("exact", self.n, self.lo, [exactmat.mat_scale(m, c) for m in self.coeffs])
        return LoopMat("numeric", self.n, self.lo, self.coeffs * complex(c))

    def shift(self, s: int) -> "LoopMat":
        """Multiply by the scalar loop lambda^s."""
        return LoopMat(self.kind, self.n, self.lo + s, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, LoopMat) or self.kind != other.kind:
            return NotImplemented
        if self.n != other.n:
            return False
        return (self - other).is_zero()

    # -- involutions ----------------------------------------------------------

    def negate_lambda(self) -> "LoopMat":
        """The exact loop lambda -> L(-lambda)."""
        if self.kind != "exact":
            raise ExactKindUnsupported("lambda -> -lambda needs an exact loop")
        coeffs = [
            m if k % 2 == 0 else [[-x for x in row] for row in m]
            for k, m in zip(range(self.lo, self.hi + 1), self.coeffs)
        ]
        return LoopMat("exact", self.n, self.lo, coeffs)

    def twist_T(self) -> "LoopMat":
        """T(L)(lambda) = L(-lambda) L(-1)^(-1) of an exact loop."""
        return self.negate_lambda() @ self._inverse_at(-1, SingularAtMinusOne)

    def based(self) -> "LoopMat":
        """Right-normalize an exact loop to the based loop L(lambda) L(1)^(-1)."""
        return self @ self._inverse_at(1, NotInvertibleLoop)

    def _inverse_at(self, lam: int, error) -> "LoopMat":
        """The constant exact loop L(lam)^-1; raises error when L(lam) is
        singular."""
        try:
            inv = exactmat.mat_inv(self.evaluate_exact(GaussianRational(lam)))
        except ZeroDivisionError:
            raise error(f"loop value at lambda = {lam} is singular") from None
        return LoopMat("exact", self.n, 0, [inv])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, lam: complex, z: complex | None = None) -> np.ndarray:
        """Numeric value at lambda (and z for z-dependent exact loops)."""
        lam = complex(lam)
        if lam == 0 and self.lo < 0:
            raise ZeroLambda("loop has negative powers; lambda = 0 not allowed")
        if self.kind == "numeric":
            return values_at(self.coeffs, self.lo, [lam])[0]
        return self.to_numeric(z).evaluate(lam)

    def evaluate_exact(self, lam, z=None):
        """Exact matrix value at a Gaussian-rational lambda (entries RatFun)."""
        if self.kind != "exact":
            raise ExactKindUnsupported("exact evaluation needs an exact loop")
        if not isinstance(lam, GaussianRational):
            lam = GaussianRational(lam)
        if lam.is_zero() and self.lo < 0:
            raise ZeroLambda("loop has negative powers; lambda = 0 not allowed")
        source = self if z is None else self.at_z(z)
        out = exactmat.zeros(self.n)
        lam_rf = RatFun.const(lam)
        inv_rf = None if lam.is_zero() else RatFun.one() / lam_rf
        for k, m in zip(range(source.lo, source.hi + 1), source.coeffs):
            p = RatFun.one()
            step = lam_rf if k >= 0 else inv_rf
            for _ in range(abs(k)):
                p = p * step
            out = exactmat.mat_add(out, exactmat.mat_scale(m, p))
        return out

    def at_z(self, z0) -> "LoopMat":
        """Substitute an exact z value, keeping lambda formal."""
        if self.kind != "exact":
            raise ExactKindUnsupported("at_z needs an exact loop")
        if not isinstance(z0, GaussianRational):
            z0 = GaussianRational(z0)
        coeffs = [
            [[RatFun.const(e.evaluate(z0)) for e in row] for row in m]
            for m in self.coeffs
        ]
        return LoopMat("exact", self.n, self.lo, coeffs)

    def to_numeric(self, z: complex | None = None) -> "LoopMat":
        """Complex coefficients (at z for z-dependent entries); the one-point
        case of `CompiledLoop.values`, with its PoleAtZ guards."""
        if self.kind == "numeric":
            return self
        loop = LoopMat("numeric", self.n, self.lo, CompiledLoop(self).values([z])[0])
        loop.exponents = self.exponents
        return loop

    # -- exact entries as polynomials in lambda --------------------------------

    def _entry_polys(self):
        """Entries of lambda^(-lo) * L as Poly-over-RatFun in lambda."""
        n = self.n
        entries = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                entries[i][j] = Poly(
                    [m[i][j] for m in self.coeffs], field=RatFun
                )
        return entries

    # -- numeric diagnostics -----------------------------------------------------

    def circle_values(self, samples: int, offset: float = 0.0) -> np.ndarray:
        """Values at lambda = exp(2 pi i (m + offset) / samples), stacked.

        Returns a (samples, n, n) array from `values_at`.
        """
        loop = self.to_numeric()
        lams = np.exp(2j * np.pi * (np.arange(samples) + offset) / samples)
        return values_at(loop.coeffs, loop.lo, lams)

    def unitarity_residual(self) -> float:
        """max over 64 samples of |lambda| = 1 of || L(lam)* L(lam) - I ||_F.

        A non-finite value anywhere makes the result non-finite.
        """
        v = self.circle_values(64)
        gram = v.conj().transpose(0, 2, 1) @ v - np.eye(self.n)
        return float(np.linalg.norm(gram, axis=(1, 2)).max())

    def max_coeff_norm(self) -> float:
        return float(np.max([np.linalg.norm(m) for m in self.to_numeric().coeffs]))

    def __repr__(self):
        return f"LoopMat(kind={self.kind!r}, n={self.n}, powers {self.lo}..{self.hi})"


def _float_pair(c) -> tuple:
    """(re, im) of a Gaussian rational as floats; NaN past the float range."""
    try:
        return float(c.re), float(c.im)
    except OverflowError:
        return np.nan, np.nan


def _coeff_rows(polys):
    """Real and imaginary coefficient rows, highest power first, zero-padded
    on the high side to a common length (Horner from a zero accumulator
    passes through leading zeros unchanged)."""
    width = max(len(p.coeffs) for p in polys)
    rows = np.array([
        [(0.0, 0.0)] * (width - len(p.coeffs)) + [_float_pair(c) for c in reversed(p.coeffs)]
        for p in polys
    ])
    return rows[..., 0], rows[..., 1]


def _horner(re, im, xr, xi):
    """Real and imaginary parts of polynomials (rows) at points (column xr,
    xi), rounded as CPython rounds `acc = acc * x + c` on complex numbers:
    each product and sum separately, no fused multiply-add."""
    acc_r = np.zeros((xr.shape[0], re.shape[0]))
    acc_i = np.zeros_like(acc_r)
    for cr, ci in zip(re.T, im.T):
        acc_r, acc_i = acc_r * xr - acc_i * xi + cr, acc_r * xi + acc_i * xr + ci
    return acc_r, acc_i


def _quotient(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi) by Smith's algorithm as CPython divides
    complex numbers; the caller excludes zero divisors."""
    big = np.abs(br) >= np.abs(bi)
    ratio = np.where(big, bi / br, br / bi)
    denom = np.where(big, br + bi * ratio, br * ratio + bi)
    re = np.where(big, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(big, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


class CompiledLoop:
    """A loop read once into float arrays for evaluation at many z.

    Constant entries are kept as complex values.  Each z-dependent entry of
    an exact loop keeps the real and imaginary coefficients of its numerator
    and, unless it is a polynomial, of its monic denominator, so `values`
    evaluates every entry at every z with one Horner loop over arrays.  A
    value equals the one Python complex arithmetic gives for the same
    rational function, bit for bit: Horner never ends on -0.0, so dividing
    a polynomial by 1 + 0j, the step skipped here, would return it as is.
    The loop's `exponents` are kept.
    """

    __slots__ = ("n", "lo", "exponents", "_const", "_where", "_rational", "_rows")

    def __init__(self, loop: LoopMat):
        self.n, self.lo, self.exponents = loop.n, loop.lo, loop.exponents
        if loop.kind == "numeric":
            self._const = loop.coeffs
            self._where = np.zeros(0, dtype=int)
            return
        const, where, nums, rational, dens = [], [], [], [], []
        for e in (e for m in loop.coeffs for row in m for e in row):
            if e.is_zero():
                const.append(0j)
            elif e.is_const():
                const.append(complex(*_float_pair(e.const_value())))
            else:
                if not e.is_polynomial():
                    rational.append(len(nums))
                    dens.append(e.den)
                where.append(len(const))
                const.append(0j)
                nums.append(e.num)
        self._const = np.array(const).reshape(len(loop.coeffs), loop.n, loop.n)
        self._where = np.array(where, dtype=int)
        self._rational = np.array(rational, dtype=int)
        if where:
            self._rows = _coeff_rows(nums + dens)  # one Horner pass for both

    def values(self, zs) -> np.ndarray:
        """Coefficients at each z of the sequence zs, a (Z, K, n, n) stack.

        Raises PoleAtZ naming the first z at which a denominator vanishes or
        a real or imaginary part is not finite or exceeds MAX_COEFF.
        """
        out = np.repeat(self._const[None], len(zs), axis=0)
        flat = out.reshape(len(zs), self._const.size)
        pole = np.zeros(len(zs), dtype=bool)
        if self._where.size:
            if any(z is None for z in zs):
                raise ExactKindUnsupported("entries depend on z; pass a z value")
            x = np.asarray(zs, dtype=complex)[:, None]
            e, q = self._where.size, self._rational
            with np.errstate(all="ignore"):
                vr, vi = _horner(*self._rows, x.real, x.imag)
                re, im, dr, di = vr[:, :e], vi[:, :e], vr[:, e:], vi[:, e:]
                if q.size:
                    pole = ((dr == 0) & (di == 0)).any(axis=1)
                    re[:, q], im[:, q] = _quotient(re[:, q], im[:, q], dr, di)
            flat.real[:, self._where], flat.imag[:, self._where] = re, im
        in_range = np.abs(flat.view(float)).max(axis=1) <= MAX_COEFF  # False for NaN
        bad = np.flatnonzero(pole | ~in_range)
        if bad.size:
            z = zs[bad[0]]
            if pole[bad[0]]:
                raise PoleAtZ(f"pole at z = {z}")
            raise PoleAtZ(f"loop coefficients at z = {z} exceed {MAX_COEFF:g} or are not finite")
        return out

