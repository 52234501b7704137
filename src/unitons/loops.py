"""Laurent-polynomial matrix loops lambda -> M_n, exact or numeric.

A loop is stored as coefficient matrices for powers lambda^lo .. lambda^hi.
Exact loops have entries in the rational-function field Q(i)(z); numeric
loops have complex matrices.  The two kinds never mix silently: numeric data
cannot be promoted back to exact, and exact operations that would need
complex conjugation of z-dependent entries refuse instead of rounding.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import exactmat
from .errors import (
    ExactKindUnsupported,
    NonMonomialDeterminant,
    NotInvertibleLoop,
    SingularAtMinusOne,
    SizeMismatch,
    ZeroLambda,
)
from .scalars import GaussianRational, Poly, RatFun

__all__ = ["LoopMat", "NUMERIC_TRIM"]

# relative Frobenius threshold below which numeric coefficients are dropped
NUMERIC_TRIM = 1e-12


def _as_entry(x) -> RatFun:
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (int, Fraction, GaussianRational, Poly, str)):
        if isinstance(x, str):
            return RatFun.const(GaussianRational.from_string(x))
        return RatFun(x) if isinstance(x, Poly) else RatFun.const(x)
    raise TypeError(f"cannot coerce {x!r} into a rational-function entry")


def _exact_matrix(m, n: int):
    rows = [[_as_entry(x) for x in row] for row in m]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise SizeMismatch(f"expected a {n} x {n} matrix")
    return rows


class LoopMat:
    """Matrix-valued Laurent polynomial in lambda."""

    __slots__ = ("kind", "n", "lo", "coeffs")

    def __init__(self, kind: str, n: int, lo: int, coeffs):
        if kind not in ("exact", "numeric"):
            raise ValueError("kind must be 'exact' or 'numeric'")
        self.kind = kind
        self.n = n
        self.lo = lo
        self.coeffs = coeffs
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
        mats = [np.asarray(m, dtype=complex) for m in coeffs]
        if not mats:
            raise ValueError("need at least one coefficient matrix")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise SizeMismatch("coefficient matrices must share a square shape")
        return cls("numeric", n, lo, mats)

    @classmethod
    def identity(cls, n: int, kind: str = "exact") -> "LoopMat":
        if kind == "exact":
            return cls("exact", n, 0, [exactmat.eye(n)])
        return cls("numeric", n, 0, [np.eye(n, dtype=complex)])

    @classmethod
    def diag_powers(cls, exponents) -> "LoopMat":
        """Exact homomorphism loop diag(lambda^k_1, ..., lambda^k_n)."""
        ks = list(exponents)
        n = len(ks)
        lo = min(ks)
        hi = max(ks)
        coeffs = [exactmat.zeros(n) for _ in range(hi - lo + 1)]
        for i, k in enumerate(ks):
            coeffs[k - lo][i][i] = RatFun.one()
        return cls("exact", n, lo, coeffs)

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

    def _is_zero_block(self, m) -> bool:
        if self.kind == "exact":
            return exactmat.mat_is_zero(m)
        return not np.any(m)

    def _trim(self):
        if self.kind == "numeric":
            norms = [np.linalg.norm(m) for m in self.coeffs]
            top = float(np.max(norms)) if norms else 0.0
            # a non-finite block is kept, so NaN and inf reach the checks
            if 0 < top < np.inf:
                cut = NUMERIC_TRIM * top
                self.coeffs = [
                    m if nm >= cut else np.zeros_like(m)
                    for m, nm in zip(self.coeffs, norms)
                ]
        while len(self.coeffs) > 1 and self._is_zero_block(self.coeffs[-1]):
            self.coeffs.pop()
        while len(self.coeffs) > 1 and self._is_zero_block(self.coeffs[0]):
            self.coeffs.pop(0)
            self.lo += 1
        if len(self.coeffs) == 1 and self._is_zero_block(self.coeffs[0]):
            self.lo = 0

    def is_zero(self) -> bool:
        return all(self._is_zero_block(m) for m in self.coeffs)

    def width(self) -> int:
        """Largest |power| carrying a nonzero coefficient."""
        powers = [
            k
            for k, m in zip(range(self.lo, self.hi + 1), self.coeffs)
            if not self._is_zero_block(m)
        ]
        if not powers:
            return 0
        return max(abs(powers[0]), abs(powers[-1]))

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
        length = len(self.coeffs) + len(other.coeffs) - 1
        if self.kind == "exact":
            # None marks a block no product has reached; the first product is
            # assigned, so nothing is ever added into a zero block
            out = [None] * length
            right = [
                (j, b) for j, b in enumerate(other.coeffs) if not exactmat.mat_is_zero(b)
            ]
            for i, a in enumerate(self.coeffs):
                if exactmat.mat_is_zero(a):
                    continue
                for j, b in right:
                    prod = exactmat.mat_mul(a, b)
                    acc = out[i + j]
                    out[i + j] = prod if acc is None else exactmat.mat_add(acc, prod)
            out = [exactmat.zeros(self.n) if m is None else m for m in out]
            return LoopMat("exact", self.n, lo, out)
        out = [np.zeros((self.n, self.n), dtype=complex) for _ in range(length)]
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a @ b
        return LoopMat("numeric", self.n, lo, out)

    def __add__(self, other: "LoopMat") -> "LoopMat":
        self._check_compatible(other)
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        if self.kind == "numeric":
            coeffs = [self.coeff(k) + other.coeff(k) for k in range(lo, hi + 1)]
            return LoopMat("numeric", self.n, lo, coeffs)
        coeffs = []
        for k in range(lo, hi + 1):
            a, b = self.coeff(k), other.coeff(k)
            if exactmat.mat_is_zero(b):
                coeffs.append(a)
            elif exactmat.mat_is_zero(a):
                coeffs.append(b)
            else:
                coeffs.append(exactmat.mat_add(a, b))
        return LoopMat("exact", self.n, lo, coeffs)

    def __sub__(self, other: "LoopMat") -> "LoopMat":
        self._check_compatible(other)
        if self.kind == "numeric":
            return self + other.scale(-1)
        # negating an entry needs no gcd, unlike scaling it by -1
        negated = [[[-x for x in row] for row in m] for m in other.coeffs]
        return self + LoopMat("exact", self.n, other.lo, negated)

    def scale(self, c) -> "LoopMat":
        if self.kind == "exact":
            c = _as_entry(c)
            coeffs = [exactmat.mat_scale(m, c) for m in self.coeffs]
        else:
            coeffs = [m * complex(c) for m in self.coeffs]
        return LoopMat(self.kind, self.n, self.lo, coeffs)

    def shift(self, s: int) -> "LoopMat":
        """Multiply by the scalar loop lambda^s."""
        return LoopMat(self.kind, self.n, self.lo + s, [m for m in self.coeffs])

    def __eq__(self, other):
        if not isinstance(other, LoopMat) or self.kind != other.kind:
            return NotImplemented
        if self.n != other.n:
            return False
        return (self - other).is_zero()

    # -- involutions ----------------------------------------------------------

    def circle_adjoint(self) -> "LoopMat":
        """Adjoint across the unit circle: coefficient A_k goes to A_k^* at -k.

        On |lambda| = 1 this is the pointwise conjugate transpose.  Exact loops
        must be z-free since the operation conjugates coefficients.
        """
        if self.kind == "numeric":
            coeffs = [m.conj().T for m in reversed(self.coeffs)]
            return LoopMat("numeric", self.n, -self.hi, coeffs)
        if any(not e.is_const() for m in self.coeffs for row in m for e in row):
            raise ExactKindUnsupported(
                "circle adjoint of an exact loop needs z-free coefficients"
            )
        coeffs = [exactmat.conj_transpose_const(m) for m in reversed(self.coeffs)]
        return LoopMat("exact", self.n, -self.hi, coeffs)

    def negate_lambda(self) -> "LoopMat":
        """The loop lambda -> L(-lambda)."""
        if self.kind == "exact":
            coeffs = [
                m if k % 2 == 0 else exactmat.mat_scale(m, _as_entry(-1))
                for k, m in zip(range(self.lo, self.hi + 1), self.coeffs)
            ]
        else:
            coeffs = [
                m if k % 2 == 0 else -m
                for k, m in zip(range(self.lo, self.hi + 1), self.coeffs)
            ]
        return LoopMat(self.kind, self.n, self.lo, coeffs)

    def twist_T(self) -> "LoopMat":
        """T(L)(lambda) = L(-lambda) L(-1)^(-1)."""
        neg = self.negate_lambda()
        if self.kind == "exact":
            at_m1 = self.evaluate_exact(GaussianRational(-1))
            try:
                inv = exactmat.mat_inv(at_m1)
            except ZeroDivisionError as exc:
                raise SingularAtMinusOne(str(exc)) from None
            return neg @ LoopMat("exact", self.n, 0, [inv])
        at_m1 = self.evaluate(-1.0 + 0j)
        if np.linalg.cond(at_m1) > 1e12:
            raise SingularAtMinusOne("loop value at lambda = -1 is singular")
        return neg @ LoopMat("numeric", self.n, 0, [np.linalg.inv(at_m1)])

    def based(self) -> "LoopMat":
        """Right-normalize to the based loop L(lambda) L(1)^(-1)."""
        if self.kind == "exact":
            at_one = self.evaluate_exact(GaussianRational(1))
            try:
                inv = exactmat.mat_inv(at_one)
            except ZeroDivisionError:
                raise NotInvertibleLoop("loop value at lambda = 1 is singular")
            return self @ LoopMat("exact", self.n, 0, [inv])
        at_one = self.evaluate(1.0 + 0j)
        return self @ LoopMat("numeric", self.n, 0, [np.linalg.inv(at_one)])

    # -- evaluation ------------------------------------------------------------

    def evaluate(self, lam: complex, z: complex | None = None) -> np.ndarray:
        """Numeric value at lambda (and z for z-dependent exact loops)."""
        lam = complex(lam)
        if lam == 0 and self.lo < 0:
            raise ZeroLambda("loop has negative powers; lambda = 0 not allowed")
        if self.kind == "numeric":
            out = np.zeros((self.n, self.n), dtype=complex)
            for k, m in zip(range(self.lo, self.hi + 1), self.coeffs):
                out += m * lam**k
            return out
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
        if self.kind == "numeric":
            return self
        out = []
        for m in self.coeffs:
            block = np.zeros((self.n, self.n), dtype=complex)
            for i, row in enumerate(m):
                for j, e in enumerate(row):
                    if e.is_const():
                        block[i, j] = complex(e.const_value())
                    else:
                        if z is None:
                            raise ExactKindUnsupported(
                                "entries depend on z; pass a z value"
                            )
                        block[i, j] = e.evaluate_complex(complex(z))
            out.append(block)
        return LoopMat("numeric", self.n, self.lo, out)

    # -- exact inverse and adjoint width ---------------------------------------

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

    def det_lambda(self):
        """Exact determinant as (m, c) with det = c * lambda^m.

        Raises NotInvertibleLoop when det = 0 and NonMonomialDeterminant when
        the determinant has more than one lambda power.
        """
        if self.kind != "exact":
            raise ExactKindUnsupported("exact determinant needs an exact loop")
        det = _poly_det(self._entry_polys())
        if det.is_zero():
            raise NotInvertibleLoop("loop determinant is identically zero")
        support = [k for k in range(det.degree + 1) if not det[k].is_zero()]
        if len(support) != 1:
            raise NonMonomialDeterminant(
                f"determinant has lambda powers {support}; expected a monomial"
            )
        m = support[0]
        return m + self.n * self.lo, det[m]

    def inverse(self) -> "LoopMat":
        """Exact Laurent inverse via the adjugate over the determinant."""
        m, c = self.det_lambda()
        entries = self._entry_polys()
        n = self.n
        inv_c = RatFun.one() / c
        adj_cols = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                minor = _poly_det(
                    [
                        [entries[r][s] for s in range(n) if s != j]
                        for r in range(n)
                        if r != i
                    ]
                ) if n > 1 else Poly.one(RatFun)
                if (i + j) % 2 == 1:
                    minor = -minor
                adj_cols[j][i] = minor * inv_c  # adjugate transposes indices
        deg = max(
            (adj_cols[i][j].degree for i in range(n) for j in range(n)), default=0
        )
        deg = max(deg, 0)
        coeffs = []
        for k in range(deg + 1):
            coeffs.append(
                [[adj_cols[i][j][k] for j in range(n)] for i in range(n)]
            )
        shifted_m = m - self.n * self.lo  # power of the shifted polynomial det
        return LoopMat("exact", n, -self.lo - shifted_m, coeffs)

    def ad_width(self) -> int:
        """Width of the conjugation action X -> L X L^(-1) in lambda powers.

        The coefficient of lambda^k in Ad(L) vanishes iff the tensor
        sum_(p+q=k) L_p (x) (L^(-1)_q)^T vanishes, which is tested exactly.
        """
        inv = self.inverse()
        lo, hi = self.lo + inv.lo, self.hi + inv.hi

        def tensor_nonzero(k: int) -> bool:
            n = self.n
            acc = [[RatFun.zero()] * (n * n) for _ in range(n * n)]
            seen = False
            for p in range(self.lo, self.hi + 1):
                q = k - p
                if not (inv.lo <= q <= inv.hi):
                    continue
                a = self.coeff(p)
                b = inv.coeff(q)
                for i in range(n):
                    for j in range(n):
                        if a[i][j].is_zero():
                            continue
                        for r in range(n):
                            for s in range(n):
                                if b[r][s].is_zero():
                                    continue
                                acc[i * n + j][r * n + s] = (
                                    acc[i * n + j][r * n + s] + a[i][j] * b[r][s]
                                )
                                seen = True
            if not seen:
                return False
            return any(not x.is_zero() for row in acc for x in row)

        top = 0
        for k in range(hi, -1, -1):
            if tensor_nonzero(k):
                top = k
                break
        bottom = 0
        for k in range(lo, 1):
            if tensor_nonzero(k):
                bottom = k
                break
        return max(top, -bottom)

    # -- numeric diagnostics -----------------------------------------------------

    def circle_values(self, samples: int, offset: float = 0.0) -> np.ndarray:
        """Values at lambda = exp(2 pi i (m + offset) / samples), stacked.

        Returns a (samples, n, n) array computed with one contraction over
        the coefficient stack.
        """
        loop = self.to_numeric()
        lams = np.exp(2j * np.pi * (np.arange(samples) + offset) / samples)
        powers = lams[:, None] ** np.arange(loop.lo, loop.hi + 1)
        return np.einsum("sk,kab->sab", powers, np.array(loop.coeffs))

    def unitarity_residual(self, samples: int = 32) -> float:
        """max over sampled |lambda| = 1 of || L(lam)* L(lam) - I ||_F.

        A non-finite value anywhere makes the result non-finite.
        """
        v = self.circle_values(samples)
        gram = v.conj().transpose(0, 2, 1) @ v - np.eye(self.n)
        return float(np.linalg.norm(gram, axis=(1, 2)).max())

    def max_coeff_norm(self) -> float:
        loop = self if self.kind == "numeric" else self.to_numeric()
        return max(float(np.linalg.norm(m)) for m in loop.coeffs)

    def __repr__(self):
        return f"LoopMat(kind={self.kind!r}, n={self.n}, powers {self.lo}..{self.hi})"


def _poly_det(entries) -> Poly:
    """Determinant of a square matrix of Poly-over-RatFun entries.

    Expansion by minors with memoization on the active column set; fine for
    the small sizes used here and free of polynomial division.
    """
    n = len(entries)
    if n == 0:
        return Poly.one(RatFun)
    cache = {}

    def rec(row: int, cols: tuple) -> Poly:
        if row == n:
            return Poly.one(RatFun)
        key = cols
        if key in cache:
            return cache[key]
        acc = Poly.zero(RatFun)
        sign = 1
        for idx, c in enumerate(cols):
            e = entries[row][c]
            if not e.is_zero():
                sub = rec(row + 1, cols[:idx] + cols[idx + 1 :])
                term = e * sub
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
        cache[key] = acc
        return acc

    return rec(0, tuple(range(n)))
