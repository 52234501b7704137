"""Small dense-matrix helpers over an exact field (Q(i) or rational functions).

Matrices are plain nested lists; all routines are pure.  These stay separate
from the numeric (numpy) lanes on purpose: the exact lanes must never round.
"""

from __future__ import annotations

from .errors import SizeMismatch
from .scalars import RatFun

__all__ = [
    "eye",
    "zeros",
    "mat_add",
    "mat_sub",
    "mat_mul",
    "mat_scale",
    "mat_is_zero",
    "mat_eq",
    "mat_inv",
    "conj_transpose_const",
    "projector_const",
]


def zeros(n: int, m: int | None = None, zero=None):
    m = n if m is None else m
    zero = RatFun.zero() if zero is None else zero
    return [[zero for _ in range(m)] for _ in range(n)]


def eye(n: int, one=None, zero=None):
    one = RatFun.one() if one is None else one
    zero = RatFun.zero() if zero is None else zero
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _check_same_shape(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise SizeMismatch("matrix shapes differ")


def mat_add(a, b):
    _check_same_shape(a, b)
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a, b):
    _check_same_shape(a, b)
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_mul(a, b):
    if len(a[0]) != len(b):
        raise SizeMismatch("inner dimensions differ")
    bt = list(zip(*b))
    out = []
    for ra in a:
        row = []
        for cb in bt:
            acc = None
            for x, y in zip(ra, cb):
                term = x * y
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_scale(a, c):
    return [[x * c for x in row] for row in a]


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b) -> bool:
    return mat_is_zero(mat_sub(a, b))


def mat_inv(a):
    """Gauss-Jordan inverse over the coefficient field.

    Raises ZeroDivisionError when the matrix is singular.
    """
    n = len(a)
    one = a[0][0] / a[0][0] if not a[0][0].is_zero() else None
    # find any nonzero entry to manufacture 1 and 0 of the field
    if one is None:
        for row in a:
            for x in row:
                if not x.is_zero():
                    one = x / x
                    break
            if one is not None:
                break
    if one is None:
        raise ZeroDivisionError("singular matrix (identically zero)")
    zero = one - one
    m = [row[:] + [one if i == j else zero for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if not m[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            raise ZeroDivisionError("singular matrix")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        m[col] = [x / pivot for x in m[col]]
        for r in range(n):
            if r == col or m[r][col].is_zero():
                continue
            factor = m[r][col]
            m[r] = [x - factor * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def conj_transpose_const(a):
    """Conjugate transpose of a matrix of z-free RatFun entries."""
    n, m = len(a), len(a[0])
    out = zeros(m, n)
    for i in range(n):
        for j in range(m):
            out[j][i] = a[i][j].conjugate_coefficients()
    return out


def projector_const(columns):
    """Hermitian projector onto the span of exact constant column vectors.

    `columns` is a list of length-n lists of z-free RatFun entries; returns
    the n x n projector B (B* B)^-1 B*.  Columns must be independent.
    """
    n = len(columns[0])
    b = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
    bstar = conj_transpose_const(b)
    gram = mat_mul(bstar, b)
    return mat_mul(mat_mul(b, mat_inv(gram)), bstar)
