"""Small matrix helpers over an exact field (Q(i) or rational functions).

Matrices are plain nested lists; all routines are pure, and products and
sums skip zero entries.  These stay separate from the numeric (numpy) lanes
on purpose: the exact lanes must never round.
"""

from __future__ import annotations

from .errors import SizeMismatch
from .scalars import RatFun, solve

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
]


def zeros(n: int, m: int | None = None):
    m = n if m is None else m
    zero = RatFun.zero()
    return [[zero for _ in range(m)] for _ in range(n)]


def eye(n: int):
    one, zero = RatFun.one(), RatFun.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _check_same_shape(a, b):
    if len(a) != len(b) or len(a[0]) != len(b[0]):
        raise SizeMismatch("matrix shapes differ")


def mat_add(a, b):
    """Entrywise a + b; a zero entry passes the other one through."""
    _check_same_shape(a, b)
    return [
        [y if x.is_zero() else x if y.is_zero() else x + y for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mat_sub(a, b):
    """Entrywise a - b; a zero entry passes the other one through, negated
    when it is b's (negation needs no gcd)."""
    _check_same_shape(a, b)
    return [
        [x if y.is_zero() else -y if x.is_zero() else x - y for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mat_mul(a, b):
    """Row-by-row sparse product (Gustavson, ACM TOMS 4, 1978): each nonzero
    a_ik meets only the nonzero entries of row k of b, so no product or sum
    has a zero operand, and an entry no product reaches is the canonical
    zero."""
    if len(a[0]) != len(b):
        raise SizeMismatch("inner dimensions differ")
    b_rows = [[(j, y) for j, y in enumerate(row) if not y.is_zero()] for row in b]
    out = zeros(len(a), len(b[0]))
    for ra, row in zip(a, out):
        for x, b_row in zip(ra, b_rows):
            if x.is_zero():
                continue
            for j, y in b_row:
                term = x * y
                row[j] = term if row[j].is_zero() else row[j] + term
    return out


def mat_scale(a, c):
    """Entrywise c * a; a zero entry passes through."""
    return [[x if x.is_zero() else x * c for x in row] for row in a]


def mat_is_zero(a) -> bool:
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b) -> bool:
    return mat_is_zero(mat_sub(a, b))


def mat_inv(a):
    """Inverse of a matrix of RatFun entries, `scalars.solve` against the
    identity.  Raises ZeroDivisionError when the matrix is singular."""
    return solve(a, eye(len(a)))
