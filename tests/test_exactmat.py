"""Exact matrix helpers: sparse products and sums against dense references."""

import random

import pytest

from unitons import exactmat
from unitons.errors import SizeMismatch
from unitons.scalars import GaussianRational, Poly, RatFun

ZERO = RatFun.zero()


def _dense_mul(a, b):
    """Every product a_ik b_kj, summed from the zero of the field."""
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), ZERO) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _dense_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _ratfun(rng):
    """A nonzero rational function of z: numerator of degree <= 2 over a
    monic denominator of degree <= 1, Gaussian-integer coefficients."""
    def gauss():
        return GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3))

    num = [gauss() for _ in range(rng.randint(1, 3))]
    num[-1] = num[-1] if not num[-1].is_zero() else GaussianRational(1)
    den = [gauss(), GaussianRational(1)] if rng.random() < 0.5 else [GaussianRational(1)]
    return RatFun(Poly(num), Poly(den))


def _matrix(rng, rows, cols, keep):
    """rows x cols matrix with a random entry where keep(i, j) holds, else zero."""
    return [[_ratfun(rng) if keep(i, j) else ZERO for j in range(cols)] for i in range(rows)]


def _seeded_pairs():
    """Pairs of matrices of every zero pattern: all-zero, identity, strictly
    triangular, mixed density; square and rectangular."""
    rng = random.Random(23)
    patterns = {
        "zero": lambda i, j: False,
        "upper": lambda i, j: j > i,
        "lower": lambda i, j: i > j,
        "mixed": lambda i, j: rng.random() < 0.5,
        "full": lambda i, j: True,
    }
    pairs = []
    for n in (1, 2, 3, 4):
        mats = [_matrix(rng, n, n, keep) for keep in patterns.values()] + [exactmat.eye(n)]
        pairs += [(a, b) for a in mats for b in mats]
    for _ in range(6):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        keep = patterns["mixed"]
        pairs.append((_matrix(rng, r, k, keep), _matrix(rng, k, c, keep)))
    return pairs


def _assert_same(got, ref):
    assert len(got) == len(ref) and all(len(g) == len(r) for g, r in zip(got, ref))
    for row, ref_row in zip(got, ref):
        for x, y in zip(row, ref_row):
            assert isinstance(x, RatFun) and x == y
            if x.is_zero():  # the canonical zero 0/1
                assert (x.num, x.den) == (ZERO.num, ZERO.den)


def test_mat_mul_matches_dense_product():
    for a, b in _seeded_pairs():
        _assert_same(exactmat.mat_mul(a, b), _dense_mul(a, b))


def test_mat_add_and_mat_sub_match_dense_sums():
    for a, b in _seeded_pairs():
        if len(a) == len(b) and len(a[0]) == len(b[0]):
            _assert_same(exactmat.mat_add(a, b), _dense_add(a, b))
            _assert_same(exactmat.mat_sub(a, b), _dense_sub(a, b))
            _assert_same(exactmat.mat_sub(a, a), exactmat.zeros(len(a), len(a[0])))


def _count_ratfun_ops(monkeypatch):
    counts = {"mul": 0, "add": 0}
    mul, add = RatFun.__mul__, RatFun.__add__

    def counted_mul(x, y):
        counts["mul"] += 1
        return mul(x, y)

    def counted_add(x, y):
        counts["add"] += 1
        return add(x, y)

    monkeypatch.setattr(RatFun, "__mul__", counted_mul)
    monkeypatch.setattr(RatFun, "__add__", counted_add)
    return counts


def test_strictly_triangular_square_forms_only_nonzero_products(monkeypatch):
    # 6 nonzero entries above the diagonal; (a^2)_ij = sum over i < k < j,
    # which is 4 products and 1 sum, where a dense product forms 64 and 48
    a = _matrix(random.Random(5), 4, 4, lambda i, j: j > i)
    ref = _dense_mul(a, a)
    counts = _count_ratfun_ops(monkeypatch)
    got = exactmat.mat_mul(a, a)
    assert counts == {"mul": 4, "add": 1}
    _assert_same(got, ref)


def test_mat_scale_multiplies_only_nonzero_entries(monkeypatch):
    rng = random.Random(7)
    c = _ratfun(rng)
    mats = [
        _matrix(rng, 3, 4, keep)
        for keep in (lambda i, j: False, lambda i, j: j > i, lambda i, j: True)
    ]
    refs = [[[x * c for x in row] for row in a] for a in mats]
    counts = _count_ratfun_ops(monkeypatch)
    for a, ref in zip(mats, refs):
        k = sum(not x.is_zero() for row in a for x in row)
        before = counts["mul"]
        got = exactmat.mat_scale(a, c)
        assert counts["mul"] - before == k
        _assert_same(got, ref)


def test_shape_mismatch_is_rejected():
    with pytest.raises(SizeMismatch):
        exactmat.mat_mul(exactmat.zeros(2, 3), exactmat.zeros(2, 3))
    with pytest.raises(SizeMismatch):
        exactmat.mat_add(exactmat.zeros(2), exactmat.zeros(3))
