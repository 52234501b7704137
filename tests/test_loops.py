"""Laurent loop matrices: algebra, involutions, exact inverse, ad width."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitons import exactmat
from unitons.errors import (
    ExactKindUnsupported,
    NonMonomialDeterminant,
    NotInvertibleLoop,
    ZeroLambda,
)
from unitons.loops import LoopMat
from unitons.scalars import GaussianRational, RatFun

Z = RatFun.x()


def frame_loop():
    # [[0,1],[1,z]] * diag(lambda, 1)
    a = LoopMat.exact([[[0, 1], [1, Z]]])
    return a @ LoopMat.diag_powers((1, 0))


def su2_projector_loop(z0):
    """(p + 1/lambda p_perp)(pi + lambda pi_perp) at an exact point z0."""
    one = RatFun.one()
    z0 = RatFun.const(z0)
    p = exactmat.projector_const([[one, RatFun.zero()]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    pi = exactmat.projector_const([[one, z0]])
    pi_perp = exactmat.mat_sub(exactmat.eye(2), pi)
    left = LoopMat.exact([p_perp, p], lo=-1)
    right = LoopMat.exact([pi, pi_perp], lo=0)
    return left @ right


# -- evaluation and multiplication ------------------------------------------

def test_multiply_and_evaluate_frame():
    got = frame_loop().evaluate(1j, z=2.0)
    assert np.allclose(got, np.array([[0, 1], [1j, 2]]))


def test_evaluate_exact_matches_numeric():
    loop = frame_loop()
    exact = loop.evaluate_exact(GaussianRational(-1), z=GaussianRational(3))
    numeric = loop.evaluate(-1.0, z=3.0)
    lifted = np.array([[complex(e.const_value()) for e in row] for row in exact])
    assert np.allclose(lifted, numeric)


def test_zero_lambda_guard():
    loop = LoopMat.diag_powers((1, -1))
    with pytest.raises(ZeroLambda):
        loop.evaluate(0.0)
    assert np.allclose(LoopMat.diag_powers((1, 0)).evaluate(0.0), np.diag([0.0, 1.0]))


def test_numeric_trim_drops_noise():
    big = np.eye(2)
    tiny = 1e-15 * np.ones((2, 2))
    loop = LoopMat.numeric([big, tiny])
    assert loop.hi == 0


def test_numeric_trim_keeps_nonfinite_blocks():
    loop = LoopMat.numeric([np.eye(2), np.full((2, 2), np.nan)])
    assert loop.hi == 1
    assert np.isnan(loop.unitarity_residual())


def test_circle_values_match_pointwise_evaluation():
    loop = frame_loop().to_numeric(complex(0.3, 0.1)).shift(-1)
    vals = loop.circle_values(16, 0.5)
    for m in range(16):
        lam = np.exp(2j * np.pi * (m + 0.5) / 16)
        assert np.linalg.norm(vals[m] - loop.evaluate(lam)) <= 1e-13


# -- circle adjoint ----------------------------------------------------------

def test_circle_adjoint_constant_exact():
    m = [[GaussianRational(0, 1), 1], [0, 2]]
    loop = LoopMat.exact([m], lo=1)
    adj = loop.circle_adjoint()
    assert adj.lo == adj.hi == -1
    entry = adj.coeff(-1)
    assert entry[0][0].const_value() == GaussianRational(0, -1)
    assert entry[1][0].const_value() == GaussianRational(1)


def test_circle_adjoint_rejects_z_dependence():
    with pytest.raises(ExactKindUnsupported):
        frame_loop().circle_adjoint()


def test_circle_adjoint_numeric_unitary_inverse():
    loop = su2_projector_loop(GaussianRational(1, 2)).to_numeric()
    prod = loop @ loop.circle_adjoint()
    assert (prod - LoopMat.identity(2, "numeric")).max_coeff_norm() < 1e-12


@given(st.integers(-2, 2), st.integers(-2, 2))
def test_circle_adjoint_antihomomorphism(a, b):
    rng = np.random.default_rng(abs(a) * 7 + abs(b) * 3 + 1)
    A = LoopMat.numeric([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))], lo=a)
    B = LoopMat.numeric([rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))], lo=b)
    lhs = (A @ B).circle_adjoint()
    rhs = B.circle_adjoint() @ A.circle_adjoint()
    assert (lhs - rhs).max_coeff_norm() < 1e-12


# -- T involution -------------------------------------------------------------

def test_twist_fixes_projector_affine_loops():
    # diag(lambda, 1) = pi + lambda pi_perp is fixed by the involution
    gamma = LoopMat.diag_powers((1, 0))
    assert gamma.twist_T() == gamma


def test_twist_moves_odd_unipotent_loop():
    lam_entry = RatFun.one()
    loop = LoopMat.exact(
        [[[1, 0], [0, 1]], [[0, lam_entry], [0, 0]]], lo=0
    )  # I + lambda E12
    twisted = loop.twist_T()
    assert twisted != loop


def test_twist_involutive_on_based_loops():
    gamma = LoopMat.diag_powers((2, 1, 0))
    loop = su2_projector_loop(GaussianRational(1, 3))
    based = loop @ LoopMat.exact([exactmat.mat_inv(loop.evaluate_exact(1))])
    for L in (gamma, based):
        assert L.twist_T().twist_T() == L


# -- exact inverse and determinant --------------------------------------------

def test_det_lambda_of_diag_powers():
    m, c = LoopMat.diag_powers((3, 2, 1, 0)).det_lambda()
    assert m == 6 and c == RatFun.one()


def test_inverse_roundtrip_exact():
    loop = frame_loop()
    inv = loop.inverse()
    assert loop @ inv == LoopMat.identity(2)
    assert inv @ loop == LoopMat.identity(2)


def test_inverse_with_negative_powers():
    loop = su2_projector_loop(GaussianRational(2, 5))
    inv = loop.inverse()
    assert loop @ inv == LoopMat.identity(2)


def test_non_monomial_determinant_rejected():
    loop = LoopMat.exact([[[1, 0], [0, 1]], [[1, 0], [0, 0]]])  # diag(1+lambda, 1)
    with pytest.raises(NonMonomialDeterminant):
        loop.inverse()


def test_singular_loop_rejected():
    loop = LoopMat.exact([[[1, 1], [1, 1]]])
    with pytest.raises(NotInvertibleLoop):
        loop.det_lambda()


# -- ad width ------------------------------------------------------------------

def test_ad_width_scalar_loop_is_zero():
    scalar = LoopMat.exact([exactmat.mat_scale(exactmat.eye(3), RatFun.one())], lo=5)
    assert scalar.ad_width() == 0


def test_ad_width_diag_powers():
    assert LoopMat.diag_powers((1, 0)).ad_width() == 1
    assert LoopMat.diag_powers((3, 2, 1, 0)).ad_width() == 3


def test_ad_width_projector_product_is_two():
    loop = su2_projector_loop(GaussianRational(1, 2))
    assert loop.ad_width() == 2


def test_ad_width_projector_product_collapses_when_equal():
    # p = pi makes the cross terms vanish: the product is the identity loop
    one = RatFun.one()
    p = exactmat.projector_const([[one, RatFun.zero()]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    loop = LoopMat.exact([p_perp, p], lo=-1) @ LoopMat.exact([p, p_perp], lo=0)
    assert loop == LoopMat.identity(2)
    assert loop.ad_width() == 0


# -- algebra properties ---------------------------------------------------------

small_entries = st.integers(-2, 2)


def exact_loops(n=2, max_len=2):
    mat = st.lists(
        st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )
    return st.builds(
        lambda ms, lo: LoopMat.exact(ms, lo=lo),
        st.lists(mat, min_size=1, max_size=max_len),
        st.integers(-1, 1),
    )


@given(exact_loops(), exact_loops(), exact_loops())
@settings(max_examples=30)
def test_exact_multiply_associative(a, b, c):
    assert (a @ b) @ c == a @ (b @ c)


@given(exact_loops(), exact_loops())
@settings(max_examples=30)
def test_exact_multiply_distributes(a, b):
    c = LoopMat.identity(2) + a
    assert c @ b == (b + (a @ b))
