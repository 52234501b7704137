"""Laurent loop matrices: algebra, involutions, ad width of bare loops."""

import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from unitons import exactmat
from unitons.errors import (
    ExactKindUnsupported,
    NonMonomialDeterminant,
    NotInvertibleLoop,
    PoleAtZ,
    SingularAtMinusOne,
    ZeroLambda,
)
from unitons.factorization import unitarize
from unitons.loops import CompiledLoop, LoopMat, values_at
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.verify import uniton_number_report
from unitons.weierstrass import assemble_loop, build_from_free_functions, veronese_solution

from oracles import projector_const, ratfun_complex_value

Z = RatFun.x()


def frame_loop():
    # [[0,1],[1,z]] * diag(lambda, 1)
    a = LoopMat.exact([[[0, 1], [1, Z]]])
    return a @ LoopMat.diag_powers((1, 0))


def su2_projector_loop(z0):
    """(p + 1/lambda p_perp)(pi + lambda pi_perp) at an exact point z0."""
    one = RatFun.one()
    z0 = RatFun.const(z0)
    p = projector_const([[one, RatFun.zero()]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    pi = projector_const([[one, z0]])
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


def test_construction_keeps_the_callers_list_and_numeric_coeffs_are_one_stack():
    # the trim slices off zero end blocks; the list passed in keeps them
    zero, one = exactmat.zeros(2), exactmat.eye(2)
    blocks = [zero, one, zero]
    loop = LoopMat("exact", 2, 0, blocks)
    assert blocks == [zero, one, zero] and (loop.lo, loop.hi) == (1, 1)
    mats = [np.zeros((2, 2)), np.eye(2), np.zeros((2, 2))]
    for loop in (LoopMat("numeric", 2, 0, mats), LoopMat.numeric(mats)):
        assert len(mats) == 3 and (loop.lo, loop.hi) == (1, 1)
    stack = np.array([1e-15 * np.eye(2), np.eye(2)])
    assert LoopMat.numeric(stack).lo == 1 and stack[0, 0, 0] == 1e-15
    # each numeric loop holds one complex (K, n, n) stack
    rng = np.random.default_rng(3)
    a = LoopMat.numeric(rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2)), lo=-1)
    b = frame_loop().to_numeric(0.3)
    loops = [
        a, b, LoopMat.identity(2, "numeric"), a @ b, a - b, a.scale(2j),
        unitarize(b).unitary_part,
    ]
    for loop in loops:
        assert isinstance(loop.coeffs, np.ndarray) and loop.coeffs.dtype == complex
        assert loop.coeffs.shape == (loop.hi - loop.lo + 1, 2, 2)


def test_numeric_trim_keeps_nonfinite_blocks():
    loop = LoopMat.numeric([np.eye(2), np.full((2, 2), np.nan)])
    assert loop.hi == 1
    assert np.isnan(loop.unitarity_residual())
    assert np.isnan(loop.max_coeff_norm())


def test_circle_values_match_pointwise_evaluation():
    # samples = 4 puts every lambda at a Gaussian rational: i^(m + offset)
    z = GaussianRational(Fraction(3, 10), Fraction(1, 10))
    exact = frame_loop().shift(-1)
    loop = exact.to_numeric(complex(z))
    powers_of_i = [GaussianRational(*p) for p in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    for offset in (0, 1):
        vals = loop.circle_values(4, offset)
        for m in range(4):
            lam = powers_of_i[(m + offset) % 4]
            ref = [[complex(e.const_value()) for e in row] for row in exact.evaluate_exact(lam, z)]
            assert np.linalg.norm(vals[m] - np.array(ref)) <= 1e-13


def _seeded_exact_loop(rng, n):
    """Exact loop of 1 to 3 blocks from a power in -2..1, entries polynomials
    in z of degree <= 2 with Gaussian-integer coefficients in -3..3."""
    def entry():
        coeffs = [GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3)]
        return RatFun(Poly(coeffs[: rng.randint(1, 3)]))

    blocks = [[[entry() for _ in range(n)] for _ in range(n)] for _ in range(rng.randint(1, 3))]
    return LoopMat.exact(blocks, lo=rng.randint(-2, 1))


def test_numeric_product_matches_exact_product():
    rng = random.Random(11)
    z = complex(0.3, -0.7)
    for trial in range(12):
        n = 2 + trial % 3
        a, b = _seeded_exact_loop(rng, n), _seeded_exact_loop(rng, n)
        got = a.to_numeric(z) @ b.to_numeric(z)
        ref = (a @ b).to_numeric(z)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        for x, y in zip(got.coeffs, ref.coeffs):
            assert np.linalg.norm(x - y) <= 1e-12 * max(1.0, np.linalg.norm(y))


def test_numeric_difference_is_the_sum_with_the_negated_loop():
    rng = np.random.default_rng(13)
    for trial in range(12):
        n = 1 + trial % 4
        a, b = (
            LoopMat.numeric(
                rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)),
                lo=int(rng.integers(-2, 2)),
            )
            for k in rng.integers(1, 4, size=2)
        )
        got, ref = a - b, a + b.scale(-1)
        assert (got.lo, got.hi) == (ref.lo, ref.hi)
        assert all(np.array_equal(x, y) for x, y in zip(got.coeffs, ref.coeffs))
        assert (a - a).is_zero()


def test_exact_difference_inverts_the_sum():
    rng = random.Random(19)
    for trial in range(12):
        n = 2 + trial % 3
        a, b = _seeded_exact_loop(rng, n), _seeded_exact_loop(rng, n)
        for x, y in ((a, b), (b, a), (a, LoopMat.exact([exactmat.zeros(n)]))):
            back = (x - y) + y
            assert back == x and (back.lo, back.hi) == (x.lo, x.hi)
            assert (x - y) + (y - x) == LoopMat.exact([exactmat.zeros(n)])


def test_column_shift_equals_the_exact_product():
    rng = random.Random(17)
    exponents = {
        2: [(1, -1), (0, 0), (-2, 3)],
        3: [(2, -1, 2), (3, 1, 0), (-1, -1, -1)],
        4: [(-2, 0, 1, -2), (3, 3, -1, 0)],
    }
    for n, vectors in exponents.items():
        for ks in vectors:
            for _ in range(3):
                loop = _seeded_exact_loop(rng, n)
                got = loop.times_diag_powers(ks)
                ref = loop @ LoopMat.diag_powers(ks)
                assert got == ref and (got.lo, got.hi) == (ref.lo, ref.hi)


def test_diag_powers_matches_hand_built_loops():
    def unit(n, i):
        return [[1 if a == b == i else 0 for b in range(n)] for a in range(n)]

    loop = LoopMat.diag_powers((3, 1, 0))
    assert loop == LoopMat.exact([unit(3, 2), unit(3, 1), exactmat.zeros(3), unit(3, 0)])
    assert (loop.lo, loop.hi) == (0, 3)
    loop = LoopMat.diag_powers((1, -1))
    assert loop == LoopMat.exact([unit(2, 1), exactmat.zeros(2), unit(2, 0)], lo=-1)
    assert (loop.lo, loop.hi) == (-1, 1)


def test_values_at_matches_exact_evaluation():
    lams = [GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
            GaussianRational(Fraction(3, 5), Fraction(4, 5))]
    rng = random.Random(5)
    z = GaussianRational(Fraction(3, 10), Fraction(1, 10))
    for trial in range(6):
        loop = _seeded_exact_loop(rng, 2 + trial % 3).at_z(z)
        got = values_at(loop.to_numeric().coeffs, loop.lo, [complex(lam) for lam in lams])
        for lam, value in zip(lams, got):
            ref = [[complex(e.const_value()) for e in row] for row in loop.evaluate_exact(lam)]
            assert np.linalg.norm(value - np.array(ref)) <= 1e-12 * max(1.0, np.linalg.norm(ref))


def _compiled_test_loops():
    one = RatFun.one()
    loops = [assemble_loop(veronese_solution(n)) for n in (2, 3, 4, 5)]
    for free in ([Z, one + Z, Z], [Z, one / ((one + Z) * (one + Z)), Z]):
        loops.append(assemble_loop(build_from_free_functions(3, (2, 1, 0), free)))
    loops.append(assemble_loop(build_from_free_functions(
        4, (3, 2, 1, 0), [Z, Z * Z, one + Z, 2 * Z, 3 * Z * Z, RatFun.const(5)])))
    rational = RatFun(Poly([GaussianRational(1, 2), 1]), Poly([3, GaussianRational(0, -1), 1]))
    loops.append(LoopMat.exact([[[rational, 1], [0, 1]]]))
    return loops


def test_compiled_values_equal_python_complex_arithmetic():
    rng = np.random.default_rng(3)
    zs = list(rng.uniform(-2, 2, 30) + 1j * rng.uniform(-2, 2, 30)) + [0.0, 1.0, -0.5j]
    for loop in _compiled_test_loops():
        got = CompiledLoop(loop).values(zs)
        ref = np.array([[[[ratfun_complex_value(e, complex(z)) for e in row] for row in m]
                         for m in loop.coeffs] for z in zs])
        assert np.array_equal(got.view(float), ref.view(float))
        for z, vals in zip(zs, got):
            assert np.array_equal(np.array(loop.to_numeric(z).coeffs), vals)


def test_compiled_values_name_the_pole():
    one = RatFun.one()
    loop = LoopMat.exact([[[one / (one + Z), 0], [0, 1]]])
    with pytest.raises(PoleAtZ, match=r"pole at z = -1\.0$"):
        CompiledLoop(loop).values([0.5, -1.0, 2.0])
    with pytest.raises(ExactKindUnsupported):
        CompiledLoop(loop).values([None])


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


@pytest.mark.parametrize(
    "lam, error",
    [
        pytest.param(-1, SingularAtMinusOne, id="-1-SingularAtMinusOne-exact"),
        pytest.param(1, NotInvertibleLoop, id="1-NotInvertibleLoop-exact"),
    ],
)
def test_singular_value_at_plus_minus_one_is_typed_error(lam, error):
    # I - lam diag(1, 0) lambda is singular at lambda = lam
    loop = LoopMat.exact([[[1, 0], [0, 1]], [[-lam, 0], [0, 0]]])
    with pytest.raises(error, match=f"^loop value at lambda = {lam} is singular$"):
        loop.twist_T() if lam == -1 else loop.based()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("lam, error", [(-1, SingularAtMinusOne), (1, NotInvertibleLoop)])
def test_non_finite_value_at_plus_minus_one_is_typed_error(bad, lam, error):
    # the singular-value check at lambda = +-1 is exact-only: a numeric loop
    # with a non-finite value there is refused before any arithmetic on it
    loop = LoopMat.numeric([np.eye(2), np.full((2, 2), bad)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ExactKindUnsupported, match=r"^[^\n]+ needs an exact loop$") as info:
            loop.twist_T() if lam == -1 else loop.based()
    assert not isinstance(info.value, error)


def test_inf_block_reaches_the_checks_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loop = LoopMat.numeric([np.eye(2), np.full((2, 2), np.inf)])
    assert np.isinf(loop.coeffs[1]).all()


# -- ad width of bare loops ------------------------------------------------------

def test_singular_loop_rejected():
    loop = LoopMat.exact([[[1, 1], [1, 1]]])
    with pytest.raises(NotInvertibleLoop):
        uniton_number_report(loop)


def test_non_monomial_determinant_rejected():
    loop = LoopMat.exact([[[1, 0], [0, 1]], [[1, 0], [0, 0]]])  # diag(1+lambda, 1)
    with pytest.raises(NonMonomialDeterminant):
        uniton_number_report(loop)
    # the error names the powers of det L, not of det(lambda^-lo L)
    with pytest.raises(NonMonomialDeterminant, match=r"lambda powers \[-2, -1\];"):
        uniton_number_report(loop.shift(-1))


def test_ad_width_scalar_loop_is_zero():
    scalar = LoopMat.exact([exactmat.mat_scale(exactmat.eye(3), RatFun.one())], lo=5)
    assert uniton_number_report(scalar).ad_width == 0


def test_ad_width_diag_powers():
    assert uniton_number_report(LoopMat.diag_powers((1, 0))).ad_width == 1
    assert uniton_number_report(LoopMat.diag_powers((1, 0)).shift(-2)).ad_width == 1
    assert uniton_number_report(LoopMat.diag_powers((3, 2, 1, 0))).ad_width == 3


def test_ad_width_projector_product_is_two():
    loop = su2_projector_loop(GaussianRational(1, 2))
    assert uniton_number_report(loop).ad_width == 2


def test_ad_width_projector_product_collapses_when_equal():
    # p = pi makes the cross terms vanish: the product is the identity loop
    one = RatFun.one()
    p = projector_const([[one, RatFun.zero()]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    loop = LoopMat.exact([p_perp, p], lo=-1) @ LoopMat.exact([p, p_perp], lo=0)
    assert loop == LoopMat.identity(2)
    assert uniton_number_report(loop).ad_width == 0


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
