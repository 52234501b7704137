"""Unitarization, cell recovery, flow, uniton splitting, normalized form."""

import inspect
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import flag_unitarize
from unitons import exactmat
from unitons.errors import (
    ExactKindUnsupported,
    NoConvergence,
    NonMonomialDeterminant,
    NotCanonical,
    NotInBigCellForm,
    PoleAtZ,
    SingularOnCircle,
)
from unitons.factorization import (
    _circle_min_singular,
    _factor_residual,
    _spectral_factor,
    big_cell_check,
    bruhat_cell,
    cstar_flow,
    energy,
    flow_limit,
    harmonic_map_at,
    unitarize,
    uniton_factorize,
)
from unitons.loops import LoopMat
from unitons.scalars import GaussianRational, Poly, RatFun, differentiate
from unitons.verify import map_sampler
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    build_from_free_functions,
    full_flag_exponents,
    transform_subset,
    veronese_solution,
)

Z = RatFun.x()
ONE = RatFun.one()
ZERO = RatFun.zero()


def poly(*coeffs):
    return RatFun(Poly([GaussianRational(c) for c in coeffs]))


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


def projector_factor(column):
    """pi + lambda*(1 - pi) for pi onto the span of one exact column."""
    n = len(column)
    pi = exactmat.projector_const([column])
    perp = exactmat.mat_sub(exactmat.eye(n), pi)
    return LoopMat("exact", n, 0, [pi, perp])


def frame_loop():
    return LoopMat.exact([[[ZERO, ONE], [ONE, Z]]]) @ LoopMat.diag_powers((1, 0))


def loops_close(a, b, tol):
    lo = min(a.lo, b.lo)
    hi = max(a.hi, b.hi)
    return max(
        np.linalg.norm(np.array(a.coeff(k)) - np.array(b.coeff(k)))
        for k in range(lo, hi + 1)
    ) <= tol


def u4_build(a1, a2, a3, d1, d2, f1):
    return build_from_free_functions(4, (3, 2, 1, 0), [a1, a2, a3, d1, d2, f1])


# -- unitarize ----------------------------------------------------------------

def test_unitarize_constant_loop():
    c = np.array([[2.0, 1.0], [0.0, 1.0 + 1.0j]])
    fac = unitarize(LoopMat.numeric([c]))
    assert loops_close(fac.unitary_part, LoopMat.identity(2, "numeric"), 1e-10)
    assert loops_close(fac.plus_part, LoopMat.numeric([c]), 1e-10)


def test_unitarize_fixes_based_unitary_loop():
    q = projector_factor([ONE, RatFun.const(gr(1, 2))]).to_numeric()
    fac = unitarize(q)
    assert loops_close(fac.unitary_part, q, 1e-9)
    assert loops_close(fac.plus_part, LoopMat.identity(2, "numeric"), 1e-9)
    assert fac.residual_unitarity <= 1e-9
    assert fac.residual_split <= 1e-9


def test_unitarize_basepoint_and_lo():
    fac = unitarize(frame_loop().at_z(gr(1)))
    assert np.linalg.norm(fac.unitary_part.evaluate(1.0) - np.eye(2)) <= 1e-10
    assert fac.plus_part.lo >= 0


def test_unitarize_matches_flag_oracle_on_frame_loop():
    exact = frame_loop().at_z(gr(1))
    u_ref, p_ref = flag_unitarize(exact)
    fac = unitarize(exact.to_numeric())
    assert loops_close(fac.unitary_part, u_ref.to_numeric(), 1e-7)
    assert loops_close(fac.plus_part, p_ref.to_numeric(), 1e-7)


def test_unitarize_negative_powers_keeps_split():
    shifted = projector_factor([ONE, RatFun.const(gr(2))]).shift(-1)
    fac = unitarize(shifted.to_numeric())
    assert fac.unitary_part.lo == -1
    assert np.linalg.norm(fac.unitary_part.evaluate(1.0) - np.eye(2)) <= 1e-10
    assert loops_close(fac.unitary_part, shifted.to_numeric(), 1e-9)


def test_unitarize_idempotent():
    fac = unitarize(frame_loop(), z=complex(0.4, -0.8))
    again = unitarize(fac.unitary_part)
    assert loops_close(again.unitary_part, fac.unitary_part, 1e-7)
    assert loops_close(again.plus_part, LoopMat.identity(2, "numeric"), 1e-7)


def test_unitarize_singular_on_circle():
    # det = lambda - 1 vanishes at lambda = 1
    bad = LoopMat.numeric(
        [np.array([[-1.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 0.0], [0.0, 0.0]])]
    )
    with pytest.raises(SingularOnCircle):
        unitarize(bad)


def _random_exact_loop(rng, n):
    """Invertible exact loop: projector factors interleaved with Lambda+."""
    def rat():
        return RatFun.const(gr(rng.randint(-3, 3), rng.randint(-3, 3)))

    loop = LoopMat.identity(n)
    for _ in range(rng.randint(1, 3)):
        col = [rat() for _ in range(n)]
        if all(c.is_zero() for c in col):
            col[0] = ONE
        loop = loop @ projector_factor(col)
        upper = exactmat.eye(n)
        for a in range(n):
            for b in range(a + 1, n):
                upper[a][b] = rat()
        loop = loop @ LoopMat.exact([upper])
    return loop


def test_unitarize_random_loops_match_oracle():
    rng = random.Random(7)
    for trial in range(8):
        n = 2 + trial % 2
        loop = _random_exact_loop(rng, n)
        u_ref, _ = flag_unitarize(loop)
        fac = unitarize(loop.to_numeric())
        assert loops_close(fac.unitary_part, u_ref.to_numeric(), 1e-7)
        assert fac.residual_unitarity <= 1e-8
        assert fac.residual_split <= 1e-8 * max(1.0, loop.to_numeric().max_coeff_norm())


# -- finite-order spectral factor ---------------------------------------------

def _reference_factor(psi, rows):
    """G from the last block row of a plain numpy block-Toeplitz Cholesky."""
    n = psi.n
    a = [np.asarray(psi.coeff(k)) for k in range(psi.lo, psi.hi + 1)]
    d = len(a) - 1
    f = {k: sum(a[i].conj().T @ a[i + k] for i in range(d + 1 - k)) for k in range(d + 1)}
    t = np.zeros((rows * n, rows * n), dtype=complex)
    for i in range(rows):
        for j in range(rows):
            k = j - i
            if abs(k) <= d:
                t[i * n:(i + 1) * n, j * n:(j + 1) * n] = f[k] if k >= 0 else f[-k].conj().T
    last = np.linalg.cholesky(t)[-n:]
    return [last[:, (rows - 1 - j) * n:(rows - j) * n].conj().T for j in range(d + 1)]


def _assert_factor_matches_reference(psi):
    g, res = _spectral_factor(psi, 1e-9)
    d = len(g) - 1
    ref = _reference_factor(psi, 4 * (psi.n * d + 1))
    scale = max(1.0, psi.max_coeff_norm() ** 2)
    assert res <= 1e-9 * scale
    assert max(np.linalg.norm(x - y) for x, y in zip(g, ref)) <= 1e-12 * scale


def test_spectral_factor_rows_rule_matches_4x_rows_on_veronese():
    for n in range(2, 6):
        psi = assemble_loop(veronese_solution(n)).to_numeric(complex(0.3, -0.2))
        _assert_factor_matches_reference(psi)


def test_spectral_factor_rows_rule_matches_4x_rows_on_random_loops():
    rng = random.Random(7)
    for trial in range(8):
        loop = _random_exact_loop(rng, 2 + trial % 2)
        _assert_factor_matches_reference(loop.to_numeric())


def test_non_algebraic_numeric_loop_raises_no_convergence():
    # det = 2 - lambda: regular on the circle, but not a lambda monomial
    loop = LoopMat.numeric([np.diag([2.0, 1.0]), np.diag([-1.0, 0.0])])
    with pytest.raises(NoConvergence, match="3 block rows"):
        unitarize(loop)


def test_circle_min_singular_matches_per_sample_svd():
    psi = frame_loop().to_numeric(complex(0.4, -0.8))
    lams = np.exp(2j * np.pi * np.arange(64) / 64)
    sing = [np.linalg.svd(psi.evaluate(lam), compute_uv=False) for lam in lams]
    smin, smax = _circle_min_singular(psi)
    assert smin == pytest.approx(min(s[-1] for s in sing), rel=1e-12)
    assert smax == pytest.approx(max(s[0] for s in sing), rel=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "top, match",
    [
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), "values"),  # NaN on the circle
        (np.array([[0.0, 1e200], [0.0, 0.0]]), "symbol"),  # F overflows
    ],
)
def test_nonfinite_loop_is_typed_error(top, match):
    bad = LoopMat.numeric([np.eye(2) * max(1.0, np.nanmax(top)), top])
    with pytest.raises(PoleAtZ, match=match):
        unitarize(bad)


def test_factor_residual_propagates_nan():
    f = [np.eye(2), np.zeros((2, 2))]
    g = [np.eye(2), np.full((2, 2), np.nan)]
    assert np.isnan(_factor_residual(f, g, 1))


@pytest.mark.parametrize(
    "func", [unitarize, harmonic_map_at, cstar_flow, uniton_factorize, map_sampler]
)
def test_no_truncation_order_argument(func):
    params = inspect.signature(func).parameters
    assert "order" not in params and "max_order" not in params


# -- harmonic_map_at ----------------------------------------------------------

def test_harmonic_map_zero_data_is_constant():
    spec = ExtendedSolutionSpec(n=3, exponents=(2, 1, 0), c_slots={})
    phi = harmonic_map_at(spec, complex(0.3, 0.7))
    assert np.linalg.norm(phi - np.diag([1.0, -1.0, 1.0])) <= 1e-9


def test_harmonic_map_frame_loop_reflection():
    phi = harmonic_map_at(frame_loop(), 1.0)
    assert np.linalg.norm(phi - np.array([[0.0, 1.0], [1.0, 0.0]])) <= 1e-8


def test_harmonic_map_veronese2_squares_to_identity():
    spec = veronese_solution(2)
    for z in (complex(0.2, 0.1), complex(-1.5, 2.0), 3.0):
        phi = harmonic_map_at(spec, z)
        assert np.linalg.norm(phi @ phi.conj().T - np.eye(2)) <= 1e-8
        assert np.linalg.norm(phi @ phi - np.eye(2)) <= 1e-8


def test_harmonic_map_pole_is_reported():
    inv = RatFun(Poly.one(), Poly.x())  # 1/z
    spec = build_from_free_functions(2, (1, 0), [inv])
    with pytest.raises(PoleAtZ):
        harmonic_map_at(spec, 0.0)


# -- bruhat_cell --------------------------------------------------------------

def test_cell_diag_powers():
    assert bruhat_cell(LoopMat.diag_powers((2, 0))).exponents == (2, 0)


def test_cell_unipotent_mix():
    loop = LoopMat.exact(
        [
            [[ZERO, ONE], [ZERO, ONE]],
            [[ZERO, ZERO], [ZERO, ZERO]],
            [[ONE, ZERO], [ZERO, ZERO]],
        ]
    )
    assert bruhat_cell(loop).exponents == (2, 0)


def test_cell_veronese():
    assert bruhat_cell(veronese_solution(4)).exponents == (3, 2, 1, 0)


def test_cell_negative_powers():
    assert bruhat_cell(LoopMat.diag_powers((1, 0)).shift(-1)).exponents == (0, -1)


def test_cell_refuses_numeric():
    with pytest.raises(ExactKindUnsupported):
        bruhat_cell(LoopMat.identity(2, "numeric"))


def test_cell_nonmonomial_determinant():
    loop = LoopMat.exact(
        [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ONE, ZERO]]]
    )  # det = 1 - lambda^2
    with pytest.raises(NonMonomialDeterminant):
        bruhat_cell(loop)


def _random_unimodular(rng, n):
    loop = LoopMat.identity(n)
    for _ in range(rng.randint(1, 4)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        k = rng.randint(0, 2)
        c = RatFun.const(gr(rng.randint(-2, 2), rng.randint(-1, 1)))
        blocks = [exactmat.zeros(n) for _ in range(k + 1)]
        for i in range(n):
            blocks[0][i][i] = ONE
        blocks[k][a][b] = blocks[k][a][b] + c
        loop = loop @ LoopMat.exact(blocks)
    return loop


def test_cell_invariant_under_unimodular_multiplication():
    rng = random.Random(11)
    base = LoopMat.diag_powers((2, 1, 0))
    for _ in range(10):
        left = _random_unimodular(rng, 3)
        right = _random_unimodular(rng, 3)
        assert bruhat_cell(left @ base @ right).exponents == (2, 1, 0)


def test_cell_with_rational_function_entries():
    half = RatFun(Poly.one(), Poly([GaussianRational(0), GaussianRational(2)]))
    loop = LoopMat.exact(
        [
            [[ONE, half], [ZERO, ONE]],
            [[ZERO, ZERO], [Z, ZERO]],
            [[ZERO, ZERO], [ZERO, ZERO]],
            [[ZERO, ZERO], [ZERO, ZERO]],
        ][:2]
    )
    # [[1, 1/(2z)], [lambda*z, 1]]: det = 1 - lambda/2, not monomial
    with pytest.raises(NonMonomialDeterminant):
        bruhat_cell(loop)


# -- flow ---------------------------------------------------------------------

def test_flow_at_zero_is_plain_unitarization():
    spec = veronese_solution(3)
    z = complex(0.5, -0.2)
    flowed = cstar_flow(spec, 0.0, z=z)
    fac = unitarize(assemble_loop(spec), z=z)
    assert loops_close(flowed, fac.unitary_part, 1e-9)


def test_flow_fixes_diagonal_geodesic():
    gamma = LoopMat.diag_powers((2, 1, 0))
    for t in (0.0, 0.7, 3.0):
        flowed = cstar_flow(gamma, t)
        assert loops_close(flowed, gamma.to_numeric(), 1e-9)


def test_flow_converges_to_limit_spec():
    a1, a2, a3 = poly(0, 1), poly(1, 1), poly(0, 0, 1)
    d1, d2, f1 = poly(2), poly(0, 1), poly(0, 3)
    spec = u4_build(a1, a2, a3, d1, d2, f1)
    z = complex(0.3, 0.4)
    target = unitarize(flow_limit(spec), z=z).unitary_part
    flowed = cstar_flow(spec, 14.0, z=z)
    assert loops_close(flowed, target, 1e-5)


def test_flow_out_of_float_range_is_typed_error():
    # exp(-t) overflows a float for t below about -709.8
    with pytest.raises(PoleAtZ):
        cstar_flow(veronese_solution(2), -1e308, z=0.3)
    with pytest.raises(PoleAtZ):
        cstar_flow(LoopMat.diag_powers((1, 0)).shift(-1), 1e308)


def test_flow_limit_keeps_lambda0_slots_only():
    spec = u4_build(poly(0, 1), poly(1), poly(0, 0, 1), poly(0, 1), poly(2), poly(1))
    lim = flow_limit(spec)
    assert set(lim.c_slots) == {k for k in spec.c_slots if k[0] == 0}
    assert all(k[0] == 0 for k in lim.c_slots)
    assert lim.exponents == spec.exponents
    # S1-invariant input is its own limit
    v = veronese_solution(3)
    again = flow_limit(v)
    assert again.c_slots == v.c_slots


def test_flow_limit_preserves_uniton_width():
    spec = u4_build(poly(0, 1), poly(1, 1), poly(0, 2), poly(0, 1), poly(1), poly(0, 0, 1))
    assert assemble_loop(flow_limit(spec)).ad_width() == 3
    assert assemble_loop(spec).ad_width() == 3


# -- energy -------------------------------------------------------------------

def test_energy_of_diagonal_geodesic():
    assert energy(LoopMat.diag_powers((3, 2, 1, 0))) == pytest.approx(14.0)
    assert energy(LoopMat.diag_powers((2, 0)).shift(-1)) == pytest.approx(2.0)


def test_energy_climbs_to_critical_value_along_flow():
    # the flow runs up the cell toward its S1-invariant top
    spec = build_from_free_functions(3, (2, 1, 0), [Z, Z, Z * Z])
    z = complex(0.7, 0.3)
    values = [energy(cstar_flow(spec, t, z=z)) for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    for lo_v, hi_v in zip(values, values[1:]):
        assert hi_v >= lo_v - 1e-9
    assert values[-1] <= 5.0 + 1e-6
    assert abs(energy(cstar_flow(spec, 10.0, z=z)) - 5.0) <= 1e-6


# -- uniton factorization -----------------------------------------------------

def test_uniton_factorize_single_step():
    spec = veronese_solution(2)
    z = complex(0.5, 0.0)
    factors = uniton_factorize(spec, z)
    assert len(factors) == 1
    fac = unitarize(assemble_loop(spec), z=z)
    assert loops_close(factors[0], fac.unitary_part, 1e-9)


def _assert_affine_projector(q, tol=1e-8):
    for k in range(q.lo, q.hi + 1):
        if k not in (0, 1):
            assert np.linalg.norm(q.coeff(k)) <= tol
    p0 = q.coeff(0)
    assert np.linalg.norm(p0 - p0.conj().T) <= tol
    assert np.linalg.norm(p0 @ p0 - p0) <= tol
    assert np.linalg.norm(q.coeff(0) + q.coeff(1) - np.eye(q.n)) <= tol


def test_uniton_factorize_veronese3():
    factors = uniton_factorize(veronese_solution(3), complex(0.5, 0.0))
    assert len(factors) == 2
    for q in factors:
        _assert_affine_projector(q)


def test_uniton_factorize_reassembles():
    spec = veronese_solution(4)
    z = complex(0.3, -0.6)
    factors = uniton_factorize(spec, z)
    assert len(factors) == 3
    prod = factors[0]
    for q in factors[1:]:
        prod = prod @ q
    full = unitarize(assemble_loop(spec), z=z).unitary_part
    assert loops_close(prod, full, 1e-8)
    for q in factors:
        _assert_affine_projector(q)


def test_uniton_factorize_requires_canonical():
    spec = build_from_free_functions(2, (2, 0), [Z])
    with pytest.raises(NotCanonical):
        uniton_factorize(spec, 0.5)


def test_uniton_factorize_constant_spec():
    spec = ExtendedSolutionSpec(n=2, exponents=(0, 0), c_slots={})
    assert uniton_factorize(spec, 0.5) == []


# -- normalized-form check ----------------------------------------------------

def test_big_cell_zero_data():
    spec = ExtendedSolutionSpec(n=3, exponents=(2, 1, 0), c_slots={})
    wd = big_cell_check(spec)
    assert all(e.is_zero() for row in wd.V for e in row)


def test_big_cell_u2_reads_off_derivative():
    alpha = poly(0, 0, 1)  # z^2
    spec = build_from_free_functions(2, (1, 0), [alpha])
    wd = big_cell_check(spec)
    assert wd.V[0][1] == differentiate(alpha)
    assert wd.V[1][0].is_zero() and wd.V[0][0].is_zero()


def test_big_cell_u4_pattern():
    a1, a2, a3 = poly(0, 1), poly(0, 0, 1), poly(1, 1)
    d1, d2, f1 = poly(0, 2), poly(0, 0, 3), poly(5)
    spec = u4_build(a1, a2, a3, d1, d2, f1)
    wd = big_cell_check(spec)
    v = wd.matrix()
    assert v[0][1] == differentiate(a1)
    assert v[1][2] == differentiate(a2)
    assert v[2][3] == differentiate(a3)
    assert v[0][2] == differentiate(d1)
    assert v[1][3] == differentiate(d2)
    assert v[0][3] == differentiate(f1)
    for a in range(4):
        for b in range(a + 1):
            assert v[a][b].is_zero()


def test_big_cell_rejects_off_grade_slot():
    spec = build_from_free_functions(2, (1, 0), [Z])
    junk = exactmat.zeros(2)
    junk[0][1] = Z
    bad = ExtendedSolutionSpec(
        n=2, exponents=(1, 0), c_slots={**spec.c_slots, (1, 1): junk}
    )
    with pytest.raises(NotInBigCellForm):
        big_cell_check(bad)


def test_big_cell_rejects_subset_transform():
    moved = transform_subset(veronese_solution(4), [3])
    assert moved.strict_grading is False
    with pytest.raises(NotInBigCellForm):
        big_cell_check(moved)
