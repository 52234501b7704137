"""Extended-solution builder: triangular solve, closed forms, transforms."""

import pytest

from unitons import exactmat
from unitons.errors import (
    DegenerateFrame,
    EmptySubset,
    InvalidType,
    NonRationalAntiderivative,
    NotNilpotent,
    OddSlotData,
)
from unitons.loops import LoopMat
from unitons.scalars import GaussianRational, Poly, RatFun, differentiate
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    build_from_free_functions,
    closed_form_full_flag_C0,
    even_grassmannian_build,
    exp_nilpotent,
    free_slot_layout,
    full_flag_exponents,
    graded_positions,
    left_log_derivative,
    transform_subset,
    veronese_frame,
    veronese_solution,
)

Z = RatFun.x()
ONE = RatFun.one()
ZERO = RatFun.zero()


def poly(*coeffs):
    return RatFun(Poly([GaussianRational(c) for c in coeffs]))


def upper(n, entries):
    m = exactmat.zeros(n)
    for (a, b), v in entries.items():
        m[a][b] = v
    return m


# -- exp and log-derivative ---------------------------------------------------

def test_exp_nilpotent_square_zero():
    n = upper(2, {(0, 1): Z})
    loop = exp_nilpotent(LoopMat.exact([n]))
    assert loop.lo == loop.hi == 0
    e = loop.coeff(0)
    assert e[0][1] == Z and e[0][0] == ONE and e[1][0] == ZERO


def test_exp_nilpotent_zero():
    assert exp_nilpotent(LoopMat.exact([exactmat.zeros(3)])) == LoopMat.identity(3)


def test_exp_nilpotent_two_term_series():
    n = upper(3, {(0, 1): Z, (1, 2): ONE})
    e = exp_nilpotent(LoopMat.exact([n])).coeff(0)
    assert e[0][2] == Z / RatFun.const(2)  # corner of N^2 / 2


def test_exp_nilpotent_rejects_invertible():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(LoopMat.identity(2))


def test_left_log_derivative_commuting_case():
    c = upper(2, {(0, 1): Z * Z})
    out = left_log_derivative(LoopMat.exact([c]))
    assert out.coeff(0)[0][1] == differentiate(Z * Z)


def test_left_log_derivative_zero():
    assert left_log_derivative(LoopMat.exact([exactmat.zeros(2)])).is_zero()


def test_left_log_derivative_conjugation_term():
    # C = [[0, z, 0], [0, 0, 1], [0, 0, 0]] has [C, C_z] != 0
    c = upper(3, {(0, 1): Z, (1, 2): ONE})
    out = left_log_derivative(LoopMat.exact([c])).coeff(0)
    # C_z - (1/2)[C, C_z]: corner picks up -1/2 * (z*0 - 1*1) = 1/2
    assert out[0][2] == RatFun.const(GaussianRational(1)) / RatFun.const(2)
    assert out[0][1] == ONE and out[1][2] == ZERO


# -- layout -------------------------------------------------------------------

def test_full_flag_layout_counts():
    k = full_flag_exponents(4)
    assert k == (3, 2, 1, 0)
    layout = free_slot_layout(k)
    assert [(i, len(pos)) for i, pos in layout] == [(0, 3), (1, 2), (2, 1)]
    assert graded_positions(k, 3) == [(0, 3)]


def test_sparse_exponent_layout():
    # gaps larger than one leave some grades empty
    layout = free_slot_layout((2, 0))
    assert layout == [(1, [(0, 1)])]


# -- the n = 4 worked example --------------------------------------------------

def u4_build(a1, a2, a3, d1, d2, f1):
    return build_from_free_functions(4, (3, 2, 1, 0), [a1, a2, a3, d1, d2, f1])


def test_u4_forced_ode_for_corner_of_C1():
    a1, a2, a3 = poly(0, 1), poly(0, 0, 1), poly(1, 1)
    d1, d2 = poly(0, 2), poly(0, 0, 0, 1)
    f1 = poly(3)
    spec = u4_build(a1, a2, a3, d1, d2, f1)
    e1 = spec.slot(1, 3)[0][3]
    rhs = (
        a1 * differentiate(d2)
        - differentiate(a1) * d2
        + d1 * differentiate(a3)
        - differentiate(d1) * a3
    ) / RatFun.const(2)
    assert differentiate(e1) == rhs


def test_u4_zero_free_functions_give_homomorphism():
    spec = u4_build(ZERO, ZERO, ZERO, ZERO, ZERO, ZERO)
    assert spec.c_lambda().is_zero()
    assert assemble_loop(spec) == LoopMat.diag_powers((3, 2, 1, 0))


def test_u4_extended_conditions_hold_exactly():
    spec = u4_build(poly(0, 1), poly(1), poly(0, 0, 1), poly(0, 1), poly(2), ZERO)
    ell = left_log_derivative(spec.c_lambda())
    k = spec.exponents
    for i in range(ell.lo, ell.hi + 1):
        mat = ell.coeff(i)
        for a in range(4):
            for b in range(4):
                if k[a] - k[b] >= i + 2:
                    assert mat[a][b].is_zero()


def test_u4_closed_form_delta_entry():
    alpha, beta, gamma = poly(0, 0, 0, 1), poly(0, 0, 1), poly(0, 1)
    u = closed_form_full_flag_C0(4, [alpha, beta, gamma, ONE])
    da = differentiate(alpha) / differentiate(gamma)
    db = differentiate(beta) / differentiate(gamma)
    delta = differentiate(da) / differentiate(db)
    assert u[0][1] == delta
    assert u[0][2] == da and u[1][2] == db
    assert u[0][3] == alpha and u[1][3] == beta and u[2][3] == gamma
    for i in range(4):
        assert u[i][i] == ONE


def test_u3_closed_form_matches_display():
    alpha, beta = poly(0, 0, 1), poly(0, 1, 2)
    u = closed_form_full_flag_C0(3, [alpha, beta, ONE])
    assert u[0][1] == differentiate(alpha) / differentiate(beta)
    assert u[0][2] == alpha and u[1][2] == beta


def test_closed_form_n2():
    alpha = poly(0, 5, 1)
    u = closed_form_full_flag_C0(2, [alpha, ONE])
    assert u == [[ONE, alpha], [ZERO, ONE]]


def test_closed_form_degenerate_frame():
    with pytest.raises(DegenerateFrame):
        closed_form_full_flag_C0(3, [poly(1), poly(2), ONE])  # constant frame


def test_builder_closed_form_consistency_u3():
    # free data (alpha'/beta', beta, gamma) reproduces the closed form
    alpha, beta = poly(0, 0, 1), poly(0, 1)
    p = differentiate(alpha) / differentiate(beta)
    spec = build_from_free_functions(3, (2, 1, 0), [p, beta, poly(7)])
    e = exp_nilpotent(LoopMat.exact([spec.c_lambda().coeff(0)]))
    u = closed_form_full_flag_C0(3, [alpha, beta, ONE])
    assert e == LoopMat.exact([u])


# -- assembly ------------------------------------------------------------------

def test_assemble_u2_affine_loop():
    alpha = poly(2, 0, 1)
    spec = build_from_free_functions(2, (1, 0), [alpha])
    loop = assemble_loop(spec)
    assert loop.coeff(0) == [[ZERO, alpha], [ZERO, ONE]]
    assert loop.coeff(1) == [[ONE, ZERO], [ZERO, ZERO]]


def test_assemble_u4_degree():
    spec = u4_build(poly(0, 1), ZERO, poly(1), ZERO, poly(0, 2), poly(5))
    loop = assemble_loop(spec)
    assert loop.lo == 0 and loop.hi == 3
    m, c = loop.det_lambda()
    assert m == 6 and c == ONE


def test_nonrational_antiderivative_surfaces_slot():
    # a_1 = 1/z, d_2 = z gives e_1' = 1/z: logarithmic obstruction
    a1 = ONE / Z
    with pytest.raises(NonRationalAntiderivative) as info:
        u4_build(a1, ZERO, ZERO, ZERO, Z, ZERO)
    assert "slot" in str(info.value)


# -- veronese ------------------------------------------------------------------

def test_veronese_solution_is_shift_matrix_data():
    for n in (2, 3, 4, 5):
        spec = veronese_solution(n)
        c = spec.c_lambda()
        assert c.lo == c.hi == 0
        expected = upper(n, {(a, a + 1): Z for a in range(n - 1)})
        assert c.coeff(0) == expected


def test_veronese_frame_matches_closed_form():
    for n in (2, 3, 4):
        comps = veronese_frame(n)
        u = closed_form_full_flag_C0(n, comps)
        e = exp_nilpotent(LoopMat.exact([veronese_solution(n).c_lambda().coeff(0)]))
        assert LoopMat.exact([u]) == e


def test_veronese_assembled_width():
    for n in (2, 3, 4):
        loop = assemble_loop(veronese_solution(n))
        assert loop.ad_width() == n - 1


# -- transforms ----------------------------------------------------------------

def test_transform_full_subset_is_identity():
    spec = veronese_solution(3)
    back = transform_subset(spec, {1, 2})
    assert back.exponents == spec.exponents
    assert back.strict_grading


def test_transform_single_step_exponents():
    spec = veronese_solution(4)
    t = transform_subset(spec, {1})
    assert t.exponents == (1, 0, 0, 0)
    t = transform_subset(spec, {3})
    assert t.exponents == (1, 1, 1, 0)
    assert not t.strict_grading


def test_transform_errors():
    spec = veronese_solution(3)
    with pytest.raises(EmptySubset):
        transform_subset(spec, set())
    with pytest.raises(InvalidType):
        transform_subset(spec, {5})
    bad = ExtendedSolutionSpec(n=2, exponents=(2, 0), c_slots={})
    with pytest.raises(Exception):
        transform_subset(bad, {1})


# -- even builds ----------------------------------------------------------------

def test_even_build_r2_has_no_lambda_slots():
    # height-2 canonical exponents: free data is the grade-1 slot only
    layout = free_slot_layout((2, 1, 1, 0), even_only=True)
    assert [(i, len(p)) for i, p in layout] == [(0, 4)]
    spec = even_grassmannian_build(
        4, (2, 1, 1, 0), [poly(0, 1), poly(1), poly(0, 2), poly(3)]
    )
    assert spec.even_only
    assert all(i % 2 == 0 for i, _ in spec.c_slots)
    loop = assemble_loop(spec)
    # Psi(-lambda) = Psi(lambda) * gamma(-1) exactly
    d = LoopMat.exact([[[1 if i == j else 0 for j in range(4)] for i in range(4)]])
    gamma_minus = LoopMat.exact(
        [[[(-1) ** (2 - (2, 1, 1, 0)[i]) if i == j else 0 for j in range(4)] for i in range(4)]]
    )
    assert loop.negate_lambda() == loop @ gamma_minus


def test_even_build_wrong_count_raises():
    with pytest.raises(OddSlotData) as info:
        even_grassmannian_build(4, (2, 1, 1, 0), [ONE] * 5)
    assert "odd slots" in str(info.value)


def test_even_build_zero_data_is_homomorphism():
    spec = even_grassmannian_build(4, (2, 1, 1, 0), [ZERO] * 4)
    assert assemble_loop(spec) == LoopMat.diag_powers((2, 1, 1, 0))


def test_even_build_height3_free_slots():
    layout = free_slot_layout((3, 2, 1, 0), even_only=True)
    assert [(i, len(p)) for i, p in layout] == [(0, 3), (2, 1)]
    spec = even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z, Z, poly(1)])
    assert set(spec.c_slots) <= {(0, 1), (0, 2), (0, 3), (2, 3)}
