"""Checker behavior on passing builds and on shipped negative controls."""

import numpy as np
import pytest

from unitons import exactmat
from unitons.errors import NotS1Invariant
from unitons.factorization import flow_limit, unitarize
from unitons.loops import LoopMat
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.verify import (
    check_extended,
    check_superhorizontal,
    check_T_invariant,
    harmonicity_residual,
    map_sampler,
    non_harmonic_control,
    uniton_number_report,
)
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    build_from_free_functions,
    even_grassmannian_build,
    graded_positions,
    two_projector_frame,
    veronese_solution,
)

Z = RatFun.x()
ONE = RatFun.one()
ZERO = RatFun.zero()


def poly(*coeffs):
    return RatFun(Poly([GaussianRational(c) for c in coeffs]))


def u4_spec():
    return build_from_free_functions(
        4,
        (3, 2, 1, 0),
        [poly(0, 1), poly(0, 0, 1), poly(1, 1), poly(0, 2), poly(0, 0, 3), poly(5)],
    )


def su2_example_loop():
    """(p + (1/lambda) p_perp)(pi + lambda pi_perp) for fixed p, z-dependent pi."""
    return two_projector_frame()


# -- extended conditions ------------------------------------------------------

def test_extended_passes_on_builder_output():
    report = check_extended(u4_spec())
    assert report.passed
    names = [c.name for c in report.checks]
    assert names == [
        "lambda^0 grades 2..3",
        "lambda^1 grades 3..3",
        "conjugate conditions",
    ]
    assert report.entry("lambda^0 grades 2..3").evidence == "exact zero"


def test_extended_trivial_for_zero_potential():
    spec = ExtendedSolutionSpec(n=3, exponents=(2, 1, 0), c_slots={})
    assert check_extended(spec).passed


def test_extended_catches_perturbed_ode_slot():
    spec = u4_spec()
    slots = {k: [row[:] for row in m] for k, m in spec.c_slots.items()}
    slots[(1, 3)][0][3] = slots[(1, 3)][0][3] + Z
    bad = ExtendedSolutionSpec(n=4, exponents=(3, 2, 1, 0), c_slots=slots)
    report = check_extended(bad)
    entry = report.entry("lambda^1 grades 3..3")
    assert not entry.passed
    assert "(1,4) grade 3" in entry.evidence


@pytest.mark.parametrize("key", [(0, 2), (0, 3), (1, 3)])
def test_extended_fails_on_any_forced_slot_perturbation(key):
    spec = u4_spec()
    slots = {k: [row[:] for row in m] for k, m in spec.c_slots.items()}
    a, b = graded_positions((3, 2, 1, 0), key[1])[0]
    target = slots.setdefault(
        key, [[ZERO] * 4 for _ in range(4)]
    )
    target[a][b] = target[a][b] + Z
    bad = ExtendedSolutionSpec(n=4, exponents=(3, 2, 1, 0), c_slots=slots)
    assert not check_extended(bad).passed


# -- super-horizontality ------------------------------------------------------

def test_superhorizontal_accepts_veronese():
    for n in (2, 3, 4):
        assert check_superhorizontal(veronese_solution(n)).passed


def test_superhorizontal_accepts_flow_limit():
    assert check_superhorizontal(flow_limit(u4_spec())).passed


def test_superhorizontal_rejects_unconstrained_potential():
    m = exactmat.zeros(3)
    m[0][2] = Z  # grade-2 entry with no compensating structure
    spec = ExtendedSolutionSpec(
        n=3, exponents=(2, 1, 0), c_slots={(0, 2): m}
    )
    report = check_superhorizontal(spec)
    entry = report.entry("derivative in first filtration slot")
    assert not entry.passed
    assert "grade 2" in entry.evidence


def test_superhorizontal_needs_lambda_free_potential():
    with pytest.raises(NotS1Invariant):
        check_superhorizontal(u4_spec())


# -- uniton numbers -----------------------------------------------------------

def test_uniton_numbers_veronese4():
    rep = uniton_number_report(veronese_solution(4))
    assert rep.ad_width == 3
    assert rep.height == 3
    assert rep.group_bound == 3
    assert rep.canonical_bound == 3
    assert rep.attains_height and rep.within_group_bound


def test_uniton_numbers_constant():
    spec = ExtendedSolutionSpec(n=3, exponents=(0, 0, 0), c_slots={})
    rep = uniton_number_report(spec)
    assert rep.ad_width == 0 and rep.height == 0


def test_uniton_numbers_su2_example():
    # the central scalar factor inflates the width past the group bound;
    # only the conjugation-minimal count (here 1) respects it
    rep = uniton_number_report(su2_example_loop())
    assert rep.ad_width == 2
    assert rep.group_bound == 1
    assert rep.height is None
    assert not rep.within_group_bound


# -- harmonicity by finite differences ----------------------------------------

def test_harmonicity_constant_map():
    res = harmonicity_residual(lambda z: np.eye(2), [0.0, 0.5 + 0.5j], h=1e-3)
    assert res <= 1e-12


def test_harmonicity_nan_node_is_not_a_pass():
    def sampler(z):
        return np.full((2, 2), np.nan) if z.real > 0.25 else np.eye(2)

    assert np.isnan(harmonicity_residual(sampler, [0.0, 0.5], h=1e-3))


def grid5():
    pts = np.linspace(-1.0, 1.0, 5)
    return [complex(x, y) for x in pts for y in pts]


def test_harmonicity_veronese2_grid():
    res = harmonicity_residual(map_sampler(veronese_solution(2)), grid5(), h=1e-3)
    assert res <= 1e-5


def test_harmonicity_flags_control_map():
    res = harmonicity_residual(non_harmonic_control(), grid5(), h=1e-3)
    assert res > 1e-2


def test_harmonicity_order_of_accuracy():
    sampler = map_sampler(veronese_solution(3))
    pts = [0.4 + 0.2j, -0.3 + 0.6j]
    big = harmonicity_residual(sampler, pts, h=1e-2)
    small = harmonicity_residual(sampler, pts, h=1e-3)
    assert small <= big / 20.0


# -- twist invariance ---------------------------------------------------------

def even_spec():
    return even_grassmannian_build(4, (2, 1, 1, 0), [Z, poly(0, 0, 1), ONE, -Z])


def test_twist_even_build_passes_exactly():
    loop = assemble_loop(even_spec()).based()
    report = check_T_invariant(loop)
    assert report.passed
    assert report.entry("fixed by the twist").evidence == "exact equality"
    assert report.entry("value at -1 is an involution").passed


def test_twist_even_diagonal_geodesic():
    assert check_T_invariant(LoopMat.diag_powers((2, 0))).passed


def test_twist_fixes_every_geodesic_loop():
    # odd exponents rebased still satisfy L(-x) = L(x) L(-1); the twist
    # cannot distinguish parity on one-parameter subgroups
    assert check_T_invariant(LoopMat.diag_powers((1, 0))).passed


def test_twist_negative_control():
    loop = LoopMat.exact(
        [[[ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ZERO, ZERO]]]
    )  # I + lambda E_12, based
    report = check_T_invariant(loop)
    assert not report.passed
    assert not report.entry("fixed by the twist").passed


def test_twist_numeric_unitary_part_of_even_build():
    fac = unitarize(assemble_loop(even_spec()), z=complex(0.4, 0.3))
    report = check_T_invariant(fac.unitary_part, tol=1e-8)
    assert report.passed


def test_even_height_two_is_lambda_free():
    spec = even_spec()
    assert all(k[0] == 0 for k in spec.c_slots)
    assert check_superhorizontal(spec).passed
