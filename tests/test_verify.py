"""Checker behavior on passing builds and on shipped negative controls."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    canonical_reduce,
    exponents_from_marks,
    fd_residual_reference,
    non_harmonic_control,
    seeded_free_poly,
    two_projector_frame,
)
from unitons import exactmat
from unitons.errors import ExactKindUnsupported, NotS1Invariant, PoleAtZ, StepBelowResolution
from unitons.factorization import bruhat_cell, flow_limit, unitarize
from unitons.loops import LoopMat
from unitons.roots import build_root_system, height_of
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.verify import (
    _stencil,
    check_extended,
    check_superhorizontal,
    check_T_invariant,
    harmonicity_residual,
    map_sampler,
    uniton_number_report,
)
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    _assemble_with_inverse,
    assemble_loop,
    build_from_free_functions,
    even_grassmannian_build,
    exp_nilpotent,
    graded_positions,
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


def test_uniton_number_bounds_are_the_a_series_closed_forms():
    # the group bound is n - 1 and the canonical bound the count of nonzero
    # marks; both against heights over the root system of A_(n-1), and 0 at
    # n = 1, where there are no roots
    rng = random.Random(5)
    for n in range(1, 10):
        rs = build_root_system("A", n - 1) if n >= 2 else None
        for _ in range(4):
            marks = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(n - 1))
            rep = uniton_number_report(ExtendedSolutionSpec(n, exponents_from_marks(marks), {}))
            if rs is None:
                assert (rep.group_bound, rep.canonical_bound) == (0, 0)
                continue
            assert rep.group_bound == height_of(rs, (1,) * (n - 1)), n
            assert rep.canonical_bound == height_of(rs, canonical_reduce(rs, marks)), marks


def test_uniton_numbers_constant():
    spec = ExtendedSolutionSpec(n=3, exponents=(0, 0, 0), c_slots={})
    rep = uniton_number_report(spec)
    assert rep.ad_width == 0 and rep.height == 0


@pytest.mark.parametrize("func", [uniton_number_report, map_sampler, bruhat_cell])
def test_spec_or_loop_entry_points_reject_other_objects(func):
    with pytest.raises(TypeError, match="expected a LoopMat or an ExtendedSolutionSpec"):
        func(np.eye(2))


def test_uniton_numbers_su2_example():
    # the central scalar factor inflates the width past the group bound;
    # only the conjugation-minimal count (here 1) respects it
    rep = uniton_number_report(su2_example_loop())
    assert rep.ad_width == 2
    assert rep.group_bound == 1
    assert rep.height is None
    assert not rep.within_group_bound


# the specs the suite builds: Veronese 2-6, the U_3, U_4 and large CLI
# builds, the even builds and their flow limits, and U_1; and one off-grade
# spec, C = lambda^3 z E_21 under exponents (1, 0), whose width 7 is set by
# the top powers, hi(Phi) + hi(Phi^-1) = 4 + 3, and not by its height
_LARGE = RatFun.const(GaussianRational.from_string("123456789/987654321+5/7i"))
_EVEN_BUILDS = {
    "even-3210": lambda: even_grassmannian_build(4, (3, 2, 1, 0), [Z, poly(0, 0, 1), poly(2), Z]),
    "even-110": lambda: even_grassmannian_build(3, (1, 1, 0), [Z, ONE]),
    "even-2110": lambda: even_spec(),
}
_BUILT_SPECS = {
    **{f"veronese{n}": (lambda n=n: veronese_solution(n)) for n in range(2, 7)},
    "u3": lambda: build_from_free_functions(3, (2, 1, 0), [Z, poly(1, 1), Z]),
    "u4": u4_spec,
    "large": lambda: build_from_free_functions(
        3, (2, 1, 0), [_LARGE * Z, poly(Fraction(3, 1000003), 1), Z]
    ),
    **_EVEN_BUILDS,
    **{f"{name}-limit": (lambda b=b: flow_limit(b())) for name, b in _EVEN_BUILDS.items()},
    "u1": lambda: build_from_free_functions(1, (0,), []),
    "offgrade": lambda: ExtendedSolutionSpec(2, (1, 0), {(3, 1): [[ZERO, ZERO], [Z, ZERO]]}),
}


@pytest.mark.parametrize("name", _BUILT_SPECS)
def test_spec_width_matches_bare_loop_width(name):
    # exp(-C) on the spec against the two cell reductions on the assembled loop
    spec = _BUILT_SPECS[name]()
    width = uniton_number_report(spec).ad_width
    assert width == uniton_number_report(assemble_loop(spec)).ad_width
    assert width == (7 if name == "offgrade" else spec.height)
    c = spec.c_lambda()
    assert exp_nilpotent(c) @ exp_nilpotent(c.scale(-1)) == LoopMat.identity(spec.n)
    # the report's pair, from one series of powers of C
    psi, inverse = _assemble_with_inverse(spec)
    assert (psi, inverse) == (assemble_loop(spec), exp_nilpotent(c.scale(-1)))
    assert psi.exponents == spec.exponents


def test_uniton_numbers_veronese14_is_quick():
    # exp(-C) needs no determinant, so n = 14 takes milliseconds
    assert uniton_number_report(veronese_solution(14)).ad_width == 13


# -- harmonicity by finite differences ----------------------------------------

def test_harmonicity_constant_map():
    def sampler(zs):
        return np.broadcast_to(np.eye(2), (len(zs), 2, 2))

    res = harmonicity_residual(sampler, [0.0, 0.5 + 0.5j], h=1e-3)
    assert res <= 1e-12


def test_harmonicity_nan_node_is_not_a_pass():
    def sampler(zs):
        out = np.broadcast_to(np.eye(2), (len(zs), 2, 2)).copy()
        out[np.real(zs) > 0.25] = np.nan
        return out

    assert np.isnan(harmonicity_residual(sampler, [0.0, 0.5], h=1e-3))


def grid5():
    pts = np.linspace(-1.0, 1.0, 5)
    return [complex(x, y) for x in pts for y in pts]


def test_harmonicity_nan_node_reaches_the_sampler():
    # stencil values are matched to points by position, so a NaN node is
    # sampled like any other: its values carry the NaN into the residual,
    # or the sampler's own guard names it
    assert np.isnan(harmonicity_residual(non_harmonic_control(), [complex("nan")], h=1e-3))
    with pytest.raises(PoleAtZ, match="nan"):
        harmonicity_residual(map_sampler(veronese_solution(2)), [complex("nan")], h=1e-3)


def test_harmonicity_veronese2_grid():
    res = harmonicity_residual(map_sampler(veronese_solution(2)), grid5(), h=1e-3)
    assert res <= 1e-5


def test_harmonicity_flags_control_map():
    res = harmonicity_residual(non_harmonic_control(), grid5(), h=1e-3)
    assert res > 1e-2


def _phase_sampler(eps):
    """diag(e^{i eps |z|^2}, 1): its harmonicity residual is exactly 2 eps."""
    def sample(zs):
        out = np.zeros((len(zs), 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(1j * eps * np.abs(zs) ** 2)
        out[:, 1, 1] = 1.0
        return out

    return sample


def test_harmonicity_detects_a_small_defect():
    res = harmonicity_residual(_phase_sampler(1e-4), [0.3 + 0.2j, -0.4 + 0.5j], h=1e-3)
    assert abs(res - 2e-4) <= 1e-11
    assert res > 1e-5  # flagged at the verify tolerance


def test_control_sampler_takes_an_array():
    zs = np.array([0.0, 0.5 + 0.5j, -1.0])
    got = non_harmonic_control()(zs)
    assert np.array_equal(got, _phase_sampler(1.0)(zs))
    res = harmonicity_residual(non_harmonic_control(), [0.3 + 0.2j])
    assert res == pytest.approx(2.0, rel=1e-9)


def test_step_below_float_resolution_raises():
    # at h = 1e-17 the stencil points round onto 0.3+0.2j, and the residual
    # read 0.0 for this map, which is not harmonic
    for h in (1e-17, 1e-300):
        with pytest.raises(StepBelowResolution, match=rf"grid node \(0\.3\+0\.2j\) \(h = {h!r}\)"):
            harmonicity_residual(non_harmonic_control(), [0.3 + 0.2j], h)
    assert harmonicity_residual(non_harmonic_control(), [0.3 + 0.2j], 1e-8) > 1.0


def test_harmonicity_rejects_a_scalar_sampler():
    with pytest.raises(ValueError, match="expected a \\(Z, n, n\\) stack"):
        harmonicity_residual(lambda z: np.eye(2), [0.0], h=1e-3)


def test_harmonicity_residual_repeats_bit_for_bit():
    sampler = map_sampler(build_from_free_functions(3, (2, 1, 0), [Z, ONE + Z, Z]))
    first = repr(harmonicity_residual(sampler, [0.3 + 0.2j, -0.4 + 0.5j]))
    for size in (1, 1000, 100_000):
        clutter = [np.ones(size, dtype=complex) for _ in range(20)]
        assert repr(harmonicity_residual(sampler, [0.3 + 0.2j, -0.4 + 0.5j])) == first
        del clutter


def test_u3_build_is_harmonic_at_the_verify_defaults():
    spec = build_from_free_functions(3, (2, 1, 0), [Z, ONE + Z, Z])
    grid = [0.3 + 0.2j, -0.4 + 0.5j, 0.1 - 0.6j, -0.2 - 0.3j]
    assert harmonicity_residual(map_sampler(spec), grid, h=1e-3) <= 1e-8


@pytest.mark.parametrize("seed", [1, 2, 3, 31, 9001])
def test_lambda_dependent_builds_pass_at_the_verify_tolerance(seed):
    # the h^2 step error of plain central differences read up to 2.9e-2 on
    # such builds; the extrapolated residual stays below the tolerance
    rng = random.Random(seed)
    for n, exps, count in ((4, (3, 2, 1, 0), 6), (3, (2, 1, 0), 3)):
        spec = build_from_free_functions(
            n, exps, [seeded_free_poly(rng, 1 + k % 3) for k in range(count)])
        nodes = [complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7)) for _ in range(3)]
        assert harmonicity_residual(map_sampler(spec), nodes, h=1e-3) <= 1e-5, (n, nodes)


def test_one_fd_pass_is_the_two_step_formula():
    # R(h) and R(h/2) from one pass over both stencils equal two one-step
    # calls bit for bit, on the specs of the harmonic-grid benchmark
    rng = random.Random(31)
    specs = [veronese_solution(n) for n in range(2, 6)]
    for n, exps, count in ((4, (3, 2, 1, 0), 6), (3, (2, 1, 0), 3)):
        specs.append(build_from_free_functions(
            n, exps, [seeded_free_poly(rng, 1 + k % 3) for k in range(count)]))
    specs.append(build_from_free_functions(3, (2, 1, 0), [Z, ONE + Z, Z]))
    nodes = [0.3 + 0.2j, -0.45 + 0.6j, 0.7 - 0.1j, 0j]
    for spec in specs:
        sampler, seen = map_sampler(spec), {}

        def recording(zs):
            values = sampler(zs)
            seen.update(zip(zs.tolist(), values))
            return values

        for z0 in nodes:
            for h in (1e-3, 4e-2):
                got = harmonicity_residual(recording, [z0], h)
                coarse, fine = (
                    fd_residual_reference(np.array([seen[w] for w in _stencil(z0, s)]), s)
                    for s in (h, h / 2)
                )
                assert got == float(np.linalg.norm((4 * fine - coarse) / 3)), (spec.exponents, z0, h)


def test_harmonicity_working_set_does_not_grow_with_the_grid():
    sampler = map_sampler(veronese_solution(5))
    grid = [complex(x, y) for x in np.linspace(-0.7, 0.7, 5) for y in np.linspace(-0.7, 0.7, 5)]
    for nodes in (grid[:1], grid):
        tracemalloc.start()
        try:
            harmonicity_residual(sampler, nodes, h=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000, (len(nodes), peak)


def test_harmonicity_order_of_accuracy():
    # fourth order above the rounding floor (about 1e-9 at h = 1e-3): each
    # halving of h divides the extrapolated residual by about 16
    sampler = map_sampler(veronese_solution(3))
    pts = [0.4 + 0.2j, -0.3 + 0.6j]
    res = [harmonicity_residual(sampler, pts, h=h) for h in (4e-2, 2e-2, 1e-2)]
    assert res[1] <= res[0] / 12.0
    assert res[2] <= res[1] / 12.0


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


@pytest.mark.parametrize(
    "make",
    [
        # I -+ lambda diag(1, 0), singular at lambda = -+1
        lambda: LoopMat.numeric([np.eye(2), np.diag([1, 0])]),
        lambda: LoopMat.numeric([np.eye(2), np.diag([-1, 0])]),
        lambda: unitarize(assemble_loop(even_spec()), z=complex(0.4, 0.3)).unitary_part,
    ],
    ids=["singular-at-minus-one", "singular-at-one", "unitary-part-of-even-build"],
)
def test_twist_refuses_numeric_loops(make):
    # the twist is an exact statement about exp(C) gamma: the numeric lane has none
    loop = make()
    for call in (loop.twist_T, loop.based, lambda: check_T_invariant(loop)):
        with pytest.raises(ExactKindUnsupported, match=r"^[^\n]+ needs an exact loop$"):
            call()


def test_even_height_two_is_lambda_free():
    spec = even_spec()
    assert all(k[0] == 0 for k in spec.c_slots)
    assert check_superhorizontal(spec).passed
