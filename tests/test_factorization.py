"""Unitarization, cell recovery, flow, uniton splitting, normalized form."""

import contextlib
import dataclasses
import inspect
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import ad_width_by_conjugation, cstar_flow_reference, flag_unitarize
from unitons import cli, exactmat, factorization, jsonio
from unitons.errors import (
    ExactKindUnsupported,
    NoConvergence,
    NonMonomialDeterminant,
    NotCanonical,
    NotInBigCellForm,
    NotInvertibleLoop,
    PoleAtZ,
    SingularOnCircle,
    UnitonsError,
)
from unitons.factorization import (
    SINGULAR_TOL,
    _power_and_height,
    _wandering_blocks,
    big_cell_check,
    bruhat_cell,
    cstar_flow,
    energy,
    flow_limit,
    harmonic_map_at,
    unitarize,
    uniton_factorize,
)
from unitons.loops import CompiledLoop, LoopMat, trim_blocks, values_at
from unitons.roots import exponents_from_marks, marks_from_exponents
from unitons.scalars import GaussianRational, Poly, RatFun, differentiate
from unitons.verify import harmonicity_residual, map_sampler, uniton_number_report
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    assemble_numeric,
    build_from_free_functions,
    even_grassmannian_build,
    exp_nilpotent,
    two_projector_frame,
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
    with pytest.raises(SingularOnCircle, match=r"on \|lambda\| = 1 \(sigma_min = "):
        unitarize(bad)


def _u3_build():
    return build_from_free_functions(3, (2, 1, 0), [Z, ONE + Z, Z])


def test_unitarize_keeps_powers_above_the_loop():
    # W = I - c lambda E_31 has det 1, so it lies in Lambda+ and leaves the
    # based unitary part alone, but Psi W has top power 1 below deg Phi = 2
    z = complex(0.3, 0.1)
    psi = assemble_loop(_u3_build()).to_numeric(z)
    w = np.zeros((3, 3), dtype=complex)
    w[2, 0] = -1 / psi.coeff(1)[0, 2]
    dressed = psi @ LoopMat.numeric([np.eye(3), w])
    assert dressed.hi == 1
    fac = unitarize(dressed)
    assert fac.residual_unitarity <= 1e-12 and fac.residual_split <= 1e-12
    assert fac.unitary_part.hi == 2
    assert loops_close(fac.unitary_part, unitarize(psi).unitary_part, 1e-12)


def test_split_residual_past_the_bound_raises_no_convergence():
    # the column rebalancing cannot follow the U_3 build to t = -20: the
    # split's unitarity residual reads 6e-8 there
    z = complex(0.3, 0.1)
    with pytest.raises(NoConvergence) as info:
        cstar_flow(_u3_build(), -20.0, z)
    message = str(info.value)
    assert f"z = {z}" in message
    assert "unitarity " in message and "split " in message and "bound" in message


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


# -- the split's height; the Toeplitz reference factor ----------------------

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


def _partial_loops(spec):
    """The partial loops exp(C) gamma_J that `uniton_factorize` unitarizes,
    as exact loops: J takes the marks of the spec one at a time, the last
    mark first."""
    marks = marks_from_exponents(spec.exponents)
    exp_c = exp_nilpotent(spec.c_lambda())
    for count in range(1, sum(marks) + 1):
        kept = [i for i, m in enumerate(marks) if m][-count:]
        exponents = exponents_from_marks([int(i in kept) for i in range(len(marks))])
        yield exp_c.times_diag_powers(exponents), exponents


def test_height_rule_is_the_exponent_span():
    # R = m - sum o_j + max o_j is k_1 - k_n on every built spec and on every
    # partial loop of its uniton factorization
    zs = [complex(0.3, -0.2), 0.0, complex(-0.45, 0.6)]
    for spec in _harmonic_specs():
        loops = [(assemble_loop(spec), spec.exponents), *_partial_loops(spec)]
        for loop, exponents in loops:
            blocks = trim_blocks(CompiledLoop(loop).values(zs))
            m, height = _power_and_height(blocks, loop.lo, zs, None)
            assert list(m) == [sum(exponents) - loop.n * loop.lo] * len(zs)
            assert height == max(exponents) - min(exponents)


def test_splitting_above_the_height_gives_the_same_values():
    # lambda^R H+ inside W holds for every R past the rule's, and the
    # wandering subspace W - lambda W does not depend on it: R is exact (to
    # 1e-13 on the built specs, 1e-12 on the rougher random loops)
    zs = [complex(0.3, 0.2), complex(-0.45, 0.6), complex(0.7, -0.1)]
    rng = random.Random(7)
    cases = [(assemble_loop(spec), zs, 1e-13) for spec in _harmonic_specs()]
    cases += [(_random_exact_loop(rng, 2 + trial % 2), [0.0], 1e-12) for trial in range(8)]
    for loop, points, tol in cases:
        blocks = trim_blocks(CompiledLoop(loop).values(points))
        m, height = _power_and_height(blocks, loop.lo, points, None)
        ends = [
            values_at(_wandering_blocks(blocks, m, r, points), loop.lo, [-1, 1])
            for r in (height, height + 3)
        ]
        values = [e[:, 0] @ np.linalg.inv(e[:, 1]) for e in ends]
        assert np.abs(values[0] - values[1]).max() <= tol
        assert np.abs(values[0] - harmonic_map_at(loop, np.array(points))).max() <= tol


def test_non_algebraic_numeric_loop_raises_no_convergence():
    # det = 2 - lambda: regular on the circle, but not a lambda monomial
    loop = LoopMat.numeric([np.diag([2.0, 1.0]), np.diag([-1.0, 0.0])])
    with pytest.raises(NoConvergence, match=r"det Psi has lambda powers \[0, 1\]"):
        unitarize(loop)


def _column_loops(rng, mats):
    """(Z, 3, n, n) stack of the loops M diag(lambda^k_j), each column of M
    at a random power k_j in 0..2: on |lambda| = 1 their singular values are
    those of M."""
    n = mats[0].shape[-1]
    blocks = np.zeros((len(mats), 3, n, n), dtype=complex)
    for loop, m in zip(blocks, mats):
        powers = rng.integers(0, 3, n)
        for k in range(3):
            loop[k] = m * (powers == k)
    return blocks


def _with_singular_values(rng, s):
    """U diag(s) V with U and V random unitary matrices."""
    u, v = (np.linalg.qr(rng.normal(size=(len(s), len(s), 2)) @ [1, 1j])[0] for _ in range(2))
    return u @ np.diag(s) @ v


def _svd_sigmas(blocks):
    """Smallest and largest singular value over the 64 samples of |lambda| = 1
    of each loop of the (Z, K, n, n) stack, one SVD per sample."""
    vals = values_at(blocks, 0, np.exp(2j * np.pi * np.arange(64) / 64))
    sing = np.array([[np.linalg.svd(v, compute_uv=False) for v in loop] for loop in vals])
    return sing[..., -1].min(axis=1), sing[..., 0].max(axis=1)


def _svd_verdict(blocks, zs):
    """The first z the per-sample SVD fails and its sigma_min, or None."""
    smin, smax = _svd_sigmas(blocks)
    bad = np.flatnonzero(~(smin > SINGULAR_TOL * np.maximum(1.0, smax)))
    return (zs[bad[0]], smin[bad[0]]) if bad.size else None


def _assert_same_verdict(blocks, zs):
    verdict = _svd_verdict(blocks, zs)
    if verdict is None:
        # past the SVD, the det of a loop near the bound may read several powers
        with contextlib.suppress(NoConvergence):
            _power_and_height(blocks, 0, zs, None)
        return
    with pytest.raises(SingularOnCircle) as info:
        _power_and_height(blocks, 0, zs, None)
    z, smin = verdict
    assert f"at z = {z} (sigma_min = {smin:.3e})" in str(info.value)


def test_circle_min_singular_matches_per_sample_svd():
    # diag(3 + 2 lambda, eps (2 + lambda)): over the circle sigma_max runs
    # from 1 to 5 and sigma_min from eps to 3 eps, so the verdict needs the
    # smallest sigma_min against the largest sigma_max
    for eps in (3e-10, 7e-10):
        varying = np.array([[np.diag([3.0, 2 * eps]), np.diag([2.0, eps])]], dtype=complex)
        _assert_same_verdict(varying, [0])
    # a regular frame loop
    _assert_same_verdict(frame_loop().to_numeric(complex(0.4, -0.8)).coeffs[None], [None])


def test_circle_certificate_never_passes_what_the_svd_fails():
    # the one circle verdict against a per-sample SVD near the bound:
    # sigma_min within [0.3, 3] times SINGULAR_TOL * max(1, sigma_max), the
    # other singular values equal up to 25 % around a scale between 0.1 and
    # 100, so each n meets both verdicts
    rng = np.random.default_rng(15)
    seen = set()
    for n in range(1, 7):
        for _ in range(60):
            mats = []
            for _ in range(4):
                s = 10 ** rng.uniform(-1, 2) * 10 ** rng.uniform(-0.1, 0.1, n)
                s[-1] = rng.uniform(0.3, 3) * SINGULAR_TOL * max(1.0, s[:-1].max(initial=0.0))
                mats.append(_with_singular_values(rng, s))
            blocks = _column_loops(rng, mats)
            smin, smax = _svd_sigmas(blocks)
            seen.update((n, bool(r)) for r in smin > SINGULAR_TOL * np.maximum(1.0, smax))
            _assert_same_verdict(blocks, [0.5 * i for i in range(4)])
    assert seen == {(n, r) for n in range(1, 7) for r in (False, True)}
    # the singular loops of the tests below: det = lambda - 1, and det = z - 1
    # at z = 1 inside a stack of regular points
    bad = np.array([[np.diag([-1.0, 1.0]), np.diag([1.0, 0.0])]], dtype=complex)
    _assert_same_verdict(bad, [0])
    loop = LoopMat.exact([[[Z - ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ZERO, ZERO]]])
    zs = [0.25, 1.0, 0.5]
    _assert_same_verdict(np.array([loop.to_numeric(z).coeffs for z in zs]), zs)


def test_overflowing_det_is_refused_after_the_svd_without_warnings():
    # n = 6 with entries near 1e100: the SVD names z = 1 singular, and the
    # regular point z = 0 alone is refused for its det, which overflows
    rng = np.random.default_rng(6)
    s = rng.uniform(1.0, 2.0, 6)
    regular = _with_singular_values(rng, 1e100 * s)
    singular = _with_singular_values(rng, 1e100 * np.append(s[:5], 1e-12))
    blocks = _column_loops(rng, [regular, singular])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_verdict(blocks, [0, 1])
        assert _svd_verdict(blocks, [0, 1])[0] == 1
        with pytest.raises(PoleAtZ, match=r"det Psi on \|lambda\| = 1 is not finite at z = 0$"):
            _power_and_height(blocks[:1], 0, [0], None)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "top, match",
    [
        (np.array([[np.nan, 0.0], [0.0, 0.0]]), "values"),  # NaN on the circle
        (np.array([[0.0, 1e200], [0.0, 0.0]]), "det"),  # det Psi overflows
    ],
)
def test_nonfinite_loop_is_typed_error(top, match):
    bad = LoopMat.numeric([np.eye(2) * max(1.0, np.nanmax(top)), top])
    with pytest.raises(PoleAtZ, match=match):
        unitarize(bad)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_spec_loop_is_typed_error():
    # a loop built from a spec skips the circle samples, not their finiteness
    spec = veronese_solution(3)
    message = r"loop values on \|lambda\| = 1 are not finite at z = 0\.1$"
    for t in (float("nan"), float("-inf")):
        with pytest.raises(PoleAtZ, match=message):
            cstar_flow(spec, t, 0.1)
    exp_c = CompiledLoop(exp_nilpotent(spec.c_lambda())).values([0.1])[0]
    exp_c[0, 1, 0] = np.nan
    with pytest.raises(PoleAtZ, match=message):
        unitarize(assemble_numeric(exp_c, spec.exponents), 0.1)


@pytest.mark.parametrize(
    "func",
    [unitarize, harmonic_map_at, cstar_flow, uniton_factorize, map_sampler],
)
def test_no_truncation_order_argument(func):
    # the split's height R comes from the loop itself, never from a caller
    params = {
        "unitarize": ["psi", "z"],
        "harmonic_map_at": ["obj", "z"],
        "cstar_flow": ["obj", "t", "z"],
        "uniton_factorize": ["spec", "z"],
        "map_sampler": ["spec_or_loop"],
    }
    assert list(inspect.signature(func).parameters) == params[func.__name__]


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


def _flowed_u3_family():
    """The U_3 loop at z0 = 3/10 + i/10 with lambda -> z lambda and its
    columns divided by z^2, z and z: the flow to t = -log z, each column
    rebalanced by its top power where `cstar_flow` uses its norm."""
    psi = assemble_loop(_u3_build()).at_z(gr(Fraction(3, 10), Fraction(1, 10)))
    scale = [ONE / (Z * Z), ONE / Z, ONE / Z]
    coeffs, z_power = [], ONE
    for mat in psi.coeffs:
        coeffs.append([[e * z_power * s for e, s in zip(row, scale)] for row in mat])
        z_power = z_power * Z
    return LoopMat.exact(coeffs, psi.lo)


def test_harmonic_map_far_from_unitary_is_refused():
    # Veronese 5 is unitary to rounding at z = 0.3 and to 6.5e-11 at z = 30;
    # the U_3 loop flowed to t = -log 1e9 is 1e-7 from unitary, and to
    # t = -log 1e3 within 1e-11
    spec = veronese_solution(5)
    phi = harmonic_map_at(spec, 0.3)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(5)) <= 1e-14
    phi = harmonic_map_at(spec, 30)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(5)) <= 1e-9
    family = _flowed_u3_family()
    phi = harmonic_map_at(family, 1e3)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(3)) <= 1e-11
    message = r"map value is \S+e-0[78] from unitary \(bound 1e-09\) at z = 1000000000\.0;"
    with pytest.raises(NoConvergence, match=message):
        harmonic_map_at(family, 1e9)
    with pytest.raises(NoConvergence, match=r"at z = 1000000000\.0; "):
        harmonic_map_at(family, np.array([1e3, 1e9, 1.0]))


def test_spec_values_far_out_match_the_flag_oracle():
    # the points where the SVD split refused: its gap test at Veronese 6
    # z = 25 and Veronese 8 z = 15, the circle pass at Veronese 5 z = 45 and
    # 100.  At z = 100 the columns of exp C are nearly parallel and the value
    # reads 2.7e-10 from the oracle: within the 1e-9 value bound, not 1e-10
    for n, z, tol in [(5, 45, 1e-10), (6, 25, 1e-10), (8, 15, 1e-10), (5, 100, 1e-9)]:
        spec = veronese_solution(n)
        u_ref, _ = flag_unitarize(assemble_loop(spec).at_z(gr(z)))
        value = harmonic_map_at(spec, z)
        assert np.abs(value - u_ref.to_numeric().evaluate(-1.0)).max() <= tol, (n, z)


def test_veronese10_values_near_z_10_are_unitary():
    # the SVD split's gap test flickered here (z = 9 and 10 were refused);
    # the QR split needs no gap, and the value bound holds
    spec = veronese_solution(10)
    for z in (9, 9.5, 10):
        phi = harmonic_map_at(spec, z)
        assert np.linalg.norm(phi @ phi.conj().T - np.eye(10)) <= 1e-9


def test_bare_loops_keep_the_circle_guards():
    # only a loop built from a spec carries exponents; a bare loop still takes
    # the circle pass, and its guards still refuse
    singular = LoopMat.exact([[[-ONE, ZERO], [ZERO, ONE]], [[ONE, ZERO], [ZERO, ZERO]]])
    non_monomial = LoopMat.exact([[[ONE + ONE, ZERO], [ZERO, ONE]], [[-ONE, ZERO], [ZERO, ZERO]]])
    assert singular.exponents is None and non_monomial.exponents is None
    with pytest.raises(SingularOnCircle, match=r"at z = 0\.5 \(sigma_min = "):
        harmonic_map_at(singular, 0.5)
    with pytest.raises(SingularOnCircle):
        unitarize(singular)
    message = r"det Psi has lambda powers \[0, 1\]"
    with pytest.raises(NoConvergence, match=message):
        harmonic_map_at(non_monomial, 0.5)
    with pytest.raises(NoConvergence, match=message):
        map_sampler(non_monomial)(np.array([0.5, 0.25]))
    with pytest.raises(NoConvergence, match=message):
        cstar_flow(non_monomial, 1.0)


# -- batched harmonic-map values ------------------------------------------------

def _harmonic_specs():
    specs = [veronese_solution(n) for n in range(2, 6)]
    specs.append(build_from_free_functions(3, (2, 1, 0), [Z, ONE + Z, Z]))
    specs.append(build_from_free_functions(
        4, (3, 2, 1, 0), [Z, Z * Z, ONE + Z, 2 * Z, 3 * Z * Z, RatFun.const(gr(5))]))
    specs.append(build_from_free_functions(3, (2, 1, 0), [Z, ONE / ((ONE + Z) * (ONE + Z)), Z]))
    return specs


def _per_point_reference(loop, z):
    """Phi(-1) Phi(1)^-1 with Phi = Psi G^-1, G from `_reference_factor`."""
    psi = loop.to_numeric(z)
    g = LoopMat.numeric(_reference_factor(psi, psi.n * (psi.hi - psi.lo) + 1), 0)
    pm = psi.evaluate(-1.0) @ np.linalg.inv(g.evaluate(-1.0))
    pp = psi.evaluate(1.0) @ np.linalg.inv(g.evaluate(1.0))
    return pm @ np.linalg.inv(pp)


def test_batched_values_match_per_point_values():
    # a cluster like one stencil plus distant points; the first is the float
    # of 3/10 + i/5, where the flag oracle works exactly
    zs = np.array([0.3 + 0.2j, 0.3005 + 0.2j, 0.3 + 0.1995j, -0.45 + 0.6j, 0.7 - 0.1j, 1.5j])
    for spec in _harmonic_specs():
        loop = assemble_loop(spec)
        batch = harmonic_map_at(spec, zs)
        assert batch.shape == (len(zs), spec.n, spec.n)
        for z, value in zip(zs, batch):
            assert np.array_equal(value, harmonic_map_at(loop, z))
            assert np.abs(value - _per_point_reference(loop, z)).max() <= 1e-12
        u_ref, _ = flag_unitarize(loop.at_z(gr(Fraction(3, 10), Fraction(1, 5))))
        assert np.abs(batch[0] - u_ref.to_numeric().evaluate(-1.0)).max() <= 1e-12


def test_mixed_degree_stack_matches_one_point_values():
    # at z = 0 Psi is gamma, one lambda power per column, and elsewhere its
    # columns mix powers; the stack splits every point at one height
    spec = veronese_solution(3)
    zs = np.array([0, 0.3 + 0.1j, -0.2j])
    batch = harmonic_map_at(spec, zs)
    for z, value in zip(zs, batch):
        assert np.abs(value - harmonic_map_at(spec, z)).max() <= 1e-13
    assert np.array_equal(batch[0], np.diag([1.0, -1.0, 1.0]))


def test_batched_values_name_the_pole():
    spec = build_from_free_functions(3, (2, 1, 0), [Z, ONE / ((ONE + Z) * (ONE + Z)), Z])
    with pytest.raises(PoleAtZ, match=r"pole at z = \(-1\+0j\)"):
        harmonic_map_at(spec, np.array([-0.5, -1.0 + 0.001j, -1.0, -1.5]))
    # the same point inside a harmonicity stencil: node -1 + 0.5i, step 0.5
    with pytest.raises(PoleAtZ, match=r"pole at z = \(-1\+0j\)"):
        harmonicity_residual(map_sampler(spec), [-1.0 + 0.5j], h=0.5)


def test_batched_values_name_the_singular_point():
    # det = z - 1: algebraic for z != 1, singular everywhere on the circle at z = 1
    loop = LoopMat.exact([[[Z - ONE, ZERO], [ZERO, ONE]], [[ZERO, ONE], [ZERO, ZERO]]])
    assert np.isfinite(harmonic_map_at(loop, np.array([0.25, 0.5]))).all()
    with pytest.raises(SingularOnCircle, match=r"at z = 1\.0 \(sigma_min = "):
        harmonic_map_at(loop, np.array([0.25, 1.0, 0.5]))


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


def _elementary(n, a, b, k, c):
    """The loop I + c lambda^k E_ab."""
    blocks = [exactmat.zeros(n) for _ in range(k + 1)]
    for i in range(n):
        blocks[0][i][i] = ONE
    blocks[k][a][b] = blocks[k][a][b] + c
    return LoopMat.exact(blocks)


def _random_unimodular_pair(rng, n):
    """A product of elementary loops I + c lambda^k E_ab, a != b, and its
    inverse: the factors I - c lambda^k E_ab in reverse order."""
    loop = inverse = LoopMat.identity(n)
    for _ in range(rng.randint(1, 4)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        k = rng.randint(0, 2)
        c = RatFun.const(gr(rng.randint(-2, 2), rng.randint(-1, 1)))
        loop = loop @ _elementary(n, a, b, k, c)
        inverse = _elementary(n, a, b, k, -c) @ inverse
    return loop, inverse


def _random_unimodular(rng, n):
    return _random_unimodular_pair(rng, n)[0]


def test_cell_invariant_under_unimodular_multiplication():
    rng = random.Random(11)
    base = LoopMat.diag_powers((2, 1, 0))
    for _ in range(10):
        left = _random_unimodular(rng, 3)
        right = _random_unimodular(rng, 3)
        assert bruhat_cell(left @ base @ right).exponents == (2, 1, 0)


def test_cell_singular_loop_is_not_invertible():
    loop = LoopMat.exact([[[ONE, ONE], [ONE, ONE]], [[Z, ZERO], [Z, ZERO]]])
    with pytest.raises(NotInvertibleLoop, match="loop determinant is identically zero"):
        bruhat_cell(loop)


def test_cell_dressed_nonmonomial_determinant_names_its_powers():
    rng = random.Random(7)
    diag = LoopMat.exact([[[ONE, ZERO], [ZERO, ONE]], [[-ONE, ZERO], [ZERO, ONE]]])
    dressed = _random_unimodular(rng, 2) @ diag @ _random_unimodular(rng, 2)
    with pytest.raises(NonMonomialDeterminant, match=r"lambda powers \[0, 2\];"):
        bruhat_cell(dressed)


def test_cell_nonmonomial_determinant_names_true_powers_below_zero():
    # lambda^-1 diag(1 + lambda, 1): det = lambda^-2 + lambda^-1
    loop = LoopMat.exact([[[ONE, ZERO], [ZERO, ONE]], [[ONE, ZERO], [ZERO, ZERO]]], lo=-1)
    with pytest.raises(NonMonomialDeterminant, match=r"lambda powers \[-2, -1\];"):
        bruhat_cell(loop)


def _reversed(loop):
    """The loop lambda -> L(1/lambda)."""
    return LoopMat("exact", loop.n, -loop.hi, loop.coeffs[::-1])


def test_ad_width_matches_conjugation_oracle():
    # each loop comes with an inverse built from its factors
    rng = random.Random(19)
    cases = []
    for ks in ((2, 1, 0), (3, 1, 0), (1, 1, 0), (2, 0, 0), (1, -1, 0), (0, -2, -1)):
        left, left_inv = _random_unimodular_pair(rng, 3)
        right, right_inv = _random_unimodular_pair(rng, 3)
        gamma_inv = LoopMat.diag_powers([-k for k in ks])
        cases.append((left @ LoopMat.diag_powers(ks) @ right, right_inv @ gamma_inv @ left_inv))
    # lambda -> 1/lambda turns a width set by the top powers into one set by the bottom
    cases += [(_reversed(loop), _reversed(inv)) for loop, inv in cases[:2]]
    # Psi = exp(C) gamma has Psi^-1 = gamma^-1 exp(-C); the spec path is checked too
    for n in range(2, 6):
        spec = veronese_solution(n)
        loop = assemble_loop(spec)
        gamma_inv = LoopMat.diag_powers([-k for k in spec.exponents])
        inverse = gamma_inv @ exp_nilpotent(spec.c_lambda().scale(-1))
        assert uniton_number_report(spec).ad_width == ad_width_by_conjugation(loop, inverse), n
        cases.append((loop, inverse))
    # (p + lambda^-1 p_perp)(pi + lambda pi_perp) has inverse
    # (pi + lambda^-1 pi_perp)(p + lambda p_perp)
    gram = ONE + Z * Z
    p = exactmat.projector_const([[ONE, ZERO]])
    pi = [[ONE / gram, Z / gram], [Z / gram, Z * Z / gram]]
    p_perp, pi_perp = (exactmat.mat_sub(exactmat.eye(2), m) for m in (p, pi))
    frame_inv = LoopMat("exact", 2, -1, [pi_perp, pi]) @ LoopMat("exact", 2, 0, [p, p_perp])
    cases.append((two_projector_frame(), frame_inv))
    shifted = LoopMat.diag_powers((2, 1, 0)).shift(-3)
    cases.append((shifted, LoopMat.diag_powers((-2, -1, 0)).shift(3)))
    for loop, inverse in cases:
        assert uniton_number_report(loop).ad_width == ad_width_by_conjugation(loop, inverse), loop


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


def _flow_or_error(flow, psi, t, z):
    try:
        loop = flow(psi, t, z)
    except UnitonsError as exc:
        return repr(exc)
    return loop.lo, loop.coeffs


def test_flow_scaling_rounds_as_the_blockwise_reference():
    # `cstar_flow` scales the whole stack at once; its unitary part must equal
    # the block-by-block scaling's bit for bit (a norm along an axis of the
    # stack, or an entrywise product with the scale, moves printed digits)
    specs = [
        _u3_build(),
        build_from_free_functions(
            4, (3, 2, 1, 0), [Z, Z * Z, ONE + Z, 2 * Z, 3 * Z * Z, RatFun.const(gr(5))]),
        even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]),
    ] + [veronese_solution(n) for n in range(2, 9)]
    split = 0
    for spec in specs:
        loop = assemble_loop(spec)
        for z in (complex(0.3, 0.1), complex(-0.45, 0.6), complex(1.2, -0.5)):
            psi = loop.to_numeric(z)
            for t in (-10.0, -1.0, 0.0, 0.5, 2.0, 7.0, 30.0):
                got = _flow_or_error(cstar_flow, psi, t, z)
                want = _flow_or_error(cstar_flow_reference, psi, t, z)
                if isinstance(want, str):
                    assert got == want
                    continue
                split += 1
                assert got[0] == want[0] and np.array_equal(got[1], want[1]), (spec.exponents, z, t)
    assert split >= 200


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
    assert uniton_number_report(assemble_loop(flow_limit(spec))).ad_width == 3
    assert uniton_number_report(assemble_loop(spec)).ad_width == 3


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
    factors, _ = uniton_factorize(spec, z)
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
    factors, _ = uniton_factorize(veronese_solution(3), complex(0.5, 0.0))
    assert len(factors) == 2
    for q in factors:
        _assert_affine_projector(q)


def test_uniton_factorize_reassembles():
    spec = veronese_solution(4)
    z = complex(0.3, -0.6)
    factors, _ = uniton_factorize(spec, z)
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
    factors, _ = uniton_factorize(spec, 0.5)
    assert factors == []


def test_uniton_factorize_returns_the_full_unitary_factor():
    # the chain's last partial loop is the full loop, so its unitary factor
    # is the one a separate split of the assembled loop gives, bit for bit
    z = complex(0.3, 0.1)
    for spec in [veronese_solution(n) for n in range(2, 6)] + [_u3_build()]:
        _, unitary = uniton_factorize(spec, z)
        full = unitarize(assemble_loop(spec), z=z).unitary_part
        assert (unitary.lo, unitary.hi) == (full.lo, full.hi)
        assert all(np.array_equal(a, b) for a, b in zip(unitary.coeffs, full.coeffs))
    factors, unitary = uniton_factorize(ExtendedSolutionSpec(n=2, exponents=(0, 0)), z)
    assert factors == [] and unitary.kind == "numeric"
    assert (unitary.lo, unitary.hi) == (0, 0) and np.array_equal(unitary.coeffs[0], np.eye(2))


def _column_move_specs():
    """The harmonic specs (Veronese 2-5, the U_3 build and two more) and
    three even builds."""
    specs = _harmonic_specs()
    specs.append(even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]))
    specs.append(even_grassmannian_build(3, (1, 1, 0), [Z, ONE]))
    specs.append(even_grassmannian_build(4, (2, 1, 1, 0), [Z, Z * Z, ONE, -Z]))
    return specs


def _recorder(monkeypatch, module, name):
    """The loops passed to module.name, recorded as it is called."""
    loops, original = [], getattr(module, name)

    def record(loop, *args, **kwargs):
        loops.append(loop)
        return original(loop, *args, **kwargs)

    monkeypatch.setattr(module, name, record)
    return loops


def _same_stack(a, b):
    return a.lo == b.lo and np.array_equal(np.array(a.coeffs), np.array(b.coeffs))


def test_column_moves_of_exp_c_match_the_exact_loops(tmp_path, monkeypatch):
    # `flow` and `factor` move the columns of one evaluation of exp C; each
    # loop they split is the numeric value of the exact loop, bit for bit
    partials = _recorder(monkeypatch, factorization, "unitarize")
    flowed = _recorder(monkeypatch, cli, "cstar_flow")
    for z in (complex(0.3, 0.1), complex(-0.45, 0.6)):
        for spec in _column_move_specs():
            partials.clear()
            uniton_factorize(spec, z)
            exact = list(_partial_loops(spec))
            assert len(partials) == len(exact)
            for got, (loop, _) in zip(partials, exact):
                assert _same_stack(got, loop.to_numeric(z))
            path = tmp_path / "spec.json"
            path.write_text(jsonio.dumps(jsonio.spec_record(spec)))
            flowed.clear()
            assert cli.main(["flow", str(path), f"--z={z.real},{z.imag}", "--t=0"]) == 0
            psi, limit = flowed
            assert _same_stack(psi, assemble_loop(spec).to_numeric(z))
            assert _same_stack(limit, assemble_loop(flow_limit(spec)).to_numeric(z))


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
    # Veronese 4's slots under the exponents of its last mark alone
    moved = dataclasses.replace(
        veronese_solution(4), exponents=(1, 1, 1, 0), strict_grading=False
    )
    with pytest.raises(NotInBigCellForm):
        big_cell_check(moved)
