"""Unitarization, cell recovery, flow, uniton splitting, normalized form."""

import contextlib
import dataclasses
import inspect
import json
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    ad_width_by_conjugation,
    cstar_flow_reference,
    exponents_from_marks,
    flag_unitarize,
    projector_const,
    seeded_free_poly,
    twistor_value,
    two_projector_frame,
)
from unitons import cli, exactmat, factorization, jsonio, weierstrass
from unitons.errors import (
    ExactKindUnsupported,
    NoConvergence,
    NonMonomialDeterminant,
    NotCanonical,
    NotInBigCellForm,
    NotInvertibleLoop,
    NotNilpotent,
    PoleAtZ,
    SingularOnCircle,
    UnitonsError,
)
from unitons.factorization import (
    SINGULAR_TOL,
    _det_power,
    _uniton_projections,
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
from unitons.roots import marks_from_exponents
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.verify import harmonicity_residual, map_sampler, uniton_number_report
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    assemble_loop,
    assemble_numeric,
    build_from_free_functions,
    even_grassmannian_build,
    exp_nilpotent,
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
    pi = projector_const([column])
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


def _pole_build():
    return build_from_free_functions(3, (2, 1, 0), [Z, ONE / ((ONE + Z) * (ONE + Z)), Z])


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


def _bare(loop):
    """The same exact loop without its exponents: it takes the circle pass
    and the peel."""
    return LoopMat("exact", loop.n, loop.lo, loop.coeffs)


def test_bare_flowed_loop_splits_by_the_peel():
    # the U_3 build flowed to t = -20 splits by its uniton chain (energy 3);
    # its bare copy, peeled after the circle pass, gives the same loop
    z = complex(0.3, 0.1)
    chain = cstar_flow(_u3_build(), -20.0, z)
    peel = cstar_flow(_bare(assemble_loop(_u3_build())), -20.0, z)
    assert abs(energy(chain) - 3.0) <= 1e-9 and abs(energy(peel) - 3.0) <= 1e-9
    assert (peel.lo, peel.hi) == (chain.lo, chain.hi) == (0, 2)
    assert loops_close(peel, chain, 1e-14)


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
    """The partial loops exp(C) gamma_J, as exact loops: J takes the marks
    of the spec one at a time, the last mark first."""
    marks = marks_from_exponents(spec.exponents)
    exp_c = exp_nilpotent(spec.c_lambda())
    for count in range(1, sum(marks) + 1):
        kept = [i for i, m in enumerate(marks) if m][-count:]
        exponents = exponents_from_marks([int(i in kept) for i in range(len(marks))])
        yield exp_c.times_diag_powers(exponents), exponents


def _shaped_loops(spec):
    """The spec's loop and its partial loops exp(C) gamma_J, each with its
    exponents."""
    for loop, exponents in [(assemble_loop(spec), spec.exponents), *_partial_loops(spec)]:
        loop = LoopMat("exact", loop.n, loop.lo, loop.coeffs)
        loop.exponents = exponents
        yield loop


def test_peel_deficits_are_the_det_power():
    # the bare copies of the built specs and of their partial loops peel in
    # max k - min k steps, and the rank deficits n - rank pi_j add up to
    # the power m = sum k - n lo of det Psi read off the circle
    zs = [complex(0.3, -0.2), 0.0, complex(-0.45, 0.6)]
    for spec in _harmonic_specs():
        for loop in _shaped_loops(spec):
            values = CompiledLoop(_bare(loop)).values(zs)
            m = sum(loop.exponents) - loop.n * loop.lo
            assert list(_det_power(trim_blocks(values), loop.lo, zs)) == [m] * len(zs)
            pi = _uniton_projections(values, loop.lo, None, zs)
            assert pi.shape[1] == max(loop.exponents) - min(loop.exponents), loop.exponents
            deficits = np.trace(np.eye(loop.n) - pi, axis1=-2, axis2=-1).sum(axis=1)
            assert np.abs(deficits - m).max() <= 1e-12, loop.exponents


def test_bare_copies_split_as_their_specs():
    # the peel finds by rank what the exponents say: bare copies of the
    # built specs and their partial loops give the spec path's values to
    # 1e-13, and the rougher random loops the flag oracle's to 1e-12
    zs = np.array([complex(0.3, 0.2), complex(-0.45, 0.6), complex(0.7, -0.1)])
    for spec in _harmonic_specs():
        for loop in _shaped_loops(spec):
            gap = np.abs(harmonic_map_at(_bare(loop), zs) - harmonic_map_at(loop, zs)).max()
            assert gap <= 1e-13, (loop.exponents, gap)
    rng = random.Random(7)
    for trial in range(8):
        loop = _random_exact_loop(rng, 2 + trial % 2)
        u_ref, _ = flag_unitarize(loop)
        assert np.abs(harmonic_map_at(loop, 0.0) - u_ref.to_numeric().evaluate(-1.0)).max() <= 1e-12


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
            _det_power(blocks, 0, zs)
        return
    with pytest.raises(SingularOnCircle) as info:
        _det_power(blocks, 0, zs)
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
            _det_power(blocks[:1], 0, [0])


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
    exp_c = CompiledLoop(exp_nilpotent(spec.c_lambda())).values([0.1])[0]
    exp_c[0, 1, 0] = np.nan
    with pytest.raises(PoleAtZ, match=message):
        unitarize(assemble_numeric(exp_c, spec.exponents), 0.1)


def test_nonfinite_flow_parameter_is_typed_error_without_warnings():
    # math.exp(inf) is inf, not an OverflowError, and inf * 0 would warn
    spec = veronese_solution(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in (float("nan"), float("-inf")):
            message = rf"leaves the float range at t = {t!r}$"
            with pytest.raises(PoleAtZ, match=message):
                cstar_flow(spec, t, 0.1)


def test_ill_conditioned_algebraic_loop_names_its_condition_number():
    # Psi = M diag(1, lambda, lambda), det Psi = c lambda^2, with M of
    # singular values 1, 1 and 1e-9: the det's rounding, about 3 eps 1e9,
    # shows other powers above the 1e-9 threshold
    rng = np.random.default_rng(3)
    m = _with_singular_values(rng, np.array([1.0, 1.0, 1e-9]))
    loop = LoopMat.numeric([m @ np.diag([1.0, 0.0, 0.0]), m @ np.diag([0.0, 1.0, 1.0])])
    message = r"too ill-conditioned on \|lambda\| = 1 \(condition number 1\.000e\+09\)"
    with pytest.raises(NoConvergence, match=message):
        unitarize(loop)


@pytest.mark.parametrize(
    "func",
    [unitarize, harmonic_map_at, cstar_flow, uniton_factorize, map_sampler],
)
def test_no_truncation_order_argument(func):
    # the split stops where the loop itself says, never where a caller does
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


def test_harmonic_map_far_from_unitary_is_refused(monkeypatch):
    # Veronese 5 is unitary to rounding at z = 0.3 and to 6.5e-11 at z = 30;
    # the U_3 loop flowed to t = -log 1e9 peels to the flag oracle's value
    spec = veronese_solution(5)
    phi = harmonic_map_at(spec, 0.3)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(5)) <= 1e-14
    phi = harmonic_map_at(spec, 30)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(5)) <= 1e-9
    family = _flowed_u3_family()
    phi = harmonic_map_at(family, 1e3)
    assert np.linalg.norm(phi @ phi.conj().T - np.eye(3)) <= 1e-11
    u_ref, _ = flag_unitarize(family.at_z(gr(10**9)))
    assert np.abs(harmonic_map_at(family, 1e9) - u_ref.to_numeric().evaluate(-1.0)).max() <= 1e-14
    # a value is a product of reflections, so only a routine that returns a
    # non-projection, 1 + 1e-7 times pi at z = 1e9, reaches the guard
    original = factorization._uniton_projections

    def bent(blocks, lo, exponents, zs, map_value=False):
        pi = original(blocks, lo, exponents, zs)
        pi = pi * (1 + 1e-7 * (np.asarray(zs) == 1e9))[:, None, None, None]
        if not map_value:
            return pi
        values = np.repeat(np.eye(3, dtype=complex)[None], len(zs), axis=0)
        for reflection in (2 * pi - np.eye(3)).swapaxes(0, 1):
            values = values @ reflection
        return values

    monkeypatch.setattr(factorization, "_uniton_projections", bent)
    assert np.array_equal(harmonic_map_at(family, 1e3), phi)
    message = r"map value is \S+e-0[78] from unitary \(bound 1e-09\) at z = 1000000000\.0;"
    with pytest.raises(NoConvergence, match=message):
        harmonic_map_at(family, 1e9)
    with pytest.raises(NoConvergence, match=r"at z = 1000000000\.0; "):
        harmonic_map_at(family, np.array([1e3, 1e9, 1.0]))


def _seeded_u4(seed):
    """The U_4 (3,2,1,0) build of the CLI suite's seed: six free polynomials
    of degrees 1, 2, 3, 1, 2, 3."""
    rng = random.Random(seed)
    return u4_build(*[seeded_free_poly(rng, 1 + k % 3) for k in range(6)])


def test_spec_values_far_out_match_the_flag_oracle():
    # a lambda-free spec splits by one QR of exp C, read off untrimmed
    # values, over the whole input range.  Read after the trim, which drops
    # the small low-k columns, the flag is 8.0e-6 off at Veronese 5 z = 1e6
    # and still unitary
    cases = [(veronese_solution(5), z, 1e-12) for z in (30, 45, 100, 1000, 10**4, 10**6)]
    cases += [(veronese_solution(n), z, 1e-12) for n, z in ((6, 25), (8, 15), (8, 40), (9, 30))]
    # a lambda-dependent spec splits by its uniton chain, read off untrimmed
    # values too: the generator split read 6.6e-11 (U_4 at z = 10), or was
    # refused (U_4 at z = 30, the even build at z = 1e4)
    cases += [(spec, z, 1e-13) for spec in (_u3_build(), _pole_build()) for z in (10**4, 10**6)]
    even = even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z])
    cases += [(spec, z, 1e-13) for spec in (_seeded_u4(31), even) for z in (10, 30, 10**4)]
    for spec, z, bound in cases:
        u_ref, _ = flag_unitarize(assemble_loop(spec).at_z(gr(z)))
        value = harmonic_map_at(spec, float(z))
        assert np.abs(value - u_ref.to_numeric().evaluate(-1.0)).max() <= bound, (spec.exponents, z)
    # the flag unitarizer takes about a minute at Veronese 14 z = 1e4, so the
    # exact twistor formula stands in; the two agree exactly where both run
    spec = veronese_solution(5)
    u_ref, _ = flag_unitarize(assemble_loop(spec).at_z(gr(1000)))
    assert u_ref.evaluate_exact(gr(-1)) == twistor_value(spec, gr(1000))
    # the columns of exp C are nearly parallel there: the QR's rounding puts
    # the value 1.2e-11 from the exact one, inside the 1e-10 accuracy bound
    spec = veronese_solution(14)
    exact = twistor_value(spec, gr(10**4))
    want = np.array([[complex(x.const_value()) for x in row] for row in exact])
    assert np.abs(harmonic_map_at(spec, 1e4) - want).max() <= 1e-10


def _twistor_matrix(spec, z):
    """`twistor_value` of a lambda-free spec at the Gaussian rational of z."""
    exact = twistor_value(spec, gr(Fraction(z.real), Fraction(z.imag)))
    return np.array([[complex(x.const_value()) for x in row] for row in exact])


def _twistor_value_by_projectors(spec, z):
    """The twistor formula the long way: each flag projector Pi_j from its
    own Gram matrix (`projector_const`), and phi = sum_j (-1)^j (Pi_j -
    Pi_(j-1))."""
    a = exp_nilpotent(spec.c_lambda()).at_z(z).coeffs[0]
    n = spec.n
    phi, below = exactmat.zeros(n), exactmat.zeros(n)
    for j in sorted(set(spec.exponents)):
        cols = [[a[i][b] for i in range(n)] for b in range(n) if spec.exponents[b] <= j]
        upto = projector_const(cols)
        step = exactmat.mat_sub(upto, below)
        phi = (exactmat.mat_add if j % 2 == 0 else exactmat.mat_sub)(phi, step)
        below = upto
    return phi


def test_twistor_value_is_the_projector_formula():
    # one Gram-Schmidt pass gives every flag projector's step exactly
    for n in range(3, 7):
        spec = veronese_solution(n)
        for z in (gr(Fraction(1, 4), Fraction(1, 8)), gr(-2, 3)):
            assert twistor_value(spec, z) == _twistor_value_by_projectors(spec, z), (n, z)
    spec = even_grassmannian_build(4, (2, 1, 1, 0), [Z, Z * Z, ONE, -Z])
    z = gr(Fraction(1, 3), -1)
    assert twistor_value(spec, z) == _twistor_value_by_projectors(spec, z)


def test_lambda_free_map_value_is_one_reflection_of_the_flag():
    # Phi(-1) = Q diag((-1)^k) Q* from the one QR, where a product of the r
    # reflections 2 pi_j - I would compound their rounding
    z = complex(0.25, 0.125)
    for n in (8, 14, 20):
        spec = veronese_solution(n)
        gap = np.abs(harmonic_map_at(spec, z) - _twistor_matrix(spec, z)).max()
        assert gap <= 2e-15, (n, gap)


@pytest.mark.parametrize(
    "n, bounds",
    [(5, (3.1e-14, 1.6e-14, 2.1e-13)), (8, (2.0e-14, 2.6e-14, 2.1e-12)), (14, (5.5e-14, 4.0e-14, 3.1e-9))],
)
def test_bare_veronese_peel_reads_the_twistor_value(n, bounds):
    # each bound is ten times the reading at z = 0.25 + 0.125i, 2 - i and 10
    spec = veronese_solution(n)
    bare = _bare(assemble_loop(spec))
    for z, bound in zip((complex(0.25, 0.125), complex(2, -1), complex(10)), bounds):
        gap = np.abs(harmonic_map_at(bare, z) - _twistor_matrix(spec, z)).max()
        assert gap <= bound, (n, z, gap)


def test_peel_without_a_rank_gap_is_refused():
    # diag(1e-3, 5e-10 + lambda): det = 1e-3 lambda + 5e-13 reads m = 1, and
    # X_0(0) = diag(1e-3, 5e-10) has its second singular value below the
    # floor 1e-9 but not 1e-9 times the first
    loop = LoopMat.numeric([np.diag([1e-3, 5e-10]), np.diag([0.0, 1.0])])
    message = (
        r"singular values 1\.000e-03 and 5\.000e-10 on either side of rank 1 of X_0\(0\) "
        r"are not separated \(bound 1e-09\) at z = 0\.5; "
    )
    with pytest.raises(NoConvergence, match=message):
        harmonic_map_at(loop, 0.5)
    with pytest.raises(NoConvergence, match=message):
        unitarize(loop, 0.5)
    # diag(5e-10, 5e-10 + lambda): m = 1, but X_0(0) is below the floor, rank 0
    loop = LoopMat.numeric([np.diag([5e-10, 5e-10]), np.diag([0.0, 1.0])])
    with pytest.raises(NoConvergence, match=r"rank deficit of 2, not the power m = 1 .* at z = 0\.5;"):
        harmonic_map_at(loop, 0.5)


def test_peeling_the_unitary_part_again_moves_it_little():
    # the unitary part of a bare loop is its own unitary part, with plus part I
    rng = random.Random(7)
    loops = [(_bare(assemble_loop(spec)), z) for spec in _harmonic_specs() for z in _NEAR_POINTS]
    loops += [(_random_exact_loop(rng, 2 + trial % 2), None) for trial in range(8)]
    for loop, z in loops:
        unitary = unitarize(loop, z).unitary_part
        again = unitarize(unitary)
        assert (again.unitary_part.lo, again.unitary_part.hi) == (unitary.lo, unitary.hi)
        assert (again.plus_part.lo, again.plus_part.hi) == (0, 0)
        assert np.abs(again.unitary_part.coeffs - unitary.coeffs).max() <= 1e-14, z
        assert np.abs(again.plus_part.coeffs[0] - np.eye(loop.n)).max() <= 1e-14, z


def _lambda_free_specs():
    """Every lambda-free spec the suite builds: Veronese 2-9, the lambda-free
    even builds and the flow limits of the U_3 and U_4 builds."""
    specs = [veronese_solution(n) for n in range(2, 10)]
    specs.append(even_grassmannian_build(3, (1, 1, 0), [Z, ONE]))
    specs.append(even_grassmannian_build(4, (2, 1, 1, 0), [Z, Z * Z, ONE, -Z]))
    specs.append(flow_limit(_u3_build()))
    specs.append(flow_limit(u4_build(Z, Z * Z, ONE + Z, 2 * Z, 3 * Z * Z, RatFun.const(gr(5)))))
    return specs


def _projection_spy(monkeypatch):
    """A list that records, per call of `_uniton_projections`, the number of
    QRs it ran: one for the flag of a lambda-free stack, max k for a uniton
    chain, none for the peel of a bare loop."""
    taken, qrs = [], []
    original, qr = factorization._uniton_projections, np.linalg.qr

    def counted(*args, **kwargs):
        qrs.append(None)
        return qr(*args, **kwargs)

    def spy(*args, **kwargs):
        before = len(qrs)
        out = original(*args, **kwargs)
        taken.append(len(qrs) - before)
        return out

    monkeypatch.setattr(np.linalg, "qr", counted)
    monkeypatch.setattr(factorization, "_uniton_projections", spy)
    return taken


_NEAR_POINTS = [complex(0.3, 0.1), complex(-0.45, 0.6), complex(0.7, -0.1)]


def test_flag_split_agrees_with_the_peel_of_the_bare_copy(monkeypatch):
    # the same loop without its exponents is peeled, with no QR; the flag of
    # a lambda-free stack is one QR, whatever its max k
    taken = _projection_spy(monkeypatch)
    zs = np.array(_NEAR_POINTS)
    for spec in _lambda_free_specs():
        loop = assemble_loop(spec)
        bare = _bare(loop)
        flag = harmonic_map_at(loop, zs)
        assert taken == [1], spec.exponents
        assert np.abs(flag - harmonic_map_at(bare, zs)).max() <= 1e-13, spec.exponents
        assert taken == [1, 0], spec.exponents
        for z in _NEAR_POINTS:
            taken.clear()
            flag = unitarize(loop, z).unitary_part.circle_values(16)
            assert taken == [1], (spec.exponents, z)
            peel = unitarize(bare, z).unitary_part.circle_values(16)
            assert taken == [1, 0], (spec.exponents, z)
            assert np.abs(flag - peel).max() <= 1e-13, (spec.exponents, z)
        taken.clear()


def _lambda_dependent_specs():
    return [
        _u3_build(),
        u4_build(Z, Z * Z, ONE + Z, 2 * Z, 3 * Z * Z, RatFun.const(gr(5))),
        _seeded_u4(31),
        even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]),
        _pole_build(),
    ]


def test_lambda_dependent_specs_never_take_the_flag_split(monkeypatch):
    # nor the circle pass and the peel: map values near 0, at 0 and far
    # out, splits, flowed loops from t = -10 to 30 and factors all read the
    # uniton chain, one QR per projection
    def refuse(*args):
        raise AssertionError("a lambda-dependent spec loop took the circle pass or the peel")

    taken = _projection_spy(monkeypatch)
    monkeypatch.setattr(factorization, "_det_power", refuse)
    monkeypatch.setattr(factorization, "_peel_basis", refuse)
    for spec in _lambda_dependent_specs():
        r = max(spec.exponents)
        assert r > 1, spec.exponents
        harmonic_map_at(spec, np.array([0, *_NEAR_POINTS, 30, 1e4]))
        for z in _NEAR_POINTS:
            psi = assemble_loop(spec).to_numeric(z)
            unitarize(psi, z)
            for t in (-10.0, -1.0, 0.0, 2.0, 30.0):
                cstar_flow(psi, t, z)
            uniton_factorize(spec, z)
        assert taken and all(count == r for count in taken), (spec.exponents, taken)
        taken.clear()


def test_unitarize_splits_lambda_free_loops_by_the_flag(monkeypatch):
    taken = _projection_spy(monkeypatch)
    for spec in _lambda_free_specs():
        for z in _NEAR_POINTS:
            psi = assemble_loop(spec).to_numeric(z)
            parts = unitarize(psi, z)
            assert parts.plus_part.lo >= 0
            assert parts.residual_unitarity <= 1e-9
            assert parts.residual_split <= 1e-9 * max(1.0, psi.max_coeff_norm())
    assert taken and all(count == 1 for count in taken)
    # the projections of a lambda-free stack nest: pi_i pi_j = pi_min(i, j)
    for spec in _lambda_free_specs():
        values = CompiledLoop(assemble_loop(spec)).values(_NEAR_POINTS)
        pi = _uniton_projections(values, 0, spec.exponents, _NEAR_POINTS)
        for i in range(pi.shape[1]):
            for j in range(pi.shape[1]):
                gap = np.abs(pi[:, i] @ pi[:, j] - pi[:, min(i, j)]).max()
                assert gap <= 1e-14, (spec.exponents, i, j, gap)


def test_each_caller_builds_only_what_it_reads(monkeypatch):
    # a lambda-free map value is read off Q alone, with no projection stack;
    # a chain's value multiplies in the reflection of each projection it
    # makes; and the split gets the (1, r, n, n) projections, no map value
    built = _recorder(monkeypatch, factorization, "_projection")
    returned, original = [], factorization._uniton_projections

    def spy(*args, **kwargs):
        out = original(*args, **kwargs)
        returned.append(out.shape)
        return out

    monkeypatch.setattr(factorization, "_uniton_projections", spy)
    zs = np.array(_NEAR_POINTS)
    # (spec, `_projection` calls per map value, per split)
    cases = [(spec, 0, 1) for spec in _lambda_free_specs()]
    cases += [(spec, max(spec.exponents), max(spec.exponents)) for spec in _lambda_dependent_specs()]
    for spec, per_value, per_split in cases:
        n, r = spec.n, max(spec.exponents)
        built.clear()
        returned.clear()
        harmonic_map_at(spec, zs)
        assert returned == [(len(zs), n, n)] and len(built) == per_value, spec.exponents
        built.clear()
        returned.clear()
        unitarize(assemble_loop(spec).to_numeric(zs[0]), zs[0])
        uniton_factorize(spec, zs[0])
        assert returned == [(1, r, n, n)] * 2 and len(built) == 2 * per_split, spec.exponents


def test_empty_batch_maps_to_an_empty_stack():
    # a 1-D z with no points gives a (0, n, n) stack: a lambda-free spec
    # loop, a chain, an exact bare loop and a numeric one
    for spec in (veronese_solution(4), _u3_build()):
        loop = assemble_loop(spec)
        numeric = LoopMat.numeric(loop.to_numeric(0.3).coeffs)
        for obj in (spec, loop, _bare(loop), numeric):
            assert harmonic_map_at(obj, np.array([])).shape == (0, spec.n, spec.n)
        assert map_sampler(spec)(np.zeros(0, dtype=complex)).shape == (0, spec.n, spec.n)


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


def test_cell_of_a_spec_matches_the_reduction_of_its_loop():
    # a spec's cell is read off its exponents, sorted decreasing, once C is
    # known nilpotent; the Smith form of the assembled loop agrees
    lower = [[ZERO, ZERO], [Z, ZERO]]
    for spec in (
        veronese_solution(4),
        ExtendedSolutionSpec(3, (0, 2, 1), {}),
        ExtendedSolutionSpec(2, (1, 0), {(0, 1): lower}),
        ExtendedSolutionSpec(3, (1, 2, 0), {(2, 1): [[ZERO, Z, ZERO], [ZERO, ZERO, ZERO], [ZERO, ONE, ZERO]]}),
    ):
        assert bruhat_cell(spec) == bruhat_cell(assemble_loop(spec)), spec
    with pytest.raises(NotNilpotent):
        bruhat_cell(ExtendedSolutionSpec(2, (1, 0), {(0, 1): [[ZERO, ZERO], [ZERO, Z]]}))


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


def test_cell_with_zero_rows_and_columns_in_the_pivot_block():
    # shears inside two 2 x 2 blocks and a permutation leave each pivot row and
    # column of the reduction mostly zero
    rng = random.Random(23)
    within = [(0, 1), (1, 0), (2, 3), (3, 2)]

    def sheared():
        loop = LoopMat.identity(4)
        for _ in range(3):
            a, b = rng.choice(within)
            c = RatFun.const(gr(rng.randint(1, 2), rng.randint(-1, 1)))
            loop = loop @ _elementary(4, a, b, rng.randint(0, 2), c)
        return loop

    perm = LoopMat.exact([[[ONE if j == (i + 2) % 4 else ZERO for j in range(4)] for i in range(4)]])
    for planted in ((3, 0, 2, 1), (2, 2, 0, 1), (0, 4, 1, 0)):
        base = LoopMat.diag_powers(planted)
        expected = tuple(sorted(planted, reverse=True))
        for loop in (perm @ base, sheared() @ base @ perm, perm @ sheared() @ base @ sheared()):
            assert bruhat_cell(loop).exponents == expected, planted
    # [[0, lambda^2], [1, 0]]: the pivot's row and column are zero but for the pivot
    loop = LoopMat.exact([[[ZERO, ZERO], [ONE, ZERO]], [[ZERO, ZERO], [ZERO, ZERO]],
                          [[ZERO, ONE], [ZERO, ZERO]]])
    assert bruhat_cell(loop).exponents == (2, 0)


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
    p = projector_const([[ONE, ZERO]])
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


def test_cell_of_a_built_spec_runs_no_reduction_and_no_exp_series(tmp_path, monkeypatch, capsys):
    # a built spec's C is strictly upper triangular, so nilpotent: cell prints
    # its exponents and builds neither exp C nor the Smith form
    exp_calls = []

    def refuse(*args):
        raise AssertionError("cell on a spec ran the Smith reduction")

    def counted(c):
        exp_calls.append(c)
        return exp_nilpotent(c)

    monkeypatch.setattr(factorization, "_smith_diagonal", refuse)
    for module in (weierstrass, factorization, cli):
        monkeypatch.setattr(module, "exp_nilpotent", counted, raising=False)
    specs = [
        veronese_solution(8),
        build_from_free_functions(
            4, (3, 2, 1, 0), [poly(0, 1), poly(0, 0, 1), poly(1, 1), poly(0, 2), poly(0, 0, 3), poly(5)]
        ),
        even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]),
    ]
    path = tmp_path / "spec.json"
    for spec in specs:
        assert bruhat_cell(spec).exponents == spec.exponents
        path.write_text(jsonio.dumps(jsonio.spec_record(spec)))
        assert cli.main(["cell", str(path)]) == 0
        assert capsys.readouterr().out == jsonio.dumps({"exponents": list(spec.exponents)}) + "\n"
    assert exp_calls == []
    # a strictly lower C is nilpotent too, but only its exp series tells
    rec = jsonio.spec_record(veronese_solution(2))
    rec["slots"]["c1_0"] = [["0", "0"], [{"num": ["0", "1"], "den": ["1"]}, "0"]]
    path.write_text(jsonio.dumps(rec))
    assert cli.main(["cell", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"exponents": [1, 0]}
    assert len(exp_calls) == 1


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
    # the unitary factor is the split of the whole loop, bit for bit the one
    # a separate split of the assembled loop gives
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
    # `flow` and `factor` move the columns of one evaluation of exp C; the
    # stack `uniton_factorize` splits is the values of the exact loop, bit
    # for bit (up to zero top blocks, which the exact loop trims), and each
    # loop they split, trimmed, is the numeric value of the exact loop
    chained = _recorder(monkeypatch, factorization, "_uniton_projections")
    split = _recorder(monkeypatch, factorization, "_split")
    flowed = _recorder(monkeypatch, cli, "cstar_flow")
    for z in (complex(0.3, 0.1), complex(-0.45, 0.6)):
        for spec in _column_move_specs():
            chained.clear()
            split.clear()
            uniton_factorize(spec, z)
            got = chained[0]
            want = CompiledLoop(assemble_loop(spec)).values([z])
            assert not got[:, want.shape[1] :].any()
            assert np.array_equal(got[:, : want.shape[1]], want), (spec.exponents, z)
            assert len(split) == 1 and np.array_equal(split[0], got[0])
            assert _same_stack(LoopMat.numeric(split[0]), assemble_loop(spec).to_numeric(z))
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
    assert wd.V[0][1] == alpha.derivative()
    assert wd.V[1][0].is_zero() and wd.V[0][0].is_zero()


def test_big_cell_u4_pattern():
    a1, a2, a3 = poly(0, 1), poly(0, 0, 1), poly(1, 1)
    d1, d2, f1 = poly(0, 2), poly(0, 0, 3), poly(5)
    spec = u4_build(a1, a2, a3, d1, d2, f1)
    wd = big_cell_check(spec)
    v = wd.matrix()
    assert v[0][1] == a1.derivative()
    assert v[1][2] == a2.derivative()
    assert v[2][3] == a3.derivative()
    assert v[0][2] == d1.derivative()
    assert v[1][3] == d2.derivative()
    assert v[0][3] == f1.derivative()
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
    moved = dataclasses.replace(veronese_solution(4), exponents=(1, 1, 1, 0))
    with pytest.raises(NotInBigCellForm):
        big_cell_check(moved)
