"""Shipped acceptance gate: one check per contract item, one verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to see the ACCEPTANCE lines;
each criterion prints exactly one PASS/FAIL line and then asserts.
"""

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from oracles import (
    flag_unitarize,
    non_harmonic_control,
    projector_const,
    two_projector_frame,
)

from unitons import exactmat
from unitons.cli import main as cli_main
from unitons.factorization import (
    big_cell_check,
    bruhat_cell,
    cstar_flow,
    energy,
    flow_limit,
    harmonic_map_at,
    unitarize,
)
from unitons.loops import LoopMat
from unitons.roots import build_root_system, symmetric_space_survey
from unitons.scalars import GaussianRational, Poly, RatFun
from unitons.verify import (
    check_extended,
    check_superhorizontal,
    check_T_invariant,
    harmonicity_residual,
    map_sampler,
    uniton_number_report,
)
from unitons.weierstrass import (
    assemble_loop,
    build_from_free_functions,
    even_grassmannian_build,
    veronese_solution,
)

ONE = RatFun.one()
Z = RatFun.x()


def verdict(num, label, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {word} {label}{tail}")
    assert ok, f"criterion {num}: {label}{tail}"


def gr(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


# -- 1: width table for the compact simple groups ------------------------------


def test_01_group_width_table(capsys):
    start = time.perf_counter()
    code = cli_main(["tables", "groups"])
    out = capsys.readouterr().out
    elapsed = time.perf_counter() - start
    rows = {r["group"]: r["samples"] for r in json.loads(out)["rows"]}
    expected = {
        "SU_n": [[n, n - 1] for n in range(2, 9)],
        "SO_{2n+1}": [[n, 2 * n - 1] for n in range(2, 7)],
        "Sp_n": [[n, 2 * n - 1] for n in range(2, 7)],
        "SO_{2n}": [[n, 2 * n - 3] for n in range(3, 8)],
        "G_2": [[2, 5]],
        "F_4": [[4, 11]],
        "E_6": [[6, 11]],
        "E_7": [[7, 17]],
        "E_8": [[8, 29]],
    }
    ok = code == 0 and rows == expected and elapsed < 1.0
    verdict(1, "group width table, nine rows exact", ok, f"{elapsed:.2f}s < 1s")


# -- 2: symmetric-space survey reproduces the classical rows --------------------


def test_02_symmetric_space_survey():
    start = time.perf_counter()
    cases = [
        ("A", 2, "Gr_1(C^3)", 2),
        ("A", 4, "Gr_2(C^5)", 4),
        ("A", 3, "Gr_2(C^4)", 3),
        ("A", 7, "Gr_2(C^8)", 4),
        ("A", 7, "Gr_4(C^8)", 7),
        ("B", 2, "Gr_1(R^5)", 2),
        ("B", 2, "Gr_2(R^5)", 3),
        ("B", 4, "Gr_2(R^9)", 4),
        ("B", 4, "Gr_3(R^9)", 6),
        ("B", 4, "Gr_4(R^9)", 7),
        ("C", 2, "Sp_2/U_2", 3),
        ("C", 3, "Sp_3/U_3", 5),
        ("C", 3, "Gr_1(H^3)", 4),
        ("D", 4, "SO_8/U_4", 4),
        ("D", 5, "SO_10/U_5", 6),
        ("D", 5, "Gr_2(R^10)", 4),
    ]
    surveys = {}
    bad = []
    for letter, rank, name, want in cases:
        if (letter, rank) not in surveys:
            surveys[(letter, rank)] = symmetric_space_survey(
                build_root_system(letter, rank)
            )
        heights = [r.height for r in surveys[(letter, rank)] if name in r.names]
        if not heights or max(heights) != want:
            bad.append((name, want, max(heights, default=None)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    verdict(2, "survey matches classical max uniton numbers", ok,
            f"{len(cases)} spaces, {elapsed:.2f}s < 10s" + (f"; mismatches {bad}" if bad else ""))


# -- 3: U_4 demo from six random free functions ---------------------------------


def _random_free_poly(rng):
    deg = rng.randint(1, 3)
    coeffs = [
        gr(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
           Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
        for _ in range(deg + 1)
    ]
    return RatFun(Poly(coeffs))


def test_03_u4_potential_demo():
    rng = random.Random(31)
    free = [_random_free_poly(rng) for _ in range(6)]
    a1, a2, a3, d1, d2, f1 = free
    spec = build_from_free_functions(4, (3, 2, 1, 0), free)

    e1 = spec.c_slots[(1, 3)][0][3]
    half = RatFun.const(gr(Fraction(1, 2)))
    rhs = half * (a1 * d2.derivative() - a1.derivative() * d2
                  + d1 * a3.derivative() - d1.derivative() * a3)
    ode_ok = e1.derivative() == rhs

    extended_ok = check_extended(spec).passed

    v = big_cell_check(spec).V
    pattern = {
        (0, 1): a1.derivative(), (1, 2): a2.derivative(), (2, 3): a3.derivative(),
        (0, 2): d1.derivative(), (1, 3): d2.derivative(), (0, 3): f1.derivative(),
    }
    pattern_ok = all(
        v[a][b] == pattern.get((a, b), RatFun.zero())
        for a in range(4) for b in range(4)
    )
    ok = ode_ok and extended_ok and pattern_ok
    verdict(3, "U_4 demo: forced ODE, extended conditions, derivative pattern", ok,
            f"ode={ode_ok} extended={extended_ok} pattern={pattern_ok}, exact")


# -- 4: unitarization residuals and oracle agreement -----------------------------


def _projector_factor(column):
    n = len(column)
    pi = projector_const([column])
    perp = exactmat.mat_sub(exactmat.eye(n), pi)
    return LoopMat("exact", n, 0, [pi, perp])


def _random_built_loop(rng, n):
    def entry():
        return RatFun(Poly([gr(rng.randint(-1, 1), rng.randint(-1, 1))
                            for _ in range(rng.randint(1, 2))]))

    loop = LoopMat.identity(n)
    for _ in range(rng.randint(1, 3 if n == 2 else 2)):
        col = [entry() for _ in range(n)]
        if all(c.is_zero() for c in col):
            col[0] = ONE
        loop = loop @ _projector_factor(col)
        upper = exactmat.eye(n)
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < 0.4:
                    upper[a][b] = entry()
        loop = loop @ LoopMat.exact([upper])
    return loop


def test_04_unitarization_random_loops():
    start = time.perf_counter()
    rng = random.Random(40)
    worst_unit = worst_split = worst_idem = worst_oracle = 0.0
    for trial in range(50):
        n = 2 + trial % 3
        loop = _random_built_loop(rng, n)
        for _ in range(5):
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
            fac = unitarize(loop, z=z)
            scale = max(1.0, loop.to_numeric(z).max_coeff_norm())
            worst_unit = max(worst_unit, fac.residual_unitarity)
            worst_split = max(worst_split, fac.residual_split / scale)
            again = unitarize(fac.unitary_part)
            worst_idem = max(
                worst_idem, (again.unitary_part - fac.unitary_part).max_coeff_norm()
            )
        z0 = gr(Fraction(rng.randint(-7, 7), 10), Fraction(rng.randint(-7, 7), 10))
        u_ref, _ = flag_unitarize(loop.at_z(z0))
        fac0 = unitarize(loop, z=complex(z0))
        worst_oracle = max(
            worst_oracle, (u_ref.to_numeric() - fac0.unitary_part).max_coeff_norm()
        )
    elapsed = time.perf_counter() - start
    ok = (worst_unit <= 1e-8 and worst_split <= 1e-8
          and worst_idem <= 1e-7 and worst_oracle <= 1e-7 and elapsed < 60.0)
    verdict(4, "unitarization on 50 random built loops x 5 points", ok,
            f"unitarity {worst_unit:.1e}, split {worst_split:.1e}, "
            f"idempotence {worst_idem:.1e}, oracle {worst_oracle:.1e}, {elapsed:.1f}s < 60s")


# -- 5: finite-difference harmonicity -------------------------------------------


def test_05_harmonicity_grid():
    grid = [complex(x, y)
            for x in np.linspace(-0.7, 0.7, 5) for y in np.linspace(-0.7, 0.7, 5)]
    residuals = {}
    for n in (2, 3, 4):
        residuals[n] = harmonicity_residual(map_sampler(veronese_solution(n)), grid, h=1e-3)
    control = harmonicity_residual(non_harmonic_control(), grid, h=1e-3)
    ok = all(r <= 1e-5 for r in residuals.values()) and control > 1e-2
    verdict(5, "harmonicity <= 1e-5 on Veronese 2..4, control flagged", ok,
            "residuals " + " ".join(f"n={n}:{r:.1e}" for n, r in residuals.items())
            + f", control {control:.1e} > 1e-2")


# -- 6: uniton numbers -------------------------------------------------------------


def test_06_uniton_numbers():
    widths_ok = all(
        uniton_number_report(veronese_solution(n)).ad_width == n - 1
        for n in range(2, 6)
    )
    frame_ok = uniton_number_report(two_projector_frame()).ad_width == 2

    rng = random.Random(31)
    builds = [
        veronese_solution(2), veronese_solution(3), veronese_solution(4),
        build_from_free_functions(4, (3, 2, 1, 0), [_random_free_poly(rng) for _ in range(6)]),
        even_grassmannian_build(3, (1, 1, 0), [Z, RatFun.const(gr(1))]),
        even_grassmannian_build(4, (2, 1, 1, 0), [Z, Z * Z, ONE, RatFun.zero() - Z]),
        even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]),
    ]
    preserved = all(
        uniton_number_report(sp).ad_width
        == uniton_number_report(flow_limit(sp)).ad_width
        for sp in builds
    )
    ok = widths_ok and frame_ok and preserved
    verdict(6, "ad widths: Veronese n-1, two-projector frame 2, flow limit preserves", ok,
            f"veronese={widths_ok} frame={frame_ok} preserved on {len(builds)} builds={preserved}, exact")


# -- 7: cell recovery under unimodular dressing --------------------------------------


def _random_unimodular(rng, n):
    loop = LoopMat.identity(n)
    for _ in range(rng.randint(1, 4)):
        a = rng.randrange(n)
        b = rng.randrange(n)
        while b == a:
            b = rng.randrange(n)
        k = rng.randint(0, 3)
        c = RatFun.const(gr(rng.randint(-2, 2), rng.randint(-1, 1)))
        blocks = [exactmat.zeros(n) for _ in range(k + 1)]
        for i in range(n):
            blocks[0][i][i] = ONE
        blocks[k][a][b] = blocks[k][a][b] + c
        loop = loop @ LoopMat.exact(blocks)
    return loop


def test_07_cell_recovery():
    start = time.perf_counter()
    rng = random.Random(2026)
    hits = 0
    for _ in range(100):
        n = rng.randint(2, 4)
        ks = [0]
        for _ in range(n - 1):
            ks.append(ks[-1] + rng.randint(0, 2))
        ks = tuple(sorted(ks, reverse=True))
        loop = (_random_unimodular(rng, n)
                @ LoopMat.diag_powers(ks)
                @ _random_unimodular(rng, n))
        if bruhat_cell(loop).exponents == ks:
            hits += 1
    elapsed = time.perf_counter() - start
    ok = hits == 100 and elapsed < 60.0
    verdict(7, "cell exponents recovered on 100 dressed homomorphisms", ok,
            f"{hits}/100 exact, {elapsed:.1f}s < 60s")


# -- 8: scaling flow ------------------------------------------------------------------


def test_08_scaling_flow():
    # Veronese 3 is a fixed point of the flow: its energy must not move
    spec = veronese_solution(3)
    z = complex(0.5, 0.0)
    energies = [energy(cstar_flow(spec, 0.5 * k, z)) for k in range(13)]
    fixed = max(energies) - min(energies) <= 1e-9
    limit = flow_limit(spec)
    distance = (cstar_flow(spec, 8.0, z) - cstar_flow(limit, 0.0, z)).max_coeff_norm()
    horizontal = check_superhorizontal(limit).passed
    # a lambda-dependent U_3 (2,1,0) build lies in the cell of its critical
    # homomorphism, so the flow runs its energy up to sum k_i^2 = 5
    climber = build_from_free_functions(3, (2, 1, 0), [Z, Z, Z * Z])
    w = complex(0.7, 0.3)
    climb = [energy(cstar_flow(climber, 0.5 * k, w)) for k in range(13)]
    rising = all(climb[k + 1] >= climb[k] - 1e-9 for k in range(12))
    top = abs(energy(cstar_flow(climber, 10.0, w)) - 5.0)
    ok = fixed and distance <= 1e-5 and horizontal and rising and top <= 1e-6
    verdict(8, "flow: fixed point holds, energy climbs to its critical value, "
               "limit reached, limit super-horizontal", ok,
            f"Veronese energy span [{min(energies):.9f}, {max(energies):.9f}] <= 1e-9, "
            f"U_3 energy {climb[0]:.6f} -> {climb[-1]:.6f} non-decreasing={rising}, "
            f"|E(t=10) - 5| {top:.1e} <= 1e-6, "
            f"|t=8 - limit| {distance:.1e} <= 1e-5, horizontal={horizontal}")


# -- 9: even builds and the twist -------------------------------------------------------


def test_09_even_builds_twist():
    builds = [
        even_grassmannian_build(3, (1, 1, 0), [Z, RatFun.const(gr(1))]),
        even_grassmannian_build(4, (2, 1, 1, 0), [Z, Z * Z, ONE, RatFun.zero() - Z]),
        even_grassmannian_build(4, (3, 2, 1, 0), [Z, Z * Z, RatFun.const(gr(2)), Z]),
    ]
    twist_ok = all(check_T_invariant(assemble_loop(sp).based()).passed for sp in builds)

    # basepoint normalization makes the involution constant c the identity
    points = (complex(0.3, 0.2), complex(-0.4, 0.1), complex(0.2, -0.5))
    worst = 0.0
    for sp in builds:
        for w in points:
            phi = harmonic_map_at(sp, w)
            worst = max(worst, float(np.linalg.norm(phi @ phi - np.eye(sp.n))))
    involution_ok = worst <= 1e-8

    low = [sp for sp in builds if sp.height <= 2]
    s1_ok = bool(low) and all(
        all(i == 0 for i, _ in sp.c_slots) for sp in low
    )
    ok = twist_ok and involution_ok and s1_ok
    verdict(9, "even builds: twist-fixed, involutive map, height<=2 circle-invariant", ok,
            f"twist={twist_ok}, |phi^2 - I| {worst:.1e} <= 1e-8, "
            f"{len(low)} low builds lambda-free={s1_ok}")


# -- 10: documented scope ------------------------------------------------------------------


def test_10_documented_scope():
    readme = Path(__file__).parent.parent / "README.md"
    text = readme.read_text(encoding="utf-8") if readme.exists() else ""
    has_scope = "## Scope" in text
    has_exclusion = "not certified" in text
    ok = has_scope and has_exclusion
    verdict(10, "README states the certified scope and its exclusions", ok,
            f"scope section={has_scope}, exclusion note={has_exclusion}")
