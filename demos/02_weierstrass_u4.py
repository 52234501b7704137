"""Full-flag U_4 construction from six free rational functions.

The height-3 potential C = C_0 + lambda C_1 + lambda^2 C_2 has six free
entries (three in C_0, two in C_1, one in C_2); every other entry is a
single rational integration.  The script builds a spec from a concrete
choice, shows the forced entry e_1 and the differential it integrates,
runs the exact extended-solution check, reports the uniton number (the
conjugation width of Phi, which attains the height 3 = r(U_4)), and prints
the normal-form derivative matrix V with Phi^-1 Phi_z = (1/lambda) V.
"""

from fractions import Fraction

from unitons import (
    GaussianRational,
    Poly,
    RatFun,
    big_cell_check,
    build_from_free_functions,
    check_extended,
    uniton_number_report,
)


def poly(*coeffs):
    return RatFun(Poly([GaussianRational(Fraction(c)) for c in coeffs]))


def main():
    z = RatFun.x()
    a1, a2, a3 = poly(0, 1), poly(0, 0, 1), poly(1, 1)   # grade-1 slots of C_0
    d1, d2 = poly(0, 2), poly(0, 0, 3)                   # grade-2 slots of C_1
    f1 = poly(5)                                         # grade-3 slot of C_2
    spec = build_from_free_functions(4, (3, 2, 1, 0), [a1, a2, a3, d1, d2, f1])

    print("free data  a =", [str(a) for a in (a1, a2, a3)])
    print("           d =", [str(d) for d in (d1, d2)], "  f1 =", f1)
    e1 = spec.c_slots[(1, 3)][0][3]
    print("forced e_1 =", e1)
    half = RatFun.const(GaussianRational(Fraction(1, 2)))
    rhs = half * (a1 * d2.derivative() - a1.derivative() * d2
                  + d1 * a3.derivative() - d1.derivative() * a3)
    print("e_1' == (a_1 d_2' - a_1' d_2 + d_1 a_3' - d_1' a_3)/2 :",
          e1.derivative() == rhs)

    report = check_extended(spec)
    print("extended-solution conditions:", "pass" if report.passed else "FAIL")
    for entry in report.checks:
        print(f"  {entry.name}: {entry.evidence}")

    numbers = uniton_number_report(spec)
    print(f"uniton number (ad width) {numbers.ad_width}, height {numbers.height},"
          f" group bound {numbers.group_bound}")

    v = big_cell_check(spec).V
    print("derivative matrix V (nonzero entries):")
    for a in range(4):
        for b in range(4):
            if not v[a][b].is_zero():
                print(f"  V[{a + 1}][{b + 1}] = {v[a][b]}")


if __name__ == "__main__":
    main()
