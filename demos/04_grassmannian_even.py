"""Even builds land in Grassmannians: twist fixedness and involutivity.

Restricting the potential to even lambda powers makes the based
extended solution fixed by the twist T(Phi)(lambda) =
Phi(-lambda) Phi(-1)^{-1}; the harmonic map then squares to the
identity, i.e. takes values in a Grassmannian sitting inside U_n.
For height <= 2 the even potential is forced to be lambda-free, so the
solution is literally circle-invariant.
"""

import numpy as np

from unitons import (
    GaussianRational,
    RatFun,
    assemble_loop,
    check_T_invariant,
    even_grassmannian_build,
    harmonic_map_at,
    uniton_factorize,
)


def main():
    z = RatFun.x()
    spec = even_grassmannian_build(
        4, (2, 1, 1, 0), [z, z * z, RatFun.one(), RatFun.zero() - z]
    )
    print("exponents", spec.exponents, " slots",
          sorted(spec.c_slots), " (all lambda-free)")

    report = check_T_invariant(assemble_loop(spec).based())
    print("twist check:", "pass" if report.passed else "FAIL")
    for entry in report.checks:
        print(f"  {entry.name}: {entry.evidence}")

    for w in (0.3 + 0.2j, -0.1 - 0.4j):
        phi = harmonic_map_at(spec, w)
        print(f"|phi({w})^2 - I| = {np.linalg.norm(phi @ phi - np.eye(4)):.2e}")

    print("\nprojector factors of the frame at z = 0.3+0.2j:")
    factors, _ = uniton_factorize(spec, 0.3 + 0.2j)
    for k, q in enumerate(factors, start=1):
        pi = q.coeff(0)  # pi + lambda pi_perp: the constant block is the projector
        rank = int(round(np.trace(pi).real))
        print(f"  Q_{k}: projector rank {rank},"
              f" idempotency {np.linalg.norm(pi @ pi - pi):.2e}")


if __name__ == "__main__":
    main()
