"""Independent checkers for built solutions, loops, and extracted maps.

Everything here re-derives its verdict from scratch: the graded conditions
are recomputed from the assembled potential, harmonicity is tested by finite
differences on the extracted map, and T-invariance is checked on the loop
itself.  Failures become report entries, not exceptions, so negative
controls can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactmat
from .errors import NotS1Invariant
from .factorization import harmonic_map_at
from .loops import LoopMat
from .roots import build_root_system, canonical_reduce, height_of, marks_from_exponents
from .weierstrass import ExtendedSolutionSpec, assemble_loop, left_log_derivative

__all__ = [
    "CheckEntry",
    "VerificationReport",
    "UnitonNumbers",
    "check_extended",
    "check_superhorizontal",
    "uniton_number_report",
    "map_sampler",
    "harmonicity_residual",
    "check_T_invariant",
]


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    evidence: str


@dataclass(frozen=True)
class VerificationReport:
    context: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def entry(self, name: str) -> CheckEntry:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def _grade_window_witnesses(mat, exponents, low: int, high: int):
    """Nonzero entries of an exact matrix with grade in [low, high]."""
    n = len(exponents)
    out = []
    for a in range(n):
        for b in range(n):
            if mat[a][b].is_zero():
                continue
            g = exponents[a] - exponents[b]
            if low <= g <= high:
                out.append(f"({a + 1},{b + 1}) grade {g}: {mat[a][b]}")
    return out


def check_extended(spec: ExtendedSolutionSpec) -> VerificationReport:
    """Recompute the graded loop conditions on the assembled potential.

    The lambda^i coefficient of the left logarithmic z-derivative must have
    no components of grade i+2 or higher, for 0 <= i <= r-2.  The conjugate
    conditions involve only the z-bar derivative of a potential holomorphic
    in z, so they hold identically.
    """
    r = spec.height
    lp = left_log_derivative(spec.c_lambda())
    checks = []
    for i in range(max(r - 1, 0)):
        mat = lp.coeff(i)
        if exactmat.mat_is_zero(mat):
            checks.append(
                CheckEntry(
                    f"lambda^{i} grades {i + 2}..{r}",
                    True,
                    "coefficient is identically zero",
                )
            )
            continue
        bad = _grade_window_witnesses(mat, spec.exponents, i + 2, r)
        checks.append(
            CheckEntry(
                f"lambda^{i} grades {i + 2}..{r}",
                not bad,
                "exact zero" if not bad else "; ".join(bad),
            )
        )
    checks.append(
        CheckEntry(
            "conjugate conditions",
            True,
            "satisfied by construction: potential is holomorphic in z",
        )
    )
    return VerificationReport(f"extended conditions, exponents {spec.exponents}", tuple(checks))


def check_superhorizontal(spec: ExtendedSolutionSpec) -> VerificationReport:
    """Exact derivative containment for a lambda-free potential.

    The potential must carry lambda^0 data only (NotS1Invariant otherwise);
    the left logarithmic derivative of its exponential must then lie in the
    first filtration slot, i.e. have no components of grade 2 or higher.
    """
    off = [key for key in spec.c_slots if key[0] != 0]
    if off:
        raise NotS1Invariant(
            f"potential carries lambda powers {sorted({k[0] for k in off})}"
        )
    mat = left_log_derivative(spec.c_lambda()).coeff(0)
    bad = _grade_window_witnesses(mat, spec.exponents, 2, max(spec.height, 2))
    checks = (
        CheckEntry("lambda-free potential", True, "only lambda^0 slots present"),
        CheckEntry(
            "derivative in first filtration slot",
            not bad,
            "exact zero in grades >= 2" if not bad else "; ".join(bad),
        ),
    )
    return VerificationReport(
        f"super-horizontality, exponents {spec.exponents}", checks
    )


@dataclass(frozen=True)
class UnitonNumbers:
    ad_width: int
    group_bound: int
    height: int | None
    canonical_bound: int | None
    attains_height: bool | None
    within_group_bound: bool


def uniton_number_report(obj) -> UnitonNumbers:
    """Conjugation width of the loop against the structural bounds.

    The width is computed exactly with z symbolic, so it is the generic
    value.  For built specs it must equal the top exponent; for any n x n
    loop it is bounded by the width of the full-flag geodesic, n - 1.
    """
    spec = obj if isinstance(obj, ExtendedSolutionSpec) else None
    loop = assemble_loop(spec) if spec is not None else obj
    if not isinstance(loop, LoopMat):
        raise TypeError("expected a LoopMat or an ExtendedSolutionSpec")
    w = loop.ad_width()
    n = loop.n
    if n >= 2:
        rs = build_root_system("A", n - 1)
        bound = height_of(rs, (1,) * (n - 1))
    else:
        bound = 0
    height = canonical = attains = None
    if spec is not None:
        height = spec.height
        if n >= 2:
            marks = marks_from_exponents(spec.exponents)
            canonical = height_of(rs, canonical_reduce(rs, marks))
        else:
            canonical = 0
        attains = w == height
    return UnitonNumbers(
        ad_width=w,
        group_bound=bound,
        height=height,
        canonical_bound=canonical,
        attains_height=attains,
        within_group_bound=w <= bound,
    )


def map_sampler(spec_or_loop, tol: float = 1e-9):
    """Map z to the harmonic-map value, assembling the loop once.

    Each sample factors with the finite rule of `harmonic_map_at` (n*d + 1
    block rows, exact for algebraic loops), so the row count never changes
    with z and the sampled map is smooth down to rounding, as finite
    differencing needs.  A sample whose spectral factor misses tol raises
    NoConvergence.
    """
    loop = (
        assemble_loop(spec_or_loop)
        if isinstance(spec_or_loop, ExtendedSolutionSpec)
        else spec_or_loop
    )

    def sample(z: complex):
        return harmonic_map_at(loop, z, tol=tol)

    return sample


def non_harmonic_control():
    """Sampler for diag(e^{i|z|^2}, 1): unitary-valued but not harmonic.

    phi^-1 phi_z = i zbar E_11, so the residual is identically 2.  Used
    to calibrate that the finite-difference residual actually detects
    failure, not just rounding noise.
    """

    def sample(z: complex):
        return np.array([[np.exp(1j * abs(z) ** 2), 0.0], [0.0, 1.0]], dtype=complex)

    return sample


def harmonicity_residual(sampler, grid, h: float = 1e-3) -> float:
    """Max Frobenius norm of d_zbar(phi^-1 phi_z) + d_z(phi^-1 phi_zbar).

    Central differences with step h on the sampled map; the sampler is
    called at 13 points per grid node (values are cached per node).  A
    non-finite node residual makes the result non-finite.
    """
    node_residuals = []
    for z0 in grid:
        cache = {}

        def phi(w):
            if w not in cache:
                cache[w] = np.asarray(sampler(w))
            return cache[w]

        def d_z(f, w):
            return (
                (f(w + h) - f(w - h)) - 1j * (f(w + 1j * h) - f(w - 1j * h))
            ) / (4 * h)

        def d_zbar(f, w):
            return (
                (f(w + h) - f(w - h)) + 1j * (f(w + 1j * h) - f(w - 1j * h))
            ) / (4 * h)

        def a_field(w):
            return np.linalg.inv(phi(w)) @ d_z(phi, w)

        def b_field(w):
            return np.linalg.inv(phi(w)) @ d_zbar(phi, w)

        resid = d_zbar(a_field, z0) + d_z(b_field, z0)
        node_residuals.append(float(np.linalg.norm(resid)))
    return float(np.max(node_residuals, initial=0.0))


def check_T_invariant(loop: LoopMat, tol: float = 1e-9) -> VerificationReport:
    """Is the based loop fixed by lambda -> -lambda up to re-basing?

    Checks twist_T(loop) == loop (exactly for exact loops, to tol for
    numeric ones); when fixed, the value at lambda = -1 must square to the
    identity, which places the extracted map in an inner symmetric space.
    """
    twisted = loop.twist_T()
    if loop.kind == "exact":
        fixed = twisted == loop
        ev_fixed = "exact equality" if fixed else "twist changes the loop"
    else:
        diff = (twisted - loop).max_coeff_norm()
        fixed = diff <= tol
        ev_fixed = f"max coefficient difference {diff:.3e}"
    checks = [CheckEntry("fixed by the twist", fixed, ev_fixed)]
    if fixed:
        if loop.kind == "exact":
            phi = loop.evaluate_exact(-1)
            sq = exactmat.mat_mul(phi, phi)
            ok = exactmat.mat_eq(sq, exactmat.eye(loop.n))
            ev = "phi(-1)^2 = I exactly" if ok else "phi(-1)^2 differs from I"
        else:
            phi = loop.evaluate(-1)
            d = float(np.linalg.norm(phi @ phi - np.eye(loop.n)))
            ok = d <= tol
            ev = f"|phi(-1)^2 - I| = {d:.3e}"
        checks.append(CheckEntry("value at -1 is an involution", ok, ev))
    return VerificationReport("twist invariance", tuple(checks))
