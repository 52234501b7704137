"""Independent checkers for built solutions, loops, and extracted maps.

Everything here re-derives its verdict from scratch: the graded conditions
are recomputed from the assembled potential, harmonicity is tested by
Richardson-extrapolated finite differences on the extracted map, and
T-invariance is checked on the exact loop itself.  Failures become report
entries, not exceptions, so negative controls can be exercised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exactmat
from .errors import NotS1Invariant, StepBelowResolution
from .factorization import _as_loop, bruhat_cell, harmonic_map_at
from .loops import CompiledLoop, LoopMat
from .roots import marks_from_exponents
from .weierstrass import ExtendedSolutionSpec, _assemble_with_inverse, left_log_derivative

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


def _loop_inverse_powers(loop: LoopMat):
    """Lowest and highest lambda powers of L^-1 for a bare exact loop L,
    read off two cell reductions.

    `_smith_diagonal` reduces lambda^(-lo) L to D = P lambda^(-lo) L Q with
    P, Q unimodular over F[lambda]: it uses only swaps and row and column
    additions.  So lambda^k L^-1 = lambda^(k - lo) Q D^-1 P is polynomial
    exactly when lambda^(k - lo) D^-1 is.  D's diagonal holds multiples of
    lambda^(e - lo) for e in the cell of L, so lo L^-1 = -max cell(L).  The
    same argument on L(1/lambda), whose inverse is L^-1(1/lambda), gives
    hi L^-1 = max cell(L(1/lambda)).  A singular loop raises
    NotInvertibleLoop and a loop whose det is not a lambda monomial
    NonMonomialDeterminant, naming the powers of det L.
    """
    reversed_loop = LoopMat("exact", loop.n, -loop.hi, loop.coeffs[::-1])
    return -max(bruhat_cell(loop).exponents), max(bruhat_cell(reversed_loop).exponents)


def _numbers(loop: LoopMat, lo_inv: int, hi_inv: int, spec=None) -> UnitonNumbers:
    """The report from the width's ingredients.  The highest root of
    A_(n-1) is the sum of the simple roots, so the group bound, its height,
    is n - 1, and the height under canonical marks (each nonzero mark a 1)
    is the number of nonzero marks; both hold at n = 1, with no roots."""
    w = max(loop.hi + hi_inv, -(loop.lo + lo_inv))
    bound = loop.n - 1
    height = canonical = attains = None
    if spec is not None:
        height = spec.height
        canonical = sum(1 for m in marks_from_exponents(spec.exponents) if m)
        attains = w == height
    return UnitonNumbers(
        ad_width=w,
        group_bound=bound,
        height=height,
        canonical_bound=canonical,
        attains_height=attains,
        within_group_bound=w <= bound,
    )


def _spec_numbers(spec: ExtendedSolutionSpec, psi: LoopMat, inverse: LoopMat) -> UnitonNumbers:
    """The report for Psi = exp(C) gamma, from Psi and exp(-C) as
    `_assemble_with_inverse` gives them.  Row a of Psi^-1 = gamma^-1 exp(-C)
    is row a of exp(-C) moved down k_a powers, so no determinant is needed."""
    powers = [
        p - spec.exponents[a]
        for p, m in enumerate(inverse.coeffs, inverse.lo)
        for a, row in enumerate(m)
        if not all(e.is_zero() for e in row)
    ]
    return _numbers(psi, min(powers), max(powers), spec)


def uniton_number_report(obj) -> UnitonNumbers:
    """Conjugation width of the loop against the structural bounds.

    The width of X -> L X L^-1 in lambda powers is
    max(hi L + hi L^-1, -(lo L + lo L^-1)): entry (i,j,r,s) of the lambda^k
    coefficient of Ad L is the lambda^k coefficient of L_ij (L^-1)_rs, and
    over the field Q(i)(z) a product of nonzero Laurent polynomials keeps
    the extreme powers of its factors.  It is computed exactly with z
    symbolic, so it is the generic value.  For built specs it must equal
    the top exponent; for any n x n loop it is bounded by the width of the
    full-flag geodesic, n - 1.
    """
    if isinstance(obj, ExtendedSolutionSpec):
        return _spec_numbers(obj, *_assemble_with_inverse(obj))
    loop = _as_loop(obj)
    return _numbers(loop, *_loop_inverse_powers(loop))


def map_sampler(spec_or_loop):
    """Map an array of z to the stacked harmonic-map values, (Z, n, n).

    The loop is assembled and compiled once; each call evaluates every z in
    one batched `harmonic_map_at`.  The whole batch splits by its uniton
    projections, exact for algebraic loops, so the split never changes
    with z and the sampled map is smooth down to rounding, as finite
    differencing needs.  A sample whose det is not a lambda monomial, whose
    peel ranks are not separated or miss the det's power, or whose value
    is more than 1e-9 from unitary raises NoConvergence naming its z.
    """
    compiled = CompiledLoop(_as_loop(spec_or_loop))

    def sample(zs):
        return harmonic_map_at(compiled, zs)

    return sample


def _stencil(z0, h: float):
    """The 20 points `_fd_residual` reads for step h, in its order: for each
    ring point w = z0 + h, z0 - h, z0 + ih, z0 - ih, the points w, w + h,
    w - h, w + ih, w - ih, as that arithmetic rounds them."""
    ring = (z0 + h, z0 - h, z0 + 1j * h, z0 - 1j * h)
    return [p for w in ring for p in (w, w + h, w - h, w + 1j * h, w - 1j * h)]


def _check_resolution(z0, h: float):
    """StepBelowResolution when a step of either stencil rounds onto its
    centre: w + s, w - s, w + is or w - is equals w for s = h or h/2 and w
    the node or a ring point, where the differences would read 0 and any
    map would pass."""
    for s in (h, h / 2):
        for w in (z0, z0 + s, z0 - s, z0 + 1j * s, z0 - 1j * s):
            if w in (w + s, w - s, w + 1j * s, w - 1j * s):
                raise StepBelowResolution(
                    f"a stencil point at step {s!r} rounds onto its centre {w} "
                    f"at grid node {z0} (h = {h!r})"
                )


def _fd_residual(values, h: float):
    """The (2, n, n) residual matrices d_zbar(phi^-1 phi_z) + d_z(phi^-1
    phi_zbar) at z0 by central differences with steps h and h/2, from phi
    at `_stencil(z0, h) + _stencil(z0, h / 2)`, (40, n, n): both steps in
    one pass, with the 8 ring inverses in one call."""
    v = values.reshape((2, 4, 5) + values.shape[1:])
    step = np.array([h, h / 2])[:, None, None, None]  # broadcast over (2, 4, n, n)
    dx = v[:, :, 1] - v[:, :, 2]
    dy = v[:, :, 3] - v[:, :, 4]
    inv = np.linalg.inv(v[:, :, 0])
    a = inv @ ((dx - 1j * dy) / (4 * step))  # phi^-1 phi_z at the ring
    b = inv @ ((dx + 1j * dy) / (4 * step))  # phi^-1 phi_zbar at the ring
    d_zbar_a = ((a[:, 0] - a[:, 1]) + 1j * (a[:, 2] - a[:, 3])) / (4 * step[:, 0])
    d_z_b = ((b[:, 0] - b[:, 1]) - 1j * (b[:, 2] - b[:, 3])) / (4 * step[:, 0])
    return d_zbar_a + d_z_b


def harmonicity_residual(sampler, grid, h: float = 1e-3) -> float:
    """Max Frobenius norm of d_zbar(phi^-1 phi_z) + d_z(phi^-1 phi_zbar).

    Central differences give the residual matrix R(s) at step s with an
    s^2 step error; the node residual is the norm of the
    Richardson-extrapolated matrix (4 R(h/2) - R(h)) / 3, which is fourth
    order in h.  The stencils of both steps, typically 21 to 27 distinct
    points (points that round to the same z are sampled once), go to the
    sampler in one call per node: it maps a 1-D array of z to a (Z, n, n)
    array.  R(h) and R(h/2) come out of one `_fd_residual` pass.  A
    non-finite node residual makes the result non-finite.  A step below the
    float resolution at a node raises StepBelowResolution.
    """
    node_residuals = []
    for z0 in grid:
        _check_resolution(z0, h)
        points = _stencil(z0, h) + _stencil(z0, h / 2)
        distinct = {}
        where = [distinct.setdefault(w, len(distinct)) for w in points]
        values = np.asarray(sampler(np.array(list(distinct), dtype=complex)))
        if values.ndim != 3 or values.shape[0] != len(distinct):
            raise ValueError(
                f"sampler returned shape {values.shape} for {len(distinct)} points; "
                "expected a (Z, n, n) stack"
            )
        coarse, fine = _fd_residual(values[where], h)
        node_residuals.append(float(np.linalg.norm((4 * fine - coarse) / 3)))
    return float(np.max(node_residuals, initial=0.0))


def check_T_invariant(loop: LoopMat) -> VerificationReport:
    """Is the exact based loop fixed by lambda -> -lambda up to re-basing?

    Checks twist_T(loop) == loop exactly; when fixed, the value at
    lambda = -1 must square to the identity, which places the extracted map
    in an inner symmetric space.  A numeric loop raises ExactKindUnsupported.
    """
    fixed = loop.twist_T() == loop
    ev_fixed = "exact equality" if fixed else "twist changes the loop"
    checks = [CheckEntry("fixed by the twist", fixed, ev_fixed)]
    if fixed:
        phi = loop.evaluate_exact(-1)
        ok = exactmat.mat_eq(exactmat.mat_mul(phi, phi), exactmat.eye(loop.n))
        ev = "phi(-1)^2 = I exactly" if ok else "phi(-1)^2 differs from I"
        checks.append(CheckEntry("value at -1 is an involution", ok, ev))
    return VerificationReport("twist invariance", tuple(checks))
