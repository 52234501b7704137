"""Weierstrass-type builder for extended solutions into U_n.

An extended solution of height r is assembled as exp(C) * gamma, where
gamma = diag(lambda^{k_1}, ..., lambda^{k_n}) for a non-increasing
exponent vector with k_n = 0 and

    C = C_0 + lambda C_1 + ... + lambda^{r-1} C_{r-1},

each C_i strictly graded-positive for the grading k_a - k_b of matrix
positions.  The grade-(i+1) block of C_i is free holomorphic input; all
higher blocks are forced, slot by slot, by the requirement that the
lambda^i coefficient of (exp C)^{-1} (exp C)_z has no component in
grades i+2, ..., r.  Each forced entry is a single rational
integration, so the construction stays inside exact arithmetic.

C, exp C and (exp C)^{-1} (exp C)_z are matrix polynomials in lambda and
are all held as exact `LoopMat`s; the finite series for exp and for the
log derivative are written with the loop algebra itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from . import exactmat
from .errors import (
    DegenerateFrame,
    EmptySubset,
    InvalidType,
    NonRationalAntiderivative,
    NotCanonical,
    NotNilpotent,
    OddSlotData,
)
from .loops import LoopMat, _as_entry
from .roots import exponents_from_marks, marks_from_exponents
from .scalars import GaussianRational, Poly, RatFun, integrate_rational


def _dz(c):
    """Entrywise z-derivative of an exact loop."""
    blocks = [[[e.derivative() for e in row] for row in m] for m in c.coeffs]
    return LoopMat("exact", c.n, c.lo, blocks)


def left_log_derivative(c):
    """(exp C)^{-1} d/dz exp C for a strictly graded (nilpotent) exact loop C.

    Returns an exact LoopMat; the series
    sum_k (-1)^k/(k+1)! (ad C)^k C_z terminates by nilpotency.
    """
    term = total = _dz(c)
    for k in range(1, 2 * c.n + 1):
        term = c @ term - term @ c
        if term.is_zero():
            return total
        coeff = RatFun.const(GaussianRational(Fraction((-1) ** k, factorial(k + 1))))
        total = total + term.scale(coeff)
    raise NotNilpotent("ad-C series did not terminate")


def exp_nilpotent(c):
    """exp C as the finite series sum_k C^k / k! of a nilpotent exact loop C."""
    result = term = LoopMat.identity(c.n)
    for k in range(1, 2 * c.n + 1):
        term = term @ c
        if term.is_zero():
            return result
        inv_fact = RatFun.const(GaussianRational(Fraction(1, factorial(k))))
        result = result + term.scale(inv_fact)
    raise NotNilpotent("matrix is not nilpotent")


# -- extended solution specifications ------------------------------------------

def _check_exponents(n, exponents):
    k = tuple(int(x) for x in exponents)
    if len(k) != n:
        raise InvalidType(f"expected {n} exponents, got {len(k)}")
    marks_from_exponents(k)  # validates monotonicity and k_n = 0
    return k


def graded_positions(exponents, j):
    """Matrix positions (a, b) of grade j, row-major."""
    n = len(exponents)
    return [
        (a, b)
        for a in range(n)
        for b in range(n)
        if exponents[a] - exponents[b] == j
    ]


def free_slot_layout(exponents, even_only=False):
    """Ordered free slots: (lambda power i, positions of grade i+1)."""
    r = exponents[0]
    layout = []
    for i in range(r):
        if even_only and i % 2 == 1:
            continue
        pos = graded_positions(exponents, i + 1)
        if pos:
            layout.append((i, pos))
    return layout


@dataclass
class ExtendedSolutionSpec:
    """Solved Weierstrass data: everything needed to write exp(C) * gamma."""

    n: int
    exponents: tuple
    c_slots: dict = field(default_factory=dict)  # (i, j) -> RatFun matrix
    even_only: bool = False
    strict_grading: bool = True

    @property
    def height(self):
        return self.exponents[0]

    def c_lambda(self):
        """C = sum of lambda^i C^j_i over the graded slots, as an exact LoopMat."""
        c = LoopMat.exact([exactmat.zeros(self.n)])
        for (i, _), m in sorted(self.c_slots.items()):
            c = c + LoopMat("exact", self.n, i, [m])
        return c

    def slot(self, i, j):
        return self.c_slots.get((i, j)) or exactmat.zeros(self.n)


def build_from_free_functions(n, exponents, free, even_only=False):
    """Solve the triangular integration conditions for the given free data.

    free: flat list of RatFun-coercible values, one per entry of each free
    slot c^{i+1}_i (slots ordered by lambda power, entries row-major).
    Forced slots c^j_i (j >= i+2) are obtained by integrating the
    appropriate component of the left logarithmic derivative; integration
    constants are set to zero.
    """
    exponents = _check_exponents(n, exponents)
    r = exponents[0]
    layout = free_slot_layout(exponents, even_only)
    want = sum(len(pos) for _, pos in layout)
    if len(free) != want:
        raise InvalidType(
            f"exponents {exponents} require {want} free functions, got {len(free)}"
        )
    values = [_as_entry(v) for v in free]
    slots = {}
    at = 0
    for i, pos in layout:
        m = exactmat.zeros(n)
        for a, b in pos:
            m[a][b] = values[at]
            at += 1
        if not exactmat.mat_is_zero(m):
            slots[(i, i + 1)] = m

    spec = ExtendedSolutionSpec(
        n=n, exponents=exponents, c_slots=slots, even_only=even_only
    )
    for i in range(0, max(r - 1, 0)):
        if even_only and i % 2 == 1:
            continue
        for j in range(i + 2, r + 1):
            pos = graded_positions(exponents, j)
            if not pos:
                continue
            rhs = left_log_derivative(spec.c_lambda()).coeff(i)
            m = exactmat.zeros(n)
            nonzero = False
            for a, b in pos:
                entry = rhs[a][b]
                if entry.is_zero():
                    continue
                try:
                    m[a][b] = integrate_rational(-entry)
                except NonRationalAntiderivative as exc:
                    raise NonRationalAntiderivative(
                        exc.log_numerator,
                        exc.log_denominator,
                        exc.poles,
                        exc.residues,
                        context=f"slot c^{j}_{i} entry ({a + 1},{b + 1})",
                    ) from exc
                nonzero = True
            if nonzero:
                spec.c_slots[(i, j)] = m
    return spec


def assemble_loop(spec):
    """The polynomial loop exp(C) * diag(lambda^{k_1}, ..., lambda^{k_n})."""
    return exp_nilpotent(spec.c_lambda()) @ LoopMat.diag_powers(spec.exponents)


def closed_form_full_flag_C0(n, f_components):
    """Unipotent factor of the full-flag solution attached to a frame.

    Columns of the frame are the derivatives (f^(n-1), ..., f', f) of the
    component vector f.  The result U is the unique unit upper-triangular
    matrix with U^{-1} * frame lower triangular, so that
    frame * gamma and U * gamma agree as lifts.
    """
    f = [_as_entry(c) for c in f_components]
    if len(f) != n:
        raise InvalidType(f"expected {n} frame components")
    cols = [list(f)]
    for _ in range(n - 1):
        cols.append([e.derivative() for e in cols[-1]])
    cols.reverse()  # highest derivative first
    a = [[cols[c][row] for c in range(n)] for row in range(n)]
    # Reverse both index orders: unit-upper * lower becomes unit-lower * upper,
    # which is plain LU without pivoting.
    b = [[a[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    lower = exactmat.eye(n)
    upper = [row[:] for row in b]
    for k in range(n):
        pivot = upper[k][k]
        if pivot.is_zero():
            raise DegenerateFrame(f"frame minor {k + 1} vanishes identically")
        for i in range(k + 1, n):
            factor = upper[i][k] / pivot
            lower[i][k] = factor
            for j in range(k, n):
                upper[i][j] = upper[i][j] - factor * upper[k][j]
    return [[lower[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]


def full_flag_exponents(n):
    return tuple(range(n - 1, -1, -1))


def veronese_solution(n):
    """Full-flag spec of the rational normal curve: C = z * (shift matrix)."""
    if n < 2:
        raise InvalidType("need n >= 2")
    exponents = full_flag_exponents(n)
    free = []
    for i, pos in free_slot_layout(exponents):
        for _ in pos:
            free.append(RatFun.x() if i == 0 else RatFun.zero())
    return build_from_free_functions(n, exponents, free)


def veronese_frame(n):
    """Component vector (z^{n-1}/(n-1)!, ..., z, 1) of the rational normal curve."""
    comps = []
    for k in range(n - 1, -1, -1):
        coeffs = [GaussianRational.zero()] * k + [
            GaussianRational(Fraction(1, factorial(k)))
        ]
        comps.append(RatFun(Poly(coeffs)))
    return comps


def two_projector_frame():
    """Exact frame (p + (1/lambda) p_perp)(pi + lambda pi_perp) in U_2.

    p projects onto the first coordinate line, pi onto span(1, z); the
    Gram factor 1 + z^2 is kept formal so the entries stay rational.
    The product has lambda-width 2 even though the underlying harmonic
    map admits a width-1 representative.
    """
    one, zero, z = RatFun.one(), RatFun.zero(), RatFun.x()
    p = exactmat.projector_const([[one, zero]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    left = LoopMat("exact", 2, -1, [p_perp, p])
    gram = one + z * z
    pi = [[one / gram, z / gram], [z / gram, z * z / gram]]
    pi_perp = exactmat.mat_sub(exactmat.eye(2), pi)
    right = LoopMat("exact", 2, 0, [pi, pi_perp])
    return left @ right


def transform_subset(spec, subset):
    """Keep only the flag steps in `subset` (1-based mark positions).

    The unipotent data is reused verbatim; only the homomorphism factor
    changes.  The result still satisfies the extended-solution conditions
    but is in general no longer graded by its own exponent vector, so
    strict_grading is cleared.
    """
    marks = marks_from_exponents(spec.exponents)
    if any(m not in (0, 1) for m in marks):
        raise NotCanonical(f"exponents {spec.exponents} are not canonical")
    support = {i + 1 for i, m in enumerate(marks) if m == 1}
    chosen = set(int(j) for j in subset)
    if not chosen:
        raise EmptySubset("subset of marks must be nonempty")
    if not chosen <= support:
        raise InvalidType(f"subset {sorted(chosen)} not within marks {sorted(support)}")
    new_marks = tuple(1 if i + 1 in chosen else 0 for i in range(len(marks)))
    new_exponents = exponents_from_marks(new_marks)
    return ExtendedSolutionSpec(
        n=spec.n,
        exponents=new_exponents,
        c_slots={k: [row[:] for row in m] for k, m in spec.c_slots.items()},
        even_only=spec.even_only,
        strict_grading=(new_exponents == spec.exponents),
    )


def even_grassmannian_build(n, exponents, free):
    """T-invariant build: only even lambda powers carry data.

    The free entries cover the slots c^{2m+1}_{2m} alone; odd lambda
    powers are absent, which makes the assembled loop satisfy
    Psi(-lambda) = Psi(lambda) * gamma(-1) exactly.
    """
    exponents = _check_exponents(n, exponents)
    even_layout = free_slot_layout(exponents, even_only=True)
    want = sum(len(pos) for _, pos in even_layout)
    if len(free) != want:
        full = sum(len(pos) for _, pos in free_slot_layout(exponents))
        hint = (
            " (this looks like data for the odd slots too)"
            if len(free) == full and full != want
            else ""
        )
        raise OddSlotData(
            f"even build of {exponents} takes {want} free functions, got {len(free)}{hint}"
        )
    return build_from_free_functions(n, exponents, free, even_only=True)


@dataclass(frozen=True)
class WeierstrassData:
    """Strictly graded-positive matrix V with Phi^{-1} Phi_z = (1/lambda) V."""

    V: tuple  # n x n tuple-of-tuples of RatFun

    def matrix(self):
        return [list(row) for row in self.V]
