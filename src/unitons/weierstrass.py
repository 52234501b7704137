"""Weierstrass-type builder for extended solutions into U_n.

An extended solution of height r is assembled as exp(C) * gamma, where
gamma = diag(lambda^{k_1}, ..., lambda^{k_n}) for a non-increasing
exponent vector with k_n = 0 and

    C = C_0 + lambda C_1 + ... + lambda^{r-1} C_{r-1},

each C_i strictly graded-positive for the grading k_a - k_b of matrix
positions.  The grade-(i+1) block of C_i is free holomorphic input; all
higher blocks are forced, grade by grade, by the requirement that the
lambda^i coefficient of (exp C)^{-1} (exp C)_z has no component in
grades i+2, ..., r.  Grades and lambda powers add under products, so the
grade-j part of that series involves only lower grades, and one series
fixes every forced slot of grade j.  Each forced entry is a single
rational integration, so the construction stays inside exact arithmetic.

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
    InvalidType,
    NonRationalAntiderivative,
    NotNilpotent,
    OddSlotData,
)
from .loops import LoopMat, shift_columns
from .roots import marks_from_exponents
from .scalars import GaussianRational, RatFun, integrate_rational


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


def _exp_terms(c):
    """The nonzero terms C^k / k!, k >= 1, of exp C for a nilpotent exact
    loop C; NotNilpotent when C^(2n) is not zero."""
    terms = []
    power = LoopMat.identity(c.n)
    for k in range(1, 2 * c.n + 1):
        power = power @ c
        if power.is_zero():
            return terms
        terms.append(power.scale(RatFun.const(GaussianRational(Fraction(1, factorial(k))))))
    raise NotNilpotent("matrix is not nilpotent")


def exp_nilpotent(c):
    """exp C as the finite series sum_k C^k / k! of a nilpotent exact loop C."""
    return sum(_exp_terms(c), LoopMat.identity(c.n))


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


def _forced_entry(rhs, i, j, a, b):
    """The antiderivative of -rhs, naming slot c^j_i entry (a, b) in a
    logarithmic obstruction."""
    try:
        return integrate_rational(-rhs)
    except NonRationalAntiderivative as exc:
        raise NonRationalAntiderivative(
            exc.log_numerator, exc.log_denominator, exc.poles, exc.residues,
            context=f"slot c^{j}_{i} entry ({a + 1},{b + 1})",
        ) from exc


def build_from_free_functions(n, exponents, free, even_only=False):
    """Solve the triangular integration conditions for the given free data.

    free: flat list of RatFun-coercible values, one per entry of each free
    slot c^{i+1}_i (slots ordered by lambda power, entries row-major).
    Forced slots c^j_i (j >= i+2) are obtained by integrating the
    appropriate component of the left logarithmic derivative; integration
    constants are set to zero.

    Slots are solved in grade order: the grade-j, power-i component of the
    log-derivative series involves only slots of grade < j and power <= i,
    so one series per grade fixes all of that grade's forced slots.  When
    several slots have a logarithmic obstruction, the error names the one
    of lowest grade, then lowest power.
    """
    exponents = _check_exponents(n, exponents)
    want = sum(len(pos) for _, pos in free_slot_layout(exponents, even_only))
    if len(free) != want:
        raise InvalidType(
            f"exponents {exponents} require {want} free functions, got {len(free)}"
        )
    values = iter([RatFun(v) for v in free])
    spec = ExtendedSolutionSpec(n=n, exponents=exponents, even_only=even_only)
    for j in range(1, exponents[0] + 1):
        pos = graded_positions(exponents, j)
        if not pos:
            continue
        rhs = left_log_derivative(spec.c_lambda()) if j > 1 else None
        for i in range(j):
            if even_only and i % 2:
                continue
            forced = rhs.coeff(i) if i < j - 1 else None
            m = exactmat.zeros(n)
            for a, b in pos:
                m[a][b] = (
                    next(values) if forced is None
                    else _forced_entry(forced[a][b], i, j, a, b)
                )
            if not exactmat.mat_is_zero(m):
                spec.c_slots[(i, j)] = m
    return spec


def _times_gamma(exp_c, exponents):
    loop = exp_c.times_diag_powers(exponents)
    loop.exponents = exponents
    return loop


def assemble_loop(spec):
    """The polynomial loop exp(C) * diag(lambda^{k_1}, ..., lambda^{k_n}),
    carrying the exponents k."""
    return _times_gamma(exp_nilpotent(spec.c_lambda()), spec.exponents)


def _assemble_with_inverse(spec):
    """`assemble_loop(spec)` and exp(-C) = gamma Psi^-1, from one series of
    powers of C: the terms of exp(-C) are those of exp C, odd ones negated."""
    exp_c = inverse = LoopMat.identity(spec.n)
    for k, term in enumerate(_exp_terms(spec.c_lambda()), 1):
        exp_c = exp_c + term
        inverse = inverse - term if k % 2 else inverse + term
    return _times_gamma(exp_c, spec.exponents), inverse


def assemble_numeric(exp_c, exponents):
    """The numeric twin of `assemble_loop`: exp(C) diag(lambda^k) from the
    (K, n, n) coefficient stack exp_c of exp C at one z, carrying k."""
    loop = LoopMat.numeric(shift_columns(exp_c, exponents))
    loop.exponents = tuple(exponents)
    return loop


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
