"""Independent references used only by the tests.

`GaussianRationalReference` is Q(i) the long way, on two fractions.Fraction
parts, each operation a handful of Fraction operations with their own gcds;
the production class keeps one integer triple per value and must agree with
it on every operation and printed form, and `parse_gaussian_reference`
reads the strings `GaussianRational.from_string` reads, each part through
Fraction.  `poly_sum_reference`, `poly_product_reference` and
`poly_derivative_reference` are polynomial arithmetic the long way: index by
index over the full length, through the public constructor, which coerces
and strips every result.  `ratfun_reference` is canonical
form the long way: one gcd of the whole numerator and denominator;
`ratfun_complex_value` evaluates one rational function at one point with
Python complex numbers.  The frame and root-system formulas are closed
forms that the builders and tables must agree with; `slot_by_slot_build`
is the builder the long way, one whole log-derivative series per forced
slot, and `seeded_free_poly` draws its free data from a seeded generator.  The flag unitarizer splits an invertible exact loop into its based
unitary factor and a disc-holomorphic factor by peeling one affine projector
per step: the image of the lowest lambda coefficient determines the next
projector, and the peel lowers the determinant winding, so the process stops.
It shares no code path with the production Grassmannian split, which is the
point: the two routes must agree on their overlap.  `ad_width_by_conjugation`
reads the width of Ad L off n^2 conjugations by an inverse that the caller
builds from the factors of L, so it shares no inversion with the package.
`cstar_flow_reference` is the C*-flow with its scaling written block by
block, as `cstar_flow` once computed it; the stacked scaling must round the
same way.  `fd_residual_reference` is the finite-difference residual one
step per call, as `verify._fd_residual` once computed it; the pass over both
steps must round the same way.  `projector_const` and `two_projector_frame` build exact test
loops from Hermitian projectors, `non_harmonic_control` is a map the
harmonicity residual must reject, and `grading` and
`max_uniton_for_space` read dimensions and heights off the root tables;
`canonical_reduce` and `exponents_from_marks` are marks arithmetic that
only the tests use.
`twistor_value` is the exact map value of a lambda-free spec read off the
flag of exp C by one exact Gram-Schmidt pass, for points where the flag
unitarizer's exact arithmetic is too slow.
"""

import math
import re
from fractions import Fraction
from math import factorial

import numpy as np

from unitons import exactmat
from unitons.errors import ExactKindUnsupported, InvalidType, UnrecognizedSubsystem
from unitons.factorization import bruhat_cell, unitarize
from unitons.loops import LoopMat
from unitons.roots import height_of, level
from unitons.scalars import GaussianRational, Poly, RatFun, integrate_rational
from unitons.weierstrass import (
    ExtendedSolutionSpec,
    exp_nilpotent,
    free_slot_layout,
    graded_positions,
    left_log_derivative,
)


class GaussianRationalReference:
    """Element of Q(i): re + im*i with two exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def conjugate(self):
        return GaussianRationalReference(self.re, -self.im)

    def _coerce(self, other):
        if isinstance(other, GaussianRationalReference):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRationalReference(other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRationalReference(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRationalReference(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRationalReference(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRationalReference(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = other.re * other.re + other.im * other.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRationalReference(
            (self.re * other.re + self.im * other.im) / d,
            (self.im * other.re - self.re * other.im) / d,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real element hashes as the equal int or Fraction
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_RATIO = r"-?\d+(?:/\d+)?"
_SCALAR = re.compile(rf"^\s*(?P<re>{_RATIO})?\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*i)?\s*$")
_PURE_IM = re.compile(rf"^\s*(?P<im>{_RATIO})\s*i\s*$")


def parse_gaussian_reference(text):
    """'p/q', 'p/q+r/si', 'p/q-r/si' or 'r/si' with Fraction parts; Fraction
    raises ZeroDivisionError at a zero denominator, and other text raises
    ValueError."""
    m = _PURE_IM.match(text)
    if m:
        return GaussianRationalReference(0, Fraction(m.group("im")))
    m = _SCALAR.match(text)
    if not m or (m.group("re") is None and m.group("im") is None):
        raise ValueError(f"cannot parse Gaussian rational {text!r}")
    re_part, im_part = Fraction(m.group("re") or 0), Fraction(m.group("im") or 0)
    return GaussianRationalReference(re_part, -im_part if m.group("sign") == "-" else im_part)


def poly_sum_reference(p, q, sign=1):
    """p + sign * q, one index at a time over the longer length."""
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly([p[k] + q[k] * sign for k in range(n)], p.field)


def poly_product_reference(p, q):
    """p * q as the full double sum over pairs of indices."""
    out = [p.field.zero()] * max(0, len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(out, p.field)


def poly_derivative_reference(p):
    return Poly([c * k for k, c in enumerate(p.coeffs)][1:], p.field)


def ratfun_reference(num, den):
    """(num, den) of num/den in canonical form: divide by the gcd of the
    full pair, then make the denominator monic; zero is 0/1."""
    if num.is_zero():
        return Poly.zero(), Poly.one()
    g = num.gcd(den)
    num, den = num // g, den // g
    scale = GaussianRational.one() / den.lead()
    return num * scale, den * scale


def ratfun_complex_value(f, z):
    """f(z) in Python complex arithmetic: Horner on numerator and
    denominator, then one complex division."""
    def horner(p):
        acc = 0j
        for c in reversed(p.coeffs):
            acc = acc * z + complex(c)
        return acc

    return horner(f.num) / horner(f.den)


# -- closed forms for the full-flag builder -------------------------------------


class DegenerateFrame(Exception):
    """A frame minor needed by the triangular normalization vanishes."""


def closed_form_full_flag_C0(n, f_components):
    """Unipotent factor of the full-flag solution attached to a frame.

    Columns of the frame are the derivatives (f^(n-1), ..., f', f) of the
    component vector f.  The result U is the unique unit upper-triangular
    matrix with U^{-1} * frame lower triangular, so that
    frame * gamma and U * gamma agree as lifts.
    """
    f = [RatFun(c) for c in f_components]
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


def veronese_frame(n):
    """Component vector (z^{n-1}/(n-1)!, ..., z, 1) of the rational normal curve."""
    comps = []
    for k in range(n - 1, -1, -1):
        coeffs = [GaussianRational.zero()] * k + [
            GaussianRational(Fraction(1, factorial(k)))
        ]
        comps.append(RatFun(Poly(coeffs)))
    return comps


def slot_by_slot_build(n, exponents, free, even_only=False):
    """Reference builder: one whole log-derivative series per forced slot.

    Free slots are filled first; each forced slot c^j_i (j >= i+2) is then
    solved in (power, grade) order from -(component (i, j)) of
    (exp C)^{-1} (exp C)_z recomputed for the C solved so far.  Integration
    constants are zero; errors carry no slot context.
    """
    exponents = tuple(exponents)
    r = exponents[0]
    values = iter([RatFun(v) for v in free])
    slots = {}
    for i, pos in free_slot_layout(exponents, even_only):
        m = exactmat.zeros(n)
        for a, b in pos:
            m[a][b] = next(values)
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
            for a, b in pos:
                if not rhs[a][b].is_zero():
                    m[a][b] = integrate_rational(-rhs[a][b])
            if not exactmat.mat_is_zero(m):
                spec.c_slots[(i, j)] = m
    return spec


def seeded_free_poly(rng, deg):
    """Polynomial of degree deg, Gaussian-rational coefficients with parts
    a/b, |a| <= 3, b in {1, 2}, and a nonzero leading coefficient."""
    def coeff():
        return GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                                Fraction(rng.randint(-3, 3), rng.randint(1, 2)))

    coeffs = [coeff() for _ in range(deg)]
    lead = coeff()
    while lead == GaussianRational(0):
        lead = coeff()
    return RatFun(Poly(coeffs + [lead]))


# -- index formulas over a root system (marks are non-negative integers) ------------


def grading(rs, marks):
    """Map i -> dim g^xi_i of the integer grading defined by the marks."""
    dims = {0: rs.rank}
    for r in rs.positive_roots:
        v = level(r, marks)
        dims[v] = dims.get(v, 0) + 1
        dims[-v] = dims.get(-v, 0) + 1
    return dims



def morse_index(rs, marks):
    return sum(
        level(r, marks) - 1 for r in rs.positive_roots if level(r, marks) != 0
    )


def big_cell_fiber_dim(rs, marks):
    """Dimension of the nilpotent coordinate patch: sum over 0 <= i < r of
    the dimensions of the strictly-higher graded parts."""
    r = height_of(rs, marks)
    return sum(min(level(p, marks), r) for p in rs.positive_roots)


def free_function_count(rs, marks):
    return sum(1 for p in rs.positive_roots if level(p, marks) >= 1)


def canonical_reduce(rs, marks):
    """Each nonzero mark becomes 1; marks are checked against rs."""
    marks = tuple(int(m) for m in marks)
    if len(marks) != rs.rank or any(m < 0 for m in marks):
        raise InvalidType(f"expected {rs.rank} non-negative marks, got {marks}")
    return tuple(1 if m > 0 else 0 for m in marks)


def odd_canonical_reduce(rs, marks):
    return tuple(int(m) % 2 for m in marks)


def exponents_from_marks(marks):
    """The U_n exponents k_i = m_i + ... + m_(n-1), k_n = 0, of A_(n-1) marks."""
    marks = tuple(int(m) for m in marks)
    return tuple(sum(marks[i:]) for i in range(len(marks))) + (0,)


def signature(record):
    """Even-part signature of a survey record: sorted component labels plus
    center dimension."""
    return (record.components, record.center_dim)


def max_uniton_for_space(records, components, center_dim):
    """r(N) = max height among survey records with the requested even-part
    signature."""
    key = (tuple(sorted(components)), center_dim)
    heights = [r.height for r in records if signature(r) == key]
    if not heights:
        raise UnrecognizedSubsystem(f"no survey record with signature {key}")
    return max(heights)


# -- exact Iwasawa split by projector peeling -------------------------------------


def column_space_basis(m):
    """Basis of the column span of an exact matrix, as a list of columns."""
    n = len(m)
    basis = []  # list of (pivot_index, column) with column normalized at pivot
    for j in range(n):
        col = [m[i][j] for i in range(n)]
        for piv, vec in basis:
            if not col[piv].is_zero():
                f = col[piv]
                col = [c - f * v for c, v in zip(col, vec)]
        piv = next((i for i, c in enumerate(col) if not c.is_zero()), None)
        if piv is None:
            continue
        inv = RatFun.one() / col[piv]
        basis.append((piv, [c * inv for c in col]))
    return [vec for _, vec in basis]


def flag_unitarize(psi: LoopMat):
    """Exact Iwasawa split of a z-free exact loop.

    Returns (unitary, plus): unitary is a product of projector factors
    pi + lambda*(1 - pi) times a lambda power, takes the value I at
    lambda = 1, and plus has powers >= 0 with invertible constant term.
    psi == unitary @ plus exactly.
    """
    if psi.kind != "exact":
        raise ExactKindUnsupported("flag unitarizer needs an exact loop")
    n = psi.n
    winding = sum(bruhat_cell(psi).exponents)  # det psi = c lambda^winding
    work = psi
    shift = work.lo
    if shift:
        work = work.shift(-shift)
    unitary = LoopMat.identity(n).shift(shift)
    budget = winding - n * shift  # each peel removes at least one power
    steps = 0
    while True:
        cols = column_space_basis(work.coeff(work.lo))
        if len(cols) == n:
            break
        pi = projector_const(cols)
        pi_perp = exactmat.mat_sub(exactmat.eye(n), pi)
        factor = LoopMat("exact", n, 0, [pi, pi_perp])
        # (pi + lambda pi_perp)^-1 = pi + lambda^-1 pi_perp; the lambda^-1
        # term annihilates the old constant coefficient, so powers stay >= 0
        inv = LoopMat("exact", n, -1, [pi_perp, pi])
        unitary = unitary @ factor
        work = inv @ work
        steps += 1
        assert steps <= budget, "projector peeling failed to terminate"
    return unitary, work


def twistor_value(spec: ExtendedSolutionSpec, z):
    """Exact phi = sum_j (-1)^j (Pi_j - Pi_(j-1)) of a lambda-free spec at a
    Gaussian-rational z, Pi_j the projector onto the flag
    F_j = exp C span{e_b : k_b <= j} (Pi_(-1) = 0): the twistor formula,
    with no loop split and no floats.

    One exact Gram-Schmidt pass over Q(i) takes the columns a_b of exp C at
    z in increasing k_b and makes each orthogonal to those before it, v_b;
    the v_b with k_b <= j span F_j, so Pi_j - Pi_(j-1) is the sum of the
    P_b = v_b v_b* / (v_b* v_b) over k_b = j.  The P_b add up to I, so phi
    = I - 2 sum of P_b over odd k_b, Hermitian: its lower triangle is the
    conjugate of its upper one."""
    assert all(i == 0 for i, _ in spec.c_slots), "the spec is not lambda-free"
    a = exp_nilpotent(spec.c_lambda()).at_z(z).coeffs[0]
    n, k = spec.n, spec.exponents
    zero = GaussianRational.zero()
    odd = [[zero] * n for _ in range(n)]  # upper triangle of the sum over odd k_b
    done = []  # (v_b, conj(v_b), v_b* v_b) so far
    for b in sorted(range(n), key=lambda b: k[b]):
        col = [a[i][b].const_value() for i in range(n)]
        v = col
        for u, u_bar, norm in done:
            c = sum((x * y for x, y in zip(u_bar, col)), zero) / norm
            v = [x - c * y for x, y in zip(v, u)]
        v_bar = [x.conjugate() for x in v]
        norm = sum((x * y for x, y in zip(v_bar, v)), zero)
        done.append((v, v_bar, norm))
        if k[b] % 2:
            for i in range(n):
                w = v[i] / norm
                odd[i][i:] = [p + w * y for p, y in zip(odd[i][i:], v_bar[i:])]
    phi = exactmat.zeros(n)
    for i in range(n):
        for j in range(i, n):
            p = GaussianRational(int(i == j)) - odd[i][j] * 2
            phi[i][j], phi[j][i] = RatFun.const(p), RatFun.const(p.conjugate())
    return phi


def fd_residual_reference(values, h: float):
    """d_zbar(phi^-1 phi_z) + d_z(phi^-1 phi_zbar) at z0 by central
    differences with step h alone, from phi at `verify._stencil(z0, h)`,
    (20, n, n): one step per call, its own 4 ring inverses, as
    `verify._fd_residual` once computed each step."""
    v = values.reshape((4, 5) + values.shape[1:])
    dx = v[:, 1] - v[:, 2]
    dy = v[:, 3] - v[:, 4]
    inv = np.linalg.inv(v[:, 0])
    a = inv @ ((dx - 1j * dy) / (4 * h))  # phi^-1 phi_z at the ring
    b = inv @ ((dx + 1j * dy) / (4 * h))  # phi^-1 phi_zbar at the ring
    d_zbar_a = ((a[0] - a[1]) + 1j * (a[2] - a[3])) / (4 * h)
    d_z_b = ((b[0] - b[1]) - 1j * (b[2] - b[3])) / (4 * h)
    return d_zbar_a + d_z_b


def cstar_flow_reference(loop: LoopMat, t: float, z=None) -> LoopMat:
    """Unitary part of the numeric loop with lambda -> exp(-t) lambda, its
    columns rebalanced block by block: a Python power u**k per block, one
    1-D norm per block and column, and one product with diag(scale) per
    block.  The rebuilt loop keeps the exponents of a loop built from a
    spec, as `cstar_flow`'s does, so that both split it the same way."""
    u = math.exp(-t)
    blocks = [np.array(loop.coeff(k)) * u**k for k in range(loop.lo, loop.hi + 1)]
    scale = np.ones(loop.n)
    for j in range(loop.n):
        top = max(np.linalg.norm(b[:, j]) for b in blocks)
        if top > 0:
            scale[j] = 1.0 / top
    d = np.diag(scale)
    flowed = LoopMat.numeric([b @ d for b in blocks], loop.lo)
    flowed.exponents = loop.exponents
    return unitarize(flowed, z).unitary_part


def ad_width_by_conjugation(loop: LoopMat, inverse: LoopMat) -> int:
    """Largest |k| over the nonzero lambda^k coefficients of L E_jr L^-1.

    The caller builds L^-1 from the factors of L; it is checked exactly
    against L L^-1 = I.  Entry (i,s) of L E_jr L^-1 is L_ij (L^-1)_rs, so
    running over every elementary matrix E_jr reaches every entry of Ad L;
    the width is read off n^2 exact loop products.
    """
    n = loop.n
    assert loop @ inverse == LoopMat.identity(n), "inverse does not invert the loop"
    width = 0
    for j in range(n):
        for r in range(n):
            e = exactmat.zeros(n)
            e[j][r] = RatFun.one()
            image = loop @ LoopMat("exact", n, 0, [e]) @ inverse
            width = max(width, abs(image.lo), abs(image.hi))
    return width


# -- exact projector loops and a non-harmonic map ----------------------------------


def conj_transpose_const(a):
    """Conjugate transpose of a matrix of z-free RatFun entries."""
    n, m = len(a), len(a[0])
    out = exactmat.zeros(m, n)
    for i in range(n):
        for j in range(m):
            out[j][i] = a[i][j].conjugate_coefficients()
    return out


def projector_const(columns):
    """Hermitian projector onto the span of exact constant column vectors.

    `columns` is a list of length-n lists of z-free RatFun entries; returns
    the n x n projector B (B* B)^-1 B*.  Columns must be independent.
    """
    n = len(columns[0])
    b = [[columns[j][i] for j in range(len(columns))] for i in range(n)]
    bstar = conj_transpose_const(b)
    gram = exactmat.mat_mul(bstar, b)
    return exactmat.mat_mul(exactmat.mat_mul(b, exactmat.mat_inv(gram)), bstar)


def two_projector_frame():
    """Exact frame (p + (1/lambda) p_perp)(pi + lambda pi_perp) in U_2.

    p projects onto the first coordinate line, pi onto span(1, z); the
    Gram factor 1 + z^2 is kept formal so the entries stay rational.
    The product has lambda-width 2 even though the underlying harmonic
    map admits a width-1 representative.
    """
    one, zero, z = RatFun.one(), RatFun.zero(), RatFun.x()
    p = projector_const([[one, zero]])
    p_perp = exactmat.mat_sub(exactmat.eye(2), p)
    left = LoopMat("exact", 2, -1, [p_perp, p])
    gram = one + z * z
    pi = [[one / gram, z / gram], [z / gram, z * z / gram]]
    pi_perp = exactmat.mat_sub(exactmat.eye(2), pi)
    right = LoopMat("exact", 2, 0, [pi, pi_perp])
    return left @ right


def non_harmonic_control():
    """Sampler for diag(e^{i|z|^2}, 1): unitary-valued but not harmonic.

    phi^-1 phi_z = i zbar E_11, so the residual is identically 2.  Used
    to calibrate that the finite-difference residual actually detects
    failure, not just rounding noise.
    """

    def sample(zs):
        out = np.zeros((len(zs), 2, 2), dtype=complex)
        out[:, 0, 0] = np.exp(1j * np.abs(np.asarray(zs)) ** 2)
        out[:, 1, 1] = 1.0
        return out

    return sample
