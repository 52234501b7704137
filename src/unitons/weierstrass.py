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


def _zero(n):
    return exactmat.zeros(n)


def _is_zero(m):
    return exactmat.mat_is_zero(m)


def _dz(m):
    return [[e.derivative() for e in row] for row in m]


def _scale(m, c):
    return exactmat.mat_scale(m, c)


# -- lambda-polynomial matrices as sparse dicts power -> matrix ----------------

def _lp_trim(d):
    return {p: m for p, m in d.items() if not _is_zero(m)}


def _lp_add(a, b):
    out = dict(a)
    for p, m in b.items():
        out[p] = exactmat.mat_add(out[p], m) if p in out else m
    return _lp_trim(out)


def _lp_mul(a, b, n):
    out = {}
    for p, ma in a.items():
        for q, mb in b.items():
            prod = exactmat.mat_mul(ma, mb)
            key = p + q
            out[key] = exactmat.mat_add(out[key], prod) if key in out else prod
    return _lp_trim(out)


def _lp_commutator(a, b, n):
    ab = _lp_mul(a, b, n)
    ba = _lp_mul(b, a, n)
    out = dict(ab)
    for p, m in ba.items():
        out[p] = exactmat.mat_sub(out[p], m) if p in out else exactmat.mat_scale(m, RatFun.const(-1))
    return _lp_trim(out)


def _lp_dz(a):
    return _lp_trim({p: _dz(m) for p, m in a.items()})


def _as_lp(c):
    """Accept either a plain matrix (treated as the lambda^0 slab) or a
    dict mapping lambda powers to matrices."""
    if isinstance(c, dict):
        return _lp_trim(c)
    return _lp_trim({0: c})


def left_log_derivative(c, n=None):
    """(exp C)^{-1} d/dz exp C for strictly graded (nilpotent) C.

    C may be a plain RatFun matrix or a dict {lambda power: matrix}.
    Returns a dict {lambda power: matrix}; the series
    sum_k (-1)^k/(k+1)! (ad C)^k C_z terminates by nilpotency.
    """
    c = _as_lp(c)
    if not c:
        return {}
    if n is None:
        n = len(next(iter(c.values())))
    term = _lp_dz(c)
    total = dict(term)
    for k in range(1, 2 * n + 1):
        term = _lp_commutator(c, term, n)
        if not term:
            return _lp_trim(total)
        coeff = RatFun.const(GaussianRational(Fraction((-1) ** k, factorial(k + 1))))
        total = _lp_add(total, {p: _scale(m, coeff) for p, m in term.items()})
    if term:
        raise NotNilpotent("ad-C series did not terminate")
    return _lp_trim(total)


def exp_nilpotent(c, n=None):
    """Finite exponential series of a nilpotent matrix (or lambda-dict)."""
    lp = _as_lp(c)
    want_matrix = not isinstance(c, dict)
    if n is None:
        n = len(c) if want_matrix else len(next(iter(lp.values())))
    result = {0: exactmat.eye(n)}
    term = {0: exactmat.eye(n)}
    for k in range(1, 2 * n + 1):
        term = _lp_mul(term, lp, n)
        if not term:
            break
        inv_fact = RatFun.const(GaussianRational(Fraction(1, factorial(k))))
        result = _lp_add(result, {p: _scale(m, inv_fact) for p, m in term.items()})
    else:
        if term:
            raise NotNilpotent("matrix is not nilpotent")
    if want_matrix:
        if any(p != 0 for p in result):
            raise NotNilpotent("lambda-graded input passed as plain matrix")
        return result[0]
    return result


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
        """C as {lambda power: matrix}, summing graded slots."""
        out = {}
        for (i, _), m in sorted(self.c_slots.items()):
            out[i] = exactmat.mat_add(out[i], m) if i in out else m
        return _lp_trim(out)

    def slot(self, i, j):
        return self.c_slots.get((i, j)) or _zero(self.n)


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
        m = _zero(n)
        for a, b in pos:
            m[a][b] = values[at]
            at += 1
        if not _is_zero(m):
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
            ell = left_log_derivative(spec.c_lambda(), n)
            rhs = ell.get(i)
            m = _zero(n)
            nonzero = False
            for a, b in pos:
                entry = rhs[a][b] if rhs is not None else RatFun.zero()
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
    e = exp_nilpotent(spec.c_lambda() or {0: _zero(spec.n)}, spec.n)
    top = max(e)
    coeffs = [e.get(p, _zero(spec.n)) for p in range(top + 1)]
    return LoopMat.exact(coeffs) @ LoopMat.diag_powers(spec.exponents)


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
