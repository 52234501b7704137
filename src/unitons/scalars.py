"""Exact scalar arithmetic: Gaussian rationals, polynomials, rational functions.

Everything here is exact.  GaussianRational is Q(i) stored as three ints
(a, b, d), meaning (a + b*i)/d, in canonical form: d > 0 and
gcd(a, b, d) = 1, with zero (0, 0, 1); each operation normalizes its result
with one gcd of the three ints (Knuth, TAOCP vol. 2, 4.5.1).  Poly is a
dense univariate polynomial over any field that exposes zero()/one()
classmethods plus the usual arithmetic dunders; it is used both for
polynomials in z over Q(i) and, elsewhere in the package, for polynomials in
lambda over the rational-function field.  RatFun is the fraction field of
Poly over Q(i) kept in canonical form: denominator monic and coprime to the
numerator.

Integration of rational functions uses the Horowitz-Ostrogradsky split: one
gcd and one square linear system, so no polynomial factorization is needed.
When the antiderivative has a logarithmic part the failure carries an exact
certificate (remainder over squarefree denominator) and, as a numeric aid,
approximate poles and residues.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd

import numpy as np

from .errors import NonRationalAntiderivative, PoleAtZ

__all__ = [
    "GaussianRational",
    "Poly",
    "RatFun",
    "integrate_rational",
    "hermite_reduce",
    "solve",
]


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*(?P<re>{_RAT})?\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*i)?\s*$"
)
_PURE_IM_RE = _re.compile(rf"^\s*(?P<im>{_RAT})\s*i\s*$")


class GaussianRational:
    """Element of Q(i), stored as three ints (a, b, d) meaning (a + b*i)/d.

    Invariant: d > 0 and gcd(a, b, d) = 1, so each value has exactly one
    triple, equality compares triples, and zero is (0, 0, 1).  Every
    operation ends in one gcd of the three ints.  `GaussianRational(re, im)`
    takes for each part whatever fractions.Fraction takes; `re` and `im` give
    the parts back as reduced Fractions.  A real element hashes as the equal
    int or Fraction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = Fraction(re), Fraction(im)
        # over the lcm of two reduced denominators the triple is canonical: a
        # prime dividing d, a and b would divide the numerator and the
        # denominator of one reduced part
        d = re.denominator // gcd(re.denominator, im.denominator) * im.denominator
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse 'p/q', 'p/q+r/si', 'p/q-r/si' or 'r/si' straight to the
        triple; a zero q or s raises ZeroDivisionError."""
        m = _PURE_IM_RE.match(s)
        if m:
            re_part, sign, im_part = None, "+", m.group("im")
        else:
            m = _SCALAR_RE.match(s)
            if not m or (m.group("re") is None and m.group("im") is None):
                raise ValueError(f"cannot parse Gaussian rational {s!r}")
            re_part, sign, im_part = m.group("re", "sign", "im")
        a, p = _ratio(re_part)
        b, q = _ratio(im_part)
        # a/p + (b/q) i = (aq + bp i) / pq
        return _reduced(a * q, -b * p if sign == "-" else b * p, p * q)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)

    def __add__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        norm = c * c + e * e
        if not norm:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + bi)/d / ((c + ei)/f) = f (a + bi)(c - ei) / (d (c^2 + e^2))
        return _reduced(f * (a * c + b * e), f * (b * c - a * e), self._d * norm)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        if type(other) is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # a real element hashes as the equal int or Fraction
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self.re, self.im))

    def __complex__(self):
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __str__(self):
        if not self._b:
            return str(self.re)
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """Wrap a triple already in canonical form."""
    r = _new(GaussianRational)
    r._a, r._b, r._d = a, b, d
    return r


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """Canonical triple of (a + b*i)/d for d > 0."""
    g = gcd(a, b, d)
    r = _new(GaussianRational)
    if g == 1:
        r._a, r._b, r._d = a, b, d
    else:
        r._a, r._b, r._d = a // g, b // g, d // g
    return r


def _ratio(text):
    """(p, q) of a matched 'p' or 'p/q', (0, 1) for None; q = 0 raises
    ZeroDivisionError."""
    num, _, den = (text or "0").partition("/")
    if den and not int(den):
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return int(num), int(den or 1)


def _coerce(other):
    if isinstance(other, GaussianRational):
        return other
    if isinstance(other, int):
        return _triple(int(other), 0, 1)
    if isinstance(other, Fraction):
        return _triple(other.numerator, 0, other.denominator)
    return NotImplemented


def _as_field(value, field):
    if isinstance(value, field):
        return value
    if field is GaussianRational and isinstance(value, (int, Fraction)):
        return GaussianRational(value, 0)
    raise TypeError(f"cannot coerce {value!r} into {field.__name__}")


class Poly:
    """Dense univariate polynomial over a field, lowest-degree first.

    The zero polynomial has empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "field")

    def __init__(self, coeffs=(), field=GaussianRational):
        cs = [_as_field(c, field) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)
        self.field = field

    @classmethod
    def zero(cls, field=GaussianRational):
        return cls((), field)

    @classmethod
    def one(cls, field=GaussianRational):
        return cls((field.one(),), field)

    @classmethod
    def x(cls, field=GaussianRational):
        return cls((field.zero(), field.one()), field)

    @classmethod
    def const(cls, c, field=GaussianRational):
        return cls((c,), field)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_const(self) -> bool:
        return len(self.coeffs) <= 1

    def __getitem__(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.field.zero()

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _wrap(self, coeffs):
        """Poly of a list computed here: its entries are already elements of
        the field, so only trailing zeros are stripped, with no coercion."""
        end = len(coeffs)
        while end and coeffs[end - 1].is_zero():
            end -= 1
        p = _new(Poly)
        p.coeffs = tuple(coeffs[:end])
        p.field = self.field
        return p

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else b[len(a):]
        return self._wrap(out)

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = [x - y for x, y in zip(a, b)]
        out += a[len(b):] if len(a) > len(b) else [-y for y in b[len(a):]]
        return self._wrap(out)

    def __mul__(self, other):
        if isinstance(other, Poly):
            a, b = self.coeffs, other.coeffs
            if not a or not b:
                return self._wrap([])
            # row i adds a_i * b into out[i:]; its last product opens a new slot
            out = [a[0] * y for y in b]
            head, last = b[:-1], b[-1]
            for i in range(1, len(a)):
                x = a[i]
                if x.is_zero():
                    out.append(x)
                    continue
                for j, y in enumerate(head, i):
                    out[j] = out[j] + x * y
                out.append(x * last)
            return self._wrap(out)
        try:
            c = _as_field(other, self.field)
        except TypeError:
            return NotImplemented
        return self._wrap([a * c for a in self.coeffs])

    __rmul__ = __mul__

    def divmod(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q = [self.field.zero()] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d = other.degree
        lead = other.lead()
        while len(r) - 1 >= d and r:
            k = len(r) - 1 - d
            c = r[-1] / lead
            q[k] = c
            for j in range(d + 1):
                r[k + j] = r[k + j] - c * other.coeffs[j]
            while r and r[-1].is_zero():
                r.pop()
        return self._wrap(q), self._wrap(r)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lead()
        return self._wrap([c / lead for c in self.coeffs])

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self) -> "Poly":
        return self._wrap(
            [self.coeffs[k] * k for k in range(1, len(self.coeffs))]
        )

    def evaluate(self, x):
        """Horner evaluation at a field element (or int/Fraction for Q(i))."""
        x = _as_field(x, self.field)
        acc = self.field.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_complex(self, x: complex) -> complex:
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + complex(c)
        return acc

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"({c})*x")
            else:
                parts.append(f"({c})*x^{k}")
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


_POLY_ZERO = Poly.zero()
_POLY_ONE = Poly.one()


class RatFun:
    """Rational function over Q(i) in canonical form.

    Invariants: denominator monic and nonzero, gcd(num, den) = 1, and the
    zero function is 0/1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, RatFun):
            if den is not None:
                raise TypeError("RatFun(num) takes no denominator")
            self.num, self.den = num.num, num.den
            return
        if not isinstance(num, Poly):
            num = Poly.const(_as_gauss(num))
        if den is None:
            den = Poly.one()
        elif not isinstance(den, Poly):
            den = Poly.const(_as_gauss(den))
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        num, den = _cancel(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _canonical(cls, num, den):
        """Wrap a pair already in canonical form, skipping the gcd."""
        r = cls.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def zero(cls):
        return cls._canonical(_POLY_ZERO, _POLY_ONE)

    @classmethod
    def one(cls):
        return cls._canonical(_POLY_ONE, _POLY_ONE)

    @classmethod
    def x(cls):
        return cls(Poly.x())

    @classmethod
    def const(cls, c):
        return cls(Poly.const(_as_gauss(c)))

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def is_const(self) -> bool:
        return self.num.is_const() and self.den.is_const()

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def const_value(self) -> GaussianRational:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.num[0]

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if d1 == d2:
            # a common denominator 1 needs no cancellation, any other only
            # against itself
            if d1.degree == 0:
                return RatFun._canonical(n1 + n2, d1)
            return RatFun(n1 + n2, d1)
        # with one polynomial operand the sum is already coprime:
        # gcd(n1 d2 + n2, d2) = gcd(n2, d2) = 1, and likewise with 1 <-> 2
        if d1.degree == 0:
            return RatFun._canonical(n1 * d2 + n2, d2)
        if d2.degree == 0:
            return RatFun._canonical(n1 + n2 * d1, d1)
        return RatFun(n1 * d2 + n2 * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        return RatFun._canonical(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return RatFun.zero()
        return _henrici(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_zero():
            return RatFun.zero()
        # the reciprocal den/num, scaled to a monic denominator, is canonical
        c = GaussianRational.one() / other.num.lead()
        return _henrici(self.num, self.den, other.den * c, other.num * c)

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __eq__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def derivative(self) -> "RatFun":
        # a polynomial's derivative is again a polynomial: over 1, canonical
        if self.den.degree == 0:
            return RatFun._canonical(self.num.derivative(), self.den)
        return RatFun(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def conjugate_coefficients(self) -> "RatFun":
        """Entrywise coefficient conjugation: f(z) -> conj(f)(z)."""
        # conjugating a monic polynomial keeps it monic
        return RatFun._canonical(
            Poly([c.conjugate() for c in self.num.coeffs]),
            Poly([c.conjugate() for c in self.den.coeffs]),
        )

    def evaluate(self, z0):
        """Exact evaluation at a Gaussian rational point."""
        d = self.den.evaluate(z0)
        if d.is_zero():
            raise PoleAtZ(f"pole at z = {z0}")
        return self.num.evaluate(z0) / d

    def __str__(self):
        if self.is_polynomial():
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    def __repr__(self):
        return f"RatFun({self})"


def _as_gauss(c) -> GaussianRational:
    if isinstance(c, GaussianRational):
        return c
    if isinstance(c, (int, Fraction)):
        return GaussianRational(c, 0)
    if isinstance(c, str):
        return GaussianRational.from_string(c)
    raise TypeError(f"cannot coerce {c!r} into Q(i)")


def _as_ratfun(value):
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun(value)
    if isinstance(value, (int, Fraction, GaussianRational)):
        return RatFun.const(value)
    return NotImplemented


def _henrici(n1: Poly, d1: Poly, n2: Poly, d2: Poly) -> RatFun:
    """(n1/d1)(n2/d2) for canonical, nonzero operands, without the gcd of
    the full product (Henrici 1956): with g1 = gcd(n1, d2) and
    g2 = gcd(n2, d1) divided out, (n1/g1)(n2/g2) is coprime to
    (d1/g2)(d2/g1), and monic gcds keep the denominator monic."""
    if d2.degree > 0 and n1.degree > 0:
        g1 = n1.gcd(d2)
        if g1.degree > 0:
            n1, d2 = n1 // g1, d2 // g1
    if d1.degree > 0 and n2.degree > 0:
        g2 = n2.gcd(d1)
        if g2.degree > 0:
            n2, d1 = n2 // g2, d1 // g2
    # a denominator 1 takes no product
    den = d1 if d2.degree == 0 else d2 if d1.degree == 0 else d1 * d2
    return RatFun._canonical(n1 * n2, den)


def _cancel(num: Poly, den: Poly):
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    # a nonzero constant shares no factor with anything: no Euclid
    if num.degree > 0 and den.degree > 0:
        g = num.gcd(den)
        if g.degree > 0:
            num = num // g
            den = den // g
    lead = den.lead()
    if lead != GaussianRational.one():
        num = num * (GaussianRational.one() / lead)
        den = den.monic()
    return num, den


def solve(rows, rhs):
    """Gauss-Jordan solve of rows @ x = rhs over an exact field (Q(i) or
    RatFun): rows is square and rhs a matrix with as many rows, both lists
    of rows; returns x as a list of rows.  Raises ZeroDivisionError when
    rows is singular."""
    n = len(rows)
    a = [list(row) + list(b) for row, b in zip(rows, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        pivot = a[col][col]
        a[col] = [x / pivot for x in a[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def hermite_reduce(num: Poly, den: Poly):
    """Horowitz-Ostrogradsky split of the proper fraction num/den.

    Returns (g, r, d_star) with num/den = g' + r/d_star, g a proper RatFun
    (zero at infinity), r/d_star in lowest terms with d_star monic, squarefree
    and dividing den, and deg r < deg d_star.  The split is unique, and the
    fraction is integrable in rational terms iff r = 0.  With d- = gcd(den,
    den') and d* = den/d-, the ansatz num/den = (b/d-)' + c/d* clears to
    num = b' d* - b h + c d-, h = d* d-'/d-: one deg(den)-square linear
    system in the coefficients of b and c.  Raises ValueError when den = 0
    or deg num >= deg den.
    """
    if den.is_zero() or num.degree >= den.degree:
        raise ValueError(
            f"hermite_reduce needs a proper fraction: deg num = {num.degree}, "
            f"deg den = {den.degree}"
        )
    num = num * (GaussianRational.one() / den.lead())
    den = den.monic()
    d_minus = den.gcd(den.derivative())
    d_star = den // d_minus
    h = d_star * d_minus.derivative() // d_minus
    m, n = d_minus.degree, den.degree
    powers = [Poly([0] * k + [1]) for k in range(n)]
    cols = [p.derivative() * d_star - p * h for p in powers[:m]]
    cols += [p * d_minus for p in powers[: n - m]]
    rows = [[col[i] for col in cols] for i in range(n)]
    x = [row[0] for row in solve(rows, [[num[i]] for i in range(n)])]
    residual = RatFun(Poly(x[m:]), d_star)
    return RatFun(Poly(x[:m]), d_minus), residual.num, residual.den


def integrate_rational(f: RatFun) -> RatFun:
    """Antiderivative of f when it is again rational.

    The integration constant is fixed by requiring the polynomial part of the
    result to have zero constant term.  Raises NonRationalAntiderivative with
    an exact certificate when a logarithmic part is present.
    """
    f = _as_ratfun(f)
    if f.is_zero():
        return RatFun.zero()
    poly_part, rem = f.num.divmod(f.den)
    out = RatFun(
        Poly(
            [GaussianRational.zero()]
            + [
                poly_part[k] * GaussianRational(Fraction(1, k + 1))
                for k in range(poly_part.degree + 1)
            ]
        )
    )
    if rem.is_zero():
        return out
    g, r, d_star = hermite_reduce(rem, f.den)
    if not r.is_zero():
        poles, residues = _pole_report(r, d_star)
        raise NonRationalAntiderivative(r, d_star, poles, residues)
    return out + g


def _pole_report(r: Poly, d_star: Poly):
    """Approximate roots of d_star and residues of r/d_star (numeric aid)."""
    coeffs = [complex(c) for c in reversed(d_star.coeffs)]
    try:
        roots = np.roots(coeffs)
    except Exception:
        return (), ()
    dd = d_star.derivative()
    poles, residues = [], []
    for root in roots:
        denom = dd.evaluate_complex(complex(root))
        if denom != 0:
            poles.append(complex(root))
            residues.append(r.evaluate_complex(complex(root)) / denom)
    return poles, residues
