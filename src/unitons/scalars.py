"""Exact scalar arithmetic: Gaussian rationals, polynomials, rational functions.

Everything here is exact.  GaussianRational is Q(i) built on two
fractions.Fraction values.  Poly is a dense univariate polynomial over any
field that exposes zero()/one() classmethods plus the usual arithmetic
dunders; it is used both for polynomials in z over Q(i) and, elsewhere in the
package, for polynomials in lambda over the rational-function field.  RatFun
is the fraction field of Poly over Q(i) kept in canonical form: denominator
monic and coprime to the numerator.

Integration of rational functions uses squarefree decomposition plus
Hermite-Ostrogradsky reduction, so no polynomial factorization is needed.
When the antiderivative has a logarithmic part the failure carries an exact
certificate (remainder over squarefree denominator) and, as a numeric aid,
approximate poles and residues.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

import numpy as np

from .errors import NonRationalAntiderivative, PoleAtZ

__all__ = [
    "GaussianRational",
    "Poly",
    "RatFun",
    "differentiate",
    "integrate_rational",
    "hermite_reduce",
]


_RAT = r"-?\d+(?:/\d+)?"
_SCALAR_RE = _re.compile(
    rf"^\s*(?P<re>{_RAT})?\s*(?:(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*i)?\s*$"
)
_PURE_IM_RE = _re.compile(rf"^\s*(?P<im>{_RAT})\s*i\s*$")


class GaussianRational:
    """Element of Q(i): re + im*i with exact rational parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def zero(cls):
        return cls(0, 0)

    @classmethod
    def one(cls):
        return cls(1, 0)

    @classmethod
    def from_string(cls, s: str) -> "GaussianRational":
        """Parse 'p/q', 'p/q+r/si', 'p/q-r/si' or 'r/si'."""
        m = _PURE_IM_RE.match(s)
        if m:
            return cls(0, Fraction(m.group("im")))
        m = _SCALAR_RE.match(s)
        if not m or (m.group("re") is None and m.group("im") is None):
            raise ValueError(f"cannot parse Gaussian rational {s!r}")
        re_part = Fraction(m.group("re")) if m.group("re") is not None else Fraction(0)
        im_part = Fraction(0)
        if m.group("im") is not None:
            im_part = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im_part = -im_part
        return cls(re_part, im_part)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other, 0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
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
        return GaussianRational(
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
        return Poly(coeffs, self.field)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self[k] + other[k] for k in range(n)])

    def __neg__(self):
        return self._wrap([-c for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return self._wrap([self[k] - other[k] for k in range(n)])

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly.zero(self.field)
            out = [self.field.zero()] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a.is_zero():
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
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
        return self.num.is_zero()

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
    return RatFun._canonical(n1 * n2, d1 * d2)


def _cancel(num: Poly, den: Poly):
    if num.is_zero():
        return _POLY_ZERO, _POLY_ONE
    g = num.gcd(den)
    if g.degree > 0:
        num = num // g
        den = den // g
    lead = den.lead()
    if not (lead - GaussianRational.one()).is_zero():
        num = num * (GaussianRational.one() / lead)
        den = den.monic()
    return num, den


def differentiate(f: RatFun) -> RatFun:
    """d/dz of a rational function."""
    return _as_ratfun(f).derivative()


def _squarefree_decomposition(p: Poly):
    """Yun's algorithm: return [Q_1, Q_2, ...] with p = lead * prod Q_i^i,
    the Q_i squarefree, monic and pairwise coprime (possibly constant 1)."""
    p = p.monic()
    if p.degree <= 0:
        return []
    dp = p.derivative()
    g = p.gcd(dp)
    if g.degree == 0:
        return [p]
    out = []
    c = p // g
    d = dp // g - c.derivative()
    while True:
        q = c.gcd(d)
        out.append(q.monic())
        c2 = c // q
        d = d // q - c2.derivative()
        c = c2
        if c.degree <= 0:
            break
    return out


def _extended_euclid(a: Poly, b: Poly):
    """Return (s, t, g) with s*a + t*b = g = gcd(a, b), g monic."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.one(field), Poly.zero(field)
    t0, t1 = Poly.zero(field), Poly.one(field)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return s0, t0, r0
    lead = r0.lead()
    inv = field.one() / lead
    return s0 * inv, t0 * inv, r0.monic()


def _diophantine(a: Poly, b: Poly, c: Poly):
    """Solve s*a + t*b = c for coprime a, b with deg s < deg b."""
    s, t, g = _extended_euclid(a, b)
    if g.degree != 0:
        raise ArithmeticError("diophantine solve requires coprime inputs")
    s = s * c
    t = t * c
    if not b.is_const():
        q, s = s.divmod(b)
        t = t + q * a
    return s, t


def hermite_reduce(num: Poly, den: Poly):
    """Hermite-Ostrogradsky reduction of the proper fraction num/den.

    Returns (g, r, d_star) with num/den = g' + r/d_star, g a RatFun,
    d_star the squarefree part of den and deg r < deg d_star.  The fraction
    is integrable in rational terms iff r = 0.
    """
    if num.is_zero():
        return RatFun.zero(), Poly.zero(), Poly.one()
    lead = den.lead()
    den = den.monic()
    num = num * (GaussianRational.one() / lead)
    squarefree = _squarefree_decomposition(den)
    # split num/den into partial fractions num_i / Q_i^i
    pieces = []
    rest_num, rest_den = num, den
    for i, q in enumerate(squarefree, start=1):
        if q.degree == 0:
            continue
        qi = q
        for _ in range(i - 1):
            qi = qi * q
        other = rest_den // qi
        if other.degree == 0:
            pieces.append((rest_num, q, i))
            rest_num, rest_den = Poly.zero(), Poly.one()
            continue
        # rest_num / (qi * other) = a/qi + b/other with deg a < deg qi
        a, b = _diophantine(other, qi, rest_num)
        pieces.append((a, q, i))
        rest_num, rest_den = b, other
    g = RatFun.zero()
    for a, q, i in pieces:
        # reduce a / q^i to a derivative part plus an order-one part
        while i > 1:
            # a/q^i = (-t/((i-1) q^(i-1)))' + (s + t'/(i-1)) / q^(i-1)
            s, t = _diophantine(q, q.derivative(), a)
            k = GaussianRational(Fraction(1, i - 1))
            qpow = Poly.one()
            for _ in range(i - 1):
                qpow = qpow * q
            g = g + RatFun(-(t * k), qpow)
            a = s + t.derivative() * k
            i -= 1
    # what is left over after removing g' is the logarithmic part; computing
    # it by exact subtraction keeps the certificate self-verifying
    residual = RatFun(num, den) - g.derivative()
    return g, residual.num, residual.den


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
