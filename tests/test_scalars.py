"""Exact scalar layer: arithmetic, canonical forms, calculus."""

import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (
    GaussianRationalReference,
    parse_gaussian_reference,
    poly_derivative_reference,
    poly_product_reference,
    poly_sum_reference,
    ratfun_reference,
)
from unitons.errors import NonRationalAntiderivative, PoleAtZ
from unitons.scalars import (
    GaussianRational,
    Poly,
    RatFun,
    hermite_reduce,
    integrate_rational,
    solve,
)


def G(re, im=0):
    return GaussianRational(re, im)


def poly(*coeffs):
    return Poly([G(c) if not isinstance(c, GaussianRational) else c for c in coeffs])


Z = RatFun.x()
ONE = RatFun.one()


# -- strategies ------------------------------------------------------------

small_fraction = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6
)
gauss = st.builds(GaussianRational, small_fraction, small_fraction)
polys = st.lists(gauss, min_size=0, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())
ratfuns = st.builds(lambda n, d: RatFun(n, d), polys, nonzero_polys)


def _power(p, k):
    out = Poly.one()
    for _ in range(k):
        out = out * p
    return out


# denominators with a repeated factor of degree >= 2: q^k (k = 2, 3) for a
# monic quadratic q, times p^j (j = 1, 2) for a monic linear or quadratic p
monic_quadratics = st.builds(lambda b, c: Poly([c, b, G(1)]), gauss, gauss)
monic_low = st.one_of(monic_quadratics, st.builds(lambda c: Poly([c, G(1)]), gauss))
repeated_dens = st.builds(
    lambda q, k, p, j: _power(q, k) * _power(p, j),
    monic_quadratics, st.integers(2, 3), monic_low, st.integers(1, 2),
)
repeated = st.builds(lambda n, d: RatFun(n, d), polys, repeated_dens)


# -- Gaussian rationals ----------------------------------------------------

def test_gaussian_field_ops():
    a = G(Fraction(1, 2), Fraction(-1, 3))
    b = G(2, 1)
    assert a + b == G(Fraction(5, 2), Fraction(2, 3))
    assert a * b == G(Fraction(4, 3), Fraction(-1, 6))
    assert (a / b) * b == a
    assert a.conjugate().conjugate() == a
    assert complex(G(1, 2)) == 1 + 2j


def test_gaussian_string_roundtrip():
    cases = ["3/2", "-1/3+2/5i", "0", "2", "0-1i", "7i"]
    for s in cases:
        v = GaussianRational.from_string(s)
        assert GaussianRational.from_string(str(v)) == v


@given(gauss, gauss)
def test_gaussian_add_sub_cancel(a, b):
    assert (a + b) - b == a


@given(gauss, gauss)
def test_gaussian_mul_div_cancel(a, b):
    if not b.is_zero():
        assert (a * b) / b == a


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_real_elements_hash_as_equal_numbers():
    assert len({G(3), 3}) == 1
    assert len({G(Fraction(1, 2)), Fraction(1, 2)}) == 1
    assert hash(G(-7)) == hash(-7) and hash(G(Fraction(-2, 6))) == hash(Fraction(-1, 3))
    assert hash(G(Fraction(2, 4), Fraction(3, 6))) == hash(G(Fraction(1, 2), Fraction(1, 2)))


# parts with numerators and denominators up to 10^12, ints and Fractions mixed
_BIG = 10**12
wide_part = st.one_of(
    st.integers(-_BIG, _BIG),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, _BIG)),
    st.just(0),
)
wide_pair = st.tuples(wide_part, wide_part)
# an operand beside a Gaussian rational: another one, or a plain int or Fraction
wide_operand = st.one_of(wide_pair, wide_part)


def _both(value):
    """The same value as a production element and as a reference element,
    or unchanged when it is a plain int or Fraction."""
    if isinstance(value, tuple):
        return GaussianRational(*value), GaussianRationalReference(*value)
    return value, value


def _assert_canonical_triple(x):
    assert type(x._a) is int and type(x._b) is int and type(x._d) is int
    assert x._d > 0 and gcd(x._a, x._b, x._d) == 1
    if x.is_zero():
        assert (x._a, x._b, x._d) == (0, 0, 1)


def _assert_matches(x, ref):
    """x agrees with the reference on value and on every printed form."""
    assert isinstance(x, GaussianRational)
    _assert_canonical_triple(x)
    assert (x.re, x.im) == (ref.re, ref.im)
    assert type(x.re) is Fraction and type(x.im) is Fraction
    assert str(x) == str(ref) and repr(x) == repr(ref)
    assert complex(x) == complex(ref)
    assert hash(x) == hash(ref)


# text near the accepted forms: parts with leading zeros and zero
# denominators, optional signs, spacing, an "i" suffix, and stray symbols
_space = st.sampled_from(["", " ", "  ", "\t", "\n"])
_digits = st.from_regex(r"[0-9]{1,16}", fullmatch=True)
_part = st.builds(
    lambda sign, p, q: f"{sign}{p}" if q is None else f"{sign}{p}/{q}",
    st.sampled_from(["", "-", "+"]), _digits, st.none() | _digits,
)
_token = st.one_of(_space, _part, st.sampled_from(["+", "-", "i", "/", ".", "I", "j"]))
gaussian_text = st.one_of(
    st.builds("{}{}{}{}{}{}i{}".format, _space, _part, _space, st.sampled_from("+-"),
              _space, _part, _space),
    st.builds("{}{}{}".format, _space, _part, _space),
    st.builds("{}{}{}i{}".format, _space, _part, _space, _space),
    st.lists(_token, max_size=7).map("".join),
)


@settings(max_examples=300)
@given(gaussian_text)
@example("0/0")
@example(" -0/7 - 0/3 i ")
@example("-4/6 - 10/4 i")
@example("1+2/0i")
@example("-12/18i")
@example("\u0663/\u0664")  # non-ASCII decimal digits, which both parses accept
def test_from_string_matches_the_fraction_parse(text):
    try:
        ref = parse_gaussian_reference(text)
    except (ValueError, ZeroDivisionError) as exc:
        with pytest.raises(type(exc)):
            GaussianRational.from_string(text)
        return
    _assert_matches(GaussianRational.from_string(text), ref)


_OPS = [operator.add, operator.sub, operator.mul, operator.truediv]


@given(wide_pair, wide_operand)
@example((Fraction(123456789, 987654321), Fraction(5, 7)), (Fraction(3, 1000003), 0))
@example((0, 0), 0)
@example((2, 2), (Fraction(1, 2), Fraction(1, 2)))
def test_gaussian_ops_match_two_fraction_reference(x, y):
    gx, rx = _both(x)
    gy, ry = _both(y)
    _assert_matches(gx, rx)
    _assert_matches(-gx, -rx)
    _assert_matches(gx.conjugate(), rx.conjugate())
    for op in _OPS:
        for left, right, ref_left, ref_right in ((gx, gy, rx, ry), (gy, gx, ry, rx)):
            try:
                expected = op(ref_left, ref_right)
            except ZeroDivisionError:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            _assert_matches(op(left, right), expected)
    assert (gx == gy) == (rx == ry) and (gy == gx) == (ry == rx)
    assert (gx != gy) == (rx != ry)


@given(wide_pair, wide_part.filter(bool))
def test_gaussian_equality_and_hash_match_the_reference_on_equal_values(x, scale):
    # equal values reached two ways: built directly, and scaled up then back
    gx, rx = _both(x)
    round_trip = gx * scale / scale
    assert round_trip == gx and hash(round_trip) == hash(gx) == hash(rx)
    if x[1] == 0:
        assert gx == x[0] and x[0] == gx and hash(gx) == hash(x[0])


# -- polynomials -----------------------------------------------------------

def test_poly_divmod_and_gcd():
    p = poly(-1, 0, 1)          # z^2 - 1
    q = poly(1, 1)              # z + 1
    quot, rem = p.divmod(q)
    assert quot == poly(-1, 1) and rem.is_zero()
    assert p.gcd(q) == poly(1, 1)


def test_poly_trims_leading_zeros():
    assert poly(1, 0, 0).degree == 0
    assert poly().is_zero()


@given(polys, polys, polys)
def test_poly_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p


@given(polys, nonzero_polys)
def test_poly_divmod_identity(p, q):
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.is_zero() or rem.degree < q.degree


# -- rational functions: canonical form ------------------------------------

def test_ratfun_canonical_monic_and_coprime():
    f = RatFun(poly(0, 2), poly(0, 0, 4))      # 2z / 4z^2 = 1/(2z)
    assert f.num == poly(Fraction(1, 2))
    assert f.den == poly(0, 1)
    assert f.den.lead() == G(1)


@given(ratfuns)
def test_ratfun_canonical_invariants(f):
    assert not f.den.is_zero()
    assert f.den.lead() == G(1)
    assert f.is_zero() or f.num.gcd(f.den).degree == 0


# operands built from a few shared linear factors, so that the Henrici gcds
# g1 = gcd(n1, d2) and g2 = gcd(n2, d1) are often non-trivial
_ROOTS = [G(0), G(1), G(-1), G(0, 1), G(Fraction(1, 2), -1)]


def _from_roots(roots):
    p = Poly.one()
    for r in roots:
        p = p * Poly([-r, G(1)])
    return p


_root_lists = st.lists(st.sampled_from(_ROOTS), max_size=3)
factored_polys = st.builds(lambda c, rs: _from_roots(rs) * c, gauss, _root_lists)
factored = st.builds(
    lambda n, rs: RatFun(n, _from_roots(rs)), factored_polys, _root_lists
)
polynomials = factored_polys.map(RatFun)
# every shape the fast paths single out: general pairs, a polynomial operand
# on either side, equal denominators, and sums that cancel to zero
operand_pairs = st.one_of(
    st.tuples(factored, factored),
    st.tuples(polynomials, factored),
    st.tuples(factored, polynomials),
    st.tuples(polynomials, polynomials),
    st.tuples(factored, factored_polys).map(
        lambda fp: (fp[0], RatFun(fp[0].num + fp[1] * fp[0].den, fp[0].den))
    ),
    factored.map(lambda f: (f, -f)),
)


def _assert_canonical(f):
    assert f.den.lead() == G(1)
    assert f.is_zero() or f.num.gcd(f.den).degree == 0
    assert (f.num, f.den) == ratfun_reference(f.num, f.den)


@given(operand_pairs)
@settings(max_examples=150)
def test_ratfun_ops_match_full_gcd_reference(pair):
    f, g = pair
    n1, d1, n2, d2 = f.num, f.den, g.num, g.den
    expected = {
        "+": ratfun_reference(n1 * d2 + n2 * d1, d1 * d2),
        "-": ratfun_reference(n1 * d2 - n2 * d1, d1 * d2),
        "*": ratfun_reference(n1 * n2, d1 * d2),
    }
    got = {"+": f + g, "-": f - g, "*": f * g}
    if not g.is_zero():
        expected["/"] = ratfun_reference(n1 * d2, d1 * n2)
        got["/"] = f / g
    for op, h in got.items():
        _assert_canonical(h)
        assert (h.num, h.den) == expected[op], op


@given(st.lists(factored, max_size=3), st.lists(factored, min_size=1, max_size=3))
@settings(max_examples=40)
def test_poly_over_ratfun_stays_canonical(ps, qs):
    # the field of the Smith reduction: polynomials in lambda over Q(i)(z)
    p, q = Poly(ps, field=RatFun), Poly(qs, field=RatFun)
    if q.is_zero():
        return
    quot, rem = p.divmod(q)
    assert quot * q + rem == p
    assert rem.degree < q.degree
    for c in quot.coeffs + rem.coeffs + (p * q).coeffs:
        _assert_canonical(c)


def test_polynomial_fast_paths_skip_gcd(monkeypatch):
    p, q = RatFun(poly(1, 2, 3)), RatFun(poly(0, 1, 0, 1))
    f = RatFun(poly(1, 1), poly(2, 0, 1))
    total, product = RatFun(poly(1, 3, 3, 1)), RatFun(poly(0, 1, 2, 4, 2, 3))
    p_plus_f = RatFun(poly(1, 2, 3) * poly(2, 0, 1) + poly(1, 1), poly(2, 0, 1))
    zero, one = RatFun(Poly.zero()), RatFun(Poly.one())

    def no_gcd(self, other):
        raise AssertionError("Poly.gcd called")

    monkeypatch.setattr(Poly, "gcd", no_gcd)
    assert p + q == total and p * q == product
    assert p + f == p_plus_f and f + p == p_plus_f
    assert (p - p).is_zero() and (p * RatFun.zero()).is_zero()
    assert RatFun.zero() == zero and RatFun.one() == one


# -- shortcuts against the general path --------------------------------------
# Results computed inside Poly and RatFun are wrapped without the coercion
# and gcds of the public constructors; they must equal the long way.


def _stripped(p):
    return not p.coeffs or not p.coeffs[-1].is_zero()


@given(polys, polys, st.lists(gauss, max_size=3))
def test_poly_ops_match_the_dense_reference(p, q, low):
    # above the low coefficients q_plus is -p and q_minus is p, so
    # p + q_plus and p - q_minus lose their top coefficients
    top = list(p.coeffs[len(low):])
    q_plus, q_minus = Poly(low + [-c for c in top]), Poly(low + top)
    cases = [
        (p + q, poly_sum_reference(p, q)),
        (p - q, poly_sum_reference(p, q, -1)),
        (q - p, poly_sum_reference(q, p, -1)),
        (p + q_plus, poly_sum_reference(p, q_plus)),
        (p - q_minus, poly_sum_reference(p, q_minus, -1)),
        (p * q, poly_product_reference(p, q)),
        (q_plus * p, poly_product_reference(q_plus, p)),
        (-p, poly_sum_reference(Poly.zero(), p, -1)),
    ]
    for got, expected in cases:
        assert got.coeffs == expected.coeffs and _stripped(got)


@given(st.lists(factored, max_size=3), st.lists(factored, max_size=3))
@settings(max_examples=30)
def test_poly_over_ratfun_ops_match_the_dense_reference(ps, qs):
    p, q = Poly(ps, field=RatFun), Poly(qs, field=RatFun)
    for got, expected in (
        (p + q, poly_sum_reference(p, q)),
        (p - q, poly_sum_reference(p, q, -1)),
        (p * q, poly_product_reference(p, q)),
    ):
        assert got.coeffs == expected.coeffs and _stripped(got)


@given(st.one_of(polynomials, factored, ratfuns))
def test_ratfun_derivative_matches_the_full_gcd_reference(f):
    num = poly_sum_reference(
        poly_product_reference(poly_derivative_reference(f.num), f.den),
        poly_product_reference(f.num, poly_derivative_reference(f.den)),
        -1,
    )
    h = f.derivative()
    assert (h.num, h.den) == ratfun_reference(num, poly_product_reference(f.den, f.den))
    assert h.den.lead() == G(1) and _stripped(h.num) and _stripped(h.den)


@given(ratfuns, ratfuns)
def test_ratfun_add_sub_exact(f, g):
    assert (f + g) - g == f


@given(ratfuns, ratfuns)
def test_ratfun_mul_div_exact(f, g):
    if not g.is_zero():
        assert (f * g) / g == f


def test_ratfun_evaluate_exact_and_pole():
    f = ONE / (Z - 1)
    assert f.evaluate(G(3)) == G(Fraction(1, 2))
    with pytest.raises(PoleAtZ):
        f.evaluate(G(1))


# -- differentiation -------------------------------------------------------

def test_differentiate_monomial():
    assert (Z * Z).derivative() == 2 * Z


def test_differentiate_simple_pole():
    # quotient rule by hand: (1/(z-1))' = -1/(z-1)^2
    f = ONE / (Z - 1)
    assert f.derivative() == -ONE / ((Z - 1) * (Z - 1))


@given(ratfuns, ratfuns)
@settings(max_examples=60)
def test_differentiate_is_a_derivation(f, g):
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


# -- integration -----------------------------------------------------------

def test_integrate_polynomial():
    assert integrate_rational(2 * Z) == Z * Z
    # integration constant is pinned to zero
    assert integrate_rational(ONE) == Z


def test_integrate_double_pole():
    f = ONE / ((Z - 1) * (Z - 1))
    assert integrate_rational(f) == -ONE / (Z - 1)


def test_integrate_log_fails_with_certificate():
    with pytest.raises(NonRationalAntiderivative) as err:
        integrate_rational(ONE / Z)
    assert not err.value.log_numerator.is_zero()
    assert err.value.log_denominator == poly(0, 1)
    assert len(err.value.poles) == 1
    assert abs(err.value.poles[0]) < 1e-9
    assert abs(err.value.residues[0] - 1) < 1e-9


def test_integrate_mixed_pole_orders():
    # (4z - 3) / (z-2)^3 = (4w + 5)/w^3 at w = z-2: no residue, integrable
    den = (Z - 2) * (Z - 2) * (Z - 2)
    f = (4 * Z - 3) / den
    F = integrate_rational(f)
    assert F.derivative() == f


def test_integrate_detects_hidden_residue():
    # 1/( z (z-1) ) = 1/(z-1) - 1/z has nonzero residues at both poles
    with pytest.raises(NonRationalAntiderivative) as err:
        integrate_rational(ONE / (Z * (Z - 1)))
    assert sorted(round(p.real) for p in err.value.poles) == [0, 1]


def test_hermite_reduce_identity():
    num = poly(1, 2, 1)
    den = (poly(0, 1) * poly(0, 1) * poly(-1, 1)).coeffs
    den = Poly(den)
    g, r, d_star = hermite_reduce(num, den)
    recon = g.derivative() + RatFun(r, d_star)
    assert recon == RatFun(num, den)


def test_solve_takes_a_matrix_rhs_over_either_field_and_refuses_singular_rows():
    rows = [[G(0), G(2, 1)], [G(1), G(3)]]  # needs a row swap
    rhs = [[G(1), G(0)], [G(0), G(1)]]
    x = solve(rows, rhs)
    assert [[sum((r[k] * x[k][j] for k in range(2)), G(0)) for j in range(2)] for r in rows] == rhs
    ratfun_rows = [[Z, ONE], [ONE, ONE + Z]]
    x = solve(ratfun_rows, [[ONE], [Z]])
    assert [r[0] * x[0][0] + r[1] * x[1][0] for r in ratfun_rows] == [ONE, Z]
    for singular in ([[G(1), G(2)], [G(2), G(4)]], [[G(0), G(1)], [G(0), G(1)]]):
        with pytest.raises(ZeroDivisionError, match="singular matrix"):
            solve(singular, [[G(1)], [G(1)]])


def test_hermite_reduce_refuses_improper_input():
    with pytest.raises(ValueError, match="deg num = 3, deg den = 2"):
        hermite_reduce(poly(0, 0, 0, 1), poly(0, 0, 1))
    with pytest.raises(ValueError, match="deg num = 2, deg den = 2"):
        hermite_reduce(poly(1, 0, 1), poly(0, 0, 1))
    with pytest.raises(ValueError, match="deg den = -1"):
        hermite_reduce(poly(1), Poly.zero())


@given(repeated, st.booleans())
@example(-(2 + 2 * Z) / (Z * (Z * Z + 1) * (Z * Z + 1)), False)
@settings(max_examples=40, derandomize=True)
def test_hermite_reduce_pins_the_unique_split(h, exact):
    # g proper and d_star squarefree make the split unique; f = h' has no
    # logarithmic part, and then g is the proper part of h
    f = h.derivative() if exact else h
    _, rem = f.num.divmod(f.den)
    g, r, d_star = hermite_reduce(rem, f.den)
    assert g.derivative() + RatFun(r, d_star) == RatFun(rem, f.den)
    assert g.num.degree < g.den.degree
    assert r.degree < d_star.degree
    assert d_star.lead() == G(1)
    assert d_star.gcd(d_star.derivative()).degree <= 0
    assert (f.den % d_star).is_zero()
    if exact:
        assert r.is_zero() and g == h - RatFun(h.num // h.den)


@given(st.one_of(ratfuns, repeated))
@settings(max_examples=60)
def test_integrate_inverts_differentiate(g):
    # every derivative of a rational function is integrable in rational terms;
    # the antiderivative is g less the constant term of its polynomial part
    f = g.derivative()
    F = integrate_rational(f)
    assert F.derivative() == f
    assert F == g - (g.num // g.den)[0]
    assert (F.num // F.den)[0].is_zero()


@given(st.one_of(ratfuns, repeated), st.integers(min_value=-3, max_value=3))
@settings(max_examples=40)
def test_integrate_fails_iff_log_part(g, a):
    # g' + 1/(z - a) always has a logarithmic antiderivative
    f = g.derivative() + ONE / (Z - a)
    with pytest.raises(NonRationalAntiderivative):
        integrate_rational(f)
