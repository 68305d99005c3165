import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wreath_hochschild.ratfunc import (
    RatFunc, _content, _divmod, _exact_div, _pgcd, _strip, poly_eval, poly_mul)


def rand_ratfunc(rng, deg=3):
    num = [rng.randint(-4, 4) for _ in range(rng.randint(1, deg + 1))]
    den = [rng.randint(-4, 4) for _ in range(rng.randint(1, deg + 1))]
    if not any(den):
        den = [1]
    return RatFunc(num, den)


def test_basic_identities():
    q = RatFunc.variable()
    one = RatFunc.from_int(1)
    zero = RatFunc.from_int(0)
    assert q - q == zero
    assert q * one == q
    assert q / q == one
    assert not zero
    assert bool(q)
    assert q + 1 == RatFunc((1, 1))
    assert 1 - q == RatFunc((1, -1))


def test_normalization():
    # 2/4 reduces, (q^2-1)/(q-1) reduces, denominator sign is fixed
    assert RatFunc((2,), (4,)) == RatFunc((1,), (2,))
    assert RatFunc((-1, 0, 1), (-1, 1)) == RatFunc((1, 1))
    r = RatFunc((1,), (-1, -1))
    assert r.den == (1, 1) and r.num == (-1,)
    assert RatFunc((2, 2), (4,)) == RatFunc((1, 1), (2,))


def test_q_power():
    q = RatFunc.variable()
    assert RatFunc.q_power(3) == q * q * q
    assert RatFunc.q_power(-2) * q * q == 1
    assert RatFunc.q_power(0) == 1
    for k in range(-4, 5):
        got = RatFunc.q_power(k)
        want = RatFunc((0,) * k + (1,)) if k >= 0 else RatFunc((1,), (0,) * -k + (1,))
        assert (got.num, got.den) == (want.num, want.den)


def test_fraction_scalars():
    q = RatFunc.variable()
    half = Fraction(1, 2)
    assert half * (q + q) == q
    assert (q + 1) * half + (q + 1) * half == q + 1
    assert RatFunc.from_fraction(Fraction(3, 6)) == RatFunc((1,), (2,))


def test_field_axioms_random():
    rng = random.Random(17)
    for _ in range(60):
        a, b, c = (rand_ratfunc(rng) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        assert a + b == b + a
        assert (a - b) + b == a
        if c:
            assert a * c / c == a


def _den_value(r, qv):
    return sum(Fraction(c) * qv ** i for i, c in enumerate(r.den))


def test_evaluation_is_homomorphism():
    rng = random.Random(5)
    for _ in range(40):
        a, b = rand_ratfunc(rng), rand_ratfunc(rng)
        for qv in (Fraction(2), Fraction(1, 3), Fraction(-5, 2)):
            s, p = a + b, a * b
            if any(_den_value(r, qv) == 0 for r in (a, b, s, p)):
                continue  # qv is a pole
            assert s.evaluate(qv) == a.evaluate(qv) + b.evaluate(qv)
            assert p.evaluate(qv) == a.evaluate(qv) * b.evaluate(qv)


def test_zero_denominator_rejected():
    q = RatFunc.variable()
    zero = RatFunc.from_int(0)
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), ())
    with pytest.raises(ZeroDivisionError):
        q / 0
    with pytest.raises(ZeroDivisionError):
        q / zero
    with pytest.raises(ZeroDivisionError):
        1 / zero


def test_repr_readable():
    q = RatFunc.variable()
    assert repr(q + 1) == "1 + q"
    assert repr(1 / (1 - q)) in ("(1)/(1 - q)", "(-1)/(-1 + q)")


def test_repr_signs_units_and_zero():
    q = RatFunc.variable()
    assert repr(RatFunc(())) == "0"
    assert repr(RatFunc((-1,))) == "-1"
    assert repr(-q) == "-q"
    assert repr(RatFunc((0, -1, 0, 1))) == "-q + q^3"
    assert repr(RatFunc((3, -1, -2, 1))) == "3 - q - 2*q^2 + q^3"
    assert repr(RatFunc((-5, 0, -1))) == "-5 - q^2"
    assert repr(1 / (1 - q)) == "(-1)/(-1 + q)"
    assert repr((q - 1) / (q * q + 2)) == "(-1 + q)/(2 + q^2)"
    assert repr(-q / (3 + q)) == "(-q)/(3 + q)"
    assert repr(1 / -(q * q)) == "(-1)/(q^2)"


# -- canonical form -----------------------------------------------------
#
# reference() is the generic reduction every value went through before the
# denominator shortcuts: gcd of primitive parts, exact division, then the
# integer content and sign steps.  The shortcuts must land on the same pair.


def reference(num, den):
    num, den = _strip(tuple(num)), _strip(tuple(den))
    if not num:
        return (), (1,)
    g = _pgcd(num, den)
    if len(g) > 1:
        num, den = _exact_div(num, g), _exact_div(den, g)
    c = math.gcd(_content(num), _content(den))
    if c > 1:
        num, den = tuple(x // c for x in num), tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = tuple(-x for x in num), tuple(-x for x in den)
    return num, den


def pmul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def padd(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return out


def pair(r):
    return r.num, r.den


coeffs = st.integers(-6, 6)
polys = st.lists(coeffs, max_size=4)
monomials = st.builds(lambda c, k: [0] * k + [c], coeffs.filter(bool), st.integers(0, 3))
# unit, monomial and general denominators, each route of the reduction
dens = st.one_of(st.just([1]), monomials, polys.filter(any))


@st.composite
def fractions_with_common_factor(draw):
    shared = draw(dens)
    return pmul(draw(polys), shared), pmul(draw(dens), shared)


ratfuncs = fractions_with_common_factor().map(lambda nd: RatFunc(*nd))
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(fractions_with_common_factor())
def test_construction_matches_reference(nd):
    assert pair(RatFunc(*nd)) == reference(*nd)


@PROPERTY
@given(ratfuncs, ratfuncs)
def test_arithmetic_matches_reference(a, b):
    cross = pmul(a.den, b.den)
    assert pair(a + b) == reference(padd(pmul(a.num, b.den), pmul(b.num, a.den)), cross)
    assert pair(a - b) == reference(
        padd(pmul(a.num, b.den), pmul([-x for x in b.num], a.den)), cross)
    assert pair(a * b) == reference(pmul(a.num, b.num), cross)
    if b:
        assert pair(a / b) == reference(pmul(a.num, b.den), pmul(a.den, b.num))


@PROPERTY
@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_laws(a, b, c):
    zero, one = RatFunc.from_int(0), RatFunc.from_int(1)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a + (-a) == zero and a - b == -(b - a)
    if a:
        assert a * (1 / a) == one and a / a == one
        assert pair(1 / a) == reference(a.den, a.num)


# -- the one integer long division ---------------------------------------

# divisors with leading coefficient +-1 divide every integer polynomial
unit_lead = st.builds(lambda low, lead: tuple(low) + (lead,), polys, st.sampled_from((1, -1)))


@PROPERTY
@given(st.lists(coeffs, max_size=8), unit_lead)
def test_divmod_leaves_a_remainder_of_lower_degree(a, b):
    a = _strip(tuple(a))
    q, r = _divmod(a, b)
    assert _strip(tuple(padd(pmul(q, b), r))) == a
    assert len(r) < len(b)


@PROPERTY
@given(polys, polys.filter(any))
def test_exact_division_undoes_a_product(a, b):
    a, b = _strip(tuple(a)), _strip(tuple(b))
    assert _exact_div(poly_mul(a, b), b) == a


@pytest.mark.parametrize("a, b", [
    ((1, 0, 1), (1, 1)),  # remainder 2
    ((1,), (0, 1)),       # deg a < deg b
    ((1, 1), (2,)),       # quotient 1/2 + q/2 is not integral
    ((0, 1), (0, 0, 1)),
])
def test_inexact_division_is_refused(a, b):
    with pytest.raises(ValueError, match="^inexact polynomial division$"):
        _exact_div(a, b)


@pytest.mark.parametrize("a, b, g", [
    ((-1, 0, 1), (-1, 1), (-1, 1)),           # q^2 - 1, q - 1
    ((-1, 1), (-1, 0, 1), (-1, 1)),           # deg a < deg b
    ((3, 7, 2), (-1, 1, 6), (1, 2)),          # (2q + 1)(q + 3), (2q + 1)(3q - 1)
    ((1, 1), (1, 0, 1), (1,)),                # coprime
    ((0, 2, 4), (0, 0, -6, -12), (0, 1, 2)),  # contents and signs drop out
    ((), (0, -2), (0, 1)),
    ((-2, -4), (), (1, 2)),
])
def test_pgcd_on_known_pairs(a, b, g):
    assert _pgcd(a, b) == g


@pytest.mark.parametrize("num, den, want", [
    # unit denominator: already canonical
    ((0, 0, 5), (1,), ((0, 0, 5), (1,))),
    # constant denominator: content and sign only
    ((6, 3), (-3,), ((-2, -1), (1,))),
    ((0, 1), (-3,), ((0, -1), (3,))),
    # den = +-2 q^2; numerator valuation below, equal to and above k = 2
    ((1, 2), (0, 0, 2), ((1, 2), (0, 0, 2))),
    ((0, 0, 3, 1), (0, 0, 2), ((3, 1), (2,))),
    ((0, 0, 0, 4), (0, 0, 2), ((0, 2), (1,))),
    ((1, 2), (0, 0, -2), ((-1, -2), (0, 0, 2))),
    ((0, 0, 3, 1), (0, 0, -2), ((-3, -1), (2,))),
    ((0, 0, 0, 4), (0, 0, -2), ((0, -2), (1,))),
])
def test_monomial_and_unit_denominators(num, den, want):
    assert pair(RatFunc(num, den)) == want == reference(num, den)
    # the same values reached by arithmetic
    assert pair(RatFunc(num) / RatFunc(den)) == want
    assert pair(RatFunc(num) * (1 / RatFunc(den))) == want


def test_same_denominator_sum_cancels():
    q = RatFunc.variable()
    total = q / (q + 1) + 1 / (q + 1)
    assert pair(total) == ((1,), (1,))
    assert total == 1


def test_coefficients_must_be_exact_integers():
    # ints and integral Fractions are taken as they are
    assert pair(RatFunc((Fraction(4, 2), 3), (Fraction(1),))) == ((2, 3), (1,))
    # nothing is truncated: a float or any other non-exact type is refused
    for num, den in (((1.5,), (1,)), ((1,), (2.7,)), ((2.0,), (1,)), (("1",), (1,))):
        with pytest.raises(TypeError, match="non-exact coefficient"):
            RatFunc(num, den)
    # and so is a Fraction with a denominator
    with pytest.raises(ValueError, match="non-integral coefficient 1/2"):
        RatFunc((Fraction(1, 2),))
    with pytest.raises(ValueError, match="non-integral"):
        RatFunc((1,), (1, Fraction(2, 3)))


def laurent_reference(poly):
    """sum c * q^e, term by term through q_power."""
    total = RatFunc.from_int(0)
    for e, c in poly.items():
        total = total + c * RatFunc.q_power(e)
    return total


laurent_polys = st.dictionaries(st.integers(-4, 4), st.integers(-3, 3), max_size=5)


@PROPERTY
@given(laurent_polys)
@example({})  # empty
@example({2: 0, -1: 0})  # every term cancelled
@example({-3: 2, -1: -1})  # negative exponents only
@example({-2: 1, 0: 0, 3: -4})  # mixed, with a zero in between
@example({1: 2, 4: 1})  # positive valuation
def test_laurent_constructor_and_reader_match_q_powers(poly):
    want = laurent_reference(poly)
    got = RatFunc.from_laurent(poly)
    assert pair(got) == pair(want)
    nonzero = {e: c for e, c in poly.items() if c}
    assert got.laurent() == want.laurent() == nonzero
    assert pair(RatFunc.from_laurent(got.laurent())) == pair(got)


def test_laurent_reader_refuses_values_outside_z_q_inverse_q():
    q = RatFunc.variable()
    for value in (1 / (q + 1), RatFunc((1,), (2,)), RatFunc((1,), (0, 2)),
                  RatFunc.from_fraction(Fraction(3, 4))):
        assert value.laurent() is None
    assert (1 / q).laurent() == {-1: 1}
    assert ((q - 1) / (q * q)).laurent() == {-2: -1, -1: 1}


def test_laurent_constructor_refuses_non_integer_coefficients():
    for bad in ({0: 1.5}, {1: 1, 2: Fraction(1, 2)}, {-1: 2.0}):
        with pytest.raises(TypeError, match="non-integer coefficient"):
            RatFunc.from_laurent(bad)


def test_poly_eval_is_the_power_sum():
    rng = random.Random(17)
    for _ in range(200):
        coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
        x = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 5))])
        assert poly_eval(tuple(coeffs), x) == sum(c * x ** i for i, c in enumerate(coeffs))
    # an integer point keeps an integer polynomial integral, and evaluate
    # still gives an exact Fraction
    assert type(poly_eval((1, 2, 3), 2)) is int
    value = RatFunc((1, 1), (2,)).evaluate(3)
    assert (type(value), value) == (Fraction, Fraction(2))


@pytest.mark.parametrize("q", [0.5, True, "2"])
def test_evaluate_refuses_an_inexact_point(q):
    # the constructor refuses floats already; a point must be exact too
    with pytest.raises(TypeError, match="int or Fraction"):
        RatFunc((1, 1), (2,)).evaluate(q)
