"""Exact rational functions in one variable q with integer coefficients.

Scalars for the q-deformed computations.  Every value is kept in one
canonical form: numerator and denominator are integer polynomials with
no common factor, the shared integer content is divided out, and the
denominator has positive leading coefficient; zero is 0/1.  Reducing at
construction keeps Gaussian elimination chains from blowing up in degree,
and makes equality a comparison of tuples.

`_reduce` reaches that form by the shortest exact route:

* denominator 1: nothing can cancel, the pair is already canonical;
* monomial denominator c*q^k: the polynomial gcd is q^min(k, v), v the
  valuation of the numerator, so a slice removes it;
* anything else: a primitive-part Euclidean gcd and exact division.

The integer content and sign steps follow the last two routes.

A Laurent polynomial in q with integer coefficients has a canonical form
that needs no gcd at all: from_laurent builds it directly, and laurent()
reads it back (None for a value outside Z[q, 1/q]), so sums of q-powers
can be added up as integers and made a RatFunc once.

Shared helpers: poly_add, poly_mul and poly_eval, which take Fraction
coefficients too, also carry the k-polynomials of cherednik.  The one
polynomial printer, poly_str, lives in series, so that the table commands
print without loading this module; it is imported here for __repr__.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .series import poly_str

# polynomials: tuples of ints, lowest degree first, no trailing zeros


def _strip(t):
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return tuple(t[:n])


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def poly_eval(a, x):
    """The polynomial a at x, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _neg(a):
    return tuple(-c for c in a)


def poly_mul(a, b):
    if not a or not b:
        return ()
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(c * x for x in a)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _strip(out)


def _content(a):
    return math.gcd(*a) if a else 0


def _primitive(a):
    c = _content(a)
    if c in (0, 1):
        return a
    return tuple(x // c for x in a)


def _divmod(a, b):
    """(q, r) with a = q*b + r and deg r < deg b, for b != (); ValueError
    when a quotient coefficient is not an integer."""
    db, lead = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1 - db, -1, -1):
        coef, rem = divmod(r[db + i], lead)
        if rem:
            raise ValueError("inexact polynomial division")
        q[i] = coef
        if coef:
            for j, y in enumerate(b):
                r[i + j] -= coef * y
    return _strip(q), _strip(r)


def _pgcd(a, b):
    """gcd of integer polynomials, primitive with positive leading coeff;
    each step divides lc(b)^max(deg a - deg b + 1, 0) * a by b."""
    a, b = _primitive(a), _primitive(b)
    while b:
        scale = b[-1] ** max(len(a) - len(b) + 1, 0)
        a, b = b, _primitive(_divmod(tuple(scale * x for x in a), b)[1])
    if a and a[-1] < 0:
        a = _neg(a)
    return a if a else ()


def _exact_div(a, b):
    """Exact polynomial quotient a / b (remainder must be zero)."""
    q, r = _divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def _reduce(num, den):
    """Canonical (num, den) of num/den, for stripped int tuples with den != ()."""
    if not num:
        return (), (1,)
    if den == (1,):
        return num, den
    if not any(den[:-1]):
        # den = c*q^k: the polynomial gcd is q^min(k, valuation of num)
        m = 0
        while m < len(den) - 1 and not num[m]:
            m += 1
        if m:
            num, den = num[m:], den[m:]
    else:
        g = _pgcd(num, den)
        if len(g) > 1:
            num = _exact_div(num, g)
            den = _exact_div(den, g)
    c = math.gcd(_content(num), _content(den))
    if c > 1:
        num = tuple(x // c for x in num)
        den = tuple(x // c for x in den)
    if den[-1] < 0:
        num, den = _neg(num), _neg(den)
    return num, den


def _coefficient(c) -> int:
    """c as an int: ints and integral Fractions only, nothing truncated."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return c.numerator
        raise ValueError(f"non-integral coefficient {c}")
    raise TypeError(f"non-exact coefficient {c!r} of type {type(c).__name__}")


class RatFunc:
    """num/den as reduced integer polynomials in q."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num = _strip(tuple(_coefficient(c) for c in num))
        den = _strip(tuple(_coefficient(c) for c in den))
        if not den:
            raise ZeroDivisionError("zero denominator")
        self.num, self.den = _reduce(num, den)

    # -- constructors ------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RatFunc":
        return cls((n,))

    @classmethod
    def from_fraction(cls, f: Fraction) -> "RatFunc":
        return cls((f.numerator,), (f.denominator,))

    @classmethod
    def q_power(cls, k: int) -> "RatFunc":
        """q^k for any integer k (negative k gives 1/q^{-k})."""
        if k >= 0:
            return _new((0,) * k + (1,), (1,))
        return _new((1,), (0,) * (-k) + (1,))

    @classmethod
    def variable(cls) -> "RatFunc":
        return cls((0, 1))

    @classmethod
    def from_laurent(cls, poly: dict) -> "RatFunc":
        """sum c * q^e over the {e: c} items of poly, for int c.

        Canonical with no gcd: at valuation v >= 0 the denominator is 1,
        otherwise it is q^-v over a numerator with a nonzero constant term.
        """
        if 0 in poly.values():
            poly = {e: c for e, c in poly.items() if c}
        out = object.__new__(cls)
        if not poly:
            out.num, out.den = (), (1,)
            return out
        lo = min(poly)
        base = lo if lo < 0 else 0
        num = [0] * (max(poly) - base + 1)
        for e, c in poly.items():
            if type(c) is not int:
                raise TypeError(f"non-integer coefficient {c!r} in a Laurent polynomial")
            num[e - base] = c
        out.num = tuple(num)
        out.den = (0,) * -base + (1,)
        return out

    def laurent(self):
        """{exponent: int} when self lies in Z[q, 1/q], else None."""
        den = self.den
        k = len(den) - 1
        if den[k] != 1 or any(den[:k]):
            return None
        return {i - k: c for i, c in enumerate(self.num) if c}

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, int):
            return RatFunc.from_int(x)
        if isinstance(x, Fraction):
            return RatFunc.from_fraction(x)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            # still reduced: a/d + b/d can share a factor with d
            return _new(poly_add(self.num, o.num), self.den)
        return _new(
            poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den)),
            poly_mul(self.den, o.den),
        )

    __radd__ = __add__

    def __neg__(self):
        out = object.__new__(RatFunc)
        out.num = _neg(self.num)
        out.den = self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _new(poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero")
        return _new(poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    # -- structure ----------------------------------------------------

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, q: Fraction) -> Fraction:
        if type(q) not in (int, Fraction):
            raise TypeError(f"evaluate needs an int or Fraction point, got {q!r}")
        return Fraction(poly_eval(self.num, q)) / poly_eval(self.den, q)

    def __repr__(self):
        n, d = poly_str(enumerate(self.num), "q"), poly_str(enumerate(self.den), "q")
        return n if self.den == (1,) else f"({n})/({d})"


def _new(num, den) -> RatFunc:
    """RatFunc from stripped int tuples (arithmetic results), skipping __init__."""
    out = object.__new__(RatFunc)
    out.num, out.den = _reduce(num, den)
    return out
