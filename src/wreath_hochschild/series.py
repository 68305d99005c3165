"""Truncated bivariate power series with exact integer coefficients.

A BiSeries stores the coefficients of sum_{n,i} c[n][i] q^n t^i for
0 <= n <= q_bound and 0 <= i <= t_bound.  All arithmetic is exact;
products are truncated to the shared bounds.  The q variable counts
the wreath index n, the t variable counts (co)homological degree.

signed_sum, the one printer of a signed sum of (coefficient, body)
pairs, with power_str, its one power rule, check_count, the one count
rule, is_permutation, the one permutation predicate, and check_cap, the
one admission rule of every size cap, live here, at the bottom of the
table stack, where every layer reaches them.  Every polynomial the
package prints goes through signed_sum: poly_str (the series tables and
the RatFunc scalars) is one call to it, and so are the Cherednik normal
forms and the Koszul elements.
"""

from __future__ import annotations

import math


class BiSeries:
    """Dense table of integer coefficients c[n][i] of q^n t^i."""

    __slots__ = ("q_bound", "t_bound", "coeff")

    def __init__(self, q_bound: int, t_bound: int, coeff=None):
        check_count(q_bound, "q_bound")
        check_count(t_bound, "t_bound")
        self.q_bound = q_bound
        self.t_bound = t_bound
        if coeff is None:
            self.coeff = [[0] * (t_bound + 1) for _ in range(q_bound + 1)]
        else:
            if len(coeff) != q_bound + 1 or any(len(r) != t_bound + 1 for r in coeff):
                raise ValueError("coefficient table shape does not match bounds")
            if any(type(c) is not int for row in coeff for c in row):
                raise ValueError("coefficients must be integers")
            self.coeff = [list(row) for row in coeff]

    @classmethod
    def one(cls, q_bound: int, t_bound: int) -> "BiSeries":
        s = cls(q_bound, t_bound)
        s.coeff[0][0] = 1
        return s

    @classmethod
    def from_terms(cls, q_bound: int, t_bound: int, terms) -> "BiSeries":
        """Build from an iterable of (n, i, c) triples; out-of-bound terms rejected."""
        s = cls(q_bound, t_bound)
        for n, i, c in terms:
            if type(n) is not int or type(i) is not int or type(c) is not int:
                raise ValueError(f"term {(n, i, c)!r} is not integral")
            if not (0 <= n <= q_bound and 0 <= i <= t_bound):
                raise ValueError(f"term q^{n} t^{i} outside bounds")
            s.coeff[n][i] += c
        return s

    def get(self, n: int, i: int) -> int:
        if not (0 <= n <= self.q_bound and 0 <= i <= self.t_bound):
            raise IndexError("coefficient outside truncation bounds")
        return self.coeff[n][i]

    def q_coefficient(self, n: int) -> dict[int, int]:
        """The coefficient of q^n as a t-polynomial {degree: coeff}, zeros dropped."""
        if not 0 <= n <= self.q_bound:
            raise IndexError("coefficient outside truncation bounds")
        row = self.coeff[n]
        return {i: c for i, c in enumerate(row) if c}

    def terms(self):
        """Yield nonzero (n, i, c) sorted by (n, i)."""
        for n, row in enumerate(self.coeff):
            for i, c in enumerate(row):
                if c:
                    yield (n, i, c)

    def is_zero(self) -> bool:
        return all(c == 0 for row in self.coeff for c in row)

    def _check_bounds(self, other: "BiSeries"):
        if self.q_bound != other.q_bound or self.t_bound != other.t_bound:
            raise ValueError("series bounds do not match")

    def __eq__(self, other):
        return (
            isinstance(other, BiSeries)
            and self.q_bound == other.q_bound
            and self.t_bound == other.t_bound
            and self.coeff == other.coeff
        )

    def __add__(self, other: "BiSeries") -> "BiSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "BiSeries") -> "BiSeries":
        return self._combine(other, -1)

    def _combine(self, other: "BiSeries", sign: int) -> "BiSeries":
        """self + sign * other, coefficient by coefficient."""
        self._check_bounds(other)
        out = BiSeries(self.q_bound, self.t_bound)
        for o, a, b in zip(out.coeff, self.coeff, other.coeff):
            o[:] = [x + sign * y for x, y in zip(a, b)]
        return out

    def __mul__(self, other: "BiSeries") -> "BiSeries":
        self._check_bounds(other)
        out = BiSeries(self.q_bound, self.t_bound)
        for n1 in range(self.q_bound + 1):
            rowa = self.coeff[n1]
            for i1 in range(self.t_bound + 1):
                a = rowa[i1]
                if not a:
                    continue
                for n2 in range(self.q_bound + 1 - n1):
                    rowb = other.coeff[n2]
                    orow = out.coeff[n1 + n2]
                    for i2 in range(self.t_bound + 1 - i1):
                        b = rowb[i2]
                        if b:
                            orow[i1 + i2] += a * b
        return out

    def apply_factor(self, sign: int, q_exp: int, t_exp: int, power: int) -> "BiSeries":
        """Multiply by (1 + sign * q^q_exp * t^t_exp)^power, truncated.

        sign must be +1 or -1.  A negative power with q_exp == 0 is
        rejected: the geometric expansion would not terminate in q.
        """
        out = BiSeries(self.q_bound, self.t_bound, self.coeff)
        out._apply_factor_in_place(sign, q_exp, t_exp, power)
        return out

    def _apply_factor_in_place(self, sign: int, q_exp: int, t_exp: int, power: int):
        """The Euler-product kernel: apply_factor on self's own rows.

        Each of the |power| passes multiplies or divides by one copy of
        1 + sign * u with u = q^q_exp t^t_exp.  Multiplying updates
        c[n][i] += sign * c[n - q_exp][i - t_exp] with n descending, so
        every source row is read before it is changed; dividing solves
        the same relation for the old row, c[n][i] -= sign * c[n - q_exp][i - t_exp],
        with n ascending, so every source row is already divided.  A power
        longer than the truncated expansion of the factor (only r terms u^r
        fit in the bounds) is applied as that expansion in one descending
        sweep instead, so the cost never grows with |power| beyond r.
        """
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if q_exp < 0 or t_exp < 0:
            raise ValueError("exponents must be nonnegative")
        if power < 0 and q_exp == 0:
            raise ValueError("negative power requires q_exp >= 1")
        if q_exp > self.q_bound or t_exp > self.t_bound:
            return
        c = self.coeff
        if q_exp:
            r_max = self.q_bound // q_exp
            if t_exp:
                r_max = min(r_max, self.t_bound // t_exp)
            if abs(power) > r_max:
                # (1 + s u)^e = sum_r comb(e, r) s^r u^r, and for e < 0
                # comb(-e - 1 + r, r) (-s)^r u^r; here every r <= r_max < |e|
                coef = [math.comb(power, r) * sign ** r if power > 0
                        else math.comb(-power - 1 + r, r) * (-sign) ** r
                        for r in range(r_max + 1)]
                for n in range(self.q_bound, q_exp - 1, -1):
                    dst = c[n]
                    for r in range(1, min(r_max, n // q_exp) + 1):
                        f, lo = coef[r], r * t_exp
                        dst[lo:] = [x + f * y for x, y in zip(dst[lo:], c[n - r * q_exp])]
                return
        # target rows in update order; each new row is built before it is
        # stored, so a pass with q_exp == 0 reads the row as it was
        rows = range(q_exp, self.q_bound + 1)
        if power > 0:
            rows = rows[::-1]
        add = (sign > 0) == (power > 0)
        for _ in range(abs(power)):
            for n in rows:
                dst, src = c[n], c[n - q_exp]
                if add:
                    dst[t_exp:] = [x + y for x, y in zip(dst[t_exp:], src)]
                else:
                    dst[t_exp:] = [x - y for x, y in zip(dst[t_exp:], src)]

    def restrict(self, q_bound: int, t_bound: int) -> "BiSeries":
        """Truncate to smaller bounds."""
        if q_bound > self.q_bound or t_bound > self.t_bound:
            raise ValueError("restrict only shrinks bounds")
        out = BiSeries(q_bound, t_bound)
        for n in range(q_bound + 1):
            out.coeff[n] = self.coeff[n][: t_bound + 1]
        return out

    def __repr__(self):
        parts = []
        for n, row in enumerate(self.coeff):
            poly = poly_str(enumerate(row), "t")
            if poly != "0":
                parts.append(f"q^{n}*({poly})" if n else poly)
        body = " + ".join(parts) if parts else "0"
        return f"BiSeries[q<={self.q_bound}, t<={self.t_bound}]({body})"


def check_count(value, name: str, low: int = 0) -> None:
    """Refuse, with ValueError, a value that is not an int (True, 2.0 and
    "2" included: type(), not isinstance) or is below low."""
    if type(value) is not int or value < low:
        kind = {0: "a nonnegative int", 1: "a positive int"}.get(low, f"an int >= {low}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def is_permutation(seq, n: int) -> bool:
    """Is seq a permutation of 1..n in one-line notation, a tuple or list of
    ints (type(), not isinstance: True and 2.0 are not read as 1 and 2)?"""
    return (isinstance(seq, (tuple, list)) and all(type(i) is int for i in seq)
            and sorted(seq) == list(range(1, n + 1)))


def check_cap(what: str, size: int, cap: int, error=ValueError) -> None:
    """Refuse, with error, a size above its cap: the one comparison of every
    size cap, and its one message, "<what> is above the cap of <cap>"."""
    if size > cap:
        raise error(f"{what} is above the cap of {cap}")


def power_str(var: str, e: int) -> str:
    """var to the power e: "" for e == 0, var for 1, "var^e" otherwise."""
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def signed_sum(terms, times: str) -> str:
    """Render (coefficient, body) pairs as a signed sum.

    A zero coefficient is skipped, an empty body prints the coefficient
    alone, 1 and -1 print as the body's sign, any other coefficient as
    coefficient, times, body, in parentheses if it prints as a sum (the
    RatFunc 1 + q); a term printed with a leading "-" joins the sum as
    " - ", and the empty sum is "0"."""
    out = ""
    for c, body in terms:
        if not c:
            continue
        if not body:
            term = str(c)
        elif c == 1 or c == -1:
            term = body if c == 1 else f"-{body}"
        else:
            term = str(c)
            if " " in term and term[0] != "(":
                term = f"({term})"
            term += times + body
        if not out:
            out = term
        elif term[0] == "-":
            out += f" - {term[1:]}"
        else:
            out += f" + {term}"
    return out or "0"


def poly_str(terms, var: str) -> str:
    """Render (degree, coefficient) pairs, in ascending degree, as a
    polynomial in var; zero coefficients are skipped, and nothing is "0"."""
    return signed_sum([(c, power_str(var, i)) for i, c in terms if c], "*")
