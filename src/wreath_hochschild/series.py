"""Truncated bivariate power series with exact integer coefficients.

A BiSeries stores the coefficients of sum_{n,i} c[n][i] q^n t^i for
0 <= n <= q_bound and 0 <= i <= t_bound.  All arithmetic is exact;
products are truncated to the shared bounds.  The q variable counts
the wreath index n, the t variable counts (co)homological degree.

The one Euler-product kernel, _apply_factor_rows, works on packed rows:
the q^n row is one int, sum_i c[n][i] * 2^(B*i) (Kronecker substitution),
so one copy of a factor 1 + s q^a t^b costs one shift-add per row, and a
long power one multiply-shift-add per term of its truncated expansion.
_euler_product, the product route of every wreath table, closed form and
gamma series, starts from the rows of 1, applies every (m, factor) and
reads the rows back once; BiSeries.apply_factor does so for one factor.
Both build their result as BiSeries(q_bound, t_bound), _euler_product
before any row, so every bound passes check_count, and then set its
coefficients from the rows.  The slot width B is the bit length of a
bound on every value the kernel stores, plus a sign bit, rounded up to 1,
2, 4 or 8 bytes (whole bytes above that).  For factors of total |power| M
applied to 1 the bound is p_M(Q), the coefficient of q^Q in
prod_m (1 - q^m)^(-M), which majorises the product at t = 1; _slot_width
computes it, the one Kronecker bound, which the walk reads too.
Coefficients are signed and a row is the exact integer, with no carry
rule.  Every t exponent is >= 0, so no slot reads a slot above it: a row
that outgrows t_bound + 1 slots is cut back to them, as its balanced
residue modulo 2^(B*(t_bound + 1)), which keeps small t bounds cheap.  A
row is read back in balanced form: adding half a slot to every slot
leaves each slot its coefficient + 2^(B - 1), in [0, 2^B), with no borrow
between slots, so each slot reads from the bytes.

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
import sys
from operator import mul


class BiSeries:
    """Dense table of integer coefficients c[n][i] of q^n t^i."""

    __slots__ = ("q_bound", "t_bound", "coeff")

    def __init__(self, q_bound: int, t_bound: int):
        check_count(q_bound, "q_bound")
        check_count(t_bound, "t_bound")
        self.q_bound = q_bound
        self.t_bound = t_bound
        self.coeff = [[0] * (t_bound + 1) for _ in range(q_bound + 1)]

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
        if not isinstance(other, BiSeries):
            raise TypeError(f"a BiSeries combines only with a BiSeries, "
                            f"got {type(other).__name__}")
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
        A row is packed as its positive part minus its negated negative
        part, each joined from slot bytes in linear time; the kernel applies
        the factor and the rows are read back.  The slot width holds max |c|
        of self times the sum of the |coefficients| of the factor's truncated
        expansion, a bound on every value the kernel stores.
        """
        q_bound, t_bound = self.q_bound, self.t_bound
        # the terms u^r that fit, r <= e; the kernel refuses a bad factor
        e = abs(power)
        if q_exp > 0:
            e = min(e, q_bound // q_exp) if power > 0 else q_bound // q_exp
        if t_exp > 0:
            e = min(e, t_bound // t_exp)
        # sum of |coefficients| of (1 + s u)^power to u^e
        norm = (sum(math.comb(power, r) for r in range(e + 1)) if power >= 0
                else math.comb(-power + e, e))
        big = max((abs(c) for row in self.coeff for c in row), default=0)
        width = _signed_width((big * norm).bit_length())
        size = width // 8
        zero = bytes(size)
        rows = [int.from_bytes(b"".join([c.to_bytes(size, "little") if c > 0 else zero
                                         for c in row]), "little")
                - int.from_bytes(b"".join([(-c).to_bytes(size, "little") if c < 0 else zero
                                           for c in row]), "little")
                for row in self.coeff]
        _apply_factor_rows(rows, width, t_bound, sign, q_exp, t_exp, power)
        out = BiSeries(q_bound, t_bound)
        out.coeff = _unpack_rows(rows, width, t_bound)
        return out

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


def _slot_width(colours: int, n: int) -> int:
    """Bit length of p_M(n) (at least 1), M = colours, from the recurrence
    n p_M(n) = M sum_k sigma(k) p_M(n-k), sigma(k) the sum of the divisors of k.

    The one Kronecker bound: p_M(n) is the coefficient of q^n in the
    majorant prod_m (1 - q^m)^(-M), so it bounds every coefficient of the
    partition walk over a table of total dimension M and every value the
    Euler-product kernel stores for factors of total |power| M.  Sharing
    the bound does not couple the two answers: a width that is too small
    corrupts the walk's unsigned slots and the product's balanced slots
    in different ways, and verify wreath compares the two routes."""
    sigma = [0] * (n + 1)
    for j in range(1, n + 1):
        for k in range(j, n + 1, j):
            sigma[k] += j
    del sigma[0]
    counts = [1]
    for m in range(1, n + 1):
        # sum_k sigma(k) p_M(m - k) for k = 1 .. m
        counts.append(colours * sum(map(mul, sigma, reversed(counts))) // m)
    return max(1, counts[n].bit_length())


def _signed_width(bits: int) -> int:
    """Slot width for signed values of at most bits bits: one sign bit more,
    rounded up to 1, 2, 4 or 8 bytes, or to whole bytes above 8, so that a
    row reads back from its bytes."""
    size = bits // 8 + 1
    if size <= 8:
        size = 1 << (size - 1).bit_length()
    return 8 * size


# memoryview formats of the little-endian signed slots a row's bytes cast to
_NATIVE_SIGNED = {1: "b", 2: "h", 4: "i", 8: "q"} if sys.byteorder == "little" else {}


def _unpack_rows(rows, width: int, t_bound: int) -> list[list[int]]:
    """The coefficient lists of packed rows, t^0 .. t^t_bound, read in
    balanced form.  Adding half a slot to every slot makes each slot its
    coefficient + 2^(width - 1), in [0, 2^width), with no borrow between
    slots; flipping each slot's top bit then leaves the coefficient in
    width-bit two's complement, so each slot is read from the bytes alone."""
    size = width // 8
    nbytes = size * (t_bound + 1)
    bias = int.from_bytes((1 << width - 1).to_bytes(size, "little") * (t_bound + 1), "little")
    fmt = _NATIVE_SIGNED.get(size)
    out = []
    for row in rows:
        raw = ((row + bias) ^ bias).to_bytes(nbytes, "little")
        out.append(memoryview(raw).cast(fmt).tolist() if fmt else
                   [int.from_bytes(raw[j:j + size], "little", signed=True)
                    for j in range(0, nbytes, size)])
    return out


def _cut(row: int, bits: int) -> int:
    """row modulo 2^bits, as the residue in [-2^(bits - 1), 2^(bits - 1)):
    a packed row cut back to its slots below bit bits, exact while each of
    those slots holds a coefficient below half a slot in absolute value."""
    half = 1 << bits - 1
    return ((row + half) & ((half << 1) - 1)) - half


def _apply_factor_rows(rows: list, width: int, t_bound: int,
                       sign: int, q_exp: int, t_exp: int, power: int) -> None:
    """The Euler-product kernel: multiply packed rows (rows[n] the q^n row,
    the int sum_i c[n][i] * 2^(width*i)) by (1 + sign * q^q_exp *
    t^t_exp)^power, in place, truncated at q^(len(rows) - 1) and t^t_bound.

    With u = q^q_exp t^t_exp, one copy of 1 + sign * u is one shift-add
    per row: multiplying updates row[n] += sign * row[n - q_exp] << width *
    t_exp with n descending, so every source row is read before it is
    changed; dividing solves the same relation for the old row with n
    ascending, so every source row is already divided.  A power longer than
    the truncated expansion of the factor (only r terms u^r fit in the
    bounds) is applied as that expansion in one descending sweep instead,
    one multiply-shift-add per term, so the cost never grows with |power|
    beyond r.  A row that outgrows t_bound + 1 slots is cut back to them
    (_cut).  The caller picks width so that every stored |coefficient| is
    below 2^(width - 1).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if q_exp < 0 or t_exp < 0:
        raise ValueError("exponents must be nonnegative")
    if power < 0 and q_exp == 0:
        raise ValueError("negative power requires q_exp >= 1")
    q_bound = len(rows) - 1
    if q_exp > q_bound or t_exp > t_bound:
        return
    shift = width * t_exp
    top = width * (t_bound + 1)
    if q_exp:
        r_max = q_bound // q_exp
        if t_exp:
            r_max = min(r_max, t_bound // t_exp)
        if abs(power) > r_max:
            # (1 + s u)^e = sum_r comb(e, r) s^r u^r, and for e < 0
            # comb(-e - 1 + r, r) (-s)^r u^r; here every r <= r_max < |e|
            coef = [math.comb(power, r) * sign ** r if power > 0
                    else math.comb(-power - 1 + r, r) * (-sign) ** r
                    for r in range(r_max + 1)]
            for n in range(q_bound, q_exp - 1, -1):
                row = rows[n]
                for r in range(1, min(r_max, n // q_exp) + 1):
                    row += coef[r] * rows[n - r * q_exp] << r * shift
                if row.bit_length() >= top:
                    row = _cut(row, top)
                rows[n] = row
            return
    # target rows in update order; each new row is built before it is
    # stored, so a pass with q_exp == 0 reads the row as it was
    order = range(q_exp, q_bound + 1)
    if power > 0:
        order = order[::-1]
    add = (sign > 0) == (power > 0)
    for _ in range(abs(power)):
        for n in order:
            src = rows[n - q_exp] << shift
            row = rows[n] + src if add else rows[n] - src
            if row.bit_length() >= top:
                row = _cut(row, top)
            rows[n] = row


def _euler_product(factors, q_bound: int, t_bound: int) -> BiSeries:
    """Expand prod_{m=1..q_bound} prod (1 + sign q^m t^{slope*m + offset})^power
    over the (sign, slope, offset, power) factors, truncated at the bounds
    (factors with m > q_bound cannot contribute).  The series is built
    first, so the bounds pass check_count before any row is."""
    out = BiSeries(q_bound, t_bound)
    width = _signed_width(_slot_width(sum(abs(f[3]) for f in factors), q_bound))
    rows = [1] + [0] * q_bound
    for m in range(1, q_bound + 1):
        for sign, slope, offset, power in factors:
            _apply_factor_rows(rows, width, t_bound, sign, m, slope * m + offset, power)
    out.coeff = _unpack_rows(rows, width, t_bound)
    return out


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
