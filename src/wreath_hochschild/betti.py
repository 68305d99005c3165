"""Graded dimension tables and symmetric powers of graded super spaces.

A BettiTable records the dimensions of a nonnegatively graded vector
space, degree by degree.  The parity of the degree is the super grading:
even degrees are even, odd degrees are odd.  Symmetric powers are taken
in the super sense, so odd degrees contribute exterior-power counts.
"""

from __future__ import annotations

import math

from .series import check_count


class BettiTable:
    """Immutable map {degree: dimension} with zero entries dropped."""

    __slots__ = ("_dims",)

    def __init__(self, dims):
        clean = {}
        for k, v in dict(dims).items():
            # the hot path of every table: one inline test, and check_count,
            # the one count rule, words the refusal only when it fires
            if type(k) is not int or type(v) is not int or k < 0 or v < 0:
                check_count(k, "degree")
                check_count(v, "dimension")
            if v:
                clean[k] = v
        self._dims = clean

    def dims(self) -> dict[int, int]:
        return dict(self._dims)

    def __getitem__(self, degree: int) -> int:
        return self._dims.get(degree, 0)

    def __iter__(self):
        return iter(sorted(self._dims))

    def __len__(self):
        return len(self._dims)

    def __eq__(self, other):
        if isinstance(other, BettiTable):
            return self._dims == other._dims
        if isinstance(other, dict):
            return self._dims == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._dims.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}: {self._dims[k]}" for k in sorted(self._dims))
        return f"BettiTable({{{inner}}})"

    @property
    def max_degree(self) -> int:
        return max(self._dims, default=0)

    @property
    def total_dim(self) -> int:
        return sum(self._dims.values())

    def shift(self, s: int) -> "BettiTable":
        """Shift every degree up by s.  Only even shifts preserve parity,
        and parity carries the super grading, so odd shifts are refused."""
        if s < 0 or s % 2:
            raise ValueError("shift must be even and nonnegative")
        return BettiTable({k + s: v for k, v in self._dims.items()})

    def add(self, other: "BettiTable") -> "BettiTable":
        check_table(other)
        out = dict(self._dims)
        for k, v in other._dims.items():
            out[k] = out.get(k, 0) + v
        return BettiTable(out)

    __add__ = add

    def tensor(self, other: "BettiTable") -> "BettiTable":
        check_table(other)
        out: dict[int, int] = {}
        for k1, v1 in self._dims.items():
            for k2, v2 in other._dims.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return BettiTable(out)


class _Record:
    """Frozen value record over the fields in a subclass's __slots__.

    Equal, with the same hash, to a record of the same class with equal
    fields; assigning or deleting a field raises AttributeError; pickle and
    copy rebuild a record through its constructor, with its checks.
    """

    __slots__ = ()

    def __init__(self, *values):
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        inner = ", ".join(f"{field}={getattr(self, field)!r}" for field in self.__slots__)
        return f"{type(self).__qualname__}({inner})"

    def __reduce__(self):
        return type(self), self._values()


class AlgebraPreset(_Record):
    """A named algebra standing in only through its cohomology dimensions.

    d is the duality dimension: the cohomology table must be supported in
    [0, d], and degree-i classes pair with degree-(d-i) homology classes.
    """

    __slots__ = ("name", "d", "betti")

    def __init__(self, name: str, d: int, betti: BettiTable):
        if not isinstance(betti, BettiTable):
            betti = BettiTable(betti)
        check_duality(betti, d)
        super().__init__(name, d, betti)


def check_table(table) -> None:
    """Refuse, with TypeError, a table that is not a BettiTable."""
    if not isinstance(table, BettiTable):
        raise TypeError(f"table must be a BettiTable, got {type(table).__name__}")


def check_duality(table: BettiTable, d: int) -> None:
    """check_table, then refuse a duality dimension d that is not an even
    positive int, and a table supported above degree d."""
    check_table(table)
    # type(), not isinstance: 2.0 and True are refused, not read as ints
    if type(d) is not int or d <= 0 or d % 2:
        raise ValueError(f"duality dimension d must be an even positive int, got {d!r}")
    if table.max_degree > d:
        raise ValueError("table support exceeds the duality dimension")


def _packed_sym_powers(table: BettiTable, pmax: int, width) -> tuple[int, list[int]]:
    """(B, rows): B = width(M), M the total dimension of the checked table,
    rows[p] the z^p term of prod_{j even} (1 - z t^j)^(-m_j) prod_{j odd}
    (1 + z t^j)^(m_j) as sum dim * 2^(B*degree).  Each factor has constant
    term 1 and no negative term: no slot exceeds its dim S^p <= C(M+p-1, p)."""
    check_table(table)
    bits = width(table.total_dim)
    rows = [1] + [0] * pmax
    for j, m in table.dims().items():
        factor = ([math.comb(m, r) for r in range(1, min(m, pmax) + 1)] if j % 2
                  else [math.comb(m + r - 1, r) for r in range(1, pmax + 1)])
        step = bits * j
        for p in range(pmax, 0, -1):  # p descending: rows[p - r] is still old
            row = rows[p]
            for r, c in enumerate(factor[:p], 1):
                row += c * rows[p - r] << step * r
            rows[p] = row
    return bits, rows


def _unpacked(row: int, width: int) -> BettiTable:
    """The table of sum dim * 2^(width*degree), every dim below 2^width."""
    mask = (1 << width) - 1
    return BettiTable({k: row >> width * k & mask
                       for k in range((row.bit_length() - 1) // width + 1)})


def super_sym_powers(table: BettiTable, pmax: int):
    """The super symmetric powers S^0 .. S^pmax, as BettiTables: the exact
    rows of _packed_sym_powers, read at the width of C(M+pmax-1, pmax)."""
    check_count(pmax, "pmax")
    width, rows = _packed_sym_powers(
        table, pmax, lambda m: (math.comb(m + pmax - 1, pmax) if m else 1).bit_length())
    return [_unpacked(row, width) for row in rows]
