"""Integer partitions with part multiplicities.

Partitions index the direct summands of the wreath product
(co)homology tables: a partition of n with p_i parts of size i
contributes the tensor product over i of p_i-th super symmetric
powers.  Enumeration is in reverse-lexicographic order, so (n) comes
first and (1, ..., 1) last.
"""

from __future__ import annotations

from collections.abc import Iterator

from .series import check_count


class Partition:
    """A partition of a nonnegative integer, parts weakly decreasing."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = tuple(parts)
        for p in parts:
            check_count(p, "part", 1)
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(("Partition", self.parts))

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def multiplicity(self, i: int) -> int:
        """Number of parts equal to i."""
        return sum(1 for p in self.parts if p == i)

    def multiplicities(self) -> dict[int, int]:
        """Map part size -> multiplicity, distinct sizes only, ascending."""
        out: dict[int, int] = {}
        for p in reversed(self.parts):
            out[p] = out.get(p, 0) + 1
        return out


def partitions(n: int) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order.

    partitions(0) yields the single empty partition.
    """
    check_count(n, "n")

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    for parts in gen(n, n):
        yield Partition(parts)


def partition_count(n: int) -> int:
    """Number of partitions of n (by direct enumeration)."""
    return sum(1 for _ in partitions(n))


def count_by_length(n: int) -> dict[int, int]:
    """Map number-of-parts -> count of partitions of n with that many parts."""
    out: dict[int, int] = {}
    for lam in partitions(n):
        out[len(lam)] = out.get(len(lam), 0) + 1
    return out
