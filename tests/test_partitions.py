import random

import pytest

from wreath_hochschild.partitions import (
    Partition,
    count_by_length,
    partition_count,
    partitions,
)

# first values of the partition function, OEIS A000041
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135,
                    176, 231, 297, 385, 490, 627, 792, 1002, 1255, 1575, 1958]


def test_partition_counts_match_table():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert partition_count(n) == expected


def test_partitions_of_five():
    got = [p.parts for p in partitions(5)]
    assert got == [
        (5,),
        (4, 1),
        (3, 2),
        (3, 1, 1),
        (2, 2, 1),
        (2, 1, 1, 1),
        (1, 1, 1, 1, 1),
    ]


def test_partitions_of_zero_is_empty_partition():
    got = list(partitions(0))
    assert len(got) == 1
    assert got[0].parts == ()
    assert got[0].n == 0


def test_parts_sum_and_ordering():
    for n in range(12):
        seen = set()
        for p in partitions(n):
            assert sum(p.parts) == n
            assert all(a >= b for a, b in zip(p.parts, p.parts[1:]))
            assert all(a >= 1 for a in p.parts)
            assert p.parts not in seen
            seen.add(p.parts)


def test_multiplicities():
    p = Partition((4, 2, 2, 1))
    assert p.multiplicity(2) == 2
    assert p.multiplicity(3) == 0
    assert p.multiplicities() == {1: 1, 2: 2, 4: 1}
    assert p.n == 9
    assert len(p) == 4


def test_partition_validation():
    for bad in [(1, 2), (0,), (-1,), (2, 3, 1), (2.5,), (True,), ("2",)]:
        try:
            Partition(bad)
        except ValueError:
            pass
        else:
            assert False, f"expected ValueError for {bad}"


def test_partitions_refuse_an_n_that_is_not_an_int():
    for bad in (True, 2.5, "2", -1):
        with pytest.raises(ValueError, match="^n must be a nonnegative int"):
            list(partitions(bad))


def test_count_by_length_row_sums():
    for n in range(1, 20):
        table = count_by_length(n)
        assert sum(table.values()) == partition_count(n)
        assert table.get(1) == 1
        assert table.get(n) == 1


def test_count_by_length_conjugation_symmetry():
    # number of partitions of n with k parts = number with largest part k
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randrange(1, 18)
        table = count_by_length(n)
        for k, cnt in table.items():
            by_largest = sum(1 for p in partitions(n) if p.parts[0] == k)
            assert cnt == by_largest
