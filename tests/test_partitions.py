"""Partition container, enumeration order, dominance, strips."""

import itertools
from fractions import Fraction
from math import comb, factorial

import pytest

from qtsym.errors import PartitionError
from qtsym.partitions import (
    Partition,
    distinct_permutations,
    dominance_leq,
    horizontal_strip_extensions,
    is_horizontal_strip,
    partitions_of,
)


def euler_partition_count(n: int) -> int:
    """Pentagonal number recurrence, kept independent of the library."""
    counts = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                total += sign * counts[m - g1]
            if g2 <= m:
                total += sign * counts[m - g2]
            k += 1
        counts[m] = total
    return counts[n]


def test_validation():
    with pytest.raises(PartitionError):
        Partition([1, 2])
    with pytest.raises(PartitionError):
        Partition([2, 0])
    with pytest.raises(PartitionError):
        Partition([-1])
    assert Partition([3, 1]).parts == (3, 1)
    assert Partition().parts == ()


# non-integer parts used to be truncated: [2.7, 1.2] built the partition [2,1]
def test_float_parts_rejected():
    with pytest.raises(PartitionError, match="must be integers"):
        Partition([2.7, 1.2])


def test_str_parts_rejected():
    with pytest.raises(PartitionError, match="must be integers"):
        Partition(["3", "1"])


def test_fraction_parts_rejected():
    with pytest.raises(PartitionError, match="must be integers"):
        Partition([Fraction(5, 2), 1])


def test_basis_element_with_float_part_rejected(S):
    with pytest.raises(PartitionError, match="must be integers"):
        S["s"]([2.5])


def test_enumeration_order():
    assert [p.parts for p in partitions_of(0)] == [()]
    assert [p.parts for p in partitions_of(4)] == [
        (4,),
        (3, 1),
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    ]


def test_counts_match_pentagonal_recurrence():
    for n in range(11):
        assert len(partitions_of(n)) == euler_partition_count(n)
    assert len(partitions_of(10)) == 42


def test_enumeration_refines_dominance():
    for n in range(7):
        parts = partitions_of(n)
        for i, a in enumerate(parts):
            for b in parts[i + 1 :]:
                # a comes first, so a must not be dominated by the later b
                assert not (dominance_leq(a, b) and a != b)


def test_conjugate():
    assert Partition([3, 1]).conjugate() == Partition([2, 1, 1])
    assert Partition().conjugate() == Partition()
    for n in range(8):
        for p in partitions_of(n):
            assert p.conjugate().conjugate() == p
            assert p.conjugate().size == p.size


def test_zee_against_permutation_count():
    # summing n!/z over cycle types counts all permutations of n letters
    for n in range(1, 9):
        assert sum(factorial(n) // p.zee() for p in partitions_of(n)) == factorial(n)
    assert Partition([2, 1]).zee() == 2
    assert Partition([1, 1, 1]).zee() == 6
    assert Partition([2, 2]).zee() == 8


def test_n_stat_column_oracle():
    # n equals the sum over columns of binom(col_height, 2)
    for n in range(9):
        for p in partitions_of(n):
            assert p.n_stat() == sum(comb(c, 2) for c in p.conjugate())
    assert Partition([2, 1]).n_stat() == 1


def test_dominance():
    assert dominance_leq(Partition([2, 2]), Partition([3, 1]))
    assert not dominance_leq(Partition([3, 1]), Partition([2, 2]))
    assert dominance_leq(Partition([2, 1]), Partition([2, 1]))
    with pytest.raises(PartitionError):
        dominance_leq(Partition([2]), Partition([1]))


def test_containment_and_padding():
    assert Partition([3, 2]).contains(Partition([2, 2]))
    assert not Partition([3, 2]).contains(Partition([1, 1, 1]))
    assert Partition([2]).padded(3) == (2, 0, 0)
    with pytest.raises(PartitionError):
        Partition([2, 1]).padded(1)


def brute_horizontal_strips(base: Partition, cells: int) -> set[Partition]:
    out = set()
    for cand in partitions_of(base.size + cells):
        if is_horizontal_strip(base, cand):
            out.add(cand)
    return out


def test_horizontal_strips_match_brute_force():
    for n in range(6):
        for base in partitions_of(n):
            for cells in range(4):
                got = set(horizontal_strip_extensions(base, cells))
                assert got == brute_horizontal_strips(base, cells)


def test_horizontal_strips_respect_bound():
    bound = Partition([3, 2])
    got = horizontal_strip_extensions(Partition([1]), 2, within=bound)
    assert set(got) == {Partition([3]), Partition([2, 1])}


def test_distinct_permutations():
    assert set(distinct_permutations((1, 1, 2))) == {(1, 1, 2), (1, 2, 1), (2, 1, 1)}
    assert list(distinct_permutations(())) == [()]
    assert len(list(distinct_permutations((3, 2, 1)))) == 6


def test_distinct_permutations_come_in_lexicographic_order():
    multisets = [
        values
        for size in range(8)
        for values in itertools.combinations_with_replacement(range(3), size)
    ]
    multisets += [(4, -1, 0, 4, 2, -1, 7), (5, 3, 3, 1), (2, 0, 1, 2, 0, 1)]
    for values in multisets:
        expected = sorted(set(itertools.permutations(values)))
        assert list(distinct_permutations(values)) == expected, values
