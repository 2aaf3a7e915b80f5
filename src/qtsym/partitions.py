"""Integer partitions and the order conventions used across the package.

Partitions are immutable, tuple-backed, and validated on construction.
Whenever a module needs "all partitions of n" the list comes from
partitions_of, which enumerates in decreasing lexicographic order: (n)
first, (1^n) last.  That order refines dominance, so triangular
basis-change matrices really look triangular against these keys.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial
from operator import index
from typing import Iterable, Iterator

from .errors import PartitionError


class Partition:
    """A weakly decreasing tuple of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        try:
            parts = tuple(map(index, parts))
        except TypeError:
            raise PartitionError("partition parts must be integers") from None
        for i, p in enumerate(parts):
            if p <= 0:
                raise PartitionError(f"partition parts must be positive, got {p}")
            if i and parts[i - 1] < p:
                raise PartitionError(f"parts must weakly decrease, got {parts}")
        self.parts = parts

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __eq__(self, other) -> bool:
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.parts)

    def __lt__(self, other: "Partition") -> bool:
        return self.parts < other.parts

    def __le__(self, other: "Partition") -> bool:
        return self.parts <= other.parts

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def conjugate(self) -> "Partition":
        if not self.parts:
            return Partition()
        cols = [0] * self.parts[0]
        for p in self.parts:
            for j in range(p):
                cols[j] += 1
        return Partition(cols)

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    def zee(self) -> int:
        """The centralizer order z = prod i^{m_i} m_i! over part sizes i."""
        z = 1
        for i, m in self.multiplicities().items():
            z *= i**m * factorial(m)
        return z

    def n_stat(self) -> int:
        """The statistic n = sum (i-1) * parts[i-1]."""
        return sum(i * p for i, p in enumerate(self.parts))

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self row by row."""
        if len(other) > len(self.parts):
            return False
        return all(o <= s for s, o in zip(self.parts, other.parts))

    def padded(self, length: int) -> tuple[int, ...]:
        if length < len(self.parts):
            raise PartitionError("cannot pad a partition to a shorter length")
        return self.parts + (0,) * (length - len(self.parts))


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n in decreasing lexicographic order."""
    if n < 0:
        raise PartitionError("partitions are defined for nonnegative sizes")
    parts = [n] if n else []
    out = []
    while True:
        out.append(Partition(parts))
        # the next partition lowers the last part above 1 by one and
        # refills the cells after it greedily with parts of that size
        freed = 0
        while parts and parts[-1] == 1:
            freed += parts.pop()
        if not parts:
            return tuple(out)
        freed += parts[-1]
        size = parts.pop() - 1
        whole, rest = divmod(freed, size)
        parts += [size] * whole
        if rest:
            parts.append(rest)


def dominance_leq(a: Partition, b: Partition) -> bool:
    """True when a is dominated by b; requires equal sizes."""
    if a.size != b.size:
        raise PartitionError(
            f"dominance compares partitions of equal size, got {a} and {b}"
        )
    total_a = total_b = 0
    for i in range(max(len(a), len(b))):
        total_a += a.parts[i] if i < len(a) else 0
        total_b += b.parts[i] if i < len(b) else 0
        if total_a > total_b:
            return False
    return True


def horizontal_strip_extensions(
    base: Partition, cells: int, within: Partition | None = None
) -> list[Partition]:
    """Partitions obtained from base by adding a horizontal strip of cells.

    A horizontal strip adds at most one cell per column, which pins each new
    row length between the old length and the row above's old length.  The
    optional bound keeps every result inside the diagram of `within`.
    """
    rows = len(base) + 1
    old = base.padded(rows)
    caps = []
    for i in range(rows):
        cap = old[i - 1] if i else None
        if within is not None:
            w = within.parts[i] if i < len(within) else 0
            cap = w if cap is None else min(cap, w)
        caps.append(cap)

    results: list[Partition] = []
    _add_strip_rows(old, caps, 0, cells, [], results)
    return results


def _add_strip_rows(
    old, caps, i: int, remaining: int, chosen: list[int], results: list
) -> None:
    """Append each partition whose rows i, i+1, ... take `remaining` more
    cells past `old` within `caps`, row i's length tried in increasing order."""
    if i == len(old):
        if remaining == 0:
            results.append(Partition([c for c in chosen if c]))
        return
    low = old[i]
    high = remaining + low if caps[i] is None else min(caps[i], remaining + low)
    for new_len in range(low, high + 1):
        chosen.append(new_len)
        _add_strip_rows(old, caps, i + 1, remaining - (new_len - low), chosen, results)
        chosen.pop()


def is_horizontal_strip(inner: Partition, outer: Partition) -> bool:
    """True when outer/inner adds at most one cell per column."""
    if not outer.contains(inner):
        return False
    rows = len(outer)
    small = inner.padded(rows)
    return all(
        outer.parts[i] >= small[i] and (i == 0 or outer.parts[i] <= small[i - 1])
        for i in range(rows)
    )


def distinct_permutations(values: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """All distinct rearrangements of a multiset of integers, in
    increasing lexicographic order."""
    current = sorted(values)
    n = len(current)
    while True:
        yield tuple(current)
        # the next one raises the last position i that can grow to the
        # least larger value after it, and sorts the tail after i
        i = n - 2
        while i >= 0 and current[i] >= current[i + 1]:
            i -= 1
        if i < 0:
            return
        j = n - 1
        while current[j] <= current[i]:
            j -= 1
        current[i], current[j] = current[j], current[i]
        current[i + 1 :] = current[:i:-1]
