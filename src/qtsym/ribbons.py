"""k-cores, k-quotients, and k-ribbon tableaux via bead positions.

A partition with at most L rows corresponds to the ascending bead tuple
(parts[L-1-j] + j : j < L) (rows padded with zeros).  Adding a k-ribbon
moves one bead from position p to the free position p + k; the spin of
that ribbon is the number of beads strictly between the two positions,
which is one less than the number of rows the ribbon spans.  For bead
tuples of equal length, lam lies inside mu exactly when lam's beads are
pointwise at most mu's, so moves are checked without building partitions.

A horizontal k-ribbon strip is a sequence of such moves whose source
positions strictly increase.  Ribbon tableaux are chains of horizontal
strips starting at the empty partition.  Their spin histogram is summed
over the bead tuples reached after each letter, without listing them.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import le
from typing import Iterator, Sequence

from .errors import PartitionError, TableauError
from .partitions import Partition
from .render import boxed_rows


def _beads(p: Partition, length: int) -> tuple[int, ...]:
    padded = p.padded(length)
    return tuple(padded[length - 1 - j] + j for j in range(length))


def _rows(beads: tuple[int, ...]) -> tuple[int, ...]:
    """Row lengths, zero-padded, of an ascending bead tuple."""
    return tuple(beads[j] - j for j in range(len(beads) - 1, -1, -1))


def _partition_from_beads(beads) -> Partition:
    desc = sorted(beads, reverse=True)
    length = len(desc)
    parts = [desc[i] - (length - 1 - i) for i in range(length)]
    return Partition([x for x in parts if x])


def core_and_quotient(p: Partition, k: int) -> tuple[Partition, tuple[Partition, ...]]:
    """Split a partition into its k-core and ordered k-quotient.

    Bead positions are taken with a bead count that is a multiple of k,
    which makes the labelling of the quotient components canonical.
    """
    if k < 1:
        raise PartitionError("ribbon size must be a positive integer")
    length = max(k, ((len(p) + k - 1) // k) * k)
    beads = _beads(p, length)
    runners: list[list[int]] = [[] for _ in range(k)]
    for b in beads:
        runners[b % k].append(b // k)
    quotient = tuple(_partition_from_beads(r) for r in runners)
    core_beads = [
        r + k * j for r, runner in enumerate(runners) for j in range(len(runner))
    ]
    core = _partition_from_beads(core_beads)
    return core, quotient


def from_core_and_quotient(
    core: Partition, quotient: Sequence[Partition], k: int
) -> Partition:
    """Rebuild the partition with the given k-core and k-quotient."""
    if k < 1:
        raise PartitionError("ribbon size must be a positive integer")
    if len(quotient) != k:
        raise PartitionError(f"a {k}-quotient needs exactly {k} components")
    rows_needed = len(core) + k * (sum(q.size for q in quotient) + 1)
    length = ((rows_needed + k - 1) // k) * k
    core_check, _ = core_and_quotient(core, k)
    if core_check != core:
        raise PartitionError(f"{core} is not a {k}-core")
    runners: list[list[int]] = [[] for _ in range(k)]
    for b in _beads(core, length):
        runners[b % k].append(b // k)
    beads: list[int] = []
    for r, runner in enumerate(runners):
        count = len(runner)
        rows = quotient[r].padded(count)
        beads.extend(r + k * (rows[i] + count - 1 - i) for i in range(count))
    return _partition_from_beads(beads)


def _cells(old: Sequence[int], new: Sequence[int]) -> tuple[tuple[int, int], ...]:
    return tuple(
        (i + 1, j + 1) for i, (a, b) in enumerate(zip(old, new)) for j in range(a, b)
    )


def ribbon_cells(before: Partition, after: Partition) -> tuple[tuple[int, int], ...]:
    """Cells of after/before as (row, col) pairs, 1-indexed."""
    return _cells(before.padded(len(after)), after.parts)


class RibbonTableau:
    """A tiling of a partition by labelled k-ribbons, one horizontal strip
    of ribbons per letter."""

    __slots__ = ("k", "shape", "weight", "chain", "ribbons", "spin")

    def __init__(self, k, shape, weight, chain, ribbons):
        self.k = k
        self.shape = shape
        self.weight = tuple(weight)
        self.chain = tuple(chain)
        self.ribbons = tuple(ribbons)  # (label, cells, spin) triples
        self.spin = sum(r[2] for r in ribbons)

    def cell_labels(self) -> dict[tuple[int, int], int]:
        return {cell: label for label, cells, _ in self.ribbons for cell in cells}

    def render(self) -> str:
        labels = self.cell_labels()
        rows = [
            [str(labels[(i + 1, j + 1)]) for j in range(length)]
            for i, length in enumerate(self.shape.parts)
        ]
        return boxed_rows(rows)

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            "k": self.k,
            "weight": list(self.weight),
            "spin": self.spin,
            "chain": [list(p.parts) for p in self.chain],
            "ribbons": [
                {"label": label, "cells": [list(c) for c in cells], "spin": spin}
                for label, cells, spin in self.ribbons
            ],
        }

    def __repr__(self) -> str:
        return f"RibbonTableau(shape={self.shape}, k={self.k}, spin={self.spin})"


def _strip_moves(
    beads: tuple[int, ...], k: int, count: int, cap: tuple[int, ...]
) -> Iterator[tuple[tuple[int, ...], list[tuple[int, int]]]]:
    """All ways to add `count` ribbons as a horizontal strip.

    `beads` and `cap` are ascending bead tuples of equal length, `cap` the
    ambient shape's.  Yields the final bead tuple and the list of moves
    (bead tuple after the move, spin), with source positions strictly
    increasing.  Every move is pruned against `cap`.
    """
    size = len(beads)

    def rec(cur: tuple[int, ...], first: int, left: int, moves: list):
        if left == 0:
            yield cur, list(moves)
            return
        # beads at index >= first lie above the previous source
        for i in range(first, size):
            target = cur[i] + k
            j = bisect_left(cur, target, i)
            if j < size and cur[j] == target:
                continue
            nxt = cur[:i] + cur[i + 1 : j] + (target,) + cur[j:]
            if not all(map(le, nxt, cap)):
                continue
            moves.append((nxt, j - i - 1))
            yield from rec(nxt, i, left - 1, moves)
            moves.pop()

    yield from rec(beads, 0, count, [])


def _tableau_ends(shape: Partition, weight: Sequence[int], k: int):
    """The checked weight and the start and end bead tuples of a tableau."""
    if k < 1:
        raise TableauError("ribbon size must be a positive integer")
    weight = tuple(int(w) for w in weight)
    if any(w < 0 for w in weight):
        raise TableauError("ribbon weights must be nonnegative")
    if shape.size != k * sum(weight):
        raise TableauError(
            f"shape {shape} has {shape.size} cells but the weight needs "
            f"{k * sum(weight)}"
        )
    length = max(k, len(shape) + k)
    return weight, _beads(Partition(), length), _beads(shape, length)


def ribbon_tableaux(
    shape: Partition, weight: Sequence[int], k: int
) -> list[RibbonTableau]:
    """All k-ribbon tableaux of the given shape and weight.

    The weight lists how many ribbons carry each letter; letters with
    weight zero are allowed.  The shape must hold exactly k times the
    total weight in cells.
    """
    weight, start, cap = _tableau_ends(shape, weight, k)
    out: list[RibbonTableau] = []

    def rec(beads, letter, chain, ribbons):
        if letter == len(weight):  # every cell of the shape is covered
            out.append(RibbonTableau(k, shape, weight, chain, ribbons))
            return
        for nxt_beads, moves in _strip_moves(beads, k, weight[letter], cap):
            rows = _rows(beads)
            new_ribbons = list(ribbons)
            for stepped, spin in moves:
                stepped_rows = _rows(stepped)
                new_ribbons.append((letter + 1, _cells(rows, stepped_rows), spin))
                rows = stepped_rows
            strip_end = Partition(r for r in rows if r)
            rec(nxt_beads, letter + 1, chain + [strip_end], new_ribbons)

    rec(start, 0, [Partition()], [])
    return out


def ribbon_spin_histogram(
    shape: Partition, weight: Sequence[int], k: int
) -> dict[int, int]:
    """{spin: count} over the k-ribbon tableaux of the given shape and weight.

    Counts the same tableaux as ribbon_tableaux, summing over the
    intermediate bead tuples after each letter instead of listing them.
    """
    weight, start, cap = _tableau_ends(shape, weight, k)
    memo: dict[tuple[tuple[int, ...], int], dict[int, int]] = {}

    def hist(beads, letter) -> dict[int, int]:
        if letter == len(weight):
            return {0: 1}
        key = (beads, letter)
        if key not in memo:
            total: dict[int, int] = {}
            for nxt, moves in _strip_moves(beads, k, weight[letter], cap):
                shift = sum(spin for _, spin in moves)
                for spin, count in hist(nxt, letter + 1).items():
                    total[spin + shift] = total.get(spin + shift, 0) + count
            memo[key] = total
        return memo[key]

    return hist(start, 0)


def ribbon_strip_spins(
    base: Partition, cells: int, k: int, within: Partition
) -> list[tuple[Partition, int]]:
    """Horizontal strip extensions by `cells` ribbons with their spins."""
    if k < 1:
        raise TableauError("ribbon size must be a positive integer")
    length = max(k, len(within) + k)
    strips = _strip_moves(_beads(base, length), k, cells, _beads(within, length))
    return [
        (_partition_from_beads(end), sum(spin for _, spin in moves))
        for end, moves in strips
    ]
