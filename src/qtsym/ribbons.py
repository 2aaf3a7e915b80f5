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

The strips inside one shape do not depend on the weight, so they are
kept in a strip table per (k, shape beads): a memo from (beads, number
of ribbons) to the strips' end beads, total spin and moves.  Listing
tableaux and summing histograms read the same table, and every shape's
table is kept, so each strip is enumerated once however the calls for
its shape are spread: listing all tableaux of a shape and then its LLT
polynomial finds no strip twice.  The memory stays bounded by a total
number of entries over all tables (_STRIP_TABLE_LIMIT), past which all
of them are dropped.

Listing follows a strip only when its end state can still be completed
by the remaining letters, which _alive decides with a liveness memo that
each listing makes and passes down; a partial tableau that cannot be
finished is never built.  A listed tableau keeps its start beads, the
moves of each letter's strip as the table holds them, and its spin
summed from the strips' totals; its cells and chain of partitions are
built on first access.

The recursive helpers are module functions that take their state as
arguments, not nested functions that call themselves, so a call's memos
are freed as soon as it returns.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import index, le
from typing import Sequence

from .errors import PartitionError, TableauError
from .partitions import Partition
from .render import boxed_rows
from .tableaux import _letter_counts


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
    of ribbons per letter.

    `chain` lists the partitions after each letter, from the empty one;
    `ribbons` the (label, cells, spin) triples in the order they were laid.
    A tableau listed by ribbon_tableaux keeps only its start beads and
    strip moves, and builds both on first access.
    """

    __slots__ = ("k", "shape", "weight", "spin", "_chain", "_ribbons", "_start", "_strips")

    def __init__(self, k, shape, weight, chain, ribbons):
        self.k = k
        self.shape = shape
        self.weight = tuple(weight)
        self._chain = tuple(chain)
        self._ribbons = tuple(ribbons)
        self.spin = sum(r[2] for r in self._ribbons)

    @classmethod
    def _listed(cls, k, shape, weight, start, strips, spin) -> RibbonTableau:
        """A tableau given by its start beads and, per letter, the moves of
        its strip as kept in the strip table."""
        tab = cls.__new__(cls)
        tab.k, tab.shape, tab.weight, tab.spin = k, shape, weight, spin
        tab._chain = tab._ribbons = None
        tab._start, tab._strips = start, strips
        return tab

    @property
    def chain(self) -> tuple[Partition, ...]:
        if self._chain is None:
            self._unfold()
        return self._chain

    @property
    def ribbons(self) -> tuple:
        if self._ribbons is None:
            self._unfold()
        return self._ribbons

    def _unfold(self) -> None:
        rows = _rows(self._start)
        chain = [Partition()]
        ribbons = []
        for letter, moves in enumerate(self._strips, 1):
            for stepped, spin in moves:
                stepped_rows = _rows(stepped)
                ribbons.append((letter, _cells(rows, stepped_rows), spin))
                rows = stepped_rows
            chain.append(Partition(r for r in rows if r))
        self._chain, self._ribbons = tuple(chain), tuple(ribbons)

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
) -> list[tuple[tuple[int, ...], list[tuple[tuple[int, ...], int]]]]:
    """All ways to add `count` ribbons as a horizontal strip.

    `beads` and `cap` are ascending bead tuples of equal length, `cap` the
    ambient shape's.  Lists the final bead tuple and the list of moves
    (bead tuple after the move, spin), with source positions strictly
    increasing.  Every move is pruned against `cap`.
    """
    out: list = []
    _add_strips(beads, 0, count, k, cap, [], out)
    return out


def _add_strips(cur, first: int, left: int, k: int, cap, moves: list, out: list) -> None:
    """Append to `out` each way to add `left` more ribbons to `cur`, from
    sources at index first or above, after `moves`."""
    if left == 0:
        out.append((cur, list(moves)))
        return
    size = len(cur)
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
        _add_strips(nxt, i, left - 1, k, cap, moves, out)
        moves.pop()


def _ribbon_size(k) -> int:
    """k as an int; TableauError unless it is an integer of at least 1."""
    if not hasattr(k, "__index__") or index(k) < 1:
        raise TableauError("ribbon size must be a positive integer")
    return index(k)


def _tableau_ends(shape: Partition, weight: Sequence[int], k: int):
    """The checked weight and ribbon size and the start and end bead
    tuples of a tableau."""
    k = _ribbon_size(k)
    weight = _letter_counts(weight, "ribbon weight")
    if shape.size != k * sum(weight):
        raise TableauError(
            f"shape {shape} has {shape.size} cells but the weight needs "
            f"{k * sum(weight)}"
        )
    length = max(k, len(shape) + k)
    return weight, k, _beads(Partition(), length), _beads(shape, length)


# (k, shape beads) -> that shape's memo {(beads, count): strips}.  When a
# new table is made while the tables hold more than _STRIP_TABLE_LIMIT
# entries in total, all of them are dropped.  An entry takes about 0.6 kB
# (its key and its strips' bead tuples), so the limit is about 3 MB, plus
# the table being filled.  One pass over the 87 shapes of k = 3 at size 12
# and k = 2 at size 10 (the Hall-Littlewood benchmark's) holds 1,741.
_STRIP_TABLES: dict[tuple[int, tuple[int, ...]], dict] = {}
_STRIP_TABLE_LIMIT = 5000


def _strip_table(k: int, cap: tuple[int, ...]):
    """The strip table of one shape: a memoized `strips(beads, count)`
    giving ((end beads, spin, moves), ...) in `_strip_moves` order, spin
    being the strip's total.  Every shape's table is kept, up to
    _STRIP_TABLE_LIMIT entries over all of them, so listing tableaux and
    summing histograms of one shape enumerate each strip once."""
    memo = _STRIP_TABLES.get((k, cap))
    if memo is None:
        if sum(map(len, _STRIP_TABLES.values())) > _STRIP_TABLE_LIMIT:
            _STRIP_TABLES.clear()
        memo = _STRIP_TABLES[(k, cap)] = {}

    def strips(beads: tuple[int, ...], count: int) -> tuple:
        key = (beads, count)
        found = memo.get(key)
        if found is None:
            found = memo[key] = tuple(
                (end, sum(spin for _, spin in moves), tuple(moves))
                for end, moves in _strip_moves(beads, k, count, cap)
            )
        return found

    return strips


def ribbon_tableaux(
    shape: Partition, weight: Sequence[int], k: int
) -> list[RibbonTableau]:
    """All k-ribbon tableaux of the given shape and weight.

    The weight lists how many ribbons carry each letter; letters with
    weight zero are allowed.  The shape must hold exactly k times the
    total weight in cells.  A strip is followed only when its end state
    can still be completed to the whole shape by the remaining letters,
    so no partial tableau is built in vain.
    """
    weight, k, start, cap = _tableau_ends(shape, weight, k)
    strips = _strip_table(k, cap)
    live: dict[tuple[tuple[int, ...], int], bool] = {}
    out: list[RibbonTableau] = []
    if _alive(strips, weight, live, start, 0):
        listed = (k, shape, weight, start)
        _add_tableaux(strips, weight, live, listed, start, 0, 0, [], out)
    return out


def _alive(strips, weight, live: dict, beads, letter: int) -> bool:
    """Whether the strips of letters letter, letter + 1, ... can go on from
    beads to the shape; `live` memoizes the answers of one listing."""
    # after the last letter the strips hold |cap| cells inside cap, so they
    # cover it
    if letter == len(weight):
        return True
    key = (beads, letter)
    found = live.get(key)
    if found is None:
        found = live[key] = any(
            _alive(strips, weight, live, end, letter + 1)
            for end, _, _ in strips(beads, weight[letter])
        )
    return found


def _add_tableaux(strips, weight, live, listed, beads, letter: int, spin: int, path, out):
    """Append to `out` each tableau that follows `path`, the moves of each
    letter's strip so far, with live strips; `listed` is the (k, shape,
    weight, start) of every tableau."""
    if letter == len(weight):  # every cell of the shape is covered
        out.append(RibbonTableau._listed(*listed, tuple(path), spin))
        return
    for end, shift, moves in strips(beads, weight[letter]):
        if _alive(strips, weight, live, end, letter + 1):
            path.append(moves)
            _add_tableaux(
                strips, weight, live, listed, end, letter + 1, spin + shift, path, out
            )
            path.pop()


def ribbon_spin_histogram(
    shape: Partition, weight: Sequence[int], k: int
) -> dict[int, int]:
    """{spin: count} over the k-ribbon tableaux of the given shape and weight.

    Counts the same tableaux as ribbon_tableaux, summing over the
    intermediate bead tuples after each letter instead of listing them.
    The strips come from the shape's strip table, shared with every other
    weight of the shape.
    """
    weight, k, start, cap = _tableau_ends(shape, weight, k)
    strips = _strip_table(k, cap)
    return _histogram(_strip_table(k, cap), weight, {}, start, 0)


def _histogram(strips, weight, memo: dict, beads, letter: int) -> dict[int, int]:
    """{spin: count} over the strips of letters letter, letter + 1, ...
    from beads; `memo` holds the histograms of one call."""
    if letter == len(weight):
        return {0: 1}
    key = (beads, letter)
    if key not in memo:
        total: dict[int, int] = {}
        for nxt, shift, _ in strips(beads, weight[letter]):
            for spin, count in _histogram(strips, weight, memo, nxt, letter + 1).items():
                total[spin + shift] = total.get(spin + shift, 0) + count
        memo[key] = total
    return memo[key]


def ribbon_strip_spins(
    base: Partition, cells: int, k: int, within: Partition
) -> list[tuple[Partition, int]]:
    """Horizontal strip extensions by `cells` ribbons with their spins."""
    k = _ribbon_size(k)
    length = max(k, len(within) + k)
    strips = _strip_moves(_beads(base, length), k, cells, _beads(within, length))
    return [
        (_partition_from_beads(end), sum(spin for _, spin in moves))
        for end, moves in strips
    ]
