"""Semistandard tableaux, the charge statistic, Kostka polynomials.

Diagrams are drawn in English notation: row 1 on top, rows left
justified.  The reading word concatenates rows left to right starting
from the bottom row.  Charge follows the cyclic subword extraction rule:
repeatedly extract a standard subword (scan for the rightmost 1, then for
each next letter scan leftward, wrapping around), score each extracted
word, and sum the scores.

One filler lists semistandard tableaux for both ssyt and kostka_poly:
it writes the letters into the rows in place, one horizontal strip per
letter, and hands out the finished rows.  ssyt wraps them in Tableaux
without checking them again; kostka_poly charges their reading words.
"""

from __future__ import annotations

from functools import lru_cache
from operator import index
from typing import Iterable, Sequence

from .coeffs import Coeff
from .errors import TableauError
from .partitions import Partition, horizontal_strip_extensions
from .render import boxed_rows


class Tableau:
    """A semistandard filling of a partition shape with positive integers."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Sequence[int]]):
        try:
            rows = tuple(tuple(map(index, row)) for row in rows)
        except TypeError:
            raise TableauError("entries must be positive integers") from None
        lengths = [len(r) for r in rows]
        if any(x <= 0 for row in rows for x in row):
            raise TableauError("entries must be positive integers")
        if any(lengths[i] < lengths[i + 1] for i in range(len(lengths) - 1)) or 0 in lengths:
            raise TableauError("row lengths must form a partition")
        for row in rows:
            if any(row[j] > row[j + 1] for j in range(len(row) - 1)):
                raise TableauError("rows must weakly increase")
        for i in range(len(rows) - 1):
            upper, lower = rows[i], rows[i + 1]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise TableauError("columns must strictly increase")
        self.rows = rows

    @property
    def shape(self) -> Partition:
        return Partition(len(r) for r in self.rows)

    def content(self) -> tuple[int, ...]:
        """Multiplicity vector of the letters 1..max."""
        if not self.rows:
            return ()
        top = max(max(r) for r in self.rows)
        counts = [0] * top
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def reading_word(self) -> tuple[int, ...]:
        word: list[int] = []
        for row in reversed(self.rows):
            word.extend(row)
        return tuple(word)

    def __eq__(self, other) -> bool:
        if isinstance(other, Tableau):
            return self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"Tableau({list(map(list, self.rows))!r})"

    def render(self) -> str:
        return boxed_rows([[str(x) for x in row] for row in self.rows])

    def to_json(self) -> dict:
        return {
            "shape": list(self.shape.parts),
            "rows": [list(r) for r in self.rows],
        }


def _letter_counts(values: Sequence[int], what: str) -> tuple[int, ...]:
    """The entries as ints; TableauError unless each is a nonnegative
    integer (a float such as 1.5 is refused, not truncated)."""
    try:
        counts = tuple(map(index, values))
    except TypeError:
        raise TableauError(f"{what} entries must be integers") from None
    if min(counts, default=0) < 0:
        raise TableauError(f"{what} entries must be nonnegative")
    return counts


def _fillings(shape: Partition, content: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    """The rows of every semistandard filling of shape with content.

    Each letter is a horizontal strip written into the rows in place: row
    i grows up to its part of the shape and to row i-1's length before
    this letter.  Lengths are tried in increasing order from the top row
    down, the order of chains of horizontal_strip_extensions.
    """
    caps = shape.parts
    out: list[tuple[tuple[int, ...], ...]] = []
    top = caps[0] if caps else 0
    _add_fillings([[] for _ in caps], caps, content, out, top, -1, 0, 0, top)
    return out


def _add_fillings(
    rows, caps, content, out, top: int, letter: int, i: int, left: int, above: int
) -> None:
    """Append every completion of `rows` by _fillings: `left` cells of
    letter + 1 go into rows i, i+1, ...; `above` is row i-1's length before
    this letter, `top` the first row's cap."""
    while not left:  # the letter is placed: start the next one here
        letter += 1
        if letter == len(content):
            out.append(tuple(map(tuple, rows)))
            return
        i, left, above = 0, content[letter], top
    # rows with no room take nothing
    height = len(rows)
    while i < height and len(rows[i]) == min(caps[i], above):
        above = len(rows[i])
        i += 1
    if i == height:
        return
    row = rows[i]
    old = len(row)
    _add_fillings(rows, caps, content, out, top, letter, i + 1, left, old)
    for added in range(1, min(caps[i], above, old + left) - old + 1):
        row.append(letter + 1)
        _add_fillings(rows, caps, content, out, top, letter, i + 1, left - added, old)
    del row[old:]


def ssyt(shape: Partition, content: Sequence[int]) -> list[Tableau]:
    """All semistandard tableaux of the given shape and content vector.

    The content may be any sequence of nonnegative integers whose sum is
    the size of the shape; entry i appears content[i-1] times.
    """
    content = _letter_counts(content, "content")
    if sum(content) != shape.size:
        raise TableauError(
            f"content {list(content)} does not fill shape {shape} "
            f"({sum(content)} cells vs {shape.size})"
        )
    tabs = []
    for rows in _fillings(shape, content):
        # the filler only writes semistandard rows, so skip the checks
        tab = Tableau.__new__(Tableau)
        tab.rows = rows
        tabs.append(tab)
    return tabs


@lru_cache(maxsize=None)
def kostka_number(shape: Partition, content: tuple[int, ...]) -> int:
    """Count of semistandard tableaux, as chains of horizontal strips
    inside shape: the count of each partial shape is carried forward one
    letter at a time."""
    content = _letter_counts(content, "content")
    if sum(content) != shape.size:
        return 0
    counts = {Partition(): 1}
    for cells in content:
        step: dict[Partition, int] = {}
        for cur, n in counts.items():
            for nxt in horizontal_strip_extensions(cur, cells, within=shape):
                step[nxt] = step.get(nxt, 0) + n
        counts = step
    return counts.get(shape, 0)


def content_exchange(word: Sequence[int], i: int) -> tuple[int, ...]:
    """Swap the multiplicities of i and i+1 by the parenthesis-matching rule.

    Letters i+1 open, letters i close; matched pairs stay put and the
    unmatched run i^a (i+1)^b is rewritten as i^b (i+1)^a.
    """
    open_stack: list[int] = []
    matched: set[int] = set()
    for pos, letter in enumerate(word):
        if letter == i + 1:
            open_stack.append(pos)
        elif letter == i:
            if open_stack:
                matched.add(open_stack.pop())
                matched.add(pos)
    free = [pos for pos, letter in enumerate(word) if letter in (i, i + 1) and pos not in matched]
    a = sum(1 for pos in free if word[pos] == i)
    b = len(free) - a
    out = list(word)
    for idx, pos in enumerate(free):
        out[pos] = i if idx < b else i + 1
    return tuple(out)


def word_charge(word: Sequence[int]) -> int:
    """Charge of a word with arbitrary content.

    Non-partition content is first sorted with content exchanges, which
    do not change the charge, then the cyclic extraction rule applies.
    """
    try:
        word = tuple(map(index, word))
    except TypeError:
        raise TableauError("words must use positive letters") from None
    if any(x <= 0 for x in word):
        raise TableauError("words must use positive letters")
    if not word:
        return 0
    top = max(word)
    counts = [0] * top
    for x in word:
        counts[x - 1] += 1
    # bubble the content vector into weakly decreasing order
    while True:
        bad = next(
            (i for i in range(top - 1) if counts[i] < counts[i + 1]), None
        )
        if bad is None:
            break
        word = content_exchange(word, bad + 1)
        counts[bad], counts[bad + 1] = counts[bad + 1], counts[bad]
    return _partition_word_charge(word)


def _partition_word_charge(word: tuple[int, ...]) -> int:
    total = 0
    remaining = list(word)
    while remaining:
        positions = _extract_standard_subword(remaining)
        total += _standard_charge(positions)
        for pos in sorted(positions.values(), reverse=True):
            del remaining[pos]
    return total


def _extract_standard_subword(word: list[int]) -> dict[int, int]:
    """Positions of the standard subword 1,2,...: rightmost 1, then each
    next letter found scanning leftward and wrapping cyclically."""
    pos: dict[int, int] = {}
    start = None
    for i in range(len(word) - 1, -1, -1):
        if word[i] == 1:
            start = i
            break
    if start is None:
        raise TableauError("charge needs words with partition content")
    pos[1] = start
    letter = 2
    cursor = start
    while True:
        found = None
        for i in range(cursor - 1, -1, -1):
            if word[i] == letter:
                found = i
                break
        if found is None:
            for i in range(len(word) - 1, cursor, -1):
                if word[i] == letter:
                    found = i
                    break
        if found is None:
            break
        pos[letter] = found
        cursor = found
        letter += 1
    return pos


def _standard_charge(pos: dict[int, int]) -> int:
    index = 0
    total = 0
    for letter in range(2, len(pos) + 1):
        if pos[letter] > pos[letter - 1]:
            index += 1
        total += index
    return total


def charge(tableau: Tableau) -> int:
    """Charge of a tableau whose content is a partition."""
    content = tableau.content()
    if any(
        content[i] < content[i + 1] for i in range(len(content) - 1)
    ) or 0 in content:
        raise TableauError(
            f"charge is defined for partition content, got {list(content)}"
        )
    return _partition_word_charge(tableau.reading_word())


def kostka_poly(shape: Partition, weight: Sequence[int]) -> Coeff:
    """The charge generating polynomial K_{shape,weight}(t).

    The weight may be given as any rearrangement; it is sorted into a
    partition first, which leaves the polynomial unchanged.
    """
    weight = tuple(sorted(_letter_counts(weight, "weight"), reverse=True))
    if sum(weight) != shape.size:
        raise TableauError(
            f"weight of size {sum(weight)} cannot fill shape {shape} of size {shape.size}"
        )
    counts: dict[int, int] = {}
    for rows in _fillings(shape, weight):
        # the sorted weight is partition content, so charge applies as is
        c = _partition_word_charge(tuple(x for row in reversed(rows) for x in row))
        counts[c] = counts.get(c, 0) + 1
    return Coeff.from_t_poly(counts)
