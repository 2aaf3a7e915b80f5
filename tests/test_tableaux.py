"""Semistandard tableaux, charge, Kostka polynomials."""

import itertools

import pytest

from qtsym.coeffs import ONE, T, ZERO
from qtsym.errors import TableauError
from qtsym.partitions import (
    Partition,
    distinct_permutations,
    dominance_leq,
    horizontal_strip_extensions,
    partitions_of,
)
from qtsym.tableaux import (
    Tableau,
    charge,
    content_exchange,
    kostka_number,
    kostka_poly,
    ssyt,
    word_charge,
)


def brute_ssyt(shape: Partition, content: tuple[int, ...]) -> set[Tableau]:
    """Independent oracle: try every filling cell by cell."""
    cells = [(r, c) for r, length in enumerate(shape.parts) for c in range(length)]
    letters = len(content)
    out: set[Tableau] = set()

    def rec(idx: int, grid: dict, used: list[int]):
        if idx == len(cells):
            if tuple(used) == tuple(content):
                out.add(Tableau([
                    [grid[(r, c)] for c in range(length)]
                    for r, length in enumerate(shape.parts)
                ]))
            return
        r, c = cells[idx]
        for x in range(1, letters + 1):
            if used[x - 1] >= content[x - 1]:
                continue
            if c and grid[(r, c - 1)] > x:
                continue
            if r and (r - 1, c) in grid and grid[(r - 1, c)] >= x:
                continue
            grid[(r, c)] = x
            used[x - 1] += 1
            rec(idx + 1, grid, used)
            used[x - 1] -= 1
            del grid[(r, c)]

    rec(0, {}, [0] * letters)
    return out


def test_tableau_validation():
    with pytest.raises(TableauError):
        Tableau([[1, 2], [1]])  # column not strict
    with pytest.raises(TableauError):
        Tableau([[2, 1]])  # row decreases
    with pytest.raises(TableauError):
        Tableau([[1], [2, 2]])  # shape not a partition
    t = Tableau([[1, 1, 2], [2, 3]])
    assert t.shape == Partition([3, 2])
    assert t.content() == (2, 2, 1)
    assert t.reading_word() == (2, 3, 1, 1, 2)


def test_ssyt_small_cases():
    assert len(ssyt(Partition([2, 1]), (1, 1, 1))) == 2
    assert ssyt(Partition([1, 1]), (2,)) == []
    assert len(ssyt(Partition([2, 2]), (1, 1, 1, 1))) == 2
    assert len(ssyt(Partition(), ())) == 1
    with pytest.raises(TableauError):
        ssyt(Partition([2]), (1,))


def _with_zero_letters(content: tuple[int, ...]):
    """The content itself, then with a zero letter in front, in the
    middle (when there is one) and at the end."""
    yield content
    yield (0,) + content
    if len(content) > 1:
        middle = len(content) // 2
        yield content[:middle] + (0,) + content[middle:]
    yield content + (0,)


def _chain_order_rows(shape: Partition, content: tuple[int, ...]) -> list:
    """Rows of the tableaux reached by chains of horizontal strips, each
    letter's strips taken in horizontal_strip_extensions order."""
    out = []

    def rec(cur: Partition, letter: int, rows: tuple):
        if letter == len(content):
            if cur == shape:
                out.append(rows)
            return
        for nxt in horizontal_strip_extensions(cur, content[letter], within=shape):
            old = cur.padded(len(nxt))
            grown = tuple(
                (rows[i] if i < len(rows) else ()) + (letter + 1,) * (nxt.parts[i] - old[i])
                for i in range(len(nxt))
            )
            rec(nxt, letter + 1, grown)

    rec(Partition(), 0, ())
    return out


def test_ssyt_matches_brute_force():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for mu in partitions_of(n):
                for content in distinct_permutations(mu.parts):
                    for padded in _with_zero_letters(tuple(content)):
                        got = ssyt(shape, padded)
                        assert len(set(got)) == len(got)
                        assert set(got) == brute_ssyt(shape, padded), (shape, padded)
                        # the order, too, is that of the strip chains
                        assert [t.rows for t in got] == _chain_order_rows(shape, padded)


def test_ssyt_fills_a_long_row_and_column():
    # the filler takes one stack frame per letter here, so 600 letters
    # stay inside the default recursion limit
    for shape in ([600], [1] * 600):
        assert len(ssyt(Partition(shape), (1,) * 600)) == 1


def test_non_integral_counts_are_rejected():
    # a float used to be truncated, so (1.5, 1.5) filled a row of 2
    with pytest.raises(TableauError):
        ssyt(Partition([2]), (1.5, 1.5))
    with pytest.raises(TableauError):
        kostka_poly(Partition([2]), (1.5, 1.5))
    with pytest.raises(TableauError):
        kostka_poly(Partition([2]), (2, -1, 1))
    with pytest.raises(TableauError):
        kostka_number(Partition([2]), (1.5, 1.5))


def test_tableau_rejects_non_integral_entries():
    # floats used to be truncated: [[1.5, 2.7]] built the tableau [[1, 2]]
    with pytest.raises(TableauError):
        Tableau([[1.5, 2.7]])
    with pytest.raises(TableauError):
        Tableau([[1, 2], [3.0]])


def test_word_charge_rejects_non_integral_letters():
    # (2.9, 1.2) used to be charged as the word (2, 1)
    with pytest.raises(TableauError):
        word_charge((2.9, 1.2))
    with pytest.raises(TableauError):
        word_charge((2, 1.0))
    assert word_charge((2, 1)) == 0


def test_kostka_number_checks_content_like_ssyt():
    with pytest.raises(TableauError):
        ssyt(Partition([2, 1]), (4, -1))
    with pytest.raises(TableauError):
        kostka_number(Partition([2, 1]), (4, -1))
    # a content of the wrong size is a count of zero, not an error
    assert kostka_number(Partition([2, 1]), (2, 2)) == 0


def test_kostka_number_agrees_with_enumeration():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka_number(shape, mu.parts) == len(ssyt(shape, mu.parts))


def test_charge_basics():
    assert charge(Tableau([[1, 1], [2]])) == 0  # shape = content
    assert charge(Tableau([[1, 2, 3]])) == 3
    assert charge(Tableau([[1, 2]])) == 1
    assert charge(Tableau([[1], [2], [3]])) == 0
    assert word_charge(()) == 0


def test_charge_requires_partition_content():
    # content (1,2) is not weakly decreasing
    with pytest.raises(TableauError):
        charge(Tableau([[1, 2], [2]]))
    # content (2,0,1) skips the letter 2
    with pytest.raises(TableauError):
        charge(Tableau([[1, 1, 3]]))
    # but word_charge sorts the content first and succeeds
    assert word_charge((2, 1, 2)) == word_charge(content_exchange((2, 1, 2), 1))


def test_content_exchange_swaps_multiplicities():
    w = (2, 2, 1)
    out = content_exchange(w, 1)
    assert sorted(out) == [1, 1, 2]
    # matched pairs stay put: the word 1,2 is fixed
    assert content_exchange((2, 1), 1) == (2, 1)
    assert content_exchange((1, 2), 1) == (1, 2)


def test_word_charge_invariant_under_rearrangement():
    # the charge generating function over tableaux-like words depends only
    # on the sorted content
    for n in range(1, 6):
        for shape in partitions_of(n):
            for mu in partitions_of(n):
                base = sorted(
                    word_charge(t.reading_word()) for t in ssyt(shape, mu.parts)
                )
                for content in distinct_permutations(mu.parts):
                    other = sorted(
                        word_charge(t.reading_word()) for t in ssyt(shape, content)
                    )
                    assert other == base, (shape, mu, content)


def test_kostka_poly_values():
    t = T
    assert kostka_poly(Partition([2, 1]), (1, 1, 1)) == t + t**2
    assert kostka_poly(Partition([3]), (2, 1)) == t
    assert kostka_poly(Partition([3]), (1, 1, 1)) == t**3
    assert kostka_poly(Partition([2, 2]), (2, 1, 1)) == t
    assert kostka_poly(Partition([1, 1, 1]), (1, 1, 1)) == ONE
    # weight may arrive unsorted
    assert kostka_poly(Partition([3]), (1, 2)) == t


def test_kostka_poly_diagonal_and_dominance():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka_poly(lam, lam.parts) == ONE
            for mu in partitions_of(n):
                poly = kostka_poly(lam, mu.parts)
                if not dominance_leq(mu, lam):
                    assert poly == ZERO
                if poly != ZERO:
                    # t=1 recovers the plain count
                    assert poly.substitute(t=1).as_fraction() == kostka_number(
                        lam, mu.parts
                    )


def test_render_golden():
    t = Tableau([[1, 1, 2], [2, 3]])
    assert t.render() == (
        "+---+---+---+\n"
        "| 1 | 1 | 2 |\n"
        "+---+---+---+\n"
        "| 2 | 3 |\n"
        "+---+---+"
    )


def test_json_shape():
    t = Tableau([[1, 2], [2]])
    assert t.to_json() == {"shape": [2, 1], "rows": [[1, 2], [2]]}
