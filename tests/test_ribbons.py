"""Cores, quotients, ribbon tableaux and spin."""

import itertools
from math import factorial, prod

import pytest

from qtsym import SymmetricFunctions, llt, ribbons
from qtsym.errors import PartitionError, TableauError
from qtsym.llt import llt_in_m
from qtsym.partitions import Partition, distinct_permutations, partitions_of
from qtsym.ribbons import (
    RibbonTableau,
    _beads,
    _strip_moves,
    core_and_quotient,
    from_core_and_quotient,
    ribbon_cells,
    ribbon_spin_histogram,
    ribbon_strip_spins,
    ribbon_tableaux,
)
from qtsym.tableaux import kostka_number


def test_core_quotient_k1():
    core, quot = core_and_quotient(Partition([3, 1]), 1)
    assert core == Partition()
    assert quot == (Partition([3, 1]),)


def test_core_quotient_small_knowns():
    # a single cell has empty 2-core precisely never: (1) is its own 2-core
    core, quot = core_and_quotient(Partition([1]), 2)
    assert core == Partition([1])
    assert all(q == Partition() for q in quot)
    # the staircase (2,1) is a 2-core but a single 3-ribbon
    core, _ = core_and_quotient(Partition([2, 1]), 2)
    assert core == Partition([2, 1])
    core, quot = core_and_quotient(Partition([2, 1]), 3)
    assert core == Partition()
    assert sorted(q.size for q in quot) == [0, 0, 1]
    # (2) splits into two dominoes? no: (2) is one domino, empty 2-core
    core, quot = core_and_quotient(Partition([2]), 2)
    assert core == Partition()
    assert sum(q.size for q in quot) == 1


def test_size_identity_and_roundtrip():
    for n in range(9):
        for lam in partitions_of(n):
            for k in (2, 3, 4):
                core, quot = core_and_quotient(lam, k)
                assert lam.size == core.size + k * sum(q.size for q in quot)
                assert from_core_and_quotient(core, quot, k) == lam


def test_core_is_ribbon_free():
    for n in range(8):
        for lam in partitions_of(n):
            for k in (2, 3):
                core, _ = core_and_quotient(lam, k)
                again, quot = core_and_quotient(core, k)
                assert again == core
                assert all(q == Partition() for q in quot)


def test_from_core_quotient_validates():
    with pytest.raises(PartitionError):
        from_core_and_quotient(Partition([2]), (Partition(),), 2)  # (2) is not a 2-core
    with pytest.raises(PartitionError):
        from_core_and_quotient(Partition(), (Partition(),), 2)  # wrong arity
    # a k that is not an integer is a PartitionError, as k < 1 is
    for k in (2.0, "2", [2]):
        with pytest.raises(PartitionError, match="positive integer"):
            core_and_quotient(Partition([2]), k)
        with pytest.raises(PartitionError, match="positive integer"):
            from_core_and_quotient(Partition(), (Partition(), Partition()), k)


def test_single_domino_spins():
    strips = ribbon_strip_spins(Partition(), 1, 2, within=Partition([2, 2]))
    as_dict = {p: s for p, s in strips}
    assert as_dict == {Partition([2]): 0, Partition([1, 1]): 1}


def test_single_ribbon_spin_matches_row_span():
    # spin of a lone ribbon is one less than the rows it spans
    for k in (2, 3, 4):
        strips = ribbon_strip_spins(Partition(), 1, k, within=Partition([k, k, k, k]))
        for shape, spin in strips:
            assert spin == len(shape) - 1


def test_three_ribbon_tilings_of_432():
    tabs = ribbon_tableaux(Partition([4, 3, 2]), (1, 1, 1), 3)
    assert len(tabs) == 3
    for tab in tabs:
        assert tab.shape == Partition([4, 3, 2])
        labels = tab.cell_labels()
        assert len(labels) == 9
        assert sorted(set(labels.values())) == [1, 2, 3]
        # each letter tiles exactly one 3-ribbon here
        for label in (1, 2, 3):
            assert sum(1 for v in labels.values() if v == label) == 3


def test_weight_size_mismatch():
    with pytest.raises(TableauError):
        ribbon_tableaux(Partition([3, 1]), (1, 1), 3)


def test_strip_spins_reject_nonpositive_ribbon_size():
    for k in (0, -1, 2.0):
        with pytest.raises(TableauError):
            ribbon_strip_spins(Partition([1]), 1, k, within=Partition([3, 2]))


def test_non_integral_weights_and_sizes_are_rejected():
    # a float weight used to be truncated, listing the tableaux of (1, 1)
    with pytest.raises(TableauError):
        ribbon_tableaux(Partition([2, 2]), (1.7, 1.2), 2)
    with pytest.raises(TableauError):
        ribbon_spin_histogram(Partition([2, 2]), (1.7, 1.2), 2)
    # a float ribbon size used to raise a bare TypeError
    with pytest.raises(TableauError):
        ribbon_tableaux(Partition([2, 2]), (1, 1), 2.0)
    with pytest.raises(TableauError):
        ribbon_tableaux(Partition([2, 2]), (3, -1), 2)


def test_k1_degenerates_to_ssyt():
    for n in range(1, 7):
        for shape in partitions_of(n):
            for mu in partitions_of(n):
                tabs = ribbon_tableaux(shape, mu.parts, 1)
                assert len(tabs) == kostka_number(shape, mu.parts)
                assert all(t.spin == 0 for t in tabs)


def _content_splits(mu: tuple[int, ...], k: int):
    """All k x len(mu) matrices of nonnegative ints with column sums mu."""
    per_letter = [
        [comp for comp in itertools.product(range(m + 1), repeat=k) if sum(comp) == m]
        for m in mu
    ]
    for choice in itertools.product(*per_letter):
        yield [tuple(choice[j][r] for j in range(len(mu))) for r in range(k)]


def quotient_count_oracle(shape: Partition, mu: tuple[int, ...], k: int) -> int:
    core, quot = core_and_quotient(shape, k)
    if core != Partition():
        return 0
    total = 0
    for rows in _content_splits(mu, k):
        prod = 1
        for r in range(k):
            prod *= kostka_number(quot[r], rows[r])
            if prod == 0:
                break
        total += prod
    return total


def test_counts_match_quotient_oracle():
    for n in range(1, 10):
        for shape in partitions_of(n):
            for k in (2, 3):
                if n % k:
                    continue
                for mu in partitions_of(n // k):
                    got = len(ribbon_tableaux(shape, mu.parts, k))
                    assert got == quotient_count_oracle(shape, mu.parts, k), (
                        shape,
                        mu,
                        k,
                    )


def test_strip_heads_land_in_distinct_columns():
    # the topmost-rightmost cells of the ribbons in one strip never share
    # a column
    for shape in partitions_of(6):
        for k in (2, 3):
            if 6 % k:
                continue
            for mu in partitions_of(6 // k):
                for tab in ribbon_tableaux(shape, mu.parts, k):
                    by_label: dict[int, list] = {}
                    for label, cells, _ in tab.ribbons:
                        by_label.setdefault(label, []).append(cells)
                    for cells_list in by_label.values():
                        heads = []
                        for cells in cells_list:
                            top = min(r for r, _ in cells)
                            heads.append(max(c for r, c in cells if r == top))
                        assert len(heads) == len(set(heads))


def test_chain_is_monotone():
    for tab in ribbon_tableaux(Partition([4, 4]), (2, 2), 2):
        for a, b in zip(tab.chain, tab.chain[1:]):
            assert b.contains(a)


def test_render_has_one_label_per_cell():
    tabs = ribbon_tableaux(Partition([2, 2]), (1, 1), 2)
    assert len(tabs) == 2
    texts = {t.render() for t in tabs}
    assert (
        "+---+---+\n"
        "| 1 | 1 |\n"
        "+---+---+\n"
        "| 2 | 2 |\n"
        "+---+---+"
    ) in texts
    assert (
        "+---+---+\n"
        "| 1 | 2 |\n"
        "+---+---+\n"
        "| 1 | 2 |\n"
        "+---+---+"
    ) in texts


def _spin_counts(tabs) -> dict[int, int]:
    out: dict[int, int] = {}
    for tab in tabs:
        out[tab.spin] = out.get(tab.spin, 0) + 1
    return out


def test_spin_histogram_matches_tableaux():
    for k in (1, 2, 3, 4):
        for n in range(0, 11, k):
            for shape in partitions_of(n):
                for mu in partitions_of(n // k):
                    assert ribbon_spin_histogram(shape, mu.parts, k) == _spin_counts(
                        ribbon_tableaux(shape, mu.parts, k)
                    ), (shape, mu, k)


def test_spin_histogram_with_zero_letters():
    cases = [
        ([4, 3, 2], (0, 2, 1), 3),
        ([4, 3, 2], (1, 0, 2), 3),
        ([4, 4, 2, 2], (0, 3, 0, 3), 2),
        ([3, 3], (0, 0, 3), 2),
        ([2, 2, 1], (2, 0, 3), 1),
    ]
    for shape, weight, k in cases:
        tabs = ribbon_tableaux(Partition(shape), weight, k)
        assert ribbon_spin_histogram(Partition(shape), weight, k) == _spin_counts(tabs)
    assert ribbon_spin_histogram(Partition(), (0, 0), 2) == {0: 1}
    with pytest.raises(TableauError):
        ribbon_spin_histogram(Partition([3, 1]), (1, 1), 3)


def _tableau_json(shape, k, weight, spin, chain, ribbons):
    return {
        "shape": shape,
        "k": k,
        "weight": weight,
        "spin": spin,
        "chain": chain,
        "ribbons": [
            {"label": label, "cells": [list(c) for c in cells], "spin": s}
            for label, cells, s in ribbons
        ],
    }


# (spin, chain, ribbons) of each tableau, in the order of the enumeration
GOLDEN_432_111_K3 = [
    (
        5,
        [[], [1, 1, 1], [2, 2, 2], [4, 3, 2]],
        [
            (1, [(1, 1), (2, 1), (3, 1)], 2),
            (2, [(1, 2), (2, 2), (3, 2)], 2),
            (3, [(1, 3), (1, 4), (2, 3)], 1),
        ],
    ),
    (
        3,
        [[], [1, 1, 1], [4, 1, 1], [4, 3, 2]],
        [
            (1, [(1, 1), (2, 1), (3, 1)], 2),
            (2, [(1, 2), (1, 3), (1, 4)], 0),
            (3, [(2, 2), (2, 3), (3, 2)], 1),
        ],
    ),
    (
        3,
        [[], [2, 1], [2, 2, 2], [4, 3, 2]],
        [
            (1, [(1, 1), (1, 2), (2, 1)], 1),
            (2, [(2, 2), (3, 1), (3, 2)], 1),
            (3, [(1, 3), (1, 4), (2, 3)], 1),
        ],
    ),
]

GOLDEN_4422_321_K2 = [
    (
        6,
        [[], [3, 3], [3, 3, 2, 2], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (2, 3)], 1),
            (2, [(3, 1), (4, 1)], 1),
            (2, [(3, 2), (4, 2)], 1),
            (3, [(1, 4), (2, 4)], 1),
        ],
    ),
    (
        6,
        [[], [3, 3], [4, 4, 1, 1], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (2, 3)], 1),
            (2, [(3, 1), (4, 1)], 1),
            (2, [(1, 4), (2, 4)], 1),
            (3, [(3, 2), (4, 2)], 1),
        ],
    ),
    (
        4,
        [[], [3, 3], [4, 4, 2], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (2, 3)], 1),
            (2, [(3, 1), (3, 2)], 0),
            (2, [(1, 4), (2, 4)], 1),
            (3, [(4, 1), (4, 2)], 0),
        ],
    ),
    (
        4,
        [[], [4, 2], [4, 2, 2, 2], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (1, 4)], 0),
            (2, [(3, 1), (4, 1)], 1),
            (2, [(3, 2), (4, 2)], 1),
            (3, [(2, 3), (2, 4)], 0),
        ],
    ),
    (
        4,
        [[], [4, 2], [4, 4, 1, 1], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (1, 4)], 0),
            (2, [(3, 1), (4, 1)], 1),
            (2, [(2, 3), (2, 4)], 0),
            (3, [(3, 2), (4, 2)], 1),
        ],
    ),
    (
        2,
        [[], [4, 2], [4, 4, 2], [4, 4, 2, 2]],
        [
            (1, [(1, 1), (2, 1)], 1),
            (1, [(1, 2), (2, 2)], 1),
            (1, [(1, 3), (1, 4)], 0),
            (2, [(3, 1), (3, 2)], 0),
            (2, [(2, 3), (2, 4)], 0),
            (3, [(4, 1), (4, 2)], 0),
        ],
    ),
]


@pytest.mark.parametrize(
    "shape, weight, k, golden",
    [
        ([4, 3, 2], [1, 1, 1], 3, GOLDEN_432_111_K3),
        ([4, 4, 2, 2], [3, 2, 1], 2, GOLDEN_4422_321_K2),
    ],
)
def test_tableaux_json_in_enumeration_order(shape, weight, k, golden):
    got = [t.to_json() for t in ribbon_tableaux(Partition(shape), weight, k)]
    assert got == [_tableau_json(shape, k, weight, *entry) for entry in golden]


def _strip_spins_by_filter(base, cells, k, within):
    """Every sequence of `cells` bead moves with increasing sources, each
    intermediate shape kept only when Partition.contains accepts it."""
    length = max(k, len(within) + k)

    def shape_of(beads):
        desc = sorted(beads, reverse=True)
        rows = (desc[i] - (length - 1 - i) for i in range(length))
        return Partition(r for r in rows if r)

    out = []

    def rec(cur, last, left, spin):
        if left == 0:
            out.append((shape_of(cur), spin))
            return
        for b in sorted(cur):
            if b <= last or b + k in cur:
                continue
            nxt = cur - {b} | {b + k}
            if within.contains(shape_of(nxt)):
                between = sum(1 for c in cur if b < c < b + k)
                rec(nxt, b, left - 1, spin + between)

    padded = base.padded(length)
    rec(frozenset(padded[i] + length - 1 - i for i in range(length)), -1, cells, 0)
    return out


def test_strip_spins_match_containment_filter():
    bases = [lam for n in range(4) for lam in partitions_of(n)]
    for within in (lam for n in (6, 8) for lam in partitions_of(n)):
        for base in bases:
            if len(base) > len(within) + 1:
                continue
            for k in (1, 2, 3):
                for cells in (0, 1, 2, 3):
                    assert ribbon_strip_spins(
                        base, cells, k, within
                    ) == _strip_spins_by_filter(base, cells, k, within), (
                        base,
                        cells,
                        k,
                        within,
                    )


def _standard_tableaux_count(shape: Partition) -> int:
    """f^shape by the hook length formula."""
    conj = shape.conjugate()
    hooks = prod(
        (row - j - 1) + (conj.parts[j] - i - 1) + 1
        for i, row in enumerate(shape.parts)
        for j in range(row)
    )
    return factorial(shape.size) // hooks


def _multipartitions(total: int, k: int):
    if k == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for lam in partitions_of(first):
            for rest in _multipartitions(total - first, k - 1):
                yield (lam, *rest)


def test_standard_ribbon_count_stanton_white():
    # For an empty k-core, standard k-ribbon tableaux of shape lam number
    # n! / prod |q_i|! * prod f^{q_i} over the k-quotient (q_0, ..., q_{k-1})
    # (Stanton and White, 1985).
    shapes = 0
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            for quotient in _multipartitions(n, k):
                shape = from_core_and_quotient(Partition(), quotient, k)
                expected = factorial(n) // prod(factorial(q.size) for q in quotient)
                expected *= prod(_standard_tableaux_count(q) for q in quotient)
                assert len(ribbon_tableaux(shape, (1,) * n, k)) == expected, (shape, k)
                shapes += 1
    assert shapes == 109


def _empty_core_cases(empty=True):
    """(shape, weight, k) for every shape with empty k-core (k = 2 through
    size 8, k = 3 through size 9) and every weight with positive parts,
    plus each weight with a zero letter in front; with empty=False, for
    every shape of those sizes whose k-core is not empty instead."""
    for k, top in ((2, 8), (3, 9)):
        for size in range(0, top + 1, k):
            for shape in partitions_of(size):
                if (core_and_quotient(shape, k)[0] == Partition()) != empty:
                    continue
                for mu in partitions_of(size // k):
                    for weight in distinct_permutations(mu.parts):
                        yield shape, tuple(weight), k
                    yield shape, (0,) + mu.parts, k


def _unpruned_tableaux_json(shape, weight, k):
    """Depth-first over every strip `_strip_moves` lists, dead ends
    included, with cells taken by ribbon_cells between the shapes."""
    length = max(k, len(shape) + k)
    cap = _beads(shape, length)

    def shape_of(beads):
        desc = sorted(beads, reverse=True)
        return Partition(x for x in (desc[i] - (length - 1 - i) for i in range(length)) if x)

    out = []

    def rec(beads, letter, chain, ribbons):
        if letter == len(weight):
            if beads == cap:
                out.append(RibbonTableau(k, shape, weight, chain, ribbons).to_json())
            return
        for end, moves in _strip_moves(beads, k, weight[letter], cap):
            before = shape_of(beads)
            added = list(ribbons)
            for stepped, spin in moves:
                after = shape_of(stepped)
                added.append((letter + 1, ribbon_cells(before, after), spin))
                before = after
            rec(end, letter + 1, chain + [before], added)

    rec(_beads(Partition(), length), 0, [Partition()], [])
    return out


def test_pruned_listing_matches_unpruned_search():
    cases = 0
    for shape, weight, k in _empty_core_cases():
        got = [tab.to_json() for tab in ribbon_tableaux(shape, weight, k)]
        assert got == _unpruned_tableaux_json(shape, weight, k), (shape, weight, k)
        cases += 1
    assert cases > 200


def test_pruned_listing_matches_unpruned_search_for_nonempty_cores():
    # no tableau reaches a shape whose k-core is not empty; the unpruned
    # search finds that by trying every strip, the listing up front
    cases = 0
    for shape, weight, k in _empty_core_cases(empty=False):
        got = [tab.to_json() for tab in ribbon_tableaux(shape, weight, k)]
        assert got == _unpruned_tableaux_json(shape, weight, k) == [], (shape, weight, k)
        cases += 1
    assert cases == 97


def test_listing_that_cannot_finish_is_cut_at_its_start(monkeypatch):
    # [9,7,6,5,4,3,2] has a nonempty 2-core; the unpruned search of its
    # domino tableaux runs for minutes
    entered = []
    listed = ribbons._add_tableaux

    def counted(*args):
        entered.append(args)
        return listed(*args)

    monkeypatch.setattr(ribbons, "_add_tableaux", counted)
    shape = Partition([9, 7, 6, 5, 4, 3, 2])
    assert core_and_quotient(shape, 2)[0] != Partition()
    assert ribbon_tableaux(shape, (1,) * 18, 2) == []
    assert entered == []
    # the same count sees a listing that can finish
    assert len(ribbon_tableaux(Partition([2, 2]), (1, 1), 2)) == 2
    assert entered


def test_listed_tableaux_unfold_like_constructed_ones():
    listed = ribbon_tableaux(Partition([4, 3, 2]), (1, 1, 1), 3)
    assert all(tab._chain is None and tab._ribbons is None for tab in listed)
    cases = 0
    for shape, weight, k in _empty_core_cases():
        for tab in ribbon_tableaux(shape, weight, k):
            assert tab.spin == sum(r[2] for r in tab.ribbons)
            again = RibbonTableau(k, shape, weight, tab.chain, tab.ribbons)
            assert again.to_json() == tab.to_json(), (shape, weight, k)
        cases += 1
    assert cases == 554


def test_shared_strip_table_gives_the_same_histograms(monkeypatch):
    by_shape = {}
    for shape, weight, k in _empty_core_cases():
        by_shape.setdefault((shape, k), []).append(weight)
    tables = {}
    monkeypatch.setattr(ribbons, "_STRIP_TABLES", tables)
    for (shape, k), weights in by_shape.items():
        tables.clear()
        shared = [ribbon_spin_histogram(shape, w, k) for w in weights]
        assert len(tables) == 1
        for weight, hist in zip(weights, shared):
            tables.clear()
            assert ribbon_spin_histogram(shape, weight, k) == hist, (shape, weight, k)


def _three_core_free_shapes(top):
    return [
        shape
        for n in range(0, top + 1, 3)
        for shape in partitions_of(n)
        if core_and_quotient(shape, 3)[0] == Partition()
    ]


def test_strip_tables_are_dropped_past_the_entry_limit(monkeypatch):
    tables = {}
    monkeypatch.setattr(ribbons, "_STRIP_TABLES", tables)
    monkeypatch.setattr(ribbons, "_STRIP_TABLE_LIMIT", 30)
    drops = 0
    for shape in _three_core_free_shapes(12):
        count, total = len(tables), sum(map(len, tables.values()))
        ribbon_spin_histogram(shape, (1,) * (shape.size // 3), 3)
        # each shape is new: its table is added to the others, or replaces
        # all of them once their total has passed the limit
        if total > 30:
            drops += 1
            assert len(tables) == 1
        else:
            assert len(tables) == count + 1
    assert drops >= 2


def test_ribbon_and_llt_passes_enumerate_each_strip_once(monkeypatch):
    monkeypatch.setattr(ribbons, "_STRIP_TABLES", {})
    llt._spin_distributions.cache_clear()
    seen = []

    def counted(beads, k, count, cap):
        seen.append((k, cap, beads, count))
        return _strip_moves(beads, k, count, cap)

    monkeypatch.setattr(ribbons, "_strip_moves", counted)
    try:
        cases = [(12, 3), (10, 2)]
        for size, k in cases:
            for shape in partitions_of(size):
                if core_and_quotient(shape, k)[0] == Partition():
                    for mu in partitions_of(size // k):
                        ribbon_tableaux(shape, mu.parts, k)
        assert seen and len(set(seen)) == len(seen)
        listed = len(seen)
        S = SymmetricFunctions()
        for size, k in cases:
            for shape in partitions_of(size):
                if core_and_quotient(shape, k)[0] == Partition():
                    llt_in_m(S, shape, k)
        assert len(seen) == listed
    finally:
        llt._spin_distributions.cache_clear()
