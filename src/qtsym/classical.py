"""The classical bases m, e, h, p, s and their structure rules.

Each basis registers one expansion into the monomial basis; the engine
derives everything else by inverting and composing those edges.

* p_lam expands through products of p_r = m_(r).
* h_lam counts nonnegative integer matrices with given row and column
  sums; e_lam counts the zero-one ones.  Permuting the columns or
  dropping zero columns leaves the count unchanged, so it is memoized on
  the remaining column sums sorted with zeros dropped.
* s_lam collects Kostka numbers.
* Products: e, h, p concatenate indices; m multiplies by merging exponent
  vectors; s multiplies by the Littlewood-Richardson rule.
* omega acts on the powersum basis by p_lam -> (-1)^(|lam|-len(lam)) p_lam.
"""

from __future__ import annotations

import weakref
from functools import lru_cache
from operator import sub

from .coeffs import Coeff
from .partitions import Partition, distinct_permutations, partitions_of
from .tableaux import kostka_number


@lru_cache(maxsize=None)
def monomial_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand m_lam * m_mu in the monomial basis.

    In enough variables, m_lam is the orbit sum over distinct rearrangements
    of lam.  The coefficient of m_nu in the product counts the pairs of
    rearrangements (alpha, beta) with alpha + beta equal to nu itself, and
    it is independent of how many zero slots pad the vectors.
    """
    if not lam.parts:
        return {mu: 1}
    if not mu.parts:
        return {lam: 1}
    n = len(lam) + len(mu)  # enough rows for every orbit that can appear
    out: dict[Partition, int] = {}
    for lam_rows in distinct_permutations(lam.padded(n)):
        for mu_rows in distinct_permutations(mu.padded(n)):
            total = tuple(a + b for a, b in zip(lam_rows, mu_rows))
            if any(total[i] < total[i + 1] for i in range(n - 1)):
                continue
            nu = Partition(x for x in total if x)
            out[nu] = out.get(nu, 0) + 1
    return out


def powersum_to_monomial(lam: Partition) -> dict[Partition, int]:
    terms: dict[Partition, int] = {Partition(): 1}
    for part in lam.parts:
        step: dict[Partition, int] = {}
        unit = Partition([part])
        for nu, c in terms.items():
            for rho, d in monomial_product(nu, unit).items():
                step[rho] = step.get(rho, 0) + c * d
        terms = step
    return terms


@lru_cache(maxsize=None)
def _margin_matrix_count(rows: tuple[int, ...], cols: tuple[int, ...], zero_one: bool) -> int:
    """Matrices of nonnegative integers (or zero-one) with given margins.

    Recursive calls pass the remaining column sums sorted with zeros
    dropped, so that column orders with the same count share a memo entry.
    """
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    return _first_row_fillings(rows[1:], cols, zero_one, 0, rows[0], [])


def _first_row_fillings(
    rest, cols, zero_one: bool, idx: int, remaining: int, current: list[int]
) -> int:
    """The matrices counted by _margin_matrix_count whose first row starts
    with `current` and puts `remaining` more in columns idx, idx+1, ..."""
    if idx == len(cols):
        if remaining:
            return 0
        reduced = sorted(filter(None, map(sub, cols, current)), reverse=True)
        return _margin_matrix_count(rest, tuple(reduced), zero_one)
    top = min(remaining, cols[idx])
    if zero_one:
        top = min(top, 1)
    total = 0
    for x in range(top + 1):
        current.append(x)
        total += _first_row_fillings(rest, cols, zero_one, idx + 1, remaining - x, current)
        current.pop()
    return total


def complete_to_monomial(lam: Partition) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for mu in partitions_of(lam.size):
        c = _margin_matrix_count(lam.parts, mu.parts, False)
        if c:
            out[mu] = c
    return out


def elementary_to_monomial(lam: Partition) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for mu in partitions_of(lam.size):
        c = _margin_matrix_count(lam.parts, mu.parts, True)
        if c:
            out[mu] = c
    return out


def schur_to_monomial(lam: Partition) -> dict[Partition, int]:
    out: dict[Partition, int] = {}
    for mu in partitions_of(lam.size):
        c = kostka_number(lam, mu.parts)
        if c:
            out[mu] = c
    return out


@lru_cache(maxsize=None)
def littlewood_richardson(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand s_lam * s_mu as a sum of s_nu.

    The coefficient of s_nu counts column-strict fillings of nu/lam with
    content mu whose reverse reading word (right to left, top to bottom)
    is a lattice word.  Cells are filled in reverse reading order so both
    conditions prune the search as it goes.
    """
    out: dict[Partition, int] = {}
    for nu in partitions_of(lam.size + mu.size):
        if not nu.contains(lam):
            continue
        count = _lr_fillings(lam, mu, nu)
        if count:
            out[nu] = count
    return out


def _lr_fillings(lam: Partition, mu: Partition, nu: Partition) -> int:
    rows = len(nu)
    inner = lam.padded(rows)
    cells = [
        (r, c)
        for r in range(rows)
        for c in range(nu.parts[r] - 1, inner[r] - 1, -1)
    ]
    return _count_lr_fillings(cells, inner, mu.parts, [0] * len(mu), {}, 0)


def _count_lr_fillings(cells, inner, content, used, grid, idx: int) -> int:
    """The lattice fillings of cells[idx:] that extend `grid`, in which
    letter i has been used used[i-1] times of content[i-1]."""
    if idx == len(cells):
        return 1
    r, c = cells[idx]
    right = grid.get((r, c + 1))
    above = grid.get((r - 1, c)) if r and c >= inner[r - 1] else None
    total = 0
    for letter in range(1, len(content) + 1):
        if used[letter - 1] == content[letter - 1]:
            continue
        # a lattice violation can only appear right after placing a
        # letter, so checking the prefix counts here is enough
        if letter > 1 and used[letter - 2] <= used[letter - 1]:
            continue
        if right is not None and letter > right:
            continue
        if above is not None and letter <= above:
            continue
        grid[(r, c)] = letter
        used[letter - 1] += 1
        total += _count_lr_fillings(cells, inner, content, used, grid, idx + 1)
        used[letter - 1] -= 1
        del grid[(r, c)]
    return total


def _omega_action(S):
    def action(lam: Partition):
        sign = -1 if (lam.size - len(lam)) % 2 else 1
        return S.element("p", {lam: Coeff.from_value(sign)})

    return action


def register_classical(S) -> None:
    S.register_basis("m", "monomial symmetric functions", product=monomial_product)
    S.register_basis("e", "elementary symmetric functions", multiplicative=True)
    S.register_basis("h", "complete homogeneous symmetric functions", multiplicative=True)
    S.register_basis("p", "powersum symmetric functions", multiplicative=True)
    S.register_basis("s", "Schur functions", product=littlewood_richardson)
    S = weakref.proxy(S)  # S holds the rules below: no reference cycle back

    def expand(table):
        def fn(lam: Partition):
            return S.element(
                "m", {mu: Coeff.from_value(c) for mu, c in table(lam).items()}
            )

        return fn

    S.declare_conversion("p", "m", expand(powersum_to_monomial))
    S.declare_conversion("h", "m", expand(complete_to_monomial))
    S.declare_conversion("e", "m", expand(elementary_to_monomial))
    S.declare_conversion("s", "m", expand(schur_to_monomial))

    S.declare_operator("omega", "p", _omega_action(S))
