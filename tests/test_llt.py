"""LLT polynomials built from k-ribbon tableau spin statistics."""

import pytest

from qtsym.coeffs import T, ZERO
from qtsym.errors import TableauError
from qtsym.llt import generalized_kostka, llt_in_m, spin_distributions
from qtsym.partitions import Partition, distinct_permutations, partitions_of
from qtsym.ribbons import core_and_quotient, ribbon_tableaux
from qtsym.tableaux import kostka_poly


def test_single_cell_ribbons_give_schur(S):
    for n in range(7):
        for lam in partitions_of(n):
            assert llt_in_m(S, lam, 1) == S.convert(S.element("s", lam), "m")


def test_printed_example_shape_432(S):
    h = llt_in_m(S, Partition([4, 3, 2]), 3)
    coeff = h.coefficient(Partition([1, 1, 1]))
    assert coeff.substitute(t=1).as_fraction() == 3
    assert coeff.substitute(t=1).as_fraction() == len(
        ribbon_tableaux(Partition([4, 3, 2]), (1, 1, 1), 3)
    )


def test_two_by_two_dominoes(S):
    h = llt_in_m(S, Partition([2, 2]), 2)
    expected = S.convert(
        S["s"]([2]) + S["s"]([1, 1]).scaled(T**2), "m"
    )
    assert h == expected


def test_nonzero_requires_divisible_size(S):
    assert llt_in_m(S, Partition([1]), 2).is_zero()
    assert llt_in_m(S, Partition([2, 1]), 2).is_zero()


def test_nonempty_core_gives_zero(S):
    shape = Partition([4, 2])
    core, quotient = core_and_quotient(shape, 3)
    assert core == shape and all(p == Partition() for p in quotient)
    assert llt_in_m(S, shape, 3).is_zero()


def test_ribbon_size_must_be_positive(S):
    with pytest.raises(TableauError):
        llt_in_m(S, Partition([2]), 0)
    for k in (0, -2):
        with pytest.raises(TableauError, match="positive integer"):
            spin_distributions(Partition([2, 2]), k)
    # a k that is not an integer is a user error too, also right after the
    # equal integer k = 2 has filled the cache of spin_distributions
    shape = Partition([2, 2])
    llt_in_m(S, shape, 2)
    for k in (2.0, 1.5, "2", [2]):
        with pytest.raises(TableauError, match="positive integer"):
            spin_distributions(shape, k)
        with pytest.raises(TableauError, match="positive integer"):
            llt_in_m(S, shape, k)
        with pytest.raises(TableauError, match="positive integer"):
            generalized_kostka(S, shape, Partition([2]), k)


def test_t_one_specialization_is_quotient_product(S):
    for size in range(1, 10):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                core, quotient = core_and_quotient(lam, k)
                if core != Partition():
                    continue
                h = llt_in_m(S, lam, k).substitute(t=1)
                product = S["s"]()
                for piece in quotient:
                    product = product * S.element("s", piece)
                assert h == S.convert(product, "m"), (lam, k)


def test_weight_rearrangement_keeps_spin_histogram():
    for size in (4, 6):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                for mu in partitions_of(size // k):
                    reference = sorted(
                        tab.spin for tab in ribbon_tableaux(lam, mu.parts, k)
                    )
                    for weight in distinct_permutations(mu.parts):
                        got = sorted(
                            tab.spin for tab in ribbon_tableaux(lam, weight, k)
                        )
                        assert got == reference, (lam, mu, weight, k)


def test_generalized_kostka_positivity(S):
    for size in range(2, 9):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                h = llt_in_m(S, lam, k)
                if h.is_zero():
                    continue
                over_s = S.convert(h, "s")
                for mu, c in over_s.terms.items():
                    for (eq, et), value in c.poly_terms().items():
                        assert eq == 0, (lam, mu, k)
                        assert value.denominator == 1, (lam, mu, k)
                        assert value > 0, (lam, mu, k)


def test_generalized_kostka_of_k_mu_is_the_charge_kostka_polynomial(S):
    # Lascoux-Leclerc-Thibon (1997): for k >= l(mu), H_{k mu}^(k) has only
    # even powers of t (spin counts rows minus one per ribbon), and with t^2
    # read as t its coefficient of s_lam is t^n(mu) K_{lam,mu}(1/t)
    for n in range(1, 8):
        for mu in partitions_of(n):
            for k in range(max(2, len(mu)), len(mu) + (3 if n <= 6 else 2)):
                shape = Partition([k * part for part in mu])
                for lam in partitions_of(n):
                    got = generalized_kostka(S, shape, lam, k).poly_terms()
                    assert all(eq == 0 and et % 2 == 0 for eq, et in got)
                    charge = kostka_poly(lam, mu.parts).poly_terms()
                    expected = {mu.n_stat() - et: v for (_, et), v in charge.items()}
                    halved = {et // 2: v for (_, et), v in got.items()}
                    assert halved == expected, (lam, mu, k)


def test_generalized_kostka_at_k_one_is_delta(S):
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = generalized_kostka(S, lam, mu, 1)
                assert got == (1 if lam == mu else 0), (lam, mu)


def test_generalized_kostka_size_mismatch_is_zero(S):
    assert generalized_kostka(S, Partition([2, 2]), Partition([3]), 2) == 0


def test_spin_distribution_shape():
    table, maxspin = spin_distributions(Partition([2, 2]), 2)
    assert maxspin == 2
    assert table[Partition([2])] == {2: 1}
    assert table[Partition([1, 1])] == {0: 1, 2: 1}


def test_llt_coefficients_sum_tableaux_by_cospin(S):
    # the histogram route against listing every tableau
    for size, k in ((6, 2), (6, 3), (8, 2), (8, 4), (9, 3), (10, 2)):
        for lam in partitions_of(size):
            table, maxspin = spin_distributions(lam, k)
            h = llt_in_m(S, lam, k)
            if core_and_quotient(lam, k)[0] != Partition():
                assert table == {} and h.is_zero()
                continue
            spins = {
                mu: [tab.spin for tab in ribbon_tableaux(lam, mu.parts, k)]
                for mu in partitions_of(size // k)
            }
            assert maxspin == max(max(s) for s in spins.values() if s)
            for mu, found in spins.items():
                hist = {x: found.count(x) for x in found}
                assert table.get(mu, {}) == hist, (lam, mu, k)
                expected = sum((T ** (maxspin - x) for x in found), ZERO)
                assert h.coefficient(mu) == expected, (lam, mu, k)
