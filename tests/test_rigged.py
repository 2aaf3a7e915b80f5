"""Rigged configurations: enumeration, validation, cocharge statistics."""

import itertools

import pytest

from qtsym.coeffs import ONE, T, Coeff
from qtsym.errors import PartitionError
from qtsym.partitions import Partition, partitions_of
from qtsym.rigged import (
    RiggedConfiguration,
    _gaussian,
    _q_vector,
    rc_kostka,
    rigged_configurations,
)
from qtsym.tableaux import kostka_number, kostka_poly


def test_single_row_has_one_empty_configuration():
    rcs = rigged_configurations(Partition([2]), Partition([1, 1]))
    assert len(rcs) == 1
    assert rcs[0].nus == ()
    assert rcs[0].cocharge() == 0
    assert rc_kostka(Partition([2]), Partition([1, 1])) == ONE


def test_two_column_golden():
    # lam = (1,1), mu = (1,1): one component nu = (1) with vacancy
    # Q_1(mu) - 2 Q_1(nu) = 2 - 2 = 0, so the only rigging is 0 and the
    # quadratic term contributes 1
    rcs = rigged_configurations(Partition([1, 1]), Partition([1, 1]))
    assert len(rcs) == 1
    rc = rcs[0]
    assert rc.nus == (Partition([1]),)
    assert rc.riggings == ((0,),)
    assert rc.vacancy(1, 1) == 0
    assert rc.cocharge() == 1
    assert rc_kostka(Partition([1, 1]), Partition([1, 1])) == T


def test_hook_golden():
    # lam = (2,1), mu = (1,1,1): nu = (1), vacancy 3 - 2 = 1, riggings
    # J in {0, 1}, cocharges J + 1
    lam, mu = Partition([2, 1]), Partition([1, 1, 1])
    rcs = rigged_configurations(lam, mu)
    assert len(rcs) == 2
    assert sorted(rc.cocharge() for rc in rcs) == [1, 2]
    assert rc_kostka(lam, mu) == T + T**2
    for rc in rcs:
        assert rc.vacancy(1, 1) == 1
        assert rc.validate()


def test_size_mismatch_rejected():
    with pytest.raises(PartitionError):
        rigged_configurations(Partition([2]), Partition([1]))


def test_cardinality_matches_tableau_count():
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert len(rigged_configurations(lam, mu)) == kostka_number(
                    lam, mu
                ), (lam, mu)


def test_cocharge_statistic_matches_charge():
    # sum of t^cocharge equals t^n(mu) K(1/t) with K the charge polynomial
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                charge_side = kostka_poly(lam, mu.parts)
                expected = T ** mu.n_stat() * charge_side.substitute(t=ONE / T)
                assert rc_kostka(lam, mu) == expected, (lam, mu)


def _brute_force_configurations(lam, mu):
    """Every tuple of component shapes, then every rigging, kept when valid."""
    tails = [sum(lam.parts[a:]) for a in range(1, max(len(lam), 1))]
    out = []
    for nus in itertools.product(*(partitions_of(size) for size in tails)):
        probe = RiggedConfiguration(lam, mu, nus, [(0,) * len(nu) for nu in nus])
        groups, owners = [], []
        for a, nu in enumerate(nus, start=1):
            for size, count in sorted(nu.multiplicities().items(), reverse=True):
                p = probe.vacancy(a, size)
                groups.append(
                    [
                        tuple(sorted(labels, reverse=True))
                        for labels in itertools.combinations_with_replacement(
                            range(max(p, 0) + 1), count
                        )
                    ]
                )
                owners.append(a - 1)
        for pick in itertools.product(*groups):
            riggings = [[] for _ in nus]
            for comp, labels in zip(owners, pick):
                riggings[comp].extend(labels)
            rc = RiggedConfiguration(lam, mu, nus, riggings)
            if rc.validate():
                out.append((rc.nus, rc.riggings))
    return out


def test_pruned_enumeration_matches_brute_force():
    # same configurations in the same order as the full product of shapes
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = [(rc.nus, rc.riggings) for rc in rigged_configurations(lam, mu)]
                assert got == _brute_force_configurations(lam, mu), (lam, mu)


def test_enumerated_configurations_validate():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for rc in rigged_configurations(lam, mu):
                    assert rc.validate(), (lam, mu, rc)


def test_validate_rejects_mutations():
    lam, mu = Partition([2, 1]), Partition([1, 1, 1])
    good = rigged_configurations(lam, mu)[0]
    over = RiggedConfiguration(lam, mu, good.nus, ((2,),))
    assert not over.validate()
    negative = RiggedConfiguration(lam, mu, good.nus, ((-1,),))
    assert not negative.validate()
    wrong_size = RiggedConfiguration(lam, mu, (Partition([2]),), ((0,),))
    assert not wrong_size.validate()
    missing = RiggedConfiguration(lam, mu, (), ())
    assert not missing.validate()


def test_validate_requires_sorted_riggings_in_groups():
    # lam = (3,2), mu = (1^5): nu = (1,1) has vacancy 1, labels must be
    # weakly decreasing within the equal-part group
    lam, mu = Partition([3, 2]), Partition([1, 1, 1, 1, 1])
    nus = (Partition([1, 1]),)
    assert RiggedConfiguration(lam, mu, nus, ((1, 0),)).validate()
    assert not RiggedConfiguration(lam, mu, nus, ((0, 1),)).validate()


def test_render_and_json():
    lam, mu = Partition([2, 1]), Partition([1, 1, 1])
    rc = rigged_configurations(lam, mu)[0]
    text = rc.render()
    assert text.splitlines()[0] == "nu(1):"
    assert "|" in text and "+" in text
    data = rc.to_json()
    assert data["lam"] == [2, 1]
    assert data["mu"] == [1, 1, 1]
    assert data["components"][0]["partition"] == [1]
    assert data["components"][0]["vacancies"] == [[1, 1]]
    assert data["cocharge"] == rc.cocharge()
    empty = rigged_configurations(Partition([3]), Partition([1, 1, 1]))[0]
    assert empty.render() == "(no components)"


def test_gaussian_binomial_goldens():
    # [p + m, m]_t counts m weakly decreasing labels in 0..p by their sum
    assert _gaussian(2, 2) == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}  # [4,2]_t
    assert _gaussian(3, 1) == {0: 1, 1: 1, 2: 1, 3: 1}  # [4,1]_t
    assert _gaussian(2, 3) == {0: 1, 1: 1, 2: 2, 3: 2, 4: 2, 5: 1, 6: 1}  # [5,3]_t
    assert _gaussian(0, 4) == {0: 1}
    assert _gaussian(5, 0) == {0: 1}
    for p in range(5):
        for m in range(5):
            labels = itertools.combinations_with_replacement(range(p + 1), m)
            counts: dict[int, int] = {}
            for pick in labels:
                counts[sum(pick)] = counts.get(sum(pick), 0) + 1
            assert _gaussian(p, m) == counts, (p, m)


def test_fermionic_sum_matches_listed_riggings():
    # the closed form against t^cocharge summed over every listed rigging
    for n in range(8):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                counts: dict[int, int] = {}
                for rc in rigged_configurations(lam, mu):
                    counts[rc.cocharge()] = counts.get(rc.cocharge(), 0) + 1
                assert rc_kostka(lam, mu) == Coeff.from_t_poly(counts), (lam, mu)


def test_fermionic_sum_matches_charge_at_degree_8():
    shapes = partitions_of(8)
    assert len(shapes) ** 2 == 484
    for lam in shapes:
        for mu in shapes:
            charge_side = kostka_poly(lam, mu.parts)
            expected = T ** mu.n_stat() * charge_side.substitute(t=ONE / T)
            assert rc_kostka(lam, mu) == expected, (lam, mu)


def test_q_vectors_are_prefix_sums_of_the_conjugate():
    for n in range(7):
        for rho in partitions_of(n):
            q = _q_vector(rho, 9)
            assert len(q) == 10
            assert q == tuple(sum(min(i, part) for part in rho) for i in range(10))
