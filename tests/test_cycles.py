"""The enumerators leave no garbage for the cyclic collector.

A nested function that calls itself refers to its own closure cell, so
every call of its enclosing function leaves a reference cycle that holds
the call's scratch state until the cyclic collector runs.  The tests here
switch the collector off, run the enumerators, the combinatorics built on
them and cold conversions, and check that a full collection then finds
nothing: everything the calls made was freed by reference counting.
"""

import gc
import weakref

import pytest

import qtsym.cli  # noqa: F401 - every module is imported before counting
import qtsym.exprs  # noqa: F401
from qtsym import SymmetricFunctions, classical, llt, partitions, qt, ribbons, rigged, tableaux
from qtsym.coeffs import ONE, Q, T, Coeff
from qtsym.partitions import Partition

BASES = ("P", "Q", "QP", "McdP")


def _left_for_the_collector(calls) -> int:
    """Objects a full collection finds after calls(), run with the
    collector off."""
    # a registry first, so that every lazily imported module is loaded;
    # the collection below frees it
    SymmetricFunctions()
    gc.collect()
    gc.disable()
    try:
        calls()
        return gc.collect()
    finally:
        gc.enable()


LAM, MU = Partition([3, 2, 1]), Partition([2, 2, 1, 1])
SHAPE = Partition([4, 2])

# each enumerator once, past the module caches that would answer it
ENUMERATORS = {
    "partitions_of": lambda: partitions.partitions_of.__wrapped__(8),
    "horizontal_strip_extensions": lambda: partitions.horizontal_strip_extensions(
        Partition([2, 1]), 3, within=Partition([4, 3, 1])
    ),
    "distinct_permutations": lambda: list(partitions.distinct_permutations((1, 1, 2, 3))),
    "_margin_matrix_count": lambda: classical._margin_matrix_count.__wrapped__(
        (3, 2, 1), MU.parts, False
    ),
    "_lr_fillings": lambda: classical._lr_fillings(Partition([2, 1]), Partition([2, 1]), LAM),
    "_fillings": lambda: tableaux._fillings(LAM, MU.parts),
    "kostka_number": lambda: tableaux.kostka_number(LAM, MU.parts),
    "_strip_moves": lambda: ribbons._strip_moves((0, 1, 2, 3), 2, 2, (2, 3, 5, 6)),
    "ribbon_tableaux": lambda: ribbons.ribbon_tableaux(SHAPE, (2, 1), 2),
    "ribbon_spin_histogram": lambda: ribbons.ribbon_spin_histogram(SHAPE, (2, 1), 2),
    "_configurations": lambda: list(rigged._configurations(LAM, MU)),
    "_integral_form": lambda: qt._integral_form(LAM),
    "Coeff.substitute": lambda: ((ONE + Q * T**2) / (ONE - Q**3 * T)).substitute(
        q=T**2, t=Coeff.from_value(3)
    ),
}


def _combinatorics(S) -> None:
    shapes = partitions.partitions_of(5)
    for lam in shapes:
        for mu in shapes:
            tableaux.kostka_poly(lam, mu.parts)
            tableaux.ssyt(lam, mu.parts)
            rigged.rc_kostka(lam, mu)
    for shape, k in ((Partition([4, 2]), 2), (Partition([3, 3]), 3), (Partition([5, 3]), 2)):
        for mu in partitions.partitions_of(shape.size // k):
            ribbons.ribbon_tableaux(shape, mu.parts, k)
            ribbons.ribbon_spin_histogram(shape, mu.parts, k)
        llt.llt_in_m(S, shape, k)


@pytest.fixture
def fresh_strip_tables(monkeypatch):
    # an empty table set, so that strips are enumerated inside the count
    monkeypatch.setattr(ribbons, "_STRIP_TABLES", {})
    llt._spin_distributions.cache_clear()
    yield
    llt._spin_distributions.cache_clear()


@pytest.mark.parametrize("name", ENUMERATORS)
def test_enumerators_leave_no_cycles(name, fresh_strip_tables):
    assert _left_for_the_collector(ENUMERATORS[name]) == 0


def test_combinatorics_leave_no_cycles(fresh_strip_tables):
    S = SymmetricFunctions()
    assert _left_for_the_collector(lambda: _combinatorics(S)) == 0


def test_cold_conversions_leave_no_cycles():
    S = SymmetricFunctions()

    def convert():
        for n in range(1, 6):
            for frm in BASES:
                for to in ("m", "s", "h"):
                    S.conversion_matrix(frm, to, n)

    assert _left_for_the_collector(convert) == 0


def test_discarded_registry_dies_with_its_last_reference():
    # the conversion closures hold the registry weakly, so a registry that
    # built McdP -> m is freed by reference counting when it is dropped
    refs = []

    def build_and_drop():
        S = SymmetricFunctions()
        for n in range(1, 5):
            S.conversion_matrix("McdP", "m", n)
        refs.append(weakref.ref(S))
        del S
        assert refs[0]() is None

    assert _left_for_the_collector(build_and_drop) == 0


@pytest.mark.parametrize(
    "use",
    [
        lambda S: S.gram_schmidt(3, "hall_qt"),
        lambda S: S.apply_operator("omega", S["s"]([2, 1])),
    ],
    ids=["gram_schmidt", "apply_operator"],
)
def test_registry_with_cached_results_dies_with_its_last_reference(use):
    # the Gram-Schmidt and operator-image caches hold terms, not elements,
    # which refer back to the registry and would keep it alive in a cycle
    refs = []

    def use_and_drop():
        S = SymmetricFunctions()
        use(S)
        refs.append(weakref.ref(S))
        del S
        assert refs[0]() is None

    assert _left_for_the_collector(use_and_drop) == 0


def test_abandoned_generators_leave_no_cycles():
    def abandon():
        assert next(partitions.distinct_permutations((1, 1, 2, 3))) == (1, 1, 2, 3)
        assert next(rigged._configurations(LAM, MU))

    assert _left_for_the_collector(abandon) == 0
