"""LLT polynomials from k-ribbon tableaux.

H_lam^(k) is graded by cospin: the coefficient of m_mu is the sum of
t^cospin over k-ribbon tableaux of shape lam and weight mu, read off the
spin histogram that ribbons.ribbon_spin_histogram sums over intermediate
shapes without listing the tableaux.  The histograms of all the weights
of one shape share that shape's strip table (ribbons._strip_table), which
ribbons.ribbon_tableaux fills as well and which is kept for every shape:
each horizontal strip inside lam is enumerated once, whatever the weight,
and not again if the tableaux of lam were listed before.  Cospin is
maxspin - spin, with maxspin taken over all tableaux of the shape
regardless of weight, so relative powers between different weights stay
meaningful.  The result is symmetric in the sense that the coefficient
polynomial only depends on the sorted weight.

Generalized Kostka polynomials are the Schur coefficients of H.  Spin
counts rows minus one per ribbon, twice the spin of Lascoux, Leclerc and
Thibon (1997), so their t is t^2 here: for k >= l(mu), the s_lam
coefficient of H_{k mu}^(k) (each part of mu times k) is t^(2 n(mu))
K_{lam,mu}(1/t^2), with K the charge Kostka polynomial.
"""

from __future__ import annotations

from functools import lru_cache

from .coeffs import ZERO, Coeff
from .errors import TableauError
from .partitions import Partition, partitions_of
from .ribbons import core_and_quotient, ribbon_spin_histogram


@lru_cache(maxsize=None)
def spin_distributions(
    shape: Partition, k: int
) -> tuple[dict[Partition, dict[int, int]], int]:
    """Spin histograms of the k-ribbon tableaux of `shape`, per weight.

    Returns ({weight -> {spin -> count}}, maxspin).  Weights run over
    partitions of |shape|/k.  Empty when the k-core is nonzero.  Every
    weight's histogram reads the same strip table of the shape.
    """
    if k < 1:
        raise TableauError("ribbon size must be a positive integer")
    if shape.size % k:
        return {}, 0
    core, _ = core_and_quotient(shape, k)
    if core != Partition():
        return {}, 0
    ribbons = shape.size // k
    table: dict[Partition, dict[int, int]] = {}
    maxspin = 0
    for mu in partitions_of(ribbons):
        hist = ribbon_spin_histogram(shape, mu.parts, k)
        if hist:
            table[mu] = hist
            maxspin = max(maxspin, max(hist))
    return table, maxspin


def llt_in_m(S, shape: Partition, k: int):
    """The LLT polynomial H_shape^(k) expanded over the monomial basis."""
    if k < 1:
        raise TableauError("ribbon size must be a positive integer")
    table, maxspin = spin_distributions(shape, k)
    terms = {
        mu: Coeff.from_t_poly({maxspin - spin: count for spin, count in hist.items()})
        for mu, hist in table.items()
    }
    return S.element("m", terms)


def generalized_kostka(S, shape: Partition, mu: Partition, k: int) -> Coeff:
    """Coefficient of s_mu in H_shape^(k); zero when sizes cannot match."""
    if k < 1:
        raise TableauError("ribbon size must be a positive integer")
    if shape.size != k * mu.size:
        return ZERO
    h = llt_in_m(S, shape, k)
    if h.is_zero():
        return ZERO
    return S.convert(h, "s").coefficient(mu)
