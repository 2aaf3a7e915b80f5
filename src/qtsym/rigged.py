"""Rigged configurations and the fermionic formula for Kostka polynomials.

For partitions lam and mu of the same size, a configuration is a
sequence of partitions nu^(1), nu^(2), ... with |nu^(a)| equal to the
tail sum lam_{a+1} + lam_{a+2} + ...; components vanish from a = len(lam)
on.  Writing Q_i(rho) = sum_j min(i, rho_j), the vacancy of row size i in
component a is

    p_i^(a) = Q_i(nu^(a-1)) - 2 Q_i(nu^(a)) + Q_i(nu^(a+1)),

with nu^(0) = mu.  A configuration is admissible when every occupied row
size has nonnegative vacancy, and a rigging gives each part an integer
label between 0 and its vacancy, labels of equal parts listed weakly
decreasing.  Cocharge is the label sum plus a quadratic term in the
column heights alpha_i^(a) = #{parts of nu^(a) >= i}:

    cc = sum(J) + sum_{a,i} alpha_i^(a) * (alpha_i^(a) - alpha_i^(a+1)).

Summing t^cc over all rigged configurations gives the same information
as the charge generating polynomial, with t inverted and shifted by the
weight statistic n(mu).

Q_i(rho) is the prefix sum alpha_1 + ... + alpha_i of the conjugate's
parts, so each partition's vector (Q_0, ..., Q_n), n = |mu|, is computed
once and every vacancy is three lookups; the column heights are its
differences.  The m_i labels of the parts of size i range over the
weakly decreasing sequences in 0..p_i, whose label sums have the
Gaussian binomial [p_i + m_i, m_i]_t as generating function.  So
rc_kostka never lists riggings: it sums the Kirillov-Reshetikhin
fermionic formula

    sum over admissible nu of t^quad(nu) * prod_{a,i} [p_i^(a) + m_i^(a), m_i^(a)]_t.

The enumeration picks nu^(1), nu^(2), ... depth-first.  Since the
vacancies of component a read only nu^(a-1), nu^(a) and nu^(a+1),
component a is checked as soon as nu^(a+1) is chosen, and a prefix that
fails is dropped with all its completions; most tuples of shapes are
never built.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType

from .coeffs import Coeff
from .errors import PartitionError
from .partitions import Partition, partitions_of
from .render import boxed_rows


def _uni_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two polynomials in t with positive coefficients, such
    as Gaussian binomials, as {exponent: coeff}: no term cancels."""
    out: dict[int, int] = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return out


@lru_cache(maxsize=None)
def _q_vector(rho: Partition, n: int) -> tuple[int, ...]:
    """(Q_0(rho), ..., Q_n(rho)), the prefix sums of rho's conjugate."""
    conj = rho.conjugate().parts
    out = [0]
    for i in range(n):
        out.append(out[-1] + (conj[i] if i < len(conj) else 0))
    return tuple(out)


def _quadratic(nus, n: int) -> int:
    """sum_{a,i} alpha_i^(a) (alpha_i^(a) - alpha_i^(a+1)), read off the
    Q vectors; nu past the last component is empty."""
    total = 0
    for cur, nxt in zip(nus, nus[1:] + (Partition(),)):
        qc, qn = _q_vector(cur, n), _q_vector(nxt, n)
        for i in range(1, n + 1):
            alpha = qc[i] - qc[i - 1]
            total += alpha * (alpha - qn[i] + qn[i - 1])
    return total


@lru_cache(maxsize=None)
def _gaussian(p: int, m: int) -> Mapping[int, int]:
    """[p + m, m]_t as a read-only {e: c}: m labels in 0..p, weakly
    decreasing, counted by their sum."""
    if p == 0 or m == 0:
        return MappingProxyType({0: 1})
    # either every label is below p, or the first label is p
    out = dict(_gaussian(p - 1, m))
    for e, c in _gaussian(p, m - 1).items():
        out[e + p] = out.get(e + p, 0) + c
    return MappingProxyType(out)


def _labels(p: int, count: int) -> list[tuple[int, ...]]:
    """The weakly decreasing label tuples of `count` equal parts with
    vacancy p, in the order of combinations_with_replacement."""
    return [
        tuple(sorted(labels, reverse=True))
        for labels in itertools.combinations_with_replacement(range(p + 1), count)
    ]


class RiggedConfiguration:
    """One admissible configuration with a rigging."""

    __slots__ = ("lam", "mu", "nus", "riggings")

    def __init__(self, lam: Partition, mu: Partition, nus, riggings):
        self.lam = lam
        self.mu = mu
        self.nus = tuple(nus)
        self.riggings = tuple(tuple(r) for r in riggings)

    def _neighbor(self, a: int) -> Partition:
        """nu^(a) with nu^(0) = mu and empty beyond the last component."""
        if a == 0:
            return self.mu
        if 1 <= a <= len(self.nus):
            return self.nus[a - 1]
        return Partition()

    def vacancy(self, a: int, i: int) -> int:
        """Vacancy of row size i in component a (1-based)."""
        # Q_0 .. Q_n are exact for any rho, so n only has to reach i
        n = max(i, self.mu.size)
        prev, cur, nxt = (_q_vector(self._neighbor(b), n) for b in (a - 1, a, a + 1))
        return prev[i] - 2 * cur[i] + nxt[i]

    def validate(self) -> bool:
        tails = [sum(self.lam.parts[a:]) for a in range(1, max(len(self.lam), 1))]
        if len(self.nus) != len(tails):
            return False
        if any(nu.size != t for nu, t in zip(self.nus, tails)):
            return False
        for a, (nu, rigs) in enumerate(zip(self.nus, self.riggings), start=1):
            if len(rigs) != len(nu):
                return False
            for size, group in itertools.groupby(
                range(len(nu.parts)), key=lambda j: nu.parts[j]
            ):
                idx = list(group)
                p = self.vacancy(a, size)
                if p < 0:
                    return False
                labels = [rigs[j] for j in idx]
                if any(l < 0 or l > p for l in labels):
                    return False
                if any(labels[j] < labels[j + 1] for j in range(len(labels) - 1)):
                    return False
        return True

    def cocharge(self) -> int:
        # Q vectors must reach every column; past |mu| only if malformed
        n = max([self.mu.size, *(nu.size for nu in self.nus)])
        return sum(sum(r) for r in self.riggings) + _quadratic(self.nus, n)

    def render(self) -> str:
        blocks: list[str] = []
        for a, (nu, rigs) in enumerate(zip(self.nus, self.riggings), start=1):
            rows = [[" "] * part for part in nu.parts]
            suffixes = [str(r) for r in rigs]
            blocks.append(f"nu({a}):")
            blocks.append(boxed_rows(rows, suffixes))
        if not self.nus:
            blocks.append("(no components)")
        return "\n".join(blocks)

    def to_json(self) -> dict:
        return {
            "lam": list(self.lam.parts),
            "mu": list(self.mu.parts),
            "cocharge": self.cocharge(),
            "components": [
                {
                    "partition": list(nu.parts),
                    "riggings": list(rigs),
                    "vacancies": [
                        [i, self.vacancy(a, i)] for i in sorted(set(nu.parts))
                    ],
                }
                for a, (nu, rigs) in enumerate(
                    zip(self.nus, self.riggings), start=1
                )
            ],
        }

    def __repr__(self) -> str:
        return f"RiggedConfiguration(nus={self.nus}, riggings={self.riggings})"


def _configurations(lam: Partition, mu: Partition):
    """Yield (nus, vacancies) for each admissible configuration, in the
    order of the product of the components' `partitions_of` lists.

    vacancies[a - 1] lists (count, p) for each occupied row size of
    component a, largest size first.  Component a is checked as soon as
    nu^(a+1) is chosen (the last one against the empty partition), and an
    inadmissible prefix is cut with everything below it.
    """
    if lam.size != mu.size:
        raise PartitionError(
            f"rigged configurations need equal sizes, got {lam} and {mu}"
        )
    n = mu.size
    tails = [sum(lam.parts[a:]) for a in range(1, max(len(lam), 1))]
    # an empty nu after the last component closes the last check
    sizes = tails + [0]

    def extend(chain, qs, vacancies):
        # chain is mu = nu^(0), nu^(1), ..., nu^(a) and qs their Q vectors;
        # vacancies holds those of components 1 .. a-1
        depth = len(chain)
        if depth == len(sizes) + 1:
            yield tuple(chain[1:-1]), vacancies
            return
        if depth == 1:
            for nu in partitions_of(sizes[0]):
                yield from extend(chain + [nu], qs + [_q_vector(nu, n)], vacancies)
            return
        prev, cur = qs[-2], qs[-1]
        rows = sorted(chain[-1].multiplicities().items(), reverse=True)
        for nu in partitions_of(sizes[depth - 1]):
            q = _q_vector(nu, n)
            groups = []
            for size, count in rows:
                p = prev[size] - 2 * cur[size] + q[size]
                if p < 0:
                    break
                groups.append((count, p))
            else:
                yield from extend(chain + [nu], qs + [q], vacancies + [groups])

    yield from extend([mu], [_q_vector(mu, n)], [])


def rigged_configurations(lam: Partition, mu: Partition) -> list[RiggedConfiguration]:
    """All rigged configurations for the pair (lam, mu).

    Configurations come out in the order of the product of the
    components' `partitions_of` lists; the riggings of one configuration
    run over the product of its components' label choices, and inside a
    component over the product of its equal-part groups, largest size
    first.
    """
    out: list[RiggedConfiguration] = []
    for nus, vacancies in _configurations(lam, mu):
        per_component = [
            [
                sum(pick, ())
                for pick in itertools.product(*(_labels(p, c) for c, p in groups))
            ]
            for groups in vacancies
        ]
        for pick in itertools.product(*per_component):
            out.append(RiggedConfiguration(lam, mu, nus, pick))
    return out


def rc_kostka(lam: Partition, mu: Partition) -> Coeff:
    """Generating polynomial of cocharge over rigged configurations, by
    the fermionic formula: each admissible configuration contributes
    t^quad times one Gaussian binomial per occupied row size."""
    n = mu.size
    counts: dict[int, int] = {}
    for nus, vacancies in _configurations(lam, mu):
        poly = {_quadratic(nus, n): 1}
        for groups in vacancies:
            for count, p in groups:
                if p:
                    poly = _uni_mul(poly, _gaussian(p, count))
        for e, c in poly.items():
            counts[e] = counts.get(e, 0) + c
    return Coeff.from_t_poly(counts)
