"""Rigged configurations and the cocharge route to Kostka polynomials.

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

The enumeration picks nu^(1), nu^(2), ... depth-first.  Since the
vacancies of component a read only nu^(a-1), nu^(a) and nu^(a+1),
component a is checked as soon as nu^(a+1) is chosen, and a prefix that
fails is dropped with all its completions; most tuples of shapes are
never built.
"""

from __future__ import annotations

import itertools

from .coeffs import Coeff
from .errors import PartitionError
from .partitions import Partition, partitions_of
from .render import boxed_rows


def _q_stat(rho: Partition, i: int) -> int:
    return sum(min(i, part) for part in rho)


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
        return (
            _q_stat(self._neighbor(a - 1), i)
            - 2 * _q_stat(self._neighbor(a), i)
            + _q_stat(self._neighbor(a + 1), i)
        )

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
        total = sum(sum(r) for r in self.riggings)
        for a in range(1, len(self.nus) + 1):
            cur = self._neighbor(a).conjugate()
            nxt = self._neighbor(a + 1).conjugate()
            for i in range(len(cur)):
                alpha = cur.parts[i]
                alpha_next = nxt.parts[i] if i < len(nxt) else 0
                total += alpha * (alpha - alpha_next)
        return total

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


def _component_riggings(
    prev: Partition, cur: Partition, nxt: Partition
) -> list[tuple[int, ...]] | None:
    """The riggings of component cur between neighbours prev and nxt, or
    None when some occupied row size has negative vacancy.

    Equal parts form one group, largest size first, with labels weakly
    decreasing inside a group; the riggings run over the product of the
    groups' label choices.
    """
    groups: list[list[tuple[int, ...]]] = []
    for size, count in sorted(cur.multiplicities().items(), reverse=True):
        p = _q_stat(prev, size) - 2 * _q_stat(cur, size) + _q_stat(nxt, size)
        if p < 0:
            return None
        groups.append(
            [
                tuple(sorted(labels, reverse=True))
                for labels in itertools.combinations_with_replacement(
                    range(p + 1), count
                )
            ]
        )
    return [sum(pick, ()) for pick in itertools.product(*groups)]


def rigged_configurations(lam: Partition, mu: Partition) -> list[RiggedConfiguration]:
    """All rigged configurations for the pair (lam, mu).

    Components are chosen depth-first, each from `partitions_of` of its
    size, so the configurations come out in the order of the product of
    those lists.  The vacancies of component a depend only on nu^(a-1),
    nu^(a) and nu^(a+1), so component a is checked as soon as nu^(a+1) is
    chosen (the last one against the empty partition) and an inadmissible
    prefix is cut with everything below it.
    """
    if lam.size != mu.size:
        raise PartitionError(
            f"rigged configurations need equal sizes, got {lam} and {mu}"
        )
    tails = [sum(lam.parts[a:]) for a in range(1, max(len(lam), 1))]
    # an empty nu after the last component closes the last check
    sizes = tails + [0]
    out: list[RiggedConfiguration] = []

    def extend(chain: list[Partition], riggings: list[list[tuple[int, ...]]]):
        # chain is mu = nu^(0), nu^(1), ..., nu^(a); riggings holds those of
        # components 1 .. a-1, each checked when its successor was chosen
        if len(chain) == len(sizes) + 1:
            for pick in itertools.product(*riggings):
                out.append(RiggedConfiguration(lam, mu, chain[1:-1], pick))
            return
        for nu in partitions_of(sizes[len(chain) - 1]):
            if len(chain) == 1:
                extend(chain + [nu], riggings)
            elif (found := _component_riggings(chain[-2], chain[-1], nu)) is not None:
                extend(chain + [nu], riggings + [found])

    extend([mu], [])
    return out


def rc_kostka(lam: Partition, mu: Partition) -> Coeff:
    """Generating polynomial of cocharge over rigged configurations."""
    counts: dict[int, int] = {}
    for rc in rigged_configurations(lam, mu):
        cc = rc.cocharge()
        counts[cc] = counts.get(cc, 0) + 1
    return Coeff.from_t_poly(counts)
