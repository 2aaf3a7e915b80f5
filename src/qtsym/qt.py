"""Hall-Littlewood and Macdonald bases.

* P: monic orthogonal family for the t-deformed scalar product, built by
  Gram-Schmidt over the monomial basis.
* Q: the same family rescaled so that <Q_lam, P_lam> = 1.
* QP: the dual family under the undeformed product, expanded over Schur
  functions by Kostka polynomials: QP_lam = sum_mu K_{mu,lam}(t) s_mu.
* McdP: monic orthogonal family for the (q,t)-deformed product, built
  from the Haglund-Haiman-Loehr formula for the modified Macdonald
  polynomial H~_lam = sum over fillings of q^inv t^maj x^filling, which has
  integer polynomial coefficients.  The integral form is
  J_lam[X; q, t] = t^n(lam) H~_lam[X(1-t); q, 1/t], and
  P_lam = J_lam / c_lam with c_lam = prod over cells (1 - q^arm t^(leg+1)).
  The plethysm X -> X(1-t) is diagonal on powersums, so the only rational
  step is one division by c_lam per coefficient.
"""

from __future__ import annotations

from fractions import Fraction

from .coeffs import ONE, Coeff, Q, T
from .partitions import Partition, distinct_permutations, partitions_of
from .tableaux import kostka_poly


def _hhl_terms(lam: Partition) -> dict[Partition, dict[tuple[int, int], int]]:
    """t^n(lam) H~_lam(X; q, 1/t) over m, as integer polynomials in q, t.

    Fillings live on the French diagram of lam (row 0 is the longest, at
    the bottom) and are read in reading order: rows from top to bottom,
    left to right within a row.  Two cells attack when they share a row,
    or when the upper one sits in the next row up and strictly to the
    right.  A descent is a cell whose entry exceeds the entry just below
    it; maj sums leg+1 over descents, and inv counts attacking pairs read
    in decreasing order minus the arms of the descents.
    """
    rows = lam.parts
    heights = lam.conjugate().parts
    pos = {}
    for r in reversed(range(len(rows))):
        for c in range(rows[r]):
            pos[r, c] = len(pos)
    attacks = [
        (pos[r, a], pos[r, b])
        for r, length in enumerate(rows)
        for a in range(length)
        for b in range(a + 1, length)
    ]
    attacks += [
        (pos[r + 1, j], pos[r, k])
        for r in range(len(rows) - 1)
        for j in range(rows[r + 1])
        for k in range(j)
    ]
    # (upper cell, cell below, leg+1, arm) for every possible descent
    descents = [
        (pos[r, c], pos[r - 1, c], heights[c] - r, rows[r] - c - 1)
        for r in range(1, len(rows))
        for c in range(rows[r])
    ]
    top = lam.n_stat()
    out = {}
    for mu in partitions_of(lam.size):
        content = tuple(i for i, mult in enumerate(mu.parts) for _ in range(mult))
        poly: dict[tuple[int, int], int] = {}
        for f in distinct_permutations(content):
            inv = sum(f[a] > f[b] for a, b in attacks)
            maj = 0
            for u, v, leg1, arm in descents:
                if f[u] > f[v]:
                    maj += leg1
                    inv -= arm
            mono = (inv, top - maj)
            poly[mono] = poly.get(mono, 0) + 1
        out[mu] = poly
    return out


def register_qt(S) -> None:
    S.register_basis("P", "Hall-Littlewood P (monic, orthogonal for hall_t)")
    S.register_basis("Q", "Hall-Littlewood Q (scaled dual of P for hall_t)")
    S.register_basis("QP", "modified Hall-Littlewood Q' (Kostka transform of Schur)")
    S.register_basis("McdP", "Macdonald P (monic, orthogonal for hall_qt)")

    def p_to_m(lam: Partition):
        return S.gram_schmidt(lam.size, "hall_t")[lam]

    def mcd_to_m(lam: Partition):
        n = lam.size
        h_m = {
            mu: Coeff({mono: Fraction(c) for mono, c in poly.items()})
            for mu, poly in _hhl_terms(lam).items()
        }
        j_p = S.conversion_matrix("m", "p", n).apply(h_m)
        for nu in j_p:
            plethysm = ONE
            for part in nu:
                plethysm = plethysm * (ONE - T**part)
            j_p[nu] = j_p[nu] * plethysm
        j_m = S.conversion_matrix("p", "m", n).apply(j_p)
        c_lam = ONE
        conj = lam.conjugate().parts
        for i, row in enumerate(lam.parts):
            for j in range(row):
                c_lam = c_lam * (ONE - Q ** (row - j - 1) * T ** (conj[j] - i))
        return S.element("m", {mu: v / c_lam for mu, v in j_m.items()})

    def q_to_p(lam: Partition):
        hl = p_to_m(lam)
        norm = S.scalar(hl, hl, "hall_t")
        return S.element("P", {lam: ONE / norm})

    def qp_to_s(lam: Partition):
        terms: dict[Partition, Coeff] = {}
        for mu in partitions_of(lam.size):
            poly = kostka_poly(mu, lam.parts)
            if not poly.is_zero():
                terms[mu] = poly
        return S.element("s", terms)

    S.declare_conversion("P", "m", p_to_m)
    S.declare_conversion("Q", "P", q_to_p)
    S.declare_conversion("QP", "s", qp_to_s)
    S.declare_conversion("McdP", "m", mcd_to_m)

    S.declare_dual_pair("P", "QP")
