"""Hall-Littlewood and Macdonald bases.

The deformed scalar products are <f, g>_A = <f, g[XA]>, the Hall product
against the plethysm `S.plethysm(g, A)`: A = 1/(1-t) for the t-deformed
`hall_t` and A = (1-q)/(1-t) for the (q,t)-deformed `hall_qt`.

* P: monic orthogonal family for the t-deformed scalar product, built from
  the tableau formula P_lam = sum over SSYT T of shape lam of psi_T(t) x^T
  (Macdonald, Symmetric Functions and Hall Polynomials, III (5.11')).  A
  tableau is a chain of horizontal strips and psi_T is the product of the
  strip weights psi_{lam/mu}(t) = prod over j in J of (1 - t^{m_j(mu)}),
  where J holds the columns j >= 1 that the strip misses while it fills
  column j+1.  Every coefficient is an integer polynomial in t.
* Q: the same family rescaled so that <Q_lam, P_lam> = 1, which is
  Q_lam = b_lam(t) P_lam with b_lam = prod over part multiplicities m of
  (1-t)(1-t^2)...(1-t^m) (ibid. III (2.11)).
* QP: the dual family under the undeformed product, expanded over Schur
  functions by Kostka polynomials: QP_lam = sum_mu K_{mu,lam}(t) s_mu.
* McdP: monic orthogonal family for the (q,t)-deformed product, built
  from the Haglund-Haiman-Loehr formula for the modified Macdonald
  polynomial H~_lam = sum over fillings of q^inv t^maj x^filling, which has
  integer polynomial coefficients.  The integral form is
  J_lam[X; q, t] = t^n(lam) H~_lam[X(1-t); q, 1/t], and
  P_lam = J_lam / c_lam with c_lam = prod over cells (1 - q^arm t^(leg+1)).
  `S.plethysm(H~, 1 - t)` gives X -> X(1-t), diagonal on powersums, so
  the only rational step is one division by c_lam per coefficient.
"""

from __future__ import annotations

from .coeffs import ONE, Coeff, Q, T
from .partitions import (
    Partition,
    distinct_permutations,
    horizontal_strip_extensions,
    partitions_of,
)
from .tableaux import kostka_poly


def _times_one_minus_t(poly: dict[int, int], e: int) -> dict[int, int]:
    """poly * (1 - t^e) on integer polynomials in t."""
    out = dict(poly)
    for k, c in poly.items():
        out[k + e] = out.get(k + e, 0) - c
    return out


def _strip_psi(outer: Partition, inner: Partition) -> list[int]:
    """The exponents m_j(inner), j in J, of psi_{outer/inner} for a
    horizontal strip: J holds the columns j >= 1 that get no new cell
    while column j+1 does."""
    filled = [False] * (outer.parts[0] + 2)
    for old, row in zip(inner.padded(len(outer)), outer.parts):
        for col in range(old + 1, row + 1):
            filled[col] = True
    mult = inner.multiplicities()
    return [
        mult[j] for j in range(1, len(filled) - 1) if filled[j + 1] and not filled[j]
    ]


def _hl_terms(lam: Partition) -> dict[Partition, dict[int, int]]:
    """P_lam over m as integer polynomials in t, from the psi-tableau formula.

    The coefficient of m_mu sums psi_T over the SSYT T of shape lam and
    content mu, built letter by letter as chains of horizontal strips; the
    partial sums are kept per intermediate shape, so a shape reached by
    several chains is extended once.
    """
    out = {}
    for mu in partitions_of(lam.size):
        layer: dict[Partition, dict[int, int]] = {Partition(): {0: 1}}
        for cells in mu.parts:
            nxt: dict[Partition, dict[int, int]] = {}
            for shape, poly in layer.items():
                for ext in horizontal_strip_extensions(shape, cells, within=lam):
                    weighted = poly
                    for e in _strip_psi(ext, shape):
                        weighted = _times_one_minus_t(weighted, e)
                    acc = nxt.setdefault(ext, {})
                    for e, c in weighted.items():
                        acc[e] = acc.get(e, 0) + c
            layer = nxt
        if lam in layer:
            out[mu] = layer[lam]
    return out


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
        return S.element(
            "m", {mu: Coeff.from_t_poly(poly) for mu, poly in _hl_terms(lam).items()}
        )

    def mcd_to_m(lam: Partition):
        h = S.element("m", {mu: Coeff(poly) for mu, poly in _hhl_terms(lam).items()})
        j_m = S.convert(S.plethysm(h, ONE - T), "m")
        c_lam = ONE
        conj = lam.conjugate().parts
        for i, row in enumerate(lam.parts):
            for j in range(row):
                c_lam = c_lam * (ONE - Q ** (row - j - 1) * T ** (conj[j] - i))
        return S.element("m", {mu: v / c_lam for mu, v in j_m.terms.items()})

    def q_to_p(lam: Partition):
        b_lam = {0: 1}
        for mult in lam.multiplicities().values():
            for j in range(1, mult + 1):
                b_lam = _times_one_minus_t(b_lam, j)
        return S.element("P", {lam: Coeff.from_t_poly(b_lam)})

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
