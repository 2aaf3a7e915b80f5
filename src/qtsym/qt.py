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
* McdP: monic orthogonal family for the (q,t)-deformed product, from the
  Haglund-Haiman-Loehr formula (JAMS 18 (2005), section 8) for the
  integral form J_lam = c_lam P_lam, c_lam = prod over the cells of lam of
  (1 - q^arm t^(leg+1)).  It sums over fillings of the French diagram D
  of lam' (row r holds lam'_r cells; arm and leg are D's), read by rows
  from the top down, in which attacking cells (in one row, or the upper
  one in the next row up and strictly to the right) hold different
  letters.  A cell above a smaller letter is a descent: it adds leg+1 to
  maj and its arm to coinv, which starts at the sum of the arms and loses
  one per attacking pair read in decreasing order.  A filling weighs
  q^maj t^coinv, times 1 - q^(leg+1) t^(arm+1) per cell equal to the one
  below it and 1 - t per other cell.  J_lam is integral over m, so the
  only rational step is one division by c_lam per coefficient.
"""

from __future__ import annotations

import weakref
from functools import reduce

from .coeffs import Coeff, _divided
from .partitions import Partition, horizontal_strip_extensions, partitions_of
from .poly import _ONE_POLY, _T, Poly, _pack, _poly_addmul, _poly_mul
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


def _nonattacking(cells, i: int, content, f, key: int, equal: int, out) -> None:
    """Extend the filling f of cells[:i] by each letter x left in content
    that no cell attacked by cells[i] holds; a complete filling adds one to
    out[equal, key], with key = q^maj t^coinv packed and equal its bits."""
    if i == len(cells):
        out[equal, key] = out.get((equal, key), 0) + 1
        return
    attacked, up, descent, bit = cells[i]
    # the cells that cells[i] attacks attack one another, so in a
    # nonattacking filling their letters differ: one bit each
    seen = 0
    for j in attacked:
        seen |= 1 << f[j]
    for x, left in enumerate(content):
        if left and not seen >> x & 1:
            step = key - (seen >> x).bit_count() * _T + (descent if f[up] > x else 0)
            eq = equal | bit if f[up] == x else equal
            f[i], content[x] = x, left - 1
            _nonattacking(cells, i + 1, content, f, step, eq, out)
            content[x] = left


def _integral_form(lam: Partition) -> tuple[dict[Partition, Poly], Poly]:
    """J_lam over m as integer polynomials in q and t, and c_lam: the
    product of factors of each set of equal cells is formed once."""
    n, rows, heights = lam.size, lam.conjugate().parts + (0,), lam.parts
    pos, cells, weights, c_lam = {}, [], [], _ONE_POLY
    for r in reversed(range(len(rows) - 1)):
        for c in range(rows[r]):
            i = pos[r, c] = len(pos)
            leg, arm = heights[c] - r - 1, rows[r] - c - 1
            c_lam = _poly_mul(c_lam, {0: 1, _pack(leg, arm + 1): -1})
            # as an upper cell: its descent key and its bit
            weights.append((_pack(leg + 1, arm), 1 << i))
            attacked = [pos[r, b] for b in range(c)]
            attacked += [pos[r + 1, j] for j in range(c + 1, rows[r + 1])]
            # f[n] = -1 is the letter above the top of a column
            up = pos.get((r + 1, c), n)
            cells.append((attacked, up, *(weights[up] if up < n else (0, 0))))
    out, factors = {}, {}
    for mu in partitions_of(n):
        groups, f = {}, [0] * n + [-1]
        _nonattacking(cells, 0, list(mu.parts), f, lam.n_stat() * _T, 0, groups)
        acc: Poly = {}
        for (equal, key), count in groups.items():
            if equal not in factors:
                # 1 - q^(leg+1) t^(arm+1) for an equal cell, 1 - t for another
                terms = [{0: 1, (d if equal & b else 0) + _T: -1} for d, b in weights]
                factors[equal] = reduce(_poly_mul, terms, _ONE_POLY)
            _poly_addmul(acc, {key: count}, factors[equal])
        out[mu] = {mono: c for mono, c in acc.items() if c}
    return out, c_lam


def register_qt(S) -> None:
    S.register_basis("P", "Hall-Littlewood P (monic, orthogonal for hall_t)")
    S.register_basis("Q", "Hall-Littlewood Q (scaled dual of P for hall_t)")
    S.register_basis("QP", "modified Hall-Littlewood Q' (Kostka transform of Schur)")
    S.register_basis("McdP", "Macdonald P (monic, orthogonal for hall_qt)")
    S = weakref.proxy(S)  # S holds the rules below: no reference cycle back

    def p_to_m(lam: Partition):
        return S.element(
            "m", {mu: Coeff.from_t_poly(poly) for mu, poly in _hl_terms(lam).items()}
        )

    def mcd_to_m(lam: Partition):
        j, c_lam = _integral_form(lam)
        return S.element("m", {mu: _divided(num, c_lam) for mu, num in j.items()})

    def q_to_p(lam: Partition):
        b_lam = {0: 1}
        for mult in lam.multiplicities().values():
            for j in range(1, mult + 1):
                b_lam = _times_one_minus_t(b_lam, j)
        return S.element("P", {lam: Coeff.from_t_poly(b_lam)})

    def qp_to_s(lam: Partition):
        return S.element(
            "s", {mu: kostka_poly(mu, lam.parts) for mu in partitions_of(lam.size)}
        )

    S.declare_conversion("P", "m", p_to_m)
    S.declare_conversion("Q", "P", q_to_p)
    S.declare_conversion("QP", "s", qp_to_s)
    S.declare_conversion("McdP", "m", mcd_to_m)
