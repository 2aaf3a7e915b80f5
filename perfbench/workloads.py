"""The benchmark workloads and the checks on their results.

macdonald        cold build of McdP to and from m, s, P, QP, h and p
                 through degree 5 (hall_qt Gram-Schmidt, rational-function
                 sums), then warm McdP queries through degree 3.
hall_littlewood  cold build of P, Q and QP to and from m, e, h, p and s
                 through degree 6 (t-only coefficients), Kostka polynomials
                 at degree 7 by charge and by rigged configurations, ribbon
                 tableaux and LLT polynomials; then warm P/Q/QP queries
                 through degree 5.  It never touches McdP.

The warm queries go through exprs.evaluate and only read the caches the
cold build filled.

Each cold build requests every edge of the conversion graph directly, in
dependency order, before any route through it, so the first request of a
one-edge conversion at a degree is that edge's build.

Every result is checked outside the timed region: built matrices against
the fingerprints recorded at the seed commit plus identities (round trips,
specializations, three Kostka routes, LLT at t=1), and every query against
an identity computed by a second route.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import nullcontext
from fractions import Fraction

from qtsym.algebra import SymElement
from qtsym.coeffs import ONE, Q, T, ZERO
from qtsym.partitions import Partition, partitions_of

# The explicit edge out of each basis, as qtsym registers them; the
# inverse edges run the other way.  Listed in dependency order: m -> p
# feeds every Gram-Schmidt, and P -> m feeds Q -> P.
EDGES = (
    ("p", "m"),
    ("h", "m"),
    ("e", "m"),
    ("s", "m"),
    ("P", "m"),
    ("Q", "P"),
    ("QP", "s"),
    ("McdP", "m"),
)

SPECS = {
    "macdonald": {
        "edges": ("p", "h", "s", "P", "QP", "McdP"),
        "hubs": ("McdP",),
        "partners": ("m", "s", "P", "QP", "h", "p"),
        "top": 5,
        "query_top": 3,
        "pairings": (("scalar_qt", "McdP", "McdP"),),
        "queries": 1000,
        "cli": "to_s(McdP[2,1,1])",
    },
    "hall_littlewood": {
        "edges": ("p", "h", "e", "s", "P", "Q", "QP"),
        "hubs": ("P", "Q", "QP"),
        "partners": ("m", "e", "h", "p", "s"),
        "top": 6,
        "query_top": 5,
        "pairings": (
            ("scalar", "QP", "P"),
            ("scalar_t", "Q", "P"),
            ("scalar_t", "P", "P"),
        ),
        "queries": 1000,
        "cli": "to_m(QP[3,2,1])",
    },
}

# Two points of (0,1)^2 where no factor 1 - q^a t^b of a denominator
# vanishes.  Fingerprints are values, so they do not depend on how Coeff
# stores or normalizes a rational function.
POINTS = (
    {"q": Fraction(1, 2), "t": Fraction(1, 3)},
    {"q": Fraction(2, 3), "t": Fraction(1, 5)},
)

# Coefficients for the mixed-sum queries: source text and expected value.
COEFFS = {
    "3/2": ONE * Fraction(3, 2),
    "-2": ONE * -2,
    "q": Q,
    "t^2": T * T,
    "(1-q)/(1-t)": (ONE - Q) / (ONE - T),
    "(q+t)/(1-q*t)": (Q + T) / (ONE - Q * T),
}


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def _no_tick() -> None:
    pass


# -- cold builds ---------------------------------------------------------


def build(S, name: str, tracer=None, tick=None) -> dict:
    """Request every conversion matrix of the workload; returns them keyed
    'frm->to/n'.  `tick`, if given, is called between requests."""
    tick = tick or _no_tick
    spec = SPECS[name]
    pairs = [(a, b) for a in spec["hubs"] for b in spec["partners"]]
    pairs += [(b, a) for a, b in pairs]
    built = {}
    for n in range(1, spec["top"] + 1):
        for frm, to in EDGES:
            if frm not in spec["edges"]:
                continue
            for a, b in ((frm, to), (to, frm)):
                with _span(tracer, f"algebra.edge.{a}-{b}.d{n}"):
                    built[f"{a}->{b}/{n}"] = S.conversion_matrix(a, b, n)
                tick()
        for a, b in pairs:
            if f"{a}->{b}/{n}" not in built:
                built[f"{a}->{b}/{n}"] = S.conversion_matrix(a, b, n)
                tick()
    return built


def _empty_core_shapes(size: int, k: int) -> list[Partition]:
    from qtsym.ribbons import core_and_quotient

    return [lam for lam in partitions_of(size) if core_and_quotient(lam, k)[0] == Partition()]


def combinatorics(S, tracer=None, tick=None) -> dict:
    """The hall_littlewood workload's direct combinatorial calls.  `tick`,
    if given, is called between calls."""
    from qtsym.llt import llt_in_m
    from qtsym.ribbons import ribbon_tableaux
    from qtsym.rigged import rc_kostka
    from qtsym.tableaux import kostka_poly

    tick = tick or _no_tick
    out = {"ribbon_count": 0}
    shapes = partitions_of(7)
    with _span(tracer, "tableaux.kostka_poly"):
        out["kostka_poly/7"] = {
            (lam, mu): kostka_poly(lam, mu.parts) for lam in shapes for mu in shapes
        }
    tick()
    with _span(tracer, "rigged.rc_kostka"):
        out["rc_kostka/7"] = {
            (lam, mu): rc_kostka(lam, mu) for lam in shapes for mu in shapes
        }
    tick()
    with _span(tracer, "ribbons.ribbon_tableaux"):
        for size, k in ((12, 3), (10, 2)):
            spins = {}
            for lam in _empty_core_shapes(size, k):
                for mu in partitions_of(size // k):
                    tabs = ribbon_tableaux(lam, mu.parts, k)
                    spins[(lam, mu)] = sorted(tab.spin for tab in tabs)
                    out["ribbon_count"] += len(tabs)
                tick()
            out[f"ribbon_tableaux/k{k}/{size}"] = spins
    with _span(tracer, "llt.llt_in_m"):
        for size, k in ((10, 2), (12, 3)):
            table = out[f"llt_in_m/k{k}/{size}"] = {}
            for lam in _empty_core_shapes(size, k):
                table[lam] = llt_in_m(S, lam, k)
                tick()
    return out


# -- fingerprints -------------------------------------------------------------


def _values(c) -> str:
    return "|".join(str(c.substitute(**pt).as_fraction()) for pt in POINTS)


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def fingerprints(built: dict, comb: dict | None) -> dict[str, str]:
    out = {
        key: _digest(
            f"{r}|{c}|{_values(m.entry(r, c))}" for r in m.row_keys for c in m.col_keys
        )
        for key, m in built.items()
    }
    for key, table in (comb or {}).items():
        if key.startswith(("kostka_poly", "rc_kostka")):
            out[key] = _digest(f"{l}|{m}|{_values(c)}" for (l, m), c in table.items())
        elif key.startswith("ribbon_tableaux"):
            out[key] = _digest(f"{l}|{m}|{s}" for (l, m), s in table.items())
        elif key.startswith("llt_in_m"):
            out[key] = _digest(
                f"{lam}|{mu}|{_values(el.coefficient(mu))}"
                for lam, el in table.items()
                for mu in el.support()
            )
    return out


def coefficient_size(built: dict) -> tuple[int, int]:
    """Largest entry over the built matrices: (terms of numerator plus
    denominator, total degree in q and t)."""
    terms = degree = 0
    for m in built.values():
        for r in m.row_keys:
            for c in m.col_keys:
                e = m.entry(r, c)
                monos = list(e.numerator_terms()) + list(e.denominator_terms())
                terms = max(terms, len(monos))
                degree = max(degree, max(a + b for a, b in monos))
    return terms, degree


# -- identities on the cold build --------------------------------------------


def _delta(a, b):
    return ONE if a == b else ZERO


def _is_identity_under(m, **assignment) -> bool:
    return all(
        m.entry(r, c).substitute(**assignment) == _delta(r, c)
        for r in m.row_keys
        for c in m.col_keys
    )


def identities(S, name: str, built: dict, comb: dict | None) -> dict[str, bool]:
    """Identity checks on a cold build: check name -> whether it holds."""
    checks: dict[str, bool] = {}
    for key, forth in built.items():
        pair, n = key.split("/")
        a, b = pair.split("->")
        back = built.get(f"{b}->{a}/{n}")
        if back is not None and a < b:
            checks[f"roundtrip {key}"] = (back @ forth).is_identity()
    if name == "macdonald":
        for n in range(1, SPECS[name]["top"] + 1):
            checks[f"McdP|q=0 = P at {n}"] = _is_identity_under(built[f"McdP->P/{n}"], q=ZERO)
            checks[f"McdP|q=t = s at {n}"] = _is_identity_under(built[f"McdP->s/{n}"], q=T)
    if name == "hall_littlewood":
        checks.update(_kostka_checks(S, built, comb))
        checks.update(_llt_checks(S, comb))
    return checks


def _kostka_checks(S, built, comb) -> dict[str, bool]:
    """Kostka polynomials by charge, by the inverse transpose of the
    Gram-Schmidt P -> s matrix (degrees 1-6) and by rigged configurations
    (degrees 6 and 7)."""
    from qtsym.rigged import rc_kostka
    from qtsym.tableaux import kostka_poly

    out = {}
    tables = {7: (comb["kostka_poly/7"], comb["rc_kostka/7"])}
    for n in range(1, 7):
        shapes = partitions_of(n)
        charge = {(lam, mu): kostka_poly(lam, mu.parts) for lam in shapes for mu in shapes}
        gs = built[f"P->s/{n}"].transpose().invert("kostka")
        out[f"kostka charge = Gram-Schmidt at {n}"] = all(
            gs.entry(lam, mu) == k for (lam, mu), k in charge.items()
        )
    tables[6] = (charge, {(lam, mu): rc_kostka(lam, mu) for lam in shapes for mu in shapes})
    inv_t = ONE / T
    for n, (charge, rigged) in tables.items():
        out[f"kostka charge = rigged at {n}"] = all(
            rigged[(lam, mu)] == T ** mu.n_stat() * k.substitute(t=inv_t)
            for (lam, mu), k in charge.items()
        )
    return out


def _llt_checks(S, comb) -> dict[str, bool]:
    """LLT at t=1 is the product of Schur functions over the k-quotient,
    and its m-coefficients count the directly enumerated ribbon tableaux."""
    from qtsym.ribbons import core_and_quotient

    out = {}
    for size, k in ((10, 2), (12, 3)):
        ribbons = comb[f"ribbon_tableaux/k{k}/{size}"]
        for lam, el in comb[f"llt_in_m/k{k}/{size}"].items():
            product = S["s"]()
            for piece in core_and_quotient(lam, k)[1]:
                product = product * S.element("s", piece)
            at_one = el.substitute(t=1)
            counts = all(
                at_one.coefficient(mu) == len(ribbons[(lam, mu)])
                for mu in partitions_of(size // k)
            )
            out[f"llt k={k} {lam} at t=1"] = at_one == S.convert(product, "m") and counts
    return out


# -- query streams -----------------------------------------------------------


KINDS = ("to", "round_trip", "product", "pairing", "omega", "sum")


def _text(basis: str, lam: Partition) -> str:
    return f"{basis}[{','.join(str(p) for p in lam.parts)}]"


def _qt_norm(lam: Partition):
    """<P_lam, P_lam> for the (q,t) pairing (Macdonald VI.6.19)."""
    out = ONE
    conj = lam.conjugate()
    for i, row in enumerate(lam.parts):
        for j in range(row):
            arm, leg = row - j - 1, conj.parts[j] - i - 1
            out = out * (ONE - Q ** (arm + 1) * T**leg) / (ONE - Q**arm * T ** (leg + 1))
    return out


def _t_norm(lam: Partition):
    """<P_lam, P_lam> for the t pairing: 1 / prod_i phi_{m_i}(t)."""
    out = ONE
    for mult in lam.multiplicities().values():
        for j in range(1, mult + 1):
            out = out / (ONE - T**j)
    return out


def queries(name: str, seed: int, rep: int) -> list[tuple]:
    """Repetition `rep`'s query stream: (kind, text, data) triples."""
    spec = SPECS[name]
    rng = random.Random(f"{name}:{seed}:{rep}")
    hubs, partners = spec["hubs"], spec["partners"]
    decks: dict = {}

    def deal(key, items):
        """Draw without replacement from a reshuffled deck per key, so
        every seed draws each item about equally often."""
        deck = decks.setdefault(key, [])
        if not deck:
            deck.extend(items)
            rng.shuffle(deck)
        return deck.pop()

    def shape(kind, n):
        return deal((kind, n), partitions_of(n))

    top = spec["query_top"]

    # Kinds and degrees cycle in a fixed order and bases, shapes, second
    # degrees and coefficients are dealt from decks, so every seed gives
    # nearly the same mix of work; the seed decides how they combine.
    out = []
    for i in range(spec["queries"]):
        kind, level = KINDS[i % len(KINDS)], i // len(KINDS)
        x = deal(("hub", kind), hubs)
        if kind == "to":
            y = deal((kind, x), [b for b in partners if b != x])
            lam = shape(kind, 1 + level % top)
            if rng.random() < 0.5:
                x, y = y, x
            out.append((kind, f"to_{y}({_text(x, lam)})", (x, lam, y)))
        elif kind == "round_trip":
            y = deal((kind, x), [b for b in partners if b != x])
            lam = shape(kind, 1 + level % top)
            out.append((kind, f"to_{x}(to_{y}({_text(x, lam)}))", (x, lam)))
        elif kind == "product":
            y = deal((kind, x), hubs)
            n1 = 1 + level % (top - 1)
            n2 = deal(("n2", kind, n1), range(1, top - n1 + 1))
            lam, mu = shape(kind, n1), shape(kind, n2)
            out.append((kind, f"{_text(x, lam)}*{_text(y, mu)}", (x, lam, y, mu)))
        elif kind == "pairing":
            fn, a, b = deal("pairings", spec["pairings"])
            n = 1 + level % top
            lam = shape(kind, n)
            mu = lam if deal("diagonal", (True, False)) else shape(kind, n)
            out.append((kind, f"{fn}({_text(a, lam)},{_text(b, mu)})", (fn, a, lam, b, mu)))
        elif kind == "omega":
            lam = shape(kind, 1 + level % top)
            out.append((kind, f"omega(omega({_text(x, lam)}))", (x, lam)))
        else:
            y = deal((kind, x), hubs)
            n2 = deal(("n2", kind), range(1, top + 1))
            lam, mu = shape(kind, 1 + level % top), shape(kind, n2)
            c1, c2 = deal("c1", list(COEFFS)), deal("c2", list(COEFFS))
            out.append(
                (kind, f"{c1}*{_text(x, lam)} + {c2}*{_text(y, mu)}", (x, lam, c1, y, mu, c2))
            )
    return out


def check_query(S, query: tuple, result) -> bool:
    """Compare a query's result with the same quantity by a second route."""
    kind, _, data = query
    if kind == "pairing":
        fn, a, lam, b, mu = data
        if lam != mu:
            expected = ZERO
        elif fn == "scalar_qt":
            expected = _qt_norm(lam)
        elif (fn, a) == ("scalar_t", "P"):
            expected = _t_norm(lam)
        else:
            expected = ONE
        return result == expected
    if not isinstance(result, SymElement):
        return False
    if kind == "to":
        x, lam, y = data
        return result.basis == y and S.convert(result, x) == S.element(x, lam)
    if kind == "round_trip":
        x, lam = data
        return result.basis == x and result.terms == {lam: ONE}
    if kind == "omega":
        x, lam = data
        return S.convert(result, x) == S.element(x, lam)
    if kind == "product":
        x, lam, y, mu = data
        in_p = S.multiply(
            S.convert(S.element(x, lam), "p"), S.convert(S.element(y, mu), "p")
        )
        return S.convert(result, "p") == in_p
    x, lam, c1, y, mu, c2 = data
    expected = S.add(
        S.convert(S.element(x, lam), "p").scaled(COEFFS[c1]),
        S.convert(S.element(y, mu), "p").scaled(COEFFS[c2]),
    )
    return S.convert(result, "p") == expected
