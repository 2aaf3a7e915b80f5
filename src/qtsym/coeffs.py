"""Exact arithmetic in the field Q(q,t).

A coefficient is a quotient of two polynomials in the deformation
parameters q and t with integer coefficients.  Polynomials are sparse
dicts mapping an exponent pair (eq, et) to a nonzero int; rational input
is cleared of its denominators once, when a Coeff is built from it.  Every
Coeff is kept in a canonical form:

* numerator and denominator are coprime in Z[q,t]: they share no
  polynomial factor and no integer factor,
* the denominator's leading coefficient is positive, where "leading" means
  the largest monomial in graded lexicographic order with t weighted above q,
* a zero numerator forces denominator 1.

The form is unique, so equality is a plain structural comparison and
Coeff values can key dicts and land in sets.  `numerator_terms()` and
`denominator_terms()` present the same value with the denominator scaled
monic and Fraction coefficients, the form rendering uses.  All operations
are exact; nothing here ever rounds.

Two short paths skip arithmetic whose result is known in advance.  A
product with an integer constant k scales the other operand: with num and
den coprime, k * num / den only needs g = gcd(k, content(den)) divided out
of k and den, so it takes no polynomial gcd, no polynomial product and no
`_canonical` (times 1 it is the other operand itself).  And `_poly_gcd`
returns 1 at once when either argument is 1.

`dot`, the sum of products behind every matrix product, adds each
product into one running numerator in place (`_poly_addmul`) and drops
the cancelled terms once at the end.  It recognises a unit denominator
by identity with the shared `_ONE_POLY`, which `_make` stores for every
unit denominator; a unit held as another dict only takes the general
path, with the same result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .errors import CoefficientError

Monomial = tuple[int, int]
Poly = dict[Monomial, int]

_ONE_POLY: Poly = {(0, 0): 1}


def _mono_key(mono: Monomial) -> tuple[int, int]:
    # Graded lex with t more significant than q.
    eq, et = mono
    return (eq + et, et)


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


def _poly_addmul(acc: Poly, a: Poly, b: Poly) -> None:
    """acc += a * b in place.  Coefficients that cancel stay as zeros, for
    the caller to drop once after the last product."""
    get = acc.get
    for (aq, at), ca in a.items():
        for (bq, bt), cb in b.items():
            mono = (aq + bq, at + bt)
            acc[mono] = get(mono, 0) + ca * cb


def _poly_neg(a: Poly) -> Poly:
    return {mono: -c for mono, c in a.items()}


def _poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    out: Poly = {}
    for (aq, at), ca in a.items():
        for (bq, bt), cb in b.items():
            mono = (aq + bq, at + bt)
            s = out.get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _poly_lead(a: Poly) -> Monomial:
    return max(a, key=_mono_key)


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """The quotient of a by b in Z[q,t]; ArithmeticError unless b divides
    a exactly."""
    if len(b) == 1:
        ((bq, bt), cb), = b.items()
        mono_quot: Poly = {}
        for (eq, et), c in a.items():
            d, r = divmod(c, cb)
            if eq < bq or et < bt or r:
                raise ArithmeticError("inexact polynomial division")
            mono_quot[(eq - bq, et - bt)] = d
        return mono_quot
    # any monomial order works for division: plain tuple order (lex, q
    # first) needs no key function
    quot: Poly = {}
    rem = dict(a)
    lead_b = max(b)
    lc_b = b[lead_b]
    while rem:
        lead_r = max(rem)
        dq = lead_r[0] - lead_b[0]
        dt = lead_r[1] - lead_b[1]
        c, r = divmod(rem[lead_r], lc_b)
        if dq < 0 or dt < 0 or r:
            raise ArithmeticError("inexact polynomial division")
        quot[(dq, dt)] = c
        for (bq, bt), cb in b.items():
            mono = (bq + dq, bt + dt)
            s = rem.get(mono, 0) - c * cb
            if s:
                rem[mono] = s
            else:
                rem.pop(mono, None)
    return quot


# ---------------------------------------------------------------------------
# GCD machinery.  Strategy: split off the integer and monomial contents to
# get primitive integer polynomials, try the heuristic GCD, and fall back to
# a primitive polynomial remainder sequence viewing each polynomial as a
# polynomial in t whose coefficients are integer polynomials in q.  Exact
# division has one routine per representation: _poly_divexact in Z[q,t]
# and _uni_divexact in Z[q], both raising ArithmeticError when inexact.

UniPoly = dict[int, int]  # univariate integer polynomial, exponent -> coeff


def _uni_prem(f: UniPoly, g: UniPoly) -> UniPoly:
    """Pseudo-remainder of integer univariate polynomials."""
    r = dict(f)
    dg = max(g)
    lg = g[dg]
    while r:
        dr = max(r)
        if dr < dg:
            break
        lr = r.pop(dr)
        shift = dr - dg
        for e in r:
            r[e] *= lg
        for e, c in g.items():
            if e == dg:
                continue
            tgt = e + shift
            s = r.get(tgt, 0) - c * lr
            if s:
                r[tgt] = s
            else:
                r.pop(tgt, None)
    return r


def _uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """GCD of integer univariate polynomials, primitive with positive lead.

    Tries the heuristic evaluation GCD first; on failure falls back to a
    primitive polynomial remainder sequence over the integers (dividing
    every pseudo-remainder by its integer content keeps coefficients from
    blowing up the way plain Euclid over the rationals does).
    """
    if not a:
        return _uni_primitive(b) if b else {}
    if not b:
        return _uni_primitive(a)
    f, g = _uni_primitive(a), _uni_primitive(b)
    if max(f) < max(g):
        f, g = g, f
    if max(g) == 0:
        return {0: 1}
    if f == g:
        return f
    fast = _uni_heugcd(f, g)
    if fast is not None:
        return fast
    while True:
        r = _uni_prem(f, g)
        if not r:
            return g
        if max(r) == 0:
            return {0: 1}
        f, g = g, _uni_primitive(r)


def _uni_primitive(p: UniPoly) -> UniPoly:
    if not p:
        return {}
    g = _int_gcd(*p.values())
    if p[max(p)] < 0:
        g = -g
    return {e: c // g for e, c in p.items()}


# -- heuristic GCD (GCDHEU, Char-Geddes-Gonnet 1989): evaluate at a large
# integer, take the integer GCD, lift the digits back to a polynomial, and
# accept the candidate only if _uni_divexact (_poly_divexact in two
# variables) divides both inputs by it without raising.
# Sound because a verified candidate reconstructed from gcd(f(x), g(x))
# cannot be a proper divisor of the true GCD once x outgrows the
# coefficients; on repeated failure callers fall back to a primitive
# remainder sequence.


def _balanced_digits(n: int, x: int) -> list[int]:
    """Digits d_i with |d_i| <= x/2 and n = sum d_i * x^i."""
    digits = []
    half = x // 2
    while n:
        d = n % x
        if d > half:
            d -= x
        digits.append(d)
        n = (n - d) // x
    return digits


def _uni_eval(p: UniPoly, x: int) -> int:
    return sum(c * x**e for e, c in p.items())


def _uni_divexact(a: UniPoly, d: UniPoly) -> UniPoly:
    """The quotient of a by d in Z[q]; ArithmeticError unless d divides a
    exactly."""
    quot: UniPoly = {}
    rem = dict(a)
    top = max(d)
    lead = d[top]
    while rem:
        e = max(rem)
        c, r = divmod(rem[e], lead)
        if e < top or r:
            raise ArithmeticError("inexact polynomial division")
        shift = e - top
        quot[shift] = c
        for ed, cd in d.items():
            tgt = ed + shift
            s = rem.get(tgt, 0) - c * cd
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return quot


def _uni_heugcd(f: UniPoly, g: UniPoly) -> UniPoly | None:
    """Heuristic GCD of primitive integer polynomials, or None.

    A candidate that lifts to a constant is primitive, so it is 1 and is
    returned without trial division."""
    norm = min(max(abs(c) for c in f.values()), max(abs(c) for c in g.values()))
    x = 2 * norm + 29
    for _ in range(6):
        fv, gv = _uni_eval(f, x), _uni_eval(g, x)
        if fv and gv:
            image = _int_gcd(fv, gv)
            cand = {
                e: d for e, d in enumerate(_balanced_digits(image, x)) if d
            }
            cand = _uni_primitive(cand)
            if len(cand) == 1 and 0 in cand:
                return cand  # a unit divides both, so needs no trial division
            if cand:
                try:
                    _uni_divexact(f, cand)
                    _uni_divexact(g, cand)
                    return cand
                except ArithmeticError:
                    pass
        x = x * 73794 // 27011 + 47
    return None


IntBiv = dict[int, UniPoly]  # t-exponent -> integer polynomial in q


def _biv_to_layers(p: Poly) -> IntBiv:
    layers: IntBiv = {}
    for (eq, et), c in p.items():
        layers.setdefault(et, {})[eq] = c
    return layers


def _layers_to_biv(layers: IntBiv) -> Poly:
    return {(eq, et): c for et, layer in layers.items() for eq, c in layer.items()}


def _uni_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    out: UniPoly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def _uni_sub(a: UniPoly, b: UniPoly) -> UniPoly:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) - c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _layers_t_content(layers: IntBiv) -> UniPoly:
    content: UniPoly = {}
    for layer in layers.values():
        content = _uni_gcd(content, layer)
    return content


def _layers_divide_uni(layers: IntBiv, d: UniPoly) -> IntBiv:
    """Divide every t-layer by the univariate polynomial d; ArithmeticError
    unless d divides each exactly."""
    return {et: _uni_divexact(layer, d) for et, layer in layers.items()}


def _layers_prem(a: IntBiv, b: IntBiv) -> IntBiv:
    """Pseudo-remainder of a by b with respect to t."""
    r = {et: dict(layer) for et, layer in a.items()}
    deg_b = max(b)
    lead_b = b[deg_b]
    while r and max(r) >= deg_b:
        deg_r = max(r)
        lead_r = r[deg_r]
        shift = deg_r - deg_b
        # r := lead_b * r - t^shift * lead_r * b
        new_r: IntBiv = {}
        for et, layer in r.items():
            prod = _uni_mul(layer, lead_b)
            if prod:
                new_r[et] = prod
        for et, layer in b.items():
            prod = _uni_mul(layer, lead_r)
            tgt = et + shift
            cur = _uni_sub(new_r.get(tgt, {}), prod)
            if cur:
                new_r[tgt] = cur
            else:
                new_r.pop(tgt, None)
        r = new_r
    return r


def _int_strip_content(p: Poly) -> Poly:
    g = _int_gcd(*p.values())
    if g > 1:
        return {m: c // g for m, c in p.items()}
    return p


def _biv_eval_t(p: Poly, x: int) -> UniPoly:
    """Substitute the integer x for t, leaving a polynomial in q."""
    powers: dict[int, int] = {0: 1}
    out: UniPoly = {}
    for (eq, et), c in p.items():
        xe = powers.get(et)
        if xe is None:
            xe = x**et
            powers[et] = xe
        s = out.get(eq, 0) + c * xe
        if s:
            out[eq] = s
        else:
            out.pop(eq, None)
    return out


def _biv_lift_t(image: UniPoly, x: int) -> Poly:
    """Rebuild t-coefficients from the balanced base-x digits of each
    q-coefficient."""
    out: Poly = {}
    for eq, value in image.items():
        for et, d in enumerate(_balanced_digits(value, x)):
            if d:
                out[(eq, et)] = d
    return out


def _biv_heugcd(f: Poly, g: Poly) -> Poly | None:
    """Heuristic GCD of primitive integer bivariate polynomials, or None.

    A candidate that lifts to a constant is +1 or -1 once its content is
    stripped, and is returned as it is, without trial division."""
    norm = min(max(abs(c) for c in f.values()), max(abs(c) for c in g.values()))
    x = 2 * norm + 29
    for _ in range(6):
        fi, gi = _biv_eval_t(f, x), _biv_eval_t(g, x)
        if fi and gi:
            # the integer content of the images encodes any t-only factors
            # of the GCD, so it must be folded back in before lifting
            cont = _int_gcd(*fi.values(), *gi.values())
            image = _uni_gcd(fi, gi)
            if cont > 1:
                image = {e: c * cont for e, c in image.items()}
            cand = _int_strip_content(_biv_lift_t(image, x))
            if len(cand) == 1 and (0, 0) in cand:
                return cand  # a unit divides both, so needs no trial division
            if cand:
                try:
                    _poly_divexact(f, cand)
                    _poly_divexact(g, cand)
                    return cand
                except ArithmeticError:
                    pass
        x = x * 73794 // 27011 + 47
    return None


def _int_biv_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of primitive integer bivariate polynomials, up to sign."""
    la, lb = _biv_to_layers(a), _biv_to_layers(b)
    deg_a = max(la) if la else -1
    deg_b = max(lb) if lb else -1
    if deg_a == 0 and deg_b == 0:
        return {(e, 0): c for e, c in _uni_gcd(la[0], lb[0]).items()}
    if deg_a == 0:
        return {(e, 0): c for e, c in _uni_gcd(la[0], _layers_t_content(lb)).items()}
    if deg_b == 0:
        return {(e, 0): c for e, c in _uni_gcd(lb[0], _layers_t_content(la)).items()}
    cont_a = _layers_t_content(la)
    cont_b = _layers_t_content(lb)
    cont_gcd = _uni_gcd(cont_a, cont_b)
    f = _layers_divide_uni(la, cont_a)
    g = _layers_divide_uni(lb, cont_b)
    if max(f) < max(g):
        f, g = g, f
    while g:
        if max(g) == 0:
            # a univariate-in-q remainder: the t-primitive gcd is trivial
            f = {0: {0: 1}}
            break
        r = _layers_prem(f, g)
        if r:
            r = _layers_divide_uni(r, _layers_t_content(r))
        f, g = g, r
    # pseudo-division leaves an integer factor that the t-content, being
    # primitive, does not remove
    result = _int_strip_content(_layers_to_biv(f))
    if cont_gcd != {0: 1}:
        result = _layers_to_biv(
            {et: _uni_mul(layer, cont_gcd) for et, layer in _biv_to_layers(result).items()}
        )
    return result


_GCD_CACHE: dict[tuple, Poly] = {}
_GCD_CACHE_LIMIT = 50000


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD in Z[q,t] of nonzero polynomials, with a positive leading
    coefficient: the gcd of the integer contents times the gcd of the
    primitive parts.  Callers must not mutate the result, which may be
    shared through the cache."""
    if not a or not b:
        return {}
    if _poly_is_one(a) or _poly_is_one(b):
        return _ONE_POLY
    if len(a) == 1 or len(b) == 1:
        # a monomial factor: componentwise minimum exponents
        mq = min(min(eq for eq, _ in a), min(eq for eq, _ in b))
        mt = min(min(et for _, et in a), min(et for _, et in b))
        c = _int_gcd(*a.values(), *b.values())
        return _ONE_POLY if c == 1 and not mq and not mt else {(mq, mt): c}
    fa = tuple(sorted(a.items()))
    fb = tuple(sorted(b.items()))
    key = (fa, fb) if fa <= fb else (fb, fa)
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        return cached
    min_aq = min(eq for eq, _ in a)
    min_at = min(et for _, et in a)
    min_bq = min(eq for eq, _ in b)
    min_bt = min(et for _, et in b)
    mq, mt = min(min_aq, min_bq), min(min_at, min_bt)
    ca, cb = _int_gcd(*a.values()), _int_gcd(*b.values())
    ia = {(eq - min_aq, et - min_at): c // ca for (eq, et), c in a.items()}
    ib = {(eq - min_bq, et - min_bt): c // cb for (eq, et), c in b.items()}
    if ia == ib:
        core = ia
    else:
        core = _biv_heugcd(ia, ib)
        if core is None:
            core = _int_biv_gcd(ia, ib)
    scale = _int_gcd(ca, cb)
    if core[_poly_lead(core)] < 0:
        scale = -scale
    out = {(eq + mq, et + mt): c * scale for (eq, et), c in core.items()}
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = out
    return out


def _poly_is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get((0, 0)) == 1


def _poly_is_const(p: Poly) -> bool:
    return len(p) == 1 and (0, 0) in p


def _make(num: Poly, den: Poly) -> "Coeff":
    """Package a pair that is already in canonical form."""
    c = object.__new__(Coeff)
    c.num = num
    c.den = _ONE_POLY if _poly_is_one(den) else den
    c._hash = None
    return c


def _scaled(x: "Coeff", k: int) -> "Coeff":
    """k * x for a nonzero integer k, canonical without a polynomial gcd:
    x.num and x.den are coprime, so k * x.num shares with x.den only
    g = gcd(k, content(x.den)), and dividing g out of k and x.den keeps
    the denominator's leading coefficient positive."""
    if k == 1:
        return x
    if k == -1:
        return -x
    den = x.den
    g = _int_gcd(k, *den.values())
    if g > 1:
        k //= g
        den = {mono: c // g for mono, c in den.items()}
    return _make({mono: c * k for mono, c in x.num.items()}, den)


def _canonical(num: Poly, den: Poly, g: Poly) -> "Coeff":
    """num/den in canonical form, where g is gcd(num, den): divide g out
    and move the sign so that the denominator's leading coefficient is
    positive.  The one canonicalisation step; only results canonical by
    construction (constants, negations, integer multiples, products of
    polynomials) skip it."""
    if not num:
        return ZERO
    if not _poly_is_one(g):
        num = _poly_divexact(num, g)
        den = _poly_divexact(den, g)
    if den[_poly_lead(den)] < 0:
        num = _poly_neg(num)
        den = _poly_neg(den)
    return _make(num, den)


def _poly_render(
    p: dict[Monomial, Fraction], qname: str = "q", tname: str = "t"
) -> str:
    if not p:
        return "0"
    monos = sorted(p, key=_mono_key, reverse=True)
    parts: list[str] = []
    for i, mono in enumerate(monos):
        c = p[mono]
        text = _mono_render(mono, abs(c), qname, tname)
        if i == 0:
            parts.append(text if c > 0 else "-" + text)
        else:
            parts.append((" + " if c > 0 else " - ") + text)
    return "".join(parts)


def _mono_render(mono: Monomial, c: Fraction, qname: str, tname: str) -> str:
    eq, et = mono
    pieces: list[str] = []
    if eq == 1:
        pieces.append(qname)
    elif eq > 1:
        pieces.append(f"{qname}^{eq}")
    if et == 1:
        pieces.append(tname)
    elif et > 1:
        pieces.append(f"{tname}^{et}")
    if not pieces:
        return str(c)
    if c != 1:
        pieces.insert(0, str(c))
    return "*".join(pieces)


class Coeff:
    """An element of Q(q,t) held in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict = _ONE_POLY):
        """num/den from dicts of int or Fraction coefficients."""
        scale = _int_lcm(*(c.denominator for c in (*num.values(), *den.values())))
        num = {m: c.numerator * (scale // c.denominator) for m, c in num.items() if c}
        den = {m: c.numerator * (scale // c.denominator) for m, c in den.items() if c}
        if not den:
            raise CoefficientError("division by zero in Q(q,t)")
        c = _canonical(num, den, _poly_gcd(num, den))
        self.num, self.den, self._hash = c.num, c.den, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_value(cls, value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            if not value:
                return ZERO
            return _make({(0, 0): value.numerator}, {(0, 0): value.denominator})
        raise TypeError(f"cannot build a Q(q,t) coefficient from {value!r}")

    @classmethod
    def from_t_poly(cls, poly: dict[int, int]) -> "Coeff":
        """The integer polynomial sum of c t^e, given as {e: c}."""
        return _make({(0, e): c for e, c in poly.items() if c}, _ONE_POLY)

    @classmethod
    def var(cls, name: str) -> "Coeff":
        if name == "q":
            return Q
        if name == "t":
            return T
        raise CoefficientError(f"unknown variable {name!r}; the field has q and t")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return _poly_is_one(self.num) and _poly_is_one(self.den)

    def is_polynomial(self) -> bool:
        return _poly_is_const(self.den)

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        da, db = self.den, other.den
        if da == db:
            num = _poly_add(self.num, other.num)
            if not num or _poly_is_one(da):
                return _canonical(num, da, _ONE_POLY)
            return _canonical(num, da, _poly_gcd(num, da))
        # reduce against gcd(da, db) only: with na/da and nb/db already in
        # lowest terms, any common factor of the combined numerator and
        # denominator must divide g
        g = _poly_gcd(da, db)
        if _poly_is_one(g):
            num = _poly_add(_poly_mul(self.num, db), _poly_mul(other.num, da))
            return _canonical(num, _poly_mul(da, db), _ONE_POLY)
        da_red = _poly_divexact(da, g)
        db_red = _poly_divexact(db, g)
        num = _poly_add(_poly_mul(self.num, db_red), _poly_mul(other.num, da_red))
        if not num:
            return ZERO
        return _canonical(num, _poly_mul(da, db_red), _poly_gcd(num, g))

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return _make(_poly_neg(self.num), self.den)

    def __sub__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if _poly_is_one(d2) and _poly_is_const(n2):
            return _scaled(self, n2[(0, 0)])
        if _poly_is_one(d1) and _poly_is_const(n1):
            return _scaled(other, n1[(0, 0)])
        if _poly_is_one(d1) and _poly_is_one(d2):
            return _make(_poly_mul(n1, n2), _ONE_POLY)
        # cross-reduce before multiplying to keep intermediates small
        g1 = _poly_gcd(n1, d2)
        if not _poly_is_one(g1):
            n1, d2 = _poly_divexact(n1, g1), _poly_divexact(d2, g1)
        g2 = _poly_gcd(n2, d1)
        if not _poly_is_one(g2):
            n2, d1 = _poly_divexact(n2, g2), _poly_divexact(d1, g2)
        return _canonical(_poly_mul(n1, n2), _poly_mul(d1, d2), _ONE_POLY)

    __rmul__ = __mul__

    def _inv(self) -> "Coeff":
        if not self.num:
            raise CoefficientError("division by zero in Q(q,t)")
        return _canonical(self.den, self.num, _ONE_POLY)

    def __truediv__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other._inv()

    def __rtruediv__(self, other) -> "Coeff":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "Coeff":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n < 0:
            return self._inv() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # constants compare equal to int and Fraction, so they hash alike
        if self._hash is None:
            if self.num.keys() <= {(0, 0)} and _poly_is_const(self.den):
                self._hash = hash(self.as_fraction())
            else:
                self._hash = hash(
                    (frozenset(self.num.items()), frozenset(self.den.items()))
                )
        return self._hash

    # -- substitution ------------------------------------------------------

    def substitute(self, assignments=None, **kw) -> "Coeff":
        """Evaluate with q and/or t replaced by field elements.

        Unassigned variables stay themselves.  Raises CoefficientError when
        the denominator vanishes at the assignment (a pole).
        """
        values = dict(assignments or {})
        values.update(kw)
        for key in values:
            if key not in ("q", "t"):
                raise CoefficientError(f"unknown variable {key!r} in substitution")
        qv = Coeff.from_value(values["q"]) if "q" in values else Q
        tv = Coeff.from_value(values["t"]) if "t" in values else T
        num_val = _poly_eval(self.num, qv, tv)
        den_val = _poly_eval(self.den, qv, tv)
        if den_val.is_zero():
            raise CoefficientError("substitution hits a pole (denominator vanishes)")
        return num_val / den_val

    # -- inspection and rendering ------------------------------------------

    def _monic(self, p: Poly) -> dict[Monomial, Fraction]:
        # p over the denominator's leading coefficient
        lc = self.den[_poly_lead(self.den)]
        return {mono: Fraction(c, lc) for mono, c in p.items()}

    def numerator_terms(self) -> dict[Monomial, Fraction]:
        """Numerator terms, for the denominator scaled to leading coeff 1."""
        return self._monic(self.num)

    def denominator_terms(self) -> dict[Monomial, Fraction]:
        """Denominator terms, scaled to leading coefficient 1."""
        return self._monic(self.den)

    def poly_terms(self) -> dict[Monomial, Fraction]:
        """The terms of a polynomial coefficient; error if truly fractional."""
        if not _poly_is_const(self.den):
            raise CoefficientError("coefficient is not a polynomial")
        return self._monic(self.num)

    def as_fraction(self) -> Fraction:
        """The rational value of a constant coefficient."""
        if not self.num:
            return Fraction(0)
        if self.num.keys() == {(0, 0)} and _poly_is_const(self.den):
            return Fraction(self.num[(0, 0)], self.den[(0, 0)])
        raise CoefficientError("coefficient is not a rational constant")

    def is_single_term(self) -> bool:
        """True when rendering needs no parentheses inside a product."""
        return _poly_is_const(self.den) and len(self.num) <= 1

    def render(self, qname: str = "q", tname: str = "t") -> str:
        num_text = _poly_render(self.numerator_terms(), qname, tname)
        if _poly_is_const(self.den):
            return num_text
        if len(self.num) > 1:
            num_text = f"({num_text})"
        den_text = _poly_render(self.denominator_terms(), qname, tname)
        if len(self.den) > 1 or "*" in den_text:
            den_text = f"({den_text})"
        return f"{num_text}/{den_text}"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Coeff({self.render()!r})"


def _coerce(value):
    if isinstance(value, Coeff):
        return value
    if isinstance(value, (int, Fraction)):
        return Coeff.from_value(value)
    return NotImplemented


def _poly_eval(p: Poly, qv: Coeff, tv: Coeff) -> Coeff:
    total = ZERO
    q_pows: dict[int, Coeff] = {0: ONE}
    t_pows: dict[int, Coeff] = {0: ONE}

    def power(cache, base, n):
        if n not in cache:
            cache[n] = power(cache, base, n - 1) * base
        return cache[n]

    for (eq, et), c in p.items():
        term = Coeff.from_value(c)
        if eq:
            term = term * power(q_pows, qv, eq)
        if et:
            term = term * power(t_pows, tv, et)
        total = total + term
    return total


def dot(pairs) -> Coeff:
    """The sum of a * b over the pairs (a, b) of Coeff, divided once.

    Each product's raw denominator is a.den * b.den.  D is the one of
    highest total degree, times whatever integer the others need beyond
    its content.  When every denominator divides D, the numerators are
    brought over D by exact cofactors and added in Z[q,t], and the sum is
    reduced by one gcd with D: fraction-free, as in Bareiss elimination.
    When one does not, a common denominator would be an lcm that can grow
    far past D, so the products are added one at a time as Coeff values.
    Two cases skip all of this: a single nonzero product is returned as
    a * b, and when every denominator is 1 the numerators are just added.
    Over D or over 1, each product is added into one running numerator
    in place, and cancelled terms are dropped once at the end.  A
    denominator is taken as 1 by identity with the shared `_ONE_POLY`; an
    equal dict that is another object goes the cofactor way, to the same
    result.
    """
    terms = []
    for a, b in pairs:
        if not a.num or not b.num:
            continue
        if a.den is _ONE_POLY:
            den = b.den
        elif b.den is _ONE_POLY:
            den = a.den
        else:
            den = _poly_mul(a.den, b.den)
        terms.append((a, b, den))
    if not terms:
        return ZERO
    if len(terms) == 1:
        a, b, _ = terms[0]
        return a * b
    if all(den is _ONE_POLY for _, _, den in terms):
        # None marks a cofactor of 1, which is never multiplied in
        top, cofactors = _ONE_POLY, [None] * len(terms)
    else:
        top = max(terms, key=lambda term: max(eq + et for eq, et in term[2]))[2]
        lift = _int_lcm(*(_int_gcd(*den.values()) for _, _, den in terms))
        lift //= _int_gcd(*top.values())
        if lift > 1:
            top = {mono: c * lift for mono, c in top.items()}
        try:
            cofactors = [
                None if den == top else _poly_divexact(top, den)
                for _, _, den in terms
            ]
        except ArithmeticError:
            return sum((a * b for a, b, _ in terms), ZERO)
    num: Poly = {}
    for (a, b, _), cofactor in zip(terms, cofactors):
        if cofactor is None:
            _poly_addmul(num, a.num, b.num)
        else:
            _poly_addmul(num, _poly_mul(a.num, b.num), cofactor)
    num = {mono: c for mono, c in num.items() if c}
    g = _ONE_POLY if _poly_is_one(top) else _poly_gcd(num, top)
    return _canonical(num, top, g)


ZERO = _make({}, _ONE_POLY)
ONE = _make({(0, 0): 1}, _ONE_POLY)
Q = _make({(1, 0): 1}, _ONE_POLY)
T = _make({(0, 1): 1}, _ONE_POLY)
