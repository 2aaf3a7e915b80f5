"""Exact arithmetic in the field Q(q,t).

A coefficient is a quotient of two polynomials in the deformation
parameters q and t with rational coefficients.  Polynomials are sparse
dicts mapping an exponent pair (eq, et) to a nonzero Fraction.  Every
Coeff is kept in a canonical form:

* numerator and denominator share no polynomial factor (their GCD is 1),
* the denominator's leading coefficient is 1, where "leading" means the
  largest monomial in graded lexicographic order with t weighted above q,
* a zero numerator forces denominator 1.

Canonical form makes equality a plain structural comparison, so Coeff
values can key dicts and land in sets.  All operations are exact; nothing
here ever rounds.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd

from .errors import CoefficientError

Monomial = tuple[int, int]
Poly = dict[Monomial, Fraction]

_ZERO_POLY: Poly = {}
_ONE_POLY: Poly = {(0, 0): Fraction(1)}


def _mono_key(mono: Monomial) -> tuple[int, int]:
    # Graded lex with t more significant than q.
    eq, et = mono
    return (eq + et, et)


def _poly_const(value: Fraction) -> Poly:
    return {} if value == 0 else {(0, 0): Fraction(value)}


def _poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        s = out.get(mono, 0) + c
        if s:
            out[mono] = s
        else:
            out.pop(mono, None)
    return out


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


def _poly_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {mono: coef * c for mono, coef in a.items()}


def _poly_lead(a: Poly) -> Monomial:
    return max(a, key=_mono_key)


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """Divide a by b assuming the division is exact."""
    if not a:
        return {}
    quot: Poly = {}
    rem = dict(a)
    lead_b = _poly_lead(b)
    lc_b = b[lead_b]
    while rem:
        lead_r = _poly_lead(rem)
        dq = lead_r[0] - lead_b[0]
        dt = lead_r[1] - lead_b[1]
        if dq < 0 or dt < 0:
            raise ArithmeticError("inexact polynomial division")
        c = rem[lead_r] / lc_b
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
# GCD machinery.  Strategy: clear rational content to get primitive integer
# polynomials, peel off the monomial content, then run a primitive
# polynomial remainder sequence viewing each polynomial as a polynomial in
# t whose coefficients are integer polynomials in q.

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
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
    if p[max(p)] < 0:
        g = -g
    return {e: c // g for e, c in p.items()}


# -- heuristic GCD: evaluate at a large integer, take the integer GCD,
# lift the digits back to a polynomial, and verify by exact division.
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


def _uni_divides(d: UniPoly, f: UniPoly) -> bool:
    """Exact-division test for primitive integer polynomials."""
    rem = dict(f)
    dt = max(d)
    dl = d[dt]
    while rem:
        e = max(rem)
        if e < dt:
            return False
        c = rem.pop(e)
        if c % dl:
            return False
        k = c // dl
        sh = e - dt
        for ee, dc in d.items():
            if ee == dt:
                continue
            tgt = ee + sh
            s = rem.get(tgt, 0) - k * dc
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return True


def _uni_heugcd(f: UniPoly, g: UniPoly) -> UniPoly | None:
    """Heuristic GCD of primitive integer polynomials, or None."""
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
            if cand and _uni_divides(cand, f) and _uni_divides(cand, g):
                return cand
        x = x * 73794 // 27011 + 47
    return None


IntBiv = dict[int, UniPoly]  # t-exponent -> integer polynomial in q


def _biv_to_layers(p: dict[Monomial, int]) -> IntBiv:
    layers: IntBiv = {}
    for (eq, et), c in p.items():
        layers.setdefault(et, {})[eq] = c
    return layers


def _layers_to_biv(layers: IntBiv) -> dict[Monomial, int]:
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
    """Divide every t-layer by the univariate polynomial d (exact)."""
    if d == {0: 1}:
        return {et: dict(layer) for et, layer in layers.items()}
    d_top = max(d)
    d_lead = d[d_top]
    out: IntBiv = {}
    for et, layer in layers.items():
        rem = dict(layer)
        quot: UniPoly = {}
        while rem:
            e_top = max(rem)
            c = rem[e_top] // d_lead
            shift = e_top - d_top
            quot[shift] = c
            for e, dc in d.items():
                tgt = e + shift
                s = rem.get(tgt, 0) - c * dc
                if s:
                    rem[tgt] = s
                else:
                    rem.pop(tgt, None)
        if quot:
            out[et] = quot
    return out


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


IntPoly = dict[Monomial, int]


def _int_strip_content(p: IntPoly) -> IntPoly:
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
    if g > 1:
        return {m: c // g for m, c in p.items()}
    return p


def _biv_eval_t(p: IntPoly, x: int) -> UniPoly:
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


def _biv_lift_t(image: UniPoly, x: int) -> IntPoly:
    """Rebuild t-coefficients from the balanced base-x digits of each
    q-coefficient."""
    out: IntPoly = {}
    for eq, value in image.items():
        for et, d in enumerate(_balanced_digits(value, x)):
            if d:
                out[(eq, et)] = d
    return out


def _biv_divides(d: IntPoly, f: IntPoly) -> bool:
    """Exact-division test for primitive integer bivariate polynomials."""
    rem = dict(f)
    ld = max(d, key=_mono_key)
    dl = d[ld]
    while rem:
        lr = max(rem, key=_mono_key)
        dq, dt = lr[0] - ld[0], lr[1] - ld[1]
        if dq < 0 or dt < 0:
            return False
        c = rem.pop(lr)
        if c % dl:
            return False
        k = c // dl
        for (eq, et), dc in d.items():
            if (eq, et) == ld:
                continue
            tgt = (eq + dq, et + dt)
            s = rem.get(tgt, 0) - k * dc
            if s:
                rem[tgt] = s
            else:
                rem.pop(tgt, None)
    return True


def _uni_int_content(p: UniPoly) -> int:
    g = 0
    for c in p.values():
        g = _int_gcd(g, abs(c))
    return g


def _biv_heugcd(f: IntPoly, g: IntPoly) -> IntPoly | None:
    """Heuristic GCD of primitive integer bivariate polynomials, or None."""
    norm = min(max(abs(c) for c in f.values()), max(abs(c) for c in g.values()))
    x = 2 * norm + 29
    for _ in range(6):
        fi, gi = _biv_eval_t(f, x), _biv_eval_t(g, x)
        if fi and gi:
            # the integer content of the images encodes any t-only factors
            # of the GCD, so it must be folded back in before lifting
            cont = _int_gcd(_uni_int_content(fi), _uni_int_content(gi))
            image = _uni_gcd(fi, gi)
            if cont > 1:
                image = {e: c * cont for e, c in image.items()}
            cand = _int_strip_content(_biv_lift_t(image, x))
            if cand and _biv_divides(cand, f) and _biv_divides(cand, g):
                return cand
        x = x * 73794 // 27011 + 47
    return None


def _int_biv_gcd(a: dict[Monomial, int], b: dict[Monomial, int]) -> dict[Monomial, int]:
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
    result = _layers_to_biv(f)
    if cont_gcd != {0: 1}:
        result = _layers_to_biv(
            {et: _uni_mul(layer, cont_gcd) for et, layer in _biv_to_layers(result).items()}
        )
    return result


def _poly_to_int(p: Poly) -> dict[Monomial, int]:
    """Scale a rational polynomial to a primitive integer polynomial."""
    denom_lcm = 1
    for c in p.values():
        denom_lcm = denom_lcm * c.denominator // _int_gcd(denom_lcm, c.denominator)
    ints = {mono: int(c * denom_lcm) for mono, c in p.items()}
    g = 0
    for c in ints.values():
        g = _int_gcd(g, abs(c))
    return {mono: c // g for mono, c in ints.items()}


_GCD_CACHE: dict[tuple, Poly] = {}
_GCD_CACHE_LIMIT = 50000


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of rational bivariate polynomials, normalized to lead coeff 1."""
    if not a or not b:
        return {}
    if len(a) == 1 or len(b) == 1:
        # a monomial factor: take componentwise minimum exponents
        mq = min(min(eq for eq, _ in a), min(eq for eq, _ in b))
        mt = min(min(et for _, et in a), min(et for _, et in b))
        return {(mq, mt): Fraction(1)}
    fa = tuple(sorted(a.items()))
    fb = tuple(sorted(b.items()))
    key = (fa, fb) if fa <= fb else (fb, fa)
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        return dict(cached)
    min_aq = min(eq for eq, _ in a)
    min_at = min(et for _, et in a)
    min_bq = min(eq for eq, _ in b)
    min_bt = min(et for _, et in b)
    mq, mt = min(min_aq, min_bq), min(min_at, min_bt)
    ia = _poly_to_int({(eq - min_aq, et - min_at): c for (eq, et), c in a.items()})
    ib = _poly_to_int({(eq - min_bq, et - min_bt): c for (eq, et), c in b.items()})
    if ia == ib:
        core = ia
    else:
        core = _biv_heugcd(ia, ib)
        if core is None:
            core = _int_biv_gcd(ia, ib)
    out = {(eq + mq, et + mt): Fraction(c) for (eq, et), c in core.items()}
    lead = out[_poly_lead(out)]
    if lead != 1:
        out = _poly_scale(out, 1 / lead)
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = dict(out)
    return out


def _poly_is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get((0, 0)) == 1


def _make_monic(num: Poly, den: Poly) -> "Coeff":
    """Package an already-coprime pair with the denominator scaled monic."""
    if not num:
        return ZERO
    lead = den[_poly_lead(den)]
    if lead != 1:
        inv = 1 / lead
        num = _poly_scale(num, inv)
        den = _poly_scale(den, inv)
    if _poly_is_one(den):
        den = _ONE_POLY
    return Coeff(num, den, reduced=True)


def _reduced_over(num: Poly, den: Poly, g: Poly) -> "Coeff":
    """num/den with the common factor g cancelled."""
    if not num:
        return ZERO
    if not _poly_is_one(g):
        num = _poly_divexact(num, g)
        den = _poly_divexact(den, g)
    return _make_monic(num, den)


def _poly_render(p: Poly, qname: str = "q", tname: str = "t") -> str:
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

    def __init__(self, num: Poly, den: Poly = _ONE_POLY, *, reduced: bool = False):
        if not den:
            raise CoefficientError("division by zero in Q(q,t)")
        if reduced or _poly_is_one(den):
            if not num or _poly_is_one(den):
                den = _ONE_POLY
            self.num = num
            self.den = den
        else:
            if not num:
                self.num = {}
                self.den = _ONE_POLY
            else:
                g = _poly_gcd(num, den)
                if not _poly_is_one(g):
                    num = _poly_divexact(num, g)
                    den = _poly_divexact(den, g)
                lead = den[_poly_lead(den)]
                if lead != 1:
                    inv = 1 / lead
                    num = _poly_scale(num, inv)
                    den = _poly_scale(den, inv)
                self.num = num
                self.den = _ONE_POLY if _poly_is_one(den) else den
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_value(cls, value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(_poly_const(Fraction(value)), _ONE_POLY, reduced=True)
        raise TypeError(f"cannot build a Q(q,t) coefficient from {value!r}")

    @classmethod
    def var(cls, name: str) -> "Coeff":
        if name == "q":
            return cls({(1, 0): Fraction(1)}, _ONE_POLY, reduced=True)
        if name == "t":
            return cls({(0, 1): Fraction(1)}, _ONE_POLY, reduced=True)
        raise CoefficientError(f"unknown variable {name!r}; the field has q and t")

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return _poly_is_one(self.num) and _poly_is_one(self.den)

    def is_polynomial(self) -> bool:
        return _poly_is_one(self.den)

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
        if _poly_is_one(da) and _poly_is_one(db):
            return Coeff(_poly_add(self.num, other.num), _ONE_POLY, reduced=True)
        if da == db:
            num = _poly_add(self.num, other.num)
            return _reduced_over(num, da, _poly_gcd(num, da))
        # reduce against gcd(da, db) only: with na/da and nb/db already in
        # lowest terms, any common factor of the combined numerator and
        # denominator must divide g
        g = _poly_gcd(da, db)
        if _poly_is_one(g):
            num = _poly_add(
                _poly_mul(self.num, db), _poly_mul(other.num, da)
            )
            return Coeff(num, _poly_mul(da, db), reduced=True)
        da_red = _poly_divexact(da, g)
        db_red = _poly_divexact(db, g)
        num = _poly_add(
            _poly_mul(self.num, db_red), _poly_mul(other.num, da_red)
        )
        if not num:
            return ZERO
        h = _poly_gcd(num, g)
        if _poly_is_one(h):
            return _make_monic(num, _poly_mul(da, db_red))
        return _make_monic(
            _poly_divexact(num, h),
            _poly_mul(_poly_divexact(da, h), db_red),
        )

    __radd__ = __add__

    def __neg__(self) -> "Coeff":
        return Coeff(_poly_neg(self.num), self.den, reduced=True)

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
        if _poly_is_one(self.den) and _poly_is_one(other.den):
            return Coeff(_poly_mul(self.num, other.num), _ONE_POLY, reduced=True)
        # cross-reduce before multiplying to keep intermediates small
        g1 = _poly_gcd(self.num, other.den)
        g2 = _poly_gcd(other.num, self.den)
        n1 = self.num if _poly_is_one(g1) else _poly_divexact(self.num, g1)
        d2 = other.den if _poly_is_one(g1) else _poly_divexact(other.den, g1)
        n2 = other.num if _poly_is_one(g2) else _poly_divexact(other.num, g2)
        d1 = self.den if _poly_is_one(g2) else _poly_divexact(self.den, g2)
        num = _poly_mul(n1, n2)
        den = _poly_mul(d1, d2)
        lead = den[_poly_lead(den)]
        if lead != 1:
            inv = 1 / lead
            num = _poly_scale(num, inv)
            den = _poly_scale(den, inv)
        return Coeff(num, den, reduced=True)

    __rmul__ = __mul__

    def _inv(self) -> "Coeff":
        if not self.num:
            raise CoefficientError("division by zero in Q(q,t)")
        num, den = self.den, self.num
        lead = den[_poly_lead(den)]
        if lead != 1:
            inv = 1 / lead
            num = _poly_scale(num, inv)
            den = _poly_scale(den, inv)
        return Coeff(num, den, reduced=True)

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
            if _poly_is_one(self.den) and self.num.keys() <= {(0, 0)}:
                self._hash = hash(self.num.get((0, 0), 0))
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

    def numerator_terms(self) -> Poly:
        return dict(self.num)

    def denominator_terms(self) -> Poly:
        return dict(self.den)

    def poly_terms(self) -> Poly:
        """The terms of a polynomial coefficient; error if truly fractional."""
        if not _poly_is_one(self.den):
            raise CoefficientError("coefficient is not a polynomial")
        return dict(self.num)

    def as_fraction(self) -> Fraction:
        """The rational value of a constant coefficient."""
        if not self.num:
            return Fraction(0)
        if self.num.keys() == {(0, 0)} and _poly_is_one(self.den):
            return self.num[(0, 0)]
        raise CoefficientError("coefficient is not a rational constant")

    def is_single_term(self) -> bool:
        """True when rendering needs no parentheses inside a product."""
        return _poly_is_one(self.den) and len(self.num) <= 1

    def render(self, qname: str = "q", tname: str = "t") -> str:
        num_text = _poly_render(self.num, qname, tname)
        if _poly_is_one(self.den):
            return num_text
        if len(self.num) > 1:
            num_text = f"({num_text})"
        den_text = _poly_render(self.den, qname, tname)
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


ZERO = Coeff(_ZERO_POLY, _ONE_POLY, reduced=True)
ONE = Coeff(dict(_ONE_POLY), _ONE_POLY, reduced=True)
Q = Coeff({(1, 0): Fraction(1)}, _ONE_POLY, reduced=True)
T = Coeff({(0, 1): Fraction(1)}, _ONE_POLY, reduced=True)
