"""Sparse integer polynomials in q and t, the kernel under `coeffs.Coeff`.

A monomial q^eq t^et is one int, its packed key

    ((eq + et) << 2E) | (et << E) | eq,    E = 20.

The product of two monomials is the sum of their keys, and plain int
order is the graded order that `coeffs` renders in: total degree first,
then the exponent of t, so the leading monomial of p is `max(p)`.  Every
exponent must stay below EXP_LIMIT = 2^19.  Then a key stays below 2^60,
two CPython digits; the sum of two keys carries from no field into the
next; and in the difference of two keys an exponent that went negative
sets bit 19 of its field (a bit of `_BORROW`).  `coeffs` keeps every
Coeff within the limit; the kernel does not check it.

A polynomial in Z[q,t] is a dict mapping a packed key to a nonzero int,
one in Z[q] a dict mapping an exponent to a nonzero int.  Exact division
raises ArithmeticError when it is not exact.  `_poly_gcd` splits off the
integer and monomial contents, tries the heuristic GCD in t over images
in Z[q], and only when that gives up runs the one primitive remainder
sequence, `_prs_gcd`.  A gcd with 1 as either argument is 1.
"""

from __future__ import annotations

from functools import reduce
from math import gcd as _int_gcd

Poly = dict[int, int]
UniPoly = dict[int, int]  # univariate integer polynomial, exponent -> coeff

_E = 20
_MASK = (1 << _E) - 1
EXP_LIMIT = 1 << 19
_Q = (1 << 2 * _E) | 1  # the key of q
_T = (1 << 2 * _E) | (1 << _E)  # the key of t
_BORROW = (EXP_LIMIT << _E) | EXP_LIMIT
_KEY_LIMIT = EXP_LIMIT << 2 * _E  # the least key of total degree EXP_LIMIT

_ONE_POLY: Poly = {0: 1}

# The many-term division goes dense when the dividend has at least
# _DENSE_MIN_TERMS terms and its array, (deg_q a + 1) * (deg_t a + 1)
# entries, holds at most _DENSE_FILL entries per term.
_DENSE_MIN_TERMS = 32
_DENSE_FILL = 8


def _pack(eq: int, et: int) -> int:
    return eq * _Q + et * _T


def _unpack(mono: int) -> tuple[int, int]:
    return mono & _MASK, mono >> _E & _MASK


def _degree(p: Poly, v: int) -> int:
    """The degree of nonzero p in q (v = 0) or in t (v = 1)."""
    shift = _E * v
    return max(mono >> shift & _MASK for mono in p)


def _total_degree(p: Poly) -> int:
    return max(p) >> 2 * _E


def _poly_exceeds(p: Poly) -> bool:
    """Whether p has an exponent of EXP_LIMIT or more.  p must be within
    the limit or a sum of products of two polynomials within it, so that
    no field has carried."""
    return bool(p) and max(p) >= _KEY_LIMIT and any(m & _BORROW for m in p)


def _flat(p: Poly) -> tuple[int, ...]:
    """p as one flat tuple: its sorted keys, then their coefficients."""
    monos = sorted(p)
    return (*monos, *map(p.__getitem__, monos))


def _poly_is_one(p: Poly) -> bool:
    return len(p) == 1 and p.get(0) == 1


def _poly_is_const(p: Poly) -> bool:
    return len(p) == 1 and 0 in p


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
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = ma + mb
            acc[mono] = get(mono, 0) + ca * cb


def _poly_neg(a: Poly) -> Poly:
    return {mono: -c for mono, c in a.items()}


def _poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    get = out.get
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = ma + mb
            s = get(mono, 0) + ca * cb
            if s:
                out[mono] = s
            else:
                out.pop(mono, None)
    return out


def _poly_divexact(a: Poly, b: Poly) -> Poly:
    """The quotient of a by b in Z[q,t]; ArithmeticError unless b divides
    a exactly.  A quotient monomial is a difference of keys, rejected when
    negative or when a borrow bit shows a negative exponent."""
    if len(b) == 1:
        ((mb, cb),) = b.items()
        mono_quot: Poly = {}
        for mono, c in a.items():
            d, r = divmod(c, cb)
            mono -= mb
            if r or mono < 0 or mono & _BORROW:
                raise ArithmeticError("inexact polynomial division")
            mono_quot[mono] = d
        return mono_quot
    if len(a) >= _DENSE_MIN_TERMS:
        width = _degree(a, 1) + 1
        size = (_degree(a, 0) + 1) * width
        if size <= _DENSE_FILL * len(a):
            return _dense_divexact(a, b, width, size)
    quot: Poly = {}
    rem = dict(a)
    lead_b = max(b)
    lc_b = b[lead_b]
    while rem:
        lead_r = max(rem)
        d = lead_r - lead_b
        c, r = divmod(rem[lead_r], lc_b)
        if r or d < 0 or d & _BORROW:
            raise ArithmeticError("inexact polynomial division")
        quot[d] = c
        for mb, cb in b.items():
            mono = mb + d
            s = rem.get(mono, 0) - c * cb
            if s:
                rem[mono] = s
            else:
                rem.pop(mono, None)
    return quot


def _dense_divexact(a: Poly, b: Poly, width: int, size: int) -> Poly:
    """_poly_divexact in one downward pass over a dense array that holds
    q^eq t^et at index eq * width + et, width = deg_t(a) + 1: lex order
    with q first, the order of the divisor's leading term."""
    deg_tb = _degree(b, 1)
    rem = [0] * size
    for mono, c in a.items():
        rem[(mono & _MASK) * width + (mono >> _E & _MASK)] = c
    terms = sorted(
        ((mono & _MASK) * width + (mono >> _E & _MASK), c) for mono, c in b.items()
    )
    lead, lc_b = terms.pop()
    tail = [(i - lead, c) for i, c in terms]
    lead_q, lead_t = divmod(lead, width)
    quot: Poly = {}
    for i in range(size - 1, lead - 1, -1):
        c = rem[i]
        if c:
            c, r = divmod(c, lc_b)
            eq, et = divmod(i, width)
            dt = et - lead_t
            # dt + deg_t(b) < width keeps every shifted term in its row,
            # and fails at once when b has more t than a row holds
            if r or dt < 0 or dt + deg_tb >= width:
                raise ArithmeticError("inexact polynomial division")
            quot[(eq - lead_q) * _Q + dt * _T] = c
            for off, cb in tail:
                rem[i + off] -= c * cb
    # a term left below the divisor's lead would need a negative exponent
    if any(rem[:lead]):
        raise ArithmeticError("inexact polynomial division")
    return quot


# ---------------------------------------------------------------------------
# GCD.  The heuristic GCDs decide what the engine builds in practice;
# `_prs_gcd`, over the Z[q,t] dicts, is the fallback that makes them total.


def _uni_gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    """GCD of nonzero integer univariate polynomials, primitive with
    positive lead: the heuristic evaluation GCD, or on its failure the
    primitive remainder sequence on the same polynomials as dicts in q."""
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
    core = _prs_gcd(
        {e * _Q: c for e, c in f.items()}, {e * _Q: c for e, c in g.items()}
    )
    return _uni_primitive({mono & _MASK: c for mono, c in core.items()})


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
# coefficients; on repeated failure callers fall back to the primitive
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


def _int_strip_content(p: Poly) -> Poly:
    g = _int_gcd(*p.values())
    if g > 1:
        return {m: c // g for m, c in p.items()}
    return p


def _biv_eval_t(p: Poly, x: int) -> UniPoly:
    """Substitute the integer x for t, leaving a polynomial in q."""
    powers: dict[int, int] = {0: 1}
    out: UniPoly = {}
    for mono, c in p.items():
        eq, et = mono & _MASK, mono >> _E & _MASK
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
                out[eq * _Q + et * _T] = d
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
            if len(cand) == 1 and 0 in cand:
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


# -- primitive remainder sequence: a polynomial in its main variable v (0
# for q, 1 for t) has coefficients in the other variable, or integers, whose
# gcd, the content, comes from _poly_gcd one variable down.  Dividing each
# pseudo-remainder by its content keeps the coefficients small.


def _coefficients(p: Poly, v: int) -> dict[int, Poly]:
    """p as a polynomial in v: {degree in v: coefficient free of v}."""
    shift, unit = (_E, _T) if v else (0, _Q)
    out: dict[int, Poly] = {}
    for mono, c in p.items():
        e = mono >> shift & _MASK
        out.setdefault(e, {})[mono - e * unit] = c
    return out


def _content(p: Poly, v: int) -> Poly:
    """The gcd of p's coefficients in v, up to sign."""
    return reduce(_poly_gcd, _coefficients(p, v).values())


def _poly_prem(f: Poly, g: Poly, v: int) -> Poly:
    """Pseudo-remainder of f by g in v: while deg f >= deg g, replace f by
    lc(g) * f - lc(f) * v^(deg f - deg g) * g."""
    unit = _T if v else _Q
    deg_g = _degree(g, v)
    lead_g = _coefficients(g, v)[deg_g]
    while f:
        deg_f = _degree(f, v)
        if deg_f < deg_g:
            break
        lead_f = _poly_mul(_coefficients(f, v)[deg_f], {(deg_f - deg_g) * unit: 1})
        f = _poly_add(_poly_mul(lead_g, f), _poly_neg(_poly_mul(lead_f, g)))
    return f


def _prs_gcd(a: Poly, b: Poly) -> Poly:
    """GCD of nonzero integer polynomials, up to sign, by a primitive
    remainder sequence in t when either input has t, and in q otherwise:
    the gcd of the contents times the gcd of the primitive parts."""
    v = 1 if _degree(a, 1) or _degree(b, 1) else 0
    cont_a, cont_b = _content(a, v), _content(b, v)
    f, g = _poly_divexact(a, cont_a), _poly_divexact(b, cont_b)
    if _degree(f, v) < _degree(g, v):
        f, g = g, f
    while g:
        if not _degree(g, v):
            # free of v and primitive, g is a unit: the primitive gcd is 1
            f = _ONE_POLY
            break
        r = _poly_prem(f, g, v)
        if r:
            r = _poly_divexact(r, _content(r, v))
        f, g = g, r
    return _poly_mul(f, _poly_gcd(cont_a, cont_b))


_GCD_CACHE: dict[tuple, Poly] = {}
_GCD_CACHE_LIMIT = 50000


def _monomial_content(p: Poly) -> int:
    """The largest monomial that divides every term of nonzero p."""
    eq = min(mono & _MASK for mono in p)
    return eq * _Q + min(mono >> _E & _MASK for mono in p) * _T


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """GCD in Z[q,t] of nonzero polynomials, with a positive leading
    coefficient: the gcd of the integer contents times the gcd of the
    primitive parts.  Callers must not mutate the result, which may be
    shared through the cache, keyed on the inputs as flat tuples."""
    if not a or not b:
        return {}
    if _poly_is_one(a) or _poly_is_one(b):
        return _ONE_POLY
    if len(a) == 1 or len(b) == 1:
        # a monomial factor: componentwise minimum exponents
        mono = _monomial_content(a.keys() | b.keys())
        c = _int_gcd(*a.values(), *b.values())
        return _ONE_POLY if c == 1 and not mono else {mono: c}
    fa, fb = _flat(a), _flat(b)
    key = (fa, fb) if fa <= fb else (fb, fa)
    cached = _GCD_CACHE.get(key)
    if cached is not None:
        return cached
    ma, mb = _monomial_content(a), _monomial_content(b)
    ca, cb = _int_gcd(*a.values()), _int_gcd(*b.values())
    ia = {mono - ma: c // ca for mono, c in a.items()}
    ib = {mono - mb: c // cb for mono, c in b.items()}
    if ia == ib:
        core = ia
    else:
        core = _biv_heugcd(ia, ib)
        if core is None:
            core = _prs_gcd(ia, ib)
    scale = _int_gcd(ca, cb)
    if core[max(core)] < 0:
        scale = -scale
    shift = _monomial_content((ma, mb))
    out = {mono + shift: c * scale for mono, c in core.items()}
    if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
        _GCD_CACHE.clear()
    _GCD_CACHE[key] = out
    return out
