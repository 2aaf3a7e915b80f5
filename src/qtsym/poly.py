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

A polynomial in Z[q,t] is a dict mapping a packed key to a nonzero int.
Exact division raises ArithmeticError when it is not exact.  `_gcd`
splits off the integer and monomial contents and runs one heuristic GCD
recursively: evaluating t gives images in Z[q], whose gcd evaluates q to
integers.  When it gives up, at either level, the primitive remainder
sequence `_prs_gcd` runs.  A gcd with 1 as either argument is 1.  The
gcd g comes with its cofactors a/g and b/g: the heuristic keeps the
quotients of the trial divisions that verify it, as in Liao and Fateman's
refinement of GCDHEU, so a caller that reduces a fraction by g divides
nothing again.  `_poly_gcd` and `_poly_gcd_cofactors` are `_gcd` behind
one cache.
"""

from __future__ import annotations

from math import gcd as _int_gcd

Poly = dict[int, int]

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
    # the dense pass needs a nonzero dividend, whatever the threshold
    if a and len(a) >= _DENSE_MIN_TERMS:
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
# GCD.  `_gcd` splits off the integer and monomial contents; the primitive
# parts go to the heuristic GCD and, when it gives up, to `_prs_gcd`.
# `_gcd` and `_heugcd` return the gcd with its two cofactors.  `_poly_gcd`
# and `_poly_gcd_cofactors` are `_gcd` behind one cache.


# -- heuristic GCD (GCDHEU, Char-Geddes-Gonnet 1989), recursive over the
# variables: substitute a large integer x for the main variable v (t, then
# q one level down), take the gcd of the images (in Z[q] by `_gcd`, in Z by
# math.gcd), lift its balanced base-x digits back to powers of v, and
# accept the primitive part of that candidate only if _poly_divexact
# divides both inputs by it; the two quotients are the cofactors.  Sound
# because a verified candidate cannot be a proper divisor of the true GCD
# once x outgrows the coefficients.  An image has about deg * bits(x) bits,
# whatever the number of terms, so the heuristic gives up past _HEU_BITS
# (q^a t^b with a, b near 2^18 would make images of a million bits), as
# well as after six points.

_HEU_BITS = 1 << 14


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


def _image(p: Poly, x: int, v: int) -> Poly | int:
    """p with the integer x substituted for v: a polynomial in q when v is
    t (v = 1), an integer when v is q (v = 0) and p is free of t."""
    if not v:
        return sum(c * x ** (mono & _MASK) for mono, c in p.items())
    powers: dict[int, int] = {0: 1}
    out: Poly = {}
    for mono, c in p.items():
        et = mono >> _E & _MASK
        xe = powers.get(et)
        if xe is None:
            xe = powers[et] = x**et
        mono -= et * _T
        s = out.get(mono, 0) + c * xe
        if s:
            out[mono] = s
        else:
            del out[mono]
    return out


def _int_strip_content(p: Poly) -> Poly:
    g = _int_gcd(*p.values())
    if g > 1:
        return {m: c // g for m, c in p.items()}
    return p


def _heugcd(f: Poly, g: Poly, v: int) -> tuple[Poly, Poly, Poly] | None:
    """(h, f/h, g/h) for the gcd h of nonzero primitive f and g, up to
    sign, by the heuristic in v (1 for t; 0 for q, when f and g are free
    of t), or None when it gives up.

    A candidate that lifts to a constant is +1 or -1 once its content is
    stripped, and is returned as it is, without trial division: its
    cofactors are f and g times it."""
    # the total degree bounds deg_v, and is deg_q for polynomials free of t
    deg = max(_total_degree(f), _total_degree(g))
    unit = _T if v else _Q
    x = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 29
    for _ in range(6):
        if deg * x.bit_length() > _HEU_BITS:
            return None
        fi, gi = _image(f, x, v), _image(g, x, v)
        if fi and gi:
            image = _gcd(fi, gi, 0)[0] if v else {0: _int_gcd(fi, gi)}
            cand: Poly = {}
            for mono, n in image.items():
                for e, d in enumerate(_balanced_digits(n, x)):
                    if d:
                        cand[mono + e * unit] = d
            cand = _int_strip_content(cand)
            if _poly_is_const(cand):
                # a unit divides both, so needs no trial division
                if cand[0] == 1:
                    return cand, f, g
                return cand, _poly_neg(f), _poly_neg(g)
            try:
                return cand, _poly_divexact(f, cand), _poly_divexact(g, cand)
            except ArithmeticError:
                pass
        x = x * 73794 // 27011 + 47
    return None


# -- primitive remainder sequence: a polynomial in its main variable v (0
# for q, 1 for t) has coefficients in the other variable, or integers, whose
# gcd, the content, comes from `_gcd` one variable down.  Dividing each
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
    """The gcd of p's coefficients in v, up to sign.  When one of them is
    a term, so is the gcd: the monomial and integer content of them all.
    Otherwise `_gcd` folds over them, in the variable they are not free
    of, until the gcd is 1."""
    content, *rest = sorted(_coefficients(p, v).values(), key=len)
    if len(content) == 1:
        mono = _monomial_content({m for c in rest for m in c} | content.keys())
        values = (x for c in rest for x in c.values())
        return {mono: _int_gcd(*content.values(), *values)}
    for c in rest:
        if _poly_is_one(content):
            break
        content = _gcd(content, c, 1 - v)[0]
    return content


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


_GCD_CACHE: dict[tuple, tuple[Poly, Poly, Poly]] = {}
_GCD_CACHE_LIMIT = 50000


def _monomial_content(p: Poly) -> int:
    """The largest monomial that divides every term of nonzero p, a
    collection of keys; 0 at once when p holds the key 0."""
    if 0 in p:
        return 0
    eq = min(mono & _MASK for mono in p)
    return eq * _Q + min(mono >> _E & _MASK for mono in p) * _T


def _term_quotient(p: Poly, mono: int, c: int) -> Poly:
    """p / (c * mono) for a term c * mono, c > 0, that divides p."""
    if not mono and c == 1:
        return p
    return {m - mono: x // c for m, x in p.items()}


def _term_product(p: Poly, mono: int, c: int) -> Poly:
    """p * (c * mono) for a nonzero term."""
    if not mono and c == 1:
        return p
    return {m + mono: x * c for m, x in p.items()}


def _gcd(a: Poly, b: Poly, v: int) -> tuple[Poly, Poly, Poly]:
    """(g, a/g, b/g) for the GCD g in Z[q,t] of nonzero a and b, with a
    positive leading coefficient: the gcd of the integer and monomial
    contents times the gcd of the primitive parts, by `_heugcd` in v (as
    there) or else by the remainder sequence, which takes the cofactors
    of the primitive parts by one division each.  A gcd with 1 as either
    argument is 1.  Any of the three may be a or b itself, or the shared
    `_ONE_POLY`."""
    if len(a) == 1 or len(b) == 1:
        if _poly_is_one(a) or _poly_is_one(b):
            return _ONE_POLY, a, b
        # a monomial factor: componentwise minimum exponents
        mono = _monomial_content(a.keys() | b.keys())
        c = _int_gcd(*a.values(), *b.values())
        if c == 1 and not mono:
            return _ONE_POLY, a, b
        return {mono: c}, _term_quotient(a, mono, c), _term_quotient(b, mono, c)
    ma, mb = _monomial_content(a), _monomial_content(b)
    ca, cb = _int_gcd(*a.values()), _int_gcd(*b.values())
    ia, ib = _term_quotient(a, ma, ca), _term_quotient(b, mb, cb)
    if ia == ib:
        core, fa, fb = ia, _ONE_POLY, _ONE_POLY
    else:
        found = _heugcd(ia, ib, v)
        if found is None:
            core = _prs_gcd(ia, ib)
            found = core, _poly_divexact(ia, core), _poly_divexact(ib, core)
        core, fa, fb = found
    # g = scale * shift * core, with a = ca * ma * core * fa
    scale = _int_gcd(ca, cb)
    if core[max(core)] < 0:
        scale = -scale
    shift = _monomial_content((ma, mb))
    return (
        _term_product(core, shift, scale),
        _term_product(fa, ma - shift, ca // scale),
        _term_product(fb, mb - shift, cb // scale),
    )


def _poly_gcd(a: Poly, b: Poly) -> Poly:
    """The gcd g of `_gcd` for any a and b in Z[q,t], {} when either is
    zero; as `_poly_gcd_cofactors`, from the same cache."""
    if not a or not b:
        return {}
    return _poly_gcd_cofactors(a, b)[0]


def _poly_gcd_cofactors(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """`_gcd(a, b)`, (g, a/g, b/g), of nonzero a and b.  Callers must not
    mutate the results, which may be inputs or shared through the cache.
    The cache is keyed on inputs of two terms or more as a pair of flat
    tuples in sorted order, and holds the cofactors in the key's order:
    a call with its inputs the other way round gets them swapped.  Only
    these calls and the remainder sequence's final gcd of contents use
    the cache: the heuristic's images, which never repeat, and the folds
    over a polynomial's coefficients go to `_gcd` directly."""
    if len(a) == 1 or len(b) == 1:
        return _gcd(a, b, 1)
    fa, fb = _flat(a), _flat(b)
    swap = fb < fa
    key = (fb, fa) if swap else (fa, fb)
    found = _GCD_CACHE.get(key)
    if found is None:
        found = _gcd(b, a, 1) if swap else _gcd(a, b, 1)
        if len(_GCD_CACHE) >= _GCD_CACHE_LIMIT:
            _GCD_CACHE.clear()
        _GCD_CACHE[key] = found
    g, first, second = found
    return (g, second, first) if swap else found
