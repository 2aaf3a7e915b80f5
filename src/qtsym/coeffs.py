"""Exact arithmetic in the field Q(q,t).

A coefficient is a quotient of two polynomials in the deformation
parameters q and t with integer coefficients, held as the sparse dicts
whose arithmetic and gcd live in `poly`: `num` and `den` map one packed
int per monomial to its coefficient.  The public interface speaks
(eq, et) pairs and converts at its edges: the constructor, `from_value`,
`from_t_poly`, `numerator_terms()`, `denominator_terms()`,
`poly_terms()`, `substitute` and rendering.  Rational input is cleared
of its denominators once, when a Coeff is built from it.  Every Coeff is
kept in a canonical form:

* numerator and denominator are coprime in Z[q,t]: they share no
  polynomial factor and no integer factor,
* the denominator's leading coefficient is positive, where "leading" means
  the largest monomial in graded lexicographic order with t weighted above q,
  which is the largest packed key,
* a zero numerator forces denominator 1.

Every exponent stays below `poly.EXP_LIMIT` = 2^19, which keeps packed
keys exact.  The constructor and `from_t_poly` reject larger input, and
products, powers and sums raise CoefficientError when their result, or a
numerator or denominator they form on the way, would reach it.

The form is unique, so equality is a plain structural comparison and
Coeff values can key dicts and land in sets.  `numerator_terms()` and
`denominator_terms()` present the same value with the denominator scaled
monic and Fraction coefficients, the form rendering uses.  All operations
are exact; nothing here ever rounds.

A product with an integer constant k skips arithmetic whose result is
known in advance: it scales the other operand.  With num and den coprime,
k * num / den only needs g = gcd(k, content(den)) divided out of k and
den, so it takes no polynomial gcd, no polynomial product and no
`_canonical` (times 1 it is the other operand itself).

Powers square num and den in Z[q,t] with no gcd: the powers of a
coprime pair stay coprime.

Every gcd comes with its cofactors (`poly._poly_gcd_cofactors`), which
the gcd has already computed to verify itself.  Reducing num/den
(`_divided`), cross-reducing a product and bringing two denominators of
a sum together take those quotients, so no gcd divides anything twice.

Every sum of products -- `dot`, the entries of matrix and matrix-vector
products, and scalar products -- follows one rule, as in Bareiss's
fraction-free elimination.  Each side, the left factors and the right
factors, is lifted over one denominator (`_lifted`): the denominator of
highest total degree, times whatever integer the others need, with one
exact cofactor per distinct denominator; a side of polynomials has
denominator 1 and keeps its own numerators.  The sum is then the lifted
numerators' products, added in place in Z[q,t] (`_poly_addmul`), over
D * E, reduced by one gcd, or none over 1 (`_lifted_sum`).  When a side
does not nest, or the two sides' degrees could reach EXP_LIMIT, the
products are added one at a time as Coeff values instead
(`_running_sum`), which raises exactly where that sum would; a single
nonzero product is a * b.  A caller that uses one side many times, such
as a matrix's rows, keeps its lifted form and sums from it
(`_composed`); a matrix keeps each column's lifted form too, on that
column's first use, and a converted basis element, which is one such
column, hands it to the next conversion or pairing that reads it.  Where
a kept form does not nest, the sum is one `dot` over its nonzero pairs,
whose own sides may.  A unit denominator is
recognised by identity with the shared `_ONE_POLY`, which `_make` stores
for every unit denominator; a unit held as another dict only takes the
general path, with the same result.
"""

from __future__ import annotations

import operator
import sys
from fractions import Fraction
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .errors import CoefficientError
from .poly import (
    _ONE_POLY,
    EXP_LIMIT,
    Poly,
    _flat,
    _pack,
    _poly_add,
    _poly_addmul,
    _poly_divexact,
    _poly_exceeds,
    _poly_gcd_cofactors,
    _poly_is_const,
    _poly_is_one,
    _poly_mul,
    _poly_neg,
    _total_degree,
    _unpack,
)

Monomial = tuple[int, int]


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


_LIMIT_MESSAGE = f"exponents of q and t must stay below {EXP_LIMIT}"


def _bounded(num: Poly, den: Poly = _ONE_POLY) -> None:
    """CoefficientError if a numerator or denominator that an operation
    formed has an exponent of EXP_LIMIT or more."""
    if _poly_exceeds(num) or _poly_exceeds(den):
        raise CoefficientError(_LIMIT_MESSAGE)


def _canonical(num: Poly, den: Poly) -> "Coeff":
    """num/den in canonical form for coprime num and den: move the sign
    so that the denominator's leading coefficient is positive.  The one
    canonicalisation step; only results canonical by construction
    (constants, negations, integer multiples, powers, products of
    polynomials) skip it."""
    if not num:
        return ZERO
    if den[max(den)] < 0:
        num = _poly_neg(num)
        den = _poly_neg(den)
    return _make(num, den)


def _divided(num: Poly, den: Poly) -> "Coeff":
    """num/den in canonical form for any num, with its cancelled terms
    dropped, and nonzero den: both are replaced by their cofactors of
    gcd(num, den), which the gcd returns from its own verifying divisions,
    so nothing is divided twice.  Over the shared `_ONE_POLY` no gcd and
    no `_canonical` run."""
    if not num:
        return ZERO
    if den is _ONE_POLY:
        return _make(num, _ONE_POLY)
    _, num, den = _poly_gcd_cofactors(num, den)
    return _canonical(num, den)


def _poly_render(p: dict[int, Fraction], qname: str = "q", tname: str = "t") -> str:
    if not p:
        return "0"
    parts: list[str] = []
    for i, mono in enumerate(sorted(p, reverse=True)):
        c = p[mono]
        text = _mono_render(_unpack(mono), abs(c), qname, tname)
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
        return _number_text(c)
    if c != 1:
        pieces.insert(0, _number_text(c))
    return "*".join(pieces)


def _number_text(c: Fraction) -> str:
    """str(c) for c >= 0; CoefficientError when its numerator or
    denominator has more digits than Python converts to text."""
    # 0 for no limit, as before Python 3.10.7 had one
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    big = max(c.numerator, c.denominator)
    # fewer than 3 * limit bits is fewer than limit digits
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        raise CoefficientError(
            f"a coefficient has more than {limit} digits, too many to print"
        )
    return str(c)


def _checked_terms(terms: dict) -> dict:
    """terms keyed by packed monomials.  CoefficientError unless each key
    is a pair of nonnegative integers below EXP_LIMIT, TypeError unless
    each value is an int or a Fraction."""
    out = {}
    for mono, c in terms.items():
        if not isinstance(c, (int, Fraction)):
            raise TypeError(f"cannot build a Q(q,t) coefficient from {c!r}")
        try:
            eq, et = map(operator.index, mono)
        except (TypeError, ValueError):
            eq = et = -1
        if eq < 0 or et < 0:
            raise CoefficientError(f"exponent {mono!r} is not a pair of naturals")
        if eq >= EXP_LIMIT or et >= EXP_LIMIT:
            raise CoefficientError(_LIMIT_MESSAGE)
        out[_pack(eq, et)] = c
    return out


_UNIT_TERMS = {(0, 0): 1}


class Coeff:
    """An element of Q(q,t) held in canonical reduced form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: dict, den: dict = _UNIT_TERMS):
        """num/den from dicts of int or Fraction coefficients, keyed by
        pairs (eq, et) of nonnegative integer exponents."""
        num, den = _checked_terms(num), _checked_terms(den)
        scale = _int_lcm(*(c.denominator for c in (*num.values(), *den.values())))
        num = {m: c.numerator * (scale // c.denominator) for m, c in num.items() if c}
        den = {m: c.numerator * (scale // c.denominator) for m, c in den.items() if c}
        if not den:
            raise CoefficientError("division by zero in Q(q,t)")
        c = _divided(num, den)
        self.num, self.den, self._hash = c.num, c.den, None

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_value(cls, value) -> "Coeff":
        if isinstance(value, Coeff):
            return value
        if isinstance(value, (int, Fraction)):
            if not value:
                return ZERO
            return _make({0: value.numerator}, {0: value.denominator})
        raise TypeError(f"cannot build a Q(q,t) coefficient from {value!r}")

    @classmethod
    def from_t_poly(cls, poly: dict[int, int]) -> "Coeff":
        """The integer polynomial sum of c t^e, given as {e: c}."""
        if poly and max(poly) >= EXP_LIMIT:
            raise CoefficientError(_LIMIT_MESSAGE)
        return _make({_pack(0, e): c for e, c in poly.items() if c}, _ONE_POLY)

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
            return _divided(_poly_add(self.num, other.num), da)
        # reduce against g = gcd(da, db) only: with na/da and nb/db already
        # in lowest terms, any common factor of the combined numerator and
        # denominator must divide g
        g, da_red, db_red = _poly_gcd_cofactors(da, db)
        num = _poly_add(_poly_mul(self.num, db_red), _poly_mul(other.num, da_red))
        if not num:
            return ZERO
        den = _poly_mul(da, db_red)
        _bounded(num, den)
        if _poly_is_one(g):
            return _canonical(num, den)
        h, num, _ = _poly_gcd_cofactors(num, g)
        if not _poly_is_one(h):
            den = _poly_divexact(den, h)
        return _canonical(num, den)

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
            return _scaled(self, n2[0])
        if _poly_is_one(d1) and _poly_is_const(n1):
            return _scaled(other, n1[0])
        if _poly_is_one(d1) and _poly_is_one(d2):
            num = _poly_mul(n1, n2)
            _bounded(num)
            return _make(num, _ONE_POLY)
        # cross-reduce before multiplying to keep intermediates small
        _, n1, d2 = _poly_gcd_cofactors(n1, d2)
        _, n2, d1 = _poly_gcd_cofactors(n2, d1)
        num, den = _poly_mul(n1, n2), _poly_mul(d1, d2)
        _bounded(num, den)
        return _canonical(num, den)

    __rmul__ = __mul__

    def _inv(self) -> "Coeff":
        if not self.num:
            raise CoefficientError("division by zero in Q(q,t)")
        return _canonical(self.den, self.num)

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
        if not self.num:
            return ZERO if n else ONE
        # powers of a coprime num and den stay coprime, and den's leading
        # coefficient stays positive: no gcd, no _canonical
        return _make(_poly_power(self.num, n), _poly_power(self.den, n))

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # constants compare equal to int and Fraction, so they hash alike
        if self._hash is None:
            if self.num.keys() <= {0} and _poly_is_const(self.den):
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

    def _monic(self, p: Poly) -> dict[int, Fraction]:
        # p over the denominator's leading coefficient, still packed
        lc = self.den[max(self.den)]
        return {mono: Fraction(c, lc) for mono, c in p.items()}

    def _terms(self, p: Poly) -> dict[Monomial, Fraction]:
        return {_unpack(mono): c for mono, c in self._monic(p).items()}

    def numerator_terms(self) -> dict[Monomial, Fraction]:
        """Numerator terms, for the denominator scaled to leading coeff 1."""
        return self._terms(self.num)

    def denominator_terms(self) -> dict[Monomial, Fraction]:
        """Denominator terms, scaled to leading coefficient 1."""
        return self._terms(self.den)

    def poly_terms(self) -> dict[Monomial, Fraction]:
        """The terms of a polynomial coefficient; error if truly fractional."""
        if not _poly_is_const(self.den):
            raise CoefficientError("coefficient is not a polynomial")
        return self._terms(self.num)

    def as_fraction(self) -> Fraction:
        """The rational value of a constant coefficient."""
        if not self.num:
            return Fraction(0)
        if self.num.keys() == {0} and _poly_is_const(self.den):
            return Fraction(self.num[0], self.den[0])
        raise CoefficientError("coefficient is not a rational constant")

    def is_single_term(self) -> bool:
        """True when rendering needs no parentheses inside a product."""
        return _poly_is_const(self.den) and len(self.num) <= 1

    def render(self, qname: str = "q", tname: str = "t") -> str:
        num_text = _poly_render(self._monic(self.num), qname, tname)
        if _poly_is_const(self.den):
            return num_text
        if len(self.num) > 1:
            num_text = f"({num_text})"
        den_text = _poly_render(self._monic(self.den), qname, tname)
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


def _poly_power(p: Poly, n: int) -> Poly:
    """p^n by squaring in Z[q,t]; CoefficientError as soon as a square or
    product would reach EXP_LIMIT."""
    result = _ONE_POLY
    while n:
        if n & 1:
            result = _poly_mul(result, p)
            _bounded(result)
        n >>= 1
        if n:
            p = _poly_mul(p, p)
            _bounded(p)
    return result


def _power(powers: list, base: Coeff, n: int) -> Coeff:
    """base^n, extending powers = [base^0, base^1, ...] as far as n."""
    while len(powers) <= n:
        powers.append(powers[-1] * base)
    return powers[n]


def _poly_eval(p: Poly, qv: Coeff, tv: Coeff) -> Coeff:
    total = ZERO
    q_pows = [ONE]
    t_pows = [ONE]
    for mono, c in p.items():
        eq, et = _unpack(mono)
        term = Coeff.from_value(c)
        if eq:
            term = term * _power(q_pows, qv, eq)
        if et:
            term = term * _power(t_pows, tv, et)
        total = total + term
    return total


def dot(pairs) -> Coeff:
    """The sum of a * b over the pairs (a, b) of Coeff, divided once.

    A single nonzero product is a * b.  Otherwise the left factors are
    lifted over one denominator and, when they nest, the right factors
    over another (`_lifted`), and the sum is taken from the two lifted
    forms (`_lifted_sum`); when it cannot be, the products are added one
    at a time (`_running_sum`).
    """
    terms = [(a, b) for a, b in pairs if a.num and b.num]
    if not terms:
        return ZERO
    if len(terms) == 1:
        [(a, b)] = terms
        return a * b
    left = _lifted(dict(enumerate(a for a, _ in terms)))
    right = left and _lifted(dict(enumerate(b for _, b in terms)))
    total = _lifted_sum(left, right)
    return _running_sum(terms) if total is None else total


def _product_den(a: Poly, b: Poly) -> Poly:
    """The denominator a * b of a product, with a unit factor taken as 1
    by identity with the shared `_ONE_POLY`."""
    if a is _ONE_POLY:
        return b
    if b is _ONE_POLY:
        return a
    return _poly_mul(a, b)


def _common_denominator(dens: list[Poly]) -> tuple[Poly, list[Poly | None]] | None:
    """The nesting rule: D is the denominator of highest total degree,
    times whatever integer the others need beyond its content.  Returns D
    and the exact cofactors D / den, None where den equals D; None instead
    when some den does not divide D, or when D's total degree reaches
    EXP_LIMIT."""
    top = max(dens, key=_total_degree)
    if _total_degree(top) >= EXP_LIMIT:
        return None
    lift = _int_lcm(*(_int_gcd(*den.values()) for den in dens))
    lift //= _int_gcd(*top.values())
    if lift > 1:
        top = {mono: c * lift for mono, c in top.items()}
    try:
        return top, [None if den == top else _poly_divexact(top, den) for den in dens]
    except ArithmeticError:
        return None


def _lifted(entries: dict):
    """Nonzero entries over one common denominator D, as (D, nums, degree):
    nums maps the key of each entry e to e * D in Z[q,t], and degree is
    the highest total degree of D and of any numerator.  D is 1 when every
    entry is a polynomial, and else follows the nesting rule
    (`_common_denominator`), with one cofactor per distinct denominator.
    None when the denominators do not nest."""
    if all(e.den is _ONE_POLY for e in entries.values()):
        top, nums = _ONE_POLY, {k: e.num for k, e in entries.items()}
    else:
        flats = {k: _flat(e.den) for k, e in entries.items()}
        dens = {flat: e.den for flat, e in zip(flats.values(), entries.values())}
        common = _common_denominator(list(dens.values()))
        if common is None:
            return None
        top, cofactors = common
        cofactor = dict(zip(dens, cofactors))
        nums = {}
        for k, e in entries.items():
            f = cofactor[flats[k]]
            nums[k] = e.num if f is None else _poly_mul(e.num, f)
    return top, nums, max(map(_total_degree, (top, *nums.values())))


def _lifted_sum(a, b) -> Coeff | None:
    """The sum of x_k * y_k over the keys k shared by the lifted forms
    a = (D, x, _) and b = (E, y, _): the numerators' products added in
    place in Z[q,t], over D * E, which is 1 or taken by one gcd.  None
    when either side does not nest, or when their degrees sum to EXP_LIMIT
    or more; below that no exponent of the sum or of D * E reaches it."""
    if a is None or b is None or a[2] + b[2] >= EXP_LIMIT:
        return None
    den_a, nums_a, _ = a
    den_b, nums_b, _ = b
    num: Poly = {}
    for k, y in nums_b.items():
        x = nums_a.get(k)
        if x is not None:
            _poly_addmul(num, x, y)
    if 0 in num.values():
        num = {mono: c for mono, c in num.items() if c}
    return _divided(num, _product_den(den_a, den_b))


def _composed(left: dict, lifted_left, right: dict, lifted_right) -> Coeff:
    """The sum of left[k] * right[k] over the keys of both mappings of
    nonzero entries, from their kept lifted forms (`_lifted_sum`); when
    it cannot be, one `dot` over those pairs, and zero when there is
    none."""
    total = _lifted_sum(lifted_left, lifted_right)
    if total is None:
        pairs = [(left[k], c) for k, c in right.items() if k in left]
        total = dot(pairs) if pairs else ZERO
    return total


def _running_sum(terms) -> Coeff:
    return sum((a * b for a, b in terms), ZERO)


ZERO = _make({}, _ONE_POLY)
ONE = _make({0: 1}, _ONE_POLY)
Q = _make({_pack(1, 0): 1}, _ONE_POLY)
T = _make({_pack(0, 1): 1}, _ONE_POLY)
