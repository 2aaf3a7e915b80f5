"""Exact Q(q,t) arithmetic: canonical form, gcd reduction, substitution."""

import ast
import copy
import inspect
import operator
import random
import time
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtsym import SymmetricFunctions, coeffs, poly
from qtsym.coeffs import ONE, Q, T, ZERO, Coeff, dot
from qtsym.errors import CoefficientError
from qtsym.poly import (
    _heugcd,
    _int_strip_content,
    _pack,
    _poly_add,
    _poly_divexact,
    _poly_gcd,
    _poly_mul,
    _poly_prem,
    _prs_gcd,
    _unpack,
)


def _packed(terms: dict) -> dict:
    """A {(eq, et): c} dict with its exponent pairs packed, as the kernel
    and Coeff.num / Coeff.den hold it."""
    return {_pack(eq, et): c for (eq, et), c in terms.items()}


def _pairs(p: dict) -> dict:
    """A packed dict with its keys unpacked to (eq, et) pairs again."""
    return {_unpack(mono): c for mono, c in p.items()}


def _mono_key(mono):
    # graded lex with t more significant than q, on (eq, et) pairs
    eq, et = mono
    return (eq + et, et)


def test_basic_identities():
    assert Q + T - Q == T
    assert (Q - T) * ZERO == ZERO
    assert (T + 1) * (T - 1) == T**2 - 1
    assert ONE + 1 == Coeff.from_value(2)


def test_long_division_oracle():
    # divide 1 - t^2 by 1 - t with classical univariate long division
    def divide(num: list[Fraction], den: list[Fraction]):
        num = list(num)
        quot = [Fraction(0)] * (len(num) - len(den) + 1)
        for shift in range(len(num) - len(den), -1, -1):
            c = num[shift + len(den) - 1] / den[-1]
            quot[shift] = c
            for i, d in enumerate(den):
                num[shift + i] -= c * d
        return quot, num

    quot, rem = divide([Fraction(1), Fraction(0), Fraction(-1)], [Fraction(1), Fraction(-1)])
    assert all(r == 0 for r in rem)
    expected = ZERO
    for e, c in enumerate(quot):
        expected = expected + Coeff.from_value(c) * T**e
    assert (1 - T**2) / (1 - T) == expected
    assert expected == 1 + T


def test_gcd_cancellation_is_structural():
    a = (T**2 - 1) / (T**3 - 1)
    b = (T + 1) / (T**2 + T + 1)
    assert a == b
    assert a.numerator_terms() == b.numerator_terms()
    assert a.denominator_terms() == b.denominator_terms()


def test_mixed_variable_cancellation():
    c = (Q**2 - T**2) / (Q - T)
    assert c == Q + T
    assert c.is_polynomial()


def test_denominator_is_monic():
    c = Coeff.from_value(2) / (1 - T**2)
    # canonical denominator has leading coefficient one: t^2 - 1
    assert c.denominator_terms() == {(0, 2): Fraction(1), (0, 0): Fraction(-1)}
    assert c.numerator_terms() == {(0, 0): Fraction(-2)}


def test_division_by_zero():
    with pytest.raises(CoefficientError):
        ONE / ZERO
    with pytest.raises(CoefficientError):
        ZERO._inv()
    with pytest.raises(CoefficientError):
        Coeff({}, {})


def test_substitution_basics():
    assert (T + 2).substitute(t=1) == Coeff.from_value(3)
    assert (Q * T).substitute(q=2, t=Fraction(1, 2)) == ONE
    # partial substitution leaves the other variable alone
    assert (Q + T).substitute(t=0) == Q


def test_substitution_pole():
    c = ONE / (1 - T)
    with pytest.raises(CoefficientError):
        c.substitute(t=1)


def test_removable_singularity_via_epsilon_limit():
    c = (1 - Q) / (1 - T)
    assert c.substitute(q=T) == ONE
    # approach the diagonal q = t + eps and watch the value tend to 1
    half = Fraction(1, 2)
    deviations = []
    for eps in (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        val = c.substitute(q=T + Coeff.from_value(eps)).substitute(t=half)
        deviations.append(abs(val.as_fraction() - 1))
    assert deviations[0] > deviations[1] > deviations[2]
    # the deviation of this particular function is exactly 2*eps
    assert deviations == [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)]


def test_substitution_rejects_unknown_variable():
    with pytest.raises(CoefficientError):
        (Q + T).substitute({"z": 1})


def test_powers():
    assert (T + 1) ** 0 == ONE
    assert (T + 1) ** 3 == T**3 + 3 * T**2 + 3 * T + 1
    assert T ** (-2) == ONE / T**2
    assert ((1 - T) / (1 - Q)) ** (-1) == (1 - Q) / (1 - T)


_POWER_BASES = [
    ZERO,
    ONE,
    Coeff.from_value(-3),
    Coeff.from_value(Fraction(-2, 9)),
    2 * Q * T**3,
    1 + Q * T,
    (1 + Q * T) / (1 - T),
    # canonical with a denominator of content 2 and a negative tail
    3 * Q / (2 * T - 2),
    (Q - 2 * T**2) / (4 * Q**2 * T - 6),
    -T / (1 - Q) ** 2,
]


@pytest.mark.parametrize("base", _POWER_BASES, ids=str)
def test_powers_equal_repeated_products(base):
    product = ONE
    for n in range(9):
        assert base**n == product, n
        if base:
            assert base ** (-n) == ONE / product, n
        product = product * base
    if not base:
        with pytest.raises(CoefficientError, match="division by zero"):
            base ** (-1)


def test_powers_take_no_gcd(monkeypatch):
    def no_gcd(a, b):
        raise AssertionError("a power took a gcd")

    exponents = (2, 3, 7, 8, -2, -7)
    base = (1 + Q * T) / (1 - T)
    with monkeypatch.context() as m:
        m.setattr(coeffs, "_poly_gcd_cofactors", no_gcd)
        powers = [[base**n for n in exponents if base or n > 0] for base in _POWER_BASES]
        # a gcd per squaring would cost about a second here
        big = base**200
    assert big == _repeated(base, 200)
    for base, got in zip(_POWER_BASES, powers):
        assert got == [_repeated(base, n) for n in exponents if base or n > 0]


def _repeated(base, n):
    product = ONE
    for _ in range(abs(n)):
        product = product * base
    return product if n >= 0 else ONE / product


def test_powers_raise_at_the_exponent_limit():
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        (1 + Q**1000) ** 600
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        (Q / (1 - T**4096)) ** 128
    # an unchecked square, q^1200000, would carry into the field of t
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        (Q**300000) ** 4
    assert (1 + T**4096) ** 127 == _repeated(1 + T**4096, 127)


def test_rendering():
    assert str(T + 2) == "t + 2"
    assert str((1 - T**2) / (1 - T)) == "t + 1"
    assert str(2 * Q * T**2) == "2*q*t^2"
    assert str(-Q + 1) == "-q + 1" or str(-Q + 1) == "1 - q"
    assert str(Coeff.from_value(2) / (1 - T**2)) == "-2/(t^2 - 1)" or str(
        Coeff.from_value(2) / (1 - T**2)
    ) == "2/(1 - t^2)"
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(Coeff.from_value(Fraction(-1, 2))) == "-1/2"
    assert (Q + T).render(qname="a", tname="b") == "b + a"


def test_rendering_stops_at_the_digit_limit():
    # Python converts integers of at most 4300 digits to text
    assert str(ONE * (10**4300 - 1)) == "9" * 4300
    assert str(Q / (10**4300 - 1)) == "1/" + "9" * 4300 + "*q"
    for value in (ONE * 10**4300, Q / 10**4300, -(T * 10**4300)):
        with pytest.raises(CoefficientError, match="more than 4300 digits"):
            str(value)


def test_graded_order_puts_t_first():
    # same total degree: the t-heavier monomial leads
    assert str(Q * T + Q**2) == "q*t + q^2"
    assert str(T**2 + Q * T + Q**2) == "t^2 + q*t + q^2"


coeff_values = st.integers(min_value=-4, max_value=4).map(Fraction)
exponents = st.tuples(
    st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
)
polys = st.dictionaries(exponents, coeff_values, max_size=3).map(
    lambda d: sum(
        (Coeff.from_value(c) * Q ** eq * T ** et for (eq, et), c in d.items()),
        ZERO,
    )
)
nonzero_polys = polys.filter(lambda c: not c.is_zero())
fractions_qt = st.builds(lambda a, b: a / b, polys, nonzero_polys)


@settings(max_examples=60, deadline=None)
@given(fractions_qt, fractions_qt, fractions_qt)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a - a == ZERO
    assert a - a is not None and (a - a).denominator_terms() == ONE.denominator_terms()


@settings(max_examples=60, deadline=None)
@given(fractions_qt)
def test_multiplicative_inverse(a):
    if not a.is_zero():
        assert a * (ONE / a) == ONE


@settings(max_examples=40, deadline=None)
@given(fractions_qt, nonzero_polys)
def test_common_factor_cancels(a, g):
    # (num*g)/(den*g) must land on the same canonical object as num/den
    b = (a * g) / g
    assert b == a
    assert b.numerator_terms() == a.numerator_terms()
    assert b.denominator_terms() == a.denominator_terms()


@settings(max_examples=40, deadline=None)
@given(fractions_qt)
def test_hashable_and_consistent(a):
    assert hash(a) == hash(a + ZERO)


@settings(max_examples=60, deadline=None)
@given(st.fractions(max_denominator=50))
def test_constants_hash_like_their_fraction(value):
    c = Coeff.from_value(value)
    assert c == value and hash(c) == hash(value)
    if value.denominator == 1:
        assert c == int(value) and hash(c) == hash(int(value))
    assert len({c, value}) == 1


@settings(max_examples=60, deadline=None)
@given(fractions_qt, fractions_qt)
def test_equal_implies_equal_hash(a, b):
    # the same value reached by two routes
    assert hash((a + b) - b) == hash(a)
    if a == b:
        assert hash(a) == hash(b)


# -- the primitive remainder sequence behind the heuristic GCD ------------
# _poly_gcd tries the evaluation GCD first and that succeeds on everything
# the engine builds, so these call the fallback directly.


def _int_poly(**monos) -> dict:
    """{'q^a*t^b'-style key: int} as an integer bivariate dict."""
    out = {}
    for key, val in monos.items():
        eq = et = 0
        for factor in key.split("_"):
            if factor == "1":
                continue
            name, _, exp = factor.partition("^")
            if name == "q":
                eq += int(exp) if exp else 1
            else:
                et += int(exp) if exp else 1
        out[(eq, et)] = val
    return _packed(out)


def _same_up_to_sign(got: dict, want: dict) -> bool:
    return got == want or got == {m: -c for m, c in want.items()}


def _in_q(p: dict) -> dict:
    """A univariate {exponent: coeff} dict as a polynomial in q."""
    return _packed({(e, 0): c for e, c in p.items()})


def _uni_mul(a: dict, b: dict) -> dict:
    return {eq: c for (eq, _), c in _pairs(_poly_mul(_in_q(a), _in_q(b))).items()}


F_COMMON = _int_poly(**{"1": 1, "q_t": 1, "t^2": 2})  # 1 + qt + 2t^2
G_COPRIME = _int_poly(**{"1": 1, "q": 1, "t": 1})  # 1 + q + t
H_COPRIME = _int_poly(**{"1": 3, "q^2_t": 1, "t^2": -1})  # 3 + q^2 t - t^2


def test_prs_gcd_finds_common_bivariate_factor():
    a = _poly_mul(F_COMMON, G_COPRIME)
    b = _poly_mul(F_COMMON, H_COPRIME)
    assert _same_up_to_sign(_prs_gcd(a, b), F_COMMON)
    assert _same_up_to_sign(_prs_gcd(b, a), F_COMMON)


def test_prs_gcd_keeps_t_content():
    # 1 + q divides every t-layer of both inputs: it is found as the gcd of
    # the t-contents and multiplied back onto the primitive gcd
    content = _int_poly(**{"1": 1, "q": 1})
    a = _poly_mul(content, _poly_mul(F_COMMON, G_COPRIME))
    b = _poly_mul(content, _poly_mul(F_COMMON, H_COPRIME))
    assert _same_up_to_sign(_prs_gcd(a, b), _poly_mul(content, F_COMMON))
    # only the content in common
    a = _poly_mul(content, G_COPRIME)
    b = _poly_mul(content, H_COPRIME)
    assert _same_up_to_sign(_prs_gcd(a, b), content)


def test_prs_gcd_of_coprime_inputs_is_one():
    assert _same_up_to_sign(_prs_gcd(G_COPRIME, H_COPRIME), _packed({(0, 0): 1}))
    assert _same_up_to_sign(
        _prs_gcd(_poly_mul(G_COPRIME, G_COPRIME), H_COPRIME), _packed({(0, 0): 1})
    )


def test_prs_gcd_with_inputs_free_of_t():
    one_plus_q = _int_poly(**{"1": 1, "q": 1})
    two_minus_q = _int_poly(**{"1": 2, "q": -1})
    only_q = _poly_mul(one_plus_q, two_minus_q)
    with_t = _poly_mul(one_plus_q, G_COPRIME)
    assert _same_up_to_sign(_prs_gcd(only_q, with_t), one_plus_q)
    assert _same_up_to_sign(_prs_gcd(with_t, only_q), one_plus_q)
    other = _poly_mul(one_plus_q, _int_poly(**{"1": 3, "q^2": 1}))
    assert _same_up_to_sign(_prs_gcd(only_q, other), one_plus_q)


def _prs_with_remainders(a, b):
    """_prs_gcd(a, b) and the (main variable, pseudo-remainder) pairs it
    went through."""
    steps = []

    def spy(f, g, v):
        r = _poly_prem(f, g, v)
        steps.append((v, r))
        return r

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_poly_prem", spy)
        return _prs_gcd(a, b), steps


def test_prs_gcd_branches():
    one_plus_q = _int_poly(**{"1": 1, "q": 1})
    # main variable t: the sequence ends on a zero pseudo-remainder
    got, steps = _prs_with_remainders(
        _poly_mul(F_COMMON, G_COPRIME), _poly_mul(F_COMMON, H_COPRIME)
    )
    assert _same_up_to_sign(got, F_COMMON)
    assert steps and all(v == 1 for v, _ in steps) and steps[-1][1] == {}
    # main variable q when neither input has t
    got, steps = _prs_with_remainders(
        _poly_mul(one_plus_q, _in_q({2: 1, 0: 2})),
        _poly_mul(one_plus_q, _in_q({1: 2, 0: -3})),
    )
    assert _same_up_to_sign(got, one_plus_q)
    assert steps and all(v == 0 for v, _ in steps) and steps[-1][1] == {}
    # one input free of t is its own content: the primitive parts meet the
    # degree-0 exit before any pseudo-remainder
    only_q = _poly_mul(one_plus_q, _int_poly(**{"1": 2, "q": -1}))
    got, steps = _prs_with_remainders(only_q, _poly_mul(one_plus_q, G_COPRIME))
    assert _same_up_to_sign(got, one_plus_q) and steps == []
    # a nontrivial gcd of the contents is multiplied back on
    a = _poly_mul(one_plus_q, _poly_mul(F_COMMON, G_COPRIME))
    b = _poly_mul(one_plus_q, _poly_mul(F_COMMON, H_COPRIME))
    got, steps = _prs_with_remainders(a, b)
    assert _same_up_to_sign(got, _poly_mul(one_plus_q, F_COMMON))
    # coprime inputs end on a nonzero remainder free of t, a constant once
    # its content is divided out
    got, steps = _prs_with_remainders(G_COPRIME, H_COPRIME)
    assert got == _packed({(0, 0): 1}) or got == _packed({(0, 0): -1})
    v, last = steps[-1]
    assert v == 1 and last and not any(et for _, et in _pairs(last))


def test_bivariate_pseudo_remainder():
    # over Z[q][t]: prem(t^2 + q, q t + 1) = q^2 * (t^2 + q) mod (q t + 1)
    #             = q^3 + 1
    f = _int_poly(**{"t^2": 1, "q": 1})
    g = _int_poly(**{"q_t": 1, "1": 1})
    assert _poly_prem(f, g, 1) == _int_poly(**{"q^3": 1, "1": 1})
    # an exact divisor leaves no remainder
    fg = _poly_mul(F_COMMON, G_COPRIME)
    assert _poly_prem(fg, G_COPRIME, 1) == {}


def test_univariate_pseudo_remainder():
    # prem(x^2 + 1, 2x + 1) = 4(x^2 + 1) mod (2x + 1) = 5
    assert _poly_prem(_in_q({2: 1, 0: 1}), _in_q({1: 2, 0: 1}), 0) == _in_q({0: 5})
    # (x - 1)(x + 2) by x - 1 leaves nothing
    assert _poly_prem(_in_q({2: 1, 1: 1, 0: -2}), _in_q({1: 1, 0: -1}), 0) == {}


int_coeffs = st.integers(min_value=-3, max_value=3).filter(bool)
int_polys = st.dictionaries(exponents, int_coeffs, min_size=1, max_size=4).map(
    lambda d: _packed({**d, (0, 0): d.get((0, 0), 0) or 1})
)


@settings(max_examples=40, deadline=None)
@given(int_polys, int_polys, int_polys)
def test_prs_gcd_agrees_with_heuristic_gcd(f, g, h):
    a = _int_strip_content(_poly_mul(f, g))
    b = _int_strip_content(_poly_mul(f, h))
    fast = _heugcd(a, b, 1)
    slow = _prs_gcd(a, b)
    for factor in (a, b):
        _poly_divexact(factor, _int_strip_content(slow))  # raises unless exact
    if fast is not None:
        h, cf_a, cf_b = fast
        assert _same_up_to_sign(_int_strip_content(slow), h)
        assert _poly_mul(h, cf_a) == a and _poly_mul(h, cf_b) == b


def _gcd_workload():
    """Coeff sums and products whose reduction needs a bivariate gcd of
    many-term polynomials, and the degree-4 McdP -> m matrix built on a
    fresh registry, all as (num, den) pairs."""
    f, g, h = (Coeff(_pairs(p)) for p in (F_COMMON, G_COPRIME, H_COPRIME))
    values = [
        f * g / (f * h),
        g / (1 - Q * T) + h / ((1 - Q * T) * f),
        (f * g + f * h) / (f * (1 - Q)),
        ((1 - Q) / (1 - T)) ** 3 * ((1 - T**2) / (1 - Q**2)),
        (f * g) / (g * h) - (f * h) / (g * g),
    ]
    matrix = SymmetricFunctions().conversion_matrix("McdP", "m", 4)
    entries = [c for row in matrix.rows for c in row]
    return [(c.num, c.den) for c in values + entries]


def test_poly_gcd_remainder_sequence_runs():
    # the heuristic GCD fails every time, so _poly_gcd reduces through the
    # primitive remainder sequence; a fresh cache keeps the heuristic
    # results from being reused
    want = _gcd_workload()
    calls = []

    def counted_prs(a, b):
        calls.append(1)
        return _prs_gcd(a, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_heugcd", lambda f, g, v: None)
        mp.setattr(poly, "_prs_gcd", counted_prs)
        mp.setattr(poly, "_GCD_CACHE", {})
        got = _gcd_workload()
    assert len(calls) > 10
    assert got == want


# -- the heuristic GCD, `_heugcd`: the `uni` tests give it polynomials in q
# alone (v = 0), the `biv` tests polynomials in q and t (v = 1)


def _divisors_tried(monkeypatch) -> list:
    """Spy on _poly_divexact: the divisors it was called with, in order."""
    divisors = []
    kernel = poly._poly_divexact

    def spy(a, b):
        divisors.append(b)
        return kernel(a, b)

    monkeypatch.setattr(poly, "_poly_divexact", spy)
    return divisors


def test_heuristic_gcd_candidate_must_divide_both_inputs(monkeypatch):
    # the heuristic first evaluates at x = 31, at either level, where
    # 1 + x = 32 divides 33 + x = 64: the lifted candidate is the input with
    # constant 1, which divides that input but not the other one and must
    # be rejected; the next point gives the true gcd
    divisors = _divisors_tried(monkeypatch)
    one_plus_q = _packed({(0, 0): 1, (1, 0): 1})
    f, g = _in_q({1: 1, 0: 33}), _in_q({1: 1, 0: 1})
    assert _heugcd(f, g, 0) == (_packed({(0, 0): 1}), f, g)
    assert _heugcd(g, f, 0) == (_packed({(0, 0): 1}), g, f)
    assert divisors == [one_plus_q, one_plus_q, one_plus_q]
    divisors.clear()
    f = _poly_mul(one_plus_q, _packed({(0, 1): 1, (0, 0): 33}))
    g = _poly_mul(one_plus_q, _packed({(0, 1): 1, (0, 0): 1}))
    assert _heugcd(f, g, 1)[0] == one_plus_q
    assert _heugcd(g, f, 1)[0] == one_plus_q
    rejected = _poly_mul(one_plus_q, _packed({(0, 1): 1, (0, 0): 1}))
    assert divisors[0] == rejected and rejected not in divisors[-2:]
    # at x = 31 the image of x - 31 is zero: that point is skipped, with
    # no candidate to try, at either level
    divisors.clear()
    assert _heugcd(_in_q({1: 1, 0: -31}), _in_q({1: 1, 0: 1}), 0)[0] == _in_q({0: 1})
    f = _packed({(0, 1): 1, (0, 0): -31})
    assert _heugcd(f, _packed({(0, 1): 1, (0, 0): 1}), 1)[0] == _in_q({0: 1})
    assert divisors == []


def _points_tried(monkeypatch) -> list:
    """Spy on _image: the variable of each evaluation, two per point."""
    variables = []
    kernel = poly._image

    def spy(p, x, v):
        variables.append(v)
        return kernel(p, x, v)

    monkeypatch.setattr(poly, "_image", spy)
    return variables


def _inexact(a, b):
    raise ArithmeticError("inexact polynomial division")


def test_biv_heugcd_gives_up_when_every_candidate_fails(monkeypatch):
    # every candidate in t fails its trial division, while the gcds of the
    # images in q still divide: the heuristic gives up after six points
    kernel = poly._poly_divexact

    def inexact_in_t(a, b):
        if poly._degree(b, 1):
            raise ArithmeticError("inexact polynomial division")
        return kernel(a, b)

    monkeypatch.setattr(poly, "_poly_divexact", inexact_in_t)
    variables = _points_tried(monkeypatch)
    a = _poly_mul(F_COMMON, G_COPRIME)
    b = _poly_mul(F_COMMON, H_COPRIME)
    assert _heugcd(a, b, 1) is None
    assert variables.count(1) == 12
    # the same in q, where every candidate fails
    monkeypatch.setattr(poly, "_poly_divexact", _inexact)
    variables.clear()
    one_plus_q = _in_q({1: 1, 0: 1})
    a = _poly_mul(one_plus_q, _in_q({2: 1, 0: 2}))
    b = _poly_mul(one_plus_q, _in_q({1: 2, 0: -3}))
    assert _heugcd(a, b, 0) is None
    assert variables == [0] * 12


def test_heuristic_gives_up_on_images_too_large(monkeypatch):
    # t-exponents of 2^18 would make images of a million bits; the bound
    # on deg * bits(x) hands the gcd to the remainder sequence at once
    def value():
        return Q ** (2**18) * (T ** (2**18) / (1 - Q)) + ONE / (1 - Q) ** 2

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_GCD_CACHE", {})
        start = time.perf_counter()
        fast = value()
        elapsed = time.perf_counter() - start
        mp.setattr(poly, "_heugcd", lambda f, g, v: None)
        mp.setattr(poly, "_GCD_CACHE", {})
        forced = value()
    assert fast.num == forced.num and fast.den == forced.den
    assert elapsed < 0.05
    variables = _points_tried(monkeypatch)
    f = _packed({(0, 2**18): 1, (0, 0): 1})
    assert _heugcd(f, _packed({(1, 0): 1, (0, 0): 1}), 1) is None
    assert variables == []


def test_poly_gcd_splits_off_monomial_and_integer_contents(monkeypatch):
    monkeypatch.setattr(poly, "_GCD_CACHE", {})
    one_plus_q = _int_poly(**{"1": 1, "q": 1})
    two_plus_t = _int_poly(**{"1": 2, "t": 1})
    for a, b, want in (
        # q t divides both, q^2 t only one of them
        (_int_poly(q_t=1), _int_poly(**{"q^2_t": 1}), _int_poly(q_t=1)),
        (_int_poly(q_t=1, t=3), _int_poly(**{"q^2_t": 1}), _int_poly(t=1)),
        (_int_poly(q_t=2, t=2), _int_poly(**{"q^2_t": 6, "q_t^2": 3}), _int_poly(t=1)),
    ):
        a, b = _poly_mul(a, one_plus_q), _poly_mul(b, _poly_mul(one_plus_q, two_plus_t))
        assert _poly_gcd(a, b) == _poly_gcd(b, a) == _poly_mul(want, one_plus_q)


def test_image_gcds_bypass_the_cache(monkeypatch):
    # only the top-level call is cached: the gcds of the images in q,
    # which never repeat, do not grow the cache
    monkeypatch.setattr(poly, "_GCD_CACHE", {})
    a = _poly_mul(F_COMMON, G_COPRIME)
    b = _poly_mul(F_COMMON, H_COPRIME)
    assert _same_up_to_sign(_poly_gcd(a, b), F_COMMON)
    assert len(poly._GCD_CACHE) == 1


def test_gcd_cache_clears_at_its_limit(monkeypatch):
    # a full cache is emptied before the next result is stored, and the
    # gcds after the clear are those of an unbounded cache
    inputs = [
        (_poly_mul(F_COMMON, G_COPRIME), _poly_mul(F_COMMON, H_COPRIME)),
        (_poly_mul(G_COPRIME, F_COMMON), _poly_mul(G_COPRIME, H_COPRIME)),
        (_poly_mul(H_COPRIME, G_COPRIME), _poly_mul(H_COPRIME, F_COMMON)),
        (F_COMMON, G_COPRIME),
        (G_COPRIME, H_COPRIME),
    ]
    monkeypatch.setattr(poly, "_GCD_CACHE", {})
    want = [_poly_gcd(a, b) for a, b in inputs]
    assert len(poly._GCD_CACHE) == len(inputs)
    monkeypatch.setattr(poly, "_GCD_CACHE", {})
    monkeypatch.setattr(poly, "_GCD_CACHE_LIMIT", 2)
    sizes = []
    for _ in range(2):
        got = []
        for a, b in inputs:
            got.append(_poly_gcd(a, b))
            sizes.append(len(poly._GCD_CACHE))
        assert got == want
    assert sizes == [1, 2, 1, 2, 1, 2, 1, 2, 1, 2]


def test_uni_divexact_raises_when_inexact():
    # exact division of polynomials in q by the packed kernel:
    # (x + 1)(2x - 3) by x + 1, and by the constant 1
    assert _poly_divexact(
        _in_q({2: 2, 1: -1, 0: -3}), _in_q({1: 1, 0: 1})
    ) == _in_q({1: 2, 0: -3})
    assert _poly_divexact(_in_q({3: 5, 0: -1}), _in_q({0: 1})) == _in_q({3: 5, 0: -1})
    # a remainder, an integer quotient that would be floored, a divisor of
    # higher degree
    for a, b in (
        ({2: 1, 0: 1}, {1: 1, 0: 1}),
        ({1: 3, 0: 1}, {1: 2, 0: 1}),
        ({1: 4, 0: 3}, {0: 2}),
        ({1: 1}, {2: 1}),
    ):
        with pytest.raises(ArithmeticError):
            _poly_divexact(_in_q(a), _in_q(b))


def _uni_gcd_by_remainders(a, b):
    """_poly_gcd of univariate integer polynomials, given as {exponent:
    coeff}, in q with the heuristic GCD failing, so the primitive remainder
    sequence runs; also returns how many pseudo-remainders it took."""
    calls = []

    def counted_prem(f, g, v):
        calls.append(1)
        return _poly_prem(f, g, v)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_heugcd", lambda f, g, v: None)
        mp.setattr(poly, "_poly_prem", counted_prem)
        mp.setattr(poly, "_GCD_CACHE", {})
        return _poly_gcd(_in_q(a), _in_q(b)), len(calls)


def test_uni_gcd_remainder_sequence_runs():
    # (x + 1)(x^2 + 2) and (x + 1)(2x - 3): gcd x + 1
    a = _uni_mul({1: 1, 0: 1}, {2: 1, 0: 2})
    b = _uni_mul({1: 1, 0: 1}, {1: 2, 0: -3})
    got, steps = _uni_gcd_by_remainders(a, b)
    assert got == _in_q({1: 1, 0: 1})
    assert steps >= 2
    # coprime inputs end on a constant remainder
    assert _uni_gcd_by_remainders({2: 1, 0: 1}, {1: 2, 0: 1}) == (_in_q({0: 1}), 1)


uni_int_polys = st.dictionaries(
    st.integers(min_value=0, max_value=4), int_coeffs, min_size=1, max_size=4
)


@settings(max_examples=60, deadline=None)
@given(uni_int_polys, uni_int_polys, uni_int_polys)
def test_uni_gcd_remainder_sequence_agrees_with_heuristic(f, g, h):
    a, b = _uni_mul(f, g), _uni_mul(f, h)
    slow, _ = _uni_gcd_by_remainders(a, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_GCD_CACHE", {})
        assert slow == _poly_gcd(_in_q(a), _in_q(b))
    # the gcd of the integer contents, with a positive leading coefficient
    assert gcd(*slow.values()) == gcd(*a.values(), *b.values())
    assert slow[max(slow)] > 0


def _to_sympy(c: Coeff, q, t):
    def expr(poly):
        return sum(
            v.numerator * q**eq * t**et / v.denominator
            for (eq, et), v in poly.items()
        )

    return expr(c.numerator_terms()) / expr(c.denominator_terms())


@settings(max_examples=40, deadline=None)
@given(fractions_qt, fractions_qt)
def test_arithmetic_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    sa, sb = _to_sympy(a, q, t), _to_sympy(b, q, t)
    assert sympy.cancel(_to_sympy(a + b, q, t) - (sa + sb)) == 0
    assert sympy.cancel(_to_sympy(a - b, q, t) - (sa - sb)) == 0
    assert sympy.cancel(_to_sympy(a * b, q, t) - sa * sb) == 0
    if not b.is_zero():
        assert sympy.cancel(_to_sympy(a / b, q, t) - sa / sb) == 0


def _kernel_polys(exps):
    return st.dictionaries(exps, int_coeffs, min_size=1, max_size=4).map(_packed)


_SMALL = st.integers(min_value=0, max_value=3)
_VARIABLE_EXPONENTS = {
    "qt": st.tuples(_SMALL, _SMALL),
    "q": st.tuples(_SMALL, st.just(0)),
    "t": st.tuples(st.just(0), _SMALL),
}


@pytest.mark.parametrize("variables", sorted(_VARIABLE_EXPONENTS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_remainder_sequence_gcd_matches_sympy(variables, data):
    # the heuristic gives up, so _poly_gcd reduces by the remainder
    # sequence alone; sympy's gcd is the independent oracle
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    polys_in = _kernel_polys(_VARIABLE_EXPONENTS[variables])
    f, g, h = data.draw(polys_in), data.draw(polys_in), data.draw(polys_in)
    a, b = _poly_mul(f, g), _poly_mul(f, h)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_heugcd", lambda f, g, v: None)
        mp.setattr(poly, "_GCD_CACHE", {})
        got = _poly_gcd(a, b)

    def expr(p):
        return sum(c * q**eq * t**et for (eq, et), c in _pairs(p).items())

    want = sympy.Poly(sympy.gcd(expr(a), expr(b)), q, t).as_dict()
    assert _same_up_to_sign(got, _packed({mono: int(c) for mono, c in want.items()}))


def test_poly_kernel_imports_nothing_from_coeffs():
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(poly))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported and not any("coeffs" in name for name in imported)
    assert not hasattr(poly, "Coeff")


# -- the canonical form in Z[q,t] -------------------------------------------


def _assert_canonical(c: Coeff):
    num, den = c.num, c.den
    assert all(type(v) is int for v in (*num.values(), *den.values()))
    if not num:
        assert den == _packed({(0, 0): 1})
        return
    assert gcd(*num.values(), *den.values()) == 1
    assert _poly_gcd(num, den) == _packed({(0, 0): 1})
    assert den[_pack(*max(map(_unpack, den), key=_mono_key))] > 0


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@settings(max_examples=60, deadline=None)
@given(fractions_qt, fractions_qt, st.sampled_from(sorted(_OPS)))
def test_arithmetic_lands_in_canonical_form(a, b, op):
    assume(op != "/" or not b.is_zero())
    result = _OPS[op](a, b)
    for c in (a, b, result):
        _assert_canonical(c)
    if not b.is_zero():
        again = (a * b) / b
        assert again.num == a.num and again.den == a.den


def test_constructor_clears_denominators_and_content():
    c = Coeff({(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)})
    assert c.num == _packed({(0, 0): 3, (0, 1): 2}) and c.den == _packed({(0, 0): 6})
    assert c == Fraction(1, 2) + Fraction(1, 3) * T
    # integer content shared by numerator and denominator cancels, and the
    # sign moves so that the denominator leads positive
    c = Coeff({(0, 0): 2, (1, 0): 4}, {(0, 1): -6})
    assert c.num == _packed({(0, 0): -1, (1, 0): -2}) and c.den == _packed({(0, 1): 3})
    _assert_canonical(c)


@pytest.mark.parametrize(
    "terms",
    [{(-1, 0): 1}, {(0, -2): 1}, {(0.5, 0): 1}, {(1, 2, 3): 1}, {5: 1}, {"ab": 1}],
    ids=["negative-q", "negative-t", "fractional", "triple", "int-key", "str-key"],
)
def test_constructor_rejects_exponents_that_are_not_pairs_of_naturals(terms):
    with pytest.raises(CoefficientError):
        Coeff(terms)
    with pytest.raises(CoefficientError):
        Coeff({(0, 0): 1}, terms)


@pytest.mark.parametrize("value", [1.5, "1", None], ids=["float", "str", "none"])
def test_constructor_rejects_values_that_are_not_rational(value):
    with pytest.raises(TypeError):
        Coeff({(0, 0): value})
    with pytest.raises(TypeError):
        Coeff({(0, 0): 1}, {(1, 0): value})


def test_render_goldens():
    assert str((1 - Q) / (1 - T)) == "(q - 1)/(t - 1)"
    assert str((Q + T) / (1 - Q * T) * 3 / 2) == "(-3/2*t - 3/2*q)/(q*t - 1)"
    assert str(Fraction(1, 2) + T / 3) == "1/3*t + 1/2"


def test_terms_are_the_monic_denominator_fraction_form():
    c = (Q + T) / (1 - Q * T) * 3 / 2
    # held over Z: -3(q + t) / (2qt - 2)
    assert c.num == _packed({(1, 0): -3, (0, 1): -3})
    assert c.den == _packed({(1, 1): 2, (0, 0): -2})
    num, den = c.numerator_terms(), c.denominator_terms()
    assert num == {(1, 0): Fraction(-3, 2), (0, 1): Fraction(-3, 2)}
    assert den == {(1, 1): Fraction(1), (0, 0): Fraction(-1)}
    assert all(type(v) is Fraction for v in (*num.values(), *den.values()))
    poly = Fraction(1, 2) + T / 3
    assert poly.poly_terms() == {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3)}
    assert poly.denominator_terms() == {(0, 0): Fraction(1)}


# -- exact division and fraction-free sums of products ------------------------


def test_divexact_by_one_term_raises_when_inexact():
    assert _poly_divexact(
        _packed({(2, 1): 6, (1, 1): -4}), _packed({(1, 1): 2})
    ) == _packed({(1, 0): 3, (0, 0): -2})
    # an integer quotient that would be floored, and a negative exponent
    with pytest.raises(ArithmeticError):
        _poly_divexact(_packed({(0, 0): 6}), _packed({(0, 0): 4}))
    with pytest.raises(ArithmeticError):
        _poly_divexact(_packed({(0, 0): 1}), _packed({(1, 0): 1}))
    with pytest.raises(ArithmeticError):
        _poly_divexact(_packed({(0, 0): 1, (1, 0): 1}), _packed({(0, 1): 1}))
    # q^2 / t: the key difference is positive, but its t field borrowed
    with pytest.raises(ArithmeticError):
        _poly_divexact(_packed({(2, 0): 1}), _packed({(0, 1): 1}))
    # the many-term branch raises on the same kinds of input
    with pytest.raises(ArithmeticError):
        _poly_divexact(_packed({(0, 0): 3, (1, 0): 3}), _packed({(0, 0): 2, (1, 0): 2}))


def test_dot_fixed_cases():
    assert dot([]) == ZERO
    assert dot([(ZERO, ONE / (1 - Q)), (Q, ZERO)]) == ZERO
    # the products' denominators 1-q and 1-t do not nest, but each side's
    # do: one sum over (1-t)(1-q)
    got = dot([(ONE, ONE / (1 - Q)), (ONE / (1 - T), ONE)])
    assert got == (2 - Q - T) / ((1 - Q) * (1 - T))
    # nested denominators share (1-q)^2
    got = dot([(ONE / (1 - Q), ONE), (ONE / (1 - Q), ONE / (1 - Q))])
    assert got == (2 - Q) / (1 - Q) ** 2
    # rational constants: denominators 2 and 3 nest over their lcm 6
    assert dot([(ONE / 2, ONE), (ONE, ONE / 3)]) == Fraction(5, 6)
    assert dot([(ONE / 2, ONE / 3), (ONE / 6, -ONE)]) == ZERO
    # a sum that cancels to zero over a shared denominator
    assert dot([(Q, ONE / (1 - Q)), (-Q, ONE / (1 - Q))]) == ZERO
    # a common factor of the summed numerator and the denominator cancels
    assert dot([(ONE / (1 - Q), ONE), (-Q, ONE / (1 - Q))]) == ONE


def test_dot_nests_per_side_where_the_products_do_not(monkeypatch):
    # the left factors 1, 1/(1-t) nest and so do the right factors
    # 1/(1-q), 1, so the sum takes no running sum
    def no_running_sum(terms):
        raise AssertionError("a sum that nests per side fell back")

    pairs = [(ONE, ONE / (1 - Q)), (ONE / (1 - T), ONE)]
    want = sum((a * b for a, b in pairs), ZERO)
    monkeypatch.setattr(coeffs, "_running_sum", no_running_sum)
    got = dot(pairs)
    assert got.num == want.num and got.den == want.den
    _assert_canonical(got)


def test_dot_short_paths():
    # one nonzero product, among zero pairs: exactly a * b
    a, b = (1 + Q) / (1 - T), (1 - T) / (2 - Q * T)
    got = dot([(ZERO, ONE / (1 - Q)), (a, b), (Q, ZERO)])
    want = a * b
    assert got.num == want.num and got.den == want.den
    # every denominator 1: the numerators are added, cancelling terms drop
    got = dot([(1 + Q, 1 - Q), (Q * Q, ONE), (T, 3 * Q)])
    assert got.num == _packed({(0, 0): 1, (1, 1): 3}) and got.den == _packed({(0, 0): 1})
    cancelled = dot([(Q, T), (-T, Q)])
    assert cancelled == ZERO
    _assert_canonical(cancelled)


# denominators from a small family, so that one list of products mixes
# equal, nested and non-nested denominators and integer constants
_DOT_DENS = [
    ONE, ONE * 2, ONE * 3, 1 - Q, 1 - T, (1 - Q) ** 2, (1 - Q) * (1 - T), 2 - 2 * Q * T
]
dot_factors = st.one_of(
    st.builds(lambda n, d: n / d, polys, st.sampled_from(_DOT_DENS)), fractions_qt
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(dot_factors, dot_factors), max_size=5), st.booleans())
def test_dot_is_the_running_sum(pairs, cancel):
    if cancel:
        pairs = pairs + [(-a, b) for a, b in pairs]
    want = ZERO
    for a, b in pairs:
        want = want + a * b
    got = dot(pairs)
    assert got.num == want.num and got.den == want.den
    _assert_canonical(got)


# -- short paths: an integer factor is scaled in without a polynomial gcd,
# and a gcd against 1 is 1 at once; both must give the canonical form that
# the constructor's full reduction gives


@pytest.fixture(scope="module")
def built_entries():
    S = SymmetricFunctions()
    entries = []
    for frm, to in (("McdP", "m"), ("P", "m"), ("m", "QP")):
        for n in range(1, 5):
            for row in S.conversion_matrix(frm, to, n).rows:
                entries.extend(row)
    return entries


@pytest.mark.parametrize("k", [1, -1, 2, -6, 12])
def test_integer_factor_short_path_is_canonical(built_entries, k):
    assert any(len(e.den) > 1 for e in built_entries)
    for e in built_entries:
        want = Coeff({mono: k * c for mono, c in _pairs(e.num).items()}, _pairs(e.den))
        for got in (e * k, k * e, e * Coeff.from_value(k), Coeff.from_value(k) * e):
            assert got.num == want.num and got.den == want.den
            assert hash(got) == hash(want)
            _assert_canonical(got)


def test_integer_factor_sharing_content_with_the_denominator():
    got = 2 * (ONE / (2 + 2 * Q))
    assert got.num == _packed({(0, 0): 1}) and got.den == _packed({(0, 0): 1, (1, 0): 1})
    got = 4 * (Q / 6)
    assert got.num == _packed({(1, 0): 2}) and got.den == _packed({(0, 0): 3})
    assert got == Q * Fraction(2, 3)
    assert ONE * (Q / 6) == Q / 6 and (-1) * (Q / 6) == -Q / 6


def test_poly_gcd_with_a_unit_argument():
    one = _packed({(0, 0): 1})
    for other in ({(0, 0): 1}, {(2, 1): 6}, {(0, 0): 4, (1, 3): -2}):
        assert _poly_gcd(one, _packed(other)) == one
        assert _poly_gcd(_packed(other), one) == one


# -- dot adds in place: every path equals the running Coeff sum, in num,
# den and hash


def _random_coeff(rng, dens):
    num = ZERO
    for _ in range(rng.randint(1, 3)):
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        num = num + c * Q ** rng.randint(0, 2) * T ** rng.randint(0, 2)
    return num / rng.choice(dens)


_DOT_PATHS = {
    # every denominator 1
    "unit": [ONE],
    # nested denominators, integers among them: cofactors of (1-q)^2 * 6
    "cofactor": [ONE, ONE * 2, ONE * 3, 1 - Q, (1 - Q) ** 2],
    # 1-q and 1-t do not nest: the running-sum fallback
    "fallback": [1 - Q, 1 - T],
}


def _counted_addmul(monkeypatch):
    calls = []
    kernel = coeffs._poly_addmul

    def counted(acc, a, b):
        calls.append(1)
        kernel(acc, a, b)

    monkeypatch.setattr(coeffs, "_poly_addmul", counted)
    return calls


def _assert_dot_is_running_sum(pairs):
    want = ZERO
    for a, b in pairs:
        want = want + a * b
    got = dot(pairs)
    assert got.num == want.num and got.den == want.den
    assert hash(got) == hash(want)
    _assert_canonical(got)
    return got


@pytest.mark.parametrize("path", sorted(_DOT_PATHS))
@pytest.mark.parametrize("cancel", [False, True])
def test_dot_paths_equal_the_running_sum(monkeypatch, path, cancel):
    rng = random.Random(f"{path}-{cancel}")
    calls = _counted_addmul(monkeypatch)
    dens = _DOT_PATHS[path]
    for _ in range(40):
        pairs = [
            (_random_coeff(rng, dens), _random_coeff(rng, dens))
            for _ in range(rng.randint(2, 5))
        ]
        if path == "fallback":
            # (1-q)^2 and (1-t)^2 divide no common denominator of degree 2
            pairs += [(ONE / (1 - Q), ONE / (1 - Q)), (ONE / (1 - T), ONE / (1 - T))]
        if cancel:
            pairs += [(-a, b) for a, b in pairs]
        got = _assert_dot_is_running_sum(pairs)
        if cancel:
            assert got is ZERO
    # the fallback adds Coeff values; the other paths add in place
    assert (len(calls) == 0) == (path == "fallback")


def test_dot_with_a_unit_denominator_that_is_not_the_shared_one():
    a = copy.deepcopy(1 + Q)
    b = copy.deepcopy(3 * T)
    assert a.den == _packed({(0, 0): 1}) and a.den is not coeffs._ONE_POLY
    assert b.den == _packed({(0, 0): 1}) and b.den is not coeffs._ONE_POLY
    # all units, one shared unit among copies, and copies beside real
    # denominators
    _assert_dot_is_running_sum([(a, b), (b, a), (Q, T)])
    _assert_dot_is_running_sum([(a, ONE), (ONE, b)])
    _assert_dot_is_running_sum([(a, ONE / (1 - Q)), (b, Q / (1 - Q) ** 2), (a, b)])
    _assert_dot_is_running_sum([(a, ONE / (1 - Q)), (b, ONE / (1 - T))])
    assert _assert_dot_is_running_sum([(a, b), (-a, b)]) is ZERO


# -- a heuristic GCD candidate that lifts to a constant is a unit: it is
# returned without trial division


def _assert_constant_candidate_taken(monkeypatch, f, g, v):
    want = _heugcd(f, g, v)
    assert want == (_packed({(0, 0): 1}), f, g)
    monkeypatch.setattr(poly, "_poly_divexact", _refuse_division)
    assert _heugcd(f, g, v) == want
    # a lifted -1 keeps its sign, as the two divisions by -1 would, and
    # so do the cofactors
    monkeypatch.setattr(poly, "_balanced_digits", lambda n, x: [-1])
    minus = {mono: -c for mono, c in f.items()}, {mono: -c for mono, c in g.items()}
    assert _heugcd(f, g, v) == (_packed({(0, 0): -1}), *minus)
    # and _poly_gcd turns the sign into a positive gcd
    monkeypatch.setattr(poly, "_GCD_CACHE", {})
    assert _poly_gcd(f, g) == _packed({(0, 0): 1})


def _refuse_division(a, b):
    raise AssertionError("trial division ran")


def test_uni_heugcd_takes_a_constant_candidate_without_division(monkeypatch):
    f, g = _in_q({1: 1, 0: 2}), _in_q({2: 1, 0: 3})
    _assert_constant_candidate_taken(monkeypatch, f, g, 0)


def test_biv_heugcd_takes_a_constant_candidate_without_division(monkeypatch):
    f = _packed({(1, 0): 1, (0, 1): 1, (0, 0): 2})
    g = _packed({(1, 0): 1, (0, 1): 1, (0, 0): 3})
    _assert_constant_candidate_taken(monkeypatch, f, g, 1)


def test_heuristic_gcd_divides_by_a_nonconstant_candidate(monkeypatch):
    # a common factor is still verified by both trial divisions
    divisors = _divisors_tried(monkeypatch)
    one_plus_q = _packed({(0, 0): 1, (1, 0): 1})
    f = _poly_mul(one_plus_q, _in_q({2: 1, 0: 2}))
    g = _poly_mul(one_plus_q, _in_q({1: 2, 0: -3}))
    assert _heugcd(f, g, 0) == (one_plus_q, _in_q({2: 1, 0: 2}), _in_q({1: 2, 0: -3}))
    assert divisors == [one_plus_q, one_plus_q]
    divisors.clear()
    f = _poly_mul(one_plus_q, _packed({(0, 1): 1, (0, 0): 2}))
    g = _poly_mul(one_plus_q, _packed({(0, 1): 1, (0, 0): 3}))
    assert _heugcd(f, g, 1) == (
        one_plus_q,
        _packed({(0, 1): 1, (0, 0): 2}),
        _packed({(0, 1): 1, (0, 0): 3}),
    )
    assert divisors == [one_plus_q, one_plus_q]


# -- the gcd returns its cofactors: g * (a/g) == a and g * (b/g) == b on
# every branch of `_gcd`, and the cache swaps them with its key


def _branches_taken(monkeypatch) -> list:
    """Spy on `_heugcd` and `_prs_gcd`: the names of those that ran."""
    taken = []
    for name in ("_heugcd", "_prs_gcd"):
        kernel = getattr(poly, name)

        def spy(*args, name=name, kernel=kernel):
            taken.append(name)
            return kernel(*args)

        monkeypatch.setattr(poly, name, spy)
    return taken


def _assert_cofactors(a, b):
    """The gcd and its cofactors, on a fresh cache: g * (a/g) == a, g *
    (b/g) == b, and g is `_poly_gcd`'s, with a positive leading
    coefficient."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly, "_GCD_CACHE", {})
        g, cf_a, cf_b = poly._poly_gcd_cofactors(a, b)
        assert g == _poly_gcd(a, b) and g[max(g)] > 0
    assert _poly_mul(g, cf_a) == a and _poly_mul(g, cf_b) == b
    return g, cf_a, cf_b


_F_G = _poly_mul(F_COMMON, G_COPRIME)
_F_H = _poly_mul(F_COMMON, H_COPRIME)
_TWO_Q = _int_poly(q=2)
_GCD_BRANCHES = {
    # (a, b, their gcd, whether the heuristic runs)
    "unit": (_int_poly(**{"1": 1}), _F_G, _int_poly(**{"1": 1}), False),
    "term": (_int_poly(**{"q^2_t": 6}), _poly_mul(_TWO_Q, G_COPRIME), _TWO_Q, False),
    "contents": (
        _poly_mul(_TWO_Q, _F_G),
        _poly_mul(_int_poly(**{"q^3_t": -6}), _F_H),
        _poly_mul(_TWO_Q, F_COMMON),
        True,
    ),
    "equal primitive parts": (
        _poly_mul(_int_poly(**{"1": 3}), F_COMMON),
        _poly_mul(_int_poly(**{"q_t": 2}), F_COMMON),
        F_COMMON,
        False,
    ),
    "constant candidate": (_F_G, H_COPRIME, _int_poly(**{"1": 1}), True),
    "nonconstant candidate": (_F_G, _F_H, F_COMMON, True),
}


@pytest.mark.parametrize("branch", sorted(_GCD_BRANCHES))
@pytest.mark.parametrize("forced", [False, True], ids=["heuristic", "remainders"])
def test_gcd_cofactors_on_every_branch(monkeypatch, branch, forced):
    a, b, want, heuristic = _GCD_BRANCHES[branch]
    if forced:
        monkeypatch.setattr(poly, "_heugcd", lambda f, g, v: None)
    taken = _branches_taken(monkeypatch)
    minus_a, minus_b = ({m: -c for m, c in p.items()} for p in (a, b))
    for x, y in ((a, b), (b, a), (minus_a, minus_b)):
        taken.clear()
        g, cf_x, cf_y = _assert_cofactors(x, y)
        assert g == want
        if not heuristic:
            assert taken == []
        elif forced:
            assert taken[:2] == ["_heugcd", "_prs_gcd"]
        else:
            assert taken[0] == "_heugcd" and "_prs_gcd" not in taken
        # a unit gcd found without division hands back the inputs themselves
        if want == _int_poly(**{"1": 1}) and not forced:
            assert cf_x is x and cf_y is y


# with monomial contents, which int_polys leaves out
int_polys_qt = st.dictionaries(exponents, int_coeffs, min_size=1, max_size=3).map(
    _packed
)


@settings(max_examples=40, deadline=None)
@given(int_polys_qt, int_polys_qt, int_polys_qt, st.booleans())
def test_gcd_cofactors_match_sympy_cancel(f, g, h, forced):
    # a/g and b/g are a / b in lowest terms over Z[q,t]: the fraction
    # sympy's cancel gives, and coprime, integer contents included
    sympy = pytest.importorskip("sympy")
    q, t = sympy.symbols("q t")
    a, b = _poly_mul(f, g), _poly_mul(f, h)
    with pytest.MonkeyPatch.context() as mp:
        if forced:
            mp.setattr(poly, "_heugcd", lambda f, g, v: None)
        _, cf_a, cf_b = _assert_cofactors(a, b)

    def expr(p):
        return sum(c * q**eq * t**et for (eq, et), c in _pairs(p).items())

    c, num, den = sympy.cancel((expr(a), expr(b)))
    assert sympy.expand(expr(cf_a) * den - c * num * expr(cf_b)) == 0
    assert sympy.gcd(expr(cf_a), expr(cf_b)) in (1, -1)


def test_gcd_cache_swaps_cofactors_with_its_key(monkeypatch):
    # one entry serves both orders of the inputs: the hit computes nothing
    # and returns the stored cofactors, swapped when the key is
    calls = []
    kernel = poly._gcd

    def counted(a, b, v):
        calls.append(v)
        return kernel(a, b, v)

    monkeypatch.setattr(poly, "_gcd", counted)
    for a, b in ((_F_G, _F_H), (_F_H, _F_G)):
        monkeypatch.setattr(poly, "_GCD_CACHE", {})
        g, cf_a, cf_b = poly._poly_gcd_cofactors(a, b)
        assert calls.count(1) == 1 and len(poly._GCD_CACHE) == 1
        calls.clear()
        again = poly._poly_gcd_cofactors(b, a)
        assert again[0] is g and again[1] is cf_b and again[2] is cf_a
        assert poly._poly_gcd_cofactors(a, b) == (g, cf_a, cf_b)
        assert calls == [] and len(poly._GCD_CACHE) == 1
        assert _poly_mul(g, cf_a) == a and _poly_mul(g, cf_b) == b


# -- the packed-monomial kernel: a key per monomial, a dense and a sparse
# exact division, and the exponent limit that keeps keys exact


_EXPONENTS_BELOW_LIMIT = st.integers(min_value=0, max_value=poly.EXP_LIMIT - 1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_EXPONENTS_BELOW_LIMIT, _EXPONENTS_BELOW_LIMIT), min_size=1))
def test_packed_keys_order_like_the_graded_key(pairs):
    keys = [_pack(eq, et) for eq, et in pairs]
    assert [_unpack(key) for key in keys] == pairs
    assert max(keys) == _pack(*max(pairs, key=_mono_key))
    # a product of monomials is a sum of keys
    (aq, at), (bq, bt) = pairs[0], pairs[-1]
    assert _unpack(keys[0] + keys[-1]) == (aq + bq, at + bt)


def _divexact_in(branch, a, b):
    """_poly_divexact forced down its dense or its sparse branch: the
    quotient, or None when it raises ArithmeticError."""
    with pytest.MonkeyPatch.context() as mp:
        if branch == "dense":
            mp.setattr(poly, "_DENSE_MIN_TERMS", 0)
            mp.setattr(poly, "_DENSE_FILL", float("inf"))
        else:
            mp.setattr(poly, "_DENSE_MIN_TERMS", float("inf"))
        try:
            return _poly_divexact(a, b)
        except ArithmeticError:
            return None


_DIVISION_EXPONENTS = st.tuples(
    st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5)
)
division_polys = st.dictionaries(_DIVISION_EXPONENTS, int_coeffs, min_size=1, max_size=6)


@settings(max_examples=150, deadline=None)
@given(division_polys, division_polys, division_polys)
def test_dense_and_sparse_division_agree(f, g, extra):
    f, g = _packed(f), _packed(g)
    assume(len(g) > 1)
    a = _poly_mul(f, g)
    assert _divexact_in("dense", a, g) == _divexact_in("sparse", a, g) == f
    # with other terms added the division is mostly inexact; both branches
    # raise on the same inputs, and agree on the quotient otherwise
    b = _poly_add(a, _packed(extra))
    got = _divexact_in("dense", b, g)
    assert got == _divexact_in("sparse", b, g)
    if got is not None:
        assert _poly_mul(got, g) == b


@pytest.mark.parametrize("branch", ["dense", "sparse"])
@pytest.mark.parametrize(
    "a, b",
    [
        # a coefficient the divisor's leading coefficient does not divide
        ({(0, 0): 3, (1, 0): 3}, {(0, 0): 2, (1, 0): 2}),
        # a negative quotient exponent: q for q^2, t for q*t
        ({(0, 0): 1, (1, 0): 1}, {(2, 0): 1, (0, 0): 1}),
        ({(1, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): 1}),
        ({(2, 0): 1, (0, 1): 1}, {(1, 1): 1, (0, 0): 1}),
        # q^3 + q^2 by t + 1: the sparse quotient q^3 / t borrows in its t
        # field (the dense branch finds more t in b than a row holds)
        ({(3, 0): 1, (2, 0): 1}, {(0, 1): 1, (0, 0): 1}),
        # q*t^2 + q by q + t: the dense quotient term t^2 would shift t in
        # q + t to t^3, past the last column (dt + deg_t(b) >= W), where
        # it would land on q and cancel it
        ({(1, 2): 1, (1, 0): 1}, {(1, 0): 1, (0, 1): 1}),
        # a divisor of higher degree in t than the dividend
        ({(1, 0): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 1}),
    ],
    ids=[
        "coefficient",
        "negative-q",
        "negative-t",
        "negative-t-dense-row",
        "t-borrow",
        "past-width",
        "deg-t",
    ],
)
def test_both_division_branches_raise_when_inexact(branch, a, b):
    assert _divexact_in(branch, _packed(a), _packed(b)) is None


def test_division_branch_by_size(monkeypatch):
    calls = []
    dense = poly._dense_divexact
    monkeypatch.setattr(
        poly, "_dense_divexact", lambda *args: calls.append(1) or dense(*args)
    )
    f = _packed({(i, j): 1 for i in range(6) for j in range(6)})
    g = _packed({(0, 0): 1, (1, 1): 1})
    # (1 + qt) times 36 terms: 47 terms in a 7 x 7 array go dense
    assert _poly_divexact(_poly_mul(f, g), g) == f and len(calls) == 1
    # with q t^400 in the divisor, 72 terms would need 7 x 406 entries
    g = _packed({(0, 0): 1, (1, 400): 1})
    assert _poly_divexact(_poly_mul(f, g), g) == f and len(calls) == 1
    # few terms stay sparse
    assert _poly_divexact(_packed({(1, 0): 1, (0, 0): 1}), _packed({(1, 0): 1, (0, 0): 1}))
    assert len(calls) == 1


_LIMIT = poly.EXP_LIMIT
_HALF = _LIMIT // 2


def test_exponent_limit_in_the_constructor():
    assert Coeff({(_LIMIT - 1, 0): 1}) == Q ** (_LIMIT - 1)
    for mono in ((_LIMIT, 0), (0, _LIMIT), (10**30, 1)):
        with pytest.raises(CoefficientError, match="must stay below 524288"):
            Coeff({mono: 1})
        with pytest.raises(CoefficientError, match="must stay below 524288"):
            Coeff({(0, 0): 1}, {mono: 2})
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        Coeff.from_t_poly({_LIMIT: 1})
    assert Coeff.from_t_poly({_LIMIT - 1: 2}) == 2 * T ** (_LIMIT - 1)


def test_exponent_limit_in_products_and_powers():
    with pytest.raises(CoefficientError):
        T**_HALF * T**_HALF
    with pytest.raises(CoefficientError):
        (ONE / T**_HALF) * (ONE / T**_HALF)
    with pytest.raises(CoefficientError):
        T**_LIMIT
    with pytest.raises(CoefficientError):
        (ONE / Q) ** _LIMIT
    # every exponent below the limit, though the total degree is not
    assert str(Q**_HALF * T**_HALF) == "q^262144*t^262144"
    assert str(T ** (_LIMIT - 1) / Q ** (_LIMIT - 1)) == "t^524287/q^524287"
    # the common denominator q^a * (1 + q^a t) has q^(2a)
    with pytest.raises(CoefficientError):
        ONE / Q**_HALF + ONE / (1 + Q**_HALF * T)
    a = _HALF - 1
    got = ONE / Q**a + ONE / (1 + Q**a * T)
    assert got * Q**a * (1 + Q**a * T) == 1 + Q**a * T + Q**a


def test_dot_near_the_exponent_limit_is_the_running_sum():
    # the largest raw denominator, q^a t^a, has total degree 2^19
    _assert_dot_is_running_sum([(ONE / Q**_HALF, ONE / T**_HALF), (ONE, ONE)])
    # q^a * t^a times the cofactor q could carry between fields
    _assert_dot_is_running_sum([(Q**_HALF, T**_HALF / Q), (ONE / Q**2, ONE)])
    # a sum past the limit raises from dot as from the running sum
    pairs = [(ONE / Q**_HALF, ONE), (ONE, ONE / (1 + Q**_HALF * T))]
    with pytest.raises(CoefficientError):
        dot(pairs)
    with pytest.raises(CoefficientError):
        sum((a * b for a, b in pairs), ZERO)


def test_dot_whose_summed_numerator_passes_the_limit_is_the_running_sum():
    # over the denominator (1 - t)(1 + t), the first numerator t^(2^19 - 1)
    # becomes t^(2^19 - 1) + t^(2^19): only the summed numerator passes
    pairs = [(T ** (_LIMIT - 1) / (1 - T), ONE), (ONE / (1 - T**2), ONE)]
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        dot(pairs)
    with pytest.raises(CoefficientError, match="must stay below 524288"):
        pairs[0][0] + pairs[1][0]


def test_poly_exceeds_reads_each_exponent():
    assert not poly._poly_exceeds({})
    assert not poly._poly_exceeds(_packed({(_LIMIT - 1, _LIMIT - 1): 1, (0, 0): 1}))
    assert poly._poly_exceeds(_packed({(_LIMIT, 0): 1, (0, 0): 1}))
    assert poly._poly_exceeds(_packed({(0, _LIMIT): 1}))
    assert poly._poly_exceeds(_packed({(_LIMIT - 1, _LIMIT - 1): 1, (0, _LIMIT): 1}))
