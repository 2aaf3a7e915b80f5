"""Exact Q(q,t) arithmetic: canonical form, gcd reduction, substitution."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym.coeffs import ONE, Q, T, ZERO, Coeff
from qtsym.errors import CoefficientError


def poly(**monos) -> Coeff:
    """Build a polynomial coefficient from {'q^a*t^b': value} style keys."""
    out = ZERO
    for key, val in monos.items():
        term = Coeff.from_value(Fraction(val))
        for factor in key.split("_"):
            if factor == "1":
                continue
            name, _, exp = factor.partition("^")
            base = Q if name == "q" else T
            term = term * base ** (int(exp) if exp else 1)
        out = out + term
    return out


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
