"""Hall-Littlewood P and Q, modified Hall-Littlewood Q', Macdonald P."""

import pytest

from qtsym.coeffs import ONE, Q, T, ZERO
from qtsym.errors import ScalarProductError
from qtsym.partitions import Partition, partitions_of
from qtsym.qt import _hhl_terms


def test_hall_littlewood_p_goldens(S):
    assert S.convert(S["P"]([1, 1]), "m") == S["m"]([1, 1])
    p2 = S.convert(S["P"]([2]), "m")
    assert p2 == S["m"]([2]) + S["m"]([1, 1]).scaled(1 - T)
    p21 = S.convert(S["P"]([2, 1]), "m")
    coeff = p21.coefficient(Partition([1, 1, 1]))
    assert coeff == (1 - T) * (2 + T)


def test_hall_littlewood_at_t_zero_is_schur(S):
    for n in range(6):
        for lam in partitions_of(n):
            specialized = S.convert(S.element("P", lam), "m").substitute(t=0)
            assert specialized == S.convert(S.element("s", lam), "m"), lam


def test_hall_littlewood_at_t_one_is_monomial(S):
    for n in range(6):
        for lam in partitions_of(n):
            specialized = S.convert(S.element("P", lam), "m").substitute(t=1)
            assert specialized == S.element("m", lam), lam


def test_q_is_scaled_p(S):
    # Q_lam = b_lam(t) P_lam with b_lam the product over part multiplicities
    # of (1-t)(1-t^2)...(1-t^m)
    for n in range(6):
        for lam in partitions_of(n):
            b = ONE
            for mult in lam.multiplicities().values():
                for j in range(1, mult + 1):
                    b = b * (1 - T**j)
            assert S.convert(S.element("Q", lam), "P") == S.element(
                "P", lam
            ).scaled(b), lam


def test_q_p_duality_deformed(S):
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = S.scalar(
                    S.element("Q", lam), S.element("P", mu), "hall_t"
                )
                assert got == (ONE if lam == mu else ZERO), (lam, mu)


def test_modified_hall_littlewood_goldens(S):
    expanded = S.convert(S["QP"]([2, 1]), "m")
    assert expanded.coefficient(Partition([1, 1, 1])) == T + 2
    assert expanded.coefficient(Partition([2, 1])) == T + 1
    assert expanded.coefficient(Partition([3])) == T
    assert str(expanded) == "(t + 2)*m[1,1,1] + (t + 1)*m[2,1] + t*m[3]"
    assert S.convert(S["QP"]([2, 1]), "s") == S["s"]([2, 1]) + S["s"](
        [3]
    ).scaled(T)
    assert S.convert(S["QP"]([1, 1]), "s") == S["s"]([1, 1]) + S["s"](
        [2]
    ).scaled(T)


def test_modified_hall_littlewood_specializations(S):
    for n in range(6):
        for lam in partitions_of(n):
            over_s = S.convert(S.element("QP", lam), "s")
            assert over_s.substitute(t=0) == S.element("s", lam), lam
            at_one = S.convert(over_s.substitute(t=1), "h")
            assert at_one == S.element("h", lam), lam


def test_modified_hall_littlewood_duality(S):
    # Q'_lam and P_mu are dual under the undeformed product
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = S.scalar(S.element("QP", lam), S.element("P", mu))
                assert got == (ONE if lam == mu else ZERO), (lam, mu)


def test_modified_hall_littlewood_coefficients_are_kostka_like(S):
    # every coefficient over s is a polynomial in t with nonnegative
    # integer coefficients
    for n in range(7):
        for lam in partitions_of(n):
            over_s = S.convert(S.element("QP", lam), "s")
            for mu, c in over_s.terms.items():
                terms = c.poly_terms()
                for (eq, et), value in terms.items():
                    assert eq == 0, (lam, mu)
                    assert value.denominator == 1, (lam, mu)
                    assert value > 0, (lam, mu)


def test_macdonald_goldens(S):
    mcd2 = S.convert(S["McdP"]([2]), "m")
    expected = S["m"]([2]) + S["m"]([1, 1]).scaled(
        (1 + Q) * (1 - T) / (1 - Q * T)
    )
    assert mcd2 == expected
    assert S.convert(S["McdP"]([1, 1]), "m") == S["m"]([1, 1])


def test_macdonald_column_is_elementary(S):
    for n in range(1, 7):
        lam = Partition([1] * n)
        assert S.convert(S.element("McdP", lam), "m") == S.convert(
            S["e"]([n]), "m"
        )


def test_macdonald_at_q_zero_is_hall_littlewood(S):
    for n in range(5):
        for lam in partitions_of(n):
            specialized = S.convert(S.element("McdP", lam), "m").substitute(q=0)
            assert specialized == S.convert(S.element("P", lam), "m"), lam


def test_macdonald_at_q_equals_t_is_schur(S):
    for n in range(5):
        for lam in partitions_of(n):
            el = S.convert(S.element("McdP", lam), "m")
            collapsed = el.map_coefficients(lambda c: c.substitute(q=T))
            assert collapsed == S.convert(S.element("s", lam), "m"), lam


def test_macdonald_norms_match_arm_leg_products(S):
    # <P_lam, P_lam>_{q,t} = prod over cells of
    # (1 - q^(arm+1) t^leg) / (1 - q^arm t^(leg+1))
    for n in range(5):
        for lam in partitions_of(n):
            conj = lam.conjugate()
            expected = ONE
            for i, row in enumerate(lam.parts):
                for j in range(row):
                    arm = row - j - 1
                    leg = conj.parts[j] - i - 1
                    expected = (
                        expected
                        * (1 - Q ** (arm + 1) * T**leg)
                        / (1 - Q**arm * T ** (leg + 1))
                    )
            el = S.element("McdP", lam)
            assert S.scalar(el, el, "hall_qt") == expected, lam


def test_macdonald_orthogonality(S):
    for n in range(5):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                if lam == mu:
                    continue
                got = S.scalar(
                    S.element("McdP", lam), S.element("McdP", mu), "hall_qt"
                )
                assert got.is_zero(), (lam, mu)


def _c_lam(lam):
    conj = lam.conjugate()
    out = ONE
    for i, row in enumerate(lam.parts):
        for j in range(row):
            out = out * (1 - Q ** (row - j - 1) * T ** (conj.parts[j] - i))
    return out


def test_hhl_fillings_golden():
    # H~_21 = s_3 + (q + t) s_21 + q t s_111, returned as t^n(lam) H~(q, 1/t)
    # over m, with n([2,1]) = 1
    assert _hhl_terms(Partition([2, 1])) == {
        Partition([3]): {(0, 1): 1},
        Partition([2, 1]): {(0, 1): 1, (1, 1): 1, (0, 0): 1},
        Partition([1, 1, 1]): {(0, 1): 1, (1, 1): 2, (0, 0): 2, (1, 0): 1},
    }


def test_macdonald_hhl_matches_gram_schmidt_oracle(S):
    # the McdP -> m edge comes from the Haglund-Haiman-Loehr formula; the
    # hall_qt Gram-Schmidt is an independent construction of the same family
    for n in range(6):
        oracle = S.gram_schmidt(n, "hall_qt")
        for lam in partitions_of(n):
            got = S.convert(S.element("McdP", lam), "m")
            assert got.terms == oracle[lam].terms, lam


def test_macdonald_integral_form_is_polynomial(S):
    # J_lam = c_lam P_lam has polynomial coefficients over m
    for n in range(7):
        for lam in partitions_of(n):
            el = S.convert(S.element("McdP", lam), "m").scaled(_c_lam(lam))
            for mu, c in el.terms.items():
                assert c.is_polynomial(), (lam, mu)


def test_macdonald_specializations_at_degree_6(S):
    to_m = S.conversion_matrix("McdP", "m", 6)
    p_to_m = S.conversion_matrix("P", "m", 6)
    s_to_m = S.conversion_matrix("s", "m", 6)
    for lam in partitions_of(6):
        for mu in partitions_of(6):
            c = to_m.entry(mu, lam)
            assert c.substitute(q=0) == p_to_m.entry(mu, lam), (lam, mu)
            assert c.substitute(q=T) == s_to_m.entry(mu, lam), (lam, mu)


def test_degenerate_scalar_product_is_reported():
    from qtsym import SymmetricFunctions

    fresh = SymmetricFunctions()
    fresh.register_scalar_product("degenerate", lambda lam: ZERO)
    with pytest.raises(ScalarProductError):
        fresh.gram_schmidt(2, "degenerate")
