"""The conversion engine: graph routing, arithmetic, scalar products,
orthogonalization, operators, on-the-fly bases."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym import SymmetricFunctions
from qtsym.coeffs import ONE, T, ZERO, Coeff
from qtsym.errors import BasisError, PartitionError
from qtsym.linalg import CoeffMatrix
from qtsym.partitions import Partition, dominance_leq, partitions_of

CLASSICAL = ("m", "e", "h", "p", "s")


def test_registered_bases(S):
    names = [n for n, _ in S.bases()]
    assert names[:5] == list(CLASSICAL)
    assert {"P", "Q", "QP", "McdP"} <= set(names)


def test_element_construction_and_rendering(S):
    el = S["m"]([2, 1])
    assert str(el) == "m[2,1]"
    assert str(S["p"]()) == "p[]"
    assert str(S.zero("s")) == "0"
    two = S.element("m", {Partition([1]): Coeff.from_value(2)})
    assert str(two) == "2*m[1]"
    assert str(-two) == "-2*m[1]"


def test_rendering_order_and_parentheses(S):
    el = (
        S["m"]([3])
        + S["m"]([2, 1]).scaled(T + 1)
        + S["m"]([1, 1, 1]).scaled(T + 2)
    )
    assert str(el) == "(t + 2)*m[1,1,1] + (t + 1)*m[2,1] + m[3]"
    frac = S["m"]([1]).scaled(ONE / (1 - T))
    assert str(frac) == "-(1/(t - 1))*m[1]"


def test_conversion_star_examples(S):
    assert str(S.convert(S["p"]([2, 1]), "m")) == "m[2,1] + m[3]"
    assert str(S.convert(S["h"]([2]), "m")) == "m[1,1] + m[2]"
    assert str(S.convert(S["e"]([2]), "m")) == "m[1,1]"
    assert str(S.convert(S["s"]([2, 1]), "m")) == "2*m[1,1,1] + m[2,1]"


def test_identity_conversion_is_noop(S):
    el = S["s"]([2, 1])
    assert S.convert(el, "s") is el


def test_roundtrips_classical(S):
    for n in range(7):
        for frm in CLASSICAL:
            for to in CLASSICAL:
                if frm == to:
                    continue
                for lam in partitions_of(n):
                    el = S.element(frm, lam)
                    back = S.convert(S.convert(el, to), frm)
                    assert back == el, (frm, to, lam)


def test_inverse_kostka_degree_3(S):
    # invert the Schur-to-monomial matrix by hand and compare with the engine
    mat = S.conversion_matrix("s", "m", 3)
    inv = S.conversion_matrix("m", "s", 3)
    assert (mat @ inv).is_identity()
    assert (inv @ mat).is_identity()
    m211 = S.convert(S["m"]([2, 1]), "s")
    assert m211 == S["s"]([2, 1]) - 2 * S["s"]([1, 1, 1])
    assert S.convert(S["m"]([1, 1, 1]), "s") == S["s"]([1, 1, 1])


def test_unitriangular_families(S):
    # s, P, McdP expand over m with support below the index in dominance;
    # QP expands over s with support above it
    for n in range(7):
        for basis, anchor, downward in (
            ("s", "m", True),
            ("P", "m", True),
            ("McdP", "m", True),
            ("QP", "s", False),
        ):
            mat = S.conversion_matrix(basis, anchor, n)
            for lam in partitions_of(n):
                assert mat.entry(lam, lam).is_one(), (basis, lam)
                for mu in partitions_of(n):
                    if not mat.entry(mu, lam).is_zero() and mu != lam:
                        low, high = (mu, lam) if downward else (lam, mu)
                        assert dominance_leq(low, high), (basis, lam, mu)


def test_route_composition_is_consistent(S):
    # converting a -> b -> c must equal converting a -> c directly, for
    # every triple of bases; this pins down path independence of routing
    bases = [name for name, _ in S.bases()]
    for n in (2, 3):
        for a in bases:
            for b in bases:
                ab = S.conversion_matrix(a, b, n)
                for c in bases:
                    bc = S.conversion_matrix(b, c, n)
                    assert bc @ ab == S.conversion_matrix(a, c, n), (a, b, c, n)


def test_add_same_basis(S):
    h = S["h"]
    assert (h([2]) - h([2])).is_zero()
    el = h([2]) + h([1, 1])
    assert el.terms == {
        Partition([2]): ONE,
        Partition([1, 1]): ONE,
    }


def test_add_across_bases_picks_common_basis(S):
    mixed = S["s"]([2]) + S["p"]([2])
    assert mixed.basis == "m"
    assert mixed == S.convert(S["s"]([2]), "m") + S.convert(S["p"]([2]), "m")
    # the sum of a Schur element with itself stays put
    assert (S["s"]([2]) + S["s"]([2])).basis == "s"


def test_inhomogeneous_elements(S):
    el = S["p"]([2]) + S["p"]([1]) + S["p"]()
    m = S.convert(el, "m")
    assert m == S["m"]([2]) + S["m"]([1]) + S["m"]()
    assert S.convert(m, "p") == el


def test_multiplicative_products(S):
    p = S["p"]
    assert p([2]) * p([1]) == p([2, 1])
    assert p([3, 1]) * p([2]) == p([3, 2, 1])
    h = S["h"]
    assert h([1]) * h([2, 2]) == h([2, 2, 1])
    assert (2 * p([1])) * p([1]).scaled(T) == p([1, 1]).scaled(2 * T)


def test_schur_products(S):
    s = S["s"]
    assert s([1]) * s([1]) == s([2]) + s([1, 1])
    assert s([2, 1]) * s([1]) == s([3, 1]) + s([2, 2]) + s([2, 1, 1])
    assert s([2]) * s([2]) == s([4]) + s([3, 1]) + s([2, 2])
    assert s([1, 1]) * s([1, 1]) == s([2, 2]) + s([2, 1, 1]) + s([1, 1, 1, 1])
    assert s([2, 1]) * s([2, 1]) == (
        s([4, 2]) + s([4, 1, 1]) + s([3, 3]) + 2 * s([3, 2, 1]) + s([3, 1, 1, 1])
        + s([2, 2, 2]) + s([2, 2, 1, 1])
    )


def test_monomial_products(S):
    m = S["m"]
    assert m([1]) * m([1]) == 2 * m([1, 1]) + m([2])
    assert m([2]) * m([1]) == m([3]) + m([2, 1])
    assert m([1, 1]) * m([1]) == 3 * m([1, 1, 1]) + m([2, 1])
    assert m([2, 1]) * m() == m([2, 1])


def test_products_cross_check_via_powersums(S):
    # multiply in s, then verify through the multiplicative p route
    for a, b in [
        ([2, 1], [2]),
        ([2, 2], [1, 1]),
        ([3, 1], [2, 1]),
    ]:
        left = S["s"](a) * S["s"](b)
        right = S.convert(
            S.convert(S["s"](a), "p") * S.convert(S["s"](b), "p"), "s"
        )
        assert left == right


def test_mixed_basis_product_routes_through_h(S):
    got = S["p"]([2]) * S["s"]([1])
    assert got.basis == "h"
    assert got == S["p"]([2]) * S["p"]([1])
    # m times m uses the dedicated rule but equals the h route
    m = S["m"]
    via_h = S.convert(S.convert(m([2]), "h") * S.convert(m([1]), "h"), "m")
    assert m([2]) * m([1]) == via_h


def test_scalar_products_undeformed(S):
    p = S["p"]
    assert S.scalar(p([2, 1]), p([2, 1])) == Coeff.from_value(2)
    assert S.scalar(p([3]), p([3])) == Coeff.from_value(3)
    assert S.scalar(p([2]), p([1, 1])) == ZERO
    for n in range(6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                expected = Coeff.from_value(lam.zee()) if lam == mu else ZERO
                assert S.scalar(p(lam.parts), p(mu.parts)) == expected


def test_scalar_products_deformed(S):
    p = S["p"]
    two = Coeff.from_value(2)
    assert S.scalar(p([2]), p([2]), "hall_t") == two / (1 - T**2)
    got = S.scalar(p([2, 1]), p([2, 1]), "hall_qt")
    q = Coeff.var("q")
    expected = two * ((1 - q**2) / (1 - T**2)) * ((1 - q) / (1 - T))
    assert got == expected
    with pytest.raises(BasisError):
        S.scalar(p([1]), p([1]), "no_such_product")


def test_duality_h_m(S):
    for n in range(7):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = S.scalar(S["h"](lam.parts), S["m"](mu.parts))
                assert got == (ONE if lam == mu else ZERO), (lam, mu)


def test_schur_orthonormality(S):
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = S.scalar(S["s"](lam.parts), S["s"](mu.parts))
                assert got == (ONE if lam == mu else ZERO), (lam, mu)


def test_gram_schmidt_hall_recovers_schur(S):
    for n in range(6):
        fam = S.gram_schmidt(n, "hall")
        for lam in partitions_of(n):
            assert fam[lam] == S.convert(S["s"](lam.parts), "m"), lam


def test_gram_schmidt_is_orthogonal(S):
    for product in ("hall_t", "hall_qt"):
        fam = S.gram_schmidt(4, product)
        keys = list(fam)
        for i, lam in enumerate(keys):
            for mu in keys[i + 1 :]:
                assert S.scalar(fam[lam], fam[mu], product).is_zero()


def test_gram_schmidt_hall_t_degree_2(S):
    fam = S.gram_schmidt(2, "hall_t")
    assert fam[Partition([1, 1])] == S["m"]([1, 1])
    assert fam[Partition([2])] == S["m"]([2]) + S["m"]([1, 1]).scaled(1 - T)


def test_omega_involution_and_images(S):
    assert S.apply_operator("omega", S["h"]([3])) == S["e"]([3])
    assert S.apply_operator("omega", S["e"]([2, 1])) == S["h"]([2, 1])
    assert S.apply_operator("omega", S["s"]([2, 1])) == S["s"]([2, 1])
    assert S.apply_operator("omega", S["s"]([3, 1])) == S["s"]([2, 1, 1])
    for n in range(6):
        for lam in partitions_of(n):
            for basis in ("h", "s", "p"):
                el = S.element(basis, lam)
                twice = S.apply_operator("omega", S.apply_operator("omega", el))
                assert twice == el


def test_omega_is_linear(S):
    f = S["h"]([2, 1]).scaled(T) + S["h"]([3]).scaled(ONE / (1 - T))
    g = S["e"]([2, 1]).scaled(T) + S["e"]([3]).scaled(ONE / (1 - T))
    assert S.apply_operator("omega", f) == g
    with pytest.raises(BasisError):
        S.apply_operator("no_such_op", f)


def test_scaling_and_power(S):
    el = S["p"]([1])
    assert el / 2 == el.scaled(Coeff.from_value(Fraction(1, 2)))
    assert el**3 == S["p"]([1, 1, 1])
    assert el**0 == S["p"]()
    assert (el**2).coefficient(Partition([1, 1])) == ONE


def test_equality_with_scalars(S):
    assert S["p"]() == 1
    assert (S["p"]([1]) - S["p"]([1])) == 0
    assert S["m"]().scaled(T + 1) == T + 1
    assert S["p"]([1]) != 1


def test_equal_elements_hash_equal_examples():
    S = SymmetricFunctions()
    assert S["s"]([1]) == S["m"]([1])
    assert len({S["s"]([1]), S["m"]([1])}) == 1
    assert len({S["p"](), S["e"](), 1, Coeff.from_value(1)}) == 1
    assert hash(S.zero("h")) == hash(0) == hash(ZERO)


_terms = st.dictionaries(
    st.sampled_from([lam for n in range(4) for lam in partitions_of(n)]),
    st.sampled_from([ONE, -ONE, Coeff.from_value(Fraction(3, 2)), T, 1 - T]),
    max_size=4,
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("m", "e", "h", "p", "s", "P", "QP")),
    st.sampled_from(("m", "e", "h", "p", "s", "P", "QP")),
    _terms,
)
def test_equal_implies_equal_hash_across_bases(S, frm, to, terms):
    el = S.element(frm, terms)
    other = S.convert(el, to)
    assert el == other
    assert hash(el) == hash(other)
    assert len({el, other}) == 1


@settings(max_examples=40, deadline=None)
@given(st.fractions(max_denominator=20), st.sampled_from(("m", "s", "p", "QP")))
def test_constant_elements_hash_like_their_value(S, value, basis):
    el = S.one(basis).scaled(Coeff.from_value(value))
    assert el == value and hash(el) == hash(value)
    assert el == Coeff.from_value(value)
    assert hash(el) == hash(Coeff.from_value(value))


def test_element_substitute(S):
    el = S["m"]([1]).scaled(T + 1) + S["m"]([2]).scaled(Coeff.var("q"))
    at1 = el.substitute(t=1)
    assert at1 == S["m"]([1]).scaled(Coeff.from_value(2)) + S["m"]([2]).scaled(
        Coeff.var("q")
    )
    gone = S["m"]([1]).scaled(T).substitute(t=0)
    assert gone.is_zero()


def test_error_cases(S):
    with pytest.raises(BasisError):
        S.convert(S["m"]([1]), "nope")
    with pytest.raises(BasisError):
        S["nope"]
    with pytest.raises(PartitionError):
        S["m"]([1, 2])


def test_on_the_fly_basis_registration():
    S2 = SymmetricFunctions()
    U = S2.register_basis("U", "dominance lower sum of monomials")

    def expand(lam):
        return S2.element(
            "m",
            {
                mu: ONE
                for mu in partitions_of(lam.size)
                if dominance_leq(mu, lam)
            },
        )

    S2.declare_conversion("U", "m", expand)
    el = U([2, 1])
    in_m = S2.convert(el, "m")
    assert in_m == S2["m"]([2, 1]) + S2["m"]([1, 1, 1])
    assert S2.convert(in_m, "U") == el
    # mixes with every other registered basis through the graph
    mixed = el + S2["s"]([1, 1, 1])
    assert mixed == in_m + S2.convert(S2["s"]([1, 1, 1]), "m")
    prod = el * S2["p"]([1])
    assert prod == in_m * S2["p"]([1])
    back = S2.convert(S2["s"]([2, 1]), "U")
    assert S2.convert(back, "s") == S2["s"]([2, 1])


def test_duplicate_registration_rejected():
    S2 = SymmetricFunctions()
    with pytest.raises(BasisError):
        S2.register_basis("m")
    S2.register_basis("X")
    with pytest.raises(BasisError):
        S2.declare_conversion("m", "m", lambda lam: S2.element("m", lam))
    S2.declare_conversion("X", "m", lambda lam: S2.element("m", lam))
    with pytest.raises(BasisError):
        S2.declare_conversion("X", "m", lambda lam: S2.element("m", lam))


def test_disconnected_basis_fails_at_conversion_time():
    S2 = SymmetricFunctions()
    S2.register_basis("island")
    el = S2.element("island", Partition([1]))
    with pytest.raises(BasisError):
        S2.convert(el, "m")
    with pytest.raises(BasisError):
        el + S2["m"]([1])


def test_conversion_must_stay_in_declared_basis():
    S2 = SymmetricFunctions()
    S2.register_basis("bad")
    S2.declare_conversion("bad", "m", lambda lam: S2.element("p", lam))
    with pytest.raises(BasisError):
        S2.convert(S2.element("bad", Partition([1])), "m")


def test_transpose_conversion_forgotten_basis():
    S2 = SymmetricFunctions()
    f = S2.register_basis("f", "forgotten (transpose dual of e)")
    S2.declare_dual_pair("e", "f")
    # e expands over m; the duals of (e, m) are (f, h), so h expands over f
    S2.declare_transpose_conversion("e", "m", "h", "f")
    for n in range(5):
        emat = S2.conversion_matrix("e", "m", n)
        hmat = S2.conversion_matrix("h", "f", n)
        assert hmat == emat.transpose()
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                got = S2.scalar(f(lam.parts), S2["e"](mu.parts))
                assert got == (ONE if lam == mu else ZERO), (lam, mu)


def test_transpose_self_dual_schur():
    S2 = SymmetricFunctions()
    S2.register_basis("sT", "transpose route copy of s over m duality")
    # s self-dual and (m, h) dual: transpose of s->m lands h->sT
    S2.declare_transpose_conversion("s", "m", "h", "sT")
    for n in range(5):
        assert S2.conversion_matrix("h", "sT", n) == S2.conversion_matrix(
            "s", "m", n
        ).transpose()
        # sT agrees with s itself: <s_lam, s_mu> = delta
        for lam in partitions_of(n):
            el = S2.convert(S2.element("sT", lam), "m")
            assert el == S2.convert(S2["s"](lam.parts), "m")
