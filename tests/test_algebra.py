"""The conversion engine: graph routing, arithmetic, scalar products,
orthogonalization, operators, on-the-fly bases."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtsym import SymmetricFunctions
from qtsym.classical import (
    _margin_matrix_count,
    complete_to_monomial,
    elementary_to_monomial,
)
from qtsym.coeffs import ONE, Q, T, ZERO, Coeff
from qtsym.errors import BasisError, PartitionError
from qtsym.linalg import CoeffMatrix
from qtsym.partitions import Partition, distinct_permutations, dominance_leq, partitions_of

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


def _brute_margin_count(rows, cols, zero_one: bool) -> int:
    """Matrices with the given row and column sums, found by trying every
    row vector of each row sum."""
    top = 1 if zero_one else max(rows, default=0)
    choices = [
        [v for v in itertools.product(range(top + 1), repeat=len(cols)) if sum(v) == r]
        for r in rows
    ]
    return sum(
        1
        for matrix in itertools.product(*choices)
        if all(sum(col) == c for col, c in zip(zip(*matrix), cols))
    )


def test_h_and_e_to_m_match_brute_force():
    for n in range(6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for zero_one, table in (
                    (False, complete_to_monomial),
                    (True, elementary_to_monomial),
                ):
                    expected = _brute_margin_count(lam.parts, mu.parts, zero_one)
                    assert table(lam).get(mu, 0) == expected, (lam, mu, zero_one)


def test_margin_count_ignores_column_order_and_zero_columns():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for zero_one in (False, True):
                    count = _margin_matrix_count(lam.parts, mu.parts, zero_one)
                    for cols in distinct_permutations(mu.parts + (0, 0)):
                        assert _margin_matrix_count(lam.parts, cols, zero_one) == count


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


def test_scalars_minus_elements(S):
    s1 = S["s"]([1])
    for value in (3, Fraction(1, 2), 1 - Q / T):
        got = value - s1
        assert got.basis == "s"
        assert got.terms == {Partition(): Coeff.from_value(value), Partition([1]): -ONE}
        assert got == -(s1 - value)
    with pytest.raises(TypeError):
        "x" - s1


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


@pytest.mark.parametrize("basis", ["s", "m", "p", "P", "McdP"])
def test_element_powers_equal_repeated_products(S, basis):
    b = S[basis]
    for f in (b([1]) + b([2]).scaled(Q), b([1]).scaled(ONE / (1 - T)), b().scaled(1 + Q)):
        product = S.one(basis)
        for n in range(4):
            got = f**n
            assert got.basis == product.basis and got.terms == product.terms, n
            product = product * f


def test_powers_of_degree_zero_elements_square(S):
    # squaring takes 18 element products here, not 200,000
    assert S["s"]() ** 200000 == S["s"]()
    c = (1 + Q) / (1 - T)
    assert S["m"]().scaled(c) ** 40 == S["m"]().scaled(c**40)
    with pytest.raises(BasisError):
        S["s"]() ** -1


def test_sums_that_cancel_leave_no_zero_term(S):
    s, m, p = S["s"], S["m"], S["p"]
    pair, three, eleven = Partition([1, 1]), Partition([3]), Partition([1, 1, 1])
    assert ((s([2]) + s([1, 1])) + (s([3]) - s([2]))).terms == {pair: ONE, three: ONE}
    # multiplicative rule: p[2,1] arises twice with opposite signs
    got = (p([1]) + p([2])) * (p([1]) - p([2]))
    assert got.terms == {pair: ONE, Partition([2, 2]): -ONE}
    # structure rules: m[2,1] and s[2,1] arise twice with opposite signs
    assert (m([1]) * (m([2]) - m([1, 1]))).terms == {three: ONE, eleven: -3 * ONE}
    assert (s([1]) * (s([2]) - s([1, 1]))).terms == {three: ONE, eleven: -ONE}
    S2 = SymmetricFunctions()
    S2.declare_operator("top", "p", lambda lam: S2["s"]([lam.size]))
    got = S2.apply_operator("top", S2["p"]([2]) - S2["p"]([1, 1]) + S2["p"]([3]))
    assert got.basis == "s" and got.terms == {three: ONE}


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


def _zee_weight(product, lam):
    """<p_lam, p_lam> for the three built-in pairings."""
    out = Coeff.from_value(lam.zee())
    for part in lam:
        if product == "hall_qt":
            out = out * (1 - Q**part)
        if product != "hall":
            out = out / (1 - T**part)
    return out


def _reference_scalar(S, f, g, product, weight=None):
    """<f, g> from both arguments in p, added one product at a time;
    weight(lam) is <p_lam, p_lam>, by default that of a built-in pairing."""
    if weight is None:
        weight = lambda lam: _zee_weight(product, lam)  # noqa: E731
    fp, gp = S.convert(f, "p").terms, S.convert(g, "p").terms
    total = ZERO
    for lam, c in fp.items():
        if lam in gp:
            total = total + c * gp[lam] * weight(lam)
    return total


_PAIRING_BASES = ("m", "s", "h", "p", "P", "Q", "QP", "McdP")
_PAIRING_COEFFS = (ONE, -ONE, Coeff.from_value(Fraction(3, 2)), T, 1 - Q, Q / (1 - T))


def _random_element(S, rng, basis, degrees):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        lam = rng.choice(partitions_of(rng.choice(degrees)))
        terms[lam] = rng.choice(_PAIRING_COEFFS)
    return S.element(basis, terms)


@pytest.mark.parametrize("product", ["hall", "hall_t", "hall_qt"])
def test_scalar_equals_running_sum_in_p(S, product):
    rng = random.Random(product)
    for n in range(1, 5):
        for a in _PAIRING_BASES:
            for b in _PAIRING_BASES:
                degrees = (n,) if rng.random() < 0.75 else (n, rng.randint(1, 4))
                f = _random_element(S, rng, a, degrees)
                g = _random_element(S, rng, b, degrees)
                expected = _reference_scalar(S, f, g, product)
                assert S.scalar(f, g, product) == expected, (f, g)


def _odd_parts_weight(lam):
    """The hall_qt diagonal on partitions into odd parts, zero elsewhere."""
    if any(part % 2 == 0 for part in lam):
        return ZERO
    return _zee_weight("hall_qt", lam)


@pytest.mark.parametrize(
    "name, weight",
    [("degenerate", lambda lam: ZERO), ("odd_parts", _odd_parts_weight)],
    ids=["degenerate", "odd_parts"],
)
def test_scalar_with_zeros_on_the_diagonal_equals_running_sum(name, weight):
    fresh = SymmetricFunctions()
    fresh.register_scalar_product(name, weight)
    rng = random.Random(name)
    for n in range(1, 5):
        for a in _PAIRING_BASES:
            for b in _PAIRING_BASES:
                f = _random_element(fresh, rng, a, (n,))
                g = _random_element(fresh, rng, b, (n,))
                expected = _reference_scalar(fresh, f, g, name, weight)
                assert fresh.scalar(f, g, name) == expected, (f, g)


def test_scalar_lifts_g_at_most_once(S, monkeypatch):
    """g's powersum expansion is lifted at most once per pairing, also when
    it does not nest and several terms of f pair with it."""
    import qtsym.algebra

    p = lambda *parts: S.element("p", {Partition(parts): ONE})  # noqa: E731
    g = p(2, 1) / (1 - Q) + p(3) / (1 - T)  # denominators that do not nest
    f = S.element("s", {lam: ONE for lam in partitions_of(3)})
    products = ("hall", "hall_t", "hall_qt")
    for product in products:
        S.scalar(f, g, product)  # the weighted columns are now kept
    lifts = []
    real = qtsym.algebra._lifted

    def counting(entries):
        lifts.append(entries)
        return real(entries)

    monkeypatch.setattr(qtsym.algebra, "_lifted", counting)
    for product in products:
        lifts.clear()
        assert S.scalar(f, g, product) == _reference_scalar(S, f, g, product)
        assert len(lifts) <= 1, product
        if product == "hall":  # rational columns, which nest
            assert len(lifts) == 1


_ALPHABETS = (ONE, 1 - T, ONE / (1 - T), (1 - Q) / (1 - T), Q + T, Fraction(-1, 2))


def test_plethysm_is_a_ring_map(S):
    rng = random.Random("ring map")
    for a in _ALPHABETS:
        for _ in range(6):
            f = _random_element(S, rng, rng.choice(_PAIRING_BASES), (1, 2))
            g = _random_element(S, rng, rng.choice(_PAIRING_BASES), (1, 2))
            assert S.plethysm(f * g, a) == S.plethysm(f, a) * S.plethysm(g, a)


def test_plethysm_composes(S):
    rng = random.Random("composes")
    for a in _ALPHABETS:
        for b in _ALPHABETS:
            f = _random_element(S, rng, rng.choice(_PAIRING_BASES), (2, 3))
            assert S.plethysm(S.plethysm(f, a), b) == S.plethysm(f, a * b)


def test_plethysm_is_linear_and_fixes_one(S):
    rng = random.Random("linear")
    for a in _ALPHABETS:
        f = _random_element(S, rng, "s", (1, 3))
        g = _random_element(S, rng, "McdP", (2, 3))
        c = rng.choice(_PAIRING_COEFFS)
        got = S.plethysm(f * c + g, a)
        assert got == S.plethysm(f, a) * c + S.plethysm(g, a)
        one = S.plethysm(f, 1)
        assert one.basis == "p" and one.terms == S.convert(f, "p").terms
    # p_k[q] = q^k, and rational constants stay fixed
    p = S["p"]
    assert S.plethysm(p([2, 1]) + 3, Q).terms == {
        Partition([2, 1]): Q**3,
        Partition(): Coeff.from_value(3),
    }


@pytest.mark.parametrize(
    "product, alphabet", [("hall_t", ONE / (1 - T)), ("hall_qt", (1 - Q) / (1 - T))]
)
def test_deformed_products_are_hall_against_a_plethysm(S, product, alphabet):
    # <f, g>_A = <f, g[XA]>
    s, h = S["s"], S["h"]
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                f, g = s(lam.parts), h(mu.parts)
                want = S.scalar(f, S.plethysm(g, alphabet), "hall")
                assert S.scalar(f, g, product) == want, (lam, mu)


def test_built_in_diagonals_are_their_closed_forms(S):
    for product in ("hall", "hall_t", "hall_qt"):
        for n in range(9):
            for nu in partitions_of(n):
                assert S._diagonal(product, nu) == _zee_weight(product, nu)


def test_pairings_follow_registrations_made_after_them():
    S2 = SymmetricFunctions()
    X = S2.register_basis("X", "a copy of m")
    S2.declare_conversion("X", "m", lambda lam: S2.element("m", lam))
    p11 = S2["p"]([1, 1])
    assert S2.scalar(X([1, 1]), p11) == ONE
    h11 = S2["h"]([1, 1])
    assert S2.scalar(X([1, 1]), h11, "hall_t") == _reference_scalar(
        S2, S2["m"]([1, 1]), h11, "hall_t"
    )
    # a basis registered after a pairing pairs at once
    Y = S2.register_basis("Y", "a copy of h")
    S2.declare_conversion("Y", "h", lambda lam: S2.element("h", lam))
    assert S2.scalar(X([1, 1]), Y([1, 1])) == ONE
    assert S2.scalar(Y([2]), X([2])) == ONE
    # a direct edge X -> p reroutes X to p; pairings follow the new route
    S2.declare_conversion("X", "p", lambda lam: S2.element("p", lam))
    assert S2.convert(X([1, 1]), "p") == p11
    assert S2.scalar(X([1, 1]), p11) == Coeff.from_value(2)
    assert S2.scalar(X([1, 1]), p11, "hall_t") == 2 / (1 - T) ** 2
    S2.register_scalar_product("double", lambda lam: Coeff.from_value(2 * lam.zee()))
    assert S2.scalar(X([1, 1]), p11, "double") == Coeff.from_value(4)


def test_conversion_matrix_is_the_product_along_its_path():
    S2 = SymmetricFunctions()
    bases = [name for name, _ in S2.bases()]
    for n in range(5):
        for a in bases:
            for b in bases:
                if a == b:
                    continue
                got = S2.conversion_matrix(a, b, n)
                expected = None
                for edge in S2._find_path(a, b):
                    step = S2._edge_matrix(edge, n)
                    expected = step if expected is None else step @ expected
                assert got == expected, (a, b, n)


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


def test_operator_images_in_several_bases():
    S2 = SymmetricFunctions()
    s, m, p = S2["s"], S2["m"], S2["p"]

    def split(lam):
        # images in s for partitions of odd length, in m for the others
        if len(lam) % 2:
            return s(lam).scaled(Q) + s([lam.size])
        return m(lam).scaled(ONE / (1 - T))

    S2.declare_operator("split", "p", split)
    f = p([2, 1]).scaled(T) + p([3]) + p([1, 1, 1]).scaled(ONE / (1 - Q)) + p([2])
    got = S2.apply_operator("split", f)
    want = S2.zero("p")
    for lam, c in f.terms.items():
        want = S2.add(want, split(lam).scaled(c))
    assert got == want
    assert got.basis == "m"
    # an element outside the operator's basis is converted first
    assert S2.apply_operator("split", S2.convert(f, "h")) == want

    # images that cancel leave zero: across two bases once they are
    # merged, and within one; the zero element maps to zero
    def cancel(lam):
        image = s([lam.size])
        if len(lam) == 1:
            return image
        return S2.convert(image, "m").scaled(-ONE / (len(lam) - 1))

    S2.declare_operator("cancel", "p", cancel)
    for g in (
        p([2]) + p([1, 1]),
        p([3]).scaled(2) + p([2, 1]) + p([1, 1, 1]).scaled(2),
        p([2, 1]) - p([1, 1, 1]).scaled(2),
    ):
        assert S2.apply_operator("cancel", g).is_zero()
    zero = S2.apply_operator("split", S2.zero("h"))
    assert zero.is_zero() and zero.basis == "p"


def test_operator_images_are_cached_per_registry():
    calls = []

    def counting(S):
        def action(lam):
            calls.append(lam)
            return S.element("p", lam).scaled(Q)

        return action

    S1, S2 = SymmetricFunctions(), SymmetricFunctions()
    S1.declare_operator("qtimes", "p", counting(S1))
    S2.declare_operator("qtimes", "p", counting(S2))
    f = S1["p"]([2, 1]) + S1["p"]([3]).scaled(T) + S1["p"]([1])
    want = f.scaled(Q)
    for _ in range(3):
        assert S1.apply_operator("qtimes", f) == want
    assert sorted(calls) == sorted(f.terms)
    # the second registry keeps its own images: its action runs again
    g = S2["p"]([2, 1]) + S2["p"]([3]).scaled(T) + S2["p"]([1])
    assert S2.apply_operator("qtimes", g) == g.scaled(Q)
    assert len(calls) == 2 * len(f.terms)
    # s[2] is (p[2] + p[1,1])/2, two partitions new to S1
    assert S1.apply_operator("qtimes", S1["s"]([2])) == S1["s"]([2]).scaled(Q)
    assert len(calls) == 2 * len(f.terms) + 2


def test_operator_non_element_image_raises_every_call():
    S2 = SymmetricFunctions()
    calls = []

    def broken(lam):
        calls.append(lam)
        return ONE

    S2.declare_operator("broken", "p", broken)
    for attempt in (1, 2, 3):
        with pytest.raises(BasisError):
            S2.apply_operator("broken", S2["p"]([2]))
        assert len(calls) == attempt


def test_convert_splits_by_degree(S):
    pieces = [
        S["s"]([2, 1]).scaled(T),
        S["s"]([3]).scaled(ONE / (1 - Q)),
        S["s"]([1]).scaled(Q),
        S["s"]([2, 2]) - S["s"]([3, 1]),
        S["s"]().scaled(Coeff.from_value(Fraction(1, 2))),
    ]
    mixed = S.zero("s")
    for piece in pieces:
        mixed = mixed + piece
    for target in ("m", "p", "QP", "McdP"):
        got = S.convert(mixed, target)
        want = S.zero(target)
        for piece in pieces:
            want = S.add(want, S.convert(piece, target))
        assert got.basis == target and got.terms == want.terms
    zero = S.convert(S.zero("s"), "McdP")
    assert zero.is_zero() and zero.basis == "McdP"


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
    S2.register_basis("f")
    S2.declare_transpose_conversion("e", "m", "h", "f")
    with pytest.raises(BasisError, match="h -> f is already registered"):
        S2.declare_transpose_conversion("e", "m", "h", "f")
    with pytest.raises(BasisError, match="h -> f is already registered"):
        S2.declare_conversion("h", "f", lambda lam: S2.element("f", lam))
    # a transpose onto an explicit edge's pair
    with pytest.raises(BasisError, match="p -> m is already registered"):
        S2.declare_transpose_conversion("m", "p", "p", "m")


def test_bases_and_the_default_basis_follow_registration_order():
    S2 = SymmetricFunctions()
    S2.register_basis("Z", "registered last")
    names = [n for n, _ in S2.bases()]
    assert names == [*CLASSICAL, "P", "Q", "QP", "McdP", "Z"]
    assert S2.zero().basis == S2.one().basis == "m"
    assert S2.one() == S2["m"]()


def test_explicit_reverse_edge_replaces_the_derived_inverse():
    S2 = SymmetricFunctions()
    S2.register_basis("X")
    S2.declare_conversion("X", "m", lambda lam: S2.element("m", lam))
    assert S2.convert(S2["m"]([2, 1]), "X") == S2["X"]([2, 1])
    # a rule that is not the inverse shows which edge the route takes
    S2.declare_conversion("m", "X", lambda lam: 2 * S2.element("X", lam))
    assert S2.convert(S2["m"]([2, 1]), "X") == 2 * S2["X"]([2, 1])
    assert S2.convert(S2["X"]([2, 1]), "m") == S2["m"]([2, 1])


# The edge chain of every route, by edge key: "a->b" is an explicit edge and
# "a->b~inv" its inverse.  A new basis or edge that reroutes an existing
# pair shows up here.
DEFAULT_ROUTES = {
    ("m", "e"): "e->m~inv",
    ("m", "h"): "h->m~inv",
    ("m", "p"): "p->m~inv",
    ("m", "s"): "s->m~inv",
    ("m", "P"): "P->m~inv",
    ("m", "Q"): "P->m~inv Q->P~inv",
    ("m", "QP"): "s->m~inv QP->s~inv",
    ("m", "McdP"): "McdP->m~inv",
    ("e", "m"): "e->m",
    ("e", "h"): "e->m h->m~inv",
    ("e", "p"): "e->m p->m~inv",
    ("e", "s"): "e->m s->m~inv",
    ("e", "P"): "e->m P->m~inv",
    ("e", "Q"): "e->m P->m~inv Q->P~inv",
    ("e", "QP"): "e->m s->m~inv QP->s~inv",
    ("e", "McdP"): "e->m McdP->m~inv",
    ("h", "m"): "h->m",
    ("h", "e"): "h->m e->m~inv",
    ("h", "p"): "h->m p->m~inv",
    ("h", "s"): "h->m s->m~inv",
    ("h", "P"): "h->m P->m~inv",
    ("h", "Q"): "h->m P->m~inv Q->P~inv",
    ("h", "QP"): "h->m s->m~inv QP->s~inv",
    ("h", "McdP"): "h->m McdP->m~inv",
    ("p", "m"): "p->m",
    ("p", "e"): "p->m e->m~inv",
    ("p", "h"): "p->m h->m~inv",
    ("p", "s"): "p->m s->m~inv",
    ("p", "P"): "p->m P->m~inv",
    ("p", "Q"): "p->m P->m~inv Q->P~inv",
    ("p", "QP"): "p->m s->m~inv QP->s~inv",
    ("p", "McdP"): "p->m McdP->m~inv",
    ("s", "m"): "s->m",
    ("s", "e"): "s->m e->m~inv",
    ("s", "h"): "s->m h->m~inv",
    ("s", "p"): "s->m p->m~inv",
    ("s", "P"): "s->m P->m~inv",
    ("s", "Q"): "s->m P->m~inv Q->P~inv",
    ("s", "QP"): "QP->s~inv",
    ("s", "McdP"): "s->m McdP->m~inv",
    ("P", "m"): "P->m",
    ("P", "e"): "P->m e->m~inv",
    ("P", "h"): "P->m h->m~inv",
    ("P", "p"): "P->m p->m~inv",
    ("P", "s"): "P->m s->m~inv",
    ("P", "Q"): "Q->P~inv",
    ("P", "QP"): "P->m s->m~inv QP->s~inv",
    ("P", "McdP"): "P->m McdP->m~inv",
    ("Q", "m"): "Q->P P->m",
    ("Q", "e"): "Q->P P->m e->m~inv",
    ("Q", "h"): "Q->P P->m h->m~inv",
    ("Q", "p"): "Q->P P->m p->m~inv",
    ("Q", "s"): "Q->P P->m s->m~inv",
    ("Q", "P"): "Q->P",
    ("Q", "QP"): "Q->P P->m s->m~inv QP->s~inv",
    ("Q", "McdP"): "Q->P P->m McdP->m~inv",
    ("QP", "m"): "QP->s s->m",
    ("QP", "e"): "QP->s s->m e->m~inv",
    ("QP", "h"): "QP->s s->m h->m~inv",
    ("QP", "p"): "QP->s s->m p->m~inv",
    ("QP", "s"): "QP->s",
    ("QP", "P"): "QP->s s->m P->m~inv",
    ("QP", "Q"): "QP->s s->m P->m~inv Q->P~inv",
    ("QP", "McdP"): "QP->s s->m McdP->m~inv",
    ("McdP", "m"): "McdP->m",
    ("McdP", "e"): "McdP->m e->m~inv",
    ("McdP", "h"): "McdP->m h->m~inv",
    ("McdP", "p"): "McdP->m p->m~inv",
    ("McdP", "s"): "McdP->m s->m~inv",
    ("McdP", "P"): "McdP->m P->m~inv",
    ("McdP", "Q"): "McdP->m P->m~inv Q->P~inv",
    ("McdP", "QP"): "McdP->m s->m~inv QP->s~inv",
}

BOTH_WAYS_ROUTES = {
    ("m", "X"): "m->X",
    ("e", "X"): "e->m m->X",
    ("h", "X"): "h->m m->X",
    ("p", "X"): "p->m m->X",
    ("s", "X"): "s->m m->X",
    ("P", "X"): "P->m m->X",
    ("Q", "X"): "Q->P P->m m->X",
    ("QP", "X"): "QP->s s->m m->X",
    ("McdP", "X"): "McdP->m m->X",
    ("X", "m"): "X->m",
    ("X", "e"): "X->m e->m~inv",
    ("X", "h"): "X->m h->m~inv",
    ("X", "p"): "X->m p->m~inv",
    ("X", "s"): "X->m s->m~inv",
    ("X", "P"): "X->m P->m~inv",
    ("X", "Q"): "X->m P->m~inv Q->P~inv",
    ("X", "QP"): "X->m s->m~inv QP->s~inv",
    ("X", "McdP"): "X->m McdP->m~inv",
}


def _route_table(S2, pairs):
    return {
        (frm, to): " ".join(e.key for e in S2._find_path(frm, to))
        for frm, to in pairs
    }


def test_route_table_of_the_default_bases():
    nine = (*CLASSICAL, "P", "Q", "QP", "McdP")
    assert set(DEFAULT_ROUTES) == set(itertools.permutations(nine, 2))
    assert _route_table(SymmetricFunctions(), DEFAULT_ROUTES) == DEFAULT_ROUTES


def test_route_table_with_explicit_edges_both_ways():
    S2 = SymmetricFunctions()
    S2.register_basis("X")
    S2.declare_conversion("X", "m", lambda lam: S2.element("m", lam))
    S2.declare_conversion("m", "X", lambda lam: 2 * S2.element("X", lam))
    names = [n for n, _ in S2.bases()]
    pairs = [p for p in itertools.permutations(names, 2) if "X" in p]
    assert _route_table(S2, pairs) == BOTH_WAYS_ROUTES
    # routes between the default bases do not change
    assert _route_table(S2, DEFAULT_ROUTES) == DEFAULT_ROUTES


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
