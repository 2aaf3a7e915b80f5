"""Acceptance gate: one test per advertised guarantee of the package.

Each test records one line, ``criterion N: PASS/FAIL``, together with its
elapsed time and budget; conftest.py replays the collected lines as an
"acceptance criteria" block at the end of the run, so a plain
``pytest -v tests/test_acceptance.py`` ends with a checklist of everything
the library promises:

 1. golden Hall-Littlewood expansions, exact
 2. the 3-element ribbon tableau list
 3. engine coherence: round-trips and path independence
 4. dualities for all four advertised pairings
 5. specializations of P, QP and McdP as matrix identities
 6. Kostka polynomials: charge, orthogonality and rigged routes agree
 7. LLT polynomials: Schur base case, t=1 factorization, symmetry,
    positivity
 8. the omega involution
 9. on-the-fly basis registration
"""

import functools
import time

from qtsym.algebra import SymmetricFunctions
from qtsym.coeffs import ONE, T, ZERO, Coeff
from qtsym.exprs import evaluate
from qtsym.llt import generalized_kostka, llt_in_m
from qtsym.partitions import Partition, distinct_permutations, partitions_of
from qtsym.ribbons import core_and_quotient, ribbon_tableaux
from qtsym.rigged import rc_kostka
from qtsym.tableaux import kostka_poly

BASES = ("m", "e", "h", "p", "s", "P", "Q", "QP", "McdP")

# One verdict line per criterion, replayed by pytest_terminal_summary in
# conftest.py after capture is released.
RESULTS: list[str] = []


def criterion(num: int, label: str, budget: float):
    """Time the wrapped test and record a one-line verdict for it."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.time() - start
                line = f"criterion {num}: FAIL after {elapsed:.2f}s - {label}"
                RESULTS.append(line)
                print(line)
                raise
            elapsed = time.time() - start
            line = (
                f"criterion {num}: PASS in {elapsed:.2f}s"
                f" (budget {budget:.0f}s) - {label}"
            )
            RESULTS.append(line)
            print(line)
            assert elapsed < budget, (
                f"criterion {num} exceeded its {budget:.0f}s budget"
                f" ({elapsed:.1f}s)"
            )

        return wrapper

    return decorate


def _delta(a, b) -> Coeff:
    return ONE if a == b else ZERO


@criterion(1, "golden Hall-Littlewood expansions", 1.0)
def test_criterion_1_golden_expansions(S):
    el = evaluate(S, "to_m(QP[2,1])")
    assert el.basis == "m"
    assert el.terms == {
        Partition((1, 1, 1)): T + Coeff.from_value(2),
        Partition((2, 1)): T + ONE,
        Partition((3,)): T,
    }
    mixed = evaluate(S, "s[2,1] + QP[2,1] + p[2,1]")
    assert mixed.basis == "m"
    assert mixed.terms == {
        Partition((1, 1, 1)): T + Coeff.from_value(4),
        Partition((2, 1)): T + Coeff.from_value(3),
        Partition((3,)): T + ONE,
    }


@criterion(2, "ribbon tableau count for shape (4,3,2)", 1.0)
def test_criterion_2_ribbon_count():
    assert len(ribbon_tableaux(Partition((4, 3, 2)), (1, 1, 1), 3)) == 3


@criterion(3, "engine round-trips and path independence", 300.0)
def test_criterion_3_engine_coherence(S):
    # Round-trips among all nine bases are the identity up to degree 6.
    for n in range(7):
        for a in BASES:
            for b in BASES:
                if a == b:
                    continue
                forth = S.conversion_matrix(a, b, n)
                back = S.conversion_matrix(b, a, n)
                assert (back @ forth).is_identity(), (a, b, n)

    # Any two routes agree: composing a->b->c matches the direct route,
    # for every ordered triple of bases.
    for n in range(5):
        for a in BASES:
            for b in BASES:
                for c in BASES:
                    composed = S.conversion_matrix(b, c, n) @ S.conversion_matrix(
                        a, b, n
                    )
                    assert composed == S.conversion_matrix(a, c, n), (a, b, c, n)

    # A basis wired to two neighbors creates genuinely distinct minimal
    # paths; both must produce the same matrices as the engine's choice.
    S3 = SymmetricFunctions()
    S3.register_basis("v", "schur copy adjacent to p and e")
    S3.declare_conversion("v", "p", lambda lam: S3.convert(S3.element("s", lam), "p"))
    S3.declare_conversion("v", "e", lambda lam: S3.convert(S3.element("s", lam), "e"))
    for n in range(1, 6):
        via_p = S3.conversion_matrix("p", "m", n) @ S3.conversion_matrix("v", "p", n)
        via_e = S3.conversion_matrix("e", "m", n) @ S3.conversion_matrix("v", "e", n)
        engine = S3.conversion_matrix("v", "m", n)
        assert via_p == via_e == engine == S3.conversion_matrix("s", "m", n), n
        assert (S3.conversion_matrix("m", "v", n) @ engine).is_identity(), n


@criterion(4, "duality of (h,m), (s,s), (QP,P) and (Q,P)_t", 300.0)
def test_criterion_4_dualities(S):
    pairings = (
        ("h", "m", "hall"),
        ("s", "s", "hall"),
        ("QP", "P", "hall"),
        ("Q", "P", "hall_t"),
    )
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                for left, right, product in pairings:
                    value = S.scalar(
                        S.element(left, lam), S.element(right, mu), product
                    )
                    assert value == _delta(lam, mu), (left, right, lam, mu)


@criterion(5, "specializations of P, QP and McdP", 600.0)
def test_criterion_5_specializations(S):
    cases = (
        ("P", "s", {"t": ZERO}, 5),
        ("QP", "s", {"t": ZERO}, 5),
        ("QP", "h", {"t": ONE}, 5),
        ("McdP", "P", {"q": ZERO}, 4),
        ("McdP", "s", {"q": T}, 4),
    )
    for frm, to, assignment, max_n in cases:
        for n in range(1, max_n + 1):
            matrix = S.conversion_matrix(frm, to, n)
            for row in matrix.row_keys:
                for col in matrix.col_keys:
                    specialized = matrix.entry(row, col).substitute(**assignment)
                    assert specialized == _delta(row, col), (
                        frm,
                        to,
                        assignment,
                        row,
                        col,
                    )


@criterion(6, "Kostka polynomials: charge, duality and rigged routes", 600.0)
def test_criterion_6_kostka_cross_validation(S):
    inv_t = ONE / T
    for n in range(1, 7):
        # Route 1: inverse-transpose of the Schur expansion of the
        # Hall-Littlewood family built from the psi-tableau formula.
        schur_in_p = S.conversion_matrix("P", "s", n)
        gram_schmidt_k = schur_in_p.transpose().invert("kostka")
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                # Route 2: charge statistic over semistandard tableaux.
                charge_k = kostka_poly(lam, mu.parts)
                assert gram_schmidt_k.entry(lam, mu) == charge_k, (lam, mu)
                # Route 3: fermionic sum over rigged configurations.
                expected = T ** mu.n_stat() * charge_k.substitute(t=inv_t)
                assert rc_kostka(lam, mu) == expected, (lam, mu)


@criterion(7, "LLT polynomials: base case, t=1, symmetry, positivity", 900.0)
def test_criterion_7_llt_suite(S):
    # k = 1 reduces to Schur functions.
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert llt_in_m(S, lam, 1) == S.convert(S.element("s", lam), "m")

    # At t = 1 the polynomial factors as the product of Schur functions
    # over the k-quotient (for shapes tileable by k-ribbons).
    for size in range(1, 10):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                core, quotient = core_and_quotient(lam, k)
                if core != Partition():
                    continue
                h_at_one = llt_in_m(S, lam, k).substitute(t=1)
                product = S["s"]()
                for piece in quotient:
                    product = product * S.element("s", piece)
                assert h_at_one == S.convert(product, "m"), (lam, k)

    # The spin multiset over ribbon tableaux only depends on the content
    # as a multiset, not on the order the letters appear in.
    for size in (4, 6):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                for content in partitions_of(size // k):
                    reference = None
                    for weight in distinct_permutations(content.parts):
                        spins = sorted(
                            tab.spin for tab in ribbon_tableaux(lam, weight, k)
                        )
                        if reference is None:
                            reference = spins
                        else:
                            assert spins == reference, (lam, weight, k)

    # Schur expansion coefficients have nonnegative integer coefficients.
    for size in range(2, 9):
        for k in (2, 3):
            if size % k:
                continue
            for lam in partitions_of(size):
                for mu in partitions_of(size // k):
                    poly = generalized_kostka(S, lam, mu, k)
                    assert all(
                        value > 0 for value in poly.poly_terms().values()
                    ), (lam, mu, k)


@criterion(8, "omega involution", 60.0)
def test_criterion_8_omega(S):
    for n in range(1, 7):
        for lam in partitions_of(n):
            omega_h = S.apply_operator("omega", S.element("h", lam))
            assert S.convert(omega_h, "e") == S.element("e", lam), lam
            omega_s = S.apply_operator("omega", S.element("s", lam))
            assert S.convert(omega_s, "s") == S.element("s", lam.conjugate()), lam
            m_el = S.element("m", lam)
            twice = S.apply_operator("omega", S.apply_operator("omega", m_el))
            assert S.convert(twice, "m") == m_el, lam


@criterion(9, "on-the-fly basis registration", 60.0)
def test_criterion_9_on_the_fly_registration():
    S9 = SymmetricFunctions()
    S9.register_basis("g", "elementary copy registered at runtime")
    S9.declare_conversion(
        "g", "m", lambda lam: S9.convert(S9.element("e", lam), "m")
    )

    # Reachable from every registered basis, with exact round-trips.
    for n in range(1, 5):
        for b in BASES:
            forth = S9.conversion_matrix(b, "g", n)
            back = S9.conversion_matrix("g", b, n)
            assert (forth @ back).is_identity(), (b, n)

    # Mixed arithmetic and expression evaluation see the new basis
    # immediately: names resolve at evaluation time.
    el = evaluate(S9, "to_g(m[2,1]) + g[1,1] * g[1]")
    direct = S9.add(
        S9.convert(S9.element("m", Partition((2, 1))), "g"),
        S9.multiply(
            S9.element("g", Partition((1, 1))), S9.element("g", Partition((1,)))
        ),
    )
    assert el == S9.convert(direct, el.basis)
    round_trip = evaluate(S9, "to_g(to_p(to_QP(g[2,1])))")
    assert round_trip == S9.element("g", Partition((2, 1)))
