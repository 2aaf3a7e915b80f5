"""Keyed matrices: composition, transpose, exact inversion."""

import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtsym import coeffs, linalg
from qtsym.coeffs import ONE, Q, T, ZERO, Coeff
from qtsym.errors import CoefficientError, SingularMatrixError
from qtsym.linalg import CoeffMatrix
from qtsym.partitions import partitions_of

K = ("a", "b", "c")


def c(v):
    return Coeff.from_value(v)


def test_identity_and_entry():
    m = CoeffMatrix.identity(K)
    assert m.entry("a", "a") == ONE
    assert m.entry("a", "b") == ZERO
    assert m.is_identity()
    assert m.invert() == m


def test_from_columns_and_apply():
    m = CoeffMatrix.from_columns(
        ("x", "y"), ("u", "v"), {"u": {"x": c(1), "y": c(2)}, "v": {"y": c(3)}}
    )
    assert m.entry("y", "u") == c(2)
    assert m.apply({"u": ONE, "v": ONE}) == {"x": c(1), "y": c(5)}


def test_unitriangular_inverse():
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[ONE, ZERO], [c(2), ONE]])
    inv = m.invert()
    assert inv.rows == [[ONE, ZERO], [c(-2), ONE]]
    assert (m @ inv).is_identity()


def test_inverse_with_parameters():
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[ONE, T], [ZERO, ONE - T]])
    inv = m.invert()
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()
    assert inv.entry("b", "b") == ONE / (ONE - T)


def test_pivot_search_handles_leading_zero():
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[ZERO, ONE], [ONE, ZERO]])
    inv = m.invert()
    assert (m @ inv).is_identity()


_ENTRIES = [
    ZERO, ONE, -ONE, c(2), c(Fraction(1, 3)), Q, T, ONE + Q * T, ONE / (1 - T),
    Q / (1 - Q * T),
]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 4), st.data())
def test_inverse_is_two_sided_when_rows_must_swap(n, data):
    keys = tuple(range(n))
    entry = st.sampled_from(_ENTRIES)
    rows = [[data.draw(entry) for _ in keys] for _ in keys]
    # every leading entry but the last is zero, so the first pivot is a swap
    for row in rows[:-1]:
        row[0] = ZERO
    rows[-1][0] = data.draw(st.sampled_from(_ENTRIES[1:]))
    m = CoeffMatrix(keys, keys, rows)
    try:
        inv = m.invert()
    except SingularMatrixError:
        assume(False)
    assert (m @ inv).is_identity()
    assert (inv @ m).is_identity()


def test_singular_raises_with_label():
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[ONE, ONE], [ONE, ONE]])
    with pytest.raises(SingularMatrixError) as err:
        m.invert(label="demo degree 2")
    assert "demo degree 2" in str(err.value)


def test_transpose_and_compose():
    m = CoeffMatrix(("x",), ("u", "v"), [[c(1), c(2)]])
    mt = m.transpose()
    assert mt.row_keys == ("u", "v") and mt.col_keys == ("x",)
    assert mt.entry("v", "x") == c(2)
    with pytest.raises(ValueError):
        m @ m
    prod = m @ mt
    assert prod.entry("x", "x") == c(5)


def test_solve():
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[ONE, T], [ZERO, ONE]])
    x = m.invert().apply({"a": c(3)})
    assert x == {"a": c(3)}
    x = m.invert().apply({"a": ZERO + T, "b": ONE})
    assert m.apply(x) == {"a": T, "b": ONE}


def _running_sum_matmul(a, b):
    """The composition added up one Coeff product at a time."""
    rows = []
    for left in a.rows:
        row = []
        for j in range(len(b.col_keys)):
            total = ZERO
            for k, value in enumerate(left):
                total = total + value * b.rows[k][j]
            row.append(total)
        rows.append(row)
    return CoeffMatrix(a.row_keys, b.col_keys, rows)


def test_compose_sums_over_a_shared_denominator():
    x = ONE / (1 - T)
    m = CoeffMatrix(("a", "b"), ("a", "b"), [[x, x * x], [ONE / 2, ONE / 3]])
    prod = m @ m
    assert prod == _running_sum_matmul(m, m)
    assert prod.entry("a", "a") == x * x + x * x / 2
    assert prod.entry("b", "b") == x * x / 2 + ONE / 9
    empty = CoeffMatrix(("a",), (), [[]]) @ CoeffMatrix((), ("u", "v"), [])
    assert empty.rows == [[ZERO, ZERO]]


@pytest.mark.parametrize(
    "hub, partners, degrees",
    [
        ("McdP", ("m", "s", "P", "QP", "h", "p"), (1, 2, 3, 4)),
        ("P", ("s",), (5,)),
        ("Q", ("s",), (5,)),
        ("QP", ("s",), (5,)),
        ("P", ("m", "e", "h", "p"), (6,)),
        ("Q", ("m", "e", "h", "p"), (6,)),
        ("QP", ("m", "e", "h", "p"), (6,)),
    ],
)
def test_compose_equals_running_sum_on_conversion_matrices(S, hub, partners, degrees):
    for n in degrees:
        for other in partners:
            forth = S.conversion_matrix(hub, other, n)
            back = S.conversion_matrix(other, hub, n)
            for a, b in ((back, forth), (forth, back)):
                assert a @ b == _running_sum_matmul(a, b)


def _running_sum_apply(m, vector):
    """The matrix-vector product added up one Coeff product at a time."""
    out = {}
    for rk in m.row_keys:
        total = ZERO
        for ck, value in vector.items():
            total = total + m.entry(rk, ck) * value
        if not total.is_zero():
            out[rk] = total
    return out


_APPLY_COEFFS = (
    ZERO,
    ONE,
    -ONE,
    c(2),
    c(Fraction(-3, 2)),
    T,
    ONE - T,
    ONE / (ONE - T),
    (ONE - Q) / (ONE - Q * T),
)
_APPLY_MATRICES = (("McdP", "p"), ("P", "m"))


def _apply_vectors(S, frm, to, n):
    """Vectors with 0, 1 and several terms, and columns of the inverse,
    whose images cancel on every row but one."""
    keys = partitions_of(n)
    inverse = S.conversion_matrix(to, frm, n)
    yield {}
    for shift, lam in enumerate(keys):
        yield {lam: ONE}
        yield {lam: ONE / (ONE - T)}
        yield {lam: ZERO}
        yield {
            mu: _APPLY_COEFFS[(i + shift) % len(_APPLY_COEFFS)]
            for i, mu in enumerate(keys)
        }
        yield {mu: v * (ONE - Q) for mu, v in inverse.column(lam).items()}


@pytest.mark.parametrize("frm, to", _APPLY_MATRICES)
def test_apply_cases_equal_running_sum(S, frm, to):
    for n in range(1, 5):
        m = S.conversion_matrix(frm, to, n)
        for vector in _apply_vectors(S, frm, to, n):
            assert m.apply(vector) == _running_sum_apply(m, vector), (n, vector)
        inverse = S.conversion_matrix(to, frm, n)
        for lam in partitions_of(n):
            assert m.apply(inverse.column(lam)) == {lam: ONE}


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_APPLY_MATRICES), st.integers(1, 4), st.data())
def test_apply_equals_running_sum(S, pair, n, data):
    frm, to = pair
    m = S.conversion_matrix(frm, to, n)
    keys = partitions_of(n)
    coeffs = st.sampled_from(_APPLY_COEFFS)
    vector = data.draw(st.dictionaries(st.sampled_from(keys), coeffs))
    if data.draw(st.booleans()):
        # add a scaled column of the inverse, so that most rows cancel
        lam, scale = data.draw(st.sampled_from(keys)), data.draw(coeffs)
        for mu, v in S.conversion_matrix(to, frm, n).column(lam).items():
            vector[mu] = vector.get(mu, ZERO) + v * scale
    assert m.apply(vector) == _running_sum_apply(m, vector)


_SPARSE_VALUES = [ONE, -ONE, ONE / 2, Q, 1 - T, ONE / (1 - Q), T / (1 - Q) ** 2, Q / (1 - T)]


def _random_sparse(
    rng, row_keys, col_keys, zero_rows=(), zero_cols=(), values=_SPARSE_VALUES
):
    rows = [
        [
            ZERO
            if i in zero_rows or j in zero_cols or rng.random() < 0.5
            else rng.choice(values)
            for j in range(len(col_keys))
        ]
        for i in range(len(row_keys))
    ]
    return CoeffMatrix(row_keys, col_keys, rows)


def test_compose_pairs_only_nonzero_entries(monkeypatch):
    seen = []
    kernel = coeffs.dot

    def spy(pairs):
        assert pairs and all(a.num and b.num for a, b in pairs)
        seen.append(1)
        return kernel(pairs)

    monkeypatch.setattr(coeffs, "dot", spy)
    rng = random.Random(12)
    for n_rows, n_mid, n_cols in ((3, 4, 2), (4, 2, 5), (1, 3, 1), (5, 5, 5)):
        rk = tuple(f"r{i}" for i in range(n_rows))
        mk = tuple(range(n_mid))
        ck = tuple(("c", j) for j in range(n_cols))
        for _ in range(6):
            # a zero row and a zero column on each side
            a = _random_sparse(rng, rk, mk, zero_rows={0}, zero_cols={n_mid - 1})
            b = _random_sparse(rng, mk, ck, zero_rows={0}, zero_cols={n_cols - 1})
            got = a @ b
            assert got == _running_sum_matmul(a, b)
            assert got.row_keys == rk and got.col_keys == ck
            assert all(c is ZERO for c in got.rows[0])
            assert all(row[-1] is ZERO for row in got.rows)
    assert seen


# Entries by kind: polynomials; rationals whose denominators nest, powers
# of 1 - t up to integers; and rationals whose denominators do not.
_POLYNOMIALS = [ONE, -ONE, c(3), Q, 1 - T, 1 + Q * T, 2 * Q**2 - T]
_NESTED = [ONE / 2, T / (1 - T), (1 + Q) / (1 - T) ** 2, Q / (3 - 3 * T), -ONE / 6]
_UNNESTED = [ONE / (1 - Q), T / (1 - Q) ** 2, Q / (1 - T), (1 - Q) / (1 - Q * T)]
_KINDS = {
    "polynomial": _POLYNOMIALS,
    "nested": _POLYNOMIALS + _NESTED,
    "unnested": _POLYNOMIALS + _NESTED + _UNNESTED,
}


@pytest.mark.parametrize("left", sorted(_KINDS))
@pytest.mark.parametrize("right", sorted(_KINDS))
def test_compose_mixed_factors_equals_running_sum(left, right):
    rng = random.Random(f"{left} {right}")
    for n_rows, n_mid, n_cols in ((1, 1, 1), (3, 4, 2), (4, 2, 5), (6, 6, 6)):
        for _ in range(8):
            # a zero first row and a zero last column on each side
            a = _random_sparse(
                rng, range(n_rows), range(n_mid), {0}, {n_mid - 1}, _KINDS[left]
            )
            b = _random_sparse(
                rng, range(n_mid), range(n_cols), {0}, {n_cols - 1}, _KINDS[right]
            )
            got = a @ b
            assert got == _running_sum_matmul(a, b)
            assert all(e is ZERO for e in got.rows[0])
            assert all(row[-1] is ZERO for row in got.rows)


def test_compose_over_one_denominator_calls_no_dot(monkeypatch):
    def no_dot(pairs):
        raise AssertionError("a nested product fell back to dot")

    rng = random.Random(19)
    keys = range(5)
    pairs = [
        (
            _random_sparse(rng, keys, keys, values=_KINDS["nested"]),
            _random_sparse(rng, keys, keys, values=_KINDS[kind]),
        )
        for kind in ("polynomial", "nested")
        for _ in range(10)
    ]
    with monkeypatch.context() as m:
        m.setattr(coeffs, "dot", no_dot)
        products = [a @ b for a, b in pairs]
    assert products == [_running_sum_matmul(a, b) for a, b in pairs]


def test_compose_of_deep_copies_equals_running_sum():
    # a deep copy holds zeros and units that are not the shared ZERO and 1
    rng = random.Random(20)
    for kind in sorted(_KINDS):
        a = _random_sparse(rng, range(4), range(3), {0}, {2}, _KINDS[kind])
        b = _random_sparse(rng, range(3), range(4), {1}, {0}, _KINDS[kind])
        a, b = copy.deepcopy(a), copy.deepcopy(b)
        assert a @ b == _running_sum_matmul(a, b)
        assert a @ b == copy.deepcopy(a @ b)


_HALF = 1 << 18  # twice this is EXP_LIMIT


@pytest.mark.parametrize(
    "left, right",
    [
        # polynomials: q^(2^19) + q in the one entry
        ([[Q**_HALF, Q]], [[Q**_HALF], [ONE]]),
        # rationals whose denominators nest along the row and the column
        ([[Q**_HALF / (1 - T), ONE / (1 - T) ** 2]], [[Q**_HALF], [ONE / (1 - Q)]]),
    ],
    ids=["polynomial", "rational"],
)
def test_compose_at_the_exponent_limit_raises_as_running_sum(left, right):
    a = CoeffMatrix(("x",), ("u", "v"), left)
    b = CoeffMatrix(("u", "v"), ("y",), right)
    with pytest.raises(CoefficientError) as expected:
        _running_sum_matmul(a, b)
    with pytest.raises(CoefficientError) as got:
        a @ b
    assert str(got.value) == str(expected.value)
    assert "must stay below 524288" in str(got.value)
    # one power of q less on each side stays within the limit
    a = CoeffMatrix(a.row_keys, a.col_keys, [[left[0][0] / Q, left[0][1]]])
    b = CoeffMatrix(b.row_keys, b.col_keys, [[right[0][0] / Q], right[1]])
    assert a @ b == _running_sum_matmul(a, b)


# -- each matrix keeps its lifted rows and columns: computed on first use,
# reused by every later product, copied and pickled along, and never part
# of equality


def _counted_lifts(monkeypatch) -> list:
    calls = []
    kernel = linalg._lifted

    def counted(entries):
        calls.append(1)
        return kernel(entries)

    monkeypatch.setattr(linalg, "_lifted", counted)
    return calls


def test_a_factor_lifts_its_rows_and_columns_once(monkeypatch):
    rng = random.Random(21)
    keys = range(4)
    m, a, b = (
        _random_sparse(rng, keys, keys, values=_KINDS["nested"]) for _ in range(3)
    )
    calls = _counted_lifts(monkeypatch)
    products = [m @ a, m @ b, a @ m, b @ m, m @ m]
    assert products == [
        _running_sum_matmul(x, y) for x, y in ((m, a), (m, b), (a, m), (b, m), (m, m))
    ]
    # the rows of m, a, b and the columns of a, m, b: 4 lifts each
    assert len(calls) == 6 * 4
    calls.clear()
    vector = {k: v for k, v in zip(keys, (ONE / 2, T / (1 - T), ZERO, Q))}
    assert m.apply(vector) == _running_sum_apply(m, vector)
    assert m @ a == products[0] and len(calls) == 1  # the vector's own


def test_kept_lifts_survive_deep_copies_and_pickles():
    rng = random.Random(22)
    for kind in sorted(_KINDS):
        a = _random_sparse(rng, range(4), range(3), {0}, {2}, _KINDS[kind])
        b = _random_sparse(rng, range(3), range(4), {1}, {0}, _KINDS[kind])
        want = a @ b  # fills a's rows and b's columns
        assert want == _running_sum_matmul(a, b)
        for copied in (copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
            a2, b2 = copied(a), copied(b)
            assert a2 == a and b2 == b
            assert a2 @ b2 == want
            assert b2 @ a2 == _running_sum_matmul(b, a)
            vector = dict(zip(range(3), _KINDS[kind]))
            assert a2.apply(vector) == _running_sum_apply(a, vector)


def test_apply_on_rows_that_do_not_nest_is_the_running_sum(monkeypatch):
    seen = []
    kernel = coeffs.dot

    def spy(pairs):
        seen.append(1)
        return kernel(pairs)

    monkeypatch.setattr(coeffs, "dot", spy)
    rng = random.Random(23)
    for kind in sorted(_KINDS):
        m = _random_sparse(rng, range(5), range(4), values=_KINDS["unnested"])
        for _ in range(6):
            vector = {j: rng.choice(_KINDS[kind]) for j in range(4)}
            assert m.apply(vector) == _running_sum_apply(m, vector)
    assert seen


def test_apply_at_the_exponent_limit_is_the_running_sum(monkeypatch):
    # rows whose degree, with the vector's, could reach EXP_LIMIT: each
    # such entry is one dot, which raises exactly where the running sum
    # does, and equals it where that sum stays within the limit
    seen = []
    kernel = coeffs.dot

    def spy(pairs):
        seen.append(1)
        return kernel(pairs)

    monkeypatch.setattr(coeffs, "dot", spy)
    rows = [[Q**_HALF / (1 - T), ONE / (1 - T) ** 2], [ONE, T]]
    m = CoeffMatrix(("x", "y"), ("u", "v"), rows)
    vector = {"u": Q**_HALF, "v": T}
    with pytest.raises(CoefficientError) as expected:
        _running_sum_apply(m, vector)
    with pytest.raises(CoefficientError) as got:
        m.apply(vector)
    assert str(got.value) == str(expected.value)
    assert "must stay below 524288" in str(got.value)
    seen.clear()
    vector = {"u": Q ** (_HALF - 1), "v": T}
    assert m.apply(vector) == _running_sum_apply(m, vector)
    assert seen == [1]  # row x; row y is composed from its lifted form


def test_equality_ignores_the_kept_lifts():
    rng = random.Random(24)
    a = _random_sparse(rng, range(3), range(3), values=_KINDS["nested"])
    b = CoeffMatrix(a.row_keys, a.col_keys, a.rows)
    a @ a
    assert a._lifted_rows is not None and b._lifted_rows is None
    assert a == b and b == a
    b @ a
    assert b == a and b == copy.deepcopy(a)
