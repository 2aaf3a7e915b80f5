"""Keyed matrices: composition, transpose, exact inversion."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qtsym import linalg
from qtsym.coeffs import ONE, Q, T, ZERO, Coeff
from qtsym.errors import SingularMatrixError
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


def _random_sparse(rng, row_keys, col_keys, zero_rows=(), zero_cols=()):
    values = [ONE, -ONE, ONE / 2, Q, 1 - T, ONE / (1 - Q), T / (1 - Q) ** 2, Q / (1 - T)]
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
    kernel = linalg.dot

    def spy(pairs):
        assert pairs and all(a.num and b.num for a, b in pairs)
        seen.append(1)
        return kernel(pairs)

    monkeypatch.setattr(linalg, "dot", spy)
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
