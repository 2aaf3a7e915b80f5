"""Exact linear algebra over Q(q,t) with labelled rows and columns.

Basis-change matrices are small and dense at desk scale, so entries live
in row-major lists of Coeff.  Rows and columns are keyed by arbitrary
hashable labels (partitions in practice); keys travel with the matrix so
composition and inversion cannot silently misalign bases.

Composition and matrix-vector products divide once per entry:
`coeffs.dot` brings the entry's products over their denominator of
highest degree (scaled by any integer the others need), adds the
numerators in Z[q,t] and takes one gcd.  Only an entry with a denominator
that does not divide that one falls back to adding the products one at a
time.  Composition hands `dot` only the pairs of nonzero entries: each
right-hand column's nonzero entries are listed once, and each row keeps
those whose left entry is nonzero too.  Applying the matrix to a vector
with one nonzero entry sums nothing: it scales that column.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .coeffs import ONE, ZERO, Coeff, dot
from .errors import SingularMatrixError

Key = Hashable


class CoeffMatrix:
    """A rectangular matrix over Q(q,t) with keyed rows and columns."""

    __slots__ = ("row_keys", "col_keys", "rows", "_row_index", "_col_index")

    def __init__(self, row_keys: Iterable[Key], col_keys: Iterable[Key], rows):
        self.row_keys = tuple(row_keys)
        self.col_keys = tuple(col_keys)
        self.rows = [list(r) for r in rows]
        if len(self.rows) != len(self.row_keys) or any(
            len(r) != len(self.col_keys) for r in self.rows
        ):
            raise ValueError("matrix shape does not match its keys")
        self._row_index = {k: i for i, k in enumerate(self.row_keys)}
        self._col_index = {k: j for j, k in enumerate(self.col_keys)}

    @classmethod
    def identity(cls, keys: Iterable[Key]) -> "CoeffMatrix":
        keys = tuple(keys)
        n = len(keys)
        rows = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        return cls(keys, keys, rows)

    @classmethod
    def from_columns(
        cls,
        row_keys: Iterable[Key],
        col_keys: Iterable[Key],
        columns: Mapping[Key, Mapping[Key, Coeff]],
    ) -> "CoeffMatrix":
        row_keys = tuple(row_keys)
        col_keys = tuple(col_keys)
        row_index = {k: i for i, k in enumerate(row_keys)}
        rows = [[ZERO] * len(col_keys) for _ in row_keys]
        for j, ck in enumerate(col_keys):
            for rk, value in columns[ck].items():
                rows[row_index[rk]][j] = value
        return cls(row_keys, col_keys, rows)

    def entry(self, row_key: Key, col_key: Key) -> Coeff:
        return self.rows[self._row_index[row_key]][self._col_index[col_key]]

    def column(self, col_key: Key) -> dict[Key, Coeff]:
        j = self._col_index[col_key]
        return {rk: row[j] for rk, row in zip(self.row_keys, self.rows) if row[j].num}

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffMatrix):
            return NotImplemented
        return (
            self.row_keys == other.row_keys
            and self.col_keys == other.col_keys
            and self.rows == other.rows
        )

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        """Composition.  Each entry is one `dot` over the middle indices
        where both factors are nonzero, in increasing order: divided once
        when its denominators nest, else added one product at a time.
        Each right-hand column's nonzero entries are listed once, and an
        entry with no such index is zero without a call."""
        if self.col_keys != other.row_keys:
            raise ValueError("matrix composition with mismatched keys")
        cols = [
            [(k, row[j]) for k, row in enumerate(other.rows) if row[j].num]
            for j in range(len(other.col_keys))
        ]
        rows = []
        for left in self.rows:
            out = []
            for col in cols:
                pairs = [(left[k], c) for k, c in col if left[k].num]
                out.append(dot(pairs) if pairs else ZERO)
            rows.append(out)
        return CoeffMatrix(self.row_keys, other.col_keys, rows)

    def transpose(self) -> "CoeffMatrix":
        rows = [
            [self.rows[i][j] for i in range(len(self.row_keys))]
            for j in range(len(self.col_keys))
        ]
        return CoeffMatrix(self.col_keys, self.row_keys, rows)

    def apply(self, vector: Mapping[Key, Coeff]) -> dict[Key, Coeff]:
        """Matrix-vector product; vectors are sparse dicts on column keys.

        A vector with one nonzero entry scales that column, with no sum;
        otherwise each output entry is one `dot` over the vector's support.
        """
        terms = [(ck, v) for ck, v in vector.items() if v.num]
        if len(terms) == 1:
            [(ck, value)] = terms
            column = self.column(ck)
            if value.is_one():
                return column
            return {rk: e * value for rk, e in column.items()}
        terms = [(self._col_index[ck], v) for ck, v in terms]
        out: dict[Key, Coeff] = {}
        for rk, row in zip(self.row_keys, self.rows):
            s = dot([(row[j], value) for j, value in terms])
            if s.num:
                out[rk] = s
        return out

    def invert(self, label: str = "") -> "CoeffMatrix":
        """Exact inverse via Gauss-Jordan elimination."""
        if len(self.row_keys) != len(self.col_keys):
            raise SingularMatrixError(f"matrix {label or '?'} is not square")
        n = len(self.row_keys)
        work = [list(r) for r in self.rows]
        inv = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if not work[r][col].is_zero()), None
            )
            if pivot is None:
                raise SingularMatrixError(
                    f"singular basis-change matrix{': ' + label if label else ''}"
                )
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                inv[col], inv[pivot] = inv[pivot], inv[col]
            # row operations touch only the nonzero columns of the pivot row,
            # so a triangular matrix costs only its nonzero entries; columns
            # up to col of `work` are never read again, so they are skipped
            w_cols = [j for j in range(col + 1, n) if not work[col][j].is_zero()]
            i_cols = [j for j in range(n) if not inv[col][j].is_zero()]
            p = work[col][col]
            if not p.is_one():
                pinv = ONE / p
                for row, cols in ((work[col], w_cols), (inv[col], i_cols)):
                    for j in cols:
                        row[j] = row[j] * pinv
            for r in range(n):
                if r == col:
                    continue
                f = work[r][col]
                if f.is_zero():
                    continue
                for row, prow, cols in (
                    (work[r], work[col], w_cols),
                    (inv[r], inv[col], i_cols),
                ):
                    for j in cols:
                        row[j] = row[j] - f * prow[j]
        # row keys and column keys swap roles in the inverse
        return CoeffMatrix(self.col_keys, self.row_keys, inv)

    def is_identity(self) -> bool:
        if self.row_keys != self.col_keys:
            return False
        return all(
            (self.rows[i][j].is_one() if i == j else self.rows[i][j].is_zero())
            for i in range(len(self.rows))
            for j in range(len(self.rows))
        )

    def __repr__(self) -> str:
        return f"CoeffMatrix({len(self.row_keys)}x{len(self.col_keys)})"
