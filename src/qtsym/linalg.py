"""Exact linear algebra over Q(q,t) with labelled rows and columns.

Basis-change matrices are small and dense at desk scale, so entries live
in row-major lists of Coeff.  Rows and columns are keyed by arbitrary
hashable labels (partitions in practice); keys travel with the matrix so
composition and inversion cannot silently misalign bases.

Products follow the one sum rule described in `coeffs`: entry (i, j) is
the sum of the row's and the column's lifted numerators' products over
D_i * E_j (`coeffs._composed`).  A matrix is not changed after it is
built, so it keeps what it lifts for every later sum that reads it: all
its rows at once, on first use, and each column by itself, on the first
use of that column.

A matrix-vector product is the same with the vector as the one column:
the vector is brought over one denominator once, and each output entry
is composed from the kept lifted row.  A vector that is a column of
another matrix, such as a converted basis element, is not lifted again:
that matrix's kept form of the column is read.  Applying the matrix to a
vector with one nonzero entry sums nothing: it scales that column.
Inversion eliminates on the rows of [A | I], whose right half ends as
the inverse.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping

from .coeffs import ONE, ZERO, Coeff, _composed, _lifted
from .errors import SingularMatrixError

Key = Hashable


class CoeffMatrix:
    """A rectangular matrix over Q(q,t) with keyed rows and columns."""

    __slots__ = (
        "row_keys",
        "col_keys",
        "rows",
        "_row_index",
        "_col_index",
        "_lifted_rows",
        "_lifted_cols",
    )

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
        self._lifted_rows = None
        self._lifted_cols = [None] * len(self.col_keys)

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

    def _rows_lifted(self) -> list:
        """Every row's `_kept` form, computed on first use and kept."""
        if self._lifted_rows is None:
            self._lifted_rows = [_kept(row) for row in self.rows]
        return self._lifted_rows

    def _col_lifted(self, j: int) -> tuple:
        """Column j's `_kept` form, computed on first use and kept."""
        kept = self._lifted_cols[j]
        if kept is None:
            kept = self._lifted_cols[j] = _kept([row[j] for row in self.rows])
        return kept

    def __matmul__(self, other: "CoeffMatrix") -> "CoeffMatrix":
        """Composition: entry (i, j) from the kept lifted row of self and
        column of other (`_composed`).  An entry with no middle index
        where both factors are nonzero is zero."""
        if self.col_keys != other.row_keys:
            raise ValueError("matrix composition with mismatched keys")
        cols = [other._col_lifted(j) for j in range(len(other.col_keys))]
        rows = [
            [_composed(row, lifted_row, col, lifted_col) for col, lifted_col in cols]
            for row, lifted_row in self._rows_lifted()
        ]
        return CoeffMatrix(self.row_keys, other.col_keys, rows)

    def transpose(self) -> "CoeffMatrix":
        rows = [
            [self.rows[i][j] for i in range(len(self.row_keys))]
            for j in range(len(self.col_keys))
        ]
        return CoeffMatrix(self.col_keys, self.row_keys, rows)

    def apply(self, vector: Mapping[Key, Coeff], source=None) -> dict[Key, Coeff]:
        """Matrix-vector product; vectors are sparse dicts on column keys.

        A vector with one nonzero entry scales that column, with no sum;
        otherwise each output entry is `_composed` from the kept lifted row
        and the vector lifted over one denominator, as a column.  When
        source = (matrix, j) says the vector is column j of a matrix whose
        rows are this matrix's columns, that column's kept form is read
        instead of lifting the vector again.
        """
        terms = {ck: v for ck, v in vector.items() if v.num}
        if len(terms) == 1:
            [(ck, value)] = terms.items()
            column = self.column(ck)
            if value.is_one():
                return column
            return {rk: e * value for rk, e in column.items()}
        if source is not None and source[0].row_keys == self.col_keys:
            terms, lifted = source[0]._col_lifted(source[1])
        else:
            terms = {self._col_index[ck]: v for ck, v in terms.items()}
            lifted = _lifted(terms)
        out: dict[Key, Coeff] = {}
        for rk, (row, lifted_row) in zip(self.row_keys, self._rows_lifted()):
            s = _composed(row, lifted_row, terms, lifted)
            if s.num:
                out[rk] = s
        return out

    def invert(self, label: str = "") -> "CoeffMatrix":
        """Exact inverse by Gauss-Jordan elimination on the rows of [A | I].

        Each step works on the pivot row's nonzeros right of the pivot, as no
        later step reads the columns up to it: a triangular matrix costs its
        nonzeros."""
        if len(self.row_keys) != len(self.col_keys):
            raise SingularMatrixError(f"matrix {label or '?'} is not square")
        n = len(self.row_keys)
        rows = [
            list(r) + [ONE if i == j else ZERO for j in range(n)]
            for i, r in enumerate(self.rows)
        ]
        for col in range(n):
            pivot = next(
                (r for r in range(col, n) if not rows[r][col].is_zero()), None
            )
            if pivot is None:
                raise SingularMatrixError(
                    f"singular basis-change matrix{': ' + label if label else ''}"
                )
            rows[col], rows[pivot] = rows[pivot], rows[col]
            prow = rows[col]
            cols = [j for j in range(col + 1, 2 * n) if not prow[j].is_zero()]
            p = prow[col]
            if not p.is_one():
                pinv = ONE / p
                for j in cols:
                    prow[j] = prow[j] * pinv
            for r, row in enumerate(rows):
                f = row[col]
                if r == col or f.is_zero():
                    continue
                for j in cols:
                    row[j] = row[j] - f * prow[j]
        # row keys and column keys swap roles in the inverse
        return CoeffMatrix(self.col_keys, self.row_keys, [r[n:] for r in rows])

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


def _kept(line) -> tuple:
    """A row or column as (entries, lifted): entries maps the index of each
    nonzero entry to it, and lifted is `_lifted` of those."""
    entries = {k: e for k, e in enumerate(line) if e.num}
    return entries, _lifted(entries)
