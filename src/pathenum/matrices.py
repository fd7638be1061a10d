"""Lower-triangular matrices of scalars (OmegaPoly, or int at an integer weight).

A triangle's product and its inverse both sum products along a row and down a column (_row_dot).
"""

from __future__ import annotations

from .algebra import _ints, _one, _scalar_rows, _zero


def _corner(rows) -> tuple:
    """The entry (0, 0) as a 0- or 1-tuple; one entry tells a matrix's kind of scalar."""
    return rows[0][:1] if rows else ()


def _row_dot(row, column, zero):
    """The sum of a * b over paired entries of row and column from zero, skipping zero factors."""
    acc = zero
    for a, b in zip(row, column):
        if a and b:
            acc = acc + a * b
    return acc


class TriMatrix:
    """Square n x n lower-triangular matrix, n stored; row i stores entries for columns 0..i.

    The entries are of one kind: ints if every entry given is an int, else
    OmegaPoly.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        self.rows = _scalar_rows(rows)
        self.n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")

    def entry(self, i: int, j: int):
        if j > i:
            return _zero(*_corner(self.rows))
        return self.rows[i][j]

    def __eq__(self, other):
        if not isinstance(other, TriMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other):
        if not isinstance(other, TriMatrix) or self.n != other.n:
            return NotImplemented
        zero = _zero(*_corner(self.rows), *_corner(other.rows))
        return TriMatrix(
            [_row_dot(row[j:], [r[j] for r in other.rows[j:i + 1]], zero) for j in range(i + 1)]
            for i, row in enumerate(self.rows)
        )

    def inverse_unit_lower(self) -> "TriMatrix":
        """Inverse by forward substitution; requires unit diagonal.

        No pivoting and no fractions: with 1s on the diagonal the inverse
        stays in Z[w] (in Z for an int matrix).
        """
        for i, row in enumerate(self.rows):
            if row[i] != 1:
                raise ValueError(f"diagonal entry ({i},{i}) is not 1")
        zero, one = _zero(*_corner(self.rows)), _one(*_corner(self.rows))
        inv = []
        for i, row in enumerate(self.rows):
            inv.append([-_row_dot(row[j:i], [r[j] for r in inv[j:]], zero)
                        for j in range(i)] + [one])
        return TriMatrix(inv)

    def int_rows(self) -> list:
        """Rows as plain ints; requires every entry constant in w."""
        return [_ints(row) for row in self.rows]

    def stream(self):
        """The rows, one at a time."""
        return iter(self.rows)


class _RowTriangle(TriMatrix):
    """An n x n triangle made row by row, its rows built on first read.

    rows() yields, afresh at each call, rows 0..n-1.  stream() hands them
    to a caller that writes each one as it comes (the CLI), so that caller
    never holds the triangle; any read of rows runs rows() once and keeps
    its rows, so every other caller sees a plain TriMatrix.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows, n: int):
        self._rows, self.n = rows, n

    def __getattr__(self, name):
        # reached only while the slot rows is unset: the first read builds it
        if name != "rows":
            raise AttributeError(name)
        self.rows = TriMatrix(self._rows()).rows
        return self.rows

    def stream(self):
        return self._rows()

