"""Lower-triangular and square matrices of OmegaPoly entries."""

from __future__ import annotations

from .algebra import OP_ONE, OP_ZERO, OmegaPoly, _ints, as_opoly


class TriMatrix:
    """Square lower-triangular matrix; row i stores entries for columns 0..i."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(
            tuple(as_opoly(x) for x in row) for row in rows
        )
        for i, row in enumerate(self.rows):
            if len(row) != i + 1:
                raise ValueError(f"row {i} must have {i + 1} entries, got {len(row)}")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> OmegaPoly:
        if j > i:
            return OP_ZERO
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
        out = []
        for i in range(self.n):
            row = []
            for j in range(i + 1):
                acc = OP_ZERO
                for k in range(j, i + 1):
                    a = self.rows[i][k]
                    if not a.is_zero():
                        b = other.rows[k][j]
                        if not b.is_zero():
                            acc = acc + a * b
                row.append(acc)
            out.append(row)
        return TriMatrix(out)

    def inverse_unit_lower(self) -> "TriMatrix":
        """Inverse by forward substitution; requires unit diagonal.

        No pivoting and no fractions: with 1s on the diagonal the inverse
        stays in Z[w].
        """
        n = self.n
        for i in range(n):
            if self.rows[i][i] != OP_ONE:
                raise ValueError(f"diagonal entry ({i},{i}) is not 1")
        inv = [[OP_ZERO] * (i + 1) for i in range(n)]
        for i in range(n):
            inv[i][i] = OP_ONE
            for j in range(i - 1, -1, -1):
                acc = OP_ZERO
                for k in range(j, i):
                    a = self.rows[i][k]
                    if not a.is_zero():
                        b = inv[k][j]
                        if not b.is_zero():
                            acc = acc + a * b
                inv[i][j] = -acc
        return TriMatrix(inv)

    def is_identity(self) -> bool:
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                want = OP_ONE if i == j else OP_ZERO
                if x != want:
                    return False
        return True

    def eval_omega(self, x: int) -> "TriMatrix":
        return TriMatrix(
            [[OmegaPoly((e.evaluate(x),)) for e in row] for row in self.rows]
        )

    def int_rows(self) -> list:
        """Rows as plain ints; requires every entry constant in w."""
        return [_ints(row) for row in self.rows]


class SquareMatrix:
    """Dense square matrix of OmegaPoly entries."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = tuple(tuple(as_opoly(x) for x in row) for row in rows)
        n = len(self.rows)
        for row in self.rows:
            if len(row) != n:
                raise ValueError("matrix must be square")

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> OmegaPoly:
        return self.rows[i][j]

    def eval_omega(self, x: int) -> "SquareMatrix":
        return SquareMatrix(
            [[OmegaPoly((e.evaluate(x),)) for e in row] for row in self.rows]
        )

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)
