"""Exact arithmetic and small dense linear algebra over prime fields.

Residues are plain Python ints in ``[0, q)``.  :class:`FieldVector` and
:class:`FieldMatrix` are immutable value objects; every operation returns a
new object, so values can be shared freely between threads.  Matrix rank
and inversion share one Gauss-Jordan elimination with first-nonzero
pivoting, which is exact over a field, so pivot choice never affects
correctness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "SingularMatrixError",
    "PrimeField",
    "FieldVector",
    "FieldMatrix",
    "vandermonde",
]

# Desk-scale bound on the modulus; trial division stays instant below this.
_MAX_MODULUS = 1 << 16


class SingularMatrixError(ValueError):
    """Raised when inverting a matrix that is rank-deficient over F_q."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


class PrimeField:
    """The prime field F_q; residues are ints in ``[0, q)``."""

    __slots__ = ("q",)

    def __init__(self, q: int) -> None:
        if not isinstance(q, int) or isinstance(q, bool):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if q >= _MAX_MODULUS:
            raise ValueError(f"modulus {q} exceeds the desk-scale bound {_MAX_MODULUS}")
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")
        self.q = q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse; zero has none."""
        if a % self.q == 0:
            raise ZeroDivisionError(f"0 has no multiplicative inverse mod {self.q}")
        return pow(a, -1, self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


@dataclass(frozen=True)
class FieldVector:
    """An immutable vector of residues over a fixed prime field."""

    field: PrimeField
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        q = self.field.q
        object.__setattr__(self, "entries", tuple(int(e) % q for e in self.entries))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[int]:
        return iter(self.entries)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return FieldVector(self.field, self.entries[idx])
        return self.entries[idx]

    def concat(self, other: FieldVector) -> FieldVector:
        if other.field != self.field:
            raise ValueError("cannot concatenate vectors over different fields")
        return FieldVector(self.field, self.entries + other.entries)

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64)

    def __repr__(self) -> str:
        return f"FieldVector(q={self.field.q}, {self.entries})"


@dataclass(frozen=True)
class FieldMatrix:
    """An immutable row-major matrix of residues over a fixed prime field."""

    field: PrimeField
    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries for a "
                f"{self.rows}x{self.cols} matrix, got {len(self.entries)}"
            )
        q = self.field.q
        object.__setattr__(self, "entries", tuple(int(e) % q for e in self.entries))

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, field: PrimeField, rows: Sequence[Sequence[int]]) -> FieldMatrix:
        rows = [tuple(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise ValueError("all rows must have the same length")
        flat = tuple(e for r in rows for e in r)
        return cls(field, len(rows), ncols, flat)

    @classmethod
    def identity(cls, field: PrimeField, n: int) -> FieldMatrix:
        return cls(field, n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, field: PrimeField, rows: int, cols: int) -> FieldMatrix:
        return cls(field, rows, cols, (0,) * (rows * cols))

    # -- access -------------------------------------------------------

    def at(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"index ({i}, {j}) out of range for {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> FieldVector:
        if not 0 <= i < self.rows:
            raise IndexError(f"row {i} out of range")
        return FieldVector(self.field, self.entries[i * self.cols : (i + 1) * self.cols])

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        c = self.cols
        return tuple(self.entries[i * c : (i + 1) * c] for i in range(self.rows))

    def submatrix(
        self,
        row_idx: Sequence[int] | None = None,
        col_idx: Sequence[int] | None = None,
    ) -> FieldMatrix:
        """Extract rows/columns in the given order; ``None`` keeps all."""
        rows = range(self.rows) if row_idx is None else list(row_idx)
        cols = range(self.cols) if col_idx is None else list(col_idx)
        for i in rows:
            if not 0 <= i < self.rows:
                raise IndexError(f"row index {i} out of range")
        for j in cols:
            if not 0 <= j < self.cols:
                raise IndexError(f"column index {j} out of range")
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("duplicate indices in submatrix selection")
        flat = tuple(self.entries[i * self.cols + j] for i in rows for j in cols)
        return FieldMatrix(self.field, len(rows), len(cols), flat)

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other):
        q = self.field.q
        if isinstance(other, FieldVector):
            if other.field != self.field:
                raise ValueError("operands over different fields")
            if len(other) != self.cols:
                raise ValueError(f"cannot multiply {self.rows}x{self.cols} matrix by length-{len(other)} vector")
            ent = self.entries
            out = tuple(
                sum(ent[i * self.cols + j] * other.entries[j] for j in range(self.cols)) % q
                for i in range(self.rows)
            )
            return FieldVector(self.field, out)
        if isinstance(other, FieldMatrix):
            if other.field != self.field:
                raise ValueError("operands over different fields")
            if other.rows != self.cols:
                raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
            a, b = self.entries, other.entries
            n, m, p = self.rows, self.cols, other.cols
            flat = tuple(
                sum(a[i * m + t] * b[t * p + j] for t in range(m)) % q
                for i in range(n)
                for j in range(p)
            )
            return FieldMatrix(self.field, n, p, flat)
        return NotImplemented

    def __neg__(self) -> FieldMatrix:
        q = self.field.q
        return FieldMatrix(self.field, self.rows, self.cols, tuple(-e % q for e in self.entries))

    def transpose(self) -> FieldMatrix:
        flat = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return FieldMatrix(self.field, self.cols, self.rows, flat)

    def hstack(self, other: FieldMatrix) -> FieldMatrix:
        if other.field != self.field:
            raise ValueError("operands over different fields")
        if other.rows != self.rows:
            raise ValueError("row counts differ")
        rows = [self.row(i).entries + other.row(i).entries for i in range(self.rows)]
        return FieldMatrix.from_rows(self.field, rows)

    def rank(self) -> int:
        """Rank over F_q, by the same elimination as :meth:`inverse`."""
        return _row_reduce([list(r) for r in self.row_tuples()], self.cols, self.field.q)

    def inverse(self) -> FieldMatrix:
        """Gauss-Jordan inverse; raises :class:`SingularMatrixError` if rank-deficient."""
        if self.rows != self.cols:
            raise ValueError(f"cannot invert non-square {self.rows}x{self.cols} matrix")
        n, q = self.rows, self.field.q
        aug = [list(self.row(i).entries) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
        if _row_reduce(aug, n, q) < n:
            raise SingularMatrixError(f"matrix is singular over F_{q}")
        flat = tuple(aug[i][n + j] for i in range(n) for j in range(n))
        return FieldMatrix(self.field, n, n, flat)

    def to_array(self) -> np.ndarray:
        return np.array(self.entries, dtype=np.int64).reshape(self.rows, self.cols)

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.field.q}, {self.row_tuples()})"


def _row_reduce(rows: list[list[int]], ncols: int, q: int) -> int:
    """Gauss-Jordan elimination in place on the first ``ncols`` columns of
    ``rows``; returns the rank.

    The pivot rows come first, each scaled to 1 on its pivot column, which
    is cleared in every other row; columns past ``ncols`` (an augmented
    identity, say) ride along.  At full rank on a square block, row i
    pivots on column i.
    """
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] % q != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv_p = pow(rows[rank][col], -1, q)
        rows[rank] = [(e * inv_p) % q for e in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(er - f * ec) % q for er, ec in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def vandermonde(field: PrimeField, nodes: FieldVector | Sequence[int], width: int) -> FieldMatrix:
    """Matrix with rows ``(1, x, x**2, ..., x**(width-1))`` for each node x.

    Nodes must be pairwise distinct and nonzero: distinctness makes every
    square row-selection invertible, and nonzero nodes extend that to every
    square selection of a contiguous column block (the entry ``x**(c+j)``
    factors as ``x**c`` times a plain Vandermonde entry).
    """
    if isinstance(nodes, FieldVector):
        if nodes.field != field:
            raise ValueError("node vector is over a different field")
        vals = nodes.entries
    else:
        vals = tuple(int(x) % field.q for x in nodes)
    if width < 1:
        raise ValueError("width must be at least 1")
    if len(set(vals)) != len(vals):
        raise ValueError("nodes must be pairwise distinct")
    if any(v == 0 for v in vals):
        raise ValueError("nodes must be nonzero")
    q = field.q
    flat = tuple(pow(x, j, q) for x in vals for j in range(width))
    return FieldMatrix(field, len(vals), width, flat)
