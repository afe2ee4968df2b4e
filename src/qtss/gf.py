"""Exact arithmetic and small dense linear algebra over prime fields.

Residues are integers in ``[0, q)``.  :class:`PrimeField` is a frozen value
that checks its modulus.  :class:`FieldMatrix` stores one read-only int64
``(rows, cols)`` numpy array, and ``FieldMatrix(field, entries)`` is its one
constructor: ``entries`` is any two-dimensional array-like, reduced mod q
once, and any other shape raises ``ValueError``.  Every matrix entry,
Vandermonde node and staircase digit is built by :func:`_residues`, which
rejects non-integral input with ``TypeError`` instead of truncating it.
With q < 2**16 every product of two residues is below 2**32, so a product
``(a @ b) % q`` is exact in int64.  Rank and inversion share one
Gauss-Jordan elimination (:func:`_row_reduce`) that updates whole rows per
pivot and pivots on the first nonzero entry at or below the current rank;
it is exact over a field, so pivot choice never affects correctness.
Matrices are immutable values that can be shared freely between threads.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "SingularMatrixError",
    "PrimeField",
    "FieldMatrix",
    "shear",
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


@dataclass(frozen=True, slots=True)
class PrimeField:
    """The prime field F_q; residues are ints in ``[0, q)``."""

    q: int

    def __post_init__(self) -> None:
        q = self.q
        if not isinstance(q, int) or isinstance(q, bool):
            raise TypeError(f"modulus must be an int, got {type(q).__name__}")
        if q >= _MAX_MODULUS:
            raise ValueError(f"modulus {q} exceeds the desk-scale bound {_MAX_MODULUS}")
        if not _is_prime(q):
            raise ValueError(f"modulus {q} is not prime")


def _residues(entries, q: int) -> np.ndarray:
    """``entries`` as a new int64 array of residues mod q, in their shape.

    Integer and bool arrays are reduced in one pass.  Anything else (floats,
    strings, ints beyond int64) is taken entry by entry through
    :func:`_exact_ints`, so a non-integral entry raises ``TypeError``.
    """
    arr = np.asarray(entries)
    if np.can_cast(arr.dtype, np.int64):
        return arr.astype(np.int64) % q
    flat = [x % q for x in _exact_ints(arr)]
    return np.array(flat, dtype=np.int64).reshape(arr.shape)


def _exact_ints(arr: np.ndarray) -> list[int]:
    """The entries of ``arr`` as Python ints, through ``operator.index``;
    a non-integral entry (1.9, or even 2.0) raises ``TypeError``."""
    try:
        return [operator.index(x) for x in arr.ravel().tolist()]
    except TypeError:
        raise TypeError(f"entries must be integers, got {arr.dtype} entries") from None


class FieldMatrix:
    """An immutable matrix over a fixed prime field: one read-only int64
    ``(rows, cols)`` array of residues, ``array``.

    ``entries`` is any two-dimensional array-like (nested rows or an array);
    it is reduced mod q once here, and every derived matrix is built from
    residues directly.  Any other shape raises ``ValueError``.
    """

    __slots__ = ("field", "array")

    def __init__(self, field: PrimeField, entries) -> None:
        arr = _residues(entries, field.q)
        if arr.ndim != 2:
            raise ValueError(f"matrix entries must be two-dimensional, got shape {arr.shape}")
        self.field = field
        self.array = arr
        arr.setflags(write=False)

    @classmethod
    def _wrap(cls, field: PrimeField, array: np.ndarray) -> FieldMatrix:
        """Adopt a 2-D int64 array that already holds residues mod q; it
        becomes read-only and must not be written through another name."""
        self = object.__new__(cls)
        self.field = field
        self.array = array
        array.setflags(write=False)
        return self

    # -- access -------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def row_tuples(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self.array.tolist()))

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if other.field != self.field:
            raise ValueError("operands over different fields")
        if other.rows != self.cols:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        return FieldMatrix._wrap(self.field, self.array @ other.array % self.field.q)

    def rank(self) -> int:
        """Rank over F_q, by the same elimination as :meth:`inverse`."""
        return _row_reduce(self.array.copy(), self.cols, self.field.q)

    def inverse(self) -> FieldMatrix:
        """Gauss-Jordan inverse; raises :class:`SingularMatrixError` if rank-deficient."""
        if self.rows != self.cols:
            raise ValueError(f"cannot invert non-square {self.rows}x{self.cols} matrix")
        n, q = self.rows, self.field.q
        aug = np.hstack([self.array, np.eye(n, dtype=np.int64)])
        if _row_reduce(aug, n, q) < n:
            raise SingularMatrixError(f"matrix is singular over F_{q}")
        return FieldMatrix._wrap(self.field, aug[:, n:])

    def __repr__(self) -> str:
        return f"FieldMatrix(q={self.field.q}, {self.row_tuples()})"


def _row_reduce(rows: np.ndarray, ncols: int, q: int) -> int:
    """Gauss-Jordan elimination in place on the first ``ncols`` columns of
    the int64 residue array ``rows``; returns the rank.

    Each pivot is the first nonzero entry of its column at or below the
    current rank.  Its row moves up to that rank, is scaled to 1 on the
    pivot column, and clears that column in every other row by one
    whole-array update.  Columns past ``ncols`` (an augmented identity, say)
    ride along.  At full rank on a square block, row i pivots on column i.
    """
    rank = 0
    for col in range(ncols):
        if rank == len(rows):
            break
        nonzero = rows[rank:, col].nonzero()[0]
        if not len(nonzero):
            continue
        piv = rank + int(nonzero[0])
        pivot_row = rows[piv] * pow(int(rows[piv, col]), -1, q) % q
        rows[piv] = rows[rank]
        rows -= rows[:, col, None] * pivot_row
        rows %= q
        rows[rank] = pivot_row
        rank += 1
    return rank


def shear(coeff: FieldMatrix) -> FieldMatrix:
    """``[[I, 0], [coeff, I]]``: on sources then targets, it adds ``coeff @
    sources`` into the targets; its inverse is the shear of ``-coeff``."""
    t, s = coeff.rows, coeff.cols
    block = np.eye(s + t, dtype=np.int64)
    block[s:, :s] = coeff.array
    return FieldMatrix._wrap(coeff.field, block)


def vandermonde(field: PrimeField, nodes: Sequence[int], width: int) -> FieldMatrix:
    """Matrix with rows ``(1, x, x**2, ..., x**(width-1))`` for each node x.

    Nodes must be pairwise distinct and nonzero: distinctness makes every
    square row-selection invertible, and nonzero nodes extend that to every
    square selection of a contiguous column block (the entry ``x**(c+j)``
    factors as ``x**c`` times a plain Vandermonde entry).
    """
    vals = _residues(nodes, field.q).ravel().tolist()
    if width < 1:
        raise ValueError("width must be at least 1")
    if len(set(vals)) != len(vals):
        raise ValueError("nodes must be pairwise distinct")
    if any(v == 0 for v in vals):
        raise ValueError("nodes must be nonzero")
    q = field.q
    return FieldMatrix(field, [[pow(x, j, q) for j in range(width)] for x in vals])
