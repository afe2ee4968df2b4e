"""Scheme parameters, share registers and the staircase codeword table.

A scheme is fixed by ``(k, d, q)``: any ``k`` of the ``n = 2k-1``
participants can recover the secret, any ``d`` (with ``k <= d <= n``) can
recover it with less communication, and ``q`` is a prime larger than ``n``.
The secret is ``m = d-k+1`` qudits, padded with ``m*(k-1)`` uniformly random
field digits.

The message matrix has ``d`` rows and ``m`` columns and staggers the
randomness across columns.  For ``k = 3, d = 4`` (so ``m = 2``, randomness
``r = (r1, r2, r3, r4)``):

        col 1   col 2
      +-------+-------+
      |  s1   |  0    |   <- m-1 zero rows pad the top of columns >= 2
      |  s2   |  v1   |   <- row m carries one tail digit of the first block
      |  r1   |  r3   |
      |  r2   |  r4   |
      +-------+-------+

Column 1 stacks the secret on top of the first randomness block
``(r1, ..., r_{k-1})``.  In 0-based index ranges of ``r``, that block
``r[0 : k-1]`` has a head ``u = r[0 : k-m]`` and a tail
``v = r[k-m : k-1]`` of ``m-1`` digits, and the tail digits reappear one per
later column.
Column ``j >= 2`` stacks ``m-1`` zeros, ``v_{j-1}``, and the ``j``-th
randomness block ``r[(j-1)(k-1) : j(k-1)]``.  Multiplying by the ``n x d``
Vandermonde matrix on nodes ``1..n`` produces the ``n x m`` codeword table;
row ``i`` is participant ``i``'s share digits, stored one per qudit register
in the registers ``(i-1)*m .. i*m - 1`` that
:meth:`SchemeParams.registers_of` names.

The whole encoding is linear, so it is one generator matrix ``G`` over F_q
(:attr:`SchemeParams.generator`): its ``n*m`` rows are the share digits,
share-major, and its ``m + m*(k-1)`` columns are the secret digits followed
by the randomness digits, so the flattened codeword table is ``G [s; r]``.
The scheme value owns G, built once per value: the dealer and the combiners
read it from the parameters they are given, so a scheme with another G is
another value (a subclass that overrides :attr:`SchemeParams.generator`).
Secrets and randomness are plain digit sequences, reduced mod q; a
non-integral digit raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .gf import FieldMatrix, PrimeField, _residues, vandermonde

__all__ = [
    "ParameterError",
    "EnumerationCapError",
    "SchemeParams",
    "make_params",
    "build_message_matrix",
    "encode_classical",
    "codeword_rows",
    "DEFAULT_BRANCH_CAP",
]

# Guard against accidentally enumerating astronomically many codewords.
DEFAULT_BRANCH_CAP = 10_000_000


class ParameterError(ValueError):
    """Scheme parameters violate a validity constraint."""


class EnumerationCapError(ValueError):
    """The requested enumeration would exceed the configured branch cap."""


@dataclass(frozen=True)
class SchemeParams:
    """Validated parameters of a ((k, 2k-1, d)) scheme over F_q.

    Derived quantities: ``n = 2k-1`` participants, secret length
    ``m = d-k+1`` qudits, ``m*(k-1)`` randomness digits, and the matrices
    :attr:`vandermonde` and :attr:`generator`, each built once per value.
    Equality compares classes, so a subclass that overrides ``generator``
    is a different scheme from the staircase with the same ``(k, d, q)``.
    """

    k: int
    d: int
    q: int
    n: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self) -> None:
        k, d, q = self.k, self.d, self.q
        for name, val in (("k", k), ("d", d), ("q", q)):
            if not isinstance(val, int) or isinstance(val, bool):
                raise ParameterError(f"{name} must be an int, got {val!r}")
        if k < 1:
            raise ParameterError(f"threshold k must be positive, got {k}")
        n = 2 * k - 1
        if not k <= d <= n:
            raise ParameterError(f"d must satisfy k <= d <= 2k-1, got k={k}, d={d}")
        try:
            PrimeField(q)
        except ValueError as exc:
            raise ParameterError(str(exc)) from None
        if q <= n:
            raise ParameterError(f"modulus q={q} must exceed the participant count n={n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", d - k + 1)

    @property
    def field(self) -> PrimeField:
        return PrimeField(self.q)

    @property
    def randomness_len(self) -> int:
        return self.m * (self.k - 1)

    @property
    def branch_count(self) -> int:
        """Number of codewords per basis secret: q**(m*(k-1))."""
        return self.q**self.randomness_len

    @property
    def nodes(self) -> tuple[int, ...]:
        """Vandermonde evaluation nodes: participant i evaluates at x = i.

        Nodes 1..n are distinct and nonzero (q > n), which keeps every
        contiguous-column square block of the Vandermonde matrix invertible.
        """
        return tuple(range(1, self.n + 1))

    @cached_property
    def vandermonde(self) -> FieldMatrix:
        """The n x d Vandermonde matrix of the scheme, on nodes 1..n."""
        return vandermonde(self.field, self.nodes, self.d)

    @cached_property
    def generator(self) -> FieldMatrix:
        """The (n*m) x (m + m*(k-1)) generator G taking (secret, randomness)
        digits to the flattened codeword table, share-major.

        Built column by column from :func:`encode_classical` on unit vectors,
        so the dealer's G is by construction the linear extension of the
        encoder.
        """
        units = np.eye(self.m + self.randomness_len, dtype=np.int64)
        cols = [encode_classical(e[: self.m], e[self.m :], self).array.ravel() for e in units]
        return FieldMatrix._wrap(self.field, np.stack(cols, axis=1))

    def registers_of(self, participant: int) -> tuple[int, ...]:
        """Global registers of participant ``i`` (1-based): ``(i-1)*m ..
        i*m - 1``, register ``j`` holding codeword digit ``(i, j+1)``."""
        if not 1 <= participant <= self.n:
            raise IndexError(f"participant {participant} out of range 1..{self.n}")
        return tuple(range((participant - 1) * self.m, participant * self.m))


def make_params(k: int, d: int, q: int) -> SchemeParams:
    """Validate and build scheme parameters."""
    return SchemeParams(k, d, q)


def _digits(values: Sequence[int], length: int, what: str, q: int) -> np.ndarray:
    """``values`` as ``length`` residues mod q; non-integral digits raise TypeError."""
    arr = _residues(values, q)
    if arr.shape != (length,):
        raise ValueError(f"{what} must have {length} digits, got {arr.size}")
    return arr


def _message_matrices(secret: np.ndarray, randomness: np.ndarray, p: SchemeParams) -> np.ndarray:
    """The ``(R, d, m)`` stack of message matrices of one secret, one per row
    of the ``(R, m*(k-1))`` randomness residues.

    Column 1 is ``(s, first block)``; column ``j >= 2`` is
    ``(0^(m-1), v_{j-1}, j-th block)``, where the tail ``v`` is
    ``randomness[k-m : k-1]``.
    """
    m, w = p.m, p.k - 1
    msg = np.zeros((len(randomness), p.d, m), dtype=np.int64)
    msg[:, :m, 0] = secret
    # block j of each row fills rows m..d-1 of column j
    msg[:, m:] = randomness.reshape(len(randomness), m, w).transpose(0, 2, 1)
    msg[:, m - 1, 1:] = randomness[:, p.k - m : w]  # the tail of block 1, one digit per column
    return msg


def build_message_matrix(
    secret: Sequence[int], randomness: Sequence[int], p: SchemeParams
) -> FieldMatrix:
    """Assemble the d x m message matrix from the secret and randomness digits:
    the one-row case of the stack :func:`codeword_rows` multiplies."""
    s = _digits(secret, p.m, "secret", p.q)
    r = _digits(randomness, p.randomness_len, "randomness", p.q)
    return FieldMatrix._wrap(p.field, _message_matrices(s, r[None], p)[0])


def encode_classical(
    secret: Sequence[int], randomness: Sequence[int], p: SchemeParams
) -> FieldMatrix:
    """The n x m codeword table: Vandermonde matrix times message matrix.

    Row ``i`` is participant ``i+1``'s tuple of share digits.
    """
    return p.vandermonde @ build_message_matrix(secret, randomness, p)


def codeword_rows(secret: Sequence[int], p: SchemeParams, cap: int = DEFAULT_BRANCH_CAP) -> np.ndarray:
    """Every codeword of ``secret`` as a read-only ``(q**e, n*m)`` int64
    array, e = m*(k-1): row j is the flattened codeword table (share-major,
    as :func:`encode_classical` gives it) of the j-th randomness assignment
    in ``itertools.product`` order (last digit fastest).

    One product: the Vandermonde matrix times the stack of every message
    matrix.  Raises :class:`EnumerationCapError` if q**e exceeds ``cap``,
    before reading the secret.
    """
    total = p.branch_count
    if total > cap:
        raise EnumerationCapError(
            f"enumeration of {total} codewords exceeds the cap of {cap}"
        )
    s = _digits(secret, p.m, "secret", p.q)
    e = p.randomness_len
    powers = np.array([p.q**j for j in reversed(range(e))], dtype=np.int64)
    randomness = np.arange(total, dtype=np.int64)[:, None] // powers % p.q
    rows = (p.vandermonde.array @ _message_matrices(s, randomness, p) % p.q).reshape(total, p.n * p.m)
    rows.setflags(write=False)
    return rows
