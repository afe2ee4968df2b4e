"""Scheme parameters and the staircase codeword layout.

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
``(r1, ..., r_{k-1})``; that block splits into a head ``u`` (first ``k-m``
digits) and a tail ``v`` (last ``m-1`` digits), and the tail digits reappear
one per later column.  Column ``j >= 2`` stacks ``m-1`` zeros, ``v_{j-1}``,
and the ``j``-th randomness block.  Multiplying by the ``n x d`` Vandermonde
matrix on nodes ``1..n`` produces the ``n x m`` codeword table; row ``i`` is
participant ``i``'s share digits, stored one per qudit register.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator, Sequence

from .gf import _MAX_MODULUS, FieldMatrix, FieldVector, PrimeField, _is_prime, vandermonde

__all__ = [
    "ParameterError",
    "EnumerationCapError",
    "SchemeParams",
    "RandomnessSplit",
    "ShareLayout",
    "make_params",
    "scheme_vandermonde",
    "build_message_matrix",
    "encode_classical",
    "enumerate_codewords",
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
    ``m = d-k+1`` qudits, ``m*(k-1)`` randomness digits.
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
        if q >= _MAX_MODULUS:
            raise ParameterError(f"modulus q={q} exceeds the desk-scale bound {_MAX_MODULUS}")
        if not _is_prime(q):
            raise ParameterError(f"modulus q={q} is not prime")
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

    def layout(self) -> ShareLayout:
        return ShareLayout(self)


def make_params(k: int, d: int, q: int) -> SchemeParams:
    """Validate and build scheme parameters."""
    return SchemeParams(k, d, q)


@lru_cache(maxsize=64)
def _cached_vandermonde(k: int, d: int, q: int) -> FieldMatrix:
    f = PrimeField(q)
    return vandermonde(f, tuple(range(1, 2 * k)), d)


def scheme_vandermonde(p: SchemeParams) -> FieldMatrix:
    """The n x d Vandermonde matrix of the scheme, on nodes 1..n."""
    return _cached_vandermonde(p.k, p.d, p.q)


@dataclass(frozen=True)
class RandomnessSplit:
    """The m randomness blocks of length k-1, plus the head/tail split.

    The first block splits into the head ``u`` (its first ``k-m`` digits)
    and the tail ``v`` (its last ``m-1`` digits); the tail digits are the
    ones that leak into the later message-matrix columns.
    """

    params: SchemeParams
    blocks: tuple[FieldVector, ...]

    def __post_init__(self) -> None:
        p = self.params
        if len(self.blocks) != p.m:
            raise ValueError(f"expected {p.m} randomness blocks, got {len(self.blocks)}")
        for b in self.blocks:
            if len(b) != p.k - 1:
                raise ValueError(f"each randomness block must have {p.k - 1} digits")
            if b.field.q != p.q:
                raise ValueError("randomness block over the wrong field")

    @classmethod
    def from_flat(cls, p: SchemeParams, flat: Sequence[int] | FieldVector) -> RandomnessSplit:
        entries = tuple(flat)
        if len(entries) != p.randomness_len:
            raise ValueError(f"expected {p.randomness_len} randomness digits, got {len(entries)}")
        f = p.field
        w = p.k - 1
        blocks = tuple(FieldVector(f, entries[i * w : (i + 1) * w]) for i in range(p.m))
        return cls(p, blocks)

    @property
    def flat(self) -> FieldVector:
        f = self.params.field
        return FieldVector(f, tuple(e for b in self.blocks for e in b.entries))

    @property
    def u(self) -> FieldVector:
        """Head of the first block: its first k-m digits."""
        return self.blocks[0][: self.params.k - self.params.m]

    @property
    def v(self) -> FieldVector:
        """Tail of the first block: its last m-1 digits."""
        return self.blocks[0][self.params.k - self.params.m :]


@dataclass(frozen=True)
class ShareLayout:
    """Maps participants (1-based) to global qudit register indices.

    Participant ``i`` owns registers ``(i-1)*m .. i*m - 1``; register ``j``
    (0-based) of participant ``i`` holds codeword digit ``(i, j+1)``.
    """

    params: SchemeParams

    @property
    def total_registers(self) -> int:
        return self.params.n * self.params.m

    def registers_of(self, participant: int) -> tuple[int, ...]:
        self._check(participant)
        m = self.params.m
        return tuple(range((participant - 1) * m, participant * m))

    def register_of(self, participant: int, col: int) -> int:
        """Global register holding participant's 0-based codeword column ``col``."""
        self._check(participant)
        if not 0 <= col < self.params.m:
            raise IndexError(f"column {col} out of range for m={self.params.m}")
        return (participant - 1) * self.params.m + col

    def first_register_of(self, participant: int) -> int:
        return self.register_of(participant, 0)

    def owner_of(self, register: int) -> int:
        if not 0 <= register < self.total_registers:
            raise IndexError(f"register {register} out of range")
        return register // self.params.m + 1

    def _check(self, participant: int) -> None:
        if not 1 <= participant <= self.params.n:
            raise IndexError(f"participant {participant} out of range 1..{self.params.n}")


def build_message_matrix(s: FieldVector, split: RandomnessSplit, p: SchemeParams) -> FieldMatrix:
    """Assemble the d x m message matrix from a secret and split randomness.

    Column 1 is ``(s, first block)``; column ``j >= 2`` is
    ``(0^(m-1), v_{j-1}, j-th block)``.
    """
    if len(s) != p.m:
        raise ValueError(f"secret must have {p.m} digits, got {len(s)}")
    if s.field.q != p.q:
        raise ValueError("secret vector over the wrong field")
    if split.params != p:
        raise ValueError("randomness split built for different parameters")
    v = split.v
    cols: list[tuple[int, ...]] = [s.entries + split.blocks[0].entries]
    for j in range(2, p.m + 1):
        cols.append((0,) * (p.m - 1) + (v[j - 2],) + split.blocks[j - 1].entries)
    rows = [tuple(col[i] for col in cols) for i in range(p.d)]
    return FieldMatrix.from_rows(p.field, rows)


def encode_classical(s: FieldVector, split: RandomnessSplit, p: SchemeParams) -> FieldMatrix:
    """The n x m codeword table: Vandermonde matrix times message matrix.

    Row ``i`` is participant ``i+1``'s tuple of share digits.
    """
    return scheme_vandermonde(p) @ build_message_matrix(s, split, p)


def enumerate_codewords(
    s: FieldVector, p: SchemeParams, cap: int = DEFAULT_BRANCH_CAP
) -> Iterator[tuple[FieldVector, FieldMatrix]]:
    """Yield ``(randomness, codeword)`` for every randomness assignment.

    Iterates the full q**(m*(k-1)) space in lexicographic order (last digit
    fastest).  Raises :class:`EnumerationCapError` before yielding anything
    if the space exceeds ``cap``.
    """
    total = p.branch_count
    if total > cap:
        raise EnumerationCapError(
            f"enumeration of {total} codewords exceeds the cap of {cap}"
        )
    f = p.field
    for r in itertools.product(range(p.q), repeat=p.randomness_len):
        split = RandomnessSplit.from_flat(p, r)
        yield FieldVector(f, r), encode_classical(s, split, p)
