"""Exact sparse simulator for registers of q-dimensional qudits.

States are complex superpositions over computational-basis labels.  Every
evolution offered here permutes basis labels -- invertible linear maps over
F_q on a register subset, of which an addition into a target block controlled
on disjoint source registers is one -- so amplitudes are carried around
unchanged and the only floating-point effect is ordinary rounding in the
amplitudes themselves.

Representation.  A state is held one of two ways.  Stored, it is a pair of
parallel arrays: an ``(N, R)`` matrix of basis labels (one row per branch,
one column per register), in the narrowest unsigned type that holds q - 1
(one byte per digit up to q = 251, two bytes above; :func:`_label_dtype`),
and an ``(N,)`` complex vector of amplitudes.  Encoded, as
:meth:`SparseState.encode` (the dealer) returns it, it is a secret, one
shift row per secret component (its codeword ``G[:, :t] x``) and a table
of q**e rows, at first G's cached codeword table; each branch is a shift
plus a table row (mod q).  A label map is linear, so
:meth:`SparseState.apply_affine` maps an encoded state of two or more
components by mapping its shifts and its table, and the result, which owns
its mapped table, is encoded too.  The first read of an encoded state's
labels or amplitudes writes them out, once, and from then on it is stored.
Its branch count, register count and repr never write it out.  A state is
a sparse map keyed by label rows; labels are packed into base-q integers
internally for sorting and grouping.
Rows are always unique, at every state size and with no scan for
collisions: the array constructor merges duplicate rows, and this module
owns both label maps, each with its rank certificate over F_q.  The dealer
needs a generator of full column rank, checked once per matrix;
:meth:`SparseState.apply_affine` needs an invertible square map, checked on
each call.  The label maps leave rows unsorted; the constructor and
:meth:`SparseState.canonical` sort them.

Label passes.  The passes over large label arrays -- the encoder's row sums,
the relabeling of ``apply_affine`` and the key pass of ``partial_trace`` --
work through blocks of ``_CHUNK_ROWS`` rows in one stream, so none builds a
wide (int32, int64, float or complex) copy of the whole label array, and
none divides integers.  Residues mod q come from
float BLAS products reduced as ``x - floor(x / q) * q``, which is exact for
the products' range (:func:`_mod_matmul`).  Each pass costs one read of the
labels (and amplitudes) and one write of its output:

- the encoder's row sums (:func:`_sum_rows`): every row of an outer array
  plus every row of an inner one, mod q, outer-major, written into a given
  slice of the result.  One writer builds G's cached codeword table (its
  high randomness digits' rows plus the low digits' table), the written-out
  encoded state (each component's shift plus the table) and each block
  of an encoded state's trace;
- ``apply_affine`` (:func:`_relabel`): one float product and reduction per
  block, over a stored state's labels, or over an encoded state's shifts
  and table rows.  A (4,5,11) session on a two-term secret maps 1.77 M
  table rows, not 3.54 M branches, and writes no branch out.  A
  one-component encoded state is written out and relabeled: its table has
  as many rows as it has branches, so mapping the table would save nothing
  and every later trace would pay the row sums again;
- ``partial_trace``: kept indices, packed discarded keys and the diagonal
  (:func:`_branch_keys`), then one in-place sort of the packed keys and one
  streamed comparison of sorted neighbours (:func:`_branch_order`).  On an
  encoded state not yet written out, the same passes run on its branches
  as they are written: each block's labels by the row-sum writer into one
  reused buffer, keyed there, and the weights split once per component;
  the groups of several branches gather each branch's amplitude from its
  component's, at ``branch // len(table)``.  So the trace reads the table,
  not an (N, R) label array and N amplitudes: a (4,5,11) share's trace
  peaks at about 36 MB, where the stored state alone takes 107 MB.  Both
  paths give the same reduced state, bit for bit.

The key pass packs each branch's key and index into one uint64, so one
in-place sort gives both the branch order and the group boundaries; keys too
wide to pack are sorted by their label columns.  Canonical order and
duplicate merging use the same key builder with no kept registers and no
diagonal.

Reduced states.  ``partial_trace`` groups branches by the digits of the
discarded registers.  A :class:`DensityMatrix` has one form: its exact
diagonal, and its coherences as a u x u block on the u kept indices that
carry any.  When no group holds two branches, as for every unauthorized
subset of a dealt state (the discarded shares fix the branch), the block is
empty and no amplitude or index is read in sorted order.  Groups of several
branches, as in a recovered state, are summed as dense blocks over the kept
indices they occupy, so no sparse-matrix library, no dim x dim array and no
copy of the whole state's amplitudes is needed; the module imports numpy
alone.  ``purity``, ``fidelity`` and ``trace_distance`` read the diagonal and
the block; the only dense objects are the u x u block and, in
``trace_distance``, the difference of two states on the union of their
occupied indices.  Nothing here reads ``DensityMatrix.matrix``.

Summation order.  Every diagonal entry sums its branches' weights
``|amp|**2`` in branch order, block by block, split into a coarse part that
sums exactly and a small remainder (:func:`_branch_keys`), so it lies within
about one ulp of the correctly rounded sum however many branches it has.
(Summed one after another, 7.9 M equal weights drift 2e-10 from 1, and
their purity twice that, past ``MATCH_TOL``.)  The coherences are dense
products in group order.

Tolerances.  Normalization and trace checks use ``NORM_TOL``
(1e-12); state/fidelity comparisons use ``MATCH_TOL`` (1e-10); amplitudes
below ``PRUNE_TOL`` (1e-14) are dropped.  The first two are exported;
``PRUNE_TOL`` is a constant of this module alone.  A non-finite amplitude,
or a norm too large for a float, raises ``ValueError`` when a state is
built.  Amplitudes in this problem domain
are of the form (small integer) / sqrt(branch count), and every sum over
branches is blocked or split as above, so accumulated error sits far below
all three.
"""

from __future__ import annotations

import cmath
import math
import operator
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .gf import FieldMatrix, PrimeField, SingularMatrixError, _exact_ints, shear

__all__ = [
    "EmptyStateError",
    "DimensionCapError",
    "SparseState",
    "DensityMatrix",
    "superpose",
    "fidelity",
    "trace_distance",
    "factor_check",
    "random_state",
    "NORM_TOL",
    "MATCH_TOL",
    "DEFAULT_DIM_CAP",
]

PRUNE_TOL = 1e-14
NORM_TOL = 1e-12
MATCH_TOL = 1e-10

# Largest kept dimension of a partial trace.  Its diagonal is a float vector
# of that length; the dense objects are the u x u coherence block and the
# |U| x |U| difference in ``trace_distance``, each at most this many rows.
DEFAULT_DIM_CAP = 4096

# Rows per block of the label passes (deal, relabel, partial trace): bounds
# their temporaries at a few megabytes.  Larger blocks are slower, not
# faster: with two BLAS threads one 65536-row key product costs several times
# what eight 8192-row ones do.
_CHUNK_ROWS = 1 << 13
# Amplitudes per dense block of the multi-branch groups in ``partial_trace``
# (one megabyte of complex128).
_BLOCK_ENTRIES = 1 << 16
# The coarse part of each weight ``|amp|**2`` in the streamed diagonal of
# ``partial_trace`` is an integer multiple of 1 / _WEIGHT_GRID (see
# _branch_keys).
_WEIGHT_GRID = 2.0**40


class EmptyStateError(ValueError):
    """All amplitudes cancelled or no branches were supplied."""


class DimensionCapError(ValueError):
    """A dense object would exceed the configured dimension cap."""


def _label_dtype(q: int) -> np.dtype:
    """The narrowest unsigned type that holds every digit of F_q: uint8 up to
    q = 251, uint16 for every larger field PrimeField accepts (q < 2**16).
    Every label array of a state over F_q has this type."""
    return np.min_scalar_type(q - 1)


def _as_labels(digits, q: int) -> np.ndarray:
    """Label rows in the label type of F_q, after checking every digit is an
    integer in [0, q).

    Non-integral digits raise ``TypeError`` and out-of-range digits
    ``ValueError``, both before the cast, so nothing is truncated or wrapped.
    An empty array of any dtype (zero-register labels) is accepted.
    """
    arr = np.asarray(digits)
    if arr.size and arr.dtype.kind not in "biu":
        arr = np.array(_exact_ints(arr)).reshape(arr.shape)
    if arr.size and (arr.min() < 0 or arr.max() >= q):
        raise ValueError(f"label digits must lie in [0, {q})")
    return arr.astype(_label_dtype(q), copy=False)


def _powers(q: int, width: int) -> np.ndarray:
    """Place values of ``width`` big-endian base-q digits, as float64."""
    return q ** np.arange(width - 1, -1, -1, dtype=np.float64)


def _index_bits(n: int) -> int:
    """Low bits of a packed key that hold a branch index below n."""
    return (n - 1).bit_length()


def _packs(q: int, width: int, n: int) -> bool:
    """Whether ``width`` base-q digits and an index below n fit one packed key.

    The digits' key is a float64 dot product with :func:`_powers`, so it must
    be exact (below 2**53); its bit count plus :func:`_index_bits` must fit
    the 64 bits of the packed key.
    """
    key_bits = (q**width - 1).bit_length()
    return key_bits <= 53 and key_bits + _index_bits(n) <= 64


def _digit_rows(values: np.ndarray, q: int, width: int) -> np.ndarray:
    """One int64 row per value: its ``width`` base-q digits, most significant first."""
    rows = np.zeros((len(values), width), dtype=np.int64)
    rem = values.astype(np.int64)
    for pos in range(width - 1, -1, -1):
        rows[:, pos] = rem % q
        rem //= q
    return rows


def _pack(keys: np.ndarray, start: int, bits: int, out: np.ndarray) -> None:
    """Write packed sort keys of consecutive branches into uint64 ``out``.

    ``keys`` holds the branches' exact integer keys as floats; each is
    shifted up by ``bits`` and the branch index (``start``, ``start + 1``,
    ...) fills the low bits.  Packed keys are distinct, so one plain sort of
    them orders branches by key and, within a key, by index.
    """
    np.left_shift(keys.astype(np.uint64), np.uint64(bits), out=out)
    out |= np.arange(start, start + len(out), dtype=np.uint64)


def _mod_matmul(rows: np.ndarray, coeff_t: np.ndarray, q: int) -> np.ndarray:
    """Exact ``(rows @ coeff_t) % q`` for small residues, via float BLAS, as floats.

    Both factors hold residues below q, so every dot product x is an integer
    of at most ``t * (q-1)**2``.  Below 2**24 that is exact in float32, and
    otherwise in float64 (below 2**53 for q < 2**16 at desk-scale register
    counts).  The reduction ``x - floor(x / q) * q`` is exact too: write
    ``x = a*q + r`` with ``0 <= r < q``.  The rounded quotient errs by at most
    ``x / q`` units of 2**-24 (2**-53), which is less than the ``1/q`` between
    ``x / q`` and ``a + 1``, so its floor is ``a``; and ``a*q <= x`` is exact.
    Float matmul goes through BLAS instead of numpy's slow integer fallback,
    and float division vectorizes where integer ``%`` does not.
    """
    bound = rows.shape[1] * (q - 1) ** 2
    ftype = np.float32 if bound < (1 << 24) else np.float64
    prod = rows.astype(ftype) @ coeff_t.astype(ftype)
    modulus = ftype(q)
    quotient = prod / modulus
    np.floor(quotient, out=quotient)
    quotient *= modulus
    prod -= quotient
    return prod


def _mod_add(labels: np.ndarray, digits: np.ndarray, q: int, out: np.ndarray) -> None:
    """Write ``(labels + digits) % q`` into ``out``, ``_CHUNK_ROWS`` rows at a time.

    ``digits`` is one row of residues, added to every label row.  Each block
    is summed in the narrowest unsigned type that holds ``2 * (q - 1)``: the
    labels' own type up to q = 127 (bytes) and q = 32749 (uint16), the next
    wider one above.  There the wrapped difference ``x - q`` is smaller than
    ``x`` exactly when ``x >= q``, so ``min(x, x - q)`` is the residue.
    """
    work = np.min_scalar_type(2 * (q - 1)).type
    row = np.asarray(digits).astype(work)
    modulus = work(q)
    for lo in range(0, len(labels), _CHUNK_ROWS):
        x = np.add(labels[lo : lo + _CHUNK_ROWS], row, dtype=work)
        np.minimum(x, x - modulus, out=out[lo : lo + _CHUNK_ROWS], casting="unsafe")


def _sum_rows(
    outer: np.ndarray, inner: np.ndarray, q: int, out: np.ndarray, start: int = 0
) -> tuple[int, list[int]]:
    """Write rows ``start .. start + len(out)`` of every ``outer`` row plus
    every ``inner`` row (mod q), outer-major, into ``out`` (:func:`_mod_add`).

    Returns the first outer row used and how many rows each outer row gave.
    """
    width, stop = len(inner), start + len(out)
    first, counts = start // width, []
    for o in range(first, -(-stop // width)):
        base = o * width - start
        a, b = max(-base, 0), min(len(out) - base, width)
        _mod_add(inner[a:b], outer[o], q, out=out[base + a : base + b])
        counts.append(b - a)
    return first, counts


def _relabel(labels: np.ndarray, targets: list[int], a: np.ndarray, q: int) -> np.ndarray:
    """A copy of ``labels`` with the target columns mapped by ``x -> a x``
    (mod q), in one pass of ``_CHUNK_ROWS``-row blocks: each block is
    copied, and its target columns mapped and written over the copy while
    still in cache."""
    out = np.empty_like(labels)
    for lo in range(0, len(out), _CHUNK_ROWS):
        rows = out[lo : lo + _CHUNK_ROWS]
        rows[...] = labels[lo : lo + _CHUNK_ROWS]
        rows[:, targets] = _mod_matmul(rows[:, targets], a.T, q)
    return out


@lru_cache(maxsize=2)
def _codeword_table(q: int, shape: tuple[int, int], entries: bytes, t: int) -> np.ndarray:
    """The randomness part ``G[:, t:] @ r`` of every codeword of G, as
    read-only label rows, one per r in F_q^e in lexicographic order.

    G over F_q is given by its shape and its int64 entries in row-major
    bytes, so equal matrices share one cache entry however they were built.
    Raises :class:`SingularMatrixError` unless G has full column rank over
    F_q: that rank makes distinct (x, r) give distinct codewords, and it is
    checked once per cached (G, t), with the table.
    """
    array = np.frombuffer(entries, dtype=np.int64).reshape(shape)
    generator = FieldMatrix._wrap(PrimeField(q), array)
    rank = generator.rank()
    if rank != generator.cols:
        raise SingularMatrixError(
            f"generator matrix has rank {rank} over F_{q}, below its "
            f"{generator.cols} columns; codewords would collide"
        )
    e = generator.cols - t
    coeff_t = generator.array[:, t:].T
    # Each r splits into its high digits and its ``low`` last digits, so its
    # codeword is the high digits' row plus one row of the low digits' table
    # (mod q).  The table is written one block per high row, with
    # ``q**low`` rows per block: at most _CHUNK_ROWS unless q exceeds it.
    low = min(e, 1)
    while low < e and q ** (low + 1) <= _CHUNK_ROWS:
        low += 1
    split = e - low
    inner = _mod_matmul(_digit_rows(np.arange(q**low), q, low), coeff_t[split:], q)
    inner = inner.astype(_label_dtype(q))
    outer = _mod_matmul(_digit_rows(np.arange(q**split), q, split), coeff_t[:split], q)
    table = np.empty((q**e, generator.rows), dtype=inner.dtype)
    _sum_rows(outer, inner, q, table)
    table.setflags(write=False)
    return table


def _branch_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The order that sorts branches by key, and which sorted keys equal the next.

    Every branch order in this module comes from here, by one of two paths
    that the key's bit width selects.  Packed keys (one uint64 per branch,
    see :func:`_pack`) are sorted in place and consumed: afterwards the low
    bits are the order and equal high bits mark a shared key.  An ``(n, t)``
    array of label columns, too wide to pack, goes through ``np.lexsort``.
    Both paths keep the branches of one key in index order.
    """
    if keys.ndim == 2:
        # np.lexsort sorts by the last key first; feed columns right-to-left.
        order = np.lexsort(keys.T[::-1])
        rows = keys[order]
        return order, np.all(rows[1:] == rows[:-1], axis=1)
    keys.sort()
    bits = np.uint64(_index_bits(len(keys)))
    mask = (np.uint64(1) << bits) - np.uint64(1)
    same = np.empty(max(len(keys) - 1, 0), dtype=bool)
    # Block by block: compare each key with the next one (still unmasked,
    # as the next block masks it), then mask the block down to its index.
    for lo in range(0, len(same), _CHUNK_ROWS):
        hi = min(lo + _CHUNK_ROWS, len(same))
        high = keys[lo : hi + 1] >> bits
        np.equal(high[1:], high[:-1], out=same[lo:hi])
        keys[lo:hi] &= mask
    keys[len(same) :] &= mask
    return keys.view(np.int64), same


def _coerce_matrix(matrix, q: int) -> FieldMatrix:
    """A relabeling matrix over F_q: a :class:`FieldMatrix` as is, anything
    else through its one constructor, which rejects any shape but 2-D."""
    if isinstance(matrix, FieldMatrix):
        if matrix.field.q != q:
            raise ValueError(f"matrix over F_{matrix.field.q}, state over F_{q}")
        return matrix
    return FieldMatrix(PrimeField(q), matrix)


class SparseState:
    """A normalized pure state of ``num_registers`` qudits of dimension q.

    Construct via :meth:`basis`, :meth:`from_branches`, the array
    constructor (which always dedupes, prunes and normalizes, and raises
    ``ValueError`` for a non-finite amplitude before any sort) or
    :meth:`encode`.  A state is stored (its label and amplitude arrays) or
    encoded (a secret, its components' shifts and a codeword table), which
    :meth:`apply_affine` keeps encoded for two or more components; an
    encoded state is written out on the first read of :attr:`labels` or
    :attr:`amps`, at most once, and stored from then on.  Instances are
    immutable: arrays are write-protected and operations return new states.
    """

    __slots__ = ("q", "num_registers", "_labels", "_amps", "_encoding")

    def __init__(self, q: int, labels, amps) -> None:
        PrimeField(q)  # validates primality / size
        labels = _as_labels(np.array(labels, ndmin=2), q)
        amps = np.asarray(amps, dtype=np.complex128).ravel().copy()
        if not np.isfinite(amps).all():
            raise ValueError(f"amplitude {amps[~np.isfinite(amps)][0]} is not finite")
        if labels.shape[0] != amps.shape[0]:
            raise ValueError("labels and amplitudes disagree on branch count")
        labels, amps = _combine(labels, amps, q)
        self._store(q, *_prune_normalize(labels, amps))

    # -- constructors ---------------------------------------------------

    @classmethod
    def _wrap(cls, q: int, labels: np.ndarray, amps: np.ndarray) -> SparseState:
        """Internal: wrap arrays known to hold unique labels and unit norm."""
        self = object.__new__(cls)
        self._store(q, labels, amps)
        return self

    def _store(self, q: int, labels: np.ndarray, amps: np.ndarray) -> None:
        """Hold the state as these arrays, write-protected, from now on."""
        labels.setflags(write=False)
        amps.setflags(write=False)
        self.q, self.num_registers = q, labels.shape[1]
        self._labels, self._amps, self._encoding = labels, amps, None

    @classmethod
    def basis(cls, q: int, digits: Sequence[int]) -> SparseState:
        """The computational basis state with the given register digits."""
        return cls(q, [tuple(digits)], [1.0])

    @classmethod
    def from_branches(
        cls, q: int, branches: Iterable[tuple[Sequence[int], complex]]
    ) -> SparseState:
        """Build a state from ``(label, weight)`` pairs.

        Weights on duplicate labels are summed; the result is pruned and
        normalized.  Raises :class:`EmptyStateError` if nothing survives.
        """
        pairs = list(branches)
        if not pairs:
            raise EmptyStateError("no branches supplied")
        lengths = {len(lbl) for lbl, _ in pairs}
        if len(lengths) != 1:
            raise ValueError(f"branch labels have differing lengths: {sorted(lengths)}")
        labels = np.array([tuple(lbl) for lbl, _ in pairs])
        amps = np.array([w for _, w in pairs], dtype=np.complex128)
        return cls(q, labels, amps)

    def encode(self, generator) -> SparseState:
        """The encoded state ``sum_x psi(x) q**(-e/2) sum_{r in F_q^e} |G [x; r]>``
        of this secret psi on t registers, on the rows of G over F_q with
        t + e columns; the one way to encode (the dealer).

        The result holds this secret, each component's shift ``G[:, :t] x``
        (mod q), computed here once, and G's randomness table
        (:func:`_codeword_table`), fetched here.  So a generator without
        full column rank raises :class:`SingularMatrixError` here, and one
        over another field or with fewer columns than the secret has
        registers raises ``ValueError``; that rank certifies the labels
        distinct.  Component c of the secret owns q**e consecutive branches:
        its codeword ``G[:, :t] x`` plus each table row (mod q,
        :func:`_sum_rows`), each with the component's amplitude over
        ``sqrt(q**e)``.  Nothing is written out until the labels or
        amplitudes are read; until then :meth:`partial_trace` streams the
        branches from the table.
        """
        g, t = _coerce_matrix(generator, self.q), self.num_registers
        if g.cols < t:
            raise ValueError(f"generator has {g.cols} columns, fewer than the {t} registers")
        table = _codeword_table(self.q, g.array.shape, g.array.astype(np.int64, copy=False).tobytes(), t)
        shifts = _mod_matmul(self.labels, g.array[:, :t].T, self.q).astype(table.dtype)
        return SparseState._encoded(self.q, self, shifts, table)

    @classmethod
    def _encoded(cls, q: int, secret: SparseState, shifts: np.ndarray, table: np.ndarray) -> SparseState:
        """Internal: the encoded state whose component c owns the rows
        ``shifts[c]`` plus each table row (mod q), with the amplitude of the
        secret's component c over ``sqrt(len(table))``."""
        for part in (shifts, table):
            part.setflags(write=False)
        self = object.__new__(cls)
        self.q, self.num_registers, self._encoding = q, table.shape[1], (secret, shifts, table)
        self._labels = self._amps = None
        return self

    # -- basic properties -----------------------------------------------

    @property
    def labels(self) -> np.ndarray:
        """The ``(N, R)`` label rows, read-only; an encoded state is written
        out on the first read, in component order, not re-sorted."""
        if self._encoding is not None:
            self._write_out()
        return self._labels

    @property
    def amps(self) -> np.ndarray:
        """The ``(N,)`` amplitudes, read-only, in branch order; an encoded
        state is written out on the first read."""
        if self._encoding is not None:
            self._write_out()
        return self._amps

    @property
    def num_branches(self) -> int:
        if self._encoding is None:
            return len(self._amps)
        return self._encoding[0].num_branches * len(self._encoding[2])

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def canonical(self) -> SparseState:
        """The same state with branches sorted lexicographically by label."""
        return SparseState._wrap(self.q, *_combine(self.labels, self.amps, self.q))

    def dump(self) -> str:
        """One line per branch: ``label-digits : re,im``, sorted by label.

        Digits are concatenated for q <= 10 and comma-separated otherwise.
        """
        state = self.canonical()
        sep = "" if self.q <= 10 else ","
        lines = []
        for row, amp in zip(state.labels, state.amps):
            digits = sep.join(str(int(d)) for d in row)
            lines.append(f"{digits} : {float(amp.real)!r},{float(amp.imag)!r}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SparseState(q={self.q}, registers={self.num_registers}, "
            f"branches={self.num_branches})"
        )

    # -- evolution --------------------------------------------------------

    def apply_affine(self, targets: Sequence[int], matrix) -> SparseState:
        """Relabel the target registers by ``x -> A x (mod q)``.

        ``A`` must be invertible over F_q, which makes the relabeling a
        permutation of basis states (hence unitary); amplitudes are reused
        untouched, so the 2-norm is preserved exactly.  That check is the
        certificate that the new labels are distinct; they are not re-sorted.
        Registers, the matrix, its shape, then its rank are checked, in that
        order, before anything is mapped.

        An encoded state of two or more secret components, not yet written
        out, stays encoded: the map is linear, so ``A (h + t) = A h + A t``
        (mod q), and the result holds the same secret with its shifts and its
        table mapped (:func:`_relabel`), a table of its own outside the
        codeword-table cache.  Its labels, once written out, equal those of
        the written-out state mapped, row for row.  Any other state, a
        one-component encoded one included, is written out (once) and its
        labels are mapped.
        """
        targets = _registers(targets, self.num_registers, "target")
        a = _coerce_matrix(matrix, self.q)
        t = len(targets)
        if a.array.shape != (t, t):
            raise ValueError(f"matrix shape {a.array.shape} does not match {t} target registers")
        if a.rank() != t:
            raise SingularMatrixError(
                f"affine map matrix is singular over F_{self.q}; not a basis permutation"
            )
        if self._encoding is not None and self._encoding[0].num_branches > 1:
            secret, shifts, table = self._encoding
            shifts, table = (_relabel(x, targets, a.array, self.q) for x in (shifts, table))
            return SparseState._encoded(self.q, secret, shifts, table)
        return SparseState._wrap(self.q, _relabel(self.labels, targets, a.array, self.q), self.amps)

    def apply_controlled_add(
        self, sources: Sequence[int], targets: Sequence[int], coeff
    ) -> SparseState:
        """Add ``coeff @ source-digits`` into the target digits (mod q): the
        invertible map ``shear(coeff)`` on disjoint ``sources + targets``."""
        sources = _registers(sources, self.num_registers, "source")
        targets = _registers(targets, self.num_registers, "target")
        if set(sources) & set(targets):
            raise ValueError("source and target registers overlap")
        c = _coerce_matrix(coeff, self.q)
        s, t = len(sources), len(targets)
        if c.array.shape != (t, s):
            raise ValueError(
                f"coefficient shape {c.array.shape} does not map {s} sources to {t} targets"
            )
        return self.apply_affine(sources + targets, shear(c))

    # -- measurement-side quantities --------------------------------------

    def partial_trace(self, keep: Sequence[int], dim_cap: int = DEFAULT_DIM_CAP) -> DensityMatrix:
        """Reduced density matrix of the kept registers (in the given order).

        Groups branches by the digits of the discarded registers; the reduced
        matrix is the sum of one outer product per group.  The passes:

        - One streamed pass over the labels and amplitudes, ``_CHUNK_ROWS``
          rows at a time (:func:`_branch_keys`).  It writes each branch's
          kept index, in the narrowest unsigned type that holds the
          dimension, and its discarded key packed with its branch index, and
          adds each block's ``|amp|**2`` into the diagonal.
        - One in-place sort of the packed keys (a ``np.lexsort`` of the
          discarded columns if key and index exceed 64 bits).  A streamed
          comparison of sorted neighbours then marks the groups.

        The diagonal is the streamed one in every case: each entry is summed
        in branch order, in the two parts described at :func:`_branch_keys`,
        and lies within about one ulp of the exact sum of its weights however
        many branches it has.  If no group holds two branches, as for every
        unauthorized subset of a dealt state, that diagonal is the whole
        reduced state, returned with no gather in sorted order.  Otherwise
        the branches of the groups of two or more are gathered in sorted
        order and summed densely over the u kept indices they occupy
        (:func:`_group_outer_sum`), at about ``groups * u**2`` complex
        multiply-adds, and the off-diagonal part of that u x u sum is the
        state's coherences.  For the states this program traces (a recovered
        secret block, the complement of a factored block) every group
        occupies the same u indices, so u is the group size.  No dim x dim
        array is built.

        An encoded state not yet written out is reduced with none of it
        written out, equal bit for bit to the reduction of the written-out
        state: the same passes on the same ``_CHUNK_ROWS`` blocks of
        branches, each block's labels written from its shifts and table into
        one reused buffer and keyed there (:meth:`_encoded_blocks`).  Its N
        branch amplitudes are never expanded: where some group of discarded
        digits holds two branches, as on an authorized set or a recovered
        state, each of their amplitudes is read from its component's.
        """
        keep = _registers(keep, self.num_registers, "kept")
        dim = self.q ** len(keep)
        if dim > dim_cap:
            raise DimensionCapError(
                f"reduced dimension {self.q}**{len(keep)} = {dim} exceeds the cap {dim_cap}"
            )
        rest = [r for r in range(self.num_registers) if r not in keep]
        stored = self._encoding is None
        blocks = _stored_blocks(self._labels, self._amps) if stored else self._encoded_blocks()
        kept_idx, rest_keys, sums = _branch_keys(blocks, self.num_branches, self.q, keep, rest)
        diagonal = sums[0] / _WEIGHT_GRID + sums[1]
        order, same = _branch_order(rest_keys)
        if not same.any():
            return DensityMatrix._reduced(self.q, len(keep), diagonal)
        # The groups' sum P lives on the kept indices they occupy.  Its
        # off-diagonal part, symmetrized as (P + P^H) / 2, is exactly
        # Hermitian; its diagonal repeats weights the streamed diagonal holds.
        multi, bounds = _multi_groups(order, same)
        amps, per = (self._amps, 1) if stored else (self._component_amps(), len(self._encoding[2]))
        occupied, prod = _group_outer_sum(amps, per, kept_idx, multi, bounds, dim)
        coherences = (prod + prod.conj().T) * 0.5
        np.fill_diagonal(coherences, 0.0)
        return DensityMatrix._reduced(self.q, len(keep), diagonal, occupied, coherences)

    # -- the encoded form -------------------------------------------------

    def _component_amps(self) -> np.ndarray:
        """Each secret component's branch amplitude."""
        secret, _, table = self._encoding
        return secret.amps * (1.0 / math.sqrt(len(table)))

    def _write_out(self) -> None:
        """Write every branch of the encoded state out and store it."""
        labels = np.empty((self.num_branches, self.num_registers), dtype=self._encoding[2].dtype)
        _sum_rows(self._encoding[1], self._encoding[2], self.q, labels)
        self._store(self.q, labels, np.repeat(self._component_amps(), len(self._encoding[2])))

    def _encoded_blocks(self) -> Iterator[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]]:
        """The blocks of the written-out labels, ``_CHUNK_ROWS`` rows each,
        written one after another into one buffer, with their split weights
        (:func:`_stored_blocks`).  A block may span components: each
        component's split weight repeats over the rows it gave the block."""
        _, shifts, table = self._encoding
        n, amps = self.num_branches, self._component_amps()
        parts = _split_weights(amps.real**2 + amps.imag**2)
        buffer = np.empty((min(n, _CHUNK_ROWS), self.num_registers), dtype=table.dtype)
        for lo in range(0, n, _CHUNK_ROWS):
            block = buffer[: min(_CHUNK_ROWS, n - lo)]
            first, counts = _sum_rows(shifts, table, self.q, block, start=lo)
            yield block, tuple(np.repeat(part[first : first + len(counts)], counts) for part in parts)


def _registers(regs: Sequence[int], count: int, what: str) -> list[int]:
    """``regs`` as ints, each one of ``count`` registers and none twice.

    Each index goes through ``operator.index``, so numpy integers pass and a
    float raises ``TypeError`` instead of being truncated.
    """
    regs = [operator.index(r) for r in regs]
    for r in regs:
        if not 0 <= r < count:
            raise IndexError(f"{what} register {r} out of range 0..{count - 1}")
    if len(set(regs)) != len(regs):
        raise ValueError(f"duplicate {what} registers: {regs}")
    return regs


def _split_weights(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each weight as its coarse part, the nearest integer multiple of
    1 / _WEIGHT_GRID counted as that integer, and the remainder, written
    over ``weights`` (see :func:`_branch_keys`)."""
    coarse = np.rint(weights * _WEIGHT_GRID)
    weights -= coarse / _WEIGHT_GRID
    return coarse, weights


def _stored_blocks(labels: np.ndarray, amps: np.ndarray | None = None) -> Iterator:
    """The label blocks of a stored state, ``_CHUNK_ROWS`` rows each, with
    their split weights ``|amp|**2`` (None without ``amps``)."""
    for lo in range(0, len(labels), _CHUNK_ROWS):
        block = None if amps is None else amps[lo : lo + _CHUNK_ROWS]
        weights = None if block is None else _split_weights(block.real**2 + block.imag**2)
        yield labels[lo : lo + _CHUNK_ROWS], weights


def _branch_keys(
    blocks: Iterable, n: int, q: int, keep: list[int], rest: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kept-block index and discarded-register sort key of each of n
    branches, and the two parts of the diagonal of the reduced state on the
    kept registers, the coarse sums then the remainders' sums.

    ``blocks`` yields the branches' labels in order, in blocks of at most
    ``_CHUNK_ROWS`` rows, each with its weights ``|amp|**2`` split in two
    (:func:`_split_weights`), or None, which leaves the diagonal zero.  All
    three come from one pass over the blocks; the keys are float dot
    products (exact below 2**53), and the discarded one is packed with the
    branch index (:func:`_pack`).  Where key and index do not fit 64 bits
    together (:func:`_packs`), the discarded label columns take the packed
    key's place.  With no kept registers and all discarded, the key orders
    whole labels.

    The diagonal entry of a kept index is the sum of ``|amp|**2`` over its
    branches, kept in two parts that each block's ``bincount`` adds to in
    branch order.  Each weight splits exactly into a coarse part, the
    nearest integer multiple of 2**-40 (counted as that integer), and the
    remainder, at most 2**-41.  The weights of a normalized state sum to
    about 1, so every partial sum of the coarse integers stays far below
    2**53 and is exact in any order.  The remainders' block-by-block sums err
    by orders of magnitude less than one ulp of 1.  So the diagonal, the
    coarse sum scaled back plus the remainders' sum, lies within about one
    ulp of the correctly rounded sum of the weights, whatever their number.
    """
    dim = q ** len(keep)
    packs = _packs(q, len(rest), n)
    powers = np.zeros((len(keep) + len(rest), 2 if packs else 1))
    powers[keep, 0] = _powers(q, len(keep))
    if packs:
        powers[rest, 1] = _powers(q, len(rest))
    bits = _index_bits(n)
    kept_idx = np.empty(n, dtype=np.min_scalar_type(dim - 1))
    if packs:
        rest_keys = np.empty(n, dtype=np.uint64)
    else:
        rest_keys = np.empty((n, len(rest)), dtype=_label_dtype(q))
    sums = np.zeros((2, dim))
    lo = 0
    for labels, weights in blocks:
        hi = lo + len(labels)
        keys = labels.astype(np.float64) @ powers
        kept_idx[lo:hi] = keys[:, 0]
        if packs:
            _pack(keys[:, 1], lo, bits, rest_keys[lo:hi])
        else:
            rest_keys[lo:hi] = labels[:, rest]
        if weights is not None:
            for total, part in zip(sums, weights):
                total += np.bincount(kept_idx[lo:hi], weights=part, minlength=dim)
        lo = hi
    return kept_idx, rest_keys, sums


def _multi_groups(order: np.ndarray, same: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The branches of the groups of two or more, in sorted order, and the
    groups' bounds in that list (:func:`_bounds`).

    A branch shares its group iff it has the key of a sorted neighbour, and
    opens its group iff its key differs from the one before.  ``order`` is
    returned as is, not copied, when no branch is a singleton, as in a
    recovered state.
    """
    in_multi = np.zeros(len(order), dtype=bool)
    in_multi[1:] = same
    in_multi[:-1] |= same
    opens = np.empty(len(order), dtype=bool)
    opens[0] = True
    np.logical_not(same, out=opens[1:])
    if in_multi.all():
        return order, _bounds(opens)
    return order[in_multi], _bounds(opens[in_multi])


def _bounds(opens: np.ndarray) -> np.ndarray:
    """Where each group opens, then the end: ``np.flatnonzero(opens)`` and
    ``len(opens)``, in the narrowest unsigned type that holds that length.

    The indices are found ``_CHUNK_ROWS`` entries at a time, so no int64
    array of all of them is made.
    """
    out = np.empty(np.count_nonzero(opens) + 1, dtype=np.min_scalar_type(len(opens)))
    pos = 0
    for lo in range(0, len(opens), _CHUNK_ROWS):
        found = np.flatnonzero(opens[lo : lo + _CHUNK_ROWS])
        out[pos : pos + len(found)] = found + lo
        pos += len(found)
    out[-1] = len(opens)
    return out


def _group_outer_sum(
    amps: np.ndarray, per: int, kept_idx: np.ndarray, multi: np.ndarray, bounds: np.ndarray, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """The kept indices that the multi-branch groups occupy, and the groups'
    summed outer products ``sum_g v_g v_g^H`` on those u indices.

    ``multi`` lists the groups' branches in sorted order, group g at
    ``bounds[g]:bounds[g + 1]``.  Branch i's amplitude is
    ``amps[i // per]``: a stored state's amplitudes with ``per`` 1, or an
    encoded state's component amplitudes with ``per`` its table length.  The groups fill dense ``(groups x u)``
    blocks of at most ``_BLOCK_ENTRIES`` amplitudes, and each block adds
    ``block.T @ block.conj()`` to the u x u sum.  Labels are unique, so no
    two branches of a group share a kept index.
    """
    kept = kept_idx[multi]
    # Counted block by block: ``np.bincount`` copies its input to int64.
    counts = np.zeros(dim, dtype=np.intp)
    for lo in range(0, len(kept), _CHUNK_ROWS):
        counts += np.bincount(kept[lo : lo + _CHUNK_ROWS], minlength=dim)
    occupied = np.flatnonzero(counts)
    column = np.empty(dim, dtype=np.intp)
    column[occupied] = np.arange(len(occupied))
    u = len(occupied)
    step = max(1, _BLOCK_ENTRIES // u)
    total = np.zeros((u, u), dtype=np.complex128)
    for g in range(0, len(bounds) - 1, step):
        edges = bounds[g : g + step + 1]
        lo, hi = edges[0], edges[-1]
        rows = np.repeat(np.arange(len(edges) - 1), np.diff(edges))
        block = np.zeros((len(edges) - 1, u), dtype=np.complex128)
        block[rows, column[kept[lo:hi]]] = amps[multi[lo:hi] // per]
        total += block.T @ block.conj()
    return occupied, total


def _combine(labels: np.ndarray, amps: np.ndarray, q: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort rows and sum amplitudes of duplicate labels."""
    _, keys, _ = _branch_keys(_stored_blocks(labels), len(labels), q, [], list(range(labels.shape[1])))
    order, dup = _branch_order(keys)
    labels, amps = labels[order], amps[order]
    if not dup.any():
        return labels, amps
    starts = np.flatnonzero(np.concatenate(([True], ~dup)))
    with np.errstate(over="ignore"):  # an infinite sum fails the norm check
        summed = np.add.reduceat(amps, starts)
    return labels[starts], summed


def _prune_normalize(labels: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop negligible branches and normalize; a norm too large to hold in a
    float raises ``ValueError``."""
    keep = np.abs(amps) >= PRUNE_TOL
    if not keep.all():
        labels, amps = labels[keep], amps[keep]
    with np.errstate(over="ignore"):
        norm = math.sqrt(float(np.sum(np.abs(amps) ** 2)))
    if not math.isfinite(norm):
        raise ValueError(f"state norm {norm} is not finite: the amplitudes are too large")
    if norm < PRUNE_TOL:
        raise EmptyStateError("state vanished: all amplitudes cancelled or were pruned")
    return labels, amps / norm


def superpose(parts: Sequence[tuple[SparseState, complex]]) -> SparseState:
    """Normalized linear combination of states on identical register sets;
    a non-finite coefficient raises ``ValueError`` before any product."""
    parts = list(parts)
    if not parts:
        raise EmptyStateError("no states supplied")
    q = parts[0][0].q
    regs = parts[0][0].num_registers
    for st, c in parts:
        if st.q != q:
            raise ValueError("states over different qudit dimensions")
        if st.num_registers != regs:
            raise ValueError("states have different register counts")
        if not cmath.isfinite(complex(c)):
            raise ValueError(f"coefficient {c} is not finite")
    labels = np.concatenate([st.labels for st, _ in parts], axis=0)
    amps = np.concatenate([st.amps * complex(c) for st, c in parts])
    return SparseState(q, labels, amps)


_NO_INDICES = np.empty(0, dtype=np.intp)
_NO_COHERENCES = np.empty((0, 0), dtype=np.complex128)


class DensityMatrix:
    """A reduced state on a register subset: its real diagonal, and its
    coherences among the kept indices that carry any.

    ``diagonal`` holds all ``dim`` weights.  ``occupied`` lists, ascending,
    the u indices that ``coherences`` lives on, a u x u Hermitian block with
    zero diagonal; both are empty for a diagonal state, as for every
    unauthorized subset of a dealt state.  :meth:`SparseState.partial_trace`
    is the one constructor: it builds the parts from the groups of branches,
    with no dense matrix, and only their unit trace (within ``NORM_TOL`` per
    index) is checked.  :meth:`purity`, :func:`fidelity` and
    :func:`trace_distance` read the diagonal and the block.  ``matrix``
    builds the dense array on each read (268 MB at dim 4096), for readers
    outside this module.  Positive semidefiniteness is an invariant of every
    reduction of a normalized state, not checked, to avoid an eigensolve per
    construction.
    """

    __slots__ = ("q", "num_registers", "diagonal", "occupied", "coherences")

    @classmethod
    def _reduced(
        cls,
        q: int,
        num_registers: int,
        diagonal: np.ndarray,
        occupied: np.ndarray = _NO_INDICES,
        coherences: np.ndarray = _NO_COHERENCES,
    ) -> DensityMatrix:
        """Internal: the state with the given real, non-negative diagonal and
        Hermitian coherences on ``occupied``, of which only the trace is checked."""
        trace = float(np.sum(diagonal))
        if not abs(trace - 1.0) <= NORM_TOL * len(diagonal):  # NaN fails
            raise ValueError(f"density matrix trace {trace} is not 1")
        self = object.__new__(cls)
        self.q = q
        self.num_registers = num_registers
        self.diagonal = diagonal
        self.occupied = occupied
        self.coherences = coherences
        for part in (diagonal, occupied, coherences):
            part.setflags(write=False)
        return self

    @property
    def matrix(self) -> np.ndarray:
        """The dense complex matrix (read-only), built on each read."""
        dense = np.zeros((self.dim, self.dim), dtype=np.complex128)
        dense[np.ix_(self.occupied, self.occupied)] = self.coherences
        dense[np.diag_indices(self.dim)] = self.diagonal
        dense.setflags(write=False)
        return dense

    @property
    def dim(self) -> int:
        return self.q**self.num_registers

    def purity(self) -> float:
        return float(np.sum(self.diagonal**2) + np.vdot(self.coherences, self.coherences).real)

    def __repr__(self) -> str:
        return f"DensityMatrix(q={self.q}, registers={self.num_registers}, dim={self.dim})"


def fidelity(rho: DensityMatrix, psi: SparseState) -> float:
    """``<psi| rho |psi>`` for a pure reference on the same registers: the
    diagonal weighted by ``|psi|**2``, plus ``v^H C v`` for the coherences C
    and psi's amplitudes v on their indices."""
    if psi.q != rho.q or psi.num_registers != rho.num_registers:
        raise ValueError("state and density matrix live on different registers")
    idx = (psi.labels @ _powers(psi.q, psi.num_registers)).astype(np.int64)
    vec = np.zeros(rho.dim, dtype=np.complex128)
    vec[idx] = psi.amps
    near = vec[rho.occupied]
    weights = psi.amps.real**2 + psi.amps.imag**2
    return float(np.dot(rho.diagonal[idx], weights) + np.vdot(near, rho.coherences @ near).real)


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the sum of the absolute eigenvalues of ``rho - sigma``, exactly.

    Off the union U of the two states' occupied indices the difference is
    diagonal, so its entries there are eigenvalues.  On U it is one
    |U| x |U| block, which gets one ``eigvalsh``; U is empty when neither
    state has coherences, as for every unauthorized subset of a dealt state.
    All eigenvalues are sorted together, as ``eigvalsh`` of the whole
    difference returns them, and summed.
    """
    if rho.q != sigma.q or rho.num_registers != sigma.num_registers:
        raise ValueError("density matrices live on different registers")
    diff = rho.diagonal - sigma.diagonal
    union = np.union1d(rho.occupied, sigma.occupied)
    block = np.diag(diff[union].astype(np.complex128))
    for state, sign in ((rho, 1.0), (sigma, -1.0)):
        at = np.searchsorted(union, state.occupied)
        block[np.ix_(at, at)] += sign * state.coherences
    vals = np.sort(np.concatenate((np.delete(diff, union), np.linalg.eigvalsh(block))))
    return float(0.5 * np.sum(np.abs(vals)))


def factor_check(state: SparseState, block: Sequence[int], reference: SparseState) -> bool:
    """True iff ``state`` factors as ``reference`` on ``block`` times the rest.

    Checks that the reduced state on the block has fidelity 1 with the
    reference and is pure.  For a pure global state the complement's reduced
    spectrum equals the block's, so a pure block reduction already certifies
    full disentanglement; as an extra cross-check of the tracing code itself,
    the complement's purity is also computed directly when its dimension is
    small enough to be cheap.
    """
    block = _registers(block, state.num_registers, "block")
    if reference.num_registers != len(block) or reference.q != state.q:
        raise ValueError("reference does not match the block")
    rho = state.partial_trace(block)
    if fidelity(rho, reference) < 1.0 - MATCH_TOL:
        return False
    if abs(rho.purity() - 1.0) > MATCH_TOL:
        return False
    rest = [r for r in range(state.num_registers) if r not in block]
    if state.q ** len(rest) <= min(DEFAULT_DIM_CAP, 512):
        rho_rest = state.partial_trace(rest)
        if abs(rho_rest.purity() - 1.0) > MATCH_TOL:
            return False
    return True


def random_state(
    q: int,
    num_registers: int,
    rng: np.random.Generator,
    support: int | None = None,
) -> SparseState:
    """A random pure state, uniform on the unit sphere of its support.

    With ``support=None`` the state covers all ``q**num_registers`` basis
    labels; otherwise that many distinct labels are drawn at random.
    ``num_registers`` goes through ``operator.index`` (a float raises
    ``TypeError``) and must not be negative (``ValueError``), both checked
    before any draw; ``q**num_registers`` must stay below 2**63.
    Complex-Gaussian amplitudes normalized to the sphere give the rotation-
    invariant distribution on the chosen support.
    """
    num_registers = operator.index(num_registers)
    if num_registers < 0:
        raise ValueError(f"register count must be non-negative, got {num_registers}")
    dim = q**num_registers
    if dim >= 1 << 63:  # label indices are drawn and decoded as int64
        raise ValueError(f"{q}**{num_registers} basis labels reach the limit of 2**63")
    if support is None or support >= dim:
        support = dim
    elif support < 1:
        raise ValueError("support must be at least 1")
    if support > 1_000_000:
        raise ValueError("refusing to draw a random state with more than 1e6 components")
    if support == dim:
        picks = np.arange(dim)
    else:
        picks = rng.choice(dim, size=support, replace=False)
    amps = rng.normal(size=support) + 1j * rng.normal(size=support)
    return SparseState(q, _digit_rows(picks, q, num_registers), amps)
