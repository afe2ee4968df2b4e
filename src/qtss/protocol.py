"""Dealer, combiners, secrecy verifier and communication-cost accounting.

The dealer is the scheme's generator matrix G over F_q
(:attr:`SchemeParams.generator`), applied by :meth:`SparseState.encode`: it
turns an ``m``-qudit secret into the global shared state, each basis
component |s> mapping to the uniform superposition, over all randomness
assignments r, of the share digit labels ``G [s; r]``.  Two combiner
procedures undo the encoding: :func:`recover_from_d` contacts ``d``
participants and receives one qudit each (the first register of every
contacted share), and :func:`recover_from_k` contacts ``k`` participants and
receives all their ``m*k`` qudits.  Both follow one rule
(:func:`recovery_session`).  The
received registers carry ``A x``, with A a square block of G's rows and x
the secret digits then the randomness digits they depend on.  The combiner
runs two ops: decode, ``A^-1``; then mirror, which overwrites each
randomness register that has a counterpart (the same register position on
an uncontacted share) with that counterpart's digit.  Every leftover
register then mirrors an uncontacted share, which disentangles the secret.
For the d-share combiner A is the d-row Vandermonde block ``V_D``, and the
steps are the paper's: invert ``V_D``, then remix the randomness head.

Every combiner operation is recorded in a transcript as one invertible
square matrix over F_q on the registers it names, and is mechanically
confined to the registers the combiner actually received; a transcript with
an operation touching anything else, a participant sending registers that
are not its own, or an output register it never received raises
:class:`CombinerLocalityError` when it is built.  The transcript is the
session's program, and :func:`recovery_session` builds it from the
parameters and the contacted participants alone, so its program can be
checked over F_q for schemes whose states are far too large to simulate, and
one transcript serves every state dealt with the same parameters.
The transcript composes its ops once, when it is built, into one matrix
over F_q on the received registers; :func:`run_session` refuses a state
dealt with other parameters, then applies that matrix to the shared state
in a single relabeling.

This module builds matrices and never touches labels: the dealer hands the
generator matrix to :meth:`SparseState.encode`, and a session hands its
composed matrix to :meth:`SparseState.apply_affine`.  ``qsim`` owns both
label maps and their rank certificates over F_q (full column rank m*k for
the generator, checked once per matrix; invertibility for each session's
program, checked on each call against the rank the matrix computed once),
so labels stay distinct at every state size with no scan.  A dealt state is
encoded: it is written out on the first read of its labels or amplitudes,
as a recovery needs them, and its branch count never writes it out.
Secrecy of small participant subsets is checked operationally: reduced
density matrices of a subset must be identical (zero trace distance) across
secrets, and each is streamed from the codeword table with no dealt state
written out.

:func:`participant_sets` is the one rule for which sets a claim is checked
on: every d-set or k-set of the retained participants for recovery, and
every set of at most k-1 of them whose reduced dimension fits the cap for
secrecy, with a count of those it skips.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gf import FieldMatrix
from .qsim import (
    DEFAULT_DIM_CAP,
    MATCH_TOL,
    DensityMatrix,
    DimensionCapError,
    SparseState,
    random_state,
    trace_distance,
)
from .staircase import (
    DEFAULT_BRANCH_CAP,
    EnumerationCapError,
    SchemeParams,
)

__all__ = [
    "CombinerLocalityError",
    "DealtState",
    "OpRecord",
    "RecoveryTranscript",
    "RecoveryResult",
    "SecrecyReport",
    "CostRow",
    "basis_secret",
    "deal",
    "recover_from_d",
    "recover_from_k",
    "recovery_session",
    "run_session",
    "secrecy_check",
    "participant_sets",
    "convert_to_mixed",
    "lower_bound",
    "cost_table",
    "default_secret_pairs",
]

# CPython's default limit on the digits of an int converted to text.
_MAX_COST_DIGITS = 4300


class CombinerLocalityError(RuntimeError):
    """A combiner session reads a register it never received, or a
    participant sends a register that is not its own."""


# ---------------------------------------------------------------------------
# Dealing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DealtState:
    """The global shared state plus the bookkeeping needed to act on it.

    ``state`` is ``secret.encode(p.generator)``, the shared state on the n*m
    registers, held as the secret and the codeword table of the scheme's
    generator.  It is written out, unsorted, on the first read of its labels
    or amplitudes, as a recovery reads them; its branch count never writes
    it out, and a secrecy check reduces it without writing it out
    (:meth:`SparseState.partial_trace`).  ``active`` lists the participants
    still holding their shares; a mixed scheme (see :func:`convert_to_mixed`)
    simply shrinks this set while the discarded registers stay in the state
    as environment.
    """

    params: SchemeParams
    state: SparseState
    active: frozenset[int]


def basis_secret(p: SchemeParams, digits: Sequence[int]) -> SparseState:
    """Convenience: the basis secret |digits> over the scheme's field."""
    if len(digits) != p.m:
        raise ValueError(f"secret must have {p.m} digits")
    return SparseState.basis(p.q, digits)


def deal(
    secret: SparseState, p: SchemeParams, cap_branches: int = DEFAULT_BRANCH_CAP
) -> DealtState:
    """Encode an m-qudit secret into the n*m-register shared state.

    The state is ``secret.encode(p.generator)``: each basis component |s>
    of the secret becomes the uniform superposition of its q**(m*(k-1))
    codeword labels ``G [s; r]``, and superpositions follow by linearity.
    Every check runs here, and nothing is written out until a caller reads
    the state's labels or amplitudes.  A secret over another field or on
    other than m registers raises ``ValueError``, and one whose branch
    count, (secret support) * q**(m*(k-1)), exceeds ``cap_branches`` raises
    :class:`EnumerationCapError`, both before any work.  Then
    :meth:`SparseState.encode` certifies that G has full column rank, which
    makes that count exact (else :class:`SingularMatrixError`).
    """
    if secret.q != p.q:
        raise ValueError(f"secret is over F_{secret.q}, scheme over F_{p.q}")
    if secret.num_registers != p.m:
        raise ValueError(f"secret must occupy {p.m} registers, has {secret.num_registers}")
    total = secret.num_branches * p.branch_count
    if total > cap_branches:
        raise EnumerationCapError(
            f"dealing would create {total} branches, above the cap of {cap_branches}"
        )
    return DealtState(p, secret.encode(p.generator), frozenset(range(1, p.n + 1)))


# ---------------------------------------------------------------------------
# Combiner sessions and transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpRecord:
    """One combiner operation: what it did, which registers it touched, and
    its map, one square matrix over F_q; a program that
    :func:`run_session` accepts has every op's matrix invertible.

    ``matrix`` maps the digits x of ``sources + targets`` to ``matrix @ x``.
    The sources only control: their rows of ``matrix`` are the identity, so
    the matrix is ``[[I, 0], [C, D]]``, and each target becomes its row of
    ``C`` on the sources plus its row of ``D`` on the targets.
    """

    targets: tuple[int, ...]
    sources: tuple[int, ...]
    note: str
    matrix: FieldMatrix


@dataclass(frozen=True)
class RecoveryTranscript:
    """One recovery session, built before any state exists.

    ``params`` is the scheme the session was built for.  ``accessed`` maps
    each contacted participant to the registers it sends.  ``operations`` is
    the session's program, in the order it runs.  ``qudit_cost`` counts the
    registers communicated to the combiner and ``channel_dim`` is the total
    Hilbert-space dimension q**cost that had to cross the channel.

    Construction checks the shares and the program, and raises
    :class:`CombinerLocalityError` for a participant outside 1..n, one that
    sends a register of another share, an op on a register the combiner
    never received, or an output register it never received.  A register
    sent twice raises ``ValueError``, and so does a program without ops,
    with an op over another field than the scheme's, or with an op that
    names a register twice, has a non-square matrix, or rewrites a source
    (its source rows must be the identity).  Costs are not checked against
    the registers.

    Once the checks pass, construction composes the ops into the session's
    program (:meth:`program`), so one transcript run on many states composes
    it once; ``dataclasses.replace`` builds a new transcript, which composes
    its own.
    """

    params: SchemeParams
    accessed: Mapping[int, tuple[int, ...]]
    operations: tuple[OpRecord, ...]
    qudit_cost: int
    channel_dim: int
    output_registers: tuple[int, ...]

    def __post_init__(self) -> None:
        p = self.params
        for i, regs in self.accessed.items():
            if not 1 <= i <= p.n:
                raise CombinerLocalityError(f"participant {i} is not one of 1..{p.n}")
            foreign = sorted(set(regs) - set(p.registers_of(i)))
            if foreign:
                raise CombinerLocalityError(f"participant {i} sends registers {foreign} of other shares")
        allowed = set(self.registers)
        if len(allowed) != len(self.registers):
            raise ValueError(f"a participant sends a register twice: {list(self.registers)}")
        unreceived = sorted(set(self.output_registers) - allowed)
        if unreceived:
            raise CombinerLocalityError(f"output registers {unreceived} were never received")
        fields = {op.matrix.field.q for op in self.operations}
        if fields != {p.q}:
            raise ValueError(f"a program needs ops over one field F_q, got q in {sorted(fields)}; the scheme's is F_{p.q}")
        for op in self.operations:
            registers = op.sources + op.targets
            if len(set(registers)) != len(registers):
                raise ValueError(f"operation names a register twice: {list(registers)}")
            outside = sorted(set(registers) - allowed)
            if outside:
                raise CombinerLocalityError(
                    f"operation touches registers {outside} the combiner never received"
                )
            if op.matrix.array.shape != (len(registers),) * 2:
                raise ValueError(f"a {op.matrix.array.shape} matrix cannot map {len(registers)} registers")
            if not np.array_equal(op.matrix.array[: len(op.sources)], np.eye(len(op.sources), len(registers))):
                raise ValueError(f"operation rewrites its sources {list(op.sources)}; their rows must be the identity")
        object.__setattr__(self, "_program", self._compose())

    @property
    def registers(self) -> tuple[int, ...]:
        """The received registers, participant by participant."""
        return tuple(r for regs in self.accessed.values() for r in regs)

    def program(self) -> FieldMatrix:
        """The ops composed into one matrix on :attr:`registers`, the same
        matrix on every call: it is composed once, when the transcript is
        built, and its rank, once checked, stays with it."""
        return self._program

    def _compose(self) -> FieldMatrix:
        """Row i of the running product gives received register i's digit as
        a combination of the digits the combiner received, so each op acts on
        the rows of its registers exactly as it would on label digits."""
        field = self.operations[0].matrix.field
        pos = {r: i for i, r in enumerate(self.registers)}
        prog = np.eye(len(pos), dtype=np.int64)
        for op in self.operations:
            rows = [pos[r] for r in op.sources + op.targets]
            prog[rows] = op.matrix.array @ prog[rows] % field.q
        return FieldMatrix._wrap(field, prog)


@dataclass(frozen=True)
class RecoveryResult:
    state: SparseState
    transcript: RecoveryTranscript

    @property
    def secret_registers(self) -> tuple[int, ...]:
        return self.transcript.output_registers


def recover_from_d(dealt: DealtState, participants: Iterable[int]) -> RecoveryResult:
    """Recover the secret from d participants, one qudit per share.

    The d received registers (the first qudit of every contacted share)
    carry the d-row Vandermonde block ``V_D`` times the secret digits and
    the first randomness block (head then tail).  The session (see
    :func:`recovery_session`) is the paper's procedure, op for op:

    1. Invert ``V_D``; the registers now hold those digits.
    2. Remix the head block in one op: each head register becomes the
       uncontacted rows' head-column block on the head digits, plus the
       matching combination of the secret and tail digits, which only
       control.  The head registers then carry exactly the digits of the
       uncontacted shares' first qudits, so summing over the head
       randomness yields a perfectly correlated pair, independent of the
       secret.  The tail registers keep their randomness digits.

    The secret ends in the first qudits of the first m contacted shares,
    disentangled from everything else; cost is exactly d qudits.
    """
    return run_session(dealt, recovery_session(dealt.params, "recover-d", participants))


def recover_from_k(dealt: DealtState, participants: Iterable[int]) -> RecoveryResult:
    """Recover the secret from k participants, all m qudits of each.

    The m*k received registers carry their m*k rows of the generator G
    times every secret and randomness digit.  The session (see
    :func:`recovery_session`) inverts that square block, so the registers
    hold the secret digits then the randomness digits.  It then overwrites
    every randomness register with the digit of its counterpart on an
    uncontacted share, which disentangles the secret as in
    :func:`recover_from_d`.

    The secret ends in the first qudits of the first m contacted shares;
    cost is exactly m*k qudits.
    """
    return run_session(dealt, recovery_session(dealt.params, "recover-k", participants))


def run_session(dealt: DealtState, transcript: RecoveryTranscript) -> RecoveryResult:
    """Run a session's program on the dealt state as one linear map.

    The transcript must be built for the parameters the state was dealt
    with, and every contacted participant must still hold its share (else
    ``ValueError``).  :meth:`SparseState.apply_affine` rejects a singular
    program: its invertibility is the certificate that the session permutes
    basis states.
    """
    if transcript.params != dealt.params:
        raise ValueError(f"session built for {transcript.params} cannot run on a state dealt with {dealt.params}")
    missing = sorted(set(transcript.accessed) - dealt.active)
    if missing:
        raise ValueError(f"participants {missing} are not part of this scheme view")
    return RecoveryResult(dealt.state.apply_affine(transcript.registers, transcript.program()), transcript)


def recovery_session(p: SchemeParams, mode: str, participants: Iterable[int]) -> RecoveryTranscript:
    """The combiner's session on ``participants``, from the parameters alone.

    ``recover-d`` contacts d participants, each sending its first register;
    ``recover-k`` contacts k, each sending all m (:func:`_recovery_shapes`).
    Raises ``ValueError`` for any other mode, a set of the wrong size, or a
    participant outside 1..n.

    The received registers, in received order (the first register of every
    contacted share, then the first register of each later column, then
    the rest of each later column), carry ``A x``: A is G restricted to
    their rows and to the ``m + per_share*(k-1)`` columns they depend on,
    and x is the secret digits then the randomness digits those columns
    name.  A is square for d shares sending one register each and for k
    shares sending all m; :meth:`FieldMatrix.inverse` rejects a singular A.

    1. Decode: apply ``A^-1``, so received register t holds digit t of x.
    2. Mirror: pair the randomness registers, in received order, with their
       counterparts, the uncontacted shares' first ``per_share`` registers,
       column by column.  One op T targets the paired registers, with every
       other received register as a source; its target rows are the
       counterparts' rows of G.  Each paired register now holds its
       counterpart's digit ``G[counterpart] x``; unpaired randomness
       registers keep their digits.  A session that contacts every share
       has no counterparts and runs the decode alone.

    The composed program is therefore ``T A^-1``, and the secret sits in
    the first m registers in received order.
    """
    shapes = _recovery_shapes(p)
    if mode not in shapes:
        raise ValueError(f"no recovery session for mode {mode!r}; valid: {sorted(shapes)}")
    size, per_share = shapes[mode]
    chosen = sorted(set(participants))
    if len(chosen) != size:
        raise ValueError(f"need exactly {mode[-1]}={size} distinct participants, got {len(chosen)}")
    outside = [i for i in chosen if not 1 <= i <= p.n]
    if outside:
        raise ValueError(f"participants {outside} are not part of this scheme")
    m, field = p.m, p.field
    shares = [p.registers_of(i)[:per_share] for i in chosen]
    cols = list(zip(*shares))
    received = [*cols[0], *(col[0] for col in cols[1:]), *(r for col in cols[1:] for r in col[1:])]
    g = p.generator.array
    width = m + per_share * (p.k - 1)
    ops = [
        OpRecord(
            tuple(received),
            (),
            "decode: invert the generator block on the received registers; they now "
            "hold the secret digits then the randomness digits",
            FieldMatrix._wrap(field, g[received, :width]).inverse(),
        )
    ]
    others = sorted(set(range(1, p.n + 1)) - set(chosen))
    counterparts = [p.registers_of(i)[j] for j in range(per_share) for i in others]
    if counterparts:
        stop = m + len(counterparts)
        unpaired = [*range(m), *range(stop, width)]
        mirror = np.eye(width, dtype=np.int64)
        mirror[len(unpaired) :] = g[np.ix_(counterparts, [*unpaired, *range(m, stop)])]
        sources = tuple(received[t] for t in unpaired)
        note = "mirror: each paired randomness register now holds its uncontacted counterpart's digit"
        ops.append(OpRecord(tuple(received[m:stop]), sources, note, FieldMatrix._wrap(field, mirror)))
    cost = len(received)
    return RecoveryTranscript(p, dict(zip(chosen, shares)), tuple(ops), cost, p.q**cost, tuple(received[:m]))


def _recovery_shapes(p: SchemeParams) -> dict[str, tuple[int, int]]:
    """Each recovery mode, k-shares first: the shares it contacts, and the
    registers each sends."""
    return {"recover-k": (p.k, p.m), "recover-d": (p.d, 1)}


# ---------------------------------------------------------------------------
# Secrecy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SecrecyReport:
    """Outcome of comparing a subset's reduced states across secrets."""

    subset: frozenset[int]
    max_trace_distance: float
    secrets_tested: int

    @property
    def passed(self) -> bool:
        return self.max_trace_distance <= MATCH_TOL


def secrecy_check(
    p: SchemeParams,
    subset: Iterable[int],
    secret_pairs: Sequence[tuple[SparseState, SparseState]],
    dim_cap: int = DEFAULT_DIM_CAP,
    cap_branches: int = DEFAULT_BRANCH_CAP,
) -> SecrecyReport:
    """Max trace distance between the subset's reduced states over pairs.

    The subset must have at most k-1 participants; a scheme is leak-free on
    it iff every pair of secrets induces identical reduced states there.
    Some pair must compare two different states (not one object, nor equal
    labels and amplitudes up to a global phase), else ``ValueError``: a
    check that compares each secret only with itself would pass vacuously.
    Each distinct secret (by identity) is dealt once, with :func:`deal`'s
    checks, and its reduced state is streamed from the scheme's codeword
    table (:meth:`SparseState.partial_trace` of the dealt state, whose
    labels nothing reads), so no dealt state is written out.
    """
    members = sorted(set(subset))
    if len(members) > p.k - 1:
        raise ValueError(f"subset of {len(members)} is authorized; secrecy applies to <= k-1 = {p.k - 1}")
    if any(not 1 <= i <= p.n for i in members):
        raise ValueError(f"subset {members} not within participants 1..{p.n}")
    if all(_same_state(a, b) for a, b in secret_pairs):
        raise ValueError("no secret pairs compare two different states; a check of these would pass vacuously")
    regs = [r for i in members for r in p.registers_of(i)]
    dim = p.q ** len(regs)
    if dim > dim_cap:
        raise DimensionCapError(
            f"reduced dimension {dim} for subset {members} exceeds the cap {dim_cap}"
        )
    # In order of first appearance, so the deals run in the order pairs name them.
    reduced: dict[int, DensityMatrix] = {}
    for s in itertools.chain.from_iterable(secret_pairs):
        if id(s) not in reduced:
            reduced[id(s)] = deal(s, p, cap_branches).state.partial_trace(regs, dim_cap)
    max_td = max(trace_distance(reduced[id(a)], reduced[id(b)]) for a, b in secret_pairs)
    return SecrecyReport(frozenset(members), max_td, len(reduced))


def _same_state(a: SparseState, b: SparseState) -> bool:
    """Whether two secrets are one state: the same object, or, over one field
    and on as many registers, once their branches are sorted, equal labels
    and amplitudes equal up to a global phase (``|<a|b>|`` within
    ``MATCH_TOL`` of 1)."""
    if a is b:
        return True
    if (a.q, a.num_registers) != (b.q, b.num_registers):
        return False
    a, b = a.canonical(), b.canonical()
    return np.array_equal(a.labels, b.labels) and 1 - abs(np.vdot(a.amps, b.amps)) <= MATCH_TOL


def participant_sets(
    p: SchemeParams, mode: str, retained: Sequence[int], dim_cap: int = DEFAULT_DIM_CAP
) -> tuple[list[tuple[int, ...]], int]:
    """The participant sets a claim is checked on, and how many were skipped.

    ``recover-d`` and ``recover-k`` give every d- or k-set of ``retained``;
    ``secrecy`` gives every set of 1..k-1 of them whose reduced dimension
    q**(m*size) fits ``dim_cap``, and counts the others as skipped.  Sets come
    in :func:`itertools.combinations` order, size by size.  Raises
    ``ValueError`` for any other mode.
    """
    shapes = _recovery_shapes(p)
    if mode not in (*shapes, "secrecy"):
        raise ValueError(f"no participant sets for mode {mode!r}; valid: {sorted([*shapes, 'secrecy'])}")
    sizes = range(1, p.k) if mode == "secrecy" else [shapes[mode][0]]
    fit = [size for size in sizes if mode != "secrecy" or p.q ** (p.m * size) <= dim_cap]
    sets = [s for size in fit for s in itertools.combinations(retained, size)]
    skipped = sum(math.comb(len(retained), size) for size in sizes) - len(sets)
    return sets, skipped


def default_secret_pairs(p: SchemeParams, seed: int = 0) -> list[tuple[SparseState, SparseState]]:
    """A small deterministic set of secret pairs for secrecy checks: the
    all-zeros basis secret against the descending-digit basis secret, and
    one seeded pair of random superpositions.
    """
    zeros = basis_secret(p, (0,) * p.m)
    descending = basis_secret(p, tuple((p.q - 1 - i) % p.q for i in range(p.m)))
    rng = np.random.Generator(np.random.Philox(seed))
    support = None if p.q**p.m <= 64 else 2
    randoms = tuple(random_state(p.q, p.m, rng, support=support) for _ in range(2))
    return [(zeros, descending), randoms]


# ---------------------------------------------------------------------------
# Mixed schemes, bounds, costs
# ---------------------------------------------------------------------------


def convert_to_mixed(dealt: DealtState, n_prime: int) -> DealtState:
    """View the scheme with only the first ``n_prime`` shares retained.

    Discarded shares' registers stay in the (pure) global state as
    environment; recovery may only contact retained participants, so the
    d-qudit procedure needs d <= n_prime.  The view shares the dealt state
    object, so both share its one write-out.
    """
    p = dealt.params
    if not p.k <= n_prime <= p.n:
        raise ValueError(f"retained share count must satisfy k <= n' <= 2k-1, got {n_prime}")
    return DealtState(p, dealt.state, frozenset(range(1, n_prime + 1)))


def _int_nth_root(value: int, n: int) -> int:
    """Largest r with r**n <= value: integer Newton steps down from 1 << ceil(bits/n)."""
    if value < 1:
        raise ValueError("value must be positive")
    root = 1 << -(-value.bit_length() // n)
    while True:
        step = ((n - 1) * root + value // root ** (n - 1)) // n
        if step >= root:
            return root
        root = step


def lower_bound(secret_dim: int, k: int, d: int) -> int | float:
    """Minimum channel dimension to recover a secret of dimension M from d shares.

    Evaluates M**(d/(d-k+1)); exact integer when M is a perfect
    (d-k+1)-th power (the staircase schemes have M = q**(d-k+1), giving
    q**d), a float otherwise.  Raises ``ValueError`` when that float would
    exceed the largest float, ``sys.float_info.max`` (about 1.8e308).
    """
    if not isinstance(secret_dim, int) or secret_dim < 2:
        raise ValueError(f"secret dimension must be an int >= 2, got {secret_dim!r}")
    if not 1 <= k <= d:
        raise ValueError(f"need 1 <= k <= d, got k={k}, d={d}")
    m = d - k + 1
    root = _int_nth_root(secret_dim, m)
    if root**m == secret_dim:
        return root**d
    try:
        return float(secret_dim) ** (d / m)
    except OverflowError:
        raise ValueError(
            f"lower bound M**({d}/{m}) for a non-perfect-power M exceeds the "
            f"largest float, {sys.float_info.max!r}"
        ) from None


@dataclass(frozen=True)
class CostRow:
    """One recovery mode's communication accounting; ``ratio`` is the
    qudits sent per secret qudit."""

    mode: str
    participants: int
    qudits: int
    ratio: float
    channel_dim: int
    bound_dim: int | float
    optimal: bool


def cost_table(p: SchemeParams) -> list[CostRow]:
    """Per-mode communication cost against the channel-dimension bound.

    Emits the k-share row (m*k qudits, ratio k) and the d-share row (d
    qudits, ratio d/(d-k+1)); a single row when d = k since the procedures
    coincide.  ``optimal`` flags exact equality of the achieved channel
    dimension with the bound for that participant count.  Raises
    :class:`DimensionCapError`, before computing any power, if the largest
    figure q**(m*k) would have more than ``_MAX_COST_DIGITS`` digits.
    """
    digits = int(p.m * p.k * np.log10(p.q)) + 1
    if digits > _MAX_COST_DIGITS:
        raise DimensionCapError(f"cost figure {p.q}**{p.m * p.k} has {digits} digits, over {_MAX_COST_DIGITS}")
    rows = []
    for mode, (participants, per_share) in list(_recovery_shapes(p).items())[: 1 + (p.d != p.k)]:
        qudits = participants * per_share
        dim = p.q**qudits
        bound = lower_bound(p.q**p.m, p.k, participants)
        rows.append(CostRow(mode, participants, qudits, qudits / p.m, dim, bound, dim == bound))
    return rows
