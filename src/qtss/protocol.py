"""Dealer, combiners, secrecy verifier and communication-cost accounting.

The dealer is the staircase generator matrix G over F_q: it turns an
``m``-qudit secret into the global shared state, each basis component |s>
mapping to the uniform superposition, over all randomness assignments r, of
the share digit labels ``G [s; r]``.  Two combiner procedures undo the
encoding:

* :func:`recover_from_d` contacts ``d`` participants and receives one qudit
  each (the first register of every contacted share).  It inverts the
  d-row Vandermonde block in place, then folds the recovered digits into the
  randomness-head block so that block mirrors the first qudits of the
  uncontacted shares, which disentangles the secret.

* :func:`recover_from_k` contacts ``k`` participants and receives all their
  ``m*k`` qudits.  Column by column it strips the Vandermonde mixing, peels
  the tail digits off the first column, extracts the secret, and finally
  re-randomizes the leftover registers so each mirrors the corresponding
  registers of the uncontacted shares.

Every combiner operation is recorded in a transcript as one invertible
square matrix over F_q on the registers it names, and is mechanically
confined to the registers the combiner actually received; an operation
touching anything else raises :class:`CombinerLocalityError`.  The
transcript is the session's program: when the session finishes, its ops are
composed into one invertible matrix over F_q on the received registers and
applied to the shared state in a single relabeling.  A session is built from
the parameters and the contacted participants alone, so its program can be
checked over F_q for schemes whose states are far too large to simulate.

This module builds matrices and never touches labels: the dealer hands the
generator matrix to :meth:`SparseState.encode`, and a session hands its
composed matrix to :meth:`SparseState.apply_affine`.  ``qsim`` owns both
label maps and their rank certificates over F_q (full column rank m*k for
the generator, checked once per matrix; invertibility for each session's
program, checked on each call), so labels stay distinct at every state size
with no scan.  Secrecy of small participant subsets is checked
operationally: reduced density matrices of a subset must be identical (zero
trace distance) across secrets.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .gf import FieldMatrix, PrimeField, shear
from .qsim import (
    DEFAULT_DIM_CAP,
    MATCH_TOL,
    DensityMatrix,
    DimensionCapError,
    SparseState,
    trace_distance,
)
from .staircase import (
    DEFAULT_BRANCH_CAP,
    EnumerationCapError,
    SchemeParams,
    generator_matrix,
    scheme_vandermonde,
)

__all__ = [
    "CombinerLocalityError",
    "DealtState",
    "OpRecord",
    "RecoveryTranscript",
    "RecoveryResult",
    "SecrecyReport",
    "CostRow",
    "SECRECY_TOL",
    "basis_secret",
    "deal",
    "recover_from_d",
    "recover_from_k",
    "secrecy_check",
    "convert_to_mixed",
    "lower_bound",
    "cost_table",
    "default_secret_pairs",
]

SECRECY_TOL = MATCH_TOL
# CPython's default limit on the digits of an int converted to text.
_MAX_COST_DIGITS = 4300


class CombinerLocalityError(RuntimeError):
    """A combiner operation tried to touch a register it never received."""


# ---------------------------------------------------------------------------
# Dealing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DealtState:
    """The global shared state plus the bookkeeping needed to act on it.

    ``active`` lists the participants still holding their shares; a mixed
    scheme (see :func:`convert_to_mixed`) simply shrinks this set while the
    discarded registers stay in the state as environment.
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

    The state is ``secret.encode(generator_matrix(p))``: each basis component
    |s> of the secret becomes the uniform superposition of its
    q**(m*(k-1)) codeword labels ``G [s; r]``, and superpositions follow by
    linearity.  :meth:`SparseState.encode` certifies that G has full column
    rank, so the total branch count is (secret support) * q**(m*(k-1)); the
    labels are returned unsorted.  Raises :class:`EnumerationCapError` before
    any work if that count exceeds ``cap_branches``.
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
    return DealtState(p, secret.encode(generator_matrix(p)), frozenset(range(1, p.n + 1)))


# ---------------------------------------------------------------------------
# Combiner sessions and transcripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OpRecord:
    """One combiner operation: what it did, which registers it touched, and
    its map, one square matrix over F_q; a program that
    :meth:`_CombinerSession.finish` accepts has every op's matrix invertible.

    ``matrix`` maps the digits x of ``sources + targets`` to ``matrix @ x``.
    The sources only control: their rows of ``matrix`` are the identity, so
    a controlled add of ``C @ sources`` into the targets is ``[[I, 0], [C, I]]``.
    """

    targets: tuple[int, ...]
    sources: tuple[int, ...]
    note: str
    matrix: FieldMatrix

    @property
    def kind(self) -> str:
        return "controlled-add" if self.sources else "affine"


@dataclass(frozen=True)
class RecoveryTranscript:
    """Accounting for one recovery session.

    ``operations`` is the session's program, in the order it runs.
    ``qudit_cost`` counts the registers communicated to the combiner and
    ``channel_dim`` is the total Hilbert-space dimension q**cost that had to
    cross the channel.
    """

    accessed: Mapping[int, tuple[int, ...]]
    operations: tuple[OpRecord, ...]
    qudit_cost: int
    channel_dim: int
    output_registers: tuple[int, ...]


@dataclass(frozen=True)
class RecoveryResult:
    state: SparseState
    transcript: RecoveryTranscript

    @property
    def secret_registers(self) -> tuple[int, ...]:
        return self.transcript.output_registers


class _CombinerSession:
    """Records a combiner's operations over F_q, refusing non-local ones.

    Building the program needs only q and the registers each contacted
    participant sent; :meth:`finish` is the one step that touches a state,
    running the whole program on it as one linear map.
    """

    def __init__(self, q: int, accessed: dict[int, tuple[int, ...]]):
        self.field = PrimeField(q)
        self.accessed = accessed
        self.registers = [r for regs in accessed.values() for r in regs]
        self.allowed = frozenset(self.registers)
        self.ops: list[OpRecord] = []

    def _record(
        self, targets: Sequence[int], sources: Sequence[int], note: str, matrix: FieldMatrix
    ) -> None:
        registers = list(sources) + list(targets)
        if len(set(registers)) != len(registers):
            raise ValueError(f"operation names a register twice: {registers}")
        outside = sorted(set(registers) - self.allowed)
        if outside:
            raise CombinerLocalityError(
                f"operation touches registers {outside} the combiner never received"
            )
        if matrix.array.shape != (len(registers),) * 2:
            raise ValueError(f"a {matrix.array.shape} matrix cannot map {len(registers)} registers")
        self.ops.append(OpRecord(tuple(targets), tuple(sources), note, matrix))

    def affine(self, targets: Sequence[int], matrix: FieldMatrix, note: str) -> None:
        self._record(targets, (), note, matrix)

    def controlled_add(
        self, sources: Sequence[int], targets: Sequence[int], coeff: FieldMatrix, note: str
    ) -> None:
        self._record(targets, sources, note, shear(coeff))

    def program(self) -> FieldMatrix:
        """The recorded ops composed into one matrix on ``self.registers``.

        Row i of the running product gives received register i's digit as a
        combination of the digits the combiner received, so each op acts on
        the rows of its registers exactly as it would on label digits.
        """
        q = self.field.q
        pos = {r: i for i, r in enumerate(self.registers)}
        prog = np.eye(len(self.registers), dtype=np.int64)
        for op in self.ops:
            rows = [pos[r] for r in op.sources + op.targets]
            prog[rows] = op.matrix.array @ prog[rows] % q
        return FieldMatrix._wrap(self.field, prog)

    def finish(self, state: SparseState, output_registers: Sequence[int]) -> RecoveryResult:
        # apply_affine rejects a singular program: its invertibility is the
        # certificate that the whole session permutes basis states.
        state = state.apply_affine(self.registers, self.program())
        cost = len(self.allowed)
        transcript = RecoveryTranscript(
            accessed=dict(self.accessed),
            operations=tuple(self.ops),
            qudit_cost=cost,
            channel_dim=state.q**cost,
            output_registers=tuple(output_registers),
        )
        return RecoveryResult(state, transcript)


def recover_from_d(dealt: DealtState, participants: Iterable[int]) -> RecoveryResult:
    """Recover the secret from d participants, one qudit per share.

    Steps, confined to the d received registers (the first qudit of every
    contacted share):

    1. Invert the d-row Vandermonde block.  The received registers then hold
       the m secret digits followed by the k-1 digits of the first
       randomness block (head then tail).
    2. Remix the head block: scale it by the head-column block of the
       uncontacted rows' Vandermonde matrix, then add the matching
       combination of the secret and tail digits.  The head registers now
       carry exactly the digit values sitting in the uncontacted shares'
       first qudits, so summing over the head randomness yields a perfectly
       correlated pair, independent of the secret.

    The secret ends in the first m received registers, disentangled from
    everything else; cost is exactly d qudits.
    """
    return _run_session(dealt, participants, dealt.params.d, "d", _d_session)


def _run_session(dealt: DealtState, participants: Iterable[int], size: int, what: str, build):
    """Check the contacted participants, build their session's program from
    the parameters alone, and run it on the dealt state."""
    chosen = sorted(set(participants))
    if len(chosen) != size:
        raise ValueError(f"need exactly {what}={size} distinct participants, got {len(chosen)}")
    missing = sorted(set(chosen) - dealt.active)
    if missing:
        raise ValueError(f"participants {missing} are not part of this scheme view")
    session, output = build(dealt.params, chosen)
    return session.finish(dealt.state, output)


def _d_session(p: SchemeParams, chosen: Sequence[int]) -> tuple[_CombinerSession, Sequence[int]]:
    """The d-share combiner's session on the sorted participants ``chosen``
    (see :func:`recover_from_d`), and the registers left holding the secret."""
    regs = [p.registers_of(i)[0] for i in chosen]
    session = _CombinerSession(p.q, {i: (r,) for i, r in zip(chosen, regs)})

    vand = scheme_vandermonde(p)
    block_d = vand.submatrix([i - 1 for i in chosen], None)
    session.affine(
        regs,
        block_d.inverse(),
        "invert the d-row Vandermonde block; registers now hold the secret "
        "digits then the first randomness block",
    )

    others = sorted(set(range(1, p.n + 1)) - set(chosen))
    if others:  # head block has k-m = (2k-1) - d registers
        block_e = vand.submatrix([i - 1 for i in others], None)
        head = regs[p.m : p.k]
        session.affine(
            head,
            block_e.submatrix(None, range(p.m, p.k)),
            "scale the randomness-head block by the uncontacted rows' "
            "matching column block",
        )
        src = regs[: p.m] + regs[p.k :]
        coeff = block_e.submatrix(None, [*range(p.m), *range(p.k, p.d)])
        session.controlled_add(
            src,
            head,
            coeff,
            "fold the secret and tail digits into the head block so it "
            "mirrors the uncontacted shares' first qudits",
        )
    return session, regs[: p.m]


def recover_from_k(dealt: DealtState, participants: Iterable[int]) -> RecoveryResult:
    """Recover the secret from k participants, all m qudits of each.

    The received registers form m columns of k registers each (column j
    holds the contacted shares' j-th qudits).  Steps:

    1. For each column j >= 2, invert the square block of the contacted
       rows' last k Vandermonde columns; column j then holds one tail digit
       followed by the j-th randomness block.
    2. Subtract the tail digits' contribution from column 1 (controlled on
       the tail registers), leaving only the first k Vandermonde columns'
       mixing there.
    3. Invert that square block; column 1 now holds the secret then the
       randomness head.
    4. Re-randomize: map each column-j remainder (j >= 2), and afterwards
       the reassembled first randomness block, through the uncontacted
       rows' Vandermonde action so each mirrors the corresponding registers
       of the uncontacted shares.  The column maps run first because they
       are controlled on tail digits that the final map overwrites.

    The secret ends in the first m registers of the first column; cost is
    exactly m*k qudits.
    """
    return _run_session(dealt, participants, dealt.params.k, "k", _k_session)


def _k_session(p: SchemeParams, chosen: Sequence[int]) -> tuple[_CombinerSession, Sequence[int]]:
    """The k-share combiner's session on the sorted participants ``chosen``
    (see :func:`recover_from_k`), and the registers left holding the secret."""
    accessed = {i: p.registers_of(i) for i in chosen}
    cols = list(zip(*accessed.values()))
    session = _CombinerSession(p.q, accessed)

    vand = scheme_vandermonde(p)
    block_k = vand.submatrix([i - 1 for i in chosen], None)
    others = sorted(set(range(1, p.n + 1)) - set(chosen))
    if p.m > 1:
        last_k_inverse = block_k.submatrix(None, range(p.m - 1, p.d)).inverse()
        for j in range(1, p.m):
            session.affine(
                list(cols[j]),
                last_k_inverse,
                f"invert the trailing-columns block on column {j + 1}; it now holds "
                f"tail digit {j} then randomness block {j + 1}",
            )
        tail_regs = [cols[j][0] for j in range(1, p.m)]
        session.controlled_add(
            tail_regs,
            list(cols[0]),
            -block_k.submatrix(None, range(p.k, p.d)),
            "subtract the tail digits' contribution from column 1",
        )
    session.affine(
        list(cols[0]),
        block_k.submatrix(None, range(p.k)).inverse(),
        "invert the leading-columns block; column 1 now holds the secret "
        "then the randomness head",
    )

    if p.k > 1 and others:
        block_l = vand.submatrix([i - 1 for i in others], None)
        l_rand = block_l.submatrix(None, range(p.m, p.d))
        for j in range(1, p.m):
            rest = list(cols[j][1:])
            session.affine(
                rest,
                l_rand,
                f"re-randomize column {j + 1}'s remainder through the "
                "uncontacted rows' action",
            )
            session.controlled_add(
                [cols[j][0]],
                rest,
                block_l.submatrix(None, [p.m - 1]),
                f"add tail digit {j}'s contribution so column {j + 1} mirrors "
                "the uncontacted shares",
            )
        first_block = list(cols[0][p.m :]) + [cols[j][0] for j in range(1, p.m)]
        session.affine(
            first_block,
            l_rand,
            "re-randomize the first randomness block through the uncontacted "
            "rows' action",
        )
        session.controlled_add(
            list(cols[0][: p.m]),
            first_block,
            block_l.submatrix(None, range(p.m)),
            "add the secret's contribution so the block mirrors the "
            "uncontacted shares' first qudits",
        )
    return session, cols[0][: p.m]


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
        return self.max_trace_distance <= SECRECY_TOL


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
    """
    members = sorted(set(subset))
    if len(members) > p.k - 1:
        raise ValueError(f"subset of {len(members)} is authorized; secrecy applies to <= k-1 = {p.k - 1}")
    if any(not 1 <= i <= p.n for i in members):
        raise ValueError(f"subset {members} not within participants 1..{p.n}")
    if not secret_pairs:
        raise ValueError("no secret pairs to compare; a check of none would pass vacuously")
    regs = [r for i in members for r in p.registers_of(i)]
    dim = p.q ** len(regs)
    if dim > dim_cap:
        raise DimensionCapError(
            f"reduced dimension {dim} for subset {members} exceeds the cap {dim_cap}"
        )
    # Each distinct secret (by identity) is dealt once, and its reduced state
    # is kept only until the last pair that names it.
    last_use = {id(s): i for i, pair in enumerate(secret_pairs) for s in pair}
    reduced: dict[int, DensityMatrix] = {}
    max_td = 0.0
    for i, pair in enumerate(secret_pairs):
        for s in pair:
            if id(s) not in reduced:
                reduced[id(s)] = deal(s, p, cap_branches).state.partial_trace(regs, dim_cap)
        rho, sigma = (reduced[id(s)] for s in pair)
        max_td = max(max_td, trace_distance(rho, sigma))
        for s in pair:
            if last_use[id(s)] == i:
                reduced.pop(id(s), None)
    return SecrecyReport(frozenset(members), max_td, len(last_use))


def default_secret_pairs(p: SchemeParams, seed: int = 0) -> list[tuple[SparseState, SparseState]]:
    """A small deterministic set of secret pairs for secrecy checks: the
    all-zeros basis secret against the descending-digit basis secret, and
    one seeded pair of random superpositions.
    """
    from .qsim import random_state

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
    d-qudit procedure needs d <= n_prime.
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
    shapes = [("recover-k", p.k, p.m * p.k)]
    if p.d != p.k:
        shapes.append(("recover-d", p.d, p.d))
    rows = []
    for mode, participants, qudits in shapes:
        dim = p.q**qudits
        bound = lower_bound(p.q**p.m, p.k, participants)
        rows.append(CostRow(mode, participants, qudits, qudits / p.m, dim, bound, dim == bound))
    return rows
