"""Dealer, recovery procedures, secrecy and cost accounting tests.

Recovery correctness is judged by the independent density-matrix oracle:
the reduced state on the output registers must be the rank-one projector
onto the original secret (fidelity 1, purity 1), with factor_check
confirming full disentanglement.
"""

import ast
import dataclasses
import hashlib
import itertools
import math
import tracemalloc
from pathlib import Path

import densities
import numpy as np
import pytest
from broken_schemes import Collapsed, Leaky

from qtss import protocol, qsim
from qtss.cli import DEFAULT_GRID
from qtss.gf import FieldMatrix, PrimeField, SingularMatrixError, shear
from qtss.protocol import (
    CombinerLocalityError,
    OpRecord,
    RecoveryTranscript,
    basis_secret,
    convert_to_mixed,
    cost_table,
    deal,
    default_secret_pairs,
    lower_bound,
    recover_from_d,
    recover_from_k,
    recovery_session,
    run_session,
    secrecy_check,
)
from qtss.qsim import (
    DensityMatrix,
    DimensionCapError,
    SparseState,
    factor_check,
    fidelity,
    random_state,
    superpose,
)
from qtss.staircase import EnumerationCapError, codeword_rows, make_params

P235 = make_params(2, 3, 5)
P225 = make_params(2, 2, 5)
P347 = make_params(3, 4, 7)

TOL = 1e-10


def rng_for(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(tag)))


def assert_recovers(result, secret):
    rho = result.state.partial_trace(result.secret_registers)
    assert fidelity(rho, secret) >= 1.0 - TOL
    assert factor_check(result.state, result.secret_registers, secret)


class TestDeal:
    def test_branches_match_codeword_enumeration(self):
        secret = basis_secret(P235, (1, 0))
        dealt = deal(secret, P235)
        assert dealt.state.num_branches == 25
        got = {tuple(int(x) for x in row) for row in dealt.state.labels}
        expected = {tuple(row) for row in codeword_rows((1, 0), P235).tolist()}
        assert got == expected
        assert np.allclose(np.abs(dealt.state.amps), 0.2)

    def test_branches_match_row_expression_oracle(self):
        # Labels must equal (s1+x*s2+x^2*r1, x*r1+x^2*r2) for x = 1, 2, 3.
        s1, s2 = 0, 1
        dealt = deal(basis_secret(P235, (s1, s2)), P235)
        expected = set()
        for r1, r2 in itertools.product(range(5), repeat=2):
            label = []
            for x in (1, 2, 3):
                label += [(s1 + x * s2 + x * x * r1) % 5, (x * r1 + x * x * r2) % 5]
            expected.add(tuple(label))
        assert {tuple(int(x) for x in row) for row in dealt.state.labels} == expected

    def test_shift_code_when_m_is_one(self):
        # m=1: participant i holds s + i*r across the 5 branches.
        s = 3
        dealt = deal(basis_secret(P225, (s,)), P225)
        got = {tuple(int(x) for x in row) for row in dealt.state.labels}
        assert got == {tuple((s + i * r) % 5 for i in (1, 2, 3)) for r in range(5)}

    def test_linearity(self):
        a, b = basis_secret(P235, (0, 0)), basis_secret(P235, (1, 1))
        alpha, beta = 0.6, complex(0, 0.8)
        combined = deal(superpose([(a, alpha), (b, beta)]), P235)
        by_parts = superpose([(deal(a, P235).state, alpha), (deal(b, P235).state, beta)])
        assert densities.states_allclose(combined.state, by_parts)

    def test_wrong_secret_shape(self):
        with pytest.raises(ValueError, match="registers"):
            deal(SparseState.basis(5, (0,)), P235)
        with pytest.raises(ValueError, match="over F_"):
            deal(SparseState.basis(7, (0, 0)), P235)

    def test_branch_cap(self):
        with pytest.raises(EnumerationCapError):
            deal(basis_secret(P347, (0, 0)), P347, cap_branches=100)

    @pytest.mark.parametrize("kdq", [(2, 3, 5), (4, 5, 11)], ids=["2-3-5", "4-5-11"])
    def test_non_injective_generator_rejected(self, kdq):
        # Equal last two randomness columns: the codeword map is no longer
        # injective, so labels would collide.  At (4,5,11) the dealt state
        # would have 11**6 branches on 11**5 distinct labels.
        p = Collapsed(*kdq)
        with pytest.raises(SingularMatrixError, match="codewords would collide"):
            deal(basis_secret(p, (0,) * p.m), p)

    def test_large_field_labels_not_wrapped(self):
        # 4 x 32771 branches, digits above 2**15.
        p = make_params(2, 2, 32771)
        secret = SparseState.from_branches(
            p.q, [((s,), 0.5) for s in (0, 1, 32769, 32770)]
        )
        state = deal(secret, p).state
        assert state.num_branches == 4 * 32771
        assert int(state.labels.min()) == 0
        assert int(state.labels.max()) == p.q - 1
        # The shift code s + i*r: share 2 minus share 1 is r, share 1 minus r is s.
        lab = state.labels.astype(np.int64)
        r = (lab[:, 1] - lab[:, 0]) % p.q
        assert set(np.unique((lab[:, 0] - r) % p.q)) == {0, 1, 32769, 32770}
        assert np.array_equal((lab[:, 0] + 2 * r) % p.q, lab[:, 2])

    def test_top_of_label_range_matches_int64_oracle(self):
        # q = 65521: a randomness digit plus a secret shift overflows 16 bits.
        # 2 x 65521 branches.
        p = make_params(2, 2, 65521)
        secret = SparseState.from_branches(p.q, [((1,), 0.6), ((p.q - 1,), 0.8j)])
        state = deal(secret, p).state
        assert state.num_branches == 2 * p.q
        # The shift code in int64: share i holds s + i*r.
        r = np.arange(p.q, dtype=np.int64)
        expected = np.concatenate(
            [np.stack([(s + i * r) % p.q for i in (1, 2, 3)], axis=1) for s in (1, p.q - 1)]
        )
        order = np.lexsort(expected.T[::-1])
        assert np.array_equal(state.canonical().labels, expected[order])
        amps = np.repeat([0.6, 0.8j], p.q) / math.sqrt(p.q)
        assert np.allclose(state.canonical().amps, amps[order], rtol=0, atol=1e-15)

    def test_branch_count_writes_nothing_out(self):
        # A two-term (4,5,11) secret deals 3.54 M branches, 107 MB written
        # out.  The branch count and repr come from the encoding; the first
        # read of the labels writes the state out, once, and it is kept.
        p = make_params(4, 5, 11)
        secret = default_secret_pairs(p)[1][0]
        deal(secret, p)  # the codeword table is cached; it is built first
        tracemalloc.start()
        try:
            state = deal(secret, p).state
            count, text = state.num_branches, repr(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2 * 11**6 and f"branches={count}" in text
        assert peak < 1e6
        labels = state.labels
        assert labels.shape == (count, p.n * p.m) and state.labels is labels
        assert len(state.amps) == state.num_branches == count


class TestRecoverFromD:
    def test_all_basis_secrets_smallest_scheme(self):
        for digits in itertools.product(range(5), repeat=2):
            secret = basis_secret(P235, digits)
            dealt = deal(secret, P235)
            result = recover_from_d(dealt, [1, 2, 3])
            assert result.transcript.qudit_cost == 3
            assert result.transcript.channel_dim == 125
            assert result.secret_registers == (0, 2)
            assert_recovers(result, secret)

    def test_superposition_secret(self):
        secret = superpose(
            [(basis_secret(P235, (1, 0)), 1 / np.sqrt(2)),
             (basis_secret(P235, (0, 1)), 1j / np.sqrt(2))]
        )
        result = recover_from_d(deal(secret, P235), [1, 2, 3])
        assert_recovers(result, secret)

    def test_all_subsets_and_random_secrets(self):
        rng = rng_for(101)
        for subset in itertools.combinations(range(1, 6), 4):
            secret = random_state(P347.q, P347.m, rng)
            result = recover_from_d(deal(secret, P347), subset)
            assert result.transcript.qudit_cost == 4
            assert_recovers(result, secret)

    def test_degenerate_d_equals_k(self):
        secret = basis_secret(P225, (2,))
        result = recover_from_d(deal(secret, P225), [1, 3])
        assert result.transcript.qudit_cost == 2
        assert_recovers(result, secret)

    def test_accesses_only_first_qudits(self):
        dealt = deal(basis_secret(P347, (1, 2)), P347)
        result = recover_from_d(dealt, [1, 2, 4, 5])
        first = {i: P347.registers_of(i)[0] for i in (1, 2, 4, 5)}
        assert result.transcript.accessed == {i: (r,) for i, r in first.items()}
        allowed = set(first.values())
        for op in result.transcript.operations:
            assert set(op.targets) | set(op.sources) <= allowed

    def test_wrong_set_size(self):
        dealt = deal(basis_secret(P235, (0, 0)), P235)
        with pytest.raises(ValueError, match="exactly d=3"):
            recover_from_d(dealt, [1, 2])

    def test_unknown_participant(self):
        dealt = deal(basis_secret(P235, (0, 0)), P235)
        with pytest.raises(ValueError, match="not part"):
            recover_from_d(dealt, [1, 2, 4])


class TestRecoverFromK:
    def test_smallest_scheme_all_subsets(self):
        secret = superpose(
            [(basis_secret(P235, (4, 2)), 0.8), (basis_secret(P235, (3, 3)), 0.6)]
        )
        dealt = deal(secret, P235)
        for subset in itertools.combinations((1, 2, 3), 2):
            result = recover_from_k(dealt, subset)
            assert result.transcript.qudit_cost == 4
            assert result.transcript.channel_dim == 625
            assert_recovers(result, secret)

    def test_all_subsets_and_random_secrets(self):
        rng = rng_for(202)
        for subset in itertools.combinations(range(1, 6), 3):
            secret = random_state(P347.q, P347.m, rng)
            result = recover_from_k(deal(secret, P347), subset)
            assert result.transcript.qudit_cost == 6
            assert_recovers(result, secret)

    def test_degenerate_paths_coincide_in_cost(self):
        secret = basis_secret(P225, (4,))
        dealt = deal(secret, P225)
        res_k = recover_from_k(dealt, [2, 3])
        res_d = recover_from_d(dealt, [2, 3])
        assert res_k.transcript.qudit_cost == res_d.transcript.qudit_cost == 2
        assert_recovers(res_k, secret)
        assert_recovers(res_d, secret)

    def test_accesses_whole_shares(self):
        dealt = deal(basis_secret(P347, (0, 3)), P347)
        result = recover_from_k(dealt, [2, 3, 5])
        assert result.transcript.accessed == {2: (2, 3), 3: (4, 5), 5: (8, 9)}
        assert result.secret_registers == (2, 4)

    def test_wrong_set_size(self):
        dealt = deal(basis_secret(P235, (0, 0)), P235)
        with pytest.raises(ValueError, match="exactly k=2"):
            recover_from_k(dealt, [1, 2, 3])


def transcript_of(p, *ops) -> RecoveryTranscript:
    """A transcript for the m = 2 scheme ``p`` of ``ops`` on registers 0 and
    2, as participants 1 and 2 send their first registers."""
    return RecoveryTranscript(p, {1: (0,), 2: (2,)}, ops, 2, 25, (0,))


class TestCombinerLocality:
    def test_session_refuses_outside_registers(self):
        one = FieldMatrix(P235.field, [[1]])
        with pytest.raises(CombinerLocalityError, match=r"\[4\]"):
            transcript_of(P235, OpRecord((4,), (), "outside", one))
        with pytest.raises(CombinerLocalityError):
            transcript_of(P235, OpRecord((1,), (0,), "outside", shear(one)))

    def test_transcript_checks_shares_and_outputs(self):
        # Participant 1 of (2,3,5) holds registers 0 and 1: it cannot send
        # share 3's register 4, and register 9 does not exist.
        swap = OpRecord((0, 4), (), "x", FieldMatrix(P235.field, [[1, 0], [0, 1]]))
        with pytest.raises(CombinerLocalityError, match=r"participant 1 sends registers \[4\]"):
            RecoveryTranscript(P235, {1: (0, 4)}, (swap,), 2, 25, (9,))
        with pytest.raises(CombinerLocalityError, match=r"output registers \[9\] were never"):
            RecoveryTranscript(P235, {1: (0,), 3: (4,)}, (swap,), 2, 25, (9,))
        with pytest.raises(CombinerLocalityError, match=r"participant 4 is not one of 1\.\.3"):
            RecoveryTranscript(P235, {1: (0,), 4: (6,)}, (swap,), 2, 25, (0,))
        with pytest.raises(ValueError, match="sends a register twice"):
            RecoveryTranscript(P235, {1: (0, 0)}, (swap,), 2, 25, (0,))
        with pytest.raises(ValueError, match=r"got q in \[5\]; the scheme's is F_7"):
            RecoveryTranscript(P347, {1: (0,), 3: (4,)}, (swap,), 2, 49, (0,))
        # The honest shares and outputs build, with costs taken as given.
        t = RecoveryTranscript(P235, {1: (0,), 3: (4,)}, (swap,), 2, 25, (0,))
        assert t.registers == (0, 4)

    def test_replaced_program_is_checked(self):
        # A transcript is checked whenever it is built, dataclasses.replace
        # included; its cost figures are taken as given.
        t = recovery_session(P235, "recover-d", [1, 2, 3])
        outside = OpRecord((1,), (), "never received", FieldMatrix(P235.field, [[1]]))
        with pytest.raises(CombinerLocalityError, match=r"\[1\]"):
            dataclasses.replace(t, operations=t.operations + (outside,))
        cheap = dataclasses.replace(t, qudit_cost=2, channel_dim=25)
        assert cheap.operations == t.operations and cheap.qudit_cost == 2

    def test_transcripts_stay_local(self):
        rng = rng_for(303)
        dealt = deal(random_state(P347.q, P347.m, rng), P347)
        for subset in itertools.combinations(range(1, 6), 3):
            result = recover_from_k(dealt, subset)
            allowed = {r for regs in result.transcript.accessed.values() for r in regs}
            for op in result.transcript.operations:
                assert set(op.targets) | set(op.sources) <= allowed
            assert result.transcript.qudit_cost == len(allowed)


def final_rows(p, chosen, per_share):
    """Register -> the row of ``P @ G[received]`` that a correct session on
    ``chosen`` leaves there, P being its program.

    In received order (the first register of every contacted share, then
    the first register of each later column, then the rest of each later
    column), the first m registers hold the secret digits, so their rows are
    units.  The next ones are paired, column by column, with the uncontacted
    shares' registers and must carry those registers' rows of G.  Any left
    over (a d-session's tail) keep their randomness digits: unit rows again.
    """
    g = p.generator.array
    unit = np.eye(g.shape[1], dtype=np.int64)
    cols = list(zip(*(p.registers_of(i)[:per_share] for i in chosen)))
    received = [*cols[0], *(c[0] for c in cols[1:]), *(r for c in cols[1:] for r in c[1:])]
    others = [i for i in range(1, p.n + 1) if i not in chosen]
    counterparts = [p.registers_of(i)[j] for j in range(per_share) for i in others]
    rows = {}
    for t, reg in enumerate(received):
        paired = p.m <= t < p.m + len(counterparts)
        rows[reg] = g[counterparts[t - p.m]] if paired else unit[t]
    return rows


class TestProgramsWithoutState:
    def test_every_program_recovers_exactly_at_6_9_13(self):
        # (6,9,13) deals 13**20 branches per secret, far past simulation, so
        # the combiners' programs are checked over F_q alone.  With G the
        # generator and P a session's program on its received registers,
        # every row of P @ G[received] is pinned: the output rows are
        # [I_m | 0] (the secret digits, with no randomness mixed in), each
        # paired register's row is its uncontacted counterpart's row of G,
        # and a d-session's tail registers keep their randomness unit rows.
        # As G[received] has full rank on the columns it depends on, this
        # fixes P.  Every op is one invertible square matrix on sources +
        # targets whose source rows are the identity: sources only control.
        # A session decodes, then mirrors unless it contacted every share.
        p = make_params(6, 9, 13)
        g = p.generator.array
        exact = np.eye(p.m, p.m + p.randomness_len, dtype=np.int64)
        checked = {}
        for mode, size, per_share in (("recover-k", p.k, p.m), ("recover-d", p.d, 1)):
            subsets = list(itertools.combinations(range(1, p.n + 1), size))
            for subset in subsets:
                t = recovery_session(p, mode, subset)
                assert len(t.operations) == (1 if size == p.n else 2), subset
                for op in t.operations:
                    side, s = len(op.sources) + len(op.targets), len(op.sources)
                    assert op.matrix.array.shape == (side, side), op.note
                    assert op.matrix.rank() == side, op.note
                    assert np.array_equal(op.matrix.array[:s], np.eye(s, side, dtype=np.int64))
                prog = t.program()
                assert prog.rank() == prog.rows == len(t.registers)
                out = prog.array @ g[list(t.registers)] % p.q
                rows = [t.registers.index(r) for r in t.output_registers]
                assert np.array_equal(out[rows], exact), subset
                expected = final_rows(p, subset, per_share)
                assert sorted(expected) == sorted(t.registers)
                for i, reg in enumerate(t.registers):
                    assert np.array_equal(out[i], expected[reg]), (subset, reg)
            checked[size] = len(subsets)
        assert checked == {p.k: 462, p.d: 55}

    def test_every_program_is_pinned(self):
        # Each session's registers, costs and composed program, hashed over
        # every k- and d-set of the grid and two schemes past simulation.
        digest, count = hashlib.sha256(), 0
        for triple in (*DEFAULT_GRID, (5, 9, 11), (6, 9, 13)):
            p = make_params(*triple)
            for mode, size in (("recover-k", p.k), ("recover-d", p.d)):
                for subset in itertools.combinations(range(1, p.n + 1), size):
                    t = recovery_session(p, mode, subset)
                    fields = (triple, mode, subset, t.registers, t.output_registers, t.qudit_cost, t.channel_dim)
                    digest.update(repr(fields).encode())
                    digest.update(t.program().array.astype("<i8").tobytes())
                    count += 1
        assert count == 792
        assert digest.hexdigest() == "757cf219a04b7fa9194205a003889a2297900673e5d968f244f52d7bd72c53b7"

    def test_program_composed_once_per_transcript(self):
        # program() is the matrix composed when the transcript was built;
        # dataclasses.replace builds a new transcript, which composes its own.
        t = recovery_session(P347, "recover-k", [1, 2, 4])
        assert t.program() is t.program()
        decode_only = t.operations[:1]
        u = dataclasses.replace(t, operations=decode_only)
        pos = {r: i for i, r in enumerate(u.registers)}
        fresh = FieldMatrix(P347.field, np.eye(len(pos), dtype=np.int64))
        for op in decode_only:
            rows = [pos[r] for r in op.sources + op.targets]
            embedded = np.eye(len(pos), dtype=np.int64)
            embedded[np.ix_(rows, rows)] = op.matrix.array
            fresh = FieldMatrix(P347.field, embedded) @ fresh
        assert u.program() is u.program()
        assert np.array_equal(u.program().array, fresh.array)
        assert not np.array_equal(u.program().array, t.program().array)

    def test_session_rejects_bad_requests(self):
        with pytest.raises(ValueError, match="no recovery session for mode 'secrecy'"):
            recovery_session(P235, "secrecy", [1])
        with pytest.raises(ValueError, match=r"participants \[0\] are not part"):
            recovery_session(P235, "recover-k", [0, 1])
        with pytest.raises(ValueError, match="exactly d=3"):
            recovery_session(P235, "recover-d", [1, 2])

    def test_one_session_serves_every_secret(self):
        t = recovery_session(P347, "recover-d", [1, 2, 4, 5])
        for digits in [(0, 0), (2, 5), (6, 1)]:
            secret = basis_secret(P347, digits)
            result = run_session(deal(secret, P347), t)
            assert result.transcript is t
            assert_recovers(result, secret)

    def test_session_runs_only_on_its_scheme(self):
        # A (2,2,5) session fits the registers and field of a (2,3,5) state,
        # and would report secret register 0 of its 6 registers.
        dealt = deal(basis_secret(P235, (1, 0)), P235)
        with pytest.raises(ValueError, match=r"built for SchemeParams\(k=2, d=2, q=5"):
            run_session(dealt, recovery_session(P225, "recover-k", [1, 2]))
        # A broken scheme is another scheme, even where its program is the
        # honest one: Collapsed's d-block has no collapsed column.
        collapsed = recovery_session(Collapsed(2, 3, 5), "recover-d", [1, 2, 3])
        honest = recovery_session(P235, "recover-d", [1, 2, 3])
        assert np.array_equal(collapsed.program().array, honest.program().array)
        for t in (collapsed, recovery_session(Leaky(2, 3, 5), "recover-k", [1, 2])):
            with pytest.raises(ValueError, match=r"cannot run on a state dealt with SchemeParams"):
                run_session(dealt, t)
        assert_recovers(run_session(dealt, honest), basis_secret(P235, (1, 0)))

    @pytest.mark.parametrize("triple", [(3, 5, 7), (4, 7, 11)], ids=["3-5-7", "4-7-11"])
    def test_each_session_inverts_once(self, monkeypatch, triple):
        # A session decodes with one inverse of its block of G: m*k x m*k
        # for a k-session, d x d (the Vandermonde block V_D) for a d-session.
        p = make_params(*triple)
        calls = []
        honest = FieldMatrix.inverse

        def counted(self):
            calls.append((self.rows, self.cols))
            return honest(self)

        monkeypatch.setattr(FieldMatrix, "inverse", counted)
        for mode, size, side in (("recover-k", p.k, p.m * p.k), ("recover-d", p.d, p.d)):
            calls.clear()
            recovery_session(p, mode, range(1, size + 1))
            assert calls == [(side, side)]
        assert p.m > 2


def replay(dealt, transcript) -> SparseState:
    """Run a transcript op by op with the simulator's own relabelings."""
    state = dealt.state
    for op in transcript.operations:
        state = state.apply_affine(op.sources + op.targets, op.matrix)
    return state


def rerun(dealt, result, ops) -> SparseState:
    """Run the given ops as the program of the result's transcript."""
    return run_session(dealt, dataclasses.replace(result.transcript, operations=tuple(ops))).state


def sessions(p, secret, n_kept):
    """(dealt, result) for every k- and d-subset of the first n_kept participants."""
    dealt = convert_to_mixed(deal(secret, p), n_kept)
    for size, recover in ((p.k, recover_from_k), (p.d, recover_from_d)):
        for subset in itertools.combinations(range(1, n_kept + 1), size):
            yield dealt, recover(dealt, subset)


class TestProgram:
    """A transcript is the session's program: composing its ops into one
    matrix must act exactly like applying them one at a time."""

    @pytest.mark.parametrize("p, n_kept", [(P235, 3), (P347, 5), (P347, 4)])
    def test_fused_session_equals_op_by_op_replay(self, p, n_kept):
        secret = random_state(p.q, p.m, rng_for(404))
        count = 0
        for dealt, result in sessions(p, secret, n_kept):
            fused = result.state.canonical()
            stepwise = replay(dealt, result.transcript).canonical()
            assert np.array_equal(fused.labels, stepwise.labels)
            assert np.array_equal(fused.amps, stepwise.amps)
            count += 1
        assert count == math.comb(n_kept, p.k) + math.comb(n_kept, p.d)

    def test_one_relabeling_per_session(self, monkeypatch):
        calls = []
        original = SparseState.apply_affine

        def counted(self, *args, **kwargs):
            calls.append(args[0])
            return original(self, *args, **kwargs)

        monkeypatch.setattr(SparseState, "apply_affine", counted)
        monkeypatch.setattr(SparseState, "apply_controlled_add", None)
        dealt = deal(basis_secret(P347, (2, 5)), P347)
        for recover, subset in ((recover_from_k, (1, 3, 5)), (recover_from_d, (1, 2, 4, 5))):
            calls.clear()
            result = recover(dealt, subset)
            assert len(result.transcript.operations) > 1
            assert len(calls) == 1

    def test_singular_program_rejected(self):
        dealt = deal(basis_secret(P235, (1, 2)), P235)
        f = P235.field
        transcript = transcript_of(
            P235,
            OpRecord((0, 2), (), "invertible", FieldMatrix(f, [[1, 2], [0, 1]])),
            OpRecord((2,), (0,), "always invertible", shear(FieldMatrix(f, [[3]]))),
            OpRecord((2,), (), "collapses register 2", FieldMatrix(f, [[0]])),
        )
        with pytest.raises(SingularMatrixError):
            run_session(dealt, transcript)

    def test_repeated_register_rejected(self):
        # Composition needs disjoint sources and targets, as the simulator does.
        f = P235.field
        t = transcript_of(P235, OpRecord((2,), (0,), "add", shear(FieldMatrix(f, [[1]]))))
        overlap = OpRecord((0,), (0,), "overlap", shear(FieldMatrix(f, [[1]])))
        duplicate = OpRecord((2, 2), (), "duplicate", FieldMatrix(f, [[1, 0], [0, 1]]))
        for bad in (overlap, duplicate):
            with pytest.raises(ValueError, match="twice"):
                dataclasses.replace(t, operations=t.operations + (bad,))
        assert len(t.operations) == 1

    def test_sources_stay_controls(self):
        # Register 0 is this op's source, yet its row [2, 0] would double it.
        f = P235.field
        rewrites = OpRecord((2,), (0,), "x", FieldMatrix(f, [[2, 0], [1, 1]]))
        with pytest.raises(ValueError, match=r"rewrites its sources \[0\]"):
            transcript_of(P235, rewrites)

    def test_program_is_square_ops_over_one_field(self):
        # program() composes over one F_q, so it has no field to reduce an
        # op over another into, and no field at all without ops.
        t = recovery_session(P235, "recover-d", [1, 2, 3])
        seven = OpRecord((0,), (), "over F_7", FieldMatrix(PrimeField(7), [[1]]))
        wide = OpRecord((0,), (), "1x2", FieldMatrix(P235.field, [[0, 0]]))
        with pytest.raises(ValueError, match=r"one field F_q, got q in \[5, 7\]"):
            dataclasses.replace(t, operations=t.operations + (seven,))
        with pytest.raises(ValueError, match=r"one field F_q, got q in \[\]"):
            dataclasses.replace(t, operations=())
        with pytest.raises(ValueError, match="cannot map 1 registers"):
            dataclasses.replace(t, operations=t.operations + (wide,))

    @pytest.mark.parametrize(
        "p, recover, subset, tamper",
        [
            pytest.param(P235, recover_from_d, (1, 2, 3), "bump", id="recover_from_d-subset0"),
            pytest.param(P235, recover_from_k, (1, 3), "bump", id="recover_from_k-subset1"),
            # Without its mirror step a session decodes the digits, but the
            # secret stays entangled with the uncontacted shares.
            pytest.param(P347, recover_from_d, (1, 2, 3, 5), "decode-only", id="recover_from_d-decode-only"),
            pytest.param(P347, recover_from_k, (1, 3, 4), "decode-only", id="recover_from_k-decode-only"),
        ],
    )
    def test_tampered_coefficient_breaks_recovery(self, p, recover, subset, tamper):
        secret = superpose(
            [(basis_secret(p, (4, 2)), 0.8), (basis_secret(p, (3, 3)), 0.6j)]
        )
        dealt = deal(secret, p)
        result = recover(dealt, subset)
        ops = list(result.transcript.operations)
        if tamper == "bump":
            first = ops[0].matrix
            entries = first.array.copy()
            entries[0, 0] += 1
            bumped = FieldMatrix(first.field, entries)
            ops[0] = dataclasses.replace(ops[0], matrix=bumped)
        else:
            ops = ops[:1]
        state = rerun(dealt, result, ops)
        rho = state.partial_trace(result.secret_registers)
        assert fidelity(rho, secret) < 1.0 - TOL
        assert rho.purity() < 1.0 - TOL
        assert not factor_check(state, result.secret_registers, secret)
        # The untampered program, re-run the same way, still recovers.
        untouched = rerun(dealt, result, result.transcript.operations)
        assert fidelity(untouched.partial_trace(result.secret_registers), secret) >= 1.0 - TOL


def test_protocol_imports_no_private_qsim_name():
    # Labels belong to qsim: the protocol hands it matrices through public names.
    tree = ast.parse(Path(protocol.__file__).read_text())
    names = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "qsim"
        for alias in node.names
    ]
    assert "SparseState" in names
    assert [n for n in names if n.startswith("_")] == []


class TestSecrecy:
    def test_single_share_zero_distance(self):
        report = secrecy_check(
            P235, [3], [(basis_secret(P235, (0, 0)), basis_secret(P235, (4, 3)))]
        )
        assert report.max_trace_distance <= TOL
        assert report.passed
        assert report.subset == frozenset({3})

    def test_empty_subset(self):
        report = secrecy_check(
            P235, [], [(basis_secret(P235, (0, 0)), basis_secret(P235, (1, 1)))]
        )
        assert report.max_trace_distance <= TOL

    def test_share_pairs_at_k3(self):
        # Every singleton plus a sample of two-share subsets; the exhaustive
        # two-share sweep runs in the acceptance suite.
        rng = rng_for(404)
        pairs = [(random_state(P347.q, P347.m, rng), random_state(P347.q, P347.m, rng))]
        for subset in [(1,), (2,), (3,), (4,), (5,), (1, 4), (2, 5)]:
            assert secrecy_check(P347, subset, pairs).passed

    def test_single_share_maximally_mixed(self):
        for digits in ((0, 0), (1, 0), (4, 3)):
            dealt = deal(basis_secret(P235, digits), P235)
            for share in (1, 2, 3):
                rho = dealt.state.partial_trace(dealt.params.registers_of(share))
                assert np.allclose(
                    rho.matrix, np.eye(25, dtype=complex) / 25, atol=1e-12
                )

    def test_authorized_subset_rejected(self):
        with pytest.raises(ValueError, match="authorized"):
            secrecy_check(P235, [1, 2], [])

    def test_dimension_cap(self):
        p = make_params(3, 5, 7)  # m = 3, two shares -> dim 7**6
        with pytest.raises(DimensionCapError):
            secrecy_check(p, [1, 2], default_secret_pairs(p))

    def test_secrets_counted(self):
        a, b = basis_secret(P235, (0, 0)), basis_secret(P235, (1, 1))
        report = secrecy_check(P235, [1], [(a, b), (a, b)])
        assert report.secrets_tested == 2

    def test_no_pairs_rejected(self, monkeypatch):
        # Zero pairs would report a maximum distance of 0 and pass.  The
        # subset is validated first, and nothing is dealt.
        monkeypatch.setattr(protocol, "deal", None)
        with pytest.raises(ValueError, match="no secret pairs"):
            secrecy_check(P235, [1], [])
        with pytest.raises(ValueError, match="authorized"):
            secrecy_check(P235, [1, 2], [])

    def test_no_distinct_pair_rejected(self, monkeypatch):
        # One secret against itself, or against an equal copy, would report
        # a distance of 0 and pass; nothing is dealt.
        monkeypatch.setattr(protocol, "deal", None)
        s = basis_secret(P235, (1, 0))
        for pairs in ([(s, s)], [(s, basis_secret(P235, (1, 0)))], [(s, s), (s, basis_secret(P235, (1, 0)))]):
            with pytest.raises(ValueError, match="no secret pairs compare two different states"):
                secrecy_check(P235, [1], pairs)
        # Equal as states, though built in another branch order.
        a = superpose([(basis_secret(P235, (1, 0)), 0.6), (basis_secret(P235, (0, 3)), 0.8)])
        b = superpose([(basis_secret(P235, (0, 3)), 0.8), (basis_secret(P235, (1, 0)), 0.6)])
        with pytest.raises(ValueError, match="no secret pairs compare"):
            secrecy_check(P235, [1], [(a, b)])
        # Equal as states up to a global phase: every reduced state agrees.
        for phase in (-1, 1j):
            with pytest.raises(ValueError, match="no secret pairs compare"):
                secrecy_check(P235, [1], [(s, SparseState(5, s.labels, phase * s.amps))])
            with pytest.raises(ValueError, match="no secret pairs compare"):
                secrecy_check(P235, [1], [(a, SparseState(5, a.labels, phase * a.amps))])

    def test_each_secret_dealt_once(self, monkeypatch):
        # Each distinct secret's reduced state is streamed once per call.
        reduced = []
        trace = SparseState.partial_trace

        def counted(self, keep, dim_cap):
            assert self._encoding is not None, "a dealt state was written out"
            reduced.append(id(self._encoding[0]))
            return trace(self, keep, dim_cap)

        monkeypatch.setattr(SparseState, "partial_trace", counted)
        a, b, c = (basis_secret(P235, d) for d in ((0, 0), (1, 1), (2, 3)))
        report = secrecy_check(P235, [1], [(a, a), (a, b), (c, b)])
        assert sorted(reduced) == sorted(map(id, (a, b, c)))
        assert report.secrets_tested == 3 and report.passed

    def test_secrets_checked_before_any_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a codeword table was built")

        monkeypatch.setattr(qsim, "_codeword_table", no_table)
        # Each secret is checked as it is dealt, before its table is fetched.
        s = basis_secret(P235, (1, 0))
        with pytest.raises(ValueError, match="secret is over F_7, scheme over F_5"):
            secrecy_check(P235, [1], [(SparseState.basis(7, (6, 0)), s)])
        with pytest.raises(ValueError, match="secret must occupy 2 registers, has 1"):
            secrecy_check(P235, [1], [(SparseState.basis(5, (1,)), s)])
        # Over another field, equal digits are still a different state.
        with pytest.raises(ValueError, match="secret is over F_7, scheme over F_5"):
            secrecy_check(P235, [1], [(SparseState.basis(7, (1, 0)), s)])
        with pytest.raises(EnumerationCapError, match="25 branches, above the cap of 24"):
            secrecy_check(P235, [1], default_secret_pairs(P235)[:1], cap_branches=24)
        with pytest.raises(EnumerationCapError, match="625 branches, above the cap of 624"):
            secrecy_check(P235, [1], default_secret_pairs(P235)[1:], cap_branches=624)

    def test_collapsed_dealer_rejected(self):
        p = Collapsed(2, 3, 5)
        with pytest.raises(SingularMatrixError, match="codewords would collide"):
            secrecy_check(p, [1], default_secret_pairs(p))

    def test_4_5_11_share_streams_within_60_mb(self):
        # Each 3.54 M-branch dealt state is reduced block by block, never
        # written out (labels and amplitudes: 107 MB); a written-out check
        # peaked at 135 MB.  The codeword table is cached; it is built first.
        p = make_params(4, 5, 11)
        pairs = default_secret_pairs(p)
        deal(pairs[0][0], p)
        tracemalloc.start()
        try:
            report = secrecy_check(p, [3], pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.secrets_tested == 4
        assert peak < 60e6

    def test_pair_subset_builds_no_dense_matrix(self, monkeypatch):
        # (3,4,7) shares {1, 2}: dimension 2401, compared on diagonals alone.
        densities.forbid_dense(monkeypatch)
        report = secrecy_check(P347, [1, 2], default_secret_pairs(P347, 7))
        assert report.passed and report.secrets_tested == 4

    def test_leaky_dealer_fails(self, monkeypatch):
        # Negative control: with s_0 in the clear on share 1, every check
        # above must fail on share 1.
        leaky = Leaky(2, 3, 5)
        pairs = default_secret_pairs(P235)
        report = secrecy_check(leaky, [1], pairs)
        assert report.max_trace_distance > 1e-10
        assert report.passed is False
        # The superposition pair differs by coherences between secret digits
        # that share the other register's digit: the distance needs one
        # eigensolve on their occupied indices, and still no dense matrix.
        regs = list(leaky.registers_of(1))
        rho, sigma = (deal(s, leaky).state.partial_trace(regs) for s in pairs[1])
        diff = rho.matrix - sigma.matrix
        assert np.count_nonzero(diff - np.diag(np.diag(diff))) > 0
        expected = densities.trace_distance(rho, sigma)
        densities.forbid_dense(monkeypatch)
        td = secrecy_check(leaky, [1], pairs[1:]).max_trace_distance
        assert td > 1e-10
        assert td == pytest.approx(expected, abs=1e-12)

    def test_leaky_dealer_fails_on_diagonals(self, monkeypatch):
        # The same leak, checked with the basis pair alone: both reduced
        # states are diagonal, so the verdict comes from the diagonal
        # comparison, with no dense matrix built.
        leaky = Leaky(2, 3, 5)
        pairs = default_secret_pairs(P235)[:1]
        regs = list(leaky.registers_of(1))
        rho, sigma = (deal(s, leaky).state.partial_trace(regs) for s in pairs[0])
        assert rho.coherences.size == 0 and sigma.coherences.size == 0
        expected = densities.trace_distance(rho, sigma)
        densities.forbid_dense(monkeypatch)
        report = secrecy_check(leaky, [1], pairs)
        assert report.max_trace_distance > 1e-10
        assert report.passed is False
        assert report.max_trace_distance == pytest.approx(expected, abs=1e-12)


class TestParticipantSets:
    @pytest.mark.parametrize("triple", [(2, 2, 5), (2, 3, 5), (3, 4, 7), (3, 5, 7), (4, 5, 11)])
    @pytest.mark.parametrize("retained_to", ["n", "d"])
    def test_sets_are_combinations_in_order(self, triple, retained_to):
        # retained_to = "d" is the view the mixed mode checks.
        p = make_params(*triple)
        retained = range(1, getattr(p, retained_to) + 1)
        for mode, sizes in (("recover-d", [p.d]), ("recover-k", [p.k]), ("secrecy", range(1, p.k))):
            expected = [s for size in sizes for s in itertools.combinations(retained, size)]
            sets, skipped = protocol.participant_sets(p, mode, retained, dim_cap=10**9)
            assert (sets, skipped) == (expected, 0)

    @pytest.mark.parametrize(
        "triple, fit, skipped", [((3, 4, 7), 15, 0), ((3, 5, 7), 5, 10), ((4, 5, 11), 7, 56)]
    )
    def test_secrecy_skips_at_the_default_cap(self, triple, fit, skipped):
        p = make_params(*triple)
        sets, over = protocol.participant_sets(p, "secrecy", range(1, p.n + 1))
        assert (len(sets), over) == (fit, skipped)
        assert all(p.q ** (p.m * len(s)) <= protocol.DEFAULT_DIM_CAP for s in sets)

    def test_cap_below_one_share_skips_every_secrecy_set(self):
        sets, skipped = protocol.participant_sets(P347, "secrecy", range(1, 6), dim_cap=7**2 - 1)
        assert sets == [] and skipped == 5 + 10

    @pytest.mark.parametrize("mode", ["recover-d", "recover-k"])
    def test_recovery_sets_never_skipped(self, mode):
        assert protocol.participant_sets(P347, mode, range(1, 6), dim_cap=1)[1] == 0

    @pytest.mark.parametrize(
        "mode, retained, error",
        [
            ("secrecy", [1, 1, 2], ValueError),
            ("recover-k", [0, 1, 2], ValueError),
            ("recover-d", [1, 2, 3, 6], ValueError),
            ("secrecy", [-1, 1], ValueError),
            ("secrecy", [1.0, 2], TypeError),
        ],
    )
    def test_retained_checked(self, mode, retained, error):
        with pytest.raises(error):
            protocol.participant_sets(P347, mode, retained)

    def test_numpy_retained_gives_the_same_sets(self):
        for mode in ("recover-d", "recover-k", "secrecy"):
            sets = protocol.participant_sets(P347, mode, np.arange(1, 6))
            assert sets == protocol.participant_sets(P347, mode, range(1, 6))

    @pytest.mark.parametrize("mode", ["mixed", "encode", "costs", ""])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="no participant sets"):
            protocol.participant_sets(P235, mode, range(1, 4))


class TestComplementRule:
    """For n = 2k-1 the complement of an authorized set has at most k-1
    members, and must learn nothing."""

    @staticmethod
    def complement(p, chosen):
        return sorted(set(range(1, p.n + 1)) - set(chosen))

    def test_smallest_scheme(self):
        pairs = default_secret_pairs(P235)
        assert secrecy_check(P235, self.complement(P235, [1, 2]), pairs).passed
        assert secrecy_check(P235, self.complement(P235, [1, 2, 3]), pairs).passed  # empty

    def test_k3_scheme_sampled_k_subsets(self):
        pairs = default_secret_pairs(P347, seed=5)
        for subset in [(1, 2, 3), (2, 4, 5)]:
            assert secrecy_check(P347, self.complement(P347, subset), pairs).passed


class TestMixedConversion:
    def test_full_retention_is_identity(self):
        dealt = deal(basis_secret(P235, (1, 2)), P235)
        mixed = convert_to_mixed(dealt, 3)
        assert mixed.active == dealt.active
        assert mixed.state is dealt.state

    def test_discard_one_share(self):
        rng = rng_for(505)
        secret = random_state(P347.q, P347.m, rng)
        mixed = convert_to_mixed(deal(secret, P347), 4)
        assert mixed.active == frozenset({1, 2, 3, 4})
        for subset in itertools.combinations(range(1, 5), 3):
            assert_recovers(recover_from_k(mixed, subset), secret)
        assert_recovers(recover_from_d(mixed, [1, 2, 3, 4]), secret)

    def test_recovery_with_discarded_share_rejected(self):
        dealt = convert_to_mixed(deal(basis_secret(P347, (0, 0)), P347), 4)
        with pytest.raises(ValueError, match="not part"):
            recover_from_k(dealt, [3, 4, 5])
        with pytest.raises(ValueError, match="not part"):
            recover_from_d(dealt, [2, 3, 4, 5])

    def test_retained_secrecy(self):
        pairs = default_secret_pairs(P347, seed=6)
        for subset in [(1,), (2,), (3,), (4,), (1, 3)]:
            assert secrecy_check(P347, subset, pairs).passed

    def test_minimum_retention(self):
        # n' = k leaves only full-set threshold recovery; the d-qudit
        # procedure needs d <= n' and must refuse.
        secret = basis_secret(P347, (2, 5))
        mixed = convert_to_mixed(deal(secret, P347), 3)
        assert_recovers(recover_from_k(mixed, [1, 2, 3]), secret)
        with pytest.raises(ValueError, match="not part"):
            recover_from_d(mixed, [1, 2, 3, 4])
        for subset in [(1,), (3,), (1, 2)]:
            assert secrecy_check(P347, subset, default_secret_pairs(P347)).passed

    def test_invalid_share_count(self):
        dealt = deal(basis_secret(P347, (0, 0)), P347)
        with pytest.raises(ValueError, match="n'"):
            convert_to_mixed(dealt, 2)
        with pytest.raises(ValueError, match="n'"):
            convert_to_mixed(dealt, 6)


class TestLowerBound:
    def test_intro_scheme(self):
        assert lower_bound(25, 2, 3) == 125
        assert isinstance(lower_bound(25, 2, 3), int)

    def test_d_equals_k(self):
        assert lower_bound(5, 2, 2) == 25  # M**d with unit secret length
        assert lower_bound(49, 3, 3) == 49**3

    def test_non_perfect_power_float(self):
        val = lower_bound(10, 2, 3)
        assert val == pytest.approx(10**1.5)
        assert isinstance(val, float)

    def test_invalid(self):
        with pytest.raises(ValueError):
            lower_bound(1, 2, 3)
        with pytest.raises(ValueError):
            lower_bound(25, 3, 2)

    def test_roots_past_float_range_are_exact(self):
        # 65521**900 overflows a float, and a float estimate of 65521**6 is
        # off by about 10**12, so the root must be found in integers alone.
        big = 65521**900
        assert protocol._int_nth_root(big, 900) == 65521
        assert protocol._int_nth_root(big - 1, 900) == 65520
        assert protocol._int_nth_root(big, 1) == big
        assert protocol._int_nth_root(65521**6 + 1, 1) == 65521**6 + 1
        assert lower_bound(65521**6, 6, 11) == 65521**11

    def test_float_bound_past_float_range_is_a_value_error(self):
        # 10**400 + 1 does not convert to a float; (10**300 + 1)**1.5 overflows.
        for secret_dim in (10**400 + 1, 10**300 + 1):
            with pytest.raises(ValueError, match="exceeds the largest float"):
                lower_bound(secret_dim, 2, 3)
        assert isinstance(lower_bound(10, 2, 3), float)

    def test_int_nth_root_brackets_the_root(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n = int(rng.integers(1, 40))
            value = int(rng.integers(1, 2**62)) ** int(rng.integers(1, 30)) + int(rng.integers(0, 3))
            root = protocol._int_nth_root(value, n)
            assert root**n <= value < (root + 1) ** n, (value, n)


class TestCostTable:
    def test_intro_scheme_rows(self):
        rows = cost_table(P235)
        assert [(r.mode, r.qudits, r.ratio) for r in rows] == [
            ("recover-k", 4, 2.0),
            ("recover-d", 3, 1.5),
        ]
        assert all(r.optimal for r in rows)
        d_row = rows[1]
        assert d_row.channel_dim == d_row.bound_dim == 125

    def test_single_row_when_d_equals_k(self):
        rows = cost_table(P225)
        assert len(rows) == 1
        assert rows[0].qudits == 2
        assert rows[0].ratio == 2.0

    def test_figures_too_long_to_print_are_rejected_first(self, monkeypatch):
        # (80,159,65521) would need a 30825-digit q**(m*k); no power is taken.
        monkeypatch.setattr(protocol, "lower_bound", None)
        with pytest.raises(DimensionCapError, match="30825 digits, over 4300"):
            cost_table(make_params(80, 159, 65521))

    def test_ratio_formula(self):
        rows = cost_table(make_params(4, 6, 11))
        d_row = [r for r in rows if r.mode == "recover-d"][0]
        assert d_row.ratio == pytest.approx(2.0)  # 6 / 3
        k_row = [r for r in rows if r.mode == "recover-k"][0]
        assert k_row.ratio == pytest.approx(4.0)
        assert k_row.qudits == 12


def encode_reference_cleve23(secret: SparseState) -> SparseState:
    """Encode one qutrit as |s> -> sum_r |r, s+r, 2s+r> / sqrt(3).

    A fixture independent of the staircase construction: any two of the
    three qutrits recover the secret, any single one is maximally mixed.
    """
    if secret.q != 3:
        raise ValueError(f"reference scheme works over F_3, got q={secret.q}")
    if secret.num_registers != 1:
        raise ValueError("reference scheme shares a single qutrit")
    w = 1.0 / np.sqrt(3.0)
    branches = []
    for row, amp in zip(secret.labels, secret.amps):
        s = int(row[0])
        for r in range(3):
            branches.append(((r, (s + r) % 3, (2 * s + r) % 3), complex(amp) * w))
    return SparseState.from_branches(3, branches)


def maximally_mixed(q: int, num_registers: int) -> DensityMatrix:
    dim = q**num_registers
    return densities.density(q, num_registers, np.eye(dim) / dim)


class TestCleve23Reference:
    def test_zero_secret(self):
        st = encode_reference_cleve23(SparseState.basis(3, (0,)))
        w = 1 / np.sqrt(3)
        assert densities.branch_dict(st) == pytest.approx(
            {(0, 0, 0): w, (1, 1, 1): w, (2, 2, 2): w}
        )

    def test_one_secret(self):
        st = encode_reference_cleve23(SparseState.basis(3, (1,)))
        assert set(densities.branch_dict(st)) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}

    def test_single_share_mixed_independent_of_secret(self):
        rhos = []
        for s in range(3):
            st = encode_reference_cleve23(SparseState.basis(3, (s,)))
            for reg in range(3):
                rho = st.partial_trace([reg])
                assert densities.allclose(rho, maximally_mixed(3, 1), tol=1e-12)
                rhos.append(rho)
        sup = encode_reference_cleve23(
            superpose([(SparseState.basis(3, (0,)), 0.6), (SparseState.basis(3, (2,)), 0.8)])
        )
        assert densities.allclose(sup.partial_trace([1]), maximally_mixed(3, 1), tol=1e-12)

    def test_linearity(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        sup = superpose([(a, 0.6), (b, 0.8)])
        direct = encode_reference_cleve23(sup)
        by_parts = superpose(
            [(encode_reference_cleve23(a), 0.6), (encode_reference_cleve23(b), 0.8)]
        )
        assert densities.states_allclose(direct, by_parts)

    def test_wrong_modulus(self):
        with pytest.raises(ValueError, match="F_3"):
            encode_reference_cleve23(SparseState.basis(5, (0,)))
        with pytest.raises(ValueError, match="single"):
            encode_reference_cleve23(SparseState.basis(3, (0, 0)))
