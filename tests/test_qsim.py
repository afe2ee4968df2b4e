"""Sparse simulator tests.

The partial trace is cross-checked against an independent dense oracle
(the amplitude matrix A over kept x discarded digits, then A A^H); the trace
distance against one ``eigvalsh`` of the whole difference; relabeling
operations are checked for exact norm preservation and round-trip identity.
"""

import itertools
import math
from unittest import mock

import densities
import numpy as np
import pytest
from broken_schemes import Collapsed, Leaky
from hypothesis import example, given, settings
from hypothesis import strategies as hst

from qtss import qsim
from qtss.gf import FieldMatrix, PrimeField, SingularMatrixError
from qtss.protocol import basis_secret, deal, default_secret_pairs, recover_from_k
from qtss.qsim import (
    DensityMatrix,
    DimensionCapError,
    EmptyStateError,
    SparseState,
    factor_check,
    fidelity,
    random_state,
    superpose,
    trace_distance,
)
from qtss.staircase import make_params

F5 = PrimeField(5)
Q_WIDE = 2039  # prime with 11-bit digits: five discarded registers need 55 bits


def dense_partial_trace(state: SparseState, keep) -> np.ndarray:
    """Oracle: rho = A A^H, where A holds the amplitudes with rows indexed by
    the kept digits (big-endian) and columns by the discarded digits.

    Only discarded-digit rows that occur get a column (an absent column adds
    nothing to A A^H), so the oracle also covers registers too wide for a
    dense state vector.  Built with Python tuples and dicts, nothing from qsim.
    """
    keep = [int(r) for r in keep]
    rest = [r for r in range(state.num_registers) if r not in keep]
    columns: dict[tuple[int, ...], int] = {}
    entries = []
    for row, amp in zip(state.labels, state.amps):
        idx = 0
        for r in keep:
            idx = idx * state.q + int(row[r])
        col = columns.setdefault(tuple(int(row[r]) for r in rest), len(columns))
        entries.append((idx, col, amp))
    a = np.zeros((state.q ** len(keep), len(columns)), dtype=np.complex128)
    for idx, col, amp in entries:
        a[idx, col] += amp
    return a @ a.conj().T


def reference_partial_trace(state: SparseState, keep) -> np.ndarray:
    """The reduced matrix of a state whose discarded-digit groups are all
    singletons: diagonal, each entry the correctly rounded sum (``math.fsum``)
    of ``|amp|**2`` over the branches with that kept index."""
    q, keep = state.q, [int(r) for r in keep]
    rest = [r for r in range(state.num_registers) if r not in keep]

    def key(cols):
        k = np.zeros(state.num_branches, dtype=np.int64)
        for c in cols:
            k = k * q + state.labels[:, c]
        return k

    kept_idx, rest_keys = key(keep), key(rest)
    dim = q ** len(keep)
    assert len(np.unique(rest_keys)) == len(rest_keys), "a discarded-digit group has two branches"
    weights = state.amps.real**2 + state.amps.imag**2
    order = np.argsort(kept_idx, kind="stable")
    bins = np.split(weights[order], np.flatnonzero(np.diff(kept_idx[order])) + 1)
    rho = np.zeros((dim, dim), dtype=np.complex128)
    rho[np.unique(kept_idx), np.unique(kept_idx)] = [math.fsum(b) for b in bins]
    return rho


def assert_diagonal_reference(rho: np.ndarray, reference: np.ndarray, ulps: int = 64) -> None:
    """``rho`` is diagonal like the reference, each entry within ``ulps``
    units in the last place of the reference's."""
    assert np.count_nonzero(rho - np.diag(np.diag(rho))) == 0
    got, want = np.diag(rho).real, np.diag(reference).real
    assert np.all(np.abs(got - want) <= ulps * np.spacing(want))


def grouped_state(
    q: int, registers: int, keep, groups, rng: np.random.Generator, rest_digits=None
) -> SparseState:
    """A random state whose branches fall into the given discarded-digit
    groups: ``groups[i]`` branches share the i-th random discarded row (drawn
    from ``rest_digits``, default all of F_q) and carry distinct kept digits."""
    rest = [r for r in range(registers) if r not in keep]
    rest_digits = np.arange(q) if rest_digits is None else np.asarray(rest_digits)
    rows = []
    rest_rows = set()
    for size in groups:
        while True:
            rest_row = tuple(int(x) for x in rng.choice(rest_digits, len(rest)))
            if rest_row not in rest_rows:
                rest_rows.add(rest_row)
                break
        kept_rows = set()
        while len(kept_rows) < size:
            kept_rows.add(tuple(int(x) for x in rng.integers(0, q, len(keep))))
        for kept_row in kept_rows:
            label = [0] * registers
            for r, d in zip(keep, kept_row):
                label[r] = d
            for r, d in zip(rest, rest_row):
                label[r] = d
            rows.append(label)
    amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
    return SparseState(q, np.array(rows, dtype=np.int64), amps)


@pytest.fixture(scope="class")
def recovered_4_5_11():
    """A 2-term (4,5,11) secret and its recovery from shares 1 to 4."""
    p = make_params(4, 5, 11)
    secret = SparseState.from_branches(11, [((1, 2), 0.6), ((7, 3), 0.8j)])
    return secret, recover_from_k(deal(secret, p), [1, 2, 3, 4])


def random_small_state(rng: np.random.Generator) -> SparseState:
    q = int(rng.choice([2, 3, 5, 7]))
    regs = int(rng.integers(1, 5))
    support = int(rng.integers(1, min(q**regs, 12) + 1))
    return random_state(q, regs, rng, support=support)


class TestConstruction:
    def test_single_label(self):
        st = SparseState.basis(5, (1, 2))
        assert st.num_branches == 1
        assert st.amps[0] == pytest.approx(1.0)

    def test_equal_weights_normalized(self):
        labels = list(itertools.product(range(5), repeat=2))
        st = SparseState.from_branches(5, [(l, 1.0) for l in labels])
        assert st.num_branches == 25
        assert np.allclose(np.abs(st.amps), 0.2)

    def test_duplicate_labels_summed(self):
        st = SparseState.from_branches(3, [((0,), 1.0), ((0,), 1.0), ((1,), 0.0)])
        assert st.num_branches == 1
        assert st.amps[0] == pytest.approx(1.0)

    def test_cancelling_weights_empty(self):
        with pytest.raises(EmptyStateError):
            SparseState.from_branches(3, [((0,), 1.0), ((0,), -1.0)])

    def test_no_branches(self):
        with pytest.raises(EmptyStateError):
            SparseState.from_branches(3, [])

    @pytest.mark.parametrize(
        "labels, amps",
        [
            ([[0], [1]], [1.0, np.nan]),
            ([[0], [1]], [1.0, np.inf]),
            ([[0], [1]], [-np.inf, 1.0]),
            ([[0]], [complex(1.0, np.nan)]),
        ],
    )
    def test_non_finite_amplitude_rejected_before_any_sort(self, labels, amps):
        with mock.patch.object(qsim, "_combine", side_effect=AssertionError("sorted")):
            with pytest.raises(ValueError, match="is not finite"):
                SparseState(5, labels, amps)

    @pytest.mark.parametrize(
        "labels, amps", [([[0], [1]], [1e200, 1e200]), ([[0], [0]], [1e308, 1e308])]
    )
    def test_overflowing_norm_rejected(self, labels, amps):
        # Finite amplitudes whose norm (or duplicate sum) overflows: a
        # ValueError, and no RuntimeWarning on the way.
        with pytest.raises(ValueError, match="norm inf is not finite"):
            SparseState(5, labels, amps)

    def test_large_finite_norm_normalized(self):
        st = SparseState(5, [[0], [1]], [1e150, 1e150])
        assert np.allclose(st.amps, 1 / np.sqrt(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="differing lengths"):
            SparseState.from_branches(3, [((0,), 1.0), ((0, 1), 1.0)])

    def test_digit_out_of_range(self):
        with pytest.raises(ValueError, match="lie in"):
            SparseState.basis(3, (3,))

    def test_negative_digit_rejected_not_wrapped(self):
        with pytest.raises(ValueError, match="lie in"):
            SparseState(5, np.array([[1, -1]]), [1.0])
        with pytest.raises(ValueError, match="lie in"):
            SparseState.from_branches(5, [((-1,), 1.0)])

    def test_non_integral_digits_rejected_not_truncated(self):
        # (1.7, 2) used to become the label (1, 2) with no error.
        with pytest.raises(TypeError, match="integers"):
            SparseState.basis(5, (1.7, 2))
        with pytest.raises(TypeError, match="integers"):
            SparseState.from_branches(5, [((1.7, 2), 1.0)])
        with pytest.raises(TypeError, match="integers"):
            SparseState(5, np.array([[2.0, 1.0]]), [1.0])
        # Integer arrays of any width and zero-register labels still construct.
        assert SparseState(5, np.array([[1, 2]], dtype=np.uint16), [1.0]).labels.tolist() == [[1, 2]]
        assert SparseState(5, np.array([[4, 0]], dtype=np.int64), [1.0]).labels.tolist() == [[4, 0]]
        assert SparseState(5, np.array([[]]), [1.0]).labels.shape == (1, 0)
        assert SparseState.basis(5, ()).num_registers == 0

    def test_large_field_digits_kept_exact(self):
        # Digits above 2**15 must survive the label dtype unchanged.
        st = SparseState.basis(40009, (40000,))
        assert densities.branch_dict(st) == {(40000,): 1.0}
        out = st.apply_affine([0], FieldMatrix(PrimeField(40009), [[2]]))
        assert densities.branch_dict(out) == {(39991,): 1.0}  # 80000 mod 40009
        with pytest.raises(ValueError, match="lie in"):
            SparseState.basis(40009, (40009,))

    def test_norm_invariant(self):
        rng = np.random.default_rng(5)
        st = SparseState.from_branches(
            5, [((int(a), int(b)), complex(x, y)) for (a, b), (x, y) in
                zip(rng.integers(0, 5, (8, 2)), rng.normal(size=(8, 2)))]
        )
        assert abs(st.norm_sq - 1.0) < 1e-12

    @pytest.mark.parametrize("registers", [4, 5, 6])
    def test_wide_labels_sorted_and_merged(self, registers):
        # 4 registers of F_2039 need 44 bits and pack with the row index;
        # 5 or 6 need 55 or 66 bits, past a float key: rows are sorted by
        # their columns.  Digits from {0, 1, 2038} make rows that differ in
        # one column, and every row is given twice.
        rng = np.random.default_rng(registers)
        rows = rng.choice([0, 1, Q_WIDE - 1], size=(40, registers))
        amps = rng.normal(size=40) + 1j * rng.normal(size=40)
        st = SparseState(Q_WIDE, np.concatenate([rows, rows]), np.concatenate([amps, amps]))
        unique, inverse = np.unique(rows, axis=0, return_inverse=True)
        summed = np.zeros(len(unique), dtype=np.complex128)
        np.add.at(summed, inverse.ravel(), 2 * amps)
        assert np.array_equal(st.labels, unique)  # np.unique sorts rows lexicographically
        assert np.allclose(st.amps, summed / np.linalg.norm(summed), rtol=0, atol=1e-15)
        # Reversing the register order leaves the rows unsorted until canonical().
        rev = np.eye(registers, dtype=np.int64)[::-1]
        out = st.apply_affine(range(registers), rev).canonical()
        order = np.lexsort(st.labels[:, ::-1].T[::-1])
        assert np.array_equal(out.labels, st.labels[order][:, ::-1])
        assert np.array_equal(out.amps, st.amps[order])

    @pytest.mark.parametrize("q, registers", [(5, 3), (Q_WIDE, 5)], ids=["packed", "lexsort"])
    def test_three_or_more_duplicates_merged(self, q, registers):
        # Three to five copies of each label, interleaved with the others,
        # merge into one branch carrying the sum of their amplitudes.
        rng = np.random.default_rng(q)
        distinct = np.unique(rng.choice([0, 1, q - 1], size=(12, registers)), axis=0)
        picks = rng.permutation(np.repeat(np.arange(len(distinct)), rng.integers(3, 6, len(distinct))))
        amps = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
        assert qsim._packs(q, registers, len(picks)) == (q == 5)
        sums: dict[tuple[int, ...], complex] = {}
        for i, a in zip(picks, amps):
            key = tuple(int(d) for d in distinct[i])
            sums[key] = sums.get(key, 0j) + a
        keys = sorted(sums)
        summed = np.array([sums[k] for k in keys])
        st = SparseState(q, distinct[picks], amps)
        assert np.array_equal(st.labels, np.array(keys))
        assert np.allclose(st.amps, summed / np.linalg.norm(summed), rtol=0, atol=1e-15)

    def test_immutability(self):
        st = SparseState.basis(5, (1,))
        with pytest.raises(ValueError):
            st.labels[0, 0] = 2
        with pytest.raises(ValueError):
            st.amps[0] = 0.0


class TestSuperpose:
    def test_single(self):
        a = SparseState.basis(3, (0,))
        assert densities.states_allclose(superpose([(a, 1.0)]), a)

    def test_two_branch_uniform(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        st = superpose([(a, 1 / np.sqrt(2)), (b, 1 / np.sqrt(2))])
        assert st.num_branches == 2
        assert np.allclose(np.abs(st.amps), 1 / np.sqrt(2))

    def test_zero_coefficient_dropped(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        assert densities.states_allclose(superpose([(a, 1.0), (b, 0.0)]), a)

    def test_register_mismatch(self):
        with pytest.raises(ValueError, match="register counts"):
            superpose([(SparseState.basis(3, (0,)), 1.0), (SparseState.basis(3, (0, 0)), 1.0)])

    def test_full_cancellation(self):
        a = SparseState.basis(3, (0,))
        with pytest.raises(EmptyStateError):
            superpose([(a, 1.0), (a, -1.0)])

    def test_nan_coefficient_rejected(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        with pytest.raises(ValueError, match="is not finite"):
            superpose([(a, 1.0), (b, float("nan"))])


class TestAffine:
    def test_identity_noop(self):
        st = random_state(5, 3, np.random.default_rng(0), support=6)
        out = st.apply_affine([0, 1, 2], FieldMatrix(F5, np.eye(3, dtype=np.int64)))
        assert densities.states_allclose(out, st)

    def test_single_register_scale(self):
        st = SparseState.basis(5, (3,))
        out = st.apply_affine([0], FieldMatrix(F5, [[2]]))
        assert densities.branch_dict(out) == {(1,): 1.0}  # 2*3 = 6 = 1 mod 5

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        st = random_state(5, 3, rng, support=10)
        a = FieldMatrix(F5, [[2, 1], [1, 1]])
        fwd = st.apply_affine([0, 2], a)
        assert not densities.states_allclose(fwd, st)
        assert densities.states_allclose(fwd.apply_affine([0, 2], a.inverse()), st)

    def test_singular_rejected(self):
        st = SparseState.basis(5, (0, 0))
        with pytest.raises(SingularMatrixError):
            st.apply_affine([0, 1], FieldMatrix(F5, [[1, 1], [2, 2]]))

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(3)
        st = random_state(5, 2, rng, support=9)
        out = st.apply_affine([0, 1], FieldMatrix(F5, [[1, 2], [0, 1]]))
        assert sorted(np.abs(st.amps)) == pytest.approx(sorted(np.abs(out.amps)), abs=0)
        assert out.num_branches == st.num_branches

    def test_register_out_of_range(self):
        st = SparseState.basis(5, (0,))
        with pytest.raises(IndexError):
            st.apply_affine([1], FieldMatrix(F5, [[1]]))

    def test_non_integral_matrix_rejected(self):
        # 1.7 used to be relabeled as 1.
        st = SparseState.basis(5, (1, 2))
        with pytest.raises(TypeError, match="integers"):
            st.apply_affine([0, 1], [[1.7, 0], [0, 1]])

    def test_raw_matrix_must_be_two_dimensional(self):
        st = SparseState.basis(5, (1, 2))
        with pytest.raises(ValueError, match="two-dimensional"):
            st.apply_affine([0], [2])
        assert densities.branch_dict(st.apply_affine([0], [[2]])) == {(2, 2): 1.0}

    @pytest.mark.parametrize("q", [11, 65521])
    def test_row_blocks_match_int64_oracle(self, q):
        # Three full row blocks and a partial one.  Over F_65521 the products
        # exceed float32 and take the float64 path; the oracle maps every row
        # in int64.  The map is a row permutation of an upper-triangular
        # matrix with a nonzero diagonal, so it is invertible.
        rng = np.random.default_rng(q)
        n = 3 * qsim._CHUNK_ROWS + 5
        st = SparseState(q, rng.integers(0, q, (n, 6)), rng.normal(size=n) + 1j * rng.normal(size=n))
        targets = [5, 1, 3, 0]
        upper = np.array([[2, 3, 0, q - 1], [0, q - 1, 7, 0], [0, 0, 1, 4], [0, 0, 0, 9]])
        a = upper[[2, 0, 3, 1]]
        out = st.apply_affine(targets, a).canonical()
        expected = st.labels.astype(np.int64)
        expected[:, targets] = (expected[:, targets] @ a.T) % q
        order = np.lexsort(expected.T[::-1])
        assert np.array_equal(out.labels, expected[order])
        assert np.array_equal(out.amps, st.amps[order])


class TestModMatmul:
    # The reduction sees only the product x, so one column of values against
    # a unit coefficient reaches every x up to the bound t * (q-1)**2 of a
    # t-column product, on the float type that bound selects.  Over F_4093
    # one column is the float32 edge (bound 16,744,464, just below 2**24) and
    # two columns are past it.
    @pytest.mark.parametrize(
        "q, t", [(2, 1), (2, 14), (11, 1), (11, 14), (53, 1), (53, 14), (4093, 1), (4093, 2)]
    )
    def test_every_value_to_the_bound(self, q, t):
        bound = t * (q - 1) ** 2
        ftype = np.float32 if bound < 1 << 24 else np.float64
        assert (ftype == np.float64) == (q == 4093 and t == 2)
        coeff_t = np.zeros((t, 1), dtype=np.int64)
        coeff_t[0, 0] = 1
        step = 1 << 21
        for lo in range(0, bound + 1, step):
            x = np.arange(lo, min(lo + step, bound + 1))
            rows = np.zeros((len(x), t), dtype=np.int64)
            rows[:, 0] = x
            got = qsim._mod_matmul(rows, coeff_t, q)
            assert got.dtype == ftype
            assert np.array_equal(got[:, 0], x % q)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        n=hst.integers(1, 200),
        t=hst.integers(1, 24),
        c=hst.integers(1, 6),
    )
    def test_float64_path_at_65521(self, seed, n, t, c):
        # Half the entries are q - 1, so products reach their bound.
        q = 65521
        rng = np.random.default_rng(seed)

        def residues(shape):
            return np.where(rng.random(shape) < 0.5, q - 1, rng.integers(0, q, shape))

        rows, coeff_t = residues((n, t)), residues((t, c))
        got = qsim._mod_matmul(rows, coeff_t, q)
        assert got.dtype == np.float64
        assert np.array_equal(got, rows @ coeff_t % q)


class TestControlledAdd:
    def test_zero_coeff_noop(self):
        st = random_state(3, 3, np.random.default_rng(1), support=5)
        out = st.apply_controlled_add([0], [1, 2], FieldMatrix(PrimeField(3), [[0], [0]]))
        assert densities.states_allclose(out, st)

    def test_copy_classical_digits(self):
        st = SparseState.basis(5, (3, 2, 0, 0))
        out = st.apply_controlled_add([0, 1], [2, 3], FieldMatrix(F5, [[1, 0], [0, 1]]))
        assert set(densities.branch_dict(out)) == {(3, 2, 3, 2)}

    def test_add_then_subtract(self):
        rng = np.random.default_rng(9)
        st = random_state(5, 3, rng, support=8)
        coeff = FieldMatrix(F5, [[2], [3]])
        fwd = st.apply_controlled_add([0], [1, 2], coeff)
        back = fwd.apply_controlled_add([0], [1, 2], FieldMatrix(F5, [[-2], [-3]]))
        assert densities.states_allclose(back, st)

    def test_overlap_rejected(self):
        st = SparseState.basis(5, (0, 0))
        with pytest.raises(ValueError, match="overlap"):
            st.apply_controlled_add([0], [0, 1], FieldMatrix(F5, [[0], [0]]))


def full_rank_generator(q: int, rows: int, cols: int, seed: int) -> FieldMatrix:
    """A seeded uniform draw of a rows x cols matrix over F_q, redrawn until
    it has full column rank."""
    rng = np.random.default_rng(seed)
    while True:
        g = FieldMatrix(PrimeField(q), rng.integers(0, q, size=(rows, cols)))
        if g.rank() == cols:
            return g


class TestEncode:
    @settings(max_examples=120, deadline=None)
    @given(
        q=hst.sampled_from([5, 11]),
        t=hst.integers(1, 2),
        e=hst.integers(0, 2),
        extra_rows=hst.integers(0, 2),
        components=hst.integers(1, 3),
        seed=hst.integers(0, 2**32 - 1),
    )
    def test_matches_codeword_enumeration(self, q, t, e, extra_rows, components, seed):
        g = full_rank_generator(q, t + e + extra_rows, t + e, seed)
        rng = np.random.default_rng(seed + 1)
        picks = rng.choice(q**t, size=min(components, q**t), replace=False)
        digits = [tuple(int(p) // q**i % q for i in reversed(range(t))) for p in picks]
        amps = rng.normal(size=len(digits)) + 1j * rng.normal(size=len(digits))
        secret = SparseState.from_branches(q, zip(digits, amps))
        out = secret.encode(g)
        # Oracle: G [x; r] in Python ints, for every component x and every r.
        rows = g.row_tuples()
        expected = {}
        for x, amp in densities.branch_dict(secret).items():
            for r in itertools.product(range(q), repeat=e):
                col = x + r
                label = tuple(sum(a * b for a, b in zip(row, col)) % q for row in rows)
                expected[label] = amp / np.sqrt(q**e)
        # Read first, so the branch count below is the written arrays' own.
        got = densities.branch_dict(out)
        assert out.num_registers == g.rows
        assert out.num_branches == len(expected) == secret.num_branches * q**e
        assert got.keys() == expected.keys()
        assert all(abs(got[k] - expected[k]) <= 1e-15 for k in expected)

    def test_rank_deficient_generator_rejected(self):
        # Two equal randomness columns: r and r + (1, -1) give one codeword.
        g = full_rank_generator(5, 5, 3, seed=3).array.copy()
        g[:, 2] = g[:, 1]
        with pytest.raises(SingularMatrixError, match="rank 2 over F_5, below its 3 columns"):
            SparseState.basis(5, (1,)).encode(FieldMatrix(F5, g))

    def test_table_cached_by_entries(self):
        # The same generator as an array, or as another FieldMatrix object,
        # hits the dealer's cache entry instead of rebuilding and evicting it.
        p = make_params(2, 3, 5)
        secret = default_secret_pairs(p)[0][0]
        qsim._codeword_table.cache_clear()
        dealt = deal(secret, p).state
        assert qsim._codeword_table.cache_info().misses == 1
        g = p.generator
        for generator in (g.array, g.array.tolist(), FieldMatrix(g.field, g.array)):
            assert np.array_equal(secret.encode(generator).labels, dealt.labels)
        deal(secret, p)
        info = qsim._codeword_table.cache_info()
        assert (info.hits, info.misses) == (4, 1)

    @pytest.mark.parametrize("q, e", [(2, 15), (11, 5), (8209, 1), (5, 0)])
    def test_table_blocks_match_one_shot(self, q, e):
        # The table is written one block per row of its high digits; over
        # these fields it has 4, 121, 1 and 1 blocks (8209 rows exceed a
        # block on their own).  Every codeword must match the int64 product.
        t = 1
        g = full_rank_generator(q, t + e + 1, t + e, seed=q + e)
        table = qsim._codeword_table(q, g.array.shape, g.array.tobytes(), t)
        digits = np.array(list(itertools.product(range(q), repeat=e)), dtype=np.int64)
        expected = digits.reshape(q**e, e) @ g.array[:, t:].T % q
        assert table.dtype == (np.uint8 if q <= 251 else np.uint16) and not table.flags.writeable
        assert np.array_equal(table, expected)

    @settings(max_examples=150, deadline=None)
    @given(
        q=hst.sampled_from([2, 5, 131, 257]),
        outer_rows=hst.integers(1, 5),
        inner_rows=hst.integers(1, 7),
        width=hst.integers(0, 3),
        start=hst.integers(0, 34),
        length=hst.integers(1, 35),
    )
    # Starts inside outer row 1 and ends inside outer row 3.
    @example(q=5, outer_rows=4, inner_rows=3, width=2, start=4, length=7)
    def test_sum_rows_matches_int64(self, q, outer_rows, inner_rows, width, start, length):
        rng = np.random.default_rng([q, outer_rows, inner_rows, width])
        outer = rng.integers(0, q, size=(outer_rows, width))
        inner = rng.integers(0, q, size=(inner_rows, width))
        total = outer_rows * inner_rows
        start %= total
        stop = start + 1 + (length - 1) % (total - start)
        # Callers pass outer rows as the floats of ``_mod_matmul``.
        out = np.empty((stop - start, width), dtype=qsim._label_dtype(q))
        first, counts = qsim._sum_rows(outer.astype(np.float32), inner.astype(out.dtype), q, out, start=start)
        expected = (outer[:, None] + inner[None]).reshape(total, width)[start:stop] % q
        assert np.array_equal(out, expected)
        owners = np.arange(start, stop) // inner_rows
        assert first == start // inner_rows
        assert counts == np.bincount(owners - first).tolist()

    def test_shape_and_field_checked(self):
        st = SparseState.basis(5, (1, 2))
        with pytest.raises(ValueError, match="fewer than the 2 registers"):
            st.encode(FieldMatrix(F5, [[1]]))
        with pytest.raises(ValueError, match="over F_7"):
            st.encode(FieldMatrix(PrimeField(7), [[1, 0], [0, 1]]))
        with pytest.raises(ValueError, match="two-dimensional"):
            st.encode([1, 0, 0, 1])


def assert_same_reduction(got: DensityMatrix, want: DensityMatrix) -> None:
    """The two reduced states' parts are equal, bit for bit."""
    assert (got.q, got.num_registers) == (want.q, want.num_registers)
    for mine, theirs in (
        (got.diagonal, want.diagonal),
        (got.occupied, want.occupied),
        (got.coherences, want.coherences),
    ):
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)


def written_out(state: SparseState) -> SparseState:
    """``state`` after a read of its labels, which writes an encoded state
    out; its traces then take the stored path."""
    assert state.labels is state.labels
    return state


class TestEncodedTrace:
    """The streamed ``partial_trace`` of an encoded state, never written out,
    against the trace of the same state written out."""

    @settings(max_examples=60, deadline=None)
    @given(
        q=hst.sampled_from([5, 11, 257, Q_WIDE]),
        t=hst.integers(1, 2),
        e=hst.integers(0, 2),
        extra_rows=hst.integers(0, 4),
        components=hst.integers(1, 4),
        kept=hst.integers(0, 3),
        chunk=hst.sampled_from([3, 64, qsim._CHUNK_ROWS]),
        seed=hst.integers(0, 2**32 - 1),
    )
    # Every register kept: one group of all branches, so coherences.
    @example(q=5, t=2, e=1, extra_rows=0, components=3, kept=3, chunk=3, seed=1)
    # uint16 labels, four components of 257 branches in one block.
    @example(q=257, t=1, e=1, extra_rows=2, components=4, kept=1, chunk=qsim._CHUNK_ROWS, seed=2)
    # Five discarded registers of F_2039 need 55 bits, too wide to pack;
    # components of 2039 branches end inside blocks of 64.
    @example(q=Q_WIDE, t=1, e=1, extra_rows=4, components=3, kept=1, chunk=64, seed=3)
    def test_bit_identical_to_the_written_state(self, q, t, e, extra_rows, components, kept, chunk, seed):
        e = e if q <= 11 else min(e, 1)
        g = full_rank_generator(q, t + e + extra_rows, t + e, seed)
        rng = np.random.default_rng(seed + 1)
        picks = rng.choice(q**t, size=min(components, q**t), replace=False)
        amps = rng.normal(size=len(picks)) + 1j * rng.normal(size=len(picks))
        secret = SparseState(q, qsim._digit_rows(picks, q, t), amps)
        kept = min(kept, g.rows)
        while q**kept > qsim.DEFAULT_DIM_CAP:
            kept -= 1
        keep = rng.permutation(g.rows)[:kept].tolist()
        with mock.patch.object(qsim, "_CHUNK_ROWS", chunk):
            want = written_out(secret.encode(g)).partial_trace(keep)
            got = secret.encode(g).partial_trace(keep)
        assert_same_reduction(got, want)

    @pytest.mark.parametrize(
        "scheme, shares, pairs",
        [
            (make_params(2, 3, 5), [1], slice(None)),
            (make_params(2, 3, 5), [2, 3], slice(None)),
            (Leaky(2, 3, 5), [1], slice(None)),
            (make_params(2, 2, 257), [2], slice(None)),
            (make_params(4, 5, 11), [3], slice(1, None)),
        ],
        ids=["unauthorized", "authorized", "leaky", "uint16", "4-5-11-superposition"],
    )
    def test_dealt_bit_identical(self, scheme, shares, pairs):
        # Basis and superposition secrets; on an authorized set and on the
        # leaky share the superposition's reduced state has coherences.
        # (4,5,11) has 1,771,561 = 216 * 8192 + 2089 branches per component,
        # so its second component starts inside a block.
        regs = [r for i in shares for r in scheme.registers_of(i)]
        coherent = 0
        for secret in itertools.chain.from_iterable(default_secret_pairs(scheme)[pairs]):
            want = written_out(secret.encode(scheme.generator)).partial_trace(regs)
            assert_same_reduction(secret.encode(scheme.generator).partial_trace(regs), want)
            coherent += want.coherences.size > 0
        assert coherent == (2 if shares == [2, 3] or isinstance(scheme, Leaky) else 0)

    def test_checks(self):
        p = make_params(2, 3, 5)
        secret = basis_secret(p, (1, 0))
        with pytest.raises(ValueError, match="over F_7"):
            secret.encode(FieldMatrix(PrimeField(7), np.eye(4, dtype=np.int64)))
        with pytest.raises(ValueError, match="fewer than the 2 registers"):
            secret.encode(FieldMatrix(F5, [[1]])).partial_trace([0])
        with pytest.raises(IndexError, match="out of range 0..5"):
            secret.encode(p.generator).partial_trace([6])
        with pytest.raises(DimensionCapError, match="exceeds the cap 24"):
            secret.encode(p.generator).partial_trace([0, 1], dim_cap=24)
        with pytest.raises(SingularMatrixError, match="codewords would collide"):
            secret.encode(Collapsed(2, 3, 5).generator).partial_trace([0])


# Fields at the edges of the label widths: byte labels whose sums fit a byte
# (2, 127), byte labels summed in 16 bits (131, 251) and uint16 labels (257).
LABEL_WIDTHS = [(2, np.uint8), (127, np.uint8), (131, np.uint8), (251, np.uint8), (257, np.uint16)]


class TestLabelWidths:
    @pytest.mark.parametrize("q, dtype", LABEL_WIDTHS)
    def test_narrowest_type_holds_every_digit(self, q, dtype):
        st = SparseState.basis(q, (q - 1,))
        assert st.labels.dtype == dtype and st.labels.tolist() == [[q - 1]]
        with pytest.raises(ValueError, match="lie in"):
            SparseState.basis(q, (q,))
        g = full_rank_generator(q, 3, 2, seed=q)
        table = qsim._codeword_table(q, g.array.shape, g.array.tobytes(), 1)
        assert table.dtype == dtype
        dealt = st.encode(g)
        assert dealt.labels.dtype == dtype
        assert dealt.apply_affine([0, 2], full_rank_generator(q, 2, 2, seed=q)).labels.dtype == dtype

    @pytest.mark.parametrize("q, dtype", LABEL_WIDTHS)
    def test_mod_add_exact_for_every_pair(self, q, dtype):
        # Row i holds the residue i in every column, and column j adds j.
        labels = np.repeat(np.arange(q, dtype=dtype)[:, None], q, axis=1)
        out = np.empty_like(labels)
        qsim._mod_add(labels, np.arange(q), q, out=out)
        i, j = np.indices((q, q))
        assert np.array_equal(out, (i + j) % q)

    @pytest.mark.parametrize("q", [131, 251])
    def test_encode_relabel_trace_match_int64(self, q):
        # Byte labels whose sums need 16 bits.  Registers 1..3 hold an
        # invertible image of (x, r), before and after an invertible linear
        # map on them, so every discarded-digit group of a trace keeping
        # register 0 is one branch, as the int64 oracle requires.
        seed = q
        while True:
            g = full_rank_generator(q, 4, 3, seed)
            if FieldMatrix(PrimeField(q), g.array[1:]).rank() == 3:
                break
            seed += 1
        secret = SparseState.from_branches(q, [((3,), 0.6), ((q - 1,), 0.8j)])
        dealt = secret.encode(g)
        r = np.array(list(itertools.product(range(q), repeat=2)), dtype=np.int64)
        expected = np.concatenate([(x * g.array[:, 0] + r @ g.array[:, 1:].T) % q for x in (3, q - 1)])
        assert np.array_equal(dealt.labels, expected)
        targets = [3, 1, 2]
        a = full_rank_generator(q, 3, 3, seed=q + 1)
        out = dealt.apply_affine(targets, a)
        assert np.array_equal(out.labels[:, targets], (expected[:, targets] @ a.array.T) % q)
        assert np.array_equal(out.labels[:, 0], expected[:, 0])
        for st in (dealt, out):
            rho = st.partial_trace([0])
            assert_diagonal_reference(rho.matrix, reference_partial_trace(st, [0]))


class TestPartialTrace:
    def test_keep_all_is_projector(self):
        st = random_state(3, 2, np.random.default_rng(2), support=4)
        rho = st.partial_trace([0, 1])
        assert abs(rho.purity() - 1.0) < 1e-12
        assert fidelity(rho, st) == pytest.approx(1.0, abs=1e-12)

    def test_correlated_pair_maximally_mixed(self):
        st = SparseState.from_branches(5, [((i, i), 1.0) for i in range(5)])
        rho = st.partial_trace([0])
        assert densities.allclose(rho, densities.density(5, 1, np.eye(5) / 5), tol=1e-12)

    def test_against_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            st = random_small_state(rng)
            t = st.num_registers
            size = int(rng.integers(0, t + 1))
            keep = list(rng.choice(t, size=size, replace=False))
            rho = st.partial_trace(keep)
            expected = dense_partial_trace(st, keep)
            assert np.allclose(rho.matrix, expected, atol=1e-12)

    def test_keep_order_respected(self):
        st = SparseState.basis(3, (1, 2))
        a = st.partial_trace([0, 1]).matrix
        b = st.partial_trace([1, 0]).matrix
        assert a[1 * 3 + 2, 1 * 3 + 2] == pytest.approx(1.0)
        assert b[2 * 3 + 1, 2 * 3 + 1] == pytest.approx(1.0)

    def test_composition_consistency(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            st = random_small_state(rng)
            t = st.num_registers
            size = int(rng.integers(1, t + 1))
            outer = sorted(rng.choice(t, size=size, replace=False))
            inner_size = int(rng.integers(0, size + 1))
            inner_pos = sorted(rng.choice(size, size=inner_size, replace=False))
            via = densities.partial_trace(st.partial_trace(outer), inner_pos)
            direct = st.partial_trace([outer[i] for i in inner_pos])
            assert densities.allclose(via, direct, tol=1e-10)

    def test_schmidt_spectrum_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            st = random_small_state(rng)
            t = st.num_registers
            if t < 2:
                continue
            cut = int(rng.integers(1, t))
            left = densities.eigenvalues(st.partial_trace(range(cut)))
            right = densities.eigenvalues(st.partial_trace(range(cut, t)))
            la = np.sort(left[left > 1e-10])
            rb = np.sort(right[right > 1e-10])
            assert la.shape == rb.shape
            assert np.allclose(la, rb, atol=1e-10)

    def test_wider_than_one_chunk(self):
        # 70 000 branches over 3**11 labels: many chunks of the label pass,
        # and discarded-digit groups of one and of several branches.
        st = random_state(3, 11, np.random.default_rng(31), support=70_000)
        keep = [7, 2]
        rho = st.partial_trace(keep)
        assert np.allclose(rho.matrix, dense_partial_trace(st, keep), atol=1e-12)

    def test_index_first_occupied_past_one_chunk(self):
        # 5000 groups of two with kept digits {0, 1}, then one with {1, 2}:
        # in sorted order, kept index 2 first appears past the first block
        # of multi-group branches.
        q, rest = 3, 9
        rows = []
        for key in range(5001):
            digits = [key // q**i % q for i in reversed(range(rest))]
            rows += [[kept] + digits for kept in ((0, 1) if key < 5000 else (1, 2))]
        rng = np.random.default_rng(41)
        amps = rng.normal(size=len(rows)) + 1j * rng.normal(size=len(rows))
        st = SparseState(q, np.array(rows), amps)
        assert st.num_branches > qsim._CHUNK_ROWS
        rho = st.partial_trace([0])
        assert rho.occupied.tolist() == [0, 1, 2]
        assert np.allclose(rho.matrix, dense_partial_trace(st, [0]), atol=1e-12)

    @pytest.mark.parametrize("registers", [6, 7])
    def test_wide_discarded_keys(self, registers):
        # 5 or 6 discarded registers of F_2039 need 55 or 66 bits, past the
        # float key: their label columns are sorted instead.  Discarded
        # digits from {0, 1, 2038} make groups share every column but one.
        rng = np.random.default_rng(37 + registers)
        keep = [registers // 2]
        groups = [1, 3, 1, 2, 1, 4, 1, 2, 1, 1]
        st = grouped_state(Q_WIDE, registers, keep, groups, rng, rest_digits=(0, 1, Q_WIDE - 1))
        rho = st.partial_trace(keep)
        assert np.allclose(rho.matrix, dense_partial_trace(st, keep), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        q=hst.sampled_from([2, 3, 5, 7]),
        registers=hst.integers(2, 5),
        groups=hst.lists(hst.integers(1, 4), min_size=1, max_size=12),
    )
    def test_singleton_and_multi_groups(self, seed, q, registers, groups):
        rng = np.random.default_rng(seed)
        keep = [int(r) for r in rng.permutation(registers)[: int(rng.integers(1, registers))]]
        groups = [min(g, q ** len(keep)) for g in groups][: q ** (registers - len(keep))]
        st = grouped_state(q, registers, keep, groups, rng)
        rho = st.partial_trace(keep)
        assert np.allclose(rho.matrix, dense_partial_trace(st, keep), atol=1e-12)

    @pytest.mark.parametrize(
        "params, shares",
        [((4, 5, 11), [3]), ((3, 4, 7), [1, 2])],
        ids=["4-5-11-share", "3-4-7-pair"],
    )
    def test_dealt_subset_bit_identical_to_reference(self, params, shares):
        # Dealt states put every branch in a group of its own.
        p = make_params(*params)
        st = deal(default_secret_pairs(p)[1][0], p).state
        regs = [r for i in shares for r in p.registers_of(i)]
        assert_diagonal_reference(st.partial_trace(regs).matrix, reference_partial_trace(st, regs))

    @pytest.mark.parametrize(
        "params, shares",
        [((2, 3, 5), [1]), ((2, 3, 5), [3]), ((3, 4, 7), [2]), ((3, 4, 7), [1, 2]), ((3, 4, 7), [3, 5])],
    )
    def test_dealt_unauthorized_subset_stored_as_diagonal(self, params, shares, monkeypatch):
        # The discarded shares fix every branch of a dealt state, so the
        # reduced state has no coherences and no dense matrix is read.
        p = make_params(*params)
        regs = [r for i in shares for r in p.registers_of(i)]
        for pair in default_secret_pairs(p):
            for secret in pair:
                st = deal(secret, p).state
                with monkeypatch.context() as patch:
                    densities.forbid_dense(patch)
                    rho = st.partial_trace(regs)
                assert rho.coherences.size == 0
                assert rho.diagonal.dtype == np.float64 and not rho.diagonal.flags.writeable
                dense = rho.matrix
                assert_diagonal_reference(dense, reference_partial_trace(st, regs))
                assert dense.dtype == np.complex128 and not dense.flags.writeable

    def test_recovered_secret_block_matches_dense_oracle(self):
        # After recovery every discarded-digit group holds one branch per
        # secret component, so the whole state goes through the dense blocks.
        p = make_params(3, 4, 7)
        res = recover_from_k(deal(default_secret_pairs(p)[1][1], p), [1, 3, 5])
        regs = list(res.secret_registers)
        rho = res.state.partial_trace(regs).matrix
        assert np.count_nonzero(rho - np.diag(np.diag(rho))) > 0
        assert np.abs(rho - dense_partial_trace(res.state, regs)).max() <= 1e-14

    def test_recovered_4_5_11_block_is_the_secret_projector(self, recovered_4_5_11):
        # 1.77 M discarded-digit groups of two branches each: the block sum
        # must not drift from |s><s| as the group count grows.
        secret, res = recovered_4_5_11
        regs = list(res.secret_registers)
        rho = res.state.partial_trace(regs).matrix
        vec = np.zeros(11**2, dtype=np.complex128)
        vec[[1 * 11 + 2, 7 * 11 + 3]] = secret.amps
        assert np.abs(rho - np.outer(vec, vec.conj())).max() <= 1e-14

    def test_recovered_4_5_11_coherences_on_two_indices(self, recovered_4_5_11, monkeypatch):
        # The secret's two components sit at kept indices 1*11+2 and 7*11+3:
        # its coherences are one 2 x 2 block, and tracing, fidelity and
        # purity build no 121 x 121 matrix.
        secret, res = recovered_4_5_11
        densities.forbid_dense(monkeypatch)
        rho = res.state.partial_trace(res.secret_registers)
        assert rho.occupied.tolist() == [13, 80]
        assert rho.coherences.shape == (2, 2)
        assert abs(fidelity(rho, secret) - 1.0) <= 1e-14
        assert abs(rho.purity() - 1.0) <= 1e-14

    def test_recovered_4_5_11_basis_block_sums_exactly(self):
        # 1.77 M groups of one branch, every one on the same kept index: a
        # bincount that summed their equal weights one after another left
        # trace and purity 1.7e-11 and 3.4e-11 below 1.
        p = make_params(4, 5, 11)
        res = recover_from_k(deal(basis_secret(p, (1, 2)), p), [1, 2, 3, 4])
        rho = res.state.partial_trace(res.secret_registers)
        assert rho.coherences.size == 0
        assert abs(np.sum(rho.diagonal) - 1.0) <= 1e-13
        assert abs(rho.purity() - 1.0) <= 1e-13

    def test_broad_support_small_groups(self):
        # About 2000 branches in pairs over 625 kept indices: many groups,
        # each occupying its own indices, so u is far above the group size.
        rng = np.random.default_rng(47)
        keep = [0, 2, 4, 5]
        st = grouped_state(5, 9, keep, [2] * 1000, rng)
        rho = st.partial_trace(keep)
        assert rho.coherences.size
        assert np.abs(rho.matrix - dense_partial_trace(st, keep)).max() <= 1e-14

    @pytest.mark.parametrize("groups", ["singletons", "multi"])
    @pytest.mark.parametrize("branches, packs", [(4096, True), (4097, False)], ids=["64-bit", "65-bit"])
    def test_packed_key_width_edge(self, branches, packs, groups):
        # 22 discarded registers of F_5 have 52-bit keys.  4096 branches need
        # 12 index bits, 64 in all: one packed sort.  4097 need 13, 65 in
        # all: the discarded columns are lexsorted.  Reversing the registers
        # leaves the branches out of key order.
        keep = [3, 17]
        assert (5**22 - 1).bit_length() == 52 and qsim._packs(5, 22, branches) == packs
        sizes = [1] * branches if groups == "singletons" else [5] * (branches // 5) + [branches % 5]
        st = grouped_state(5, 24, keep, sizes, np.random.default_rng(branches))
        st = st.apply_affine(range(24), np.eye(24, dtype=np.int64)[::-1])
        keep = [23 - r for r in keep]
        assert st.num_branches == branches
        rho = st.partial_trace(keep).matrix
        assert (np.count_nonzero(rho - np.diag(np.diag(rho))) > 0) == (groups == "multi")
        if groups == "multi":
            assert np.abs(rho - dense_partial_trace(st, keep)).max() <= 1e-14
        else:
            assert_diagonal_reference(rho, reference_partial_trace(st, keep))

    def test_dimension_cap(self):
        st = SparseState.basis(7, (0,) * 5)
        with pytest.raises(DimensionCapError):
            st.partial_trace([0, 1, 2, 3, 4], dim_cap=4096)

    def test_empty_keep(self):
        st = random_state(3, 2, np.random.default_rng(23), support=5)
        rho = st.partial_trace([])
        assert rho.matrix.shape == (1, 1)
        assert rho.diagonal.tolist() == pytest.approx([1.0])


# Each entry point that takes register indices, called with a float index.
FLOAT_INDEX_CALLS = {
    "partial_trace": lambda st: st.partial_trace([1.5]),
    "apply_affine": lambda st: st.apply_affine([0.7], [[2]]),
    "apply_controlled_add": lambda st: st.apply_controlled_add([0.0], [1], [[1]]),
    "factor_check": lambda st: factor_check(st, [1.0], SparseState.basis(5, (2,))),
    "encoded.partial_trace": lambda st: st.encode([[1, 0], [0, 1], [1, 1]]).partial_trace([1.5]),
}


class TestRegisterIndices:
    @pytest.mark.parametrize("call", FLOAT_INDEX_CALLS.values(), ids=FLOAT_INDEX_CALLS.keys())
    def test_float_index_rejected_not_truncated(self, call):
        # int(1.5) would trace register 1, and int(0.7) relabel register 0.
        with pytest.raises(TypeError, match="integer"):
            call(SparseState.basis(5, (1, 2)))

    def test_numpy_integers_accepted(self):
        st = random_state(5, 3, np.random.default_rng(5), support=6)
        assert_same_reduction(st.partial_trace(np.array([2, 0])), st.partial_trace([2, 0]))
        relabeled = st.apply_affine(np.array([1], dtype=np.uint8), [[2]])
        assert np.array_equal(relabeled.labels, st.apply_affine([1], [[2]]).labels)
        assert factor_check(st.apply_affine([0], [[1]]), [np.int64(0), np.int64(1), np.int64(2)], st)


class TestDensityMatrix:
    def test_validation(self):
        # partial_trace is the one constructor; its parts are checked for
        # unit trace within NORM_TOL per index, and NaN never passes.
        with pytest.raises(TypeError):
            DensityMatrix(2, 1, np.eye(2) / 2)
        densities.density(3, 4, np.eye(81) / 81 + np.diag([0.8e-12 * 81] + [0.0] * 80))
        with pytest.raises(ValueError, match="trace"):
            densities.density(3, 4, np.eye(81) / 81 + np.diag([1.2e-12 * 81] + [0.0] * 80))
        with pytest.raises(ValueError, match="trace"):
            densities.density(2, 1, np.eye(2))
        with pytest.raises(ValueError, match="trace"):
            densities.density(2, 1, np.diag([np.nan, 0.5]))

    @pytest.mark.parametrize("params, shares", [((2, 3, 5), [2]), ((3, 4, 7), [1, 2])])
    def test_diagonal_state_reads_its_diagonal(self, params, shares, monkeypatch):
        # purity and fidelity of a diagonal state read no dense matrix
        # (268 MB at dim 4096), and agree with every index occupied.
        p = make_params(*params)
        regs = [r for i in shares for r in p.registers_of(i)]
        rho = deal(default_secret_pairs(p)[1][0], p).state.partial_trace(regs)
        psi = random_state(p.q, len(regs), np.random.default_rng(5), support=7)
        with monkeypatch.context() as patch:
            densities.forbid_dense(patch)
            values = (rho.purity(), fidelity(rho, psi))
        dense = densities.density(p.q, len(regs), rho.matrix)
        assert dense.coherences.shape == (dense.dim, dense.dim)
        expected = (dense.purity(), fidelity(dense, psi))
        assert values == pytest.approx(expected, rel=1e-15, abs=0)

    def test_psd_check_on_eigenvalues(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        rho = densities.density(2, 1, bad)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            densities.eigenvalues(rho)

    def test_nested_partial_trace_reorder(self):
        st = SparseState.basis(3, (0, 1, 2))
        rho = st.partial_trace([0, 1, 2])
        sub = densities.partial_trace(rho, [2, 0])
        assert sub.matrix[2 * 3 + 0, 2 * 3 + 0] == pytest.approx(1.0)


class TestDistances:
    def test_fidelity_projector(self):
        st = random_state(3, 2, np.random.default_rng(3), support=6)
        assert fidelity(st.partial_trace([0, 1]), st) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_self(self):
        st = random_state(3, 2, np.random.default_rng(4), support=6)
        rho = st.partial_trace([0, 1])
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_orthogonal(self):
        a = SparseState.basis(2, (0,)).partial_trace([0])
        b = SparseState.basis(2, (1,)).partial_trace([0])
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "params, shares, pairs",
        [((2, 3, 5), [], 2), ((2, 3, 5), [2], 2), ((3, 4, 7), [1, 2], 1), ((4, 5, 11), [3], 2)],
        ids=["dim-1", "2-3-5-share", "3-4-7-pair", "4-5-11-share"],
    )
    def test_dealt_diagonal_pair_bit_identical_to_dense_path(self, params, shares, pairs):
        # The dense side of a dim-2401 pair is a whole eigensolve of seconds,
        # so the (3,4,7) pair subset compares its random pair alone.
        p = make_params(*params)
        regs = [r for i in shares for r in p.registers_of(i)]
        for pair in default_secret_pairs(p)[-pairs:]:
            rho, sigma = (deal(s, p).state.partial_trace(regs) for s in pair)
            assert rho.coherences.size == 0 and sigma.coherences.size == 0
            dense = [densities.density(p.q, len(regs), x.matrix) for x in (rho, sigma)]
            assert trace_distance(rho, sigma) == trace_distance(*dense)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=hst.integers(0, 2**32 - 1),
        q=hst.sampled_from([2, 3, 5, 7]),
        registers=hst.integers(1, 3),
    )
    def test_diagonal_pair_bit_identical_to_dense_path(self, seed, q, registers):
        # Two random diagonal states: every discarded-digit group is a
        # singleton, and kept digits repeat across groups.
        rng = np.random.default_rng(seed)
        keep = list(range(registers))
        rho, sigma = (
            grouped_state(q, registers + 2, keep, [1] * int(rng.integers(1, q**2 + 1)), rng)
            .partial_trace(keep)
            for _ in range(2)
        )
        assert rho.coherences.size == 0 and sigma.coherences.size == 0
        dense = [densities.density(q, registers, x.matrix) for x in (rho, sigma)]
        assert trace_distance(rho, sigma) == trace_distance(*dense)

    def test_coherent_against_diagonal_reads_no_matrix(self, monkeypatch):
        # Only one state has coherences, on some of the kept indices: the
        # difference is one block on those and diagonal elsewhere.  Both
        # states spread over most kept indices, so the distance is below 1.
        rng = np.random.default_rng(43)
        keep = [0, 1]
        diag = grouped_state(5, 5, keep, [1] * 60, rng).partial_trace(keep)
        coherent = grouped_state(5, 5, keep, [3, 1, 2] + [1] * 40, rng).partial_trace(keep)
        assert diag.coherences.size == 0 and 0 < len(coherent.occupied) < coherent.dim
        pairs = [(diag, coherent), (coherent, diag)]
        expected = [densities.trace_distance(*pair) for pair in pairs]
        densities.forbid_dense(monkeypatch)
        for pair, want in zip(pairs, expected):
            assert abs(trace_distance(*pair) - want) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_occupied_sets_differ(self, seed, monkeypatch):
        # Both states have coherences, on different proper subsets of the
        # kept indices, and their union leaves some indices out.
        rng = np.random.default_rng(seed)
        keep = [0, 2, 3]
        rho, sigma = (grouped_state(3, 6, keep, [4, 1, 3, 2, 1], rng).partial_trace(keep) for _ in range(2))
        union = np.union1d(rho.occupied, sigma.occupied)
        assert not np.array_equal(rho.occupied, sigma.occupied)
        assert max(len(rho.occupied), len(sigma.occupied)) < len(union) < rho.dim
        expected = densities.trace_distance(rho, sigma)
        densities.forbid_dense(monkeypatch)
        assert abs(trace_distance(rho, sigma) - expected) <= 1e-12

    def test_dense_difference_is_one_eigensolve(self):
        # Multi-branch groups of several sizes make both reduced states dense.
        rng = np.random.default_rng(41)
        keep = [0, 1, 2]
        rho, sigma = (grouped_state(3, 5, keep, [4, 1, 3, 2, 6], rng).partial_trace(keep) for _ in range(2))
        assert rho.coherences.size and sigma.coherences.size
        expected = float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.matrix - sigma.matrix))))
        assert trace_distance(rho, sigma) == expected

    def test_dimension_mismatch(self):
        a = densities.density(2, 1, np.eye(2) / 2)
        b = densities.density(2, 2, np.eye(4) / 4)
        with pytest.raises(ValueError, match="different registers"):
            trace_distance(a, b)
        with pytest.raises(ValueError, match="different registers"):
            fidelity(a, SparseState.basis(2, (0, 0)))


class TestFactorCheck:
    def test_tensor_product_true(self):
        rng = np.random.default_rng(8)
        a = random_state(3, 1, rng)
        b = random_state(3, 2, rng, support=4)
        st = SparseState.from_branches(
            3,
            [
                ((*la, *lb), x * y)
                for la, x in zip(a.labels, a.amps)
                for lb, y in zip(b.labels, b.amps)
            ],
        )
        assert factor_check(st, [0], a)
        assert factor_check(st, [1, 2], b)

    def test_entangled_false(self):
        st = SparseState.from_branches(3, [((0, 0), 1.0), ((1, 1), 1.0)])
        ref = superpose([(SparseState.basis(3, (0,)), 1.0), (SparseState.basis(3, (1,)), 1.0)])
        assert not factor_check(st, [0], ref)

    def test_wrong_reference_false(self):
        st = SparseState.basis(3, (0, 1, 2))
        assert not factor_check(st, [0], SparseState.basis(3, (1,)))


class TestDump:
    def test_golden_three_branch(self):
        w = 1.0 / np.sqrt(3.0)
        st = SparseState.from_branches(
            3, [((2, 0, 1), w), ((0, 1, 2), w), ((1, 2, 0), w)]
        )
        amp = repr(float(w))
        assert st.dump().splitlines() == [
            f"012 : {amp},0.0",
            f"120 : {amp},0.0",
            f"201 : {amp},0.0",
        ]

    def test_large_q_separator(self):
        st = SparseState.basis(11, (10, 0))
        assert st.dump() == "10,0 : 1.0,0.0"


class TestRandomState:
    def test_deterministic_given_seed(self):
        a = random_state(5, 2, np.random.Generator(np.random.Philox(99)))
        b = random_state(5, 2, np.random.Generator(np.random.Philox(99)))
        assert densities.states_allclose(a, b, tol=0.0)

    def test_support_restriction(self):
        st = random_state(5, 2, np.random.default_rng(0), support=3)
        assert st.num_branches == 3

    def test_normalized(self):
        st = random_state(7, 2, np.random.default_rng(1))
        assert abs(st.norm_sq - 1.0) < 1e-12

    def test_label_space_past_int64_rejected(self):
        # 65521**4 and 65521**6 basis labels reach 2**63; 65521**3 does not.
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            random_state(65521, 4, rng, support=3)
        with pytest.raises(ValueError, match="2\\*\\*63"):
            random_state(65521, 6, rng, support=24581)
        assert random_state(65521, 3, rng, support=3).num_branches == 3

    def test_register_count_checked_before_any_draw(self):
        # 5**-1 is the float 0.2, which numpy would reject with an unrelated error.
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="register count must be non-negative, got -1"):
            random_state(5, -1, rng)
        with pytest.raises(TypeError, match="integer"):
            random_state(5, 1.5, rng)
        assert rng.bit_generator.state == before
        assert random_state(5, np.int64(2), rng).num_registers == 2
