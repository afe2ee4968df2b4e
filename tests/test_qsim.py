"""Sparse simulator tests.

The partial trace is cross-checked against an independent dense oracle
(build the full state vector, reshape, contract with einsum); relabeling
operations are checked for exact norm preservation and round-trip identity.
"""

import itertools

import numpy as np
import pytest

from qtss.gf import FieldMatrix, FieldVector, PrimeField, SingularMatrixError
from qtss.qsim import (
    DensityMatrix,
    DimensionCapError,
    EmptyStateError,
    SparseState,
    factor_check,
    fidelity,
    random_state,
    superpose,
    tensor,
    trace_distance,
)

F5 = PrimeField(5)


def dense_vector(state: SparseState) -> np.ndarray:
    """Independent dense representation (big-endian digit order)."""
    vec = np.zeros(state.q**state.num_registers, dtype=np.complex128)
    for row, amp in zip(state.labels, state.amps):
        idx = 0
        for d in row:
            idx = idx * state.q + int(d)
        vec[idx] += amp
    return vec


def dense_partial_trace(state: SparseState, keep) -> np.ndarray:
    """Oracle: rho = Tr_rest |psi><psi| via explicit tensor contraction."""
    t = state.num_registers
    vec = dense_vector(state).reshape((state.q,) * t)
    keep = list(keep)
    rest = [r for r in range(t) if r not in keep]
    perm = keep + rest
    moved = np.transpose(vec, perm)
    a = moved.reshape(state.q ** len(keep), state.q ** len(rest))
    return a @ a.conj().T


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

    def test_large_field_digits_kept_exact(self):
        # Digits above 2**15 must survive the label dtype unchanged.
        st = SparseState.basis(40009, (40000,))
        assert st.branch_dict() == {(40000,): 1.0}
        out = st.apply_affine([0], FieldMatrix(PrimeField(40009), 1, 1, (2,)))
        assert out.branch_dict() == {(39991,): 1.0}  # 80000 mod 40009
        with pytest.raises(ValueError, match="lie in"):
            SparseState.basis(40009, (40009,))

    def test_norm_invariant(self):
        rng = np.random.default_rng(5)
        st = SparseState.from_branches(
            5, [((int(a), int(b)), complex(x, y)) for (a, b), (x, y) in
                zip(rng.integers(0, 5, (8, 2)), rng.normal(size=(8, 2)))]
        )
        assert abs(st.norm_sq - 1.0) < 1e-12

    def test_immutability(self):
        st = SparseState.basis(5, (1,))
        with pytest.raises(ValueError):
            st.labels[0, 0] = 2
        with pytest.raises(ValueError):
            st.amps[0] = 0.0


class TestSuperpose:
    def test_single(self):
        a = SparseState.basis(3, (0,))
        assert superpose([(a, 1.0)]).allclose(a)

    def test_two_branch_uniform(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        st = superpose([(a, 1 / np.sqrt(2)), (b, 1 / np.sqrt(2))])
        assert st.num_branches == 2
        assert np.allclose(np.abs(st.amps), 1 / np.sqrt(2))

    def test_zero_coefficient_dropped(self):
        a, b = SparseState.basis(3, (0,)), SparseState.basis(3, (1,))
        assert superpose([(a, 1.0), (b, 0.0)]).allclose(a)

    def test_register_mismatch(self):
        with pytest.raises(ValueError, match="register counts"):
            superpose([(SparseState.basis(3, (0,)), 1.0), (SparseState.basis(3, (0, 0)), 1.0)])

    def test_full_cancellation(self):
        a = SparseState.basis(3, (0,))
        with pytest.raises(EmptyStateError):
            superpose([(a, 1.0), (a, -1.0)])


class TestAffine:
    def test_identity_noop(self):
        st = random_state(5, 3, np.random.default_rng(0), support=6)
        out = st.apply_affine([0, 1, 2], FieldMatrix.identity(F5, 3))
        assert out.allclose(st)

    def test_single_register_scale(self):
        st = SparseState.basis(5, (3,))
        out = st.apply_affine([0], FieldMatrix(F5, 1, 1, (2,)))
        assert out.branch_dict() == {(1,): 1.0}  # 2*3 = 6 = 1 mod 5

    def test_offset(self):
        st = SparseState.basis(5, (0, 4))
        out = st.apply_affine([0, 1], FieldMatrix.identity(F5, 2), offset=(1, 2))
        assert set(out.branch_dict()) == {(1, 1)}

    def test_round_trip(self):
        rng = np.random.default_rng(42)
        st = random_state(5, 3, rng, support=10)
        a = FieldMatrix.from_rows(F5, [[2, 1], [1, 1]])
        b = (3, 4)
        a_inv = a.inverse()
        back_offset = [-x % 5 for x in a_inv @ FieldVector(F5, b)]
        fwd = st.apply_affine([0, 2], a, offset=b)
        assert not fwd.allclose(st)
        assert fwd.apply_affine([0, 2], a_inv, offset=back_offset).allclose(st)

    def test_singular_rejected(self):
        st = SparseState.basis(5, (0, 0))
        with pytest.raises(SingularMatrixError):
            st.apply_affine([0, 1], FieldMatrix.from_rows(F5, [[1, 1], [2, 2]]))

    def test_norm_preserved_exactly(self):
        rng = np.random.default_rng(3)
        st = random_state(5, 2, rng, support=9)
        out = st.apply_affine([0, 1], FieldMatrix.from_rows(F5, [[1, 2], [0, 1]]))
        assert sorted(np.abs(st.amps)) == pytest.approx(sorted(np.abs(out.amps)), abs=0)
        assert out.num_branches == st.num_branches

    def test_register_out_of_range(self):
        st = SparseState.basis(5, (0,))
        with pytest.raises(IndexError):
            st.apply_affine([1], FieldMatrix.identity(F5, 1))


class TestControlledAdd:
    def test_zero_coeff_noop(self):
        st = random_state(3, 3, np.random.default_rng(1), support=5)
        out = st.apply_controlled_add([0], [1, 2], FieldMatrix.zeros(PrimeField(3), 2, 1))
        assert out.allclose(st)

    def test_copy_classical_digits(self):
        st = SparseState.basis(5, (3, 2, 0, 0))
        out = st.apply_controlled_add([0, 1], [2, 3], FieldMatrix.identity(F5, 2))
        assert set(out.branch_dict()) == {(3, 2, 3, 2)}

    def test_add_then_subtract(self):
        rng = np.random.default_rng(9)
        st = random_state(5, 3, rng, support=8)
        coeff = FieldMatrix.from_rows(F5, [[2], [3]])
        fwd = st.apply_controlled_add([0], [1, 2], coeff)
        back = fwd.apply_controlled_add([0], [1, 2], -coeff)
        assert back.allclose(st)

    def test_overlap_rejected(self):
        st = SparseState.basis(5, (0, 0))
        with pytest.raises(ValueError, match="overlap"):
            st.apply_controlled_add([0], [0, 1], FieldMatrix.zeros(F5, 2, 1))


class TestPartialTrace:
    def test_keep_all_is_projector(self):
        st = random_state(3, 2, np.random.default_rng(2), support=4)
        rho = st.partial_trace([0, 1])
        assert abs(rho.purity() - 1.0) < 1e-12
        assert fidelity(rho, st) == pytest.approx(1.0, abs=1e-12)

    def test_correlated_pair_maximally_mixed(self):
        st = SparseState.from_branches(5, [((i, i), 1.0) for i in range(5)])
        rho = st.partial_trace([0])
        assert rho.allclose(DensityMatrix.maximally_mixed(5, 1), tol=1e-12)

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
            via = st.partial_trace(outer).partial_trace(inner_pos)
            direct = st.partial_trace([outer[i] for i in inner_pos])
            assert via.allclose(direct, tol=1e-10)

    def test_schmidt_spectrum_symmetry(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            st = random_small_state(rng)
            t = st.num_registers
            if t < 2:
                continue
            cut = int(rng.integers(1, t))
            left = st.partial_trace(range(cut)).eigenvalues()
            right = st.partial_trace(range(cut, t)).eigenvalues()
            la = np.sort(left[left > 1e-10])
            rb = np.sort(right[right > 1e-10])
            assert la.shape == rb.shape
            assert np.allclose(la, rb, atol=1e-10)

    def test_dimension_cap(self):
        st = SparseState.basis(7, (0,) * 5)
        with pytest.raises(DimensionCapError):
            st.partial_trace([0, 1, 2, 3, 4], dim_cap=4096)

    def test_empty_keep(self):
        st = random_state(3, 2, np.random.default_rng(23), support=5)
        rho = st.partial_trace([])
        assert rho.matrix.shape == (1, 1)
        assert rho.trace() == pytest.approx(1.0)


class TestDensityMatrix:
    def test_validation(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(2, 1, np.array([[0.5, 1.0], [0.0, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(2, 1, np.eye(2))
        with pytest.raises(ValueError, match="expected"):
            DensityMatrix(2, 2, np.eye(2) / 2)

    def test_psd_check_on_eigenvalues(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        rho = DensityMatrix(2, 1, bad)
        with pytest.raises(ValueError, match="negative eigenvalue"):
            rho.eigenvalues()

    def test_nested_partial_trace_reorder(self):
        st = SparseState.basis(3, (0, 1, 2))
        rho = st.partial_trace([0, 1, 2])
        sub = rho.partial_trace([2, 0])
        assert sub.matrix[2 * 3 + 0, 2 * 3 + 0] == pytest.approx(1.0)


class TestDistances:
    def test_fidelity_projector(self):
        st = random_state(3, 2, np.random.default_rng(3), support=6)
        assert fidelity(DensityMatrix.from_pure(st), st) == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_self(self):
        st = random_state(3, 2, np.random.default_rng(4), support=6)
        rho = DensityMatrix.from_pure(st)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_trace_distance_orthogonal(self):
        a = DensityMatrix.from_pure(SparseState.basis(2, (0,)))
        b = DensityMatrix.from_pure(SparseState.basis(2, (1,)))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        a = DensityMatrix.maximally_mixed(2, 1)
        b = DensityMatrix.maximally_mixed(2, 2)
        with pytest.raises(ValueError, match="different registers"):
            trace_distance(a, b)
        with pytest.raises(ValueError, match="different registers"):
            fidelity(a, SparseState.basis(2, (0, 0)))


class TestFactorCheck:
    def test_tensor_product_true(self):
        rng = np.random.default_rng(8)
        a = random_state(3, 1, rng)
        b = random_state(3, 2, rng, support=4)
        st = tensor(a, b)
        assert factor_check(st, [0], a)
        assert factor_check(st, [1, 2], b)

    def test_entangled_false(self):
        st = SparseState.from_branches(3, [((0, 0), 1.0), ((1, 1), 1.0)])
        ref = superpose([(SparseState.basis(3, (0,)), 1.0), (SparseState.basis(3, (1,)), 1.0)])
        assert not factor_check(st, [0], ref)

    def test_wrong_reference_false(self):
        a = SparseState.basis(3, (0,))
        b = SparseState.basis(3, (1, 2))
        st = tensor(a, b)
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
        assert a.allclose(b, tol=0.0)

    def test_support_restriction(self):
        st = random_state(5, 2, np.random.default_rng(0), support=3)
        assert st.num_branches == 3

    def test_normalized(self):
        st = random_state(7, 2, np.random.default_rng(1))
        assert abs(st.norm_sq - 1.0) < 1e-12
