"""Field arithmetic and exact linear algebra tests.

Matrix inverses are checked against the multiplication oracle (product with
the original must be the identity); ranks against inverse() on square
matrices, against stacking and transposing, and against the size of the row
space counted by enumeration; Vandermonde invertibility properties
are checked by enumerating submatrices and running Gaussian elimination on
each.
"""

import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from qtss.gf import (
    FieldMatrix,
    PrimeField,
    SingularMatrixError,
    vandermonde,
)
from qtss.qsim import SparseState

F5 = PrimeField(5)
F7 = PrimeField(7)


def eye(field: PrimeField, n: int) -> FieldMatrix:
    return FieldMatrix(field, np.eye(n, dtype=np.int64))


class TestPrimeField:
    def test_modulus_must_be_prime(self):
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(6)
        with pytest.raises(ValueError, match="not prime"):
            PrimeField(1)

    def test_modulus_desk_scale(self):
        with pytest.raises(ValueError, match="desk-scale"):
            PrimeField(65537)

    def test_modulus_must_be_an_int(self):
        with pytest.raises(TypeError, match="must be an int, got bool"):
            PrimeField(True)
        with pytest.raises(TypeError, match="must be an int, got float"):
            PrimeField(5.0)
        with pytest.raises(ValueError, match="modulus 4 is not prime"):
            PrimeField(4)

    def test_equality_hash(self):
        assert PrimeField(5) == F5
        assert PrimeField(7) != F5
        assert hash(PrimeField(5)) == hash(F5)
        assert len({PrimeField(5), F5, PrimeField(7)}) == 2

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            F5.q = 7


class TestVandermonde:
    def test_golden_3x3(self):
        v = vandermonde(F5, (1, 2, 3), 3)
        assert v.row_tuples() == ((1, 1, 1), (1, 2, 4), (1, 3, 4))  # 3**2 = 9 = 4

    def test_degenerate_single_node(self):
        assert vandermonde(F5, (1,), 1).row_tuples() == ((1,),)

    def test_rejects_duplicate_and_zero_nodes(self):
        with pytest.raises(ValueError, match="distinct"):
            vandermonde(F5, (1, 2, 1), 2)
        with pytest.raises(ValueError, match="nonzero"):
            vandermonde(F5, (0, 1), 2)

    def test_rejects_float_nodes(self):
        # int(2.5) would silently evaluate at x = 2.
        with pytest.raises(TypeError, match="integers"):
            vandermonde(F5, (1, 2.5, 3), 2)
        with pytest.raises(TypeError, match="integers"):
            vandermonde(F5, (1.0, 2.0), 2)

    def test_all_4row_submatrices_invertible_q7(self):
        v = vandermonde(F7, (1, 2, 3, 4, 5, 6), 4)
        for rows in itertools.combinations(range(6), 4):
            sub = FieldMatrix._wrap(F7, v.array[list(rows)])
            prod = sub @ sub.inverse()
            assert prod.row_tuples() == eye(F7, 4).row_tuples()

    def test_any_row_selection_invertible_random_nodes(self):
        rng = random.Random(20240817)
        for q in (5, 7, 11, 13):
            f = PrimeField(q)
            for _ in range(8):
                n = rng.randint(2, min(6, q - 1))
                nodes = rng.sample(range(1, q), n)
                for width in range(1, n + 1):
                    v = vandermonde(f, nodes, width)
                    for rows in itertools.combinations(range(n), width):
                        FieldMatrix._wrap(f, v.array[list(rows)]).inverse()  # raises when singular

    def test_contiguous_column_blocks_invertible(self):
        # Exhaustive over node subsets: [x**(c+j)] = diag(x**c) * Vandermonde,
        # so any contiguous column block of a nonzero-node Vandermonde matrix
        # stays invertible.  Sizes bounded to keep the sweep quick.
        for q in (3, 5, 7, 11, 13):
            f = PrimeField(q)
            for t in range(1, min(q - 1, 5) + 1):
                for nodes in itertools.combinations(range(1, q), t):
                    for start in range(0, 7):
                        m = FieldMatrix(f, [[pow(x, start + j, q) for j in range(t)] for x in nodes])
                        prod = m @ m.inverse()
                        assert prod.row_tuples() == eye(f, t).row_tuples()


class TestSubmatrix:
    def test_trailing_columns_block(self):
        # The k trailing columns of a k-participant row selection, as used
        # when peeling staircase columns; d=4, k=3 so the block starts at 1.
        v = vandermonde(F7, (1, 2, 3, 4, 5), 4)
        rows = (0, 2, 4)
        block = FieldMatrix._wrap(F7, v.array[list(rows), 1:4])
        expected = [[pow(x, j, 7) for j in (1, 2, 3)] for x in (1, 3, 5)]
        assert block.row_tuples() == tuple(tuple(r) for r in expected)
        block.inverse()  # invertible because nodes are distinct and nonzero


class TestMatrixAlgebra:
    def test_identity_inverse(self):
        i3 = eye(F5, 3)
        assert i3.inverse().row_tuples() == i3.row_tuples()

    def test_inverse_product_oracle(self):
        m = FieldMatrix(F5, [[1, 1], [1, 2]])
        inv = m.inverse()
        assert (m @ inv).row_tuples() == eye(F5, 2).row_tuples()
        assert (inv @ m).row_tuples() == eye(F5, 2).row_tuples()

    def test_singular_raises(self):
        m = FieldMatrix(F5, [[1, 1], [2, 2]])
        with pytest.raises(SingularMatrixError):
            m.inverse()

    def test_inverse_random_matrices(self):
        rng = random.Random(7)
        for q in (3, 5, 11):
            f = PrimeField(q)
            done = 0
            while done < 20:
                n = rng.randint(1, 5)
                m = FieldMatrix(f, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
                try:
                    inv = m.inverse()
                except SingularMatrixError:
                    continue
                assert (m @ inv).row_tuples() == eye(f, n).row_tuples()
                assert (inv @ m).row_tuples() == eye(f, n).row_tuples()
                done += 1

    def test_mat_vec_identity_and_column_pick(self):
        # A vector is a one-column matrix.
        v = FieldMatrix(F5, [[2], [0], [4]])
        assert (eye(F5, 3) @ v).row_tuples() == ((2,), (0,), (4,))
        vm = vandermonde(F5, (1, 2, 3), 3)
        assert (vm @ FieldMatrix(F5, [[1], [0], [0]])).row_tuples() == ((1,), (1,), (1,))

    def test_codeword_product_matches_direct_expressions(self):
        # Independent oracle: evaluate the row expressions
        # (s1 + x*s2 + x^2*r1, x*r1 + x^2*r2) directly mod 5.
        s1, s2, r1, r2 = 1, 2, 3, 4
        msg = FieldMatrix(F5, [[s1, 0], [s2, r1], [r1, r2]])
        v = vandermonde(F5, (1, 2, 3), 3)
        prod = v @ msg
        for i, x in enumerate((1, 2, 3)):
            expected = (
                (s1 + x * s2 + x * x * r1) % 5,
                (x * r1 + x * x * r2) % 5,
            )
            assert prod.row_tuples()[i] == expected

    def test_dimension_mismatch(self):
        a = eye(F5, 2)
        b = eye(F5, 3)
        with pytest.raises(ValueError, match="multiply"):
            a @ b
        with pytest.raises(ValueError, match="multiply"):
            a @ FieldMatrix(F5, [[1], [2], [3]])
        assert a.__matmul__((1, 2)) is NotImplemented

    def test_field_mismatch(self):
        with pytest.raises(ValueError, match="different fields"):
            eye(F5, 2) @ eye(F7, 2)

    def test_non_square_inverse_rejected(self):
        with pytest.raises(ValueError, match="non-square"):
            FieldMatrix(F5, np.zeros((2, 3), dtype=np.int64)).inverse()

    @pytest.mark.parametrize(
        "entries",
        [
            pytest.param((1, 2, 3, 4), id="flat"),
            pytest.param((2**70 + 3, np.uint64(2**64 - 2)), id="flat-huge"),
            pytest.param([], id="empty"),
            pytest.param(3, id="scalar"),
            pytest.param(np.zeros((2, 2, 2), dtype=np.int64), id="3-D"),
            pytest.param([[[1, 2]], [[3, 4]]], id="nested-3-D"),
            pytest.param([[1, 2], [3]], id="ragged"),
            pytest.param([[1, 2], 3], id="ragged-scalar"),
        ],
    )
    def test_entries_must_be_two_dimensional(self, entries):
        with pytest.raises(ValueError):
            FieldMatrix(F5, entries)

    def test_any_two_dimensional_array_like(self):
        rows = [[1, 7], [9, 10]]
        for entries in (rows, tuple(map(tuple, rows)), np.array(rows), np.array(rows, dtype=np.uint8)):
            assert FieldMatrix(F5, entries).row_tuples() == ((1, 2), (4, 0))

    def test_non_integral_entries_rejected(self):
        # 1.9 used to be stored as 1; it is now refused before any residue is taken.
        with pytest.raises(TypeError, match="integers"):
            FieldMatrix(F5, [[1.9, 2], [3, 4]])
        big = FieldMatrix(F5, [[2**70 + 3, np.uint64(2**64 - 2)]])
        assert big.row_tuples() == (((2**70 + 3) % 5, (2**64 - 2) % 5),)

    def test_stored_array_is_read_only(self):
        m = FieldMatrix(F5, [[1, 2], [3, 4]])
        assert m.array.dtype == np.int64
        with pytest.raises(ValueError):
            m.array[0, 0] = 0


@hst.composite
def small_matrices(draw, max_rows=5, max_cols=5):
    f = PrimeField(draw(hst.sampled_from([2, 3, 5, 7])))
    rows = draw(hst.integers(0, max_rows))
    cols = draw(hst.integers(0, max_cols))
    # Entries drawn mostly from {0, 1} give many rank-deficient matrices.
    entries = draw(
        hst.lists(
            hst.one_of(hst.integers(0, 1), hst.integers(0, f.q - 1)),
            min_size=rows * cols,
            max_size=rows * cols,
        )
    )
    return FieldMatrix(f, np.reshape(entries, (rows, cols)))


class TestRank:
    def test_examples(self):
        assert FieldMatrix(F5, [[1, 1], [2, 2]]).rank() == 1
        assert FieldMatrix(F5, np.zeros((3, 4), dtype=np.int64)).rank() == 0
        assert FieldMatrix(F5, np.zeros((0, 3), dtype=np.int64)).rank() == 0
        assert vandermonde(F7, (1, 2, 3, 4), 6).rank() == 4
        assert FieldMatrix._wrap(F7, vandermonde(F7, (1, 2, 3, 4), 6).array.T).rank() == 4

    def test_rank_kept_and_checked_on_every_call(self):
        # The rank is computed once per matrix value and kept; apply_affine
        # still asks for it on every call, so a singular map raises each time.
        singular = FieldMatrix(F5, [[1, 2], [2, 4]])
        state = SparseState.basis(5, (1, 3))
        for _ in range(2):
            with pytest.raises(SingularMatrixError, match="singular"):
                state.apply_affine([0, 1], singular)
        assert [singular.rank() for _ in range(3)] == [1, 1, 1]
        full = vandermonde(F7, (1, 2, 3), 3)
        assert [full.rank() for _ in range(3)] == [3, 3, 3]
        assert full.rank() == FieldMatrix(F7, full.array).rank()

    @settings(max_examples=200, deadline=None)
    @given(m=small_matrices())
    def test_inverse_exists_iff_full_rank(self, m):
        r, n = m.rank(), min(m.rows, m.cols)
        assert 0 <= r <= n
        square = FieldMatrix._wrap(m.field, m.array[:n, :n])
        full = square.rank() == square.rows
        try:
            square.inverse()
        except SingularMatrixError:
            assert not full
        else:
            assert full

    @settings(max_examples=200, deadline=None)
    @given(m=small_matrices())
    def test_stacked_and_transposed_rank(self, m):
        stacked = FieldMatrix(m.field, np.vstack([m.array, m.array]))
        if m.rows:
            assert stacked.rank() == m.rank()
        assert FieldMatrix._wrap(m.field, m.array.T).rank() == m.rank()

    @settings(max_examples=100, deadline=None)
    @given(m=small_matrices(max_rows=4))
    def test_row_space_has_q_to_the_rank_vectors(self, m):
        q = m.field.q
        span = {
            tuple(sum(c * x for c, x in zip(coeffs, col)) % q for col in zip(*m.row_tuples()))
            for coeffs in itertools.product(range(q), repeat=m.rows)
        }
        assert len(span) == q ** m.rank()


def reference_row_reduce(rows: list[list[int]], ncols: int, q: int) -> int:
    """The pure-Python Gauss-Jordan elimination that ``gf`` ran before its
    matrices moved to numpy; kept as the oracle for rank and inverse.

    Runs in place on the first ``ncols`` columns of ``rows`` and returns the
    rank, pivoting on the first nonzero entry at or below the current rank.
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


@hst.composite
def top_heavy_matrices(draw, max_size=7):
    """Matrices over F_5, F_11 and F_65521 whose entries lean to q-1, where
    products of residues are largest (an int32 or float32 path overflows)."""
    q = draw(hst.sampled_from([5, 11, 65521]))
    rows = draw(hst.integers(0, max_size))
    cols = draw(hst.integers(0, max_size))
    entry = hst.one_of(
        hst.just(q - 1), hst.integers(max(q - 4, 0), q - 1), hst.integers(0, q - 1), hst.just(0)
    )
    entries = draw(hst.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return FieldMatrix(PrimeField(q), np.reshape(entries, (rows, cols)))


class TestAgainstReferenceElimination:
    @settings(max_examples=300, deadline=None)
    @given(m=top_heavy_matrices())
    def test_rank_and_inverse_match_reference(self, m):
        q = m.field.q
        assert m.rank() == reference_row_reduce([list(r) for r in m.row_tuples()], m.cols, q)
        n = min(m.rows, m.cols)
        square = FieldMatrix._wrap(m.field, m.array[:n, :n])
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(square.row_tuples())]
        if reference_row_reduce(aug, n, q) < n:
            with pytest.raises(SingularMatrixError):
                square.inverse()
        else:
            assert square.inverse().row_tuples() == tuple(tuple(r[n:]) for r in aug)
