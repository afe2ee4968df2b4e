"""Parameter validation, message-matrix layout, and codeword properties.

The codeword checks use the classical shadows of the quantum claims: any d
rows of the first codeword column determine the secret and first randomness
block by linear solving, and any k-1 rows are uniformly distributed
independently of the secret.
"""

import itertools
from collections import Counter

import pytest

from qtss.gf import FieldVector
from qtss.staircase import (
    EnumerationCapError,
    ParameterError,
    RandomnessSplit,
    build_message_matrix,
    encode_classical,
    enumerate_codewords,
    make_params,
    scheme_vandermonde,
)


class TestMakeParams:
    def test_small_scheme(self):
        p = make_params(2, 3, 5)
        assert (p.n, p.m) == (3, 2)

    def test_degenerate_d_equals_k(self):
        p = make_params(2, 2, 5)
        assert (p.n, p.m) == (3, 1)

    def test_modulus_too_small(self):
        with pytest.raises(ParameterError, match="exceed"):
            make_params(3, 4, 5)  # n = 5, needs q > 5

    def test_invalid_threshold(self):
        with pytest.raises(ParameterError, match="k <= d <= 2k-1"):
            make_params(2, 1, 5)
        with pytest.raises(ParameterError, match="k <= d <= 2k-1"):
            make_params(2, 4, 11)

    def test_nonprime_modulus(self):
        with pytest.raises(ParameterError, match="not prime"):
            make_params(2, 3, 9)

    def test_modulus_past_label_width(self):
        # 65537 is prime, but digits from 2**16 up fit neither PrimeField nor
        # the uint16 labels of the simulator.
        with pytest.raises(ParameterError, match="desk-scale bound 65536"):
            make_params(2, 2, 65537)
        assert make_params(2, 2, 65521).q == 65521

    def test_dimension_identity(self):
        for k in range(1, 6):
            for d in range(k, 2 * k):
                p = make_params(k, d, 127)
                assert p.m + p.k - 1 == p.d
                assert p.randomness_len == p.m * (p.k - 1)

    def test_nodes_distinct_nonzero(self):
        p = make_params(4, 6, 11)
        assert p.nodes == (1, 2, 3, 4, 5, 6, 7)
        assert 0 not in p.nodes


class TestRandomnessSplit:
    def test_golden_split(self):
        # k=3, d=4, q=7: blocks of length 2; head 1 digit, tail 1 digit.
        p = make_params(3, 4, 7)
        split = RandomnessSplit.from_flat(p, (1, 2, 3, 4))
        assert [b.entries for b in split.blocks] == [(1, 2), (3, 4)]
        assert split.u.entries == (1,)
        assert split.v.entries == (2,)
        assert split.flat.entries == (1, 2, 3, 4)

    def test_head_tail_partition_first_block(self):
        for k, d, q in ((2, 3, 5), (3, 5, 7), (4, 6, 11), (4, 7, 11)):
            p = make_params(k, d, q)
            flat = tuple(range(p.randomness_len))
            split = RandomnessSplit.from_flat(p, flat)
            assert split.u.concat(split.v).entries == split.blocks[0].entries
            assert len(split.u) == p.k - p.m
            assert len(split.v) == p.m - 1

    def test_wrong_length(self):
        p = make_params(2, 3, 5)
        with pytest.raises(ValueError, match="expected 2"):
            RandomnessSplit.from_flat(p, (1, 2, 3))


class TestShareLayout:
    def test_register_blocks(self):
        p = make_params(2, 3, 5)
        lay = p.layout()
        assert lay.total_registers == 6
        assert lay.registers_of(1) == (0, 1)
        assert lay.registers_of(3) == (4, 5)
        assert lay.first_register_of(2) == 2
        assert lay.owner_of(5) == 3

    def test_out_of_range(self):
        lay = make_params(2, 3, 5).layout()
        with pytest.raises(IndexError):
            lay.registers_of(4)
        with pytest.raises(IndexError):
            lay.owner_of(6)


class TestMessageMatrix:
    def test_golden_k2(self):
        p = make_params(2, 3, 5)
        f = p.field
        m = build_message_matrix(
            FieldVector(f, (1, 2)), RandomnessSplit.from_flat(p, (3, 4)), p
        )
        assert m.row_tuples() == ((1, 0), (2, 3), (3, 4))

    def test_zero_inputs_zero_matrix(self):
        p = make_params(3, 4, 7)
        f = p.field
        m = build_message_matrix(
            FieldVector(f, (0, 0)), RandomnessSplit.from_flat(p, (0,) * 4), p
        )
        assert m.row_tuples() == ((0, 0), (0, 0), (0, 0), (0, 0))

    def test_golden_k3(self):
        p = make_params(3, 4, 7)
        f = p.field
        m = build_message_matrix(
            FieldVector(f, (1, 2)), RandomnessSplit.from_flat(p, (1, 2, 3, 4)), p
        )
        # head u=(1), tail v=(2), second block (3,4)
        assert m.row_tuples() == ((1, 0), (2, 2), (1, 3), (2, 4))

    def test_wrong_secret_length(self):
        p = make_params(2, 3, 5)
        with pytest.raises(ValueError, match="2 digits"):
            build_message_matrix(
                FieldVector(p.field, (1,)), RandomnessSplit.from_flat(p, (0, 0)), p
            )


class TestEncodeClassical:
    def test_constant_codeword(self):
        p = make_params(2, 3, 5)
        f = p.field
        c = encode_classical(
            FieldVector(f, (1, 0)), RandomnessSplit.from_flat(p, (0, 0)), p
        )
        assert c.row_tuples() == ((1, 0), (1, 0), (1, 0))

    def test_derived_rows(self):
        p = make_params(2, 3, 5)
        f = p.field
        c = encode_classical(
            FieldVector(f, (0, 1)), RandomnessSplit.from_flat(p, (1, 2)), p
        )
        assert c.row_tuples() == ((2, 3), (1, 0), (2, 1))

    def test_single_column_shift_code(self):
        # m=1: participant i holds s + i*r.
        p = make_params(2, 2, 5)
        f = p.field
        for s in range(5):
            for r in range(5):
                c = encode_classical(
                    FieldVector(f, (s,)), RandomnessSplit.from_flat(p, (r,)), p
                )
                assert c.row_tuples() == tuple(((s + i * r) % 5,) for i in (1, 2, 3))

    def test_matches_direct_row_expressions(self):
        # Oracle: evaluate (s1 + x s2 + x^2 r1, x r1 + x^2 r2) literally.
        p = make_params(2, 3, 5)
        f = p.field
        for s1, s2, r1, r2 in itertools.product(range(5), repeat=4):
            c = encode_classical(
                FieldVector(f, (s1, s2)), RandomnessSplit.from_flat(p, (r1, r2)), p
            )
            for i, x in enumerate((1, 2, 3)):
                assert c.row(i).entries == (
                    (s1 + x * s2 + x * x * r1) % 5,
                    (x * r1 + x * x * r2) % 5,
                )


class TestEnumerateCodewords:
    def test_counts(self):
        p = make_params(2, 3, 5)
        assert sum(1 for _ in enumerate_codewords(FieldVector(p.field, (0, 0)), p)) == 25
        p2 = make_params(3, 4, 7)
        assert p2.branch_count == 7**4 == 2401
        assert sum(1 for _ in enumerate_codewords(FieldVector(p2.field, (0, 0)), p2)) == 2401

    def test_injective_in_randomness(self):
        p = make_params(2, 3, 5)
        seen = set()
        for _, c in enumerate_codewords(FieldVector(p.field, (1, 3)), p):
            seen.add(c.row_tuples())
        assert len(seen) == 25

    def test_injective_across_secrets(self):
        p = make_params(2, 2, 5)
        seen = set()
        for s in range(5):
            for _, c in enumerate_codewords(FieldVector(p.field, (s,)), p):
                seen.add(c.row_tuples())
        assert len(seen) == 25  # 5 secrets * 5 randomness values, no collisions

    def test_cap(self):
        p = make_params(3, 4, 7)
        with pytest.raises(EnumerationCapError):
            list(enumerate_codewords(FieldVector(p.field, (0, 0)), p, cap=100))


class TestClassicalShadows:
    def test_any_d_rows_first_column_determine_secret_and_first_block(self):
        for k, d, q in ((2, 3, 5), (3, 4, 7)):
            p = make_params(k, d, q)
            f = p.field
            v = scheme_vandermonde(p)
            secret = FieldVector(f, tuple((3 * i + 1) % q for i in range(p.m)))
            flat = tuple((2 * j + 1) % q for j in range(p.randomness_len))
            c = encode_classical(secret, RandomnessSplit.from_flat(p, flat), p)
            for rows in itertools.combinations(range(p.n), p.d):
                block = v.submatrix(rows, None)
                column = FieldVector(f, tuple(c.at(i, 0) for i in rows))
                solved = block.inverse() @ column
                assert solved.entries[: p.m] == secret.entries
                assert solved.entries[p.m :] == flat[: p.k - 1]

    @pytest.mark.parametrize("k,d,q", [(2, 3, 5), (3, 4, 7)])
    def test_k_minus_1_rows_uniform_and_secret_independent(self, k, d, q):
        # Exhaustive distribution comparison over all randomness values for
        # two secrets: the restriction to any k-1 participants must be
        # uniform over its support and identical across secrets.
        p = make_params(k, d, q)
        f = p.field
        secrets = [
            FieldVector(f, (0,) * p.m),
            FieldVector(f, tuple((q - 1 - i) % q for i in range(p.m))),
        ]
        for rows in itertools.combinations(range(p.n), p.k - 1):
            dists = []
            for s in secrets:
                counts = Counter()
                for _, c in enumerate_codewords(s, p):
                    key = tuple(c.at(i, j) for i in rows for j in range(p.m))
                    counts[key] += 1
                dists.append(counts)
            assert dists[0] == dists[1]
            assert len(set(dists[0].values())) == 1  # uniform over support
