"""Parameter validation, message-matrix layout, and codeword properties.

The codeword checks use the classical shadows of the quantum claims: any d
rows of the first codeword column determine the secret and first randomness
block by linear solving, and any k-1 rows are uniformly distributed
independently of the secret.
"""

import itertools
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qtss.cli import DEFAULT_GRID
from qtss.gf import FieldMatrix
from qtss.staircase import (
    EnumerationCapError,
    ParameterError,
    build_message_matrix,
    encode_classical,
    enumerate_codewords,
    make_params,
)

# The benchmark's reference derivation of G imports nothing from qtss, which
# makes it an independent oracle for the generator; it is only read here.
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.insert(0, PERFBENCH)

import refcheck  # noqa: E402


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
        # the simulator's widest labels, two bytes a digit.
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


class TestShareLayout:
    def test_register_blocks(self):
        p = make_params(2, 3, 5)
        assert p.registers_of(1) == (0, 1)
        assert p.registers_of(2) == (2, 3)
        assert p.registers_of(3) == (4, 5)

    def test_out_of_range(self):
        p = make_params(2, 3, 5)
        for participant in (0, 4):
            with pytest.raises(IndexError, match="out of range 1..3"):
                p.registers_of(participant)


class TestMessageMatrix:
    def test_golden_k2(self):
        p = make_params(2, 3, 5)
        m = build_message_matrix((1, 2), (3, 4), p)
        assert m.row_tuples() == ((1, 0), (2, 3), (3, 4))

    def test_zero_inputs_zero_matrix(self):
        p = make_params(3, 4, 7)
        m = build_message_matrix((0, 0), (0,) * 4, p)
        assert m.row_tuples() == ((0, 0), (0, 0), (0, 0), (0, 0))

    def test_golden_k3(self):
        p = make_params(3, 4, 7)
        m = build_message_matrix((1, 2), (1, 2, 3, 4), p)
        # head u=(1), tail v=(2), second block (3,4)
        assert m.row_tuples() == ((1, 0), (2, 2), (1, 3), (2, 4))

    @pytest.mark.parametrize("k,d,q", [(2, 3, 5), (3, 5, 7), (4, 6, 11), (4, 7, 11)])
    def test_head_tail_ranges(self, k, d, q):
        # Block 1 is r[0 : k-1]: head u = r[0 : k-m], tail v = r[k-m : k-1].
        # Column 1 holds the secret over block 1; in each column j >= 2, row m
        # holds v_{j-1} with m-1 zero rows above it, and block j below it.
        p = make_params(k, d, q)
        m, w = p.m, p.k - 1
        secret = tuple(range(1, m + 1))
        r = tuple((7 * i + 1) % q for i in range(p.randomness_len))
        msg = build_message_matrix(secret, r, p).array
        assert msg[:m, 0].tolist() == list(secret)
        assert msg[m:, 0].tolist() == list(r[:w])
        v = r[k - m : w]
        assert len(v) == m - 1
        for j in range(2, m + 1):
            col = msg[:, j - 1].tolist()
            assert col[: m - 1] == [0] * (m - 1)
            assert col[m - 1] == v[j - 2]
            assert col[m:] == list(r[(j - 1) * w : j * w])

    def test_digits_reduced(self):
        p = make_params(2, 3, 5)
        reduced = build_message_matrix((2, 4), (3, 4), p)
        assert build_message_matrix((7, -1), (8, np.int64(-1)), p).row_tuples() == reduced.row_tuples()

    def test_wrong_secret_length(self):
        p = make_params(2, 3, 5)
        with pytest.raises(ValueError, match="2 digits"):
            build_message_matrix((1,), (0, 0), p)

    def test_wrong_randomness_length(self):
        p = make_params(2, 3, 5)
        with pytest.raises(ValueError, match="randomness must have 2 digits, got 3"):
            build_message_matrix((0, 0), (1, 2, 3), p)

    def test_non_integral_digits_rejected(self):
        # int(1.9) would silently encode the digit 1.
        p = make_params(2, 3, 5)
        with pytest.raises(TypeError, match="integers"):
            build_message_matrix((1.9, 0), (0, 0), p)
        with pytest.raises(TypeError, match="integers"):
            encode_classical((1, 0), (0, 2.5), p)
        with pytest.raises(TypeError, match="integers"):
            next(enumerate_codewords((1, 0.5), p))


class TestEncodeClassical:
    def test_constant_codeword(self):
        p = make_params(2, 3, 5)
        c = encode_classical((1, 0), (0, 0), p)
        assert c.row_tuples() == ((1, 0), (1, 0), (1, 0))

    def test_derived_rows(self):
        p = make_params(2, 3, 5)
        c = encode_classical((0, 1), (1, 2), p)
        assert c.row_tuples() == ((2, 3), (1, 0), (2, 1))

    def test_single_column_shift_code(self):
        # m=1: participant i holds s + i*r.
        p = make_params(2, 2, 5)
        for s in range(5):
            for r in range(5):
                c = encode_classical((s,), (r,), p)
                assert c.row_tuples() == tuple(((s + i * r) % 5,) for i in (1, 2, 3))

    def test_matches_direct_row_expressions(self):
        # Oracle: evaluate (s1 + x s2 + x^2 r1, x r1 + x^2 r2) literally.
        p = make_params(2, 3, 5)
        for s1, s2, r1, r2 in itertools.product(range(5), repeat=4):
            c = encode_classical((s1, s2), (r1, r2), p)
            for i, x in enumerate((1, 2, 3)):
                assert c.row_tuples()[i] == (
                    (s1 + x * s2 + x * x * r1) % 5,
                    (x * r1 + x * x * r2) % 5,
                )


class TestEnumerateCodewords:
    def test_counts(self):
        p = make_params(2, 3, 5)
        assert sum(1 for _ in enumerate_codewords((0, 0), p)) == 25
        p2 = make_params(3, 4, 7)
        assert p2.branch_count == 7**4 == 2401
        assert sum(1 for _ in enumerate_codewords((0, 0), p2)) == 2401

    def test_injective_in_randomness(self):
        p = make_params(2, 3, 5)
        seen = set()
        for _, c in enumerate_codewords((1, 3), p):
            seen.add(c.row_tuples())
        assert len(seen) == 25

    def test_injective_across_secrets(self):
        p = make_params(2, 2, 5)
        seen = set()
        for s in range(5):
            for _, c in enumerate_codewords((s,), p):
                seen.add(c.row_tuples())
        assert len(seen) == 25  # 5 secrets * 5 randomness values, no collisions

    def test_cap(self):
        p = make_params(3, 4, 7)
        with pytest.raises(EnumerationCapError):
            list(enumerate_codewords((0, 0), p, cap=100))


class TestClassicalShadows:
    def test_any_d_rows_first_column_determine_secret_and_first_block(self):
        for k, d, q in ((2, 3, 5), (3, 4, 7)):
            p = make_params(k, d, q)
            v = p.vandermonde
            secret = [(3 * i + 1) % q for i in range(p.m)]
            flat = [(2 * j + 1) % q for j in range(p.randomness_len)]
            c = encode_classical(secret, flat, p)
            for rows in itertools.combinations(range(p.n), p.d):
                block = FieldMatrix._wrap(v.field, v.array[list(rows)])
                first = FieldMatrix._wrap(c.field, c.array[list(rows), :1])
                solved = (block.inverse() @ first).array.ravel().tolist()
                assert solved[: p.m] == secret
                assert solved[p.m :] == flat[: p.k - 1]

    @pytest.mark.parametrize("k,d,q", [(2, 3, 5), (3, 4, 7)])
    def test_k_minus_1_rows_uniform_and_secret_independent(self, k, d, q):
        # Exhaustive distribution comparison over all randomness values for
        # two secrets: the restriction to any k-1 participants must be
        # uniform over its support and identical across secrets.
        p = make_params(k, d, q)
        secrets = [(0,) * p.m, tuple((q - 1 - i) % q for i in range(p.m))]
        for rows in itertools.combinations(range(p.n), p.k - 1):
            dists = []
            for s in secrets:
                counts = Counter()
                for _, c in enumerate_codewords(s, p):
                    key = tuple(c.array[list(rows)].ravel().tolist())
                    counts[key] += 1
                dists.append(counts)
            assert dists[0] == dists[1]
            assert len(set(dists[0].values())) == 1  # uniform over support


class TestGeneratorMatrix:
    @pytest.mark.parametrize("k,d,q", [*DEFAULT_GRID, (6, 9, 13), (8, 13, 17)])
    def test_matches_reference_derivation(self, k, d, q):
        p = make_params(k, d, q)
        g = p.generator
        assert g.array.shape == (p.n * p.m, p.m + p.randomness_len)
        assert np.array_equal(g.array, np.array(refcheck.encoding_matrix(k, d, q)))

    @pytest.mark.parametrize("k,d,q", [(2, 3, 5), (3, 4, 7), (4, 7, 11), (6, 9, 13)])
    def test_product_is_the_flattened_codeword(self, k, d, q):
        # G [s; r] is the share-major codeword table, for drawn digits.
        p = make_params(k, d, q)
        g = p.generator.array
        rng = np.random.default_rng(8)
        for _ in range(20):
            s = rng.integers(0, q, p.m)
            r = rng.integers(0, q, p.randomness_len)
            want = encode_classical(s.tolist(), r.tolist(), p).array.ravel()
            assert np.array_equal(g @ np.concatenate([s, r]) % q, want)

    def test_cached_and_read_only(self):
        p = make_params(3, 4, 7)
        assert p.generator is p.generator
        assert p.vandermonde is p.vandermonde
        assert np.array_equal(p.generator.array, make_params(3, 4, 7).generator.array)
        with pytest.raises(ValueError):
            p.generator.array[0, 0] = 1
