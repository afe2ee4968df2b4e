"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The parameter grid is the default scheme grid; entries
whose state space cannot be enumerated (branch count above the cap) are
exercised through the exact cost/bound arithmetic only, and secrecy sweeps
cover every subset whose reduced dimension fits the density-matrix cap.
"""

import itertools
import math
import time
from fractions import Fraction

import densities
import numpy as np
import pytest

from qtss.cli import DEFAULT_GRID, main, parse_config, run
from qtss.gf import FieldMatrix, PrimeField
from qtss.protocol import (
    basis_secret,
    convert_to_mixed,
    cost_table,
    deal,
    lower_bound,
    participant_sets,
    recover_from_d,
    recover_from_k,
    secrecy_check,
)
from qtss.qsim import (
    DEFAULT_DIM_CAP,
    SparseState,
    factor_check,
    fidelity,
    random_state,
)
from qtss.staircase import DEFAULT_BRANCH_CAP, enumerate_codewords, make_params

ACCEPT_SEED = 20240817
FID_TOL = 1e-10
TD_TOL = 1e-10

GRID = DEFAULT_GRID
# Entries whose encoded states are enumerable at all (excludes (4,7,11),
# whose per-secret branch count is 11**12).
QUANTUM_GRID = tuple(
    t for t in GRID if make_params(*t).branch_count <= DEFAULT_BRANCH_CAP
)
# Entries small enough to sweep every basis secret against every subset.
BASIS_EXHAUSTIVE = tuple(
    t
    for t in QUANTUM_GRID
    if (lambda p: p.q**p.m * p.branch_count <= 200_000)(make_params(*t))
)

_secrecy_memo: dict = {}


def announce(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail} ({elapsed:.2f}s)", flush=True)


def superposition_secrets(p, count: int, tag: int) -> list[SparseState]:
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence((ACCEPT_SEED, p.k, p.d, p.q, tag)))
    )
    full = p.q**p.m
    support = full if full * p.branch_count <= DEFAULT_BRANCH_CAP else 2
    return [random_state(p.q, p.m, rng, support=support) for _ in range(count)]


def check_recovery(dealt, secret, subset, mode: str) -> float:
    p = dealt.params
    if mode == "d":
        result = recover_from_d(dealt, subset)
        expected_cost = p.d
        assert result.transcript.accessed == {i: p.registers_of(i)[:1] for i in subset}
    else:
        result = recover_from_k(dealt, subset)
        expected_cost = p.m * p.k
    t = result.transcript
    assert t.qudit_cost == expected_cost
    assert t.channel_dim == p.q**expected_cost
    rho = result.state.partial_trace(result.secret_registers)
    fid = fidelity(rho, secret)
    assert fid >= 1.0 - FID_TOL, (subset, fid)
    assert abs(rho.purity() - 1.0) <= FID_TOL, (subset, rho.purity())
    if result.state.num_branches <= 10_000:
        assert factor_check(result.state, result.secret_registers, secret)
    return fid


def recovery_sweep(mode: str, tag: int) -> tuple[float, int]:
    """Every subset of every enumerable grid entry; exhaustive basis secrets
    at the small entries plus >= 20 seeded superpositions per entry."""
    worst = 1.0
    sessions = 0
    for triple in QUANTUM_GRID:
        p = make_params(*triple)
        size = p.d if mode == "d" else p.k
        subsets = list(itertools.combinations(range(1, p.n + 1), size))
        if triple in BASIS_EXHAUSTIVE:
            for digits in itertools.product(range(p.q), repeat=p.m):
                secret = basis_secret(p, digits)
                dealt = deal(secret, p)
                for subset in subsets:
                    worst = min(worst, check_recovery(dealt, secret, subset, mode))
                    sessions += 1
        per_subset = max(1, math.ceil(20 / len(subsets)))
        secrets = superposition_secrets(p, per_subset * len(subsets), tag)
        idx = 0
        for subset in subsets:
            for _ in range(per_subset):
                secret = secrets[idx]
                idx += 1
                worst = min(worst, check_recovery(deal(secret, p), secret, subset, mode))
                sessions += 1
    return worst, sessions


def secrecy_pairs_for(p):
    zeros = basis_secret(p, (0,) * p.m)
    descending = basis_secret(p, tuple((p.q - 1 - i) % p.q for i in range(p.m)))
    extra = superposition_secrets(p, 2, tag=4)
    return [(zeros, descending), (extra[0], extra[1])]


def subset_secrecy(p, subset) -> float:
    key = ((p.k, p.d, p.q), frozenset(subset))
    if key not in _secrecy_memo:
        _secrecy_memo[key] = secrecy_check(p, subset, secrecy_pairs_for(p)).max_trace_distance
    return _secrecy_memo[key]


# ---------------------------------------------------------------------------


def test_criterion_1_intro_example_golden():
    """Dealer output at ((2,3,3), q=5) matches the hand-written codeword
    expressions for every basis secret over all 25 randomness values."""
    start = time.perf_counter()
    p = make_params(2, 3, 5)
    ok = True
    for s1, s2 in itertools.product(range(5), repeat=2):
        expected = set()
        for r1, r2 in itertools.product(range(5), repeat=2):
            label = []
            for x in (1, 2, 3):
                label.append((s1 + x * s2 + x * x * r1) % 5)
                label.append((x * r1 + x * x * r2) % 5)
            expected.add(tuple(label))
        # codeword table oracle, row by row
        for (r_vec, codeword), (r1, r2) in zip(
            enumerate_codewords((s1, s2), p),
            itertools.product(range(5), repeat=2),
        ):
            assert r_vec == (r1, r2)
            for i, x in enumerate((1, 2, 3)):
                assert codeword.row_tuples()[i] == (
                    (s1 + x * s2 + x * x * r1) % 5,
                    (x * r1 + x * x * r2) % 5,
                )
        dealt = deal(basis_secret(p, (s1, s2)), p)
        got = {tuple(int(v) for v in row) for row in dealt.state.labels}
        ok = ok and got == expected and np.allclose(np.abs(dealt.state.amps), 0.2)
        assert got == expected
    elapsed = time.perf_counter() - start
    announce(1, ok and elapsed < 1.0, f"all 25 basis secrets match the codeword oracle", elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_recovery_from_d_shares():
    """Every enumerable grid entry, every d-subset, first qudit per share:
    fidelity >= 1 - 1e-10 and cost exactly d, within two minutes."""
    start = time.perf_counter()
    worst, sessions = recovery_sweep("d", tag=2)
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - FID_TOL and elapsed < 120.0
    announce(2, ok, f"{sessions} recoveries, min fidelity {worst:.3e} from 1", elapsed)
    assert worst >= 1.0 - FID_TOL
    assert elapsed < 120.0


def test_criterion_3_recovery_from_k_shares():
    """Every enumerable grid entry, every k-subset, all m*k qudits:
    fidelity >= 1 - 1e-10 and cost exactly m*k."""
    start = time.perf_counter()
    worst, sessions = recovery_sweep("k", tag=3)
    elapsed = time.perf_counter() - start
    ok = worst >= 1.0 - FID_TOL
    announce(3, ok, f"{sessions} recoveries, min fidelity {worst:.3e} from 1", elapsed)
    assert ok


def test_criterion_4_secrecy_of_small_subsets():
    """Every subset of <= k-1 participants under the dimension cap shows
    zero trace distance between secrets; single shares of the smallest
    scheme are exactly maximally mixed."""
    start = time.perf_counter()
    worst = 0.0
    tested = skipped = 0
    swept = over = 0  # the same totals as qtss run's sweep counts them
    for triple in QUANTUM_GRID:
        p = make_params(*triple)
        for size in range(1, p.k):
            for subset in itertools.combinations(range(1, p.n + 1), size):
                if p.q ** (p.m * size) > DEFAULT_DIM_CAP:
                    skipped += 1
                    continue
                worst = max(worst, subset_secrecy(p, subset))
                tested += 1
        sets, skips = participant_sets(p, "secrecy", range(1, p.n + 1))
        swept, over = swept + len(sets), over + skips
    p = make_params(2, 3, 5)
    mixed_ok = True
    eye25 = np.eye(25, dtype=complex) / 25
    for digits in itertools.product(range(5), repeat=2):
        dealt = deal(basis_secret(p, digits), p)
        for share in (1, 2, 3):
            rho = dealt.state.partial_trace(p.registers_of(share))
            mixed_ok = mixed_ok and bool(np.allclose(rho.matrix, eye25, atol=1e-12))
    elapsed = time.perf_counter() - start
    ok = worst <= TD_TOL and mixed_ok
    announce(
        4,
        ok,
        f"{tested} subsets, max trace distance {worst:.3e}, "
        f"{skipped} over the dimension cap; single shares maximally mixed: {mixed_ok}",
        elapsed,
    )
    assert worst <= TD_TOL
    assert mixed_ok
    assert (tested, skipped) == (swept, over)


def test_criterion_5_cost_optimality():
    """For every grid entry the d-mode channel dimension q**d equals the
    bound (q**m)**(d/(d-k+1)) exactly, and the qudit ratio is d/(d-k+1)."""
    start = time.perf_counter()
    for triple in GRID:
        p = make_params(*triple)
        bound = lower_bound(p.q**p.m, p.k, p.d)
        assert isinstance(bound, int)
        assert p.q**p.d == bound
        rows = cost_table(p)
        d_row = rows[-1]
        assert d_row.qudits == p.d
        assert Fraction(d_row.qudits, p.m) == Fraction(p.d, p.d - p.k + 1)
        assert d_row.ratio == pytest.approx(p.d / p.m)
        assert d_row.optimal
        k_row = rows[0]
        assert k_row.qudits == p.m * p.k
    elapsed = time.perf_counter() - start
    announce(5, True, f"exact bound equality on all {len(GRID)} grid entries", elapsed)


def test_criterion_6_complement_rule():
    """The (k-1)-complement of every k-subset passes secrecy wherever the
    reduced dimension is computable."""
    start = time.perf_counter()
    worst = 0.0
    tested = skipped = 0
    for triple in QUANTUM_GRID:
        p = make_params(*triple)
        for chosen in itertools.combinations(range(1, p.n + 1), p.k):
            complement = sorted(set(range(1, p.n + 1)) - set(chosen))
            if not complement:
                continue
            if p.q ** (p.m * len(complement)) > DEFAULT_DIM_CAP:
                skipped += 1
                continue
            worst = max(worst, subset_secrecy(p, complement))
            tested += 1
    elapsed = time.perf_counter() - start
    ok = worst <= TD_TOL
    announce(
        6,
        ok,
        f"{tested} complements verified, max trace distance {worst:.3e}, "
        f"{skipped} over the dimension cap",
        elapsed,
    )
    assert ok


def test_criterion_7_mixed_scheme_conversion():
    """((3,5,4)) over F_7 converted to four retained shares still recovers
    (both modes) and keeps small retained subsets ignorant."""
    start = time.perf_counter()
    p = make_params(3, 4, 7)
    retained = (1, 2, 3, 4)
    secrets = [basis_secret(p, (0, 0)), basis_secret(p, (6, 2))]
    secrets += superposition_secrets(p, 3, tag=7)
    worst_fid = 1.0
    for secret in secrets:
        mixed = convert_to_mixed(deal(secret, p), 4)
        for subset in itertools.combinations(retained, p.k):
            result = recover_from_k(mixed, subset)
            assert result.transcript.qudit_cost == p.m * p.k
            rho = result.state.partial_trace(result.secret_registers)
            worst_fid = min(worst_fid, fidelity(rho, secret))
        result = recover_from_d(mixed, retained)
        assert result.transcript.qudit_cost == p.d
        rho = result.state.partial_trace(result.secret_registers)
        worst_fid = min(worst_fid, fidelity(rho, secret))
    worst_td = 0.0
    for size in range(1, p.k):
        for subset in itertools.combinations(retained, size):
            worst_td = max(worst_td, subset_secrecy(p, subset))
    elapsed = time.perf_counter() - start
    ok = worst_fid >= 1.0 - FID_TOL and worst_td <= TD_TOL
    announce(
        7,
        ok,
        f"retained-share recovery min fidelity {worst_fid:.3e} from 1, "
        f"max trace distance {worst_td:.3e}",
        elapsed,
    )
    assert ok


def test_criterion_8_simulator_self_checks():
    """Randomized property suite: exact norm preservation of every applied
    map, Schmidt-spectrum symmetry, and partial-trace composition."""
    start = time.perf_counter()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((ACCEPT_SEED, 8))))
    cases = 0

    def small_state():
        q = int(rng.choice([2, 3, 5, 7]))
        regs = int(rng.integers(1, 5))
        support = int(rng.integers(1, min(q**regs, 12) + 1))
        return random_state(q, regs, rng, support=support)

    # Norm preservation: the amplitude multiset is carried over exactly.
    for _ in range(400):
        st = small_state()
        f = PrimeField(st.q)
        t = int(rng.integers(1, st.num_registers + 1))
        targets = list(rng.choice(st.num_registers, size=t, replace=False))
        while True:
            mat = FieldMatrix(f, rng.integers(0, st.q, t * t).reshape(t, t))
            try:
                mat.inverse()
                break
            except ValueError:
                continue
        out = st.apply_affine(targets, mat)
        assert out.num_branches == st.num_branches
        assert sorted(np.abs(out.amps)) == sorted(np.abs(st.amps))
        remaining = [r for r in range(st.num_registers) if r not in targets]
        if remaining:
            src = [remaining[0]]
            coeff = FieldMatrix(f, rng.integers(0, st.q, t).reshape(t, 1))
            out2 = out.apply_controlled_add(src, targets, coeff)
            assert out2.num_branches == st.num_branches
            assert sorted(np.abs(out2.amps)) == sorted(np.abs(st.amps))
        cases += 1

    # Schmidt symmetry of complementary reductions.
    for _ in range(300):
        st = small_state()
        while st.num_registers < 2:
            st = small_state()
        cut = int(rng.integers(1, st.num_registers))
        left = densities.eigenvalues(st.partial_trace(range(cut)))
        right = densities.eigenvalues(st.partial_trace(range(cut, st.num_registers)))
        la = np.sort(left[left > 1e-10])
        rb = np.sort(right[right > 1e-10])
        assert la.shape == rb.shape and np.allclose(la, rb, atol=1e-10)
        cases += 1

    # Partial-trace composition.
    for _ in range(300):
        st = small_state()
        t = st.num_registers
        size = int(rng.integers(1, t + 1))
        outer = sorted(int(x) for x in rng.choice(t, size=size, replace=False))
        inner_size = int(rng.integers(0, size + 1))
        inner = sorted(int(x) for x in rng.choice(size, size=inner_size, replace=False))
        via = densities.partial_trace(st.partial_trace(outer), inner)
        direct = st.partial_trace([outer[i] for i in inner])
        assert densities.allclose(via, direct, tol=1e-10)
        cases += 1

    elapsed = time.perf_counter() - start
    ok = cases >= 1000 and elapsed < 60.0
    announce(8, ok, f"{cases} randomized cases", elapsed)
    assert cases >= 1000
    assert elapsed < 60.0


def test_criterion_9_deterministic_reports(tmp_path):
    """Identical config and seed produce byte-identical JSON reports."""
    start = time.perf_counter()
    cfg = tmp_path / "det.cfg"
    cfg.write_text(
        "params = 2,3,5; 2,2,5\n"
        "modes = encode, recover-d, recover-k, secrecy, costs, mixed\n"
        "secrets = random:3\n"
        "seed = 123\n"
    )
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    identical = out1.read_bytes() == out2.read_bytes()
    # And a fresh in-process run built from the same text agrees too.
    report = run(parse_config(cfg.read_text()))
    identical = identical and report.to_json_bytes() == out1.read_bytes()
    elapsed = time.perf_counter() - start
    announce(9, identical, "byte-identical reports across runs", elapsed)
    assert identical
