"""Tests of the benchmark's own checks and tracer, on small schemes.

The negative controls feed each check a wrong expectation and require that
the check which owns it counts a failure.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import numpy as np
import pytest

import refcheck
from spantrace import Tracer
from worker import import_program

qtss = import_program()
from qtss import cli, protocol  # noqa: E402


def _dealt_labels(k, d, q, digits):
    p = qtss.make_params(k, d, q)
    state = qtss.deal(qtss.basis_secret(p, digits), p).state
    return {tuple(int(x) for x in row) for row in state.labels}


@pytest.mark.parametrize("k,d,q", [(2, 3, 5), (3, 4, 7), (3, 5, 7)])
def test_reference_encoding_matches_dealer(k, d, q):
    m = d - k + 1
    digits = tuple((3 * i + 1) % q for i in range(m))
    enc = np.array(refcheck.encoding_matrix(k, d, q), dtype=np.int64)
    expected = set()
    for r in itertools.product(range(q), repeat=m * (k - 1)):
        expected.add(tuple(int(x) for x in enc @ np.array(digits + r) % q))
    assert _dealt_labels(k, d, q, digits) == expected


def _session(mode="recover-d"):
    p = qtss.make_params(2, 3, 5)
    branches = [((1, 4), 0.6), ((2, 0), 0.8j)]
    secret = qtss.SparseState.from_branches(5, branches)
    dealt = qtss.deal(secret, p)
    subset = (1, 2, 3) if mode == "recover-d" else (1, 3)
    recover = qtss.recover_from_d if mode == "recover-d" else qtss.recover_from_k
    result = recover(dealt, subset)
    rho = result.state.partial_trace(result.secret_registers).matrix
    return branches, subset, rho, result.transcript


@pytest.mark.parametrize("mode", ["recover-d", "recover-k"])
def test_recovery_check_passes_real_sessions(mode):
    branches, subset, rho, transcript = _session(mode)
    assert refcheck.recovery_problems(2, 3, 5, mode, subset, branches, rho, transcript) == []


def test_wrong_expected_secret_is_a_failure():
    branches, subset, rho, transcript = _session()
    wrong = [((1, 4), 0.8), ((2, 0), 0.6j)]
    tally = refcheck.Tally()
    tally.record(refcheck.recovery_problems(2, 3, 5, "recover-d", subset, wrong, rho, transcript))
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "fidelity" in tally.problems[0]


def test_wrong_expected_cost_is_a_failure():
    branches, subset, rho, transcript = _session()
    tally = refcheck.Tally()
    cheap = dataclasses.replace(transcript, qudit_cost=2, channel_dim=25)
    tally.record(refcheck.recovery_problems(2, 3, 5, "recover-d", subset, branches, rho, cheap))
    assert tally.failed == 1

    params, modes = ((2, 3, 5),), ("costs",)
    report = json.loads(cli.run(cli.ScenarioConfig(params=params, modes=modes)).to_json_bytes())
    expected = refcheck.expected_records(params, modes, 10_000_000)
    assert refcheck.report_problems(report, expected) == [[]]
    report["records"][0]["metrics"]["rows"][1]["channel_dim"] = 5**2
    tally = refcheck.Tally()
    for want, problems in zip(expected, refcheck.report_problems(report, expected)):
        tally.record(problems, weight=want["checks"])
    assert (tally.attempted, tally.failed) == (2, 2)


def test_report_cap_exceeded_follows_branch_arithmetic():
    expected = refcheck.expected_records(((3, 5, 7), (3, 4, 7)), ("encode", "costs"), 10_000_000)
    assert [(r["k"], r["d"], r["mode"], r["status"]) for r in expected] == [
        (3, 5, "encode", "cap-exceeded"),
        (3, 5, "costs", "pass"),
        (3, 4, "encode", "pass"),
        (3, 4, "costs", "pass"),
    ]


def test_reference_not_maximally_mixed_is_a_failure():
    p = qtss.make_params(2, 3, 5)
    rho = qtss.deal(qtss.basis_secret(p, (3, 1)), p).state.partial_trace([0, 1]).matrix
    reference = refcheck.secrecy_reference(2, 3, 5, (1,))
    assert refcheck.state_problems("share 1", rho, reference) == []
    pure = np.zeros_like(reference)
    pure[0, 0] = 1.0
    tally = refcheck.Tally()
    tally.record(refcheck.state_problems("share 1", rho, pure))
    assert (tally.attempted, tally.failed) == (1, 1)


def test_secrecy_reference_needs_an_unauthorized_subset():
    assert refcheck.secrecy_reference(3, 4, 7, (2, 5)) is not None
    assert refcheck.secrecy_reference(3, 4, 7, (1, 2, 3)) is None


def test_tracer_wraps_every_binding_and_derives_self_time():
    original = protocol.deal
    tracer = Tracer()
    try:
        assert tracer.patch_function(protocol, "deal", "protocol.deal") >= 3
        tracer.patch_function(protocol, "secrecy_check", "protocol.secrecy_check")
        assert cli.deal is protocol.deal is qtss.deal is not original
        p = qtss.make_params(2, 3, 5)
        with tracer.span("bench.check"):
            qtss.secrecy_check(p, [1], qtss.default_secret_pairs(p))
        qtss.deal(qtss.basis_secret(p, (0, 0)), p)  # outside a span: not traced
    finally:
        tracer.uninstall()
    assert cli.deal is protocol.deal is qtss.deal is original
    assert tracer.calls == {"bench.check": 1, "protocol.secrecy_check": 1, "protocol.deal": 4}
    by_id = {s[0]: s for s in tracer.spans}
    root = next(s for s in tracer.spans if s[4] is None)
    assert root[1] == "bench.check"
    for span_id, name, start, end, parent in tracer.spans:
        if name == "protocol.deal":
            assert by_id[parent][1] == "protocol.secrecy_check"
        assert start <= end
    assert sum(tracer.self_s.values()) == pytest.approx(root[3] - root[2], abs=1e-9)
