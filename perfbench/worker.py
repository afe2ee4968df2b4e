"""Run one benchmark workload in this process and print its raw figures.

Started by ``run.py``, once per measured run, so that peak RSS and set-up time
belong to one workload alone.  The program under test is imported from
``src/`` of the checkout this file sits in.  Modes:

* ``probe``: import and generate the first round's inputs, report set-up time.
* ``run``: whole rounds of checks for about ``--seconds``.
* ``trace``: a warm-up round, then each round twice, untraced and with every
  traced call in a span, for about ``--seconds``.

The last stdout line is one JSON object.  Only the program calls are timed;
generating inputs and checking outputs against ``refcheck`` happen outside
the timed parts and outside the spans.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

import numpy as np

import refcheck
from spantrace import Tracer

ROOT = Path(__file__).resolve().parents[1]


def import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import qtss

    if Path(qtss.__file__).resolve().parent != (src / "qtss").resolve():
        raise SystemExit(f"qtss imported from {qtss.__file__}, not from {src}")
    return qtss


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


class Timer:
    """Sums the timed parts of a round; a check's time is also kept alone."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.round_s = 0.0
        self.checks: list[float] = []

    @contextmanager
    def timed(self, name: str, check: bool):
        span = self.tracer.span(name) if self.tracer else nullcontext()
        start = time.perf_counter()
        try:
            with span:
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.round_s += elapsed
        if check:
            self.checks.append(elapsed)


# ---------------------------------------------------------------------------
# Workloads.  Each builds its fixed inputs in __init__ (part of set-up),
# derives a round's inputs from (seed, round) in inputs(), and in run_round()
# times the program calls and checks every output.
# ---------------------------------------------------------------------------


class RecoverBulk:
    """(4,5,11), 2-term superposition secrets: one deal, then 1 k-session and
    2 d-sessions on seeded subsets, each verified on its secret block."""

    K, D, Q = 4, 5, 11
    SESSIONS = (("recover-k", 1), ("recover-d", 2))

    def __init__(self, qtss, seed: int) -> None:
        self.qtss = qtss
        self.seed = seed
        self.p = qtss.make_params(self.K, self.D, self.Q)
        n = 2 * self.K - 1
        self.subsets = {
            "recover-k": list(itertools.combinations(range(1, n + 1), self.K)),
            "recover-d": list(itertools.combinations(range(1, n + 1), self.D)),
        }

    def inputs(self, r: int):
        rng = rng_for(self.seed, r)
        m = self.D - self.K + 1
        picks = rng.choice(self.Q**m, size=2, replace=False)
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        amps /= np.linalg.norm(amps)
        secret = [
            (tuple(int(x) for x in np.unravel_index(int(i), (self.Q,) * m)), complex(a))
            for i, a in zip(picks, amps)
        ]
        sessions = []
        for mode, count in self.SESSIONS:
            pool = self.subsets[mode]
            for i in rng.choice(len(pool), size=count, replace=False):
                sessions.append((mode, pool[int(i)]))
        return secret, sessions

    def run_round(self, inputs, timer: Timer, tally: refcheck.Tally) -> None:
        qtss, (k, d, q) = self.qtss, (self.K, self.D, self.Q)
        secret_branches, sessions = inputs
        secret = qtss.SparseState.from_branches(q, secret_branches)
        try:
            with timer.timed("bench.deal", check=False):
                dealt = qtss.deal(secret, self.p)
        except Exception as exc:  # a failing program call is counted, not fatal
            for mode, subset in sessions:
                tally.record_error(f"deal for {mode} {subset}", exc)
            return
        expected = len(secret_branches) * refcheck.branch_count(k, d, q)
        if dealt.state.num_branches != expected:
            tally.note([f"deal: {dealt.state.num_branches} branches, expected {expected}"])
        for mode, subset in sessions:
            recover = qtss.recover_from_d if mode == "recover-d" else qtss.recover_from_k
            try:
                with timer.timed("bench.check", check=True):
                    result = recover(dealt, subset)
                    rho = result.state.partial_trace(result.secret_registers)
                    fid = qtss.fidelity(rho, secret)
                    purity = rho.purity()
            except Exception as exc:  # a failing program call is counted, not fatal
                tally.record_error(f"{mode} {subset}", exc)
                continue
            problems = refcheck.recovery_problems(
                k, d, q, mode, subset, secret_branches, rho.matrix, result.transcript
            )
            if fid < 1.0 - refcheck.TOL or abs(purity - 1.0) > refcheck.TOL:
                problems.append(f"{mode} {subset}: program reports fidelity {fid}, purity {purity}")
            tally.record(problems)
            result = rho = None  # free the session's state before the next one


class Secrecy:
    """secrecy_check on default_secret_pairs: per round, one subset of every
    (scheme, size) class within the dimension cap, each class walking its
    subsets in a seeded order."""

    SCHEMES = ((3, 4, 7), (4, 5, 11))
    DIM_CAP = 4096
    # Subsets of schemes this small are also checked against I/dim every
    # round; larger ones only in the first round, since that check deals
    # once more.
    CHEAP_BRANCHES = 100_000

    def __init__(self, qtss, seed: int) -> None:
        self.qtss = qtss
        self.seed = seed
        self.classes = []
        for k, d, q in self.SCHEMES:
            p = qtss.make_params(k, d, q)
            pairs = qtss.default_secret_pairs(p, seed=seed)
            m, n = d - k + 1, 2 * k - 1
            for size in range(1, k):
                if q ** (m * size) > self.DIM_CAP:
                    continue
                subsets = list(itertools.combinations(range(1, n + 1), size))
                order = rng_for(seed, k, d, q, size).permutation(len(subsets))
                self.classes.append((p, pairs, [subsets[int(i)] for i in order]))

    def inputs(self, r: int):
        checks = []
        for p, pairs, subsets in self.classes:
            digits = tuple(int(x) for x in rng_for(self.seed, r, p.q).integers(0, p.q, size=p.m))
            checks.append((p, pairs, subsets[r % len(subsets)], digits))
        return r, checks

    def run_round(self, inputs, timer: Timer, tally: refcheck.Tally) -> None:
        qtss = self.qtss
        r, checks = inputs
        for p, pairs, subset, digits in checks:
            try:
                with timer.timed("bench.check", check=True):
                    report = qtss.secrecy_check(p, subset, pairs)
            except Exception as exc:  # a failing program call is counted, not fatal
                tally.record_error(f"secrecy {subset}", exc)
                continue
            distinct = len({id(s) for pair in pairs for s in pair})
            problems = refcheck.secrecy_problems(p.k, p.d, p.q, subset, report, distinct)
            if r == 0 or refcheck.branch_count(p.k, p.d, p.q) <= self.CHEAP_BRANCHES:
                regs = sorted(refcheck.share_registers(p.k, p.d, subset, first_only=False))
                rho = qtss.deal(qtss.basis_secret(p, digits), p).state.partial_trace(regs)
                reference = refcheck.secrecy_reference(p.k, p.d, p.q, subset)
                problems += refcheck.state_problems(f"secrecy {subset}", rho.matrix, reference)
            tally.record(problems)


class Report:
    """qtss.cli.run on a fixed basis-exhaustive config, then the JSON report."""

    PARAMS = ((2, 2, 5), (2, 3, 5), (3, 3, 7), (3, 4, 7), (3, 5, 7), (4, 7, 11))
    MODES = ("encode", "recover-d", "recover-k", "costs")
    CAP_BRANCHES = 10_000_000

    def __init__(self, qtss, seed: int) -> None:
        from qtss import cli

        self.cli = cli
        self.cfg = cli.ScenarioConfig(
            params=self.PARAMS,
            modes=self.MODES,
            secrets="basis-exhaustive",
            seed=seed,
            cap_branches=self.CAP_BRANCHES,
        )
        self.expected = refcheck.expected_records(self.PARAMS, self.MODES, self.CAP_BRANCHES)
        self.checks = sum(rec["checks"] for rec in self.expected)

    def inputs(self, r: int):
        return self.cfg

    def run_round(self, cfg, timer: Timer, tally: refcheck.Tally) -> None:
        try:
            with timer.timed("bench.report", check=False):
                data = self.cli.run(cfg).to_json_bytes()
        except Exception as exc:  # a failing program call is counted, not fatal
            tally.record_error("cli.run", exc, weight=self.checks)
            return
        per_record = refcheck.report_problems(json.loads(data), self.expected)
        for want, problems in zip(self.expected, per_record):
            if want["checks"]:
                tally.record(problems, weight=want["checks"])
            else:
                tally.note(problems)
        timer.checks.append(timer.round_s / self.checks)


WORKLOADS = {"recover-bulk": RecoverBulk, "secrecy": Secrecy, "report": Report}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def install_tracer(tracer: Tracer, dealt_keys: set) -> None:
    """Wrap the public functions of every module; deals add their
    (params, secret) key to ``dealt_keys``."""
    from qtss import cli, gf, protocol, qsim, staircase

    def relabel(args, kwargs, result):
        labels = args[0].labels
        tracer.add("qsim.relabel.branches", labels.shape[0])
        tracer.add("qsim.relabel.label_bytes", labels.size * labels.itemsize)

    def dealt(args, kwargs, result):
        secret = args[0] if args else kwargs["secret"]
        p = args[1] if len(args) > 1 else kwargs["p"]
        tracer.add("protocol.deal.branches", result.state.num_branches)
        dealt_keys.add((p.k, p.d, p.q, secret.labels.tobytes(), secret.amps.tobytes()))

    def recovered(args, kwargs, result):
        tracer.add("protocol.recover.ops", len(result.transcript.operations))

    tracer.patch_method(gf.FieldMatrix, "inverse", "gf.inverse")
    tracer.patch_method(gf.FieldMatrix, "__matmul__", "gf.matmul")
    tracer.patch_function(staircase, "encode_classical", "staircase.encode_classical")
    tracer.patch_method(qsim.SparseState, "apply_affine", "qsim.apply_affine", relabel)
    tracer.patch_method(
        qsim.SparseState, "apply_controlled_add", "qsim.apply_controlled_add", relabel
    )
    tracer.patch_method(
        qsim.SparseState,
        "partial_trace",
        "qsim.partial_trace",
        lambda a, kw, res: tracer.add("qsim.partial_trace.branches", a[0].num_branches),
    )
    tracer.patch_function(
        qsim,
        "trace_distance",
        "qsim.trace_distance",
        lambda a, kw, res: tracer.peak("qsim.trace_distance.max_dim", a[0].dim),
    )
    tracer.patch_function(qsim, "fidelity", "qsim.fidelity")
    tracer.patch_function(protocol, "deal", "protocol.deal", dealt)
    tracer.patch_function(protocol, "recover_from_d", "protocol.recover_from_d", recovered)
    tracer.patch_function(protocol, "recover_from_k", "protocol.recover_from_k", recovered)
    tracer.patch_function(protocol, "secrecy_check", "protocol.secrecy_check")
    tracer.patch_function(cli, "run", "cli.run")
    tracer.patch_method(
        cli.RunReport,
        "to_json_bytes",
        "cli.to_json_bytes",
        lambda a, kw, res: tracer.add("cli.report.bytes", len(res)),
    )


LAYER_CALLS = (
    "gf.inverse", "gf.matmul", "staircase.encode_classical", "qsim.apply_affine",
    "qsim.apply_controlled_add", "qsim.partial_trace", "qsim.trace_distance",
    "protocol.deal", "protocol.secrecy_check",
)
LAYER_SELF = LAYER_CALLS + (
    "qsim.fidelity", "protocol.recover_from_d", "protocol.recover_from_k",
    "cli.run", "cli.to_json_bytes",
)
LAYER_COUNTS = (
    "qsim.relabel.branches", "qsim.relabel.label_bytes", "qsim.partial_trace.branches",
    "protocol.deal.branches", "protocol.recover.ops", "cli.report.bytes",
)


def layer_figures(tracer: Tracer, rounds: int) -> dict:
    """Per-round means of the traced calls, self times and counts."""
    out = {}
    for name in LAYER_CALLS:
        out[f"{name}.calls"] = tracer.calls[name] / rounds
    for name in LAYER_SELF:
        out[f"{name}.self_s"] = tracer.self_s[name] / rounds
    for name in LAYER_COUNTS:
        out[name] = tracer.counts[name] / rounds
    out["qsim.trace_distance.max_dim"] = tracer.maxima.get("qsim.trace_distance.max_dim", 0)
    # Distinct (params, secret) pairs are counted within each round.
    deals = tracer.calls["protocol.deal"]
    distinct = tracer.counts["protocol.deal.distinct"]
    out["protocol.deal.distinct_ratio"] = distinct / deals if deals else 0.0
    return out


# ---------------------------------------------------------------------------
# Machine
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info() -> dict:
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("probe", "run", "trace"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() at spawn")
    ap.add_argument("--spans", default=None, help="where a trace run writes its spans")
    args = ap.parse_args(argv)

    qtss = import_program()
    workload = WORKLOADS[args.workload](qtss, args.seed)
    inputs = workload.inputs(0)
    setup_s = time.monotonic() - args.spawned
    if args.mode == "probe":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tally = refcheck.Tally()
    rounds: list[float] = []
    traced_rounds: list[float] = []
    checks: list[float] = []
    tracer = Tracer()
    dealt_keys: set = set()

    def run_round(inputs, traced: bool) -> None:
        timer = Timer(tracer if traced else None)
        if traced:
            dealt_keys.clear()
            install_tracer(tracer, dealt_keys)
        try:
            workload.run_round(inputs, timer, tally)
        finally:
            tracer.uninstall()
        if traced:
            tracer.add("protocol.deal.distinct", len(dealt_keys))
        (traced_rounds if traced else rounds).append(timer.round_s)
        checks.extend(timer.checks)

    # Another round (or pair of rounds) starts while the run would then end
    # nearer to --seconds than it does now, judged by the last one's length.
    start = time.perf_counter()
    last_s = 0.0

    def more_time() -> bool:
        return time.perf_counter() - start + last_s / 2 < args.seconds

    if args.mode == "run":
        r = 0
        while not rounds or more_time():
            t = time.perf_counter()
            run_round(workload.inputs(r) if r else inputs, traced=False)
            last_s = time.perf_counter() - t
            r += 1
    else:
        # One untraced warm-up round, then pairs of the same round untraced
        # and traced, in alternating order, so the two sides of each pair
        # see the same warm caches and nearly the same machine.
        workload.run_round(inputs, Timer(None), tally)
        r = 1
        while not traced_rounds or more_time():
            t = time.perf_counter()
            inputs = workload.inputs(r)
            for traced in (False, True) if r % 2 else (True, False):
                run_round(inputs, traced)
            last_s = time.perf_counter() - t
            r += 1

    out = {
        "setup_s": setup_s,
        "rounds": rounds,
        "checks": checks,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "problems": tally.problems,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
    }
    if traced_rounds:
        out["traced_rounds"] = traced_rounds
        out["layers"] = layer_figures(tracer, len(traced_rounds))
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload, "seed": args.seed})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
