"""Batch front-end: scenario sweeps, the worked demo, and cost tables.

Verbs::

    qtss run <config>      # sweep the configured scenarios, emit a report
    qtss demo [--secret]   # step-by-step walkthrough of the smallest scheme
    qtss costs <k> <d> <q> # communication cost table for one parameter set

Config files are flat ``key = value`` text; ``#`` starts a comment::

    params = 2,3,5; 3,4,7        # (k, d, q) triples
    modes = encode, recover-d, recover-k, secrecy, costs, mixed
    secrets = random:4           # or: basis-exhaustive
    seed = 7
    output = report.json
    format = json                # or: csv
    cap_branches = 10000000
    cap_dim = 4096

Reports are deterministic for a fixed config and seed: the JSON bytes are
identical across runs (wall-clock timings go to stderr only, never into the
report).  Scenarios that would exceed a cap are reported with status
``cap-exceeded`` and do not fail the run.  ``--out`` creates missing parent
directories.  Exit codes: 0 all scenarios pass; 1 some invariant failed; 2
invalid input, reported as ``config error: ...`` on stderr: a config that is
missing, unreadable, not UTF-8 or invalid, bad ``costs`` parameters or
``demo`` secret, or an output path that cannot be written.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import sys
import time
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from .protocol import (
    basis_secret,
    convert_to_mixed,
    cost_table,
    deal,
    participant_sets,
    recover_from_d,
    recover_from_k,
    recovery_session,
    run_session,
    secrecy_check,
)
from .qsim import (
    DEFAULT_DIM_CAP,
    MATCH_TOL,
    NORM_TOL,
    DimensionCapError,
    SparseState,
    factor_check,
    fidelity,
    random_state,
    superpose,
)
from .staircase import (
    DEFAULT_BRANCH_CAP,
    EnumerationCapError,
    ParameterError,
    SchemeParams,
    codeword_rows,
    make_params,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunRecord",
    "RunReport",
    "ALL_MODES",
    "DEFAULT_GRID",
    "parse_config",
    "load_config",
    "run",
    "demo",
    "emit_cost_table",
    "main",
]

SCHEMA_VERSION = 1

ALL_MODES = ("encode", "recover-d", "recover-k", "secrecy", "costs", "mixed")

# Parameter sets with q > n whose sweeps stay within the default caps for
# encoding (branch counts) except the last, which is costs-only territory.
DEFAULT_GRID = (
    (2, 2, 5),
    (2, 3, 5),
    (3, 3, 7),
    (3, 4, 7),
    (3, 5, 7),
    (4, 5, 11),
    (4, 7, 11),
)


class ConfigError(ValueError):
    """The scenario configuration is malformed or invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One ``qtss run`` sweep; each field is a config key of the same name.

    ``cap_branches`` bounds what one scenario deals: with ``random:<count>``
    the branches of one dealt state, with ``basis-exhaustive`` the total over
    the sweep's q**m basis secrets, each of which is dealt on its own.
    """

    params: tuple[tuple[int, int, int], ...]
    modes: tuple[str, ...] = ALL_MODES
    secrets: str = "random:3"
    seed: int = 0
    output: str | None = None
    format: str = "json"
    cap_branches: int = DEFAULT_BRANCH_CAP
    cap_dim: int = DEFAULT_DIM_CAP

    def __post_init__(self) -> None:
        if not self.params:
            raise ConfigError("config names no parameter sets")
        for triple in self.params:
            if not isinstance(triple, (tuple, list)) or [type(x) for x in triple] != [int] * 3:
                raise ConfigError(f"params entry {triple!r} is not three ints")
            try:
                make_params(*triple)
            except ParameterError as exc:
                raise ConfigError(f"invalid params {triple}: {exc}") from exc
        if not self.modes:
            raise ConfigError("config names no modes")
        bad = [m for m in self.modes if m not in ALL_MODES]
        if bad:
            raise ConfigError(f"unknown modes {bad}; valid: {list(ALL_MODES)}")
        for name in ("params", "modes"):
            values = getattr(self, name)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{name} names {repeated} more than once")
        if self.format not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.format!r}")
        self.random_count  # raises ConfigError on a malformed ``secrets``
        for name in ("seed", "cap_branches", "cap_dim"):
            if type(getattr(self, name)) is not int:  # so neither a bool nor a float
                raise ConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for name in ("cap_branches", "cap_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        paired = [m for m in self.modes if m in ("secrecy", "mixed")]
        if paired and self.random_count == 1:
            raise ConfigError(f"modes {paired} compare secrets in pairs; {self.secrets!r} draws one")

    @property
    def random_count(self) -> int | None:
        """Random secrets per scenario, or None for ``basis-exhaustive``."""
        if self.secrets == "basis-exhaustive":
            return None
        if not self.secrets.startswith("random:"):
            raise ConfigError(f"secrets must be 'basis-exhaustive' or 'random:<count>', got {self.secrets!r}")
        try:
            count = int(self.secrets.removeprefix("random:"))
        except ValueError as exc:
            raise ConfigError(f"bad random secret count in {self.secrets!r}") from exc
        if count < 1:
            raise ConfigError("random secret count must be positive")
        return count

    def snapshot(self) -> dict:
        """The config as the report records it: every field but ``output``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "output"}


def _parse_params(text: str) -> tuple[tuple[int, int, int], ...]:
    triples = []
    for chunk in text.replace(";", " ").split():
        parts = chunk.split(",")
        if len(parts) != 3:
            raise ConfigError(f"params entry {chunk!r} is not a k,d,q triple")
        try:
            triples.append(tuple(int(x) for x in parts))
        except ValueError as exc:
            raise ConfigError(f"params entry {chunk!r} is not numeric") from exc
    return tuple(triples)


# One converter per ScenarioConfig field, in the order values are parsed (so
# a config with several bad values always reports the same one first).
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "params": _parse_params,
    "modes": lambda text: tuple(text.replace(",", " ").split()),
    "secrets": str,
    "seed": int,
    "cap_branches": int,
    "cap_dim": int,
    "output": str,
    "format": str,
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat key = value config grammar; keys are case-insensitive
    and each may appear once."""
    values: dict[str, str] = {}
    key_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        if key in key_line:
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {key_line[key]}")
        key_line[key] = lineno
        values[key] = val.strip()

    for f in fields(ScenarioConfig):
        if f.default is MISSING and f.name not in values:
            raise ConfigError(f"config must set {f.name!r}")
    kwargs = {}
    for key, convert in _CONVERTERS.items():
        if key not in values:
            continue
        try:
            kwargs[key] = convert(values.pop(key))
        except ConfigError:
            raise
        except ValueError as exc:  # only the int fields' converter raises it
            raise ConfigError(f"{key} must be an integer") from exc
    if values:
        raise ConfigError(f"unknown config keys: {sorted(values)}")
    return ScenarioConfig(**kwargs)


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


# ---------------------------------------------------------------------------
# Run records
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    """Outcome of one (parameter set, mode) scenario."""

    k: int
    n: int
    d: int
    q: int
    m: int
    mode: str
    status: str = "pass"  # pass | fail | cap-exceeded
    detail: str = ""
    subsets_tested: int = 0
    secrets_tested: int = 0
    min_fidelity: float | None = None
    max_trace_distance: float | None = None
    qudit_cost: int | None = None
    channel_dim: int | None = None
    bound_dim: float | int | None = None
    optimal: bool | None = None
    metrics: dict = field(default_factory=dict)
    wall_time: float = 0.0  # stderr summary only; never serialized

    def fail(self, detail: str) -> None:
        self.status = "fail"
        self.detail = detail if not self.detail else f"{self.detail}; {detail}"

    def to_json_obj(self) -> dict:
        """The record as the report writes it: every field but ``wall_time``."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time"}


@dataclass
class RunReport:
    config: ScenarioConfig
    records: list[RunRecord]

    @property
    def overall_pass(self) -> bool:
        return all(r.status != "fail" for r in self.records)

    def to_json_bytes(self) -> bytes:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.snapshot(),
            "records": [r.to_json_obj() for r in self.records],
            "overall_pass": self.overall_pass,
        }
        return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()

    def to_csv_text(self) -> str:
        """One row per record: the JSON record's keys but ``metrics``."""
        cols = [f.name for f in fields(RunRecord) if f.name not in ("metrics", "wall_time")]
        return _csv_text(cols, [r.to_json_obj() for r in self.records])


def _csv_text(cols: Sequence[str], rows: Iterable[dict]) -> str:
    """A header of ``cols``, then each row's values in that order (None as empty)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(cols)
    for row in rows:
        writer.writerow(["" if row[c] is None else row[c] for c in cols])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Secret selection
# ---------------------------------------------------------------------------


def _scenario_rng(seed: int, triple: tuple[int, int, int], mode: str) -> np.random.Generator:
    # Counter-based generator keyed on (seed, params, mode) so scenario order
    # cannot perturb the draws.
    entropy = (seed, *triple, ALL_MODES.index(mode) + 1)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def _pick_secrets(cfg: ScenarioConfig, p: SchemeParams, mode: str) -> list[SparseState]:
    """Secrets to test for one scenario.

    Random secrets are drawn uniformly on the unit sphere over all q**m
    basis labels when the resulting state fits the branch cap, otherwise on
    a random 2-label support so superposition behaviour is still exercised.
    Raises :class:`EnumerationCapError` if the caps forbid the sweep.
    """
    count = cfg.random_count
    per_basis = p.branch_count
    full_dim = p.q**p.m
    if count is None:
        support = full_dim
    else:
        support = full_dim if full_dim * per_basis <= cfg.cap_branches else 2
    if support * per_basis > cfg.cap_branches:
        raise EnumerationCapError(
            f"branch count {support * per_basis} ({support} secret labels x {per_basis} "
            f"per basis secret) exceeds cap {cfg.cap_branches}"
        )
    if count is None:
        return [basis_secret(p, digits) for digits in itertools.product(range(p.q), repeat=p.m)]
    rng = _scenario_rng(cfg.seed, (p.k, p.d, p.q), mode)
    return [random_state(p.q, p.m, rng, support=support) for _ in range(count)]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _recovery_sweep(
    cfg: ScenarioConfig,
    p: SchemeParams,
    rec: RunRecord,
    secrets: Sequence[SparseState],
    modes: Sequence[str],
    retained: Sequence[int],
) -> tuple[float, int]:
    """Build the session of every participant set of each recovery mode
    among the retained participants once, and check its cost; then deal each
    secret once and run every session on it.  Returns the minimum fidelity
    and the number of sets."""
    expected_cost = {r.participants: r.qudits for r in cost_table(p)}
    sessions = [(s, recovery_session(p, m, s)) for m in modes for s in participant_sets(p, m, retained)[0]]
    for subset, transcript in sessions:
        if transcript.qudit_cost != expected_cost[len(subset)]:
            rec.fail(f"subset {subset}: cost {transcript.qudit_cost} != {expected_cost[len(subset)]}")
    min_fid = 1.0
    for secret in secrets:
        dealt = convert_to_mixed(deal(secret, p, cfg.cap_branches), len(retained))
        for subset, transcript in sessions:
            result = run_session(dealt, transcript)
            rho = result.state.partial_trace(result.secret_registers, cfg.cap_dim)
            fid = fidelity(rho, secret)
            min_fid = min(min_fid, fid)
            if fid < 1.0 - MATCH_TOL:
                rec.fail(f"subset {subset}: fidelity {fid} below 1 - 1e-10")
            if abs(rho.purity() - 1.0) > MATCH_TOL:
                rec.fail(f"subset {subset}: secret block not disentangled")
    return min_fid, len(sessions)


def _secrecy_sweep(
    cfg: ScenarioConfig,
    p: SchemeParams,
    rec: RunRecord,
    secrets: Sequence[SparseState],
    retained: Sequence[int],
) -> tuple[float, int, int]:
    """Compare the reduced states of every unauthorized subset of the retained
    participants across consecutive secret pairs; with an odd count the last
    secret is paired with the first, so every secret is compared.

    Returns the maximum trace distance, the number of subsets checked and the
    number skipped for exceeding the dimension cap, which is also recorded
    as the ``subsets_over_dim_cap`` metric when nonzero.
    """
    pairs = list(zip(secrets[::2], secrets[1::2]))
    if len(secrets) % 2:
        pairs.append((secrets[-1], secrets[0]))
    subsets, skipped = participant_sets(p, "secrecy", retained, cfg.cap_dim)
    max_td = 0.0
    for subset in subsets:
        report = secrecy_check(p, subset, pairs, cfg.cap_dim, cfg.cap_branches)
        max_td = max(max_td, report.max_trace_distance)
        if not report.passed:
            rec.fail(f"subset {subset}: trace distance {report.max_trace_distance} above 1e-10")
    if skipped:
        rec.metrics["subsets_over_dim_cap"] = skipped
    return max_td, len(subsets), skipped


# ---------------------------------------------------------------------------
# Mode executors
# ---------------------------------------------------------------------------


def _sorted_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` in lexicographic order, in their own dtype."""
    return rows[np.lexsort(rows.T[::-1])]


def _run_encode(cfg: ScenarioConfig, p: SchemeParams, rec: RunRecord) -> None:
    """Deal every secret and check its branch count and norm; where cheap,
    cross-check the dealer against the classical encoding: the dealt labels
    of one basis secret, sorted, must equal its :func:`codeword_rows`,
    sorted, which checks them as a multiset.  The codewords are compared in
    the labels' dtype, which holds every residue."""
    secrets = _pick_secrets(cfg, p, "encode")
    worst_norm = 0.0
    for secret in secrets:
        dealt = deal(secret, p, cfg.cap_branches)
        # The branch count of the written-out arrays, not the encoding's formula.
        expected, written = secret.num_branches * p.branch_count, len(dealt.state.amps)
        if written != expected:
            rec.fail(f"expected {expected} branches, got {written}")
        worst_norm = max(worst_norm, abs(dealt.state.norm_sq - 1.0))
        rec.secrets_tested += 1
    # Cross-check the dealer against per-codeword encoding where cheap.
    if p.branch_count <= 50_000:
        digits = (0,) * (p.m - 1) + (1,)
        basis = basis_secret(p, digits)
        labels = deal(basis, p, cfg.cap_branches).state.labels
        codewords = codeword_rows(digits, p, cfg.cap_branches).astype(labels.dtype)
        if not np.array_equal(_sorted_rows(labels), _sorted_rows(codewords)):
            rec.fail("dealt branches disagree with codeword enumeration")
    rec.metrics["max_norm_error"] = worst_norm
    if worst_norm > NORM_TOL:
        rec.fail(f"norm error {worst_norm} above {NORM_TOL}")


def _run_recovery(cfg: ScenarioConfig, p: SchemeParams, rec: RunRecord) -> None:
    secrets = _pick_secrets(cfg, p, rec.mode)
    rec.min_fidelity, rec.subsets_tested = _recovery_sweep(
        cfg, p, rec, secrets, (rec.mode,), range(1, p.n + 1)
    )
    rec.secrets_tested = len(secrets)
    # cost_table lists the k-share row, then the d-share row unless d = k.
    row = cost_table(p)[-1 if rec.mode == "recover-d" else 0]
    rec.qudit_cost = row.qudits
    rec.channel_dim = row.channel_dim
    if rec.mode == "recover-d":
        rec.bound_dim = row.bound_dim
        rec.optimal = row.optimal


def _run_secrecy(cfg: ScenarioConfig, p: SchemeParams, rec: RunRecord) -> None:
    secrets = _pick_secrets(cfg, p, "secrecy")
    retained = range(1, p.n + 1)
    rec.max_trace_distance, rec.subsets_tested, skipped = _secrecy_sweep(cfg, p, rec, secrets, retained)
    rec.secrets_tested = len(secrets)
    if rec.subsets_tested == 0 and skipped:
        rec.status = "cap-exceeded"
        rec.detail = f"all {skipped} subsets exceed the dimension cap {cfg.cap_dim}"


def _run_costs(cfg: ScenarioConfig, p: SchemeParams, rec: RunRecord) -> None:
    rows = cost_table(p)
    rec.metrics["rows"] = [asdict(r) for r in rows]
    row = rows[-1]  # the d-share row, or the one row when d = k
    rec.qudit_cost = row.qudits
    rec.channel_dim = row.channel_dim
    rec.bound_dim = row.bound_dim
    rec.optimal = row.optimal
    if not all(r.optimal for r in rows):
        rec.fail("achieved channel dimension misses the lower bound")


def _run_mixed(cfg: ScenarioConfig, p: SchemeParams, rec: RunRecord) -> None:
    """Re-verify recovery and secrecy after discarding shares down to d, on
    at most the first 4 secrets.

    Recovery sweeps each mode of :func:`cost_table` (``recover-k`` alone when
    d = k, as the procedures coincide), and ``subsets_tested`` counts each
    recovery set and each secrecy set checked once, as the other modes do.
    """
    rec.metrics["retained_shares"] = p.d
    secrets = _pick_secrets(cfg, p, "mixed")[:4]
    retained = range(1, p.d + 1)
    modes = [row.mode for row in cost_table(p)]
    rec.min_fidelity, sets = _recovery_sweep(cfg, p, rec, secrets, modes, retained)
    rec.max_trace_distance, checked, _ = _secrecy_sweep(cfg, p, rec, secrets, retained)
    rec.subsets_tested = sets + checked
    rec.secrets_tested = len(secrets)


_MODE_RUNNERS = {
    "encode": _run_encode,
    "recover-d": _run_recovery,
    "recover-k": _run_recovery,
    "secrecy": _run_secrecy,
    "costs": _run_costs,
    "mixed": _run_mixed,
}


def run(cfg: ScenarioConfig) -> RunReport:
    """Execute all requested modes over all parameter sets."""
    records: list[RunRecord] = []
    for triple in cfg.params:
        p = make_params(*triple)
        modes = list(cfg.modes)
        if p.d == p.k and "recover-d" in modes and "recover-k" in modes:
            # The procedures coincide when d = k; a single record covers both.
            modes.remove("recover-d")
        for mode in modes:
            rec = RunRecord(k=p.k, n=p.n, d=p.d, q=p.q, m=p.m, mode=mode)
            if mode == "recover-k" and p.d == p.k and "recover-d" in cfg.modes:
                rec.detail = "d = k: bandwidth-efficient recovery coincides with threshold recovery"
            start = time.perf_counter()
            try:
                _MODE_RUNNERS[mode](cfg, p, rec)
            except (EnumerationCapError, DimensionCapError) as exc:
                rec.status = "cap-exceeded"
                rec.detail = str(exc)
            rec.wall_time = time.perf_counter() - start
            records.append(rec)
    return RunReport(cfg, records)


# ---------------------------------------------------------------------------
# Cost tables
# ---------------------------------------------------------------------------


_COST_COLUMNS = ("k", "n", "d", "q", "m", "mode", "qudits", "ratio", "bound_dim", "optimal")


def emit_cost_table(param_sets: Sequence[tuple[int, int, int]]) -> list[dict]:
    """One dict of ``_COST_COLUMNS`` per parameter set and recovery mode."""
    rows = []
    for triple in param_sets:
        p = make_params(*triple)
        for r in cost_table(p):
            row = {**asdict(p), **asdict(r)}
            rows.append({c: row[c] for c in _COST_COLUMNS})
    return rows


# ---------------------------------------------------------------------------
# Demo
# ---------------------------------------------------------------------------


def _demo_secret(p: SchemeParams, spec: str) -> SparseState:
    if spec == "superposition":
        a = basis_secret(p, (1, 0))
        b = basis_secret(p, (0, 1))
        return superpose([(a, 1 / np.sqrt(2)), (b, 1j / np.sqrt(2))])
    if len(spec) != p.m or not all(c.isdecimal() and int(c) < p.q for c in spec):
        raise ConfigError(f"demo secret must be {p.m} digits below {p.q}, or 'superposition'")
    return basis_secret(p, tuple(int(c) for c in spec))


def demo(secret_spec: str = "10", stream: TextIO | None = None) -> int:
    """Walk through the smallest interesting scheme, printing each step."""
    out = stream or sys.stdout
    p = make_params(2, 3, 5)
    secret = _demo_secret(p, secret_spec)
    cost_rows = {r.participants: r for r in cost_table(p)}

    def w(line: str = "") -> None:
        print(line, file=out)

    w(f"Threshold scheme ((k={p.k}, n={p.n}, d={p.d})) over F_{p.q}; secret is m={p.m} qudits.")
    w(f"Secret state: {secret_spec!r} ({secret.num_branches} basis component(s))")
    w()
    dealt = deal(secret, p)
    w(f"Dealer output: {dealt.state.num_branches} branches over {dealt.state.num_registers} registers")
    w(f"(participant i holds registers {{2i-2, 2i-1}}; one codeword digit per register)")
    dump_lines = dealt.state.dump().splitlines()
    shown = dump_lines[:8]
    w("Branch dump" + (f" (first {len(shown)} of {len(dump_lines)}):" if len(dump_lines) > len(shown) else ":"))
    for line in shown:
        w("  " + line)
    w()

    def show_recovery(title: str, result) -> None:
        t = result.transcript
        w(title)
        w(f"  registers received: {sorted(t.accessed.items())}")
        for idx, op in enumerate(t.operations, start=1):
            w(f"  {idx}. on targets {op.targets}" + (f", controls {op.sources}" if op.sources else ""))
            w(f"     {op.note}")
        rho = result.state.partial_trace(result.secret_registers)
        fid = fidelity(rho, secret)
        ok = factor_check(result.state, result.secret_registers, secret)
        w(f"  secret registers: {result.secret_registers}; fidelity = {fid:.10f}")
        w(f"  fully disentangled from the rest: {ok}")
        row = cost_rows[len(t.accessed)]
        w(
            f"  communication: {t.qudit_cost} qudits (channel dimension {t.channel_dim})"
            + (f"; lower bound {row.bound_dim} -> optimal" if row.optimal else "")
        )
        w()

    show_recovery(
        f"Recovery from all d={p.d} participants, one qudit each:",
        recover_from_d(dealt, [1, 2, 3]),
    )
    show_recovery(
        f"Recovery from k={p.k} participants (1 and 2), all their qudits:",
        recover_from_k(dealt, [1, 2]),
    )
    w("Residual registers carry a secret-independent state; any superposed")
    w("secret therefore comes out intact, as the fidelity line shows.")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qtss", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="run the scenarios in a config file")
    p_run.add_argument("config", help="path to a key = value scenario config")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--out", dest="output", default=None, help="override the report output path")
    p_run.add_argument("--format", choices=("json", "csv"), default=None)
    p_run.add_argument("--cap-branches", type=int, default=None)
    p_run.add_argument("--cap-dim", type=int, default=None)

    p_demo = sub.add_parser("demo", help="step-by-step walkthrough of the ((2,3,3)) scheme over F_5")
    p_demo.add_argument("--secret", default="10", help="secret digits, or 'superposition'")

    p_costs = sub.add_parser("costs", help="communication cost table for one parameter set")
    p_costs.add_argument("k", type=int)
    p_costs.add_argument("d", type=int)
    p_costs.add_argument("q", type=int)
    p_costs.add_argument("--format", choices=("json", "csv"), default="csv")
    p_costs.add_argument("--out", default=None)
    return parser


def _writable(path: str) -> Path:
    """``path``, once its parent directories exist and it can be written.

    Raises :class:`ConfigError` otherwise; an existing file is not touched.
    """
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc
    if target.is_dir():
        raise ConfigError(f"cannot write {path}: it is a directory")
    if not os.access(target if target.exists() else target.parent, os.W_OK):
        raise ConfigError(f"cannot write {path}: permission denied")
    return target


def _write_output(path: str | None, payload: bytes) -> None:
    """Write ``payload`` to ``path``, creating parent directories, or to stdout."""
    if not path:
        sys.stdout.write(payload.decode())
        return
    target = _writable(path)
    try:
        target.write_bytes(payload)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.verb == "run":
            overrides = {
                f.name: getattr(args, f.name)
                for f in fields(ScenarioConfig)
                if getattr(args, f.name, None) is not None
            }
            cfg = replace(load_config(args.config), **overrides)
            if cfg.output:
                _writable(cfg.output)  # fail before the sweep, not after it
            report = run(cfg)
            payload = (
                report.to_json_bytes()
                if cfg.format == "json"
                else report.to_csv_text().encode()
            )
            _write_output(cfg.output, payload)
            for rec in report.records:
                marker = {"pass": "ok  ", "fail": "FAIL", "cap-exceeded": "cap "}[rec.status]
                print(
                    f"[{marker}] k={rec.k} d={rec.d} q={rec.q} {rec.mode}: "
                    f"{rec.detail or 'all checks passed'} ({rec.wall_time:.2f}s)",
                    file=sys.stderr,
                )
            return 0 if report.overall_pass else 1
        if args.verb == "demo":
            return demo(args.secret)
        rows = emit_cost_table([(args.k, args.d, args.q)])  # the costs verb
        if args.format == "json":
            payload = json.dumps(rows, sort_keys=True, indent=2) + "\n"
        else:
            payload = _csv_text(_COST_COLUMNS, rows)
        _write_output(args.out, payload.encode())
        return 0
    except (ConfigError, ParameterError, DimensionCapError) as exc:  # all mean the input was invalid
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
