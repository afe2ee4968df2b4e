"""Reference computations and output checks for the benchmark.

Nothing here imports qtss.  The expected values come from the paper's
construction re-derived in integer arithmetic: the n x d Vandermonde matrix on
nodes 1..n times the staircase message matrix, ranks over F_q by Gaussian
elimination, and channel dimensions as exact integer powers.  Each ``*_problems``
function returns a list of human-readable problems; an empty list is a pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-10


@dataclass
class Tally:
    """Attempted and failed checks of one run, with the first problems seen.

    ``failed`` counts checks whose call raised or whose output was wrong;
    ``wrong`` counts wrong outputs only, which make the run incorrect.
    """

    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    problems: list[str] = field(default_factory=list)
    KEEP = 20

    def _keep(self, problems: list[str]) -> None:
        self.problems.extend(problems[: max(0, self.KEEP - len(self.problems))])

    def record(self, problems: list[str], weight: int = 1) -> None:
        """Count ``weight`` checks; all of them fail if the output was wrong."""
        self.attempted += weight
        if problems:
            self.failed += weight
            self.wrong += weight
            self._keep(problems)

    def note(self, problems: list[str]) -> None:
        """Wrong output of a call that is not itself a check, such as a deal."""
        if problems:
            self.wrong += 1
            self._keep(problems)

    def record_error(self, what: str, exc: BaseException, weight: int = 1) -> None:
        """Count checks whose program call raised instead of returning."""
        self.attempted += weight
        self.failed += weight
        self._keep([f"{what}: {type(exc).__name__}: {exc}"])


def secret_dim(k: int, d: int, q: int) -> int:
    return q ** (d - k + 1)


def branch_count(k: int, d: int, q: int) -> int:
    """Codewords per basis secret: q**(m*(k-1))."""
    return q ** ((d - k + 1) * (k - 1))


def digits_index(digits, q: int) -> int:
    """Position of a basis label in the dense vector, first digit most significant."""
    idx = 0
    for x in digits:
        idx = idx * q + int(x)
    return idx


def rank_mod(rows: list[list[int]], q: int) -> int:
    """Rank over F_q by row reduction on Python integers."""
    a = [[x % q for x in row] for row in rows]
    rank = 0
    cols = len(a[0]) if a else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(a)) if a[r][c]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][c], -1, q)
        a[rank] = [(x * inv) % q for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][c]:
                f = a[r][c]
                a[r] = [(x - f * y) % q for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


def encoding_matrix(k: int, d: int, q: int) -> list[list[int]]:
    """Coefficients taking (secret, randomness) digits to every share digit.

    Rows are share-major (participant i, column j -> row (i-1)*m + j).  Inputs
    are the m secret digits, then m randomness blocks of k-1 digits each.
    Message column 0 is (secret, block 0); column j >= 1 is m-1 zeros, the
    tail digit j-1 of block 0 (block 0's last m-1 digits), then block j.
    """
    n, m = 2 * k - 1, d - k + 1
    width = m + m * (k - 1)

    def unit(z: int) -> list[int]:
        return [1 if i == z else 0 for i in range(width)]

    def block(j: int, i: int) -> int:
        return m + j * (k - 1) + i

    message = [[None] * m for _ in range(d)]  # entries: input coefficient rows
    for row in range(d):
        message[row][0] = unit(row) if row < m else unit(block(0, row - m))
        for j in range(1, m):
            if row < m - 1:
                message[row][j] = [0] * width
            elif row == m - 1:
                message[row][j] = unit(block(0, (k - m) + (j - 1)))
            else:
                message[row][j] = unit(block(j, row - m))
    rows = []
    for i in range(1, n + 1):
        powers = [pow(i, e, q) for e in range(d)]
        for j in range(m):
            rows.append(
                [sum(powers[r] * message[r][j][z] for r in range(d)) % q for z in range(width)]
            )
    return rows


def share_registers(k: int, d: int, participants, first_only: bool) -> set[int]:
    m = d - k + 1
    regs = set()
    for i in participants:
        regs.update(range((i - 1) * m, (i - 1) * m + (1 if first_only else m)))
    return regs


def secrecy_reference(k: int, d: int, q: int, subset) -> np.ndarray | None:
    """The reduced state every secret must leave on ``subset``, if derivable.

    Returns I / q**(m*|T|) when both conditions hold, else None: the
    complement of T determines every (secret, randomness) input, so branches
    that agree outside T agree everywhere and the reduced state is diagonal;
    and randomness maps onto T's digits, so that diagonal is uniform.
    """
    n, m = 2 * k - 1, d - k + 1
    enc = encoding_matrix(k, d, q)
    members = sorted(set(subset))
    rest = [i for i in range(1, n + 1) if i not in members]
    t_rows = [enc[r][m:] for i in members for r in range((i - 1) * m, i * m)]
    r_rows = [enc[r] for i in rest for r in range((i - 1) * m, i * m)]
    onto = rank_mod(t_rows, q) == m * len(members)
    injective = rank_mod(r_rows, q) == m * k
    if not (onto and injective):
        return None
    dim = q ** (m * len(members))
    return np.eye(dim, dtype=np.complex128) / dim


def recovery_problems(
    k: int,
    d: int,
    q: int,
    mode: str,
    subset,
    secret: list[tuple[tuple[int, ...], complex]],
    rho: np.ndarray,
    transcript,
) -> list[str]:
    """Check one recovery session against the secret the benchmark generated.

    ``secret`` is the list of (digits, amplitude) pairs handed to the program,
    ``rho`` the dense reduced state of the secret block, ``transcript`` the
    program's record of the session.
    """
    m = d - k + 1
    problems = []
    vec = np.zeros(q**m, dtype=np.complex128)
    for digits, amp in secret:
        vec[digits_index(digits, q)] += amp
    vec /= np.linalg.norm(vec)
    if rho.shape != (q**m, q**m):
        return [f"{mode} {subset}: secret block has shape {rho.shape}"]
    fid = float(np.vdot(vec, rho @ vec).real)
    if fid < 1.0 - TOL:
        problems.append(f"{mode} {subset}: fidelity {fid!r} below 1 - {TOL}")
    purity = float(np.sum(np.abs(rho) ** 2))
    if abs(purity - 1.0) > TOL:
        problems.append(f"{mode} {subset}: purity {purity!r} not within {TOL} of 1")

    by_d = mode == "recover-d"
    allowed = share_registers(k, d, subset, first_only=by_d)
    touched = set(transcript.output_registers)
    for op in transcript.operations:
        touched.update(op.targets)
        touched.update(op.sources)
    accessed = {r for regs in transcript.accessed.values() for r in regs}
    if set(transcript.accessed) != set(subset) or accessed != allowed:
        problems.append(f"{mode} {subset}: accessed {dict(transcript.accessed)}")
    if not touched <= allowed:
        problems.append(f"{mode} {subset}: touched registers {sorted(touched - allowed)}")
    cost = d if by_d else m * k
    if transcript.qudit_cost != cost:
        problems.append(f"{mode} {subset}: qudit cost {transcript.qudit_cost} != {cost}")
    # d shares meet the bound M**(d/m) with M = q**m; compare dim**m with M**d
    # so no fractional power is taken.  k shares send M**k.
    dim = transcript.channel_dim
    big_m = secret_dim(k, d, q)
    meets = dim**m == big_m**d if by_d else dim == big_m**k
    if dim != q**cost or not meets:
        problems.append(f"{mode} {subset}: channel dimension {dim} != {q}**{cost}")
    return problems


def state_problems(what: str, rho: np.ndarray, reference: np.ndarray | None) -> list[str]:
    """Elementwise comparison of a reduced state with its reference."""
    if reference is None:
        return [f"{what}: no reference state derivable"]
    if rho.shape != reference.shape:
        return [f"{what}: shape {rho.shape} != {reference.shape}"]
    err = float(np.max(np.abs(rho - reference)))
    if err > TOL:
        return [f"{what}: reduced state differs from the reference by {err!r}"]
    return []


def secrecy_problems(k: int, d: int, q: int, subset, report, secrets: int) -> list[str]:
    problems = []
    if set(report.subset) != set(subset):
        problems.append(f"secrecy {subset}: report covers {sorted(report.subset)}")
    if not report.max_trace_distance <= TOL:
        problems.append(f"secrecy {subset}: trace distance {report.max_trace_distance!r}")
    if report.secrets_tested != secrets:
        problems.append(f"secrecy {subset}: {report.secrets_tested} secrets, expected {secrets}")
    return problems


def expected_records(params, modes, cap_branches: int) -> list[dict]:
    """What a basis-exhaustive report must contain, one dict per record.

    When d = k the two recovery procedures coincide and the report keeps a
    single recover-k record.  Sweeps need q**m secrets of q**(m(k-1))
    branches each; over the cap they are reported as cap-exceeded.
    """
    out = []
    for k, d, q in params:
        n, m = 2 * k - 1, d - k + 1
        over_cap = branch_count(k, d, q) * q**m > cap_branches
        for mode in modes:
            if mode == "recover-d" and d == k and "recover-k" in modes:
                continue
            rec = {"k": k, "d": d, "q": q, "mode": mode, "status": "pass", "checks": 0}
            if mode in ("encode", "recover-d", "recover-k") and over_cap:
                rec["status"] = "cap-exceeded"
            elif mode == "encode":
                rec.update(secrets_tested=q**m, checks=q**m)
            elif mode in ("recover-d", "recover-k"):
                size = d if mode == "recover-d" else k
                cost = d if mode == "recover-d" else m * k
                subsets = math.comb(n, size)
                rec.update(
                    secrets_tested=q**m,
                    subsets_tested=subsets,
                    qudit_cost=cost,
                    channel_dim=q**cost,
                    checks=subsets * q**m,
                )
            elif mode == "costs":
                rows = {"recover-k": q ** (m * k)}
                if d != k:
                    rows["recover-d"] = q**d
                rec.update(cost_rows=rows, checks=len(rows))
            out.append(rec)
    return out


def report_problems(report: dict, expected: list[dict]) -> list[list[str]]:
    """Problems per expected record of a parsed JSON report (same order)."""
    records = report.get("records", [])
    if len(records) != len(expected):
        return [[f"report has {len(records)} records, expected {len(expected)}"]] * len(expected)
    out = []
    for got, want in zip(records, expected):
        tag = f"report ({want['k']},{want['d']},{want['q']}) {want['mode']}"
        problems = []
        for key in ("k", "d", "q", "mode", "status"):
            if got.get(key) != want[key]:
                problems.append(f"{tag}: {key} {got.get(key)!r} != {want[key]!r}")
        for key in ("secrets_tested", "subsets_tested", "qudit_cost", "channel_dim"):
            if key in want and got.get(key) != want[key]:
                problems.append(f"{tag}: {key} {got.get(key)!r} != {want[key]!r}")
        if "cost_rows" in want:
            rows = {r["mode"]: r for r in got.get("metrics", {}).get("rows", [])}
            if set(rows) != set(want["cost_rows"]):
                problems.append(f"{tag}: cost rows {sorted(rows)}")
            for mode, dim in want["cost_rows"].items():
                row = rows.get(mode, {})
                if row.get("channel_dim") != dim or row.get("bound_dim") != dim:
                    problems.append(f"{tag}: {mode} row {row} does not meet {dim}")
        if want["mode"] in ("recover-d", "recover-k") and want["status"] == "pass":
            fid = got.get("min_fidelity")
            if fid is None or fid < 1.0 - TOL:
                problems.append(f"{tag}: min fidelity {fid!r}")
        out.append(problems)
    if report.get("overall_pass") is not True:
        out[0] = out[0] + ["report: overall_pass is not true"]
    return out
