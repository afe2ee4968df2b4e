"""Benchmark entry point: one workload, one run, one JSON line of results.

    python3 perfbench/run.py --workload recover-bulk --seed 1 --seconds 30 --trace 0

Each measured run happens in a fresh worker process (``worker.py``), so peak
RSS and set-up time belong to that workload alone.  The load is one closed-loop
caller: the next check starts when the previous one ends.

``--trace 0`` reports the end-to-end metrics.  Set-up time is the median over
the measuring worker and two set-up-only workers on each side of it.
``--trace 1`` reports the per-layer metrics.  After one warm-up round the
worker runs every round twice, untraced and traced, in alternating order.  The
difference between the two median round times is the tracing overhead.  The
spans go to ``perfbench/out``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
Exit status is 0 only if every worker finished; a checkout without ``src/qtss``
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("recover-bulk", "secrecy", "report")
SETUP_PROBES = 2  # set-up-only workers before and after the measuring one
DEADLINE_S = 170.0
# recover-bulk and report make only small BLAS calls, after which a second
# OpenBLAS thread spins on the other vCPU (3 s of CPU per recover-bulk round)
# without speeding anything up, so their workers get one BLAS thread.  The
# dim-2401 eigensolves of secrecy do use both, so it keeps the default.
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORKER_ENV = {"recover-bulk": ONE_BLAS_THREAD, "secrecy": {}, "report": ONE_BLAS_THREAD}

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "checks_per_s": "checks/s",
    "check_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def spawn(deadline: float, workload: str, seed: int, mode: str, *extra: str) -> dict:
    """Run one worker to its end and return its JSON figures."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError("no time left for another worker")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, *extra]
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining,
                              env={**os.environ, **WORKER_ENV[workload]})
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker ran past the deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(deadline: float, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    # The machine's speed drifts over seconds; probes on both sides of the
    # measuring worker keep one slow spell from setting the median.
    def probes() -> list[float]:
        return [spawn(deadline, workload, seed, "probe")["setup_s"] for _ in range(SETUP_PROBES)]

    setups = probes()
    run = spawn(deadline, workload, seed, "run", "--seconds", repr(seconds))
    setups += [run["setup_s"]] + probes()
    timed_s = sum(run["rounds"])
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(run["rounds"]),
        "checks_per_s": (run["attempted"] - run["failed"]) / timed_s,
        "check_p50_ms": 1000.0 * statistics.median(run["checks"]),
        "peak_rss_mb": run["rss_mb"],
    }
    metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    run["setup_samples_s"] = setups
    return metrics, run


def per_layer(deadline: float, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{workload}-seed{seed}.json"
    run = spawn(deadline, workload, seed, "trace", "--seconds", repr(seconds), "--spans", str(spans))
    untraced_s = statistics.median(run["rounds"])
    values = dict(run["layers"])
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = statistics.median(run["traced_rounds"]) - untraced_s
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in values.items()}
    return metrics, run


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("max_dim"):
        return "dim"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="qtss verification benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "qtss" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'qtss'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, run = measure(deadline, args.workload, args.seed, float(args.seconds))
    except WorkerError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": run["machine"], "attempted": run["attempted"],
        "failed": run["failed"], "problems": run["problems"], "metrics": metrics,
        "rounds_s": run["rounds"], "traced_rounds_s": run.get("traced_rounds"),
        "setup_samples_s": run.get("setup_samples_s"),
    }
    result_path = out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(run['rounds'])}")
    print("machine " + json.dumps(run["machine"], sort_keys=True))
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {run['attempted']}  failed {run['failed']}")
    for p in run["problems"]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": run["wrong"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
