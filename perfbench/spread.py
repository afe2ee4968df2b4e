"""Run a workload on several seeds and print each end-to-end metric's spread.

    python3 perfbench/spread.py --workload secrecy --seeds 1 2 3 4 5 --seconds 24

The spread is the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median; it is
compared with the metric's bound in BENCHMARK.json.  Runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    shares = set()
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add((result["failed"], result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        bound = bounds.get(name)
        print(f"{name:16s} median {med:.5g}  spread {spread:.4f}  bound {bound}  "
              f"{'ok' if bound is None or spread < bound / 3 else 'WIDE'}")
    print("failed/attempted per run:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
