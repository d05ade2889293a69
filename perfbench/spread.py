"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload solvers --runs 10 [--first-seed 1]

Runs the benchmark once per seed and prints, per metric, the median, the
distance between the first and third quartile as a share of the median,
and that share against the metric's bound.  Bounds in ``spec.py`` are set
from these figures; the spread of ``setup_s`` is reported but not bounded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec.RUN_SECONDS)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=HERE.parent, capture_output=True, text=True, check=False)
        if proc.returncode:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    print(f"{'metric':16s} {'median':>12s} {'iqr/median':>11s} {'bound':>6s}")
    for name, _, _, bound in spec.END_TO_END:
        xs = values[name]
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        share = (q3 - q1) / med
        flag = "" if name == "setup_s" or share <= bound / 3 else "  > bound/3"
        print(f"{name:16s} {med:12.6g} {share:11.4f} {bound:6.2f}{flag}")
    print("all runs correct" if ok else "SOME RUNS INCORRECT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
