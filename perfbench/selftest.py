"""Self-test of the benchmark at tiny sizes; it has no timing gate.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json matches spec.py and the contract's limits,
that every workload reports every end-to-end metric (and, traced, every
per-layer metric) with its unit and without failures, that the seed only
changes the order of operations, and that the benchmark refuses to run
in a directory without the sources.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spec  # noqa: E402
from common import WORK  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ENVIRONMENT_KEYS = {"python", "numpy", "scipy", "nproc", "cpu_model", "src_lines",
                    "load_1min_before", "load_1min_after"}

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)
        print("FAIL:", message, flush=True)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600, check=False)
    return proc


def record(workload: str, seed: int, trace: int) -> dict:
    path = WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def check_spec() -> None:
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(on_disk == json.loads(spec.benchmark_json()),
           "BENCHMARK.json differs from spec.py; run perfbench/run.py --write-spec")
    expect(set(on_disk) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(2 <= len(on_disk["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(on_disk["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in on_disk[key]]
    expect(len(names) == len(set(names)), "names are used once")
    for name in names:
        expect(bool(NAME.fullmatch(name)), f"bad name {name!r}")
    for m in on_disk["end_to_end"] + on_disk["per_layer"]:
        expect(bool(UNIT.fullmatch(m["unit"])), f"bad unit {m['unit']!r}")
        expect(m["better"] in ("lower", "higher"), f"{m['name']}: better")
    for m in on_disk["end_to_end"]:
        expect(0 < m["bound"] <= 0.25, f"{m['name']}: bound {m['bound']}")
    setup = [m for m in on_disk["end_to_end"] if m["name"] == "setup_s"]
    expect(bool(setup) and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in on_disk["end_to_end"]),
           "setup_s in seconds, lower is better, with the largest bound")
    for w in on_disk["workloads"]:
        expect(len(w["why"]) <= 200 and "\n" not in w["why"], f"{w['name']}: why")
        expect(w["name"] in spec.WORKLOADS, f"{w['name']}: not a workload")
    for name, info in spec.WORKLOADS.items():
        expect(bool(info["stresses"]) and bool(info["bypasses"]),
               f"{name}: stresses and bypasses recorded")


def check_result(workload: str, trace: int) -> None:
    proc = run(workload, 1, trace)
    label = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-400:]}")
    if proc.returncode:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: {result['failed']} of {result['attempted']} failed: "
           + "; ".join(record(workload, 1, trace)["errors"][:3]))
    wanted = ({n: u for n, u, _, _ in spec.END_TO_END} if trace == 0
              else {n: u for n, u, _ in spec.per_layer()})
    got = {n: m["unit"] for n, m in result["metrics"].items()}
    expect(got == wanted, f"{label}: metrics/units differ: "
           f"missing {sorted(set(wanted) - set(got))}, extra {sorted(set(got) - set(wanted))}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        finite = isinstance(value, (int, float)) and math.isfinite(value)
        expect(finite, f"{label}: {name} = {value}")
        if trace == 0 and finite:
            expect(value > 0, f"{label}: {name} is not positive")
    env = record(workload, 1, trace)["environment"]
    expect(ENVIRONMENT_KEYS <= set(env), f"{label}: environment record lacks "
           f"{sorted(ENVIRONMENT_KEYS - set(env))}")


def check_seed_only_orders(workload: str) -> None:
    for seed in (1, 2):
        proc = run(workload, seed, 0)
        expect(proc.returncode == 0, f"{workload} seed {seed}: exit {proc.returncode}")
    a, b = record(workload, 1, 0), record(workload, 2, 0)
    expect(sorted(a["order"]) == sorted(b["order"]),
           f"{workload}: the seed changed which operations ran")
    expect(a["fingerprints"] == b["fingerprints"], f"{workload}: the seed changed outputs")
    expect(a["order"] != b["order"], f"{workload}: the seed did not change the order")


def check_refuses_bare_directory() -> None:
    bare = WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("solvers", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "a directory without the sources must fail without a result")


def main() -> int:
    check_spec()
    check_refuses_bare_directory()
    for workload in spec.WORKLOADS:
        for trace in (0, 1):
            print(f"selftest: {workload} trace {trace}", flush=True)
            check_result(workload, trace)
    check_seed_only_orders("grid_kernels")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
