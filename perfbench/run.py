"""Benchmark of the lineshape CLI and library.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli_presets --seed 1 --seconds 20 --trace 0

Workloads, metrics and bounds are defined in ``spec.py`` (and mirrored in
``BENCHMARK.json``); the operations and their output checks are in
``workloads.py``, and the reference task timed between operations, in
whose units the end-to-end times are reported, in ``reference.py``.
Every workload is a closed loop with one client: one child process or one
in-process call at a time, no threads.  The seed only permutes the order
of the operations within each pass.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics.  A detailed
record (environment, sample counts, tail percentile, errors, computed
bytes) is written to ``.perfbench/results/`` and spans of traced runs to
``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import reference  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402

PROBE_REPEATS = 3
INTERP_SAMPLES = 5
# Cold children a traced run of an in-process workload adds, so that
# every traced run reports the import split.
COLD_SAMPLE = ("cli.lineshape_gauge_family", "cli.pulse_gauge_family_wide", "cli.verify")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    points: int = 0
    points_s: float = 0.0
    order: list = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


def run_op(op, ctx, tally: Tally) -> tuple[float, float]:
    """Time one call, then check its output; returns (wall s, cpu s)."""
    tally.attempted += 1
    tally.order.append(op.key)
    error = None
    with ctx.tracer.span(op.span):
        cpu0 = common.cpu_seconds()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # a failing operation is counted, not fatal
            error = f"{op.key}: {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
        cpu = common.cpu_seconds() - cpu0
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"{op.key}: check raised {type(exc).__name__}: {exc}"
    if error:
        tally.fail(error)
    if op.points:
        tally.points += op.points
        tally.points_s += wall
    return wall, cpu


def measure(ops, ctx, tally, rng, seconds, per_op: bool, alternate: bool, midway, sampler):
    """Passes over ``ops`` in seeded order until ``seconds`` have passed.

    Returns wall, CPU and reference-unit samples, each keyed
    "untraced"/"traced": one sample per operation (``per_op``, which may
    stop mid-pass after the first whole pass) or per whole pass.  A pass's
    reference units are the sum of its operations'.
    With ``alternate`` every second pass is traced, for the tracing
    overhead.  ``midway`` runs once half the time has passed; its own
    duration does not count.
    """
    samples = {key: {"untraced": [], "traced": []} for key in ("wall", "cpu", "units")}
    start = time.perf_counter()
    passes = 0
    halfway_done = False

    def over() -> bool:
        nonlocal start, halfway_done
        elapsed = time.perf_counter() - start
        if not halfway_done and elapsed >= seconds / 2:
            halfway_done = True
            before = time.perf_counter()
            midway()
            start += time.perf_counter() - before
        return elapsed >= seconds

    def settle(kind, settled, pass_units):
        pass_units += settled
        if per_op:
            samples["units"][kind] += settled

    while True:
        kind = "traced" if alternate and passes % 2 else "untraced"
        ctx.tracer.enabled = kind == "traced"
        order = list(ops)
        rng.shuffle(order)
        pass_wall = pass_cpu = 0.0
        pass_units = []
        with ctx.tracer.span("pass"):
            for op in order:
                wall, cpu = run_op(op, ctx, tally)
                pass_wall += wall
                pass_cpu += cpu
                with ctx.tracer.span("reference"):
                    settle(kind, sampler.after(wall), pass_units)
                if per_op:
                    samples["wall"][kind].append(wall)
                    samples["cpu"][kind].append(cpu)
                    if passes and not alternate and over():
                        settle(kind, sampler.flush(), pass_units)
                        return samples
            with ctx.tracer.span("reference"):
                settle(kind, sampler.flush(), pass_units)
        if not per_op:
            samples["wall"][kind].append(pass_wall)
            samples["cpu"][kind].append(pass_cpu)
            samples["units"][kind].append(sum(pass_units))
        passes += 1
        if over() and passes >= (2 if alternate else 1):
            return samples


def setup_sample(args, work: Path) -> float:
    """One set-up in a cold child: import the package and build the inputs."""
    child = common.run_child(
        [str(Path(__file__).resolve()), "--setup-only", "--workload", args.workload,
         "--scale", args.scale], work)
    if child.code:
        raise common.BenchError(f"set-up failed (exit {child.code}): "
                                + child.stderr.strip()[-500:])
    return child.wall_s


def interp_floor(ctx, tally) -> None:
    """Bare interpreter start, the floor under every cold child."""
    walls = []
    for _ in range(INTERP_SAMPLES):
        with ctx.tracer.span("interp.start_ms"):
            child = common.run_child(["-c", "pass"], ctx.work / "interp")
        tally.attempted += 1
        if child.code:
            tally.fail(f"python -c pass: exit {child.code}")
        walls.append(child.wall_s)
    ctx.interp_floor_s = common.median(walls)


def probe(args, ctx, tally) -> None:
    """Traced calls into the layers the workload itself does not reach."""
    import lineshape as ls

    if args.workload in workloads.IN_PROCESS:
        cold = [op for op in workloads.cli_presets_ops(ctx) if op.key in COLD_SAMPLE]
        for op in cold:
            run_op(op, ctx, tally)
    for make_ops in workloads.probe_op_sets(args.workload):
        ops = make_ops(ctx)
        for _ in range(PROBE_REPEATS):
            for op in ops:
                run_op(op, ctx, tally)
    two = ls.build_two_level(1.0, 1.0)
    for cutoff in spec.SHIFT_CUTOFFS:
        value = ls.lamb_shift(two, "e", cutoff, max(spec.SHIFT_NODES))
        exact = workloads.lamb_shift_closed_form(cutoff)
        ctx.record(f"spectra.lamb_shift_rel_err.{cutoff:g}", abs(value - exact) / abs(exact))


def layer_metrics(ctx, tally, samples, sampler) -> dict:
    self_ms = ctx.tracer.self_times_ms()
    # In reference units, so that a drift of machine speed between the
    # traced and the untraced passes does not count as overhead.
    units = samples["units"]
    base = common.median(units["untraced"])
    ctx.record("trace.overhead_pct",
               100.0 * (common.median(units["traced"]) - base) / base)
    ctx.record("op.wall_ms_p50", 1e3 * common.median(samples["wall"]["untraced"]))
    ctx.record("op.cpu_ms_p50", 1e3 * common.median(samples["cpu"]["untraced"]))
    ctx.record("reference.wall_ms_p50", 1e3 * common.median(sampler.samples))
    ctx.record("src.lines", common.src_lines())
    if tally.points_s:
        ctx.record("grid.points_per_s", tally.points / tally.points_s)
    metrics = {}
    for name, unit, _ in spec.per_layer():
        values = ctx.layer_values.get(name) or self_ms.get(name)
        if not values:
            tally.fail(f"per-layer metric {name} was not measured")
            continue
        metrics[name] = {"value": common.median(values), "unit": unit}
    return metrics


def end_to_end(tally, samples, setup, ctx, in_process) -> tuple[dict, dict]:
    """End-to-end metrics, and the percentile and sample count of the tail."""
    units = {name: unit for name, unit, _, _ in spec.END_TO_END}
    per_ref = samples["units"]["untraced"]
    tail_value, tail_pct, count = common.tail(per_ref)
    values = {
        "setup_s": common.median(setup),
        "wall_per_ref_p50": common.median(per_ref),
        "wall_per_ref_tail": tail_value,
        "peak_rss_mb": common.own_peak_rss_mb() if in_process else max(ctx.child_rss_mb),
        "success_rate": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    return metrics, {"percentile": tail_pct, "samples": count}


def setup_only(args) -> int:
    import lineshape  # noqa: F401  (the import is part of set-up)

    work = common.WORK / "setup" / args.workload
    workloads.OP_SETS[args.workload](
        workloads.Context(args.scale, common.Tracer("setup", False), work))
    return 0


def run(args) -> int:
    work = common.WORK / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    load_before = common.load_average()

    # Set-up is sampled before, halfway through and after the measurement,
    # so its median does not hang on one stretch of machine load.
    setup = [setup_sample(args, work)]
    tracer = common.Tracer(run_id, False)
    ctx = workloads.Context(args.scale, tracer, work)
    ops = workloads.OP_SETS[args.workload](ctx)
    in_process = args.workload in workloads.IN_PROCESS
    tally = Tally()
    rng = random.Random(args.seed)

    if args.trace:
        tracer.enabled = True
        interp_floor(ctx, tally)
    _, make_task, every = reference.REFERENCES[args.workload]
    sampler = reference.Sampler(make_task(work), every)
    samples = measure(ops, ctx, tally, rng, args.seconds,
                      per_op=not in_process, alternate=bool(args.trace),
                      midway=lambda: setup.append(setup_sample(args, work)),
                      sampler=sampler)
    setup.append(setup_sample(args, work))
    tail = None
    if args.trace:
        tracer.enabled = True
        probe(args, ctx, tally)
        metrics = layer_metrics(ctx, tally, samples, sampler)
        tracer.write(common.WORK / "traces" / f"{run_id}.json")
    else:
        metrics, tail = end_to_end(tally, samples, setup, ctx, in_process)
    shutil.rmtree(work, ignore_errors=True)

    info = spec.WORKLOADS[args.workload]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, **info,
        "environment": {**common.environment(),
                        "load_1min_before": load_before,
                        "load_1min_after": common.load_average()},
        "sizes": workloads.SCALES[args.scale],
        "setup_samples_s": setup,
        "reference": reference.REFERENCES[args.workload][0],
        "reference_samples_s": sampler.samples,
        "wall_samples_s": samples["wall"],
        "cpu_samples_s": samples["cpu"],
        "wall_per_ref_samples": samples["units"],
        "wall_ms_p50": 1e3 * common.median(samples["wall"]["untraced"]),
        "cpu_ms_p50": 1e3 * common.median(samples["cpu"]["untraced"]),
        "wall_per_ref_tail": tail,
        "computed_bytes_per_operation": ctx.computed_bytes,
        "grid_points_per_s": tally.points / tally.points_s if tally.points_s else None,
        "attempted": tally.attempted, "failed": tally.failed,
        "error_rate": tally.failed / max(tally.attempted, 1),
        "errors": tally.errors,
        "order": tally.order,
        "fingerprints": {k: common.digest(repr(v).encode())
                         for k, v in sorted(ctx.repeats.first.items())},
        "metrics": metrics,
    }
    results = common.WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for message in tally.errors:
        print("FAILED:", message)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the grids for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py and exit")
    args = parser.parse_args(argv)
    if args.write_spec:
        (common.ROOT / "BENCHMARK.json").write_text(spec.benchmark_json())
        return 0
    if not args.workload:
        parser.error("--workload is required")
    try:
        common.require_checkout()
        return setup_only(args) if args.setup_only else run(args)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
