"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 perfbench/run.py --write-spec``), and the self-test checks that
the two agree.
"""

from __future__ import annotations

import json

REPS = ("coulomb", "poincare", "symmetric", "alpha:0.3")
SHIFT_NODES = (4096, 16385)
SHIFT_CUTOFFS = (10.0, 1e3, 1e5)
CHECK_GROUPS = ("gamma_invariance", "total_shift_invariance",
                "table_consistency", "ode_oracle")
SUBCOMMANDS = ("lineshape", "fluorescence", "lamb-line", "pulse", "verify", "plot")


def rep_key(rep: str) -> str:
    """Metric-name form of a representation ('alpha:0.3' -> 'alpha_0.3')."""
    return rep.replace(":", "_")


# One "operation" is what the wall/cpu metrics time: a cold CLI child on
# cli_presets, one pass of the fixed call sequence on the in-process
# workloads.
WORKLOADS = {
    "cli_presets": {
        "why": "cold CLI child per shipped preset plus verify: what a CLI user runs; startup and import dominate",
        "operation": "one cold `python -m lineshape.cli` child",
        "stresses": ["interp.start", "import", "scenario", "cli", "small kernels",
                     "small CSV/SVG writes", "verify"],
        "bypasses": ["large grids", "CSV read", "1e5-row CSV/SVG I/O", "ODE with back-reaction"],
    },
    "grid_kernels": {
        "why": "in-process spectrum kernels at 1e6 points for four representations, no file I/O: the vectorised numpy layer",
        "operation": "one pass over every kernel and representation",
        "stresses": ["spectra.lineshape_S", "pulse.pulse_spectrum",
                     "fluorescence sweeps", "representations.coupling_pair"],
        "bypasses": ["import (paid in set-up)", "CSV/SVG I/O", "quadrature", "ODE", "cli"],
    },
    "solvers": {
        "why": "in-process verify suite, ODE oracle and PV-quadrature level shifts: the adaptive solvers, no import or I/O",
        "operation": "one pass over verify, integrate_dynamics and the shift sweep",
        "stresses": ["verify", "pulse.integrate_dynamics", "quadrature.pv_quad",
                     "spectra.lamb_shift/total_shift/delta_offshell"],
        "bypasses": ["import (paid in set-up)", "CSV/SVG I/O", "large grids", "cli"],
    },
}

# (name, unit, better, bound).  The shared 2-vCPU machine the bench was
# tuned on changes speed by tens of per cent over seconds to minutes, so
# raw operation times spread past the largest bound allowed (0.25) from
# one run to the next.  Operations are therefore reported in units of a
# reference task of the same kind timed between them (reference.py); the
# raw times stay in every run record and in the per-layer metrics
# (op.wall_ms_p50, op.cpu_ms_p50, reference.wall_ms_p50).  See README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_per_ref_p50", "ratio", "lower", 0.2),
    ("wall_per_ref_tail", "ratio", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("success_rate", "ratio", "higher", 0.01),
)


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric of a traced run."""
    ms = lambda name: (name, "ms", "lower")  # noqa: E731
    out = [
        ms("op.wall_ms_p50"),
        ms("op.cpu_ms_p50"),
        ms("reference.wall_ms_p50"),
        ms("interp.start_ms"),
        ms("import.lineshape_ms"),
        ms("import.scipy_integrate_ms"),
        ms("import.numpy_ms"),
        ("import.modules_count", "count", "lower"),
        ms("cli.child_work_ms"),
        ("cli.startup_share_pct", "%", "lower"),
        ms("scenario.load_ms"),
    ]
    out += [ms(f"cli.main_ms.{sub}") for sub in SUBCOMMANDS]
    out += [
        ms("spectra.csv_write_ms"),
        ms("spectra.csv_read_ms"),
        ("spectra.csv_bytes", "bytes", "lower"),
        ms("plotting.svg_ms"),
        ms("plotting.gnuplot_ms"),
        ("plotting.svg_bytes", "bytes", "lower"),
    ]
    for rep in map(rep_key, REPS):
        out += [
            ms(f"spectra.lineshape_S_ms.{rep}"),
            ms(f"pulse.spectrum_ms.resonant.{rep}"),
            ms(f"pulse.spectrum_ms.detuned.{rep}"),
            ms(f"fluorescence.sweep_ms.{rep}"),
            ms(f"fluorescence.lamb_sweep_ms.{rep}"),
        ]
    out += [
        ms("representations.coupling_pair_ms"),
        ("grid.points_per_s", "1/s", "higher"),
    ]
    for n in SHIFT_NODES:
        out += [
            ms(f"quadrature.pv_quad_ms.{n}"),
            ms(f"spectra.lamb_shift_ms.{n}"),
            ms(f"spectra.total_shift_ms.{n}"),
            ms(f"spectra.delta_offshell_ms.{n}"),
        ]
    out += [ms("pulse.integrate_ms.plain"), ms("pulse.integrate_ms.backreaction")]
    out += [ms(f"verify.check_ms.{group}") for group in CHECK_GROUPS]
    out += [ms("verify.run_all_checks_ms")]
    out += [(f"spectra.lamb_shift_rel_err.{cutoff:g}", "ratio", "lower")
            for cutoff in SHIFT_CUTOFFS]
    out += [("src.lines", "count", "lower"), ("trace.overhead_pct", "%", "lower")]
    return out


RUN_SECONDS = 35


def benchmark_json() -> str:
    spec = {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": w["why"]} for name, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }
    return json.dumps(spec, indent=2) + "\n"
