"""The operations of each workload, with the output check of each.

An operation is one call into the program (a cold CLI child or one
public function) plus the check of its output.  ``call`` is timed;
``check`` runs after the timer stops and returns an error string or None.
The first output of each operation is compared with its reference (a
golden CSV, a closed form or the same call on the coarse preset grid);
every later output must be byte-identical to the first.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from common import (
    GOLDEN,
    GOLDEN_RTOL,
    GRID_RTOL,
    PRESETS,
    Repeats,
    Tracer,
    compare_to_golden,
    digest,
    file_digests,
    golden_table,
    read_csv,
    run_child,
)
from spec import CHECK_GROUPS, REPS, SHIFT_CUTOFFS, SHIFT_NODES, rep_key

# Sizes of the two scales; "tiny" is for the self-test only.
SCALES = {"full": {"io_rows": 100_000, "grid_points": 1_000_000},
          "tiny": {"io_rows": 1_000, "grid_points": 2_000}}

# Preset grids that the large grids refine: (golden prefix, lo, hi, points).
GRIDS = {
    "lineshape": ("lineshape_gauge_family", 0.05, 3.0, 296),
    "pulse": ("pulse_gauge_family_wide", 0.02, 3.0, 150),
    "fluorescence": ("fluorescence_sweep", 0.5, 2.0, 301),
    "lamb": ("lamb_line_hydrogen", 0.05, 4.0, 201),
}
GAMMA = 0.1
DETUNED_OMEGA_L = 0.9
SOLVER_MODES = 81
OFFSHELL_ENERGIES = (0.6, 0.8, 1.0, 1.2, 1.4)
OFFSHELL_CUTOFF = 1e3
PV_POLE = 0.3


@dataclass
class Op:
    key: str                     # unique per operation
    span: str                    # layer metric the call is timed under
    call: Callable[[], object]
    check: Callable[[object], str | None]
    points: int = 0              # spectrum points produced, for points_per_s


@dataclass
class Context:
    """State shared by the operations of one run."""

    scale: str
    tracer: Tracer
    work: Path
    repeats: Repeats = field(default_factory=Repeats)
    child_rss_mb: list = field(default_factory=list)
    layer_values: dict = field(default_factory=dict)   # name -> [values]
    computed_bytes: dict = field(default_factory=dict)
    interp_floor_s: float = 0.0

    def record(self, name: str, value: float) -> None:
        self.layer_values.setdefault(name, []).append(value)

    def size(self, key: str) -> int:
        return SCALES[self.scale][key]


def refine(points: int, target: int) -> int:
    """Stride so that (points - 1) * stride + 1 reaches ``target``."""
    return max(1, math.ceil(target / (points - 1)))


# -- cold CLI children ---------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import time (ms) per top-level module, and module count."""
    cumulative, count = {}, 0
    for match in _IMPORT_LINE.finditer(stderr):
        count += 1
        cumulative.setdefault(match.group(4), int(match.group(2)) / 1e3)
    cumulative["__count__"] = count
    return cumulative


def cli_child(ctx: Context, args: list[str], cwd: Path):
    """One cold ``python -m lineshape.cli`` child.

    When tracing, the child runs under ``-X importtime``; its startup is
    then recorded as spans inside the child's span, so the child's self
    time is the work it does besides starting up.
    """
    tracer = ctx.tracer
    flags = ["-X", "importtime"] if tracer.enabled else []
    with tracer.span("cli.child_work_ms"):
        start = tracer.spans[-1]["start"] if tracer.enabled else 0.0
        child = run_child([*flags, "-m", "lineshape.cli", *args], cwd)
        if tracer.enabled and child.code == 0:
            imports = parse_importtime(child.stderr)
            interp = ctx.interp_floor_s
            lineshape_s = imports.get("lineshape", 0.0) / 1e3
            tracer.add("interp.start_ms", start, start + interp)
            tracer.add("import.lineshape_ms", start + interp,
                       start + interp + lineshape_s)
            ctx.record("import.scipy_integrate_ms", imports.get("scipy.integrate", 0.0))
            ctx.record("import.numpy_ms", imports.get("numpy", 0.0))
            ctx.record("import.modules_count", imports["__count__"])
            ctx.record("cli.startup_share_pct",
                       100.0 * (interp + lineshape_s) / child.wall_s)
    ctx.child_rss_mb.append(child.rss_mb)
    return child


def _child_error(child, label: str) -> str | None:
    if child.code == 0:
        return None
    last = child.stderr.strip().splitlines()[-1:] or [""]
    return f"{label}: exit {child.code}: {last[0]}"


def _clear(directory: Path) -> None:
    for path in directory.iterdir():
        if path.is_file():
            path.unlink()


def _preset_meta(path: Path) -> dict:
    meta = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line[0].isspace() and not line.startswith("#") and ":" in line:
            key, value = (part.strip() for part in line.split(":", 1))
            meta[key] = value
    return meta


def presets() -> list[tuple[Path, str, str]]:
    """(path, mode, output prefix) of every shipped preset."""
    out = []
    for path in sorted(PRESETS.glob("*.scn")):
        meta = _preset_meta(path)
        out.append((path, meta["mode"], meta.get("out_prefix", meta["mode"])))
    return out


def goldens_for(prefix: str) -> list[str]:
    pattern = re.compile(re.escape(prefix) + r"_[a-z0-9.-]+\.csv")
    return sorted(p.name for p in GOLDEN.glob(f"{prefix}_*.csv")
                  if pattern.fullmatch(p.name))


def check_preset_outputs(out: Path, prefix: str) -> str | None:
    """Every CSV of a preset run against its golden, plus the SVG."""
    produced = sorted(p.name for p in out.glob("*.csv"))
    expected = goldens_for(prefix)
    if produced != expected:
        return f"{prefix}: wrote {produced}, goldens are {expected}"
    for name in produced:
        err = compare_to_golden(read_csv(out / name), golden_table(name), name)
        if err:
            return err
    if not (out / f"{prefix}.svg").is_file():
        return f"{prefix}: no SVG written"
    return None


def check_verify_report(path: Path) -> str | None:
    if not path.is_file():
        return "verify: no verification_report.json"
    checks = json.loads(path.read_text(encoding="utf-8"))["checks"]
    failed = [c["name"] for c in checks if not c["passed"] and not c["expected_fail"]]
    return f"verify: failed checks {failed}" if failed else None


def cli_presets_ops(ctx: Context) -> list[Op]:
    ops = []
    for path, mode, prefix in presets():
        out = ctx.work / path.stem
        args = [mode, str(path), "--out-dir", str(out)]

        def check(child, out=out, prefix=prefix, key=path.stem):
            err = _child_error(child, key)
            if not err:
                ctx.computed_bytes[key] = {p.name: p.stat().st_size for p in out.iterdir()
                                           if p.suffix in (".csv", ".svg")}
                err = ctx.repeats.check(key, file_digests(out),
                                        lambda: check_preset_outputs(out, prefix))
            _clear(out)
            return err

        ops.append(Op(f"cli.{path.stem}", "cli.operation",
                      lambda args=args, out=out: cli_child(ctx, args, out), check))

    out = ctx.work / "verify"
    report = out / "verification_report.json"

    def check_verify(child):
        err = _child_error(child, "verify") or ctx.repeats.check(
            "verify", file_digests(out), lambda: check_verify_report(report))
        _clear(out)
        return err

    ops.append(Op("cli.verify", "cli.operation",
                  lambda: cli_child(ctx, ["verify", "--out-dir", str(out)], out),
                  check_verify))
    return ops


# -- in-process kernels ---------------------------------------------------------


def _golden_arrays(prefix: str, rep: str):
    import numpy as np

    table = golden_table(f"{prefix}_{rep}.csv")
    cols = np.array([[float(c) for i, c in enumerate(row) if i != 2]
                     for row in table.rows])
    nfac = cols[:, 6] if "n_factor" in table.columns else None
    return cols[:, 0], cols[:, 1], nfac


def _allclose(got, want, rtol: float) -> bool:
    import numpy as np

    return bool(np.all(np.abs(got - want) <= rtol * np.abs(want)))


def _array_check(label: str, fine, coarse_grid, values, reference_values,
                 stride: int) -> str | None:
    if not _allclose(fine[::stride], coarse_grid, GRID_RTOL):
        return f"{label}: stride grid does not match the reference grid"
    for got, want in zip(values, reference_values):
        if want is None:
            continue
        if got is None or not _allclose(got[::stride], want, GOLDEN_RTOL):
            return f"{label}: stride samples differ from the reference beyond {GOLDEN_RTOL}"
    return None


def grid_kernel_ops(ctx: Context) -> list[Op]:
    import numpy as np

    import lineshape as ls

    target = ctx.size("grid_points")
    grids = {}
    for key, (prefix, lo, hi, points) in GRIDS.items():
        stride = refine(points, target)
        grids[key] = (np.linspace(lo, hi, (points - 1) * stride + 1),
                      np.linspace(lo, hi, points), stride, prefix)

    def spectrum_op(span, key, grid_key, rep, fn, golden):
        fine, coarse, stride, prefix = grids[grid_key]

        def check(spec):
            arrays = (spec.values, spec.n_factor)
            fingerprint = digest(*(a for a in arrays if a is not None))

            def reference():
                if golden:
                    grid, s, nfac = _golden_arrays(prefix, rep)
                    return _array_check(key, fine, grid, arrays, (s, nfac), stride)
                small = fn(coarse)
                return _array_check(key, fine, coarse, arrays,
                                    (small.values, small.n_factor), stride)

            return ctx.repeats.check(key, fingerprint, reference)

        return Op(key, span, lambda: fn(fine), check, points=len(fine))

    ops = []
    for rep_text in REPS:
        rep = ls.GaugeRepresentation.parse(rep_text)
        name = rep_key(rep_text)
        golden = rep_text != "alpha:0.3"
        resonant = ls.PulseConfig(rabi=1.0, omega_l=1.0)
        detuned = ls.PulseConfig(rabi=1.0, omega_l=DETUNED_OMEGA_L)
        params = ls.LineshapeParams(rep=rep, omega_eg=1.0, gamma=GAMMA)
        sharp = ls.SharpLineScenario(intensity=1.0, omega_0=GRIDS["fluorescence"][1],
                                     omega_eg=1.0, gamma=GAMMA, dipole_proj=1.0, rep=rep)
        lamb = ls.lamb_hydrogen_preset(rep)
        ops += [
            spectrum_op(f"spectra.lineshape_S_ms.{name}", f"lineshape_S.{name}",
                        "lineshape", rep_text,
                        lambda g, p=params: ls.lineshape_S(p, g), golden),
            spectrum_op(f"pulse.spectrum_ms.resonant.{name}", f"pulse.resonant.{name}",
                        "pulse", rep_text,
                        lambda g, r=rep: ls.pulse_spectrum(resonant, r, 1.0, GAMMA, g),
                        golden),
            spectrum_op(f"pulse.spectrum_ms.detuned.{name}", f"pulse.detuned.{name}",
                        "pulse", rep_text,
                        lambda g, r=rep: ls.pulse_spectrum(detuned, r, 1.0, GAMMA, g),
                        False),
            spectrum_op(f"fluorescence.sweep_ms.{name}", f"fluorescence.{name}",
                        "fluorescence", rep_text,
                        lambda g, s=sharp: ls.fluorescence_sweep(s, g), golden),
            spectrum_op(f"fluorescence.lamb_sweep_ms.{name}", f"lamb.{name}",
                        "lamb", rep_text,
                        lambda g, s=lamb: ls.lamb_rate_sweep(s, g), golden),
        ]

    # The coupling_pair route alone, for the one mixture that has no
    # closed-form branch.
    mixture = ls.GaugeRepresentation.parse("alpha:0.3")
    fine, coarse, stride, _ = grids["pulse"]

    def check_pair(pair):
        def reference():
            small = ls.coupling_pair(mixture, coarse, 1.0)
            return _array_check("coupling_pair", fine, coarse, pair, small, stride)

        return ctx.repeats.check("coupling_pair", digest(*pair), reference)

    ops.append(Op("coupling_pair", "representations.coupling_pair_ms",
                  lambda: ls.coupling_pair(mixture, fine, 1.0), check_pair,
                  points=len(fine)))
    return ops


# -- in-process solvers -----------------------------------------------------------


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _scalar_op(ctx, key, span, call, reference) -> Op:
    def check(value):
        if not math.isfinite(value):
            return f"{key}: non-finite result {value}"
        return ctx.repeats.check(key, repr(float(value)), lambda: reference(value))

    return Op(key, span, call, check)


def lamb_shift_closed_form(cutoff: float, omega: float = -1.0) -> float:
    """omega^3 |r|^2 / (6 pi^2) log|(omega + cutoff)/omega| for the excited
    level of the unit two-level atom (omega = E_g - E_e)."""
    return omega**3 / (6.0 * math.pi**2) * math.log(abs((omega + cutoff) / omega))


def solver_ops(ctx: Context) -> list[Op]:
    import numpy as np

    import lineshape as ls
    from lineshape.quadrature import pv_quad

    ops = []

    def check_report(report):
        if not report.all_passed():
            return "run_all_checks: a required check failed"
        return ctx.repeats.check("run_all_checks", report.to_json(), lambda: None)

    ops.append(Op("run_all_checks", "verify.run_all_checks_ms", ls.run_all_checks,
                  check_report))

    config = ls.PulseConfig(rabi=1.0, omega_l=1.0)
    modes = np.linspace(0.5, 1.5, SOLVER_MODES)

    def check_plain(traj):
        def reference():
            closed = ls.closed_form_amplitude(modes, config, ls.SYMMETRIC, 1.0, GAMMA)
            residual = float(np.max(np.abs(traj.beta_final - closed) / np.abs(closed)))
            return None if residual <= 1e-6 else f"integrate plain: residual {residual:.3e}"

        return ctx.repeats.check("integrate.plain", digest(traj.b_e, traj.beta_final),
                                 reference)

    def check_back(traj):
        def reference():
            decay = abs(traj.post_b_e[-1]) < 0.1 * abs(traj.post_b_e[0])
            return None if decay else "integrate back-reaction: no decay after the pulse"

        return ctx.repeats.check("integrate.backreaction",
                                 digest(traj.b_e, traj.post_b_e, traj.beta_final),
                                 reference)

    ops.append(Op("integrate.plain", "pulse.integrate_ms.plain",
                  lambda: ls.integrate_dynamics(config, ls.SYMMETRIC, 1.0, GAMMA, modes),
                  check_plain))
    ops.append(Op("integrate.backreaction", "pulse.integrate_ms.backreaction",
                  lambda: ls.integrate_dynamics(config, ls.SYMMETRIC, 1.0, GAMMA, modes,
                                                include_field_during_pulse=True),
                  check_back))

    two = ls.build_two_level(1.0, 1.0)
    osc = ls.build_oscillator(1.0, 1.0, 5)
    routes = {"coulomb": ls.COULOMB, "poincare": ls.POINCARE}
    for n in SHIFT_NODES:
        for cutoff in SHIFT_CUTOFFS:
            # Loose guard against a broken quadrature; the residual itself
            # is reported as spectra.lamb_shift_rel_err in traced runs.
            ops.append(_scalar_op(
                ctx, f"lamb_shift.{n}.{cutoff:g}", f"spectra.lamb_shift_ms.{n}",
                lambda n=n, c=cutoff: ls.lamb_shift(two, "e", c, n),
                lambda v, c=cutoff: None if _rel(v, lamb_shift_closed_form(c)) <= 1e-6
                else f"lamb_shift cutoff {c:g}: off the closed form by "
                     f"{_rel(v, lamb_shift_closed_form(c)):.3e}"))
            for route, rep in routes.items():
                other = routes["poincare" if route == "coulomb" else "coulomb"]
                ops.append(_scalar_op(
                    ctx, f"total_shift.{route}.{n}.{cutoff:g}",
                    f"spectra.total_shift_ms.{n}",
                    lambda n=n, c=cutoff, r=rep: ls.total_shift(osc, "1", r, c, n),
                    lambda v, n=n, c=cutoff, o=other:
                        None if _rel(v, ls.total_shift(osc, "1", o, c, n)) <= 1e-10
                        else f"total_shift cutoff {c:g}: routes disagree"))
        for energy in OFFSHELL_ENERGIES:
            ops.append(_scalar_op(
                ctx, f"delta_offshell.{n}.{energy:g}", f"spectra.delta_offshell_ms.{n}",
                lambda n=n, e=energy: ls.delta_offshell(e, two, ls.COULOMB,
                                                        OFFSHELL_CUTOFF, n=n),
                # Convergence under node doubling.
                lambda v, n=n, e=energy:
                    None if _rel(v, ls.delta_offshell(e, two, ls.COULOMB,
                                                      OFFSHELL_CUTOFF, n=2 * n)) <= 1e-9
                    else f"delta_offshell at {e:g}: not converged at n={n}"))
        pv_exact = -0.5 - PV_POLE + PV_POLE**2 * math.log(PV_POLE / (1.0 - PV_POLE))
        ops.append(_scalar_op(
            ctx, f"pv_quad.{n}", f"quadrature.pv_quad_ms.{n}",
            lambda n=n: pv_quad(lambda t: t**2, PV_POLE, 0.0, 1.0, n),
            lambda v: None if _rel(v, pv_exact) <= 1e-9
            else f"pv_quad: off the analytic value by {_rel(v, pv_exact):.3e}"))
    return ops


# -- layers reached only by the traced probe ------------------------------------


def verify_group_ops(ctx: Context) -> list[Op]:
    import lineshape.verify as verify

    def check(results):
        failed = [c.name for c in results if not c.passed and not c.expected_fail]
        return f"verify checks failed: {failed}" if failed else None

    return [Op(f"check.{group}", f"verify.check_ms.{group}",
               getattr(verify, f"check_{group}"), check) for group in CHECK_GROUPS]


def scenario_ops(ctx: Context) -> list[Op]:
    from lineshape.scenario import load_scenario

    def op(path, mode):
        def check(scn):
            return None if scn.mode == mode else f"{path.name}: parsed mode {scn.mode}"

        return Op(f"scenario.{path.stem}", "scenario.load_ms",
                  lambda: load_scenario(path), check)

    return [op(path, mode) for path, mode, _ in presets()]


def _plot_source(ctx: Context) -> Path:
    return ctx.work / "main" / "pulse_gauge_family_wide"


def cli_main_ops(ctx: Context) -> list[Op]:
    """``lineshape.cli.main`` in process, after import: the work a cold run
    does besides starting up.  Runs in list order: ``plot`` re-reads the
    CSVs of the pulse_gauge_family_wide run."""
    from lineshape.cli import main

    def quiet_main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return main(argv)

    ops = []
    for path, mode, prefix in presets():
        out = ctx.work / "main" / path.stem
        argv = [mode, str(path), "--out-dir", str(out)]

        def check(code, out=out, prefix=prefix):
            err = (f"{prefix}: main returned {code}" if code
                   else check_preset_outputs(out, prefix))
            if out != _plot_source(ctx):  # the plot operation re-reads that one
                shutil.rmtree(out, ignore_errors=True)
            return err

        ops.append(Op(f"main.{path.stem}", f"cli.main_ms.{mode}",
                      lambda argv=argv: quiet_main(argv), check))

    out = ctx.work / "main" / "verify"
    ops.append(Op("main.verify", "cli.main_ms.verify",
                  lambda: quiet_main(["verify", "--out-dir", str(out)]),
                  lambda code: f"verify: main returned {code}" if code
                  else check_verify_report(out / "verification_report.json")))

    source = _plot_source(ctx)
    target = ctx.work / "main" / "replot.svg"

    def replot():
        csvs = sorted(str(p) for p in source.glob("*.csv"))
        if len(csvs) != 3:
            raise RuntimeError(f"expected 3 CSVs to re-plot, found {len(csvs)}")
        return quiet_main(["plot", *csvs, "--out", str(target)])

    ops.append(Op("main.plot", "cli.main_ms.plot", replot,
                  lambda code: f"plot: main returned {code}" if code else None))
    return ops


IO_REPS = ("coulomb", "poincare", "symmetric")


def io_ops(ctx: Context) -> list[Op]:
    """CSV write/read and SVG/gnuplot emission of three spectra at 1e5 rows."""
    import numpy as np

    import lineshape as ls
    from lineshape.plotting import PlotStyle, emit_gnuplot, emit_svg

    _, lo, hi, points = GRIDS["pulse"]
    stride = refine(points, ctx.size("io_rows"))
    grid = np.linspace(lo, hi, (points - 1) * stride + 1)
    config = ls.PulseConfig(rabi=1.0, omega_l=1.0)
    spectra = [ls.pulse_spectrum(config, ls.GaugeRepresentation.parse(r), 1.0, GAMMA, grid)
               for r in IO_REPS]
    out = ctx.work / "io"
    out.mkdir(parents=True, exist_ok=True)
    style = PlotStyle(title="pulse")
    ops = []
    for rep, spec in zip(IO_REPS, spectra):
        path = out / f"{rep}.csv"

        def check_write(_, path=path):
            ctx.record("spectra.csv_bytes", path.stat().st_size)
            return ctx.repeats.check(f"csv_write.{path.stem}",
                                     digest(path.read_bytes()), lambda: None)

        def check_read(back, spec=spec):
            same = (np.array_equal(back.grid, spec.grid)
                    and np.array_equal(back.values, spec.values))
            return None if same else "read_spectrum_csv: values differ from those written"

        ops.append(Op(f"csv_write.{rep}", "spectra.csv_write_ms",
                      lambda s=spec, p=path: ls.write_spectrum_csv(s, p), check_write))
        ops.append(Op(f"csv_read.{rep}", "spectra.csv_read_ms",
                      lambda p=path: ls.read_spectrum_csv(p), check_read))
        ls.write_spectrum_csv(spec, path)  # so a read never precedes a write

    def check_svg(text):
        ctx.record("plotting.svg_bytes", len(text.encode("utf-8")))
        return ctx.repeats.check("svg", text, lambda: None if text.startswith("<svg")
                                 or text.startswith("<?xml") else "emit_svg: not SVG")

    ops.append(Op("svg", "plotting.svg_ms", lambda: emit_svg(spectra, style), check_svg))
    ops.append(Op("gnuplot", "plotting.gnuplot_ms",
                  lambda: emit_gnuplot(spectra, style, "pulse.dat"),
                  lambda texts: ctx.repeats.check("gnuplot", texts, lambda: None)))
    return ops


# -- workload table ---------------------------------------------------------------

OP_SETS = {
    "cli_presets": cli_presets_ops,
    "grid_kernels": grid_kernel_ops,
    "solvers": solver_ops,
}
IN_PROCESS = {"grid_kernels", "solvers"}


def probe_op_sets(workload: str) -> list[Callable[[Context], list[Op]]]:
    """Operation sets of the layers a traced run adds to the workload's own."""
    extra = [scenario_ops, cli_main_ops, io_ops, verify_group_ops]
    extra += [OP_SETS[name] for name in ("grid_kernels", "solvers") if name != workload]
    return extra
