"""Command-line front end.

Subcommands: lineshape, fluorescence, lamb-line, pulse, verify, plot.
Each computation subcommand takes a scenario file, inline flags or both,
writes one CSV per representation plus a run-metadata JSON file, and can
emit a static SVG or gnuplot plot.  The parameter flags are generated from
``scenario.PARAMS``.  A run's parameters are the table's defaults, then the
scenario file's keys, then the flags actually given: a given flag wins.
Argparse only collects a flag's string, which is then read exactly as the
same key in a file is, with the same error message and exit code.
Outputs are written atomically and are byte-identical across runs;
timestamps appear only in the metadata file.

Each runner imports the modules of its own mode, and plotting is imported
only when a plot is written: without a bytecode cache a cold run compiles
every module it imports.

Exit codes: 0 success, 2 parse error, 3 domain/configuration error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DomainError,
    ScenarioError,
    VerificationFailure,
    _check_scalar,
)
from .scenario import (
    PARAMS,
    MissingKeyError,
    Scenario,
    load_scenario,
    parse_scenario,
)
from .spectra import (
    LineshapeParams,
    _write_text,
    lineshape_S,
    read_spectrum_csv,
    write_spectrum_csv,
)

PARSE_ERROR, DOMAIN_ERROR, VERIFY_ERROR = 2, 3, 4


_MODE_HELP = {
    "lineshape": "emission lineshape S(omega_k)",
    "fluorescence": "scattering rate vs drive frequency",
    "lamb-line": "stimulated-decay rate sweep",
    "pulse": "emission spectrum after a pi-pulse",
    "verify": "run the invariance suite",
}

_FLAG_HELP = {
    "--lamb-shift": "line displacement, or 'auto' to compute it from a "
                    "two-level model at the given cutoff",
    "--include-reference": "add the bare Lorentzian as a reference curve",
    "--preset": "named defaults: lamb-hydrogen",
    "--trajectory": "also dump the pulse-window amplitude trajectory",
    "--no-rwa": "retain counter-rotating drive terms in the trajectory",
}


def _flag(key: str, param) -> str:
    """The CLI spelling of a parameter-table key."""
    if param.flag:
        return param.flag
    return ("--no-" if param.default is True else "--") + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineshape",
        description="Gauge-family emission lineshapes, scattering rates and "
                    "pulse-driven spectra.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    for mode, table in PARAMS.items():
        # SUPPRESS as the default: only the flags actually given are seen.
        p = sub.add_parser(mode, help=_MODE_HELP[mode],
                           argument_default=argparse.SUPPRESS)
        p.add_argument("scenario", nargs="?", default=None,
                       help="scenario file (the flags given override its keys)")
        p.add_argument("--out-dir", default="out")
        # Every value is kept as the string a file line would hold.
        if mode != "verify":
            p.add_argument("--plot", help="svg or gnuplot")
            p.add_argument("--log-scale", action="store_const", const="true",
                           help="plot ln(S) instead of S")
            p.add_argument("--reps", dest="representations", metavar="REPS")
        for key, param in table.items():
            flag = _flag(key, param)
            if flag == "--grid":  # the grid keys share one composite flag
                continue
            if param.kind == "flag":
                const = "false" if param.default else "true"
                p.add_argument(flag, dest=key, action="store_const",
                               const=const, help=_FLAG_HELP.get(flag))
            else:
                p.add_argument(flag, dest=key, help=_FLAG_HELP.get(flag))
        if "grid_min" in table:
            p.add_argument("--grid", help="min,max,points[,linear|log]")

    p = sub.add_parser("plot", help="re-plot previously written CSV spectra")
    p.add_argument("csv", nargs="+")
    p.add_argument("--out", default="plot.svg")
    p.add_argument("--plot", choices=["svg", "gnuplot"], default="svg")
    p.add_argument("--log-scale", action="store_true")
    p.add_argument("--title", default="")

    return parser


# -- output helpers ---------------------------------------------------------


def _safe_name(rep_name: str) -> str:
    return rep_name.replace(":", "-")


def _write_plot(spectra, fmt: str, path: str, **style) -> None:
    """Write an SVG, or a gnuplot script with its .dat file beside it;
    ``style`` holds the :class:`PlotStyle` fields other than the labels."""
    from .plotting import PlotStyle, emit_gnuplot, emit_svg

    style = PlotStyle(xlabel="omega / omega_ref", ylabel="S", **style)
    if fmt == "svg":
        _write_text(path, emit_svg(spectra, style))
        return
    dat_path = os.path.splitext(path)[0] + ".dat"
    dat, script = emit_gnuplot(spectra, style, os.path.basename(dat_path))
    _write_text(dat_path, dat)
    _write_text(path, script)


def _write_outputs(spectra, out_dir, prefix, plot, log_scale, params, diagnostics) -> None:
    os.makedirs(out_dir, exist_ok=True)
    names = []
    for spec in spectra:
        rep = _safe_name(str(spec.metadata.get("representation", "curve")))
        names.append(f"{prefix}_{rep}.csv")
        write_spectrum_csv(spec, os.path.join(out_dir, names[-1]))

    meta = {
        "parameters": params,
        "outputs": names,
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    if params.get("lamb_shift") == "auto":
        meta["resolved"] = {"lamb_shift": spectra[0].metadata["lamb_shift"]}
    if diagnostics:
        meta["diagnostics"] = diagnostics
    _write_text(os.path.join(out_dir, f"{prefix}_metadata.json"),
                json.dumps(meta, sort_keys=True, indent=2) + "\n")

    if plot:
        first = spectra[0].metadata
        keys = ("gamma", "omega_eg", "rabi", "delta_l", "omega_prime")
        ext = "svg" if plot == "svg" else "gp"
        _write_plot(
            spectra, plot, os.path.join(out_dir, f"{prefix}.{ext}"),
            title=prefix.replace("_", " "),
            subtitle=", ".join(f"{k}={first[k]:g}" for k in keys if k in first),
            log_scale=log_scale,
        )


def _parse_grid_flag(text: str) -> dict:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ScenarioError(f"--grid expects min,max,points[,scale], got {text!r}")
    return dict(zip(("grid_min", "grid_max", "grid_points", "grid_scale"),
                    parts))


# Without a scenario file, a run starts from this one.
_NO_FILE = "mode: {}\nrepresentations: coulomb, poincare, symmetric\n"


def _scenario_from_args(args) -> Scenario:
    """The scenario file (if any) with the given flags laid over it."""
    given = {key: value for key, value in vars(args).items()
             if key not in ("command", "scenario", "out_dir")}
    if "grid" in given:
        given.update(_parse_grid_flag(given.pop("grid")))
    given["mode"] = args.command
    if args.scenario:
        return load_scenario(args.scenario, given)
    try:
        return parse_scenario(_NO_FILE.format(args.command), given)
    except MissingKeyError as exc:
        flag = _flag(exc.key, PARAMS[args.command][exc.key])
        raise ScenarioError(
            f"missing required flag {flag} (or use a scenario file)") from None


# -- mode runners ------------------------------------------------------------


def _run_lineshape(scn: Scenario) -> list:
    p = scn.params
    grid = scn.grid()
    _check_scalar(p["cutoff"], "cutoff")
    shift = p["lamb_shift"]
    if shift == "auto":
        from .atoms import build_two_level, lamb_shift

        shift = lamb_shift(build_two_level(p["omega_eg"], 1.0), "e", p["cutoff"])
    spectra = []
    for rep in scn.representations:
        spec = lineshape_S(LineshapeParams(rep, p["omega_eg"], p["gamma"], shift), grid)
        spec.metadata["cutoff"] = p["cutoff"]
        spectra.append(spec)
    return spectra


def _run_fluorescence(scn: Scenario) -> list:
    from .fluorescence import SharpLineScenario, fluorescence_sweep

    p, grid = scn.params, scn.grid()
    fields = {k: p[k] for k in ("intensity", "omega_eg", "gamma", "dipole_proj")}
    scenarios = [SharpLineScenario(omega_0=float(grid[0]), rep=rep, **fields)
                 for rep in scn.representations]
    return [fluorescence_sweep(scenario, grid) for scenario in scenarios]


def _run_lamb_line(scn: Scenario) -> list:
    from .fluorescence import LambLineScenario, lamb_rate_sweep

    p, grid = scn.params, scn.grid()
    keys = ("intensity", "omega", "omega_prime", "gamma", "dipole_proj")
    scenarios = [LambLineScenario(rep=rep, **{k: p[k] for k in keys})
                 for rep in scn.representations]
    return [lamb_rate_sweep(scenario, grid) for scenario in scenarios]


def _run_pulse(scn: Scenario, out_dir: str, diagnostics: dict) -> list:
    from .pulse import PulseConfig, lorentzian_reference_spectrum, pulse_spectrum

    p = scn.params
    grid = scn.grid()
    omega_0, gamma = p["omega_0"], p["gamma"]
    omega_l = p["omega_l"]
    if omega_l is None:
        omega_l = omega_0 - (p["delta_l"] or 0.0)
    config = PulseConfig(rabi=p["rabi"], omega_l=omega_l)
    spectra = [
        pulse_spectrum(config, rep, omega_0, gamma, grid)
        for rep in scn.representations
    ]
    if p["include_reference"]:
        spectra.append(lorentzian_reference_spectrum(omega_0, gamma, grid))
    if p["trajectory"]:
        from .dynamics import integrate_dynamics

        traj = integrate_dynamics(
            config, scn.representations[0], omega_0, gamma, rwa=p["rwa"],
        )
        os.makedirs(out_dir, exist_ok=True)
        traj.to_csv(os.path.join(out_dir, f"{scn.prefix}_trajectory.csv"))
        diagnostics["ode"] = traj.ode_stats
    return spectra


def _run_verify(out_dir: str, cutoff: float) -> int:
    from .verify import run_all_checks

    report = run_all_checks(cutoff=cutoff)
    print(report.table())
    os.makedirs(out_dir, exist_ok=True)
    _write_text(os.path.join(out_dir, "verification_report.json"),
                report.to_json())
    if not report.all_passed():
        raise VerificationFailure("one or more invariance checks failed")
    return 0


def _run_plot(args) -> int:
    spectra = [read_spectrum_csv(path) for path in args.csv]
    _write_plot(spectra, args.plot, args.out, title=args.title,
                log_scale=args.log_scale)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage and 0 on --help/--version.
        return int(exc.code or 0)

    try:
        if args.command == "plot":
            return _run_plot(args)
        scn = _scenario_from_args(args)
        if scn.mode == "verify":
            return _run_verify(args.out_dir, scn.params["cutoff"])
        diagnostics = {}  # solver counts, filled by the runs that have them
        if scn.mode == "lineshape":
            spectra = _run_lineshape(scn)
        elif scn.mode == "fluorescence":
            spectra = _run_fluorescence(scn)
        elif scn.mode == "lamb-line":
            spectra = _run_lamb_line(scn)
        else:
            spectra = _run_pulse(scn, args.out_dir, diagnostics)
        _write_outputs(spectra, args.out_dir, scn.prefix, scn.plot,
                       scn.log_scale, dict(scn.params, mode=scn.mode), diagnostics)
        return 0
    except (ScenarioError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    except (DomainError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return DOMAIN_ERROR
    except VerificationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VERIFY_ERROR


def entry() -> None:
    """The console script and ``python -m lineshape.cli``: run :func:`main`,
    then exit with its code.

    The heap is frozen once ``main`` has returned, so interpreter
    finalization skips the cyclic collection of every object the run left,
    most of them numpy's; stdio is still flushed, atexit handlers still run
    and the exit code is the same.  ``main`` itself never
    freezes: tests and in-process callers run it many times in one process.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
