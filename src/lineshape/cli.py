"""Command-line front end.

Subcommands: lineshape, fluorescence, lamb-line, pulse, verify, plot.
Each computation subcommand accepts either a scenario file or inline
flags, writes one CSV per representation plus a run-metadata JSON file,
and can emit a static SVG or gnuplot plot.  Outputs are written atomically
and are byte-identical across runs; timestamps appear only in the metadata
file.

Exit codes: 0 success, 2 parse error, 3 domain/configuration error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .atoms import build_two_level
from .errors import (
    ConfigurationError,
    DomainError,
    ScenarioError,
    VerificationFailure,
)
from .fluorescence import (
    LambLineScenario,
    SharpLineScenario,
    fluorescence_sweep,
    lamb_hydrogen_preset,
    lamb_rate_sweep,
)
from .plotting import PlotStyle, emit_gnuplot, emit_svg
from .pulse import (
    PulseConfig,
    integrate_dynamics,
    lorentzian_reference_spectrum,
    pulse_spectrum,
)
from .representations import GaugeRepresentation
from .scenario import Scenario, coerce_value, load_scenario, typed
from .spectra import (
    DEFAULT_CUTOFF,
    LineshapeParams,
    lamb_shift,
    lineshape_S,
    read_spectrum_csv,
    write_spectrum_csv,
)
from .verify import run_all_checks

PARSE_ERROR, DOMAIN_ERROR, VERIFY_ERROR = 2, 3, 4


def _add_common(parser):
    parser.add_argument("scenario", nargs="?", default=None,
                        help="scenario file (overrides inline flags)")
    parser.add_argument("--out-dir", default="out")
    parser.add_argument("--plot", choices=["svg", "gnuplot"], default=None)
    parser.add_argument("--cutoff", type=float, default=DEFAULT_CUTOFF)
    parser.add_argument("--log-scale", action="store_true",
                        help="plot ln(S) instead of S")


def _add_grid(parser, default=(0.05, 3.0, 296)):
    parser.add_argument("--grid",
                        default=None if default is None
                        else ",".join(map(str, default)),
                        help="min,max,points[,linear|log]")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lineshape",
        description="Gauge-family emission lineshapes, scattering rates and "
                    "pulse-driven spectra.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lineshape", help="emission lineshape S(omega_k)")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--omega-eg", type=float, default=1.0)
    p.add_argument("--reps", default="coulomb,poincare,symmetric")
    p.add_argument("--lamb-shift", default="0.0",
                   help="line displacement, or 'auto' to compute it from a "
                        "two-level model at the given cutoff")
    p.add_argument("--suppress-lamb-shift", action="store_true")

    p = sub.add_parser("fluorescence", help="scattering rate vs drive frequency")
    _add_common(p)
    _add_grid(p, (0.5, 2.0, 301))
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--omega-eg", type=float, default=1.0)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--dipole", type=float, default=1.0)
    p.add_argument("--reps", default="coulomb,poincare,symmetric")

    p = sub.add_parser("lamb-line", help="stimulated-decay rate sweep")
    _add_common(p)
    _add_grid(p, None)  # the preset brings its own grid; inline needs --grid
    p.add_argument("--preset", choices=["lamb-hydrogen"], default=None)
    p.add_argument("--omega", type=float, default=None)
    p.add_argument("--omega-prime", type=float, default=None)
    p.add_argument("--gamma-2p1s", type=float, default=None)
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--dipole", type=float, default=1.0)
    p.add_argument("--reps", default="coulomb,poincare,symmetric")

    p = sub.add_parser("pulse", help="emission spectrum after a pi-pulse")
    _add_common(p)
    _add_grid(p, (0.02, 3.0, 150))
    p.add_argument("--rabi", type=float, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--omega-0", type=float, default=1.0)
    p.add_argument("--delta-l", type=float, default=None)
    p.add_argument("--omega-l", type=float, default=None)
    p.add_argument("--reps", default="coulomb,poincare,symmetric")
    p.add_argument("--include-reference", action="store_true",
                   help="add the bare Lorentzian as a reference curve")
    p.add_argument("--trajectory", action="store_true",
                   help="also dump the pulse-window amplitude trajectory")
    p.add_argument("--no-rwa", action="store_true",
                   help="retain counter-rotating drive terms in the trajectory")

    p = sub.add_parser("verify", help="run the invariance suite")
    _add_common(p)

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


def _write_text(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
    os.replace(tmp, path)


def _write_outputs(spectra, out_dir, prefix, plot, log_scale, params) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for spec in spectra:
        rep = _safe_name(str(spec.metadata.get("representation", "curve")))
        path = os.path.join(out_dir, f"{prefix}_{rep}.csv")
        write_spectrum_csv(spec, path)
        written.append(path)

    meta = {
        "parameters": params,
        "outputs": [os.path.basename(p) for p in written],
        "versions": {
            "package": __version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    _write_text(os.path.join(out_dir, f"{prefix}_metadata.json"),
                json.dumps(meta, sort_keys=True, indent=2) + "\n")

    if plot:
        subtitle_bits = []
        for key in ("gamma", "omega_eg", "rabi", "delta_l", "omega_prime"):
            if key in spectra[0].metadata:
                subtitle_bits.append(f"{key}={spectra[0].metadata[key]:g}")
        style = PlotStyle(
            title=prefix.replace("_", " "),
            subtitle=", ".join(subtitle_bits),
            xlabel="omega / omega_ref",
            ylabel="S",
            log_scale=log_scale,
        )
        if plot == "svg":
            path = os.path.join(out_dir, f"{prefix}.svg")
            _write_text(path, emit_svg(spectra, style))
            written.append(path)
        else:
            dat = f"{prefix}.dat"
            dat_text, gp_text = emit_gnuplot(spectra, style, dat)
            _write_text(os.path.join(out_dir, dat), dat_text)
            _write_text(os.path.join(out_dir, f"{prefix}.gp"), gp_text)
            written.append(os.path.join(out_dir, f"{prefix}.gp"))
    return written


def _parse_reps(text: str) -> list[GaugeRepresentation]:
    reps = [GaugeRepresentation.parse(tok) for tok in text.split(",") if tok.strip()]
    if not reps:
        raise ScenarioError("no representations given")
    return reps


def _parse_grid_flag(text: str) -> dict:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (3, 4):
        raise ScenarioError(f"--grid expects min,max,points[,scale], got {text!r}")
    out = {
        "grid_min": coerce_value(parts[0]),
        "grid_max": coerce_value(parts[1]),
        "grid_points": coerce_value(parts[2]),
    }
    if len(parts) == 4:
        out["grid_scale"] = parts[3]
    return out


def _require(value, flag: str):
    if value is None:
        raise ScenarioError(f"missing required flag {flag} (or use a scenario file)")
    return value


def _scenario_from_args(args) -> Scenario:
    """Build the scenario either from a file or from inline flags."""
    if args.scenario:
        scn = load_scenario(args.scenario)
        if scn.mode != args.command:
            raise ScenarioError(
                f"scenario mode {scn.mode!r} does not match subcommand "
                f"{args.command!r}"
            )
        if args.plot and not scn.plot:
            scn.plot = args.plot
        if args.log_scale:
            scn.log_scale = True
        return scn

    params = {} if args.grid is None else _parse_grid_flag(args.grid)
    if args.command == "lineshape":
        params["gamma"] = _require(args.gamma, "--gamma")
        params["omega_eg"] = args.omega_eg
        params["cutoff"] = args.cutoff
        if args.suppress_lamb_shift:
            params["lamb_shift"] = 0.0
        else:
            params["lamb_shift"] = coerce_value(args.lamb_shift)
    elif args.command == "fluorescence":
        params["gamma"] = _require(args.gamma, "--gamma")
        params["omega_eg"] = args.omega_eg
        params["intensity"] = args.intensity
        params["dipole_proj"] = args.dipole
    elif args.command == "lamb-line":
        if args.preset:
            params["preset"] = args.preset
            if args.grid is None:
                preset = lamb_hydrogen_preset(GaugeRepresentation.coulomb())
                lo = max(0.05 * preset.omega, preset.omega - 5.0 * preset.gamma)
                hi = preset.omega + 5.0 * preset.gamma
                params.update(grid_min=lo, grid_max=hi, grid_points=201)
        else:
            _require(args.grid, "--grid")
            params["omega"] = _require(args.omega, "--omega")
            params["omega_prime"] = _require(args.omega_prime, "--omega-prime")
            params["gamma"] = _require(args.gamma_2p1s, "--gamma-2p1s")
            params["intensity"] = args.intensity
            params["dipole_proj"] = args.dipole
    elif args.command == "pulse":
        params["rabi"] = _require(args.rabi, "--rabi")
        params["gamma"] = _require(args.gamma, "--gamma")
        params["omega_0"] = args.omega_0
        if args.omega_l is not None:
            params["omega_l"] = args.omega_l
        else:
            params["delta_l"] = args.delta_l if args.delta_l is not None else 0.0
        params["rwa"] = not args.no_rwa
        params["include_reference"] = args.include_reference
        params["trajectory"] = args.trajectory
    return Scenario(
        mode=args.command,
        representations=_parse_reps(args.reps),
        params=params,
        plot=args.plot,
        log_scale=args.log_scale,
    )


# -- mode runners ------------------------------------------------------------


def _cutoff(value) -> float:
    cutoff = typed("cutoff", value)
    if not (math.isfinite(cutoff) and cutoff > 0.0):
        raise DomainError("cutoff must be finite and positive")
    return cutoff


def _run_lineshape(scn: Scenario, cutoff: float) -> list:
    p = scn.params
    grid = scn.grid()
    omega_eg = typed("omega_eg", p.get("omega_eg", 1.0))
    gamma = typed("gamma", p["gamma"])
    cutoff = _cutoff(p.get("cutoff", cutoff))
    shift = p.get("lamb_shift", 0.0)
    if shift == "auto":
        shift = lamb_shift(build_two_level(omega_eg, 1.0), "e", cutoff)
    else:
        shift = typed("lamb_shift", shift)
    variable_width = typed("variable_width", p.get("variable_width", False), "flag")
    spectra = []
    for rep in scn.representations:
        params = LineshapeParams(
            rep=rep, omega_eg=omega_eg, gamma=gamma, lamb_shift=shift,
            variable_width=variable_width,
        )
        spec = lineshape_S(params, grid)
        spec.metadata["cutoff"] = cutoff
        spectra.append(spec)
    return spectra


def _run_fluorescence(scn: Scenario) -> list:
    p = scn.params
    grid = scn.grid()
    spectra = []
    for rep in scn.representations:
        scenario = SharpLineScenario(
            intensity=typed("intensity", p.get("intensity", 1.0)),
            omega_0=float(grid[0]),
            omega_eg=typed("omega_eg", p.get("omega_eg", 1.0)),
            gamma=typed("gamma", p["gamma"]),
            dipole_proj=typed("dipole_proj", p.get("dipole_proj", 1.0)),
            rep=rep,
        )
        spectra.append(fluorescence_sweep(scenario, grid))
    return spectra


def _run_lamb_line(scn: Scenario) -> list:
    p = scn.params
    grid = scn.grid()
    spectra = []
    for rep in scn.representations:
        if p.get("preset") == "lamb-hydrogen":
            scenario = lamb_hydrogen_preset(
                rep, typed("intensity", p.get("intensity", 1.0)))
        elif "preset" in p:
            raise ScenarioError(f"unknown preset {p['preset']!r}")
        else:
            scenario = LambLineScenario(
                intensity=typed("intensity", p.get("intensity", 1.0)),
                omega=typed("omega", p["omega"]),
                omega_prime=typed("omega_prime", p["omega_prime"]),
                gamma=typed("gamma", p["gamma"]),
                dipole_proj=typed("dipole_proj", p.get("dipole_proj", 1.0)),
                rep=rep,
            )
        spectra.append(lamb_rate_sweep(scenario, grid))
    return spectra


def _run_pulse(scn: Scenario, out_dir: str) -> list:
    p = scn.params
    grid = scn.grid()
    omega_0 = typed("omega_0", p.get("omega_0", 1.0))
    gamma = typed("gamma", p["gamma"])
    if "omega_l" in p:
        omega_l = typed("omega_l", p["omega_l"])
    else:
        omega_l = omega_0 - typed("delta_l", p.get("delta_l", 0.0))
    config = PulseConfig(rabi=typed("rabi", p["rabi"]), omega_l=omega_l)
    include_reference = typed("include_reference",
                              p.get("include_reference", False), "flag")
    trajectory = typed("trajectory", p.get("trajectory", False), "flag")
    rwa = typed("rwa", p.get("rwa", True), "flag")
    spectra = [
        pulse_spectrum(config, rep, omega_0, gamma, grid)
        for rep in scn.representations
    ]
    if include_reference:
        spectra.append(lorentzian_reference_spectrum(omega_0, gamma, grid))
    if trajectory:
        traj = integrate_dynamics(
            config, scn.representations[0], omega_0, gamma, rwa=rwa,
        )
        os.makedirs(out_dir, exist_ok=True)
        traj.to_csv(os.path.join(out_dir, f"{scn.prefix}_trajectory.csv"))
    return spectra


def _run_verify(out_dir: str, cutoff: float) -> int:
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
    style = PlotStyle(title=args.title, xlabel="omega / omega_ref",
                      ylabel="S", log_scale=args.log_scale)
    if args.plot == "svg":
        _write_text(args.out, emit_svg(spectra, style))
    else:
        dat_path = os.path.splitext(args.out)[0] + ".dat"
        dat, script = emit_gnuplot(spectra, style, os.path.basename(dat_path))
        _write_text(dat_path, dat)
        _write_text(args.out, script)
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
        cutoff = _cutoff(args.cutoff)
        if args.command == "verify":
            if args.scenario:
                scn = load_scenario(args.scenario)
                if scn.mode != "verify":
                    raise ScenarioError(
                        f"scenario mode {scn.mode!r} does not match 'verify'"
                    )
                cutoff = _cutoff(scn.params.get("cutoff", cutoff))
            return _run_verify(args.out_dir, cutoff)

        scn = _scenario_from_args(args)
        if scn.mode == "lineshape":
            spectra = _run_lineshape(scn, cutoff)
        elif scn.mode == "fluorescence":
            spectra = _run_fluorescence(scn)
        elif scn.mode == "lamb-line":
            spectra = _run_lamb_line(scn)
        elif scn.mode == "pulse":
            spectra = _run_pulse(scn, args.out_dir)
        else:  # pragma: no cover - Scenario already validates the mode
            raise ScenarioError(f"unhandled mode {scn.mode!r}")
        _write_outputs(spectra, args.out_dir, scn.prefix, scn.plot,
                       scn.log_scale, dict(scn.params, mode=scn.mode))
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


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    entry()
