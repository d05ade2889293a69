import gc
import hashlib
import json
import os
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import lineshape
from lineshape import cli
from lineshape.cli import _flag, build_parser, main
from lineshape.plotting import PlotStyle, emit_gnuplot, emit_svg
from lineshape.spectra import read_spectrum_csv, write_spectrum_csv
from lineshape.errors import ConfigurationError
from lineshape.scenario import PARAMS

from helpers import mp_lamb_shift, run_cli

PRESET_DIR = Path(lineshape.__path__[0]) / "presets"
GOLDEN_DIR = Path(__file__).parent / "golden"

PRESETS = sorted(PRESET_DIR.glob("*.scn"))


def preset_mode(path: Path) -> str:
    for line in path.read_text().splitlines():
        if line.startswith("mode:"):
            return line.split(":", 1)[1].strip()
    raise AssertionError(f"{path} has no mode")


@pytest.fixture(autouse=True)
def no_test_freezes_the_heap():
    # entry() freezes the heap before exit; nothing here may leave the
    # test process frozen.
    before = gc.get_freeze_count()
    yield
    assert gc.get_freeze_count() == before


def run_preset(path: Path, out_dir: Path) -> list[Path]:
    code = main([preset_mode(path), str(path), "--out-dir", str(out_dir)])
    assert code == 0, f"{path.name} failed"
    return sorted(out_dir.glob("*.csv"))


class TestSubcommands:
    def test_lineshape_flags_run(self, tmp_path):
        code = main([
            "lineshape", "--gamma", "0.1",
            "--reps", "coulomb,poincare,symmetric",
            "--lamb-shift", "0", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        files = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert files == [
            "lineshape_coulomb.csv",
            "lineshape_poincare.csv",
            "lineshape_symmetric.csv",
        ]
        meta = json.loads((tmp_path / "lineshape_metadata.json").read_text())
        assert meta["parameters"]["gamma"] == 0.1
        assert "timestamp_utc" in meta

    def test_lamb_shift_auto(self, tmp_path):
        code = main([
            "lineshape", "--gamma", "0.1", "--omega-eg", "1.3", "--reps", "coulomb",
            "--lamb-shift", "auto", "--cutoff", "500",
            "--grid", "0.5,1.5,41", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        spec = read_spectrum_csv(tmp_path / "lineshape_coulomb.csv")
        assert spec.metadata["cutoff"] == 500.0
        meta = json.loads((tmp_path / "lineshape_metadata.json").read_text())
        assert meta["parameters"]["lamb_shift"] == "auto"
        used = meta["resolved"]["lamb_shift"]  # the value the run used
        assert used == lineshape.lamb_shift(
            lineshape.build_two_level(1.3, 1.0), "e", 500.0) != 0.0
        assert spec.metadata["lamb_shift"] == used

    def test_one_output_file_per_representation(self, tmp_path, capsys):
        assert main(["lineshape", "--gamma", "0.1", "--grid", "0.5,1.5,11",
                     "--reps", "alpha:0.3,alpha:0.3000001",
                     "--out-dir", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "lineshape_metadata.json").read_text())
        assert meta["outputs"] == ["lineshape_alpha-0.3.csv",
                                   "lineshape_alpha-0.3000001.csv"]
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == meta["outputs"]
        assert main(["lineshape", "--gamma", "0.1", "--reps", "coulomb,coulomb",
                     "--out-dir", str(tmp_path / "twice")]) == 2
        assert capsys.readouterr().err == (
            "error: representations: 'coulomb' is given twice\n")

    def test_pulse_flags_run_with_trajectory(self, tmp_path):
        code = main([
            "pulse", "--rabi", "1.0", "--gamma", "0.01", "--delta-l", "0",
            "--reps", "symmetric", "--include-reference", "--trajectory",
            "--grid", "0.02,3.0,80", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "pulse_symmetric.csv").exists()
        assert (tmp_path / "pulse_lorentzian.csv").exists()
        traj = (tmp_path / "pulse_trajectory.csv").read_text().splitlines()
        assert traj[0] == "t,re_bg0,im_bg0,re_be0,im_be0"
        # The stepper's counts go to the metadata, never to the CSV.
        ode = json.loads((tmp_path / "pulse_metadata.json").read_text())[
            "diagnostics"]["ode"]
        assert sorted(ode) == ["accepted_steps", "nfev", "rejected_steps"]
        assert ode["accepted_steps"] > 0 and ode["rejected_steps"] >= 0
        assert ode["nfev"] >= 2 + 12 * (ode["accepted_steps"] + ode["rejected_steps"])
        no_traj = tmp_path / "no_trajectory"
        assert main(["pulse", "--rabi", "1.0", "--gamma", "0.01", "--delta-l", "0",
                     "--reps", "symmetric", "--out-dir", str(no_traj)]) == 0
        assert "diagnostics" not in json.loads(
            (no_traj / "pulse_metadata.json").read_text())

    def test_fluorescence_and_lamb_line_run(self, tmp_path):
        assert main(["fluorescence", "--gamma", "0.1", "--reps", "coulomb",
                     "--out-dir", str(tmp_path)]) == 0
        assert main(["lamb-line", "--preset", "lamb-hydrogen",
                     "--reps", "poincare", "--out-dir", str(tmp_path)]) == 0
        spec = read_spectrum_csv(tmp_path / "fluorescence_coulomb.csv")
        assert spec.n_factor is not None

    def test_verify_writes_report_and_exits_zero(self, tmp_path, capsys):
        code = main(["verify", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "XFAIL" in out
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert any(c["expected_fail"] for c in report["checks"])

    def test_verify_accepts_a_scenario_file(self, tmp_path, capsys):
        scn = tmp_path / "v.scn"
        scn.write_text("mode: verify\n\nverify:\n  cutoff: 500.0\n")
        assert main(["verify", str(scn), "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "verification_report.json").read_text())
        assert report["environment"]["cutoff"] == 500.0

    def test_pulse_scenario_with_carrier_frequency_key(self, tmp_path):
        scn = tmp_path / "p.scn"
        scn.write_text(
            "mode: pulse\nrepresentations: symmetric\n\npulse:\n"
            "  rabi: 1.0\n  omega_l: 0.95\n  gamma: 0.1\n"
            "  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 21\n"
        )
        assert main(["pulse", str(scn), "--out-dir", str(tmp_path)]) == 0
        spec = read_spectrum_csv(tmp_path / "pulse_symmetric.csv")
        assert spec.metadata["gamma"] == 0.1


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.scn"
        bad.write_text("mode: lineshape\nnonsense_key: 1\n")
        assert main(["lineshape", str(bad), "--out-dir", str(tmp_path)]) == 2

    def test_missing_required_flag_is_2(self, tmp_path):
        assert main(["lineshape", "--out-dir", str(tmp_path)]) == 2

    def test_scenario_that_is_not_utf8_is_2(self, tmp_path, capsys):
        scn = tmp_path / "latin1.scn"
        scn.write_bytes("# caf\u00e9\nmode: lineshape\n\nlineshape:\n"
                        "  gamma: 0.1\n".encode("latin-1"))
        assert main(["lineshape", str(scn), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: {scn}: not a UTF-8 text file\n"

    def test_scenario_with_a_byte_order_mark_is_read(self, tmp_path):
        text = (PRESET_DIR / "lineshape_gauge_family.scn").read_bytes()
        outputs = []
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            scn = tmp_path / f"{name}.scn"
            scn.write_bytes(data)
            assert main(["lineshape", str(scn), "--out-dir", str(tmp_path / name)]) == 0
            outputs.append([p.read_bytes() for p in sorted((tmp_path / name).glob("*.csv"))])
        assert outputs[0] and outputs[0] == outputs[1]

    def test_csv_that_is_not_utf8_for_plot_is_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"omega_k,S,representation,gamma,omega_eg,lamb_shift,cutoff\n"
                        b"1.0,0.5,\xff,0.1,1,0,1000\n2.0,0.5,\xff,0.1,1,0,1000\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "p.svg")]) == 3
        assert capsys.readouterr().err == f"error: {bad}: not a UTF-8 text file\n"
        assert not (tmp_path / "p.svg").exists()

    def test_inline_lamb_line_needs_grid(self, tmp_path, capsys):
        # Only the preset brings its own grid.
        argv = ["lamb-line", "--omega", "1", "--omega-prime", "2",
                "--gamma-2p1s", "0.1", "--reps", "coulomb",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: missing required flag --grid (or use a scenario file)\n"
        )
        assert not list(tmp_path.glob("*.csv"))
        assert main(argv + ["--grid", "0.5,1.5,11"]) == 0
        assert (tmp_path / "lamb_line_coulomb.csv").exists()

    def test_domain_error_is_3(self, tmp_path):
        assert main(["lineshape", "--gamma", "-1",
                     "--out-dir", str(tmp_path)]) == 3

    def test_seedless_is_rejected_with_2(self, tmp_path):
        assert main(["lineshape", "--gamma", "0.1", "--seedless",
                     "--out-dir", str(tmp_path)]) == 2

    def test_unknown_subcommand_is_2(self):
        assert main(["no-such-command"]) == 2

    def test_mode_mismatch_is_2(self, tmp_path):
        scn = PRESET_DIR / "pulse_gauge_family_wide.scn"
        assert main(["lineshape", str(scn), "--out-dir", str(tmp_path)]) == 2

    def test_missing_scenario_file_is_2(self, tmp_path):
        assert main(["lineshape", str(tmp_path / "absent.scn"),
                     "--out-dir", str(tmp_path)]) == 2

    def test_malformed_csv_for_plot_is_3(self, tmp_path):
        header = "omega_k,S,representation,gamma,omega_eg,lamb_shift,cutoff\n"
        first, last = "1.0,0.5,x,0.1,1,0,1000\n", "3.0,0.5,x,0.1,1,0,1000\n"
        bad = tmp_path / "bad.csv"
        bad.write_text(header + "1.0,not_a_number,x,0,0,0,0\n")
        assert main(["plot", str(bad), "--out", str(tmp_path / "p.svg")]) == 3
        # A short row, a row that is not a comment, a bad constant cell, an
        # extra cell, and a representation or constant unlike the first row's.
        for row in ("1.0,0.5\n", "#2.0,0.5,x,0.1,1,0,1000\n",
                    "2.0,0.5,x,0.1,one,0,1000\n", "2.0,0.5,x,0.1,1,0,1000,7\n",
                    "2.0,0.5,y,0.1,1,0,1000\n", "2.0,0.5,x,0.2,1,0,1000\n",
                    "2.0,0.5,x,0.1,2,0,1000\n", "2.0,0.5,x,0.1,1,0.5,1000\n",
                    "2.0,0.5,x,0.1,1,0,100\n"):
            bad.write_text(header + first + row + last)
            assert main(["plot", str(bad), "--out",
                         str(tmp_path / "p.svg")]) == 3, row
        # Columns past the schema's other than one n_factor, a cell each.
        for extra in (",n_factr", ",n_factor,n_factor"):
            ones = ",1" * extra.count(",")
            bad.write_text(f"{header[:-1]}{extra}\n{first[:-1]}{ones}\n")
            assert main(["plot", str(bad), "--out",
                         str(tmp_path / "p.svg")]) == 3, extra
        bad.write_text(header + first + "\n" + last)  # a blank line is skipped
        assert main(["plot", str(bad), "--out", str(tmp_path / "p.svg")]) == 0

    @pytest.mark.parametrize("rows", ["", "1.0,0.5,coulomb,0.1,1,0,1000\n"],
                             ids=["header-only", "one-row"])
    @pytest.mark.parametrize("fmt", ["svg", "gnuplot"])
    def test_plot_of_fewer_than_two_points_is_3(self, rows, fmt, tmp_path,
                                                capsys):
        short = tmp_path / "short.csv"
        short.write_text(
            "omega_k,S,representation,gamma,omega_eg,lamb_shift,cutoff\n" + rows)
        assert main(["plot", str(short), "--plot", fmt, "--out",
                     str(tmp_path / "p.out")]) == 3
        assert capsys.readouterr().err == (
            "error: a plot needs at least two points per curve\n")

    # Squares of huge inputs once raised OverflowError from Python's **.
    @pytest.mark.parametrize("argv", [
        ["lineshape", "--gamma", "1e308"],
        ["pulse", "--rabi", "1e300", "--gamma", "0.1"],
        ["fluorescence", "--gamma", "0.1", "--intensity", "1e308",
         "--dipole", "1e308"],
        ["fluorescence", "--gamma", "1e200"],
        ["lamb-line", "--preset", "lamb-hydrogen", "--gamma-2p1s", "1e200"],
        ["lineshape", "--gamma", "0.1", "--grid", "0.05,3,1e9"],
        ["lineshape", "--gamma", "0.1", "--omega-eg", "1e200", "--cutoff",
         "1e201", "--lamb-shift", "auto"],
    ], ids=" ".join)
    def test_huge_values_exit_cleanly(self, argv, tmp_path, capsys):
        code = main([*argv, "--out-dir", str(tmp_path)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
            return
        for path in tmp_path.glob("*.csv"):
            spectrum = read_spectrum_csv(path)
            assert np.all(np.isfinite(spectrum.values))

    def test_verification_failure_is_4(self, tmp_path, monkeypatch, capsys):
        from lineshape import verify
        from lineshape.verify import CheckResult, VerificationReport

        def broken(cutoff=1000.0):
            return VerificationReport(
                checks=[CheckResult.measure("gamma_invariance_two_level",
                                            "d", 1.0, 1e-12, "c")],
                environment={},
            )

        # The verify runner imports run_all_checks from its module per run.
        monkeypatch.setattr(verify, "run_all_checks", broken)
        assert main(["verify", "--out-dir", str(tmp_path)]) == 4


LINESHAPE_SCN = (
    "mode: lineshape\nrepresentations: coulomb\n\nlineshape:\n"
    "  gamma: 0.1\n  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 11\n"
)
PULSE_SCN = (
    "mode: pulse\nrepresentations: symmetric\n\npulse:\n"
    "  rabi: 1.0\n  gamma: 0.1\n"
    "  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 11\n"
)


# Section keys of a valid scenario file per mode, for the tests below.
BASE_KEYS = {
    "lineshape": {"gamma": "0.1", "grid_min": "0.5", "grid_max": "1.5",
                  "grid_points": "11"},
    "pulse": {"rabi": "1.0", "gamma": "0.1", "grid_min": "0.5",
              "grid_max": "1.5", "grid_points": "11"},
    "lamb-line": {"preset": "lamb-hydrogen"},
}
TOP_FLAGS = {"representations": "--reps", "plot": "--plot"}
GRID_KEYS = ("grid_min", "grid_max", "grid_points")


def scenario_text(mode: str, key: str | None = None, value: str = "") -> str:
    """A valid scenario file for ``mode``, with ``key`` set to ``value``."""
    top = {"mode": mode, "representations": "coulomb"}
    section = dict(BASE_KEYS[mode])
    if key is not None:
        (top if key in TOP_FLAGS else section)[key] = value
    lines = [f"{k}: {v}" for k, v in top.items()] + [mode.replace("-", "_") + ":"]
    lines += [f"  {k}: {v}" for k, v in section.items()]
    return "\n".join(lines) + "\n"


def value_flag(mode: str, key: str, value: str) -> list[str] | None:
    """The flag setting ``key`` to ``value``; None for a switch, which
    takes no value on the command line."""
    if key in TOP_FLAGS:
        return [TOP_FLAGS[key], value]
    if key in GRID_KEYS:
        grid = [value if k == key else BASE_KEYS[mode][k] for k in GRID_KEYS]
        return ["--grid", ",".join(grid)]
    param = PARAMS[mode][key]
    return None if param.kind == "flag" else [_flag(key, param), value]


BAD_VALUES = [
    ("lineshape", "gamma", "fast"),
    ("lineshape", "grid_points", "10.9"),
    ("lineshape", "grid_min", "low"),
    ("lineshape", "grid_max", "three"),
    ("lineshape", "lamb_shift", "abc"),
    ("lineshape", "cutoff", "true"),
    ("lineshape", "plot", "png"),
    ("lineshape", "representations", "weyl"),
    ("lineshape", "representations", "alpha:2"),
    ("lineshape", "representations", ""),
    ("lineshape", "representations", "coulomb,coulomb"),
    ("lineshape", "representations", "alpha:0.3,alpha:0.30"),
    ("lamb-line", "preset", "lamb-helium"),
    ("pulse", "rwa", "no"),
    ("pulse", "include_reference", "nope"),
    ("pulse", "trajectory", "yes"),
    ("pulse", "rabi", "strong"),
    ("pulse", "omega_0", ""),
]


class TestWrongTypedValues:
    """A bad value exits 2 naming its key, nothing is coerced, and a flag
    gives the same exit code and error line as the same key in a file."""

    @pytest.mark.parametrize("mode, key, value", BAD_VALUES, ids=[
        f"{mode}--{key}" + (f"-{value or 'empty'}" if key in TOP_FLAGS else "")
        for mode, key, value in BAD_VALUES])
    def test_scenario_value_exits_2(self, mode, key, value, tmp_path, capsys):
        runs = {"file": [str(tmp_path / "bad.scn")]}
        (tmp_path / "bad.scn").write_text(scenario_text(mode, key, value))
        flag = value_flag(mode, key, value)
        if flag is not None:
            (tmp_path / "good.scn").write_text(scenario_text(mode))
            runs["flag"] = [str(tmp_path / "good.scn"), *flag]
        errors = set()
        for how, args in runs.items():
            out = tmp_path / how
            assert main([mode, *args, "--out-dir", str(out)]) == 2, how
            errors.add(capsys.readouterr().err)
            assert not out.exists(), how
        [err] = errors
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err

    @pytest.mark.parametrize("flags, key", [
        (["--grid", "0.1,3,2.7"], "grid_points"),
        (["--grid", "0.1,three,20"], "grid_max"),
        (["--lamb-shift", "abc"], "lamb_shift"),
    ])
    def test_inline_flag_exits_2(self, flags, key, tmp_path, capsys):
        code = main(["lineshape", "--gamma", "0.1", *flags,
                     "--out-dir", str(tmp_path)])
        assert code == 2
        assert key in capsys.readouterr().err

    def test_flags_accept_true_and_false(self, tmp_path):
        scn = tmp_path / "ok.scn"
        scn.write_text(PULSE_SCN + "  rwa: false\n  include_reference: true\n")
        assert main(["pulse", str(scn), "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "pulse_lorentzian.csv").exists()


class TestCutoffDomain:
    """A non-positive or non-finite cutoff exits 3 with one error line."""

    MESSAGE = "error: cutoff must be finite and positive\n"

    def _assert_rejected(self, argv, capsys, message=MESSAGE):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 3
        assert caught == []
        assert capsys.readouterr().err == message

    @pytest.mark.parametrize("value", ["-1", "0", "inf", "nan"])
    def test_verify_flag(self, value, tmp_path, capsys):
        self._assert_rejected(
            ["verify", f"--cutoff={value}", "--out-dir", str(tmp_path)], capsys)
        assert not (tmp_path / "verification_report.json").exists()

    @pytest.mark.parametrize("value", ["5e-324", "1e300"])
    def test_verify_flag_past_the_mode_grid(self, value, tmp_path, capsys):
        # cutoff/10 underflows to 0, or a mode's square overflows.
        self._assert_rejected(
            ["verify", f"--cutoff={value}", "--out-dir", str(tmp_path)], capsys,
            "error: cutoff must lie in [2.23e-307, 1.34e+154] for verify, whose "
            "mode grid runs from cutoff/10 to cutoff and squares each mode\n")
        assert not (tmp_path / "verification_report.json").exists()

    def test_lineshape_flag(self, tmp_path, capsys):
        self._assert_rejected(
            ["lineshape", "--gamma", "0.1", "--lamb-shift", "auto",
             "--cutoff=-1", "--out-dir", str(tmp_path)], capsys)

    @pytest.mark.parametrize("cutoff", ["1e9", "1e20", "1e300"])
    def test_cutoff_past_the_old_quadrature_bound_gives_the_closed_form(
            self, cutoff, tmp_path, capsys):
        # The shift quadrature resolved cutoffs up to 1e8 times the smallest
        # transition frequency, 1, and rejected larger ones; the closed
        # form takes any cutoff.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lineshape", "--gamma", "0.1", "--lamb-shift", "auto",
                         "--cutoff", cutoff, "--reps", "coulomb",
                         "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        spec = read_spectrum_csv(tmp_path / "lineshape_coulomb.csv")
        want = float(mp_lamb_shift(lineshape.build_two_level(1.0, 1.0), "e",
                                   float(cutoff)))
        assert abs(spec.metadata["lamb_shift"] - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("mode, text", [
        ("verify", "mode: verify\n\nverify:\n  cutoff: -1\n"),
        ("lineshape", LINESHAPE_SCN + "  cutoff: 0\n  lamb_shift: auto\n"),
    ], ids=["verify", "lineshape"])
    def test_scenario_key(self, mode, text, tmp_path, capsys):
        scn = tmp_path / "c.scn"
        scn.write_text(text)
        self._assert_rejected([mode, str(scn), "--out-dir", str(tmp_path)],
                              capsys)


LAMB_SCN = (
    "mode: lamb-line\nrepresentations: coulomb\n\nlamb_line:\n"
    "  omega_prime: 50\n  gamma: 0.2\n"
    "  grid_min: 0.5\n  grid_max: 1.5\n  grid_points: 11\n"
)


def _metadata(out_dir, prefix):
    path = Path(out_dir) / f"{prefix}_metadata.json"
    return json.loads(path.read_text())["parameters"]


class TestParameterTable:
    """One table per mode gives the flags, the file keys and their defaults;
    the flags given override the file's keys."""

    # Flags that are not section keys: output options and the top-level
    # representations/plot/log_scale keys.
    FRONT_END = {"-h", "--help", "--out-dir", "--plot", "--log-scale", "--reps"}

    def test_every_key_has_one_flag_and_every_flag_a_key(self):
        subparsers = build_parser()._subparsers._group_actions[0].choices
        assert set(subparsers) == set(PARAMS) | {"plot"}
        for mode, table in PARAMS.items():
            actions = {opt: action for action in subparsers[mode]._actions
                       for opt in action.option_strings
                       if opt not in self.FRONT_END}
            flags = {_flag(key, param) for key, param in table.items()}
            assert set(actions) == flags, mode
            for key, param in table.items():
                flag = _flag(key, param)
                want = "grid" if flag == "--grid" else key
                assert actions[flag].dest == want, (mode, key)

    def test_lamb_line_file_without_omega_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "l.scn"
        scn.write_text(LAMB_SCN)
        assert main(["lamb-line", str(scn), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "error: lamb-line scenario is missing 'omega'\n")
        # The missing key may come from a flag.
        assert main(["lamb-line", str(scn), "--omega", "1",
                     "--out-dir", str(tmp_path)]) == 0

    def test_preset_overridden_by_flag(self, tmp_path):
        base, more = tmp_path / "base", tmp_path / "more"
        argv = ["lamb-line", "--preset", "lamb-hydrogen", "--reps", "coulomb"]
        assert main(argv + ["--out-dir", str(base)]) == 0
        assert main(argv + ["--intensity", "3", "--omega-prime", "500",
                            "--out-dir", str(more)]) == 0
        params = _metadata(more, "lamb_line")
        assert params["intensity"] == 3.0 and params["omega_prime"] == 500.0
        assert params["omega"] == 1.0 and params["gamma"] == 0.6
        a = read_spectrum_csv(base / "lamb_line_coulomb.csv")
        b = read_spectrum_csv(more / "lamb_line_coulomb.csv")
        np.testing.assert_array_equal(a.grid, b.grid)
        assert not np.allclose(a.values, b.values)

    def test_preset_overridden_by_file_key(self, tmp_path):
        scn = tmp_path / "l.scn"
        scn.write_text((PRESET_DIR / "lamb_line_hydrogen.scn").read_text()
                       + "  omega_prime: 500\n  dipole_proj: 2\n")
        assert main(["lamb-line", str(scn), "--reps", "coulomb",
                     "--out-dir", str(tmp_path / "file")]) == 0
        # The same run spelled out without the preset.
        assert main(["lamb-line", "--omega", "1", "--omega-prime", "500",
                     "--gamma-2p1s", "0.6", "--dipole", "2", "--reps",
                     "coulomb", "--grid", "0.05,4.0,201",
                     "--out-dir", str(tmp_path / "flags")]) == 0
        file = tmp_path / "file" / "lamb_line_hydrogen_coulomb.csv"
        flags = tmp_path / "flags" / "lamb_line_coulomb.csv"
        assert file.read_bytes() == flags.read_bytes()

    def test_preset_flag_matches_the_shipped_file(self, tmp_path):
        assert main(["lamb-line", "--preset", "lamb-hydrogen",
                     "--out-dir", str(tmp_path / "flag")]) == 0
        assert main(["lamb-line", str(PRESET_DIR / "lamb_line_hydrogen.scn"),
                     "--out-dir", str(tmp_path / "file")]) == 0
        for rep in ("coulomb", "poincare", "symmetric"):
            flag = tmp_path / "flag" / f"lamb_line_{rep}.csv"
            file = tmp_path / "file" / f"lamb_line_hydrogen_{rep}.csv"
            assert flag.read_bytes() == file.read_bytes()

    @pytest.mark.parametrize("where", ["flags", "file"])
    def test_omega_l_with_delta_l_exits_2(self, where, tmp_path, capsys):
        both = ["--omega-l", "0.9", "--delta-l", "0.1"]
        if where == "file":
            scn = tmp_path / "p.scn"
            scn.write_text(PULSE_SCN + "  omega_l: 0.9\n  delta_l: 0.1\n")
            both = [str(scn)]
        argv = ["pulse", "--rabi", "1", "--gamma", "0.1", *both,
                "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "omega_l" in err and "delta_l" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["pulse", "--rabi", "1", "--gamma", "0.1", "--cutoff", "5"],
        ["fluorescence", "--gamma", "0.1", "--cutoff", "5"],
        ["lamb-line", "--preset", "lamb-hydrogen", "--cutoff", "5"],
        ["verify", "--plot", "svg"],
        ["verify", "--log-scale"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2] if argv[-1][0] != '-' else argv[-1]}")
    def test_flag_without_effect_is_rejected(self, argv, tmp_path):
        assert main(argv + ["--out-dir", str(tmp_path)]) == 2
        assert list(tmp_path.iterdir()) == []

    def test_given_flags_override_file_keys(self, tmp_path):
        scn = tmp_path / "l.scn"
        scn.write_text(LINESHAPE_SCN)
        assert main(["lineshape", str(scn), "--gamma", "0.2", "--reps",
                     "poincare", "--plot", "gnuplot", "--grid", "0.6,1.4,5",
                     "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "lineshape_poincare.csv"]
        spec = read_spectrum_csv(tmp_path / "lineshape_poincare.csv")
        assert spec.metadata["gamma"] == 0.2
        np.testing.assert_array_equal(spec.grid, np.linspace(0.6, 1.4, 5))
        assert (tmp_path / "lineshape.gp").exists()

    def test_file_gets_the_flag_defaults(self, tmp_path):
        scn = tmp_path / "l.scn"
        scn.write_text("mode: lineshape\nrepresentations: coulomb\n\n"
                       "lineshape:\n  gamma: 0.1\n")
        assert main(["lineshape", str(scn), "--out-dir", str(tmp_path / "f")]) == 0
        assert main(["lineshape", "--gamma", "0.1", "--reps", "coulomb",
                     "--out-dir", str(tmp_path / "i")]) == 0
        name = "lineshape_coulomb.csv"
        assert ((tmp_path / "f" / name).read_bytes()
                == (tmp_path / "i" / name).read_bytes())
        params = _metadata(tmp_path / "f", "lineshape")
        assert params["grid_points"] == 296 and params["cutoff"] == 1000.0

    def test_variable_width_is_no_longer_a_parameter(self, tmp_path):
        scn = tmp_path / "vw.scn"
        scn.write_text(LINESHAPE_SCN + "  variable_width: true\n")
        assert main(["lineshape", str(scn), "--out-dir", str(tmp_path)]) == 2
        assert main(["lineshape", "--gamma", "0.1", "--variable-width",
                     "--out-dir", str(tmp_path)]) == 2
        assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("preset", PRESETS, ids=lambda p: p.stem)
class TestPresets:
    def test_runs_and_matches_golden(self, preset, tmp_path):
        produced = run_preset(preset, tmp_path)
        assert produced, "preset wrote no CSVs"
        for path in produced:
            golden = GOLDEN_DIR / path.name
            assert golden.exists(), f"no golden for {path.name}"
            got = read_spectrum_csv(path)
            want = read_spectrum_csv(golden)
            np.testing.assert_array_equal(got.grid, want.grid)
            np.testing.assert_allclose(got.values, want.values, rtol=1e-12,
                                       atol=0.0)

    def test_two_runs_are_byte_identical(self, preset, tmp_path):
        first = run_preset(preset, tmp_path / "a")
        second = run_preset(preset, tmp_path / "b")
        assert [p.name for p in first] == [p.name for p in second]
        for a, b in zip(first, second):
            assert a.read_bytes() == b.read_bytes()
        for a in (tmp_path / "a").glob("*.svg"):
            b = tmp_path / "b" / a.name
            assert a.read_bytes() == b.read_bytes()


# Presets whose outputs pass only through correctly rounded arithmetic, so
# their bytes do not depend on the libm a numpy build uses.
PINNED = {"lineshape_gauge_family": "lineshape",
          "fluorescence_sweep": "fluorescence",
          "lamb_line_hydrogen": "lamb-line"}
OUTPUT_SHA256 = json.loads((GOLDEN_DIR / "output_sha256.json").read_text())


@pytest.mark.parametrize("fmt", ["svg", "gnuplot"])
@pytest.mark.parametrize("stem", sorted(PINNED))
def test_output_bytes_are_pinned(stem, fmt, tmp_path):
    """Every CSV, SVG, gnuplot script and .dat file of the preset, by hash."""
    assert main([PINNED[stem], str(PRESET_DIR / f"{stem}.scn"), "--plot", fmt,
                 "--out-dir", str(tmp_path)]) == 0
    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
           for path in sorted(tmp_path.iterdir())
           if not path.name.endswith("_metadata.json")}
    assert got == OUTPUT_SHA256[stem][fmt]


class TestPlotting:
    def _spectra(self):
        from lineshape import LineshapeParams, lineshape_S, COULOMB, SYMMETRIC

        grid = np.linspace(0.5, 1.5, 50)
        return [
            lineshape_S(LineshapeParams(COULOMB, 1.0, 0.1), grid),
            lineshape_S(LineshapeParams(SYMMETRIC, 1.0, 0.1), grid),
        ]

    def test_svg_is_deterministic_and_has_legend(self):
        spectra = self._spectra()
        style = PlotStyle(title="t", subtitle="s")
        doc = emit_svg(spectra, style)
        assert doc == emit_svg(self._spectra(), style)
        assert doc.startswith("<svg") and doc.rstrip().endswith("</svg>")
        assert "coulomb" in doc and "symmetric" in doc
        # fixed palette order: coulomb before symmetric
        assert doc.index("coulomb") < doc.index("symmetric")

    def test_log_scale_requires_positive_values(self):
        spectra = self._spectra()
        doc = emit_svg(spectra, PlotStyle(log_scale=True))
        assert "ln(S)" in doc

    def test_empty_list_rejected(self):
        with pytest.raises(ConfigurationError):
            emit_svg([], PlotStyle())

    def test_gnuplot_emission(self):
        dat, script = emit_gnuplot(self._spectra(), PlotStyle(title="x"),
                                   "curves.dat")
        assert dat.splitlines()[0].startswith("# omega")
        assert "plot" in script and "curves.dat" in script

    def test_plot_subcommand_replots_csvs(self, tmp_path):
        assert main(["lineshape", "--gamma", "0.1", "--reps",
                     "coulomb,symmetric", "--out-dir", str(tmp_path)]) == 0
        csvs = sorted(str(p) for p in tmp_path.glob("*.csv"))
        out = tmp_path / "replot.svg"
        assert main(["plot", *csvs, "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")

    # Text from outside the program: a title and a CSV's representation cell.
    TITLE = "a<b & c's >"
    NAME = "x' with lines; print 'injected' #"

    def _replot(self, tmp_path, fmt, out):
        spec = self._spectra()[0]
        spec.metadata["representation"] = self.NAME
        write_spectrum_csv(spec, tmp_path / "x.csv")
        out = tmp_path / out
        assert main(["plot", str(tmp_path / "x.csv"), "--plot", fmt, "--title",
                     self.TITLE, "--out", str(out)]) == 0
        return out

    def test_svg_escapes_outside_text(self, tmp_path):
        from xml.dom import minidom

        doc = minidom.parse(str(self._replot(tmp_path, "svg", "p.svg")))
        texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
        assert texts[0] == self.TITLE
        assert texts[-1] == self.NAME  # the legend
        style = PlotStyle(title="&", subtitle="<s>", xlabel="x & y", ylabel="<")
        doc = minidom.parseString(emit_svg(self._spectra(), style))
        texts = [node.firstChild.data for node in doc.getElementsByTagName("text")]
        assert texts[:2] == ["&", "<s>"] and {"x & y", "<"} <= set(texts)

    def test_gnuplot_quotes_outside_text(self, tmp_path):
        script = self._replot(tmp_path, "gnuplot", "it's.gp").read_text().splitlines()
        assert "set title 'a<b & c''s >'" in script
        assert ("plot 'it''s.dat' using 1:2 with lines title "
                "'x'' with lines; print ''injected'' #'") in script
        _, script = emit_gnuplot(self._spectra(), PlotStyle(xlabel="'", ylabel="''"),
                                 "c.dat")
        lines = script.splitlines()
        assert "set xlabel ''''" in lines and "set ylabel ''''''" in lines

    def test_resampling_onto_first_grid(self):
        from lineshape import LineshapeParams, lineshape_S, COULOMB, POINCARE

        a = lineshape_S(LineshapeParams(COULOMB, 1.0, 0.1),
                        np.linspace(0.5, 1.5, 50))
        b = lineshape_S(LineshapeParams(POINCARE, 1.0, 0.1),
                        np.linspace(0.5, 1.5, 73))
        doc = emit_svg([a, b], PlotStyle())
        assert doc.count("<polyline") == 2


class TestConsoleEntry:
    """``entry()``, the path of the console script and of ``python -m
    lineshape.cli``: it freezes the heap once ``main`` has returned, then
    exits with ``main``'s code."""

    def patch(self, monkeypatch, main_):
        events = []
        monkeypatch.setattr(cli, "gc", SimpleNamespace(
            freeze=lambda: events.append("freeze")))
        monkeypatch.setattr(cli, "main", lambda: main_(events))
        return events

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_freezes_after_main_and_exits_with_its_code(self, code, monkeypatch):
        events = self.patch(monkeypatch, lambda events: events.append("main") or code)
        with pytest.raises(SystemExit) as exited:
            cli.entry()
        assert exited.value.code == code
        assert events == ["main", "freeze"]

    def test_an_exception_from_main_propagates_and_nothing_is_frozen(self, monkeypatch):
        def broken(events):
            raise RuntimeError("broken main")

        events = self.patch(monkeypatch, broken)
        with pytest.raises(RuntimeError, match="broken main"):
            cli.entry()
        assert events == []

    def test_main_in_process_freezes_nothing(self, tmp_path):
        before = gc.get_freeze_count()
        run_preset(PRESETS[0], tmp_path)
        assert main(["verify", "--out-dir", str(tmp_path / "verify")]) == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("mode", ["lineshape", "fluorescence", "lamb-line",
                                      "pulse", "verify"])
    def test_a_python_m_run_exits_0_with_an_empty_stderr(self, mode, tmp_path):
        argv = [mode] + [str(path) for path in PRESETS if preset_mode(path) == mode][:1]
        proc = run_cli(*argv, "--out-dir", str(tmp_path))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert any(tmp_path.iterdir())

    def test_a_bad_flag_exits_2_with_one_error_line(self):
        proc = run_cli("lineshape", "--no-such-flag")
        assert proc.returncode == 2
        errors = [line for line in proc.stderr.splitlines() if "error:" in line]
        assert errors == ["lineshape: error: unrecognized arguments: "
                          "--no-such-flag"]
