import contextlib
import io
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lineshape.cli import main
from lineshape.errors import DomainError, ScenarioError
from lineshape.scenario import (
    PARAMS,
    REQUIRED,
    Scenario,
    build_grid,
    load_scenario,
    parse_scenario,
)

GOOD = """\
# gauge comparison
mode: lineshape
representations: coulomb, poincare, symmetric, alpha:0.3
plot: svg
log_scale: true

lineshape:
  gamma: 0.1
  omega_eg: 1.0
  lamb_shift: 0.0
  grid_min: 0.05
  grid_max: 3.0
  grid_points: 296
  grid_scale: linear
"""


def test_parses_a_complete_scenario():
    scn = parse_scenario(GOOD)
    assert scn.mode == "lineshape"
    assert [r.name for r in scn.representations] == [
        "coulomb", "poincare", "symmetric", "alpha:0.3",
    ]
    assert scn.plot == "svg" and scn.log_scale
    assert scn.params["gamma"] == 0.1
    grid = scn.grid()
    assert len(grid) == 296 and grid[0] == 0.05 and grid[-1] == 3.0


def test_unknown_top_level_key_carries_line_number():
    with pytest.raises(ScenarioError, match="line 2:.*unknown top-level"):
        parse_scenario("mode: verify\ncolor: red\n")


def test_unknown_section_key_rejected():
    text = GOOD.replace("  gamma: 0.1", "  gamma: 0.1\n  typo_key: 3")
    with pytest.raises(ScenarioError, match="typo_key"):
        parse_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="unexpected section"):
        parse_scenario("mode: verify\npulse:\n  rabi: 1\n")


def test_missing_required_key_rejected():
    text = GOOD.replace("  gamma: 0.1\n", "")
    with pytest.raises(ScenarioError, match="missing 'gamma'"):
        parse_scenario(text)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("mode: verify\nmode: verify\n")


def test_bad_representation_is_a_parse_error():
    text = GOOD.replace("alpha:0.3", "weyl")
    with pytest.raises(ScenarioError):
        parse_scenario(text)


def test_mode_is_validated():
    with pytest.raises(ScenarioError, match="unknown mode"):
        parse_scenario("mode: dance\n")


def test_representations_required_outside_verify():
    with pytest.raises(ScenarioError, match="representation"):
        parse_scenario(
            "mode: lineshape\nlineshape:\n  gamma: 0.1\n  grid_min: 0.5\n"
            "  grid_max: 1.5\n  grid_points: 5\n"
        )


def test_verify_scenario_needs_no_representations():
    scn = parse_scenario("mode: verify\n")
    assert scn.mode == "verify" and scn.representations == []


class TestGrid:
    def test_too_few_points(self):
        with pytest.raises(ScenarioError, match="at least 2"):
            build_grid(0.0, 1.0, 1)

    def test_min_below_max(self):
        with pytest.raises(ScenarioError, match="below"):
            build_grid(2.0, 1.0, 10)

    def test_log_grid(self):
        g = build_grid(0.1, 10.0, 5, "log")
        np.testing.assert_allclose(g, np.geomspace(0.1, 10.0, 5))

    def test_log_grid_needs_positive_min(self):
        with pytest.raises(ScenarioError, match="positive"):
            build_grid(0.0, 1.0, 5, "log")

    @pytest.mark.parametrize("lo, hi", [(0.5, np.inf), (-np.inf, 1.0),
                                        (-np.inf, np.inf)])
    def test_non_finite_endpoints_rejected_before_numpy(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="must be finite"):
                build_grid(lo, hi, 11)

    @pytest.mark.parametrize("mode, flags", [
        ("lineshape", ["--gamma", "0.1"]),
        ("pulse", ["--gamma", "0.1", "--rabi", "1"]),
    ])
    def test_non_finite_endpoint_flag_exits_3(self, mode, flags, tmp_path,
                                              capsys):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([mode, "--grid=0.5,inf,11", *flags,
                         "--out-dir", str(tmp_path)])
        assert code == 3 and caught == []
        assert capsys.readouterr().err == (
            "error: grid_min and grid_max must be finite\n")
        assert list(tmp_path.iterdir()) == []

    def test_points_ceiling_checked_at_parse_time(self):
        # Rejected before any grid is built: 1e9 points would need 8 GB.
        with pytest.raises(ScenarioError, match="grid_points .* at most 1000000"):
            parse_scenario(GOOD.replace("grid_points: 296", "grid_points: 1e9"))
        scn = parse_scenario(GOOD.replace("grid_points: 296",
                                          "grid_points: 1000000"))
        assert scn.params["grid_points"] == 10**6

    def test_grid_validated_at_parse_time(self):
        text = GOOD.replace("grid_points: 296", "grid_points: 1")
        with pytest.raises(ScenarioError, match="at least 2"):
            parse_scenario(text)


def test_load_from_file(tmp_path):
    path = tmp_path / "scn.scn"
    path.write_text(GOOD)
    scn = load_scenario(path)
    assert scn.mode == "lineshape"


def test_prefix_defaults_to_mode_name():
    scn = parse_scenario(GOOD)
    assert scn.prefix == "lineshape"
    assert Scenario(mode="verify").prefix == "verify"


# -- generated scenario files ------------------------------------------------
#
# Values come from a small fixed token set: numbers in [-10, 10], nan, inf,
# true, auto and words.  Mostly well-typed values are drawn, so that most
# files reach the computation, and grid_points stays at most 50.

NUMBERS = ["-10", "-1", "0", "0.1", "0.5", "1", "2", "3", "10"]
WORDS = ["nan", "inf", "-inf", "true", "false", "auto", "log", "linear",
         "lamb-hydrogen", "fast"]
VALID = {"number": ["0.1", "0.5", "1", "1.5", "2", "3"],
        "points": ["2", "11", "50"], "flag": ["true", "false"],
        "shift": ["0", "0.1", "auto"],
        "grid_min": ["0.1", "0.5", "1"], "grid_max": ["1.5", "2", "3"]}
REPRESENTATIONS = ["coulomb", "coulomb, poincare, symmetric", "alpha:0.3",
                   "symmetric", "poincare", "weyl"]


@st.composite
def scenario_files(draw, modes=tuple(PARAMS)):
    """(mode, text) of a scenario file; the first choice of each draw is
    the common case, since hypothesis favours it."""
    mode = draw(st.sampled_from(modes))
    table = PARAMS[mode]
    lines = [f"mode: {mode}",
             f"representations: {draw(st.sampled_from(REPRESENTATIONS))}"]
    for key, values in (("plot", ["svg", "gnuplot", "png"]),
                        ("log_scale", ["true", "false", "1"])):
        if draw(st.booleans()):
            lines.append(f"{key}: {draw(st.sampled_from(values))}")
    lines.append(mode.replace("-", "_") + ":")
    keys = [key for key, param in table.items() if draw(st.sampled_from(
        [True, True, True, False] if param.default is REQUIRED
        else [False, False, True]))]
    if draw(st.sampled_from([False] * 9 + [True])):
        keys.append("no_such_key")
    for key in keys:
        kind = table[key].kind if key in table else "number"
        good = VALID.get(key) or (list(kind) if isinstance(kind, tuple)
                                 else VALID[kind])
        odd = draw(st.sampled_from([False] * 7 + [True]))
        lines.append(f"  {key}: {draw(st.sampled_from(NUMBERS + WORDS if odd else good))}")
    if "grid_min" in table and "grid_points" not in keys:
        lines.append("  grid_points: 11")
    return mode, "\n".join(lines) + "\n"


FUZZ = settings(max_examples=300, derandomize=True, database=None,
                deadline=None)


@FUZZ
@given(scenario_files())
def test_parse_raises_only_scenario_error(case):
    _, text = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            parse_scenario(text)
        except ScenarioError:
            pass


# verify is left out: each accepted file would run the whole suite.
@FUZZ
@given(scenario_files(modes=("lineshape", "fluorescence", "lamb-line",
                             "pulse")))
def test_main_exits_0_2_or_3_without_warnings(case):
    mode, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scn"
        path.write_text(text)
        stderr = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            code = main([mode, str(path), "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 2, 3)
    assert stderr.getvalue().count("\n") == (code != 0)
