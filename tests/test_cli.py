"""Command-line interface: output contracts, file writers, exit codes."""

import argparse
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mospop import (
    FixedPointKind,
    FixedPointType,
    SimplexParams,
    analyze,
    basic_offspring_number,
    classify_fixed_point,
    eigenvalues,
    find_fixed_points,
    fixed_point_u,
    jacobian,
    primary_region,
    validate,
)
from mospop.cli import (
    MAX_VALUES,
    NUMBER_FORMAT,
    _json_ready,
    _parse_axis,
    build_parser,
    fmt,
    main,
)
from mospop.params import RATES

EX3 = ["--alpha", "6", "--beta", "0.5", "--mu", "0.4", "--d0", "0.6"]


class TestJsonReady:
    def test_non_finite_floats_become_strings(self):
        assert _json_ready([math.nan, math.inf, -math.inf]) == ["nan", "inf", "-inf"]

    def test_finite_floats_round_to_twelve_digits(self):
        got = _json_ready([1 / 3, 0.1 + 0.2, 1e300 / 3, 5e-324])
        assert got == [0.333333333333, 0.3, 3.33333333333e299, 5e-324]

    def test_negative_zero_keeps_its_sign(self):
        got = _json_ready(-0.0)
        assert got == 0.0 and math.copysign(1.0, got) == -1.0

    def test_complex_becomes_re_im(self):
        assert _json_ready(complex(2 / 3, -math.inf)) == {
            "re": 0.666666666667, "im": "-inf"}
        assert _json_ready(complex(math.nan, 0.0)) == {"re": "nan", "im": 0.0}

    def test_bool_int_str_and_none_pass_through(self):
        got = _json_ready([True, False, 7, -(10**30), "1/3", None])
        assert got == [True, False, 7, -(10**30), "1/3", None]
        assert [type(v) for v in got[:3]] == [bool, bool, int]

    def test_tuples_become_lists_and_dicts_are_walked(self):
        got = _json_ready({"a": (1 / 3, {"b": (math.inf,)}), "c": [(1, 2.5)]})
        assert got == {"a": [0.333333333333, {"b": ["inf"]}], "c": [[1, 2.5]]}
        assert json.dumps(got) == (
            '{"a": [0.333333333333, {"b": ["inf"]}], "c": [[1, 2.5]]}')

    def test_rounds_as_fmt_renders(self):
        for v in (1 / 3, 2.0**-1074, 1.7976931348623157e308, -123456789.123456789):
            assert fmt(_json_ready(v)) == fmt(v)


@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
@example(-0.0)
@example(5e-324)
@example(1e300)
@example(0.1)
@example(1e16)
def test_percent_template_renders_as_fmt(v):
    # the sweep CSV renders float cells with a %-template, everything else
    # with fmt; the two conversions must agree on every float
    assert ("%" + NUMBER_FORMAT) % v == fmt(v)


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse and usage errors land here
        code = int(exc.code or 0)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    return json.loads(out)


class TestClassify:
    def test_human_output(self, capsys):
        code, out, _ = run(capsys, ["classify", *EX3])
        assert code == 0
        assert "primary region: phi1" in out
        assert "1.13636363636" in out  # twelve significant digits

    def test_json_payload(self, capsys):
        d = run_json(capsys, ["classify", *EX3])
        assert d["primary_region"] == "phi1"
        assert d["r0"] == pytest.approx(1.1363636363636365, abs=1e-11)
        assert d["birth_threshold"] == pytest.approx(0.44)
        assert d["flags"]["in_phi1"] is True
        assert d["params"]["d1"] == 0.0

    def test_matched_rates_note(self, capsys):
        code, out, _ = run(capsys, ["classify", "--alpha", "1", "--beta", "1", "--mu", "1"])
        assert code == 0
        assert "continuum of fixed points" in out

    def test_eps_boundary_listing(self, capsys):
        d = run_json(
            capsys,
            ["classify", "--alpha", "1", "--beta", "1.0000005", "--mu", "1", "--eps", "1e-3"],
        )
        assert any("beta vs mu" in b for b in d["boundaries_within_eps"])

    def test_invalid_parameters_exit_2(self, capsys):
        code, _, err = run(capsys, ["classify", "--alpha", "0", "--beta", "1", "--mu", "1"])
        assert code == 2
        assert "alpha" in err


class TestFixedPoints:
    def test_quadratic_death_pair(self, capsys):
        d = run_json(
            capsys,
            ["fixed-points", "--alpha", "1", "--beta", "2", "--mu", "0.5",
             "--d0", "0.5", "--d1", "0.5"],
        )
        assert d["kind"] == "two_points"
        assert d["discriminant"] == pytest.approx(6.0)
        tags = [pt["formula"] for pt in d["points"]]
        assert tags == ["origin", "phi2_closed_form"]
        assert d["points"][1]["x"] == pytest.approx(math.sqrt(6) - 1, abs=1e-10)
        assert all(pt["residual"] <= 1e-10 for pt in d["points"])

    def test_verification_block(self, capsys):
        d = run_json(capsys, ["fixed-points", *EX3, "--verify"])
        assert d["verification"]["max_step_residual"] <= 1e-10
        assert d["verification"]["max_quadratic_residual"] <= 1e-10

    def test_continuum_sample_count(self, capsys):
        d = run_json(
            capsys,
            ["fixed-points", "--alpha", "1", "--beta", "1", "--mu", "1", "--samples", "7"],
        )
        assert d["kind"] == "continuum"
        assert len(d["points"]) == 7

    def test_samples_above_the_cap_exit_2(self, capsys):
        n = MAX_VALUES + 1
        code, out, err = run(
            capsys,
            ["fixed-points", "--alpha", "1", "--beta", "1", "--mu", "1", "--samples", str(n)],
        )
        assert (code, out, err) == (
            2, "", f"error: --samples must be at most {MAX_VALUES}, got {n}\n")

    def test_samples_needs_at_least_two(self, capsys):
        code, _, err = run(
            capsys,
            ["fixed-points", "--alpha", "1", "--beta", "1", "--mu", "1", "--samples", "1"],
        )
        assert code == 2
        assert "error" in err

    # every command that needs the phi1 point reports the overflowing
    # closed form, simulate once its orbit from the origin asks for it
    @pytest.mark.parametrize("argv", [
        ["fixed-points"],
        ["stability"],
        ["simulate", "--x0", "0", "--y0", "0"],
    ])
    def test_phi1_root_beyond_the_double_range_exit_2(self, capsys, argv):
        rates = ["--alpha", "1e300", "--beta", "2", "--mu", "1", "--d0", "1e-10"]
        code, out, err = run(capsys, [argv[0], *rates, *argv[1:]])
        assert (code, out) == (2, "")
        assert err == ("error: phi1 fixed point "
                       "x = alpha*(beta - mu)/(mu*d0) - 1 overflows\n")

    def test_phi1_root_where_mu_times_d0_underflows(self, capsys):
        d = run_json(capsys, ["fixed-points", "--alpha", "1e-200", "--beta", "3e-200",
                              "--mu", "1e-200", "--d0", "1e-200"])
        assert [(pt["x"], pt["y"]) for pt in d["points"]] == [(0.0, 0.0), (1.0, 0.5)]


class TestStability:
    def test_all_fixed_points_default(self, capsys):
        d = run_json(capsys, ["stability", *EX3])
        assert len(d["points"]) == 2
        types = [pt["type"] for pt in d["points"]]
        assert types == ["repelling", "attracting"]

    def test_at_flag(self, capsys):
        d = run_json(capsys, ["stability", *EX3, "--at", "1.5", "9"])
        (pt,) = d["points"]
        assert pt["type"] == "attracting"
        assert pt["eigenvalues"][0]["re"] == pytest.approx(0.9235485598461214, abs=1e-10)
        assert pt["moduli"][0] >= pt["moduli"][1]

    def test_at_non_fixed_state_exit_2(self, capsys):
        code, _, err = run(capsys, ["stability", *EX3, "--at", "2", "2"])
        assert code == 2
        assert "moves" in err

    def test_declared_table_inside_theta(self, capsys):
        d = run_json(capsys, ["stability", "--alpha", "0.4", "--beta", "0.3",
                              "--mu", "0.5", "--d0", "0.2"])
        (row,) = d["declared_types"]
        assert row["declared"] == "attracting"
        assert row["numeric"] == "attracting"
        assert row["agrees"] is True

    def test_no_declared_table_outside_theta(self, capsys):
        d = run_json(capsys, ["stability", *EX3])
        assert "declared_types" not in d

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command", [
        ["stability", *EX3, "--at", "2", "2"],
        ["simulate", *EX3, "--x0", "50", "--y0", "80"],
    ], ids=["stability", "simulate"])
    def test_tol_flag_must_be_positive_and_finite(self, capsys, command, tol):
        # --tol nan used to type the non-fixed (2, 2) as attracting, and
        # simulate --tol inf reported convergence after one step
        code, out, err = run(capsys, [*command, "--tol", tol])
        assert code == 2 and out == ""
        assert err.startswith("error: --tol must be a positive float")

    def test_close_eigenvalue_pair_is_typed(self, capsys):
        # both eigenvalues at the origin lie within 1.5e-7 of 1, where the
        # computed pair keeps only about half its digits; the command must
        # still type the point and exit 0
        d = run_json(capsys, ["stability", "--alpha", "2.3928868106350317e-12",
                              "--beta", "3.3124892075191155e-11",
                              "--mu", "1.4828361822966769e-07"])
        (pt,) = d["points"]
        assert pt["type"] in {t.value for t in FixedPointType}

    def test_verify_block_is_per_point(self, capsys):
        d = run_json(capsys, ["stability", *EX3, "--verify"])
        for pt in d["points"]:
            assert pt["verification"]["fd_jacobian_rel_error"] <= 1e-5
            assert pt["verification"]["eigenvalue_cross_check"] <= 1e-9


# the required arguments of each subcommand, so that one more option can be
# parsed after them
REQUIRED = {
    "classify": EX3,
    "fixed-points": EX3,
    "stability": EX3,
    "simulate": [*EX3, "--x0", "1", "--y0", "1"],
    "simplex": ["--alpha", "1", "--beta", "0.5"],
    "sweep": ["--axis1", "alpha:1:2:1", "--axis2", "beta:1:2:1",
              "--quantity", "r0", "--output", "-"],
    "verify": [],
}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _float_options():
    return [pytest.param(command, action.option_strings[0], action.nargs,
                         action.dest, id=f"{command} {action.option_strings[0]}")
            for command, sub in _subparsers(build_parser()).items()
            for action in sub._actions if action.type is float]


class TestNegativeNumbers:
    @pytest.mark.parametrize("command,option,nargs,dest", _float_options())
    def test_every_float_option_takes_an_exponent(self, command, option, nargs, dest):
        values = ["-1e-3"] * (nargs or 1)
        args = build_parser().parse_args([command, *REQUIRED[command], option, *values])
        got = getattr(args, dest)
        assert got == ([-1e-3] * nargs if nargs else -1e-3)

    @pytest.mark.parametrize("text", ["-1e-3", "-1E+3", "-2.5e0", "-.5e-2", "-7.", "-3"])
    def test_spellings(self, text):
        args = build_parser().parse_args(["simulate", *REQUIRED["simulate"], "--x0", text])
        assert args.x0 == float(text)

    def test_option_names_still_parse_as_options(self, capsys):
        code, _, err = run(capsys, ["simulate", *EX3, "--x0", "--y0", "1"])
        assert code == 2 and "--x0: expected one argument" in err

    def test_simulate_from_a_negative_start(self, capsys):
        code, out, err = run(capsys, ["simulate", "--alpha", "0.5", "--beta", "0.5",
                                      "--mu", "0.5", "--x0", "-1e-3", "--y0", "1"])
        assert code == 0, err
        assert out.startswith("verdict: converged")


@pytest.mark.parametrize("command", REQUIRED)
class TestParserForOneCommand:
    """main builds only the named subcommand's options; nothing it prints or
    parses may differ from the parser with every subcommand's options."""

    def test_help_matches_the_full_parser(self, command):
        full, one = build_parser(), build_parser(command)
        assert one.format_help() == full.format_help()
        assert one.format_usage() == full.format_usage()
        assert (_subparsers(one)[command].format_help()
                == _subparsers(full)[command].format_help())

    def test_parses_as_the_full_parser(self, command):
        argv = [command, *REQUIRED[command]]
        assert build_parser(command).parse_args(argv) == build_parser().parse_args(argv)

    def test_usage_errors_match_the_full_parser(self, capsys, command):
        required = REQUIRED[command]
        bad = [[command, *required, "--no-such-option", "1"]]
        if required:  # the first required flag left out
            bad.append([command, *required[2:]])
        if command == "sweep":
            bad.append([command, *required[:4], "--quantity", "radius", "--output", "-"])
        for argv in bad:
            got = []
            for parser in (build_parser(command), build_parser()):
                with pytest.raises(SystemExit) as exc:
                    parser.parse_args(argv)
                got.append((exc.value.code, capsys.readouterr().err))
            assert got[0] == got[1], argv
            assert got[0][0] == 2 and "error: " in got[0][1], argv


class TestSimulate:
    def test_convergent_run(self, capsys):
        d = run_json(capsys, ["simulate", *EX3, "--x0", "50", "--y0", "80"])
        assert d["verdict"] == "converged"
        assert d["iterations_used"] == 254
        assert d["limit"]["x"] == pytest.approx(1.5, abs=1e-9)
        assert d["samples"][0] == {"iteration": 0, "x": 50.0, "y": 80.0}

    def test_divergent_run_reports_adult_plateau(self, capsys):
        d = run_json(capsys, ["simulate", "--alpha", "1.5", "--beta", "0.5",
                              "--mu", "0.4", "--x0", "10", "--y0", "9",
                              "--divergence-threshold", "1000"])
        assert d["verdict"] == "diverged_x"
        assert d["y_limit_estimate"] == pytest.approx(3.75, abs=1e-2)
        assert "limit" not in d

    def test_periodic_run(self, capsys):
        d = run_json(capsys, ["simulate", "--alpha", "2", "--beta", "1", "--mu", "1",
                              "--x0", "0.3", "--y0", "0.7"])
        assert d["verdict"] == "periodic"
        assert d["period"] == 2

    def test_csv_contract(self, capsys, tmp_path):
        path = tmp_path / "traj.csv"
        code, out, _ = run(capsys, ["simulate", *EX3, "--x0", "50", "--y0", "80",
                                    "--csv", str(path)])
        assert code == 0
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == "iter,x,y"
        assert lines[1] == "0,50,80"
        assert len(lines) >= 100

    def test_svg_contract(self, capsys, tmp_path):
        path = tmp_path / "traj.svg"
        code, *_ = run(capsys, ["simulate", *EX3, "--x0", "50", "--y0", "80",
                                "--svg", str(path)])
        assert code == 0
        text = path.read_text()
        assert text.startswith("<svg xmlns=")
        assert text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == 2
        assert "x (larvae)" in text and "y (adults)" in text

    def test_svg_draws_only_finite_samples(self, capsys, tmp_path):
        # the orbit stops at (inf, 5.5) after one step: only sample 0 is
        # scaled and drawn
        path = tmp_path / "traj.svg"
        code, out, _ = run(capsys, ["simulate", "--alpha", "1", "--beta", "1e308",
                                    "--mu", "0.5", "--x0", "1", "--y0", "10",
                                    "--divergence-threshold", "inf", "--svg", str(path)])
        assert code == 0 and "final state: (inf, 5.5)" in out
        text = path.read_text()
        assert not re.search(r"nan|inf", text, re.IGNORECASE)
        assert re.findall(r'points="([^"]*)"', text) == ["64.00,373.20", "64.00,42.00"]

    @pytest.mark.parametrize("x0, y0, points, labels", [
        ("1e154", "1.7e308", ["64.00,273.70 702.00,410.00", "64.00,42.00 702.00,157.85"],
         ("-1e+308", "1.7e+308")),
        # scaled, the top tick rounds up to 1.0, whose unscaled value overflows
        ("1e153", "1.7976931348623157e308",
         ["64.00,407.96 702.00,410.00", "64.00,42.00 702.00,224.98"],
         ("-1e+306", "1.79769e+308")),
    ])
    def test_svg_of_finite_samples_whose_span_overflows(self, capsys, tmp_path,
                                                       x0, y0, points, labels):
        # both samples are finite, but the span between them is not: values
        # and ticks are scaled by one power of two, labels are not
        path = tmp_path / "traj.svg"
        code, _, _ = run(capsys, ["simulate", "--alpha", "1", "--beta", "1e-10",
                                  "--mu", "0.5", "--d1", "1", "--x0", x0, "--y0", y0,
                                  "--svg", str(path)])
        assert code == 0
        text = path.read_text()
        assert not re.search(r"nan|inf", text, re.IGNORECASE)
        assert re.findall(r'points="([^"]*)"', text) == points
        ticks = re.findall(r'text-anchor="end">([^<]*)<', text)
        assert (ticks[0], ticks[-1]) == labels

    def test_unwritable_output_exit_3(self, capsys):
        code, _, err = run(capsys, ["simulate", *EX3, "--x0", "1", "--y0", "1",
                                    "--csv", "/nonexistent-dir/x.csv"])
        assert code == 3
        assert err

    @pytest.mark.parametrize("flags, message", [
        (["--iters", "0"], "--iters must be at least 1, got 0"),
        (["--iters", "-3"], "--iters must be at least 1, got -3"),
        (["--divergence-threshold", "nan"],
         "--divergence-threshold must be > 0, got nan"),
        (["--divergence-threshold", "-1e3"],
         "--divergence-threshold must be > 0, got -1000.0"),
    ])
    def test_usage_errors_name_their_flag(self, capsys, flags, message):
        code, out, err = run(capsys, ["simulate", *EX3, "--x0", "1", "--y0", "1",
                                      *flags])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_iters_budget(self, capsys):
        d = run_json(capsys, ["simulate", *EX3, "--x0", "50", "--y0", "80",
                              "--iters", "10"])
        assert d["verdict"] == "undecided"
        assert d["iterations_used"] == 10


class TestSimplexCommand:
    def test_corner_report(self, capsys):
        d = run_json(capsys, ["simplex", "--alpha", "2", "--beta", "1"])
        assert d["invariant"] is True
        assert d["invariance_region"] == "B"
        assert d["x_star"] == pytest.approx(math.sqrt(2) - 1, abs=1e-10)
        assert d["u_prime_at_star"] == -1.0
        assert d["stability"].startswith("boundary")
        assert d["shape_class"] == "D"
        assert d["monotonic_shape"] == "decreasing"
        assert d["period2"]["kind"] == "whole_interval"
        assert d["period2"]["roots"] == [0.0, 1.0]
        assert d["period2"]["containment_holds"] is True

    def test_orbit_block(self, capsys):
        d = run_json(capsys, ["simplex", "--alpha", "1", "--beta", "1", "--x0", "0"])
        assert d["orbit"]["kind"] == "fixed_point"
        assert d["orbit"]["limit"] == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-10)

    def test_two_cycle_orbit(self, capsys):
        d = run_json(capsys, ["simplex", "--alpha", "2", "--beta", "1", "--x0", "0.3"])
        assert d["orbit"]["kind"] == "two_cycle"
        assert d["orbit"]["cycle"] == [
            pytest.approx(0.3, abs=1e-12),
            pytest.approx(7 / 13, abs=1e-12),
        ]

    def test_orbit_csv(self, capsys, tmp_path):
        path = tmp_path / "orbit.csv"
        code, *_ = run(capsys, ["simplex", "--alpha", "1", "--beta", "1", "--x0", "0",
                                "--orbit", "10", "--csv", str(path)])
        assert code == 0
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "iter,x"
        assert lines[1] == "0,0"
        assert lines[2] == "1,1"
        assert len(lines) == 12

    def test_outside_region_exit_2(self, capsys):
        code, _, err = run(capsys, ["simplex", "--alpha", "1.9", "--beta", "0.1",
                                    "--x0", "0.5"])
        assert code == 2

    def test_orbit_budget_exhaustion_exit_2(self, capsys):
        code, out, err = run(capsys, ["simplex", "--alpha", "1.99999999",
                                      "--beta", "1", "--x0", "0.1"])
        assert (code, out) == (2, "")
        assert err.startswith("error: orbit still ")
        assert "after 100000 iterations" in err

    @pytest.mark.parametrize("argv, message", [
        (["--orbit", "5", "--csv", "o.csv"], "--orbit needs --x0"),
        (["--x0", "0.3", "--csv", "o.csv"], "--csv needs a positive --orbit"),
        (["--x0", "0.3", "--orbit", "0", "--csv", "o.csv"],
         "--csv needs a positive --orbit"),
        (["--orbit", "5"], "--orbit needs --x0"),
        (["--x0", "0.3", "--orbit", "-3", "--json"], "--orbit must be >= 0, got -3"),
        (["--x0", "0.3", "--orbit", "-3", "--csv", "o.csv"],
         "--csv needs a positive --orbit"),
        (["--x0", "0.3", "--orbit", str(MAX_VALUES + 1)],
         f"--orbit must be at most {MAX_VALUES}, got {MAX_VALUES + 1}"),
    ])
    def test_orbit_flags_that_would_be_ignored_exit_2(self, capsys, tmp_path,
                                                      monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, ["simplex", "--alpha", "1", "--beta", "0.5",
                                      *argv])
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta", ["2", "3"])
    def test_beta_where_a_period2_denominator_vanishes(self, capsys, beta):
        d = run_json(capsys, ["simplex", "--alpha", "1", "--beta", beta])
        assert d["period2"] == {"kind": "empty", "roots": [],
                                "containment_holds": False}

    def test_human_shape_line(self, capsys):
        code, out, _ = run(capsys, ["simplex", "--alpha", "2", "--beta", "1"])
        assert code == 0
        assert "shape class: D (decreasing)" in out

    def test_verify_block(self, capsys):
        d = run_json(capsys, ["simplex", "--alpha", "1", "--beta", "0.5", "--verify"])
        assert d["verification"]["fixed_point_residual"] <= 1e-12
        assert d["verification"]["fd_derivative_gap"] <= 1e-6

    @pytest.mark.parametrize("alpha, beta", [("1e-300", "1e300"), ("1e300", "1e-300")])
    def test_verify_where_u_overflows_writes_no_warning(self, capsys, alpha, beta):
        # the period-2 scan iterates U over a grid, where U overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, ["simplex", "--alpha", alpha, "--beta", beta,
                                        "--verify"])
        assert (code, err) == (0, "")
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []

    @pytest.mark.parametrize("alpha, beta", [("1e-300", "1e300"), ("1e300", "1e-300")])
    def test_verify_derivative_gap_is_relative(self, capsys, alpha, beta):
        # U'(x*) = -1e300 here, so an absolute gap would read about 1e289
        d = run_json(capsys, ["simplex", "--alpha", alpha, "--beta", beta, "--verify"])
        assert abs(d["u_prime_at_star"]) == 1e300
        assert d["verification"]["fd_derivative_gap"] <= 1e-6


class TestSweep:
    def test_stdout_grid(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--axis1", "alpha:0.5:1.5:0.5",
                                    "--axis2", "beta:0.5:1:0.25",
                                    "--quantity", "x_star", "--output", "-"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,beta,x_star"
        assert len(lines) == 10  # 3 x 3 grid, axis1 outermost
        assert lines[1].startswith("0.5,0.5,")
        assert lines[2].startswith("0.5,0.75,")
        assert lines[4].startswith("1,0.5,")
        assert lines[6] == "1,1,0.61803398875"

    def test_file_output_and_summary(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, _ = run(capsys, ["sweep", "--axis1", "alpha:1:2:1",
                                    "--axis2", "beta:0.5:1:0.5",
                                    "--quantity", "x_star", "--output", str(path)])
        assert code == 0
        assert "wrote 4 cells" in out
        assert path.read_text().startswith("alpha,beta,x_star")

    def test_json_summary(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        d = run_json(capsys, ["sweep", "--axis1", "alpha:1:2:1",
                              "--axis2", "beta:0.5:1:0.5",
                              "--quantity", "r0", "--mu", "0.5",
                              "--output", str(path)])
        assert d["cells"] == 4
        assert d["quantity"] == "r0"
        assert d["axis1"] == "alpha" and d["axis2"] == "beta"
        assert len(d["rows"]) == 4
        assert d["rows"][0][:2] == [1.0, 0.5]

    @pytest.mark.parametrize("quantity", ["region", "fixed_point_count"])
    def test_json_rows_hold_the_labels(self, capsys, tmp_path, quantity):
        path = tmp_path / "grid.csv"
        d = run_json(capsys, ["sweep", "--axis1", "beta:0.5:1.5:0.5",
                              "--axis2", "d0:0:0.25:0.25", "--quantity", quantity,
                              "--alpha", "1", "--mu", "1", "--output", str(path)])
        assert d["cells"] == 3 * 2
        assert d["rows"] == [
            [beta, d0, self._scalar_cell(quantity, {"alpha": 1.0, "beta": beta, "mu": 1.0,
                                                    "d0": d0, "d1": 0.0})]
            for beta in (0.5, 1.0, 1.5) for d0 in (0.0, 0.25)]
        assert len({row[2] for row in d["rows"]}) == 3
        body = path.read_text().split("\n")[1:-1]
        assert [line.split(",")[2] for line in body] == [row[2] for row in d["rows"]]

    def test_region_quantity(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--axis1", "beta:0.5:1.5:0.5",
                                    "--axis2", "d0:0:0.25:0.25",
                                    "--quantity", "region",
                                    "--alpha", "1", "--mu", "1", "--output", "-"])
        assert code == 0
        body = out.strip().split("\n")[1:]
        assert body[0] == "0.5,0,omega_star"
        assert "1,0,psi" in body
        assert "1.5,0.25,phi1" in body  # births above the lifted threshold

    def test_missing_required_parameter_exit_2(self, capsys):
        code, _, err = run(capsys, ["sweep", "--axis1", "alpha:1:2:1",
                                    "--axis2", "beta:0.5:1:0.5",
                                    "--quantity", "r0", "--output", "-"])
        assert code == 2
        assert "mu" in err

    def test_duplicate_axes_exit_2(self, capsys):
        code, *_ = run(capsys, ["sweep", "--axis1", "alpha:1:2:1",
                                "--axis2", "alpha:1:2:1",
                                "--quantity", "x_star", "--output", "-"])
        assert code == 2

    @pytest.mark.parametrize("axis1, flags, message", [
        ("alpha:1:2:1", ["--mu", "1", "--output", "-", "--json"],
         "--json needs --output PATH"),
        ("alpha:1:2:1", ["--mu", "1", "--alpha", "3", "--output", "-"],
         "--alpha is given, but alpha is an axis"),
        ("alpha:1:2:1", ["--mu", "1", "--beta", "0.5", "--output", "-"],
         "--beta is given, but beta is an axis"),
        ("d0:0:1:1", ["--alpha", "1", "--mu", "1", "--d0", "0", "--output", "-"],
         "--d0 is given, but d0 is an axis"),
    ])
    def test_flags_that_would_be_ignored_exit_2(self, capsys, axis1, flags, message):
        code, out, err = run(capsys, ["sweep", "--axis1", axis1,
                                      "--axis2", "beta:1:2:1",
                                      "--quantity", "r0", *flags])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("axis2, flags, name", [
        ("mu:0.5:1:0.5", ["--beta", "0.5"], "mu"),
        ("beta:0.5:1:0.5", ["--mu", "3", "--d1", "7"], "mu"),
        ("beta:0.5:1:0.5", ["--d0", "0"], "d0"),
        ("d1:0:1:1", ["--beta", "0.5"], "d1"),
        ("beta:0.5:1:0.5", ["--d1", "7"], "d1"),
    ])
    def test_x_star_rejects_the_rates_it_does_not_read(self, capsys, axis2, flags, name):
        # x* is a function of (alpha, beta) alone: a mu, d0 or d1 axis or
        # flag would be ignored without a word
        code, out, err = run(capsys, ["sweep", "--axis1", "alpha:1:2:1", "--axis2", axis2,
                                      "--quantity", "x_star", *flags, "--output", "-"])
        assert (code, out, err) == (
            2, "", f"error: quantity 'x_star' depends on alpha and beta only, not {name}\n")

    def test_negative_zero_d0_keeps_its_sign(self, capsys, monkeypatch):
        import mospop.cli as cli

        seen = []
        monkeypatch.setattr(cli, "_sweep_cells",
                            lambda quantity, grid, shape: seen.append(grid) or [1.0])
        code, _, err = run(capsys, ["sweep", "--axis1", "alpha:1:1:1",
                                    "--axis2", "beta:1:1:1", "--quantity", "r0",
                                    "--mu", "1", "--d0", "-0.0", "--output", "-"])
        assert code == 0, err
        assert math.copysign(1.0, seen[0]["d0"]) == -1.0
        assert seen[0]["d1"] == 0.0

    def test_malformed_axis_exit_2(self, capsys):
        # too few fields, an infinite bound, a NaN bound, an infinite step
        for spec in ("alpha:2:1", "alpha:0.5:inf:1", "alpha:nan:1:0.5",
                     "alpha:0.5:1:inf"):
            code, out, err = run(capsys, ["sweep", "--axis1", spec, "--axis2",
                                          "beta:0.5:1:0.5", "--quantity",
                                          "x_star", "--output", "-"])
            assert code == 2, spec
            assert out == "" and err.startswith("error: "), spec

    @pytest.mark.parametrize("axis1", [
        "alpha:0:1:1e-12",            # a mistyped step: 10**12 values
        "alpha:0:1:1e-4",             # 10,001 x 1,001 cells, just above the cap
        "alpha:-1e308:1e308:1",       # the span overflows to inf
    ])
    def test_grid_above_the_cap_exit_2(self, capsys, axis1):
        # rejected from the two counts alone, before any value is built
        code, out, err = run(capsys, ["sweep", "--axis1", axis1,
                                      "--axis2", "beta:0:1:1e-3",
                                      "--quantity", "r0", "--mu", "1",
                                      "--output", "-"])
        assert code == 2 and out == ""
        assert err.startswith("error: the grid ") and err.count("\n") == 1
        assert f"more than {MAX_VALUES} cells" in err

    def test_axis_count_is_capped(self):
        assert _parse_axis("alpha:0:9999:1") == ("alpha", 0.0, 1.0, 10_000)
        assert _parse_axis("alpha:0:1:1e-12")[3] == MAX_VALUES + 1

    # (axis1, axis2, fixed rates); each grid is swept for every quantity
    AGREEMENT_GRIDS = [
        # beta x mu on shared values: the diagonal is the psi line beta = mu
        ("beta:0.25:2:0.25", "mu:0.25:2:0.25", {"alpha": 1.5}),
        # alpha = d0 = 1, mu = 0.5, beta = 1 sits exactly on the threshold
        ("alpha:0.5:1.5:0.5", "beta:0.5:1.5:0.25", {"mu": 0.5, "d0": 1.0}),
        # d1 = 0 next to d1 > 0, with d0 = 0 and d0 > 0
        ("d1:0:0.5:0.25", "beta:0.5:2:0.5", {"alpha": 2.0, "mu": 0.5, "d0": 0.5}),
        ("d0:0:0.5:0.25", "d1:0:0.5:0.25", {"alpha": 2.0, "beta": 0.5, "mu": 0.5}),
        # rates over many orders of magnitude
        ("alpha:1e-06:1000000:125000", "beta:1e-05:1000:62.5",
         {"mu": 1e-3, "d0": 1e4, "d1": 3e-7}),
        ("mu:1e-09:4e-09:1e-09", "d0:0:3e+06:1e+06",
         {"alpha": 2e-9, "beta": 5e-9, "d1": 0.0}),
        # (alpha + d0)*mu underflows to 0 here; r0 is still 1e200 or 5e199
        ("alpha:1e-200:2e-200:1e-200", "mu:1e-200:2e-200:1e-200", {"beta": 1.0}),
        # one row, one column and one cell
        ("beta:1:1:1", "mu:0.25:2:0.25", {"alpha": 1.5}),
        ("d1:0:1:0.25", "mu:1:1:1", {"alpha": 1.5, "beta": 2.0}),
        ("beta:1:1:1", "mu:1:1:1", {"alpha": 1.5}),
    ]

    @staticmethod
    def _scalar_cell(quantity, rates):
        if quantity == "x_star":
            return fmt(fixed_point_u(SimplexParams(rates["alpha"], rates["beta"])))
        p = validate(*(rates[n] for n in ("alpha", "beta", "mu", "d0", "d1")))
        if quantity == "region":
            return primary_region(p)
        if quantity == "r0":
            return fmt(basic_offspring_number(p))
        if quantity == "fixed_point_count":
            fps = find_fixed_points(p)
            if fps.kind is FixedPointKind.CONTINUUM:
                return "inf"
            return str(len(fps.points))
        return fmt(abs(eigenvalues(jacobian(p, (0.0, 0.0)))[0]))

    @pytest.mark.parametrize("quantity", ["region", "r0", "fixed_point_count",
                                          "spectral_radius_at_origin", "x_star"])
    def test_cells_agree_with_scalar_api(self, capsys, quantity):
        seen = set()
        for axis1, axis2, fixed in self.AGREEMENT_GRIDS:
            if quantity == "x_star":
                # x* reads alpha and beta only; any other axis or rate exits 2
                if {axis1.split(":")[0], axis2.split(":")[0]} != {"alpha", "beta"}:
                    continue
                fixed = {}
            argv = ["sweep", "--axis1", axis1, "--axis2", axis2,
                    "--quantity", quantity, "--output", "-"]
            for name, v in fixed.items():
                argv += [f"--{name}", repr(v)]
            code, out, err = run(capsys, argv)
            assert code == 0, err
            lines = out.split("\n")
            assert lines[-1] == ""
            name1, lo1, _, step1 = axis1.split(":")
            name2, lo2, _, step2 = axis2.split(":")
            assert lines[0] == f"{name1},{name2},{quantity}"
            cells = [ln.split(",") for ln in lines[1:-1]]
            n2 = sum(1 for c in cells if c[0] == cells[0][0])
            assert len(cells) % n2 == 0
            for k, (c1, c2, got) in enumerate(cells):
                i, j = divmod(k, n2)
                rates = {"alpha": None, "beta": None, "mu": None,
                         "d0": 0.0, "d1": 0.0, **fixed}
                rates[name1] = float(lo1) + i * float(step1)
                rates[name2] = float(lo2) + j * float(step2)
                assert (c1, c2) == (fmt(rates[name1]), fmt(rates[name2]))
                assert got == self._scalar_cell(quantity, rates), (rates, got)
                seen.add(got)
        if quantity == "region":
            assert seen == {"omega_star", "phi1", "phi2", "psi"}
        if quantity == "fixed_point_count":
            assert seen == {"1", "2", "inf"}

    @pytest.mark.parametrize("quantity", ["region", "x_star"])
    def test_first_inadmissible_cell_exit_2(self, capsys, quantity):
        mu = ["--mu", "1"] if quantity == "region" else []
        code, out, err = run(capsys, ["sweep", "--axis1", "alpha:0:1:0.5",
                                      "--axis2", "beta:-1:1:0.5",
                                      "--quantity", quantity, *mu,
                                      "--output", "-"])
        assert code == 2 and out == ""
        # row-major order: the first cell is alpha = 0, beta = -1
        if quantity == "x_star":
            with pytest.raises(ValueError) as exc:
                SimplexParams(0.0, -1.0)
        else:
            with pytest.raises(ValueError) as exc:
                validate(0.0, -1.0, 1.0, 0.0, 0.0)
        assert err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("quantity, seed", [("spectral_radius_at_origin", 11),
                                                ("x_star", 13)])
    def test_full_range_cells_are_the_numbers_the_reports_print(self, capsys,
                                                                quantity, seed):
        # 300 random 4x4 grids, every rate about 10**U(-300, 300), each axis
        # steps of 1% to 10 times its first value: each radius cell
        # is the modulus `stability --at 0 0` reports, each x* cell the x*
        # `simplex` reports
        rng = np.random.default_rng(seed)
        names = ("alpha", "beta") if quantity == "x_star" else RATES

        def rate():
            return float(10.0 ** rng.uniform(-300, 300))

        for _ in range(300):
            axes = [str(n) for n in rng.permutation(names)[:2]]
            specs = []
            for name in axes:
                lo = rate()
                step = lo * float(10.0 ** rng.uniform(-2, 1))
                specs.append(f"{name}:{lo!r}:{lo + 3 * step!r}:{step!r}")
            fixed = {n: rate() for n in names if n not in axes}
            argv = ["sweep", "--axis1", specs[0], "--axis2", specs[1],
                    "--quantity", quantity, "--output", "-"]
            for name, v in fixed.items():
                argv += [f"--{name}", repr(v)]
            code, out, err = run(capsys, argv)
            assert code == 0, err
            (name1, lo1, step1, n1), (name2, lo2, step2, n2) = map(_parse_axis, specs)
            cells = [ln.rsplit(",", 1)[1] for ln in out.split("\n")[1:-1]]
            assert len(cells) == n1 * n2 == 16
            for k, got in enumerate(cells):
                i, j = divmod(k, n2)
                rates = {"d0": 0.0, "d1": 0.0, **fixed,
                         name1: lo1 + i * step1, name2: lo2 + j * step2}
                if quantity == "x_star":
                    want = analyze(SimplexParams(rates["alpha"], rates["beta"])).x_star
                else:
                    p = validate(*(rates[n] for n in RATES))
                    want = abs(classify_fixed_point(p, (0.0, 0.0)).eigenvalues[0])
                assert got == fmt(want), (argv, rates)

    def test_unknown_quantity_exit_2(self, capsys):
        code, *_ = run(capsys, ["sweep", "--axis1", "alpha:1:2:1",
                                "--axis2", "beta:0.5:1:0.5",
                                "--quantity", "entropy", "--output", "-"])
        assert code == 2


class TestVerifyCommand:
    @pytest.mark.parametrize("draws", ["0", "-3"])
    def test_fewer_than_one_draw_exit_2(self, capsys, draws):
        code, out, err = run(capsys, ["verify", "--draws", draws])
        assert (code, out, err) == (2, "", f"error: --draws must be at least 1, got {draws}\n")

    def test_draws_above_the_cap_exit_2(self, capsys):
        # rejected before any draw is made
        n = MAX_VALUES + 1
        code, out, err = run(capsys, ["verify", "--draws", str(n)])
        assert (code, out, err) == (2, "", f"error: --draws must be at most {MAX_VALUES}, got {n}\n")

    def test_passes_and_prints_one_line_per_check(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        passes = [ln for ln in out.splitlines() if ln.startswith("PASS ")]
        assert len(passes) == 6
        assert "verification passed" in out

    def test_json_mode(self, capsys):
        d = run_json(capsys, ["verify", "--draws", "100"])
        assert d["pass"] is True
        assert len(d["checks"]) == 6
        assert all(c["pass"] for c in d["checks"])
        assert {c["name"] for c in d["checks"]} >= {
            "quad_roots_residual",
            "fd_jacobian_agreement",
            "r0_threshold_equivalence",
        }


class TestProcessLevel:
    def test_module_entry_point(self):
        out = subprocess.run(
            [sys.executable, "-m", "mospop", "classify", *EX3],
            capture_output=True, text=True,
        )
        assert out.returncode == 0
        assert "phi1" in out.stdout

    def test_byte_identical_reruns(self, tmp_path):
        argv = [sys.executable, "-m", "mospop", "simulate", *EX3,
                "--x0", "50", "--y0", "80", "--json"]
        a = subprocess.run(argv, capture_output=True)
        b = subprocess.run(argv, capture_output=True)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_tolerance_comes_from_the_flag_only(self):
        # MOSPOP_TOL is not read: --tol is the only tolerance source
        env = dict(os.environ, MOSPOP_TOL="1e-3")
        argv = [sys.executable, "-m", "mospop", "simulate", *EX3,
                "--x0", "50", "--y0", "80", "--json"]
        with_env = subprocess.run(argv, capture_output=True, env=env)
        without = subprocess.run(argv, capture_output=True)
        assert with_env.returncode == without.returncode == 0
        assert with_env.stdout == without.stdout

    @pytest.mark.parametrize("argv", [
        ["fixed-points", "--alpha", "1", "--beta", "2", "--mu", "1", "--d1", "1e200"],
        ["stability", "--alpha", "1e10", "--beta", "2", "--mu", "1", "--d0", "1e-160"],
        # (alpha + d0)*mu underflows to 0; r0 is 1e200
        ["classify", "--alpha", "1e-200", "--beta", "1", "--mu", "1e-200"],
    ])
    def test_overflowing_rates_no_traceback(self, argv):
        out = subprocess.run([sys.executable, "-m", "mospop", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "Traceback" not in out.stderr

    def test_simulate_leaving_the_domain_needs_no_fixed_points(self):
        # find_fixed_points fails on these rates (the phi1 root overflows),
        # but the orbit leaves the domain x > -1 after one step
        argv = ["simulate", "--alpha", "1e300", "--beta", "2", "--mu", "1",
                "--d0", "1e-10", "--x0", "1", "--y0", "1", "--json"]
        out = subprocess.run([sys.executable, "-m", "mospop", *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        payload = json.loads(out.stdout)
        assert payload["verdict"] == "undecided"
        assert payload["iterations_used"] == 1
        assert payload["left_positive_quadrant"]

    # Each argument list runs cli.main in a fresh interpreter, which then
    # must not hold numpy: only sweep, verify and the --verify blocks that
    # build arrays import it.
    NUMPY_FREE = [
        ["classify", *EX3],
        ["classify", "--json", "--eps", "0.05", "--alpha", "2", "--beta", "1",
         "--mu", "0.5", "--d1", "0.5"],
        ["fixed-points", *EX3],
        ["fixed-points", "--json", "--verify", "--alpha", "1", "--beta", "0.5",
         "--mu", "0.5"],
        ["simplex", "--alpha", "1.5", "--beta", "0.5", "--x0", "0.3"],
        ["simulate", *EX3, "--x0", "50", "--y0", "80"],
        ["simulate", "--json", "--alpha", "0.5", "--beta", "0.5", "--mu", "0.5",
         "--x0", "1", "--y0", "1", "--iters", "500"],
        ["stability", *EX3],
        # the quadrant-preserving set, so the declared table is rendered too
        ["stability", "--json", "--alpha", "0.9", "--beta", "2", "--mu", "0.95",
         "--d0", "0.05"],
    ]

    @pytest.mark.parametrize("argv", NUMPY_FREE, ids=lambda a: " ".join(a[:3]))
    def test_numpy_free_invocations(self, argv):
        script = (
            "import sys\n"
            "from mospop.cli import main\n"
            "assert main(sys.argv[1:]) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        out = subprocess.run([sys.executable, "-c", script, *argv],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout

    def test_import_leaves_numpy_unloaded_and_oracles_loaded(self):
        # the benchmark's tracer looks mospop.oracles up in sys.modules
        script = (
            "import sys, mospop, mospop.cli\n"
            "assert 'numpy' not in sys.modules\n"
            "assert 'mospop.oracles' in sys.modules\n"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr

    @pytest.mark.parametrize("argv", [
        ["stability", "--json", "--verify", *EX3],
        ["stability", "--alpha", "2", "--beta", "1", "--mu", "0.5", "--d1", "0.5"],
        ["sweep", "--axis1", "alpha:0.5:1.5:0.5", "--axis2", "beta:0.5:1:0.25",
         "--quantity", "spectral_radius_at_origin", "--mu", "0.5", "--output", "-"],
    ], ids=lambda a: " ".join(a[:2]))
    def test_numpy_paths_match_in_process(self, capsys, argv):
        # a fresh process imports numpy inside the command; the output must
        # equal the in-process run, where numpy is already loaded
        code, expected, _ = run(capsys, argv)
        out = subprocess.run([sys.executable, "-m", "mospop", *argv],
                             capture_output=True, text=True)
        assert code == out.returncode == 0, out.stderr
        assert out.stdout == expected

    def test_no_subcommand_exit_2(self):
        out = subprocess.run([sys.executable, "-m", "mospop"], capture_output=True)
        assert out.returncode == 2
