"""Command-line surface: exit codes, determinism, report round-trips.

Frozen oracle row for the rest-data scenario (flat background, massless,
u0 = 3 on the torus of half width pi): kappa = 1/4, A = 108 pi, B = 18 pi,
T = pi^2, y0 = (18 pi)^(-1/4), y1 = 0.
"""

import csv
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kgflrw import bundled_scenario_text, cli, config, dynamics
from kgflrw.config import ProfileSpec, Scenario
from kgflrw.cli import ORACLE_COLUMNS, main_entry, parse_report
from kgflrw.dynamics import Start, Trace
from kgflrw.errors import InvariantViolation, ParseError
from kgflrw.functionals import (CSV_COLUMNS, FunctionalSnapshot,
                                snapshot_csv_values)
from kgflrw.hypotheses import concavity_problem, evaluate
from kgflrw.odelab import (random_admissible_problems, solve_concavity,
                           tstar_bound)
from oracles import TSTAR, corollaries, count_calls, edited_scenario

WRAP_CFG = """
scale.family = powerlaw
scale.H = 0
phys.m = 0
phys.c = 1
nonlin.family = none
grid.n = 1
grid.N = 64
grid.half_width = 1.0
data0.kind = bump
data0.amplitude = 1
data0.width = 0.5
run.t_end = 1.0
run.dt = 1e-2
run.theorem_mode = none
"""

SWEEP_CFG = """
scale.family = powerlaw
scale.H = 0
phys.m = 1
phys.c = 1
nonlin.family = gauge
nonlin.p = 2
grid.n = 1
grid.N = 16
grid.half_width = 3.141592653589793
data0.kind = homogeneous
data0.amplitude = 3
data1.kind = homogeneous
data1.amplitude = 0
run.t_end = 3.0
run.dt = 1e-3
run.theorem_mode = auto
"""


# WRAP_CFG with the gauge coupling and neither step control nor the norm
# threshold stopping a blow-up: amplitude 1 wraps at t = 0.5, amplitude 1000
# blows up before that and ends non-finite
ENDINGS_CFG = WRAP_CFG.replace(
    "nonlin.family = none", "nonlin.family = gauge\nnonlin.p = 2") + (
    "run.growth_tol = 1e300\nrun.blowup_threshold = 1e300\n")


TABLE_CFG = """
scale.family = tabulated
scale.table_path = table.txt
phys.m = 1
phys.c = 1
nonlin.family = gauge
nonlin.p = 2
grid.n = 1
grid.N = 16
grid.half_width = 3.141592653589793
data0.kind = homogeneous
data0.amplitude = 0.5
run.t_end = 0.2
run.dt = 1e-2
run.theorem_mode = none
"""


def write_cfg(tmp_path, text, name="scn.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def bundled_path(tmp_path, name):
    return write_cfg(tmp_path, bundled_scenario_text(name), f"{name}.cfg")


def test_check_anchor_exit_zero(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "minkowski-m0-u2-A3")
    rc = main_entry(["check", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    rep = parse_report(out)
    assert rep["theorem"] == "both"
    assert rep["mode"] == "thm1"
    assert rep["T_bound"] == pytest.approx(math.pi ** 2, rel=1e-12)
    assert rep["scenario"] == "minkowski-m0-u2-A3"


def test_check_report_roundtrips_both_formats(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "desitter-thm2")
    rc = main_entry(["check", cfg])
    kv = parse_report(capsys.readouterr().out)
    rc2 = main_entry(["check", cfg, "--csv"])
    as_csv = parse_report(capsys.readouterr().out)
    assert rc == rc2 == 0
    common = set(kv) & set(as_csv)
    assert "T_bound" in common and "margin.thm2.delta" in common
    for key in common:
        assert kv[key] == as_csv[key], key
    assert kv["T_bound"] == pytest.approx(360 * math.pi ** 2 / 109, rel=1e-12)


@pytest.mark.parametrize("text, rows", [
    ("a,b", 0), ("a,b\n", 0), ("a,b\n1,2\n3,4\n", 2),
    ("a,b\n1,2\n# note\n\n3,4", 2)])
def test_parse_report_needs_one_csv_value_row(text, rows):
    """A CSV report is a header and one value row: none (an IndexError
    before) and two or more (the first kept before) are a ParseError."""
    with pytest.raises(ParseError, match=f"one value row, got {rows}"):
        parse_report(text)


@pytest.mark.parametrize("text, line", [
    ("a = 1\na = 2", 2), ("# note\na = 1\n\nb = 3\na = 2\n", 5)])
def test_parse_report_refuses_a_duplicate_key(text, line):
    """Two `key = value` lines with one key are a ParseError naming the key
    and the second line, counted in the text (the last was kept before)."""
    with pytest.raises(ParseError, match=f"line {line}: duplicate key 'a'"):
        parse_report(text)


@pytest.mark.parametrize("text, line", [("a,b,a\n1,2,3", 1),
                                        ("# note\na,a\n1,2\n", 2)])
def test_parse_report_refuses_a_duplicate_csv_header_name(text, line):
    """A CSV header that names one key twice is a ParseError naming the key
    and the header's line (the last column was kept before)."""
    with pytest.raises(ParseError, match=f"line {line}: duplicate key 'a'"):
        parse_report(text)


def test_check_prints_the_head_of_simulate_report(tmp_path, capsys):
    """check and simulate certify the run's own t0 measurement: check's
    output is the first lines of simulate's report.txt, whose L0, E_t0 and
    I_u0 are the bits of the trace's first row, on uniform data whose
    one-cell integrals a whole-array sum may round otherwise (the anchor at
    amplitude 3+0.5j, and at N = 48) and on non-uniform data
    (desitter-smooth)."""
    anchor = bundled_scenario_text("minkowski-m0-u2-A3")
    smooth = bundled_scenario_text("desitter-smooth")
    for name, text, old, new in (
            ("complex", anchor, "data0.amplitude = 3.0",
             "data0.amplitude = 3+0.5j"),
            ("n48", anchor, "grid.N = 64", "grid.N = 48"),
            ("smooth", smooth, "run.t_end = 0.8", "run.t_end = 0.05")):
        assert text.count(old) == 1
        text = text.replace(old, new).replace("run.t_end = 1.75",
                                              "run.t_end = 0.05")
        cfg = write_cfg(tmp_path, text, f"{name}.cfg")
        main_entry(["check", cfg])
        checked = capsys.readouterr().out
        out = tmp_path / name
        assert main_entry(["simulate", cfg, "--out", str(out)]) == 0
        capsys.readouterr()
        report = (out / "report.txt").read_text()
        assert report.startswith(checked) and len(report) > len(checked)
        with open(out / "trace.csv", newline="") as fh:
            row0 = next(csv.DictReader(fh))
        rep = parse_report(checked)
        for key, column in (("L0", "L2sq"), ("E_t0", "E"), ("I_u0", "I")):
            assert float(rep[key]).hex() == float(row0[column]).hex(), key


def test_check_no_theorem_exit_three(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "bigrip-reject")
    rc = main_entry(["check", cfg])
    out = capsys.readouterr().out
    assert rc == 3
    assert parse_report(out)["theorem"] == "none"


def test_check_horizon_exit_four(tmp_path, capsys):
    t = np.linspace(0.0, 2.0, 5)
    np.savetxt(tmp_path / "flat.txt", np.column_stack(
        [t, np.ones(5), np.zeros(5), np.zeros(5)]))
    cfg = write_cfg(tmp_path, """
scale.family = tabulated
scale.table_path = flat.txt
phys.m = 0
phys.c = 1
nonlin.family = gauge
nonlin.p = 2
grid.n = 1
grid.N = 16
grid.half_width = 3.141592653589793
data0.kind = homogeneous
data0.amplitude = 3
run.t_end = 1.5
run.dt = 1e-3
""")
    rc = main_entry(["check", cfg])
    err = capsys.readouterr().err
    assert rc == 4
    assert "horizon" in err.lower()


@pytest.mark.parametrize("argv", [["check"], ["check", "--csv"],
                                  ["oracle-ode"]],
                         ids=["check", "check-csv", "oracle-ode"])
def test_horizon_blocked_anchor_exit_four(tmp_path, capsys, argv):
    """The anchor's data on a flat two-column table over [0, 2]: both
    certificates hold but for T = pi^2 > 2, so nothing is certified. The
    anchor's closed-form keys go, as a table reads none of them."""
    np.savetxt(tmp_path / "flat.txt",
               np.column_stack([np.linspace(0.0, 2.0, 5), np.ones(5)]))
    text = bundled_scenario_text("minkowski-m0-u2-A3").replace(
        "scale.family = powerlaw",
        "scale.family = tabulated\nscale.table_path = flat.txt")
    for line in ("scale.a0 = 1.0\n", "scale.H = 0.0\n", "scale.sigma = 0.0\n"):
        assert line in text
        text = text.replace(line, "")
    rc = main_entry([*argv, write_cfg(tmp_path, text)])
    captured = capsys.readouterr()
    assert rc == 4 and captured.out == ""
    assert captured.err.splitlines() == [
        "horizon too short: certificate needs T = 9.8696044 but the "
        "background lifetime is 2"]


def test_check_subnormal_mass_is_the_massless_limit(tmp_path, capsys):
    """|m| c underflows to 0 for m = 5e-324: C_eps is +inf as in the m -> 0
    limit, so no finite t0 meets corollary case iv, and check reports
    instead of raising ZeroDivisionError."""
    text = edited_scenario("minkowski-m1-thm2",
                           ("phys.m = 1.0", "phys.m = 5e-324"),
                           ("phys.c = 1.0", "phys.c = 0.5"),
                           ("scale.H = 0.0", "scale.H = 0.1"))
    cfg = write_cfg(tmp_path, text)
    rc = main_entry(["check", cfg])
    out, err = capsys.readouterr()
    assert rc == 0 and "Traceback" not in err
    assert parse_report(out)["corollary_case"] != "iv"
    scn = config.parse_text(text, name="subnormal-mass")
    for t0 in (0.0, 1.0, 1e300):
        assert corollaries(scn.sf, t0, scn.params).thm2_case == "n/a"


def test_simulate_subnormal_mass_hdiag_is_nan(tmp_path, capsys):
    """|m| c eps underflows to 0 for m = 5e-324: Hdiag is NaN as in the
    massless limit, and simulate runs instead of raising ZeroDivisionError."""
    text = edited_scenario("minkowski-m0-u2-A3",
                           ("phys.m = 0.0", "phys.m = 5e-324"),
                           ("nonlin.eps = 1.0", "nonlin.eps = 0.5"),
                           ("nonlin.p = 2.0", "nonlin.p = 1.5"))
    out = tmp_path / "out"
    rc = main_entry(["simulate", write_cfg(tmp_path, text), "--out", str(out)])
    assert rc == 0 and capsys.readouterr().err == ""
    with open(out / "trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) > 1 and all(r["Hdiag"] == "nan" for r in rows)


def test_config_error_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, WRAP_CFG + "grid.bogus = 1\n")
    assert main_entry(["check", cfg]) == 2
    assert "config error" in capsys.readouterr().err
    assert main_entry(["check", str(tmp_path / "missing.cfg")]) == 2
    assert "config error" in capsys.readouterr().err
    # run() rejects a t_end past the background's end: no output directory
    cfg = write_cfg(tmp_path, bundled_scenario_text("bigrip-reject").replace(
        "run.t_end = 0.5", "run.t_end = 1.5"))
    out = tmp_path / "beyond-out"
    assert main_entry(["simulate", cfg, "--out", str(out)]) == 2
    assert "horizon" in capsys.readouterr().err
    assert not out.exists()


def test_dt_min_not_below_dt_exit_two(tmp_path, capsys):
    """run.dt_min >= run.dt would switch step control off; the config
    rejects it and no output directory is made."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    assert "run.dt_min = 1e-12" in text
    cfg = write_cfg(tmp_path, text.replace("run.dt_min = 1e-12",
                                           "run.dt_min = 0.01"))
    out = tmp_path / "floor-out"
    assert main_entry(["simulate", cfg, "--out", str(out)]) == 2
    assert "dynamics: dt_min must be below dt" in capsys.readouterr().err
    assert not out.exists()
    assert main_entry(["check", cfg]) == 2


def test_simulate_deterministic(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "minkowski-m0-u2-A3")
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    rc1 = main_entry(["simulate", cfg, "--out", d1])
    capsys.readouterr()
    rc2 = main_entry(["simulate", cfg, "--out", d2])
    capsys.readouterr()
    assert rc1 == rc2 == 0
    for fname in ("trace.csv", "report.txt"):
        with open(os.path.join(d1, fname), "rb") as fh:
            b1 = fh.read()
        with open(os.path.join(d2, fname), "rb") as fh:
            b2 = fh.read()
        assert b1 == b2, f"{fname} not byte-identical"
    with open(os.path.join(d1, "trace.csv")) as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    with open(os.path.join(d1, "report.txt")) as fh:
        report = parse_report(fh.read())
    assert report["blowup.reason"] == "norm_threshold"
    assert float(report["blowup.t_star"]) == pytest.approx(1.7173153422544112,
                                                           abs=1e-6)
    assert float(report["blowup.bound_margin"]) > 0.0


def test_powerlaw_sigma_minus_one_runs_desitter(tmp_path, capsys):
    """De Sitter is the sigma = -1 power law: the powerlaw copy of
    desitter-thm2 writes the bundled run's trace.csv byte for byte."""
    text = bundled_scenario_text("desitter-thm2")
    assert "scale.family = desitter\n" in text
    copy = text.replace("scale.family = desitter\n",
                        "scale.family = powerlaw\nscale.sigma = -1\n")
    traces = []
    for name, body in (("bundled", text), ("powerlaw", copy)):
        out = tmp_path / name
        rc = main_entry(["simulate", write_cfg(tmp_path, body, f"{name}.cfg"),
                         "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]


def test_simulate_wrap_exit_five(tmp_path, capsys):
    # mid-run abort: the partial trace is written and the report names it
    cfg = write_cfg(tmp_path, WRAP_CFG)
    out = str(tmp_path / "wrap-out")
    rc = main_entry(["simulate", cfg, "--out", out])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.splitlines() == [
        "wrap-around abort: comoving light path crossed the support margin "
        "at t = 0.5000000000000002"]
    with open(os.path.join(out, "trace.csv")) as fh:
        lines = fh.read().strip().splitlines()
    assert len(lines) >= 2  # header plus at least one partial row
    with open(os.path.join(out, "report.txt")) as fh:
        kv = parse_report(fh.read())
    assert kv["blowup.reason"] == "wrap_around"
    assert kv["blowup.detected"] == "false"
    assert kv["run.reached_t_end"] == "false"
    assert kv["blowup.t"] == kv["run.t_final"] == 0.5000000000000002

    # abort before the first step (the support already fills the box): no
    # trace exists, and the command still exits 5 with one stderr line
    text = bundled_scenario_text("desitter-smooth")
    text = text.replace("grid.N = 256", "grid.N = 24").replace(
        "data0.width = 0.55", "data0.width = 1.2")
    cfg = write_cfg(tmp_path, text, name="wrap0.cfg")
    out = tmp_path / "wrap0-out"
    rc = main_entry(["simulate", cfg, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 5
    assert err.splitlines() == [
        "wrap-around abort: support radius 4.8 already fills the box"]
    assert not out.exists()  # nothing to write, so no directory either


def test_check_and_oracle_apply_the_wrap_guard(tmp_path, capsys):
    """The anchor with a Gaussian u0 of width 1.0, whose support radius 4.0
    fills the box: check, oracle-ode and simulate refuse it through the one
    wrap guard of the run's `Start`, with exit 5, that guard's one stderr
    line, no stdout and no output directory. So they do at amplitude 1e200,
    whose integrals overflow, as the guard comes before any certificate.
    At width 0.75 (radius 3.0) the data fit, and check certifies them."""
    text = bundled_scenario_text("minkowski-m0-u2-A3").replace(
        "data0.kind = homogeneous", "data0.kind = gaussian\ndata0.width = 1.0")
    for amplitude in ("3.0", "1e200"):
        cfg = write_cfg(tmp_path, text.replace(
            "data0.amplitude = 3.0", f"data0.amplitude = {amplitude}"),
            f"wide{amplitude}.cfg")
        out_dir = tmp_path / f"out{amplitude}"
        for argv in (["check", cfg], ["check", cfg, "--csv"],
                     ["oracle-ode", cfg],
                     ["simulate", cfg, "--out", str(out_dir)]):
            assert main_entry(argv) == 5
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines() == [
                "wrap-around abort: support radius 4.0 already fills the box"]
        assert not out_dir.exists()
    fits = write_cfg(tmp_path, text.replace("data0.width = 1.0",
                                            "data0.width = 0.75"), "fits.cfg")
    assert main_entry(["check", fits]) == 0
    assert parse_report(capsys.readouterr().out)["theorem"] != "none"


_MAX = 1.7976931348623157e308
_CSV_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, _MAX, -_MAX,
                     5e-324, -5e-324, 2.2250738585072009e-308]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_CSV_VALUES, min_size=14, max_size=14),
                max_size=5))
def test_trace_csv_text_writes_the_csv_of_its_rows(values):
    """trace.csv's one format per row writes the bytes of `_csv` on the
    rows' values: signed zeros, infinities, NaN, subnormals, the largest
    floats and numpy float64 values."""
    rows = [FunctionalSnapshot(*vals) for vals in values]
    want = cli._csv(CSV_COLUMNS, map(snapshot_csv_values, rows))
    assert cli.trace_csv_text(Trace(rows=rows, blowup=None)) == want


def test_simulate_nonfinite_exit_six(tmp_path, capsys):
    # neither step control nor the norm threshold stops the run before the
    # state overflows, near t = 1.92
    text = SWEEP_CFG.replace("run.dt = 1e-3", "run.dt = 1e-2")
    cfg = write_cfg(tmp_path, text + "run.growth_tol = 1e300\n"
                    "run.blowup_threshold = 1e300\n")
    out = str(tmp_path / "nf-out")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main_entry(["simulate", cfg, "--out", out])
    err = capsys.readouterr().err
    assert rc == 6
    assert "non-finite" in err
    with open(os.path.join(out, "report.txt")) as fh:
        kv = parse_report(fh.read())
    assert kv["blowup.reason"] == "nonfinite" and kv["run.t_final"] > 1.0


def test_overflowed_initial_data_exit_two(tmp_path, capsys):
    """Data whose L0 is finite but whose int F overflows are a config error
    for every command: no certificate, no comparison problem, no run."""
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace(
        "data0.amplitude = 3", "data0.amplitude = 1e150"))
    for argv in (["check", cfg], ["oracle-ode", cfg],
                 ["simulate", cfg, "--out", str(tmp_path / "ovf-out")]):
        with np.errstate(over="ignore"):
            rc = main_entry(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.splitlines() == [
            "config error: functionals: initial data give non-finite "
            "integrals: F = inf, re_fu = inf"]
    assert not (tmp_path / "ovf-out").exists()


def test_signed_zero_velocity_writes_one_trace(tmp_path, capsys):
    """The anchor cut to run.t_end = 0.05 at data1.amplitude = 0.0 and at
    -0.0 writes byte-identical trace.csv files: a uniform run's sums start
    from +0.0, as a BLAS dot does, so the sign of a zero velocity (which
    the scalar step carries) never reaches a column."""
    text = bundled_scenario_text("minkowski-m0-u2-A3").replace(
        "run.t_end = 1.75", "run.t_end = 0.05")
    traces = []
    for amp in ("0.0", "-0.0"):
        assert "data1.amplitude = 0.0" in text
        cfg = write_cfg(tmp_path, text.replace(
            "data1.amplitude = 0.0", f"data1.amplitude = {amp}"),
            name=f"zero{amp}.cfg")
        out = tmp_path / f"out{amp}"
        assert main_entry(["simulate", cfg, "--out", str(out)]) == 0
        traces.append((out / "trace.csv").read_bytes())
    capsys.readouterr()
    assert traces[0] == traces[1] and len(traces[0].splitlines()) > 5


def test_simulate_zero_data_exit_two(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG.replace(
        "data0.amplitude = 3", "data0.amplitude = 0.0"))
    out = tmp_path / "zero-out"
    rc = main_entry(["simulate", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "config error: dynamics: initial data must be nonzero"]


def test_norm_threshold_that_overflows_exit_two(tmp_path, capsys):
    """On the anchor at half_width 1e300, L0 = 1.8e301 is finite but
    blowup_threshold * L0 is not, so the norm threshold could never fire
    and the run would end non-finite while |u| is in the thousands: a
    config error, before anything is written."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    cfg = write_cfg(tmp_path, text.replace(
        "grid.half_width = 3.141592653589793", "grid.half_width = 1e300"))
    out = tmp_path / "big-out"
    rc = main_entry(["simulate", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "config error: dynamics: norm threshold blowup_threshold * "
        "||u0||^2 = 1000000000000.0 * 1.8000000000000002e+301 overflows"]


def overflow_anchor_text() -> str:
    """The anchor at amplitude 30 and dt 0.02 with step control and the norm
    threshold off: Re(u, u_t) + R passes 1e154 while the state is finite,
    then the state becomes non-finite."""
    return edited_scenario(
        "minkowski-m0-u2-A3", ("data0.amplitude = 3.0", "data0.amplitude = 30"),
        ("run.dt = 1e-3", "run.dt = 0.02"),
        ("run.blowup_threshold = 1e12", "run.blowup_threshold = 1e300")
    ) + "run.growth_tol = 1e300\n"


def test_simulate_snapshot_overflow_exit_six(tmp_path, capsys):
    """Re(u, u_t) + R passes 1e154 while the state is still finite: eta's
    square overflows to inf instead of raising, so the run goes on until
    the state itself is non-finite and exits 6 with its trace."""
    cfg = write_cfg(tmp_path, overflow_anchor_text())
    out = str(tmp_path / "ovf-out")
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main_entry(["simulate", cfg, "--out", out])
    err = capsys.readouterr().err
    assert rc == 6
    assert err.splitlines() == ["state became non-finite; trace truncated"]
    with open(os.path.join(out, "trace.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert math.isnan(float(rows[-1]["eta"]))
    assert math.isfinite(float(rows[-1]["L2sq"]))


@pytest.mark.parametrize("amplitude", ["1e60", "1e60+1e60j"])
def test_uniform_overflow_exit_six(tmp_path, capsys, amplitude):
    """The anchor at p = 3 and amplitude 1e60, real or complex: the first
    step's stage values pass 1e154, where Python's ** raises OverflowError
    and numpy's power gives inf. f in Python arithmetic takes inf there
    too, so simulate exits 6 with its one stderr line, warns nothing and
    writes a report that names the ending."""
    text = edited_scenario(
        "minkowski-m0-u2-A3", ("nonlin.p = 2.0", "nonlin.p = 3.0"),
        ("data0.amplitude = 3.0", f"data0.amplitude = {amplitude}"))
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "ovf-out"
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main_entry(["simulate", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 6
    assert captured.err.splitlines() == [
        "state became non-finite; trace truncated"]
    assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]
    kv = parse_report((out / "report.txt").read_text())
    assert kv["blowup.reason"] == "nonfinite"
    assert kv["run.accepted_steps"] == 0 and kv["run.t_final"] == 0


def test_nonfinite_run_prints_no_numpy_warning(tmp_path, capsys):
    """The trace's nonfinite ending is the report: stepping into overflow
    warns nothing, so simulate prints its one line and a sweep none (no
    np.errstate around the calls)."""
    cfg = write_cfg(tmp_path, overflow_anchor_text())
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        rc = main_entry(["simulate", cfg, "--out", str(tmp_path / "nf")])
        err = capsys.readouterr().err
        sweep_rc = main_entry(["sweep", cfg, "--axis",
                               "data0.amplitude=30:30:1", "--out",
                               str(tmp_path / "nf-sweep")])
        sweep_err = capsys.readouterr().err
    assert rc == 6 and sweep_rc == 0
    assert err.splitlines() == ["state became non-finite; trace truncated"]
    assert sweep_err == ""
    assert [str(w.message) for w in seen
            if issubclass(w.category, RuntimeWarning)] == []


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_simulate_cfl_window_below_dt_min_exit_two(tmp_path):
    """run.cfl = 1e-300 pins every step near 1e-301, far below dt_min: a
    config error before the first step instead of about 1e301 steps. The
    command runs in a subprocess with a timeout, so a hang fails the test
    instead of blocking it."""
    cfg = write_cfg(tmp_path, bundled_scenario_text("minkowski-m0-u2-A3")
                    + "run.cfl = 1e-300\n")
    out = tmp_path / "cfl-out"
    done = subprocess.run(
        [sys.executable, "-m", "kgflrw.cli", "simulate", cfg, "--out",
         str(out)], cwd=tmp_path, env=_src_env(), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == "" and not out.exists()
    assert done.stderr.splitlines() == [
        "config error: dynamics: CFL window cfl * h * a / c = "
        "9.817477042468103e-302 at t = 0.0 is below dt_min = 1e-12"]


@pytest.mark.parametrize("scenario, window, dt_min", [
    ("desitter-thm2", "0.0", "1e-12"),
    ("bigrip-reject", "3.9269908169872414e-293", "1e-09")])
def test_simulate_collapsing_cfl_window_exit_two(tmp_path, scenario, window,
                                                 dt_min):
    """scale.H = -1e300 passes the CFL check at t0, but a(t + dt) underflows
    and the window over a step, also over a step of dt_min, is below dt_min:
    a config error at the first step instead of zero-length steps without
    end. In a subprocess with a timeout, so a hang fails the test."""
    text = bundled_scenario_text(scenario)
    for key, value in (("scale.H", "-1e300"), ("run.t_end", "0.05")):
        text = re.sub(rf"^{re.escape(key)} = .*$", f"{key} = {value}", text,
                      flags=re.M)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "collapse-out"
    done = subprocess.run(
        [sys.executable, "-m", "kgflrw.cli", "simulate", cfg, "--out",
         str(out)], cwd=tmp_path, env=_src_env(), capture_output=True,
        text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == "" and not out.exists()
    assert done.stderr.splitlines() == [
        f"config error: dynamics: CFL window cfl * h * a / c = {window} at "
        f"t = 0.0 is below dt_min = {dt_min}"]


@pytest.mark.parametrize("old,new,reason", [
    ("scale.H = 0.0", "scale.H = 1e300", "y0 must be positive"),
    ("run.t0 = 0.0\nrun.t_end = 1.75", "run.t0 = 1e300\nrun.t_end = 2e300",
     "T must exceed t0"),
    ("grid.half_width = 3.141592653589793", "grid.half_width = 1e-300",
     "kappa, A, B, T, y0, y1 and t0 must be finite"),
    ("grid.half_width = 3.141592653589793", "grid.half_width = 1e300",
     "y1^2 + I y0^(2 + 1/kappa) underflows to 0")],
    ids=["H-1e300", "t0-1e300", "half_width-1e-300", "half_width-1e300"])
def test_oracle_unrepresentable_problem_exit_two(tmp_path, capsys, old, new,
                                                 reason):
    """A certificate whose comparison problem overflows (theta0 = inf, so
    y0 = 0; theta0 = 2e-300, so theta0^(-kappa-1) is past the float range),
    underflows (y0^6 = 0 on a huge box) or rounds away (T = t0) is a config
    error with one stderr line, not a traceback."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    assert old in text
    cfg = write_cfg(tmp_path, text.replace(old, new))
    rc = main_entry(["oracle-ode", cfg])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.splitlines() == [
        "config error: hypotheses: no concavity problem for this "
        f"certificate: {reason}"]


@pytest.mark.parametrize("argv", [["check"], ["oracle-ode"], ["simulate"]],
                         ids=["check", "oracle-ode", "simulate"])
def test_a0_whose_square_underflows_exit_two(tmp_path, capsys, argv):
    """scale.a0 = 1e-300: c^2 / a^2 would divide by an underflowed 0. A
    config error with one stderr line for every command, and no output
    directory."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    assert "scale.a0 = 1.0" in text
    cfg = write_cfg(tmp_path, text.replace("scale.a0 = 1.0",
                                           "scale.a0 = 1e-300"))
    out = tmp_path / "a0-out"
    extra = ["--out", str(out)] if argv == ["simulate"] else []
    rc = main_entry([*argv, cfg, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [
        "config error: scale_factor: a0 must be positive and its square "
        "must not underflow, got 1e-300"]


@pytest.mark.parametrize("argv", [["check"], ["oracle-ode"], ["simulate"]],
                         ids=["check", "oracle-ode", "simulate"])
@pytest.mark.parametrize("grid,message", [
    ("grid.n = 1\ngrid.N = 64\ngrid.half_width = 5e-324",
     "spacing must be a positive normal float, got 0.0"),
    ("grid.n = 3\ngrid.N = 8\ngrid.half_width = 1e-110",
     "cell volume must be a positive normal float, got 0.0"),
    ("grid.n = 3\ngrid.N = 8\ngrid.half_width = 1e110",
     "cell volume must be a positive normal float, got inf"),
    ("grid.n = 3\ngrid.N = 1000000\ngrid.half_width = 3.141592653589793",
     "of 1000000^3 cells is too large for a complex128 array")],
    ids=["h-underflows", "h3-underflows", "h3-overflows", "cells-past-intp"])
def test_grid_spacing_not_a_normal_float_exit_two(tmp_path, capsys, argv,
                                                  grid, message):
    """A spacing that underflows divided by zero in the stencil; a 3D h^3
    that underflows read as zero data, and one that overflows raised; a
    complex128 field of 16 * 10^18 bytes, past numpy's intp, raised
    ValueError. Each is a config error with one stderr line, and no output
    directory."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    old = "grid.n = 1\ngrid.N = 64\ngrid.half_width = 3.141592653589793"
    assert old in text
    cfg = write_cfg(tmp_path, text.replace(old, grid))
    out = tmp_path / "grid-out"
    extra = ["--out", str(out)] if argv == ["simulate"] else []
    rc = main_entry([*argv, cfg, *extra])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err.splitlines() == [f"config error: field: grid {message}"]


@pytest.mark.parametrize("argv,shape", [
    (["check"], "(100000, 100000, 100000)"),
    (["oracle-ode", "--random", "10000000000000"], "(10000000000000, 6)")],
    ids=["check", "oracle-ode"])
def test_input_too_large_to_allocate_exit_two(tmp_path, capsys, monkeypatch,
                                              argv, shape):
    """An input too large to allocate (a MemoryError: the 3D anchor at
    grid.N = 100000, 14.2 PiB, or 10^13 random problems, 437 TiB) is a
    config error with one stderr line, and nothing is written. Each size is
    past the 47-bit address space, so no memory is ever taken."""
    monkeypatch.chdir(tmp_path)
    if argv == ["check"]:
        argv = ["check", write_cfg(tmp_path, edited_scenario(
            "minkowski-m0-u2-A3",
            ("grid.n = 1\ngrid.N = 64", "grid.n = 3\ngrid.N = 100000")))]
    entries = sorted(os.listdir(tmp_path))
    rc = main_entry(argv)
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("config error: out of memory: Unable to allocate")
    assert f"with shape {shape}" in line
    assert sorted(os.listdir(tmp_path)) == entries


@pytest.mark.parametrize("scenario,old,new,bad", [
    ("minkowski-m0-u2-A3", "data0.amplitude = 3.0", "data0.amplitude = 1e150",
     "F = inf, re_fu = inf"),
    ("bigrip-reject", "data0.amplitude = 6.0", "data0.amplitude = 1e300",
     "L = inf, F = inf, re_fu = inf"),
    ("desitter-thm2", "nonlin.lambda = 1.0",
     "nonlin.lambda = 1.7976931348623157e308", "F = inf, re_fu = inf")],
    ids=["anchor-amplitude", "bigrip-amplitude", "desitter-lambda"])
def test_overflowing_initial_integrals_print_one_line(tmp_path, scenario, old,
                                                      new, bad):
    """check on data whose integrals overflow: exit 2 and the config error
    as the only stderr line, without numpy's overflow warnings. In a
    subprocess, so that a warning would reach its stderr. Real data are
    summed in float64, where products that overflow to +inf sum to
    re_fu = inf."""
    text = bundled_scenario_text(scenario)
    assert old in text
    cfg = write_cfg(tmp_path, text.replace(old, new))
    done = subprocess.run([sys.executable, "-m", "kgflrw.cli", "check", cfg],
                          cwd=tmp_path, env=_src_env(), capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines() == [
        "config error: functionals: initial data give non-finite "
        f"integrals: {bad}"]


def test_simulate_scale_factor_whose_cube_overflows(tmp_path, capsys):
    """a^3 overflows while a is finite: at a0 = 1e300 on the anchor, which
    still blows up at its t*, and on de Sitter at H = 100 up to t = 5
    (a = e^500). Both runs finish; at H = 300 a itself overflows near
    t = 2.347 and the run ends non-finite with its one line."""
    text = bundled_scenario_text("minkowski-m0-u2-A3")
    cfg = write_cfg(tmp_path, text.replace("scale.a0 = 1.0",
                                           "scale.a0 = 1e300"))
    assert main_entry(["simulate", cfg, "--out", str(tmp_path / "big")]) == 0
    kv = parse_report(capsys.readouterr().out)
    assert kv["blowup.reason"] == "norm_threshold"
    assert kv["blowup.t_star"] == pytest.approx(1.7173153422544112, abs=1e-6)

    smooth = bundled_scenario_text("desitter-smooth")
    for old in ("scale.H = 0.5", "run.t_end = 0.8"):
        assert old in smooth
    for H, t_end, code in (("100", "5", 0), ("300", "3", 6)):
        cfg = write_cfg(tmp_path, smooth.replace(
            "scale.H = 0.5", f"scale.H = {H}").replace(
            "run.t_end = 0.8", f"run.t_end = {t_end}"), f"H{H}.cfg")
        rc = main_entry(["simulate", cfg, "--out", str(tmp_path / H)])
        out, err = capsys.readouterr()
        assert rc == code, H
        kv = parse_report(out)
        if code == 0:
            assert err == "" and kv["run.t_final"] == 5
        else:
            assert err.splitlines() == [
                "state became non-finite; trace truncated"]
            assert kv["run.t_final"] == pytest.approx(2.347, abs=1e-3)


@pytest.mark.parametrize("name,eps", [("minkowski-m0-u2-A3", "1e-160"),
                                      ("minkowski-m0-u2-A3", "1e-300"),
                                      ("desitter-thm2", "1e-300")])
def test_infinite_bound_is_no_certificate(tmp_path, capsys, name, eps):
    """nonlin.eps so small that eps^2 rho underflows (1e-300) or the bound
    overflows (1e-160): T_bound = inf certifies nothing, so check and
    oracle-ode exit 3 and simulate runs uncertified; nothing raises."""
    text = bundled_scenario_text(name)
    assert "nonlin.eps = 1.0" in text
    cfg = write_cfg(tmp_path, text.replace("nonlin.eps = 1.0",
                                           f"nonlin.eps = {eps}"))
    rc = main_entry(["check", cfg])
    out, err = capsys.readouterr()
    assert rc == 3 and err == ""
    rep = parse_report(out)
    assert rep["theorem"] == "none" and rep["T_bound"] == "none"
    assert main_entry(["oracle-ode", cfg]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.splitlines() == [
        "error: odelab: no certificate applies; nothing to derive"]
    if name == "minkowski-m0-u2-A3":
        rc = main_entry(["simulate", cfg, "--out", str(tmp_path / "sim")])
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        kv = parse_report(out)
        assert kv["T_bound"] == "none"
        assert kv["blowup.reason"] == "norm_threshold"


_SCIPY_PROBE = """
import json, sys
from kgflrw.cli import main_entry
for argv, code in json.loads(sys.argv[1]):
    assert main_entry(argv) == code, argv
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith(("scipy", "multiprocessing")))))
"""


def _scipy_modules_after(tmp_path, commands) -> list:
    """The scipy and multiprocessing modules a fresh interpreter holds after
    running commands ([argv, expected exit code] pairs) through
    main_entry."""
    done = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands)],
        cwd=tmp_path, env=_src_env(), capture_output=True, text=True,
        check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_startup_loads_no_scipy(tmp_path):
    """check, simulate and sweep never import scipy, nor multiprocessing
    (the process pool of sweep --jobs above 1); oracle-ode imports
    scipy.special for the closed form and nothing of scipy.integrate."""
    anchor = bundled_path(tmp_path, "minkowski-m0-u2-A3")
    short = write_cfg(tmp_path, bundled_scenario_text(
        "minkowski-m0-u2-A3").replace("run.t_end = 1.75", "run.t_end = 0.05"),
        name="short.cfg")
    assert _scipy_modules_after(tmp_path, [
        [["check", anchor], 0],
        [["simulate", short, "--out", "sim-out"], 0],
        [["sweep", short, "--axis", "data0.amplitude=2:3:2", "--jobs", "1",
          "--out", "sweep-out"], 0]]) == []
    loaded = _scipy_modules_after(tmp_path, [[["oracle-ode", "--random", "3",
                                               "--out", "r.csv"], 0]])
    assert "scipy.special" in loaded
    assert not [m for m in loaded if m.startswith("scipy.integrate")]


def test_oracle_scenario_row_frozen(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "minkowski-m0-u2-A3")
    rc = main_entry(["oracle-ode", cfg])
    out = capsys.readouterr().out
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert list(rows[0].keys()) == list(ORACLE_COLUMNS)
    row = {k: float(v) for k, v in rows[0].items()}
    assert row["kappa"] == pytest.approx(0.25, rel=1e-15)
    assert row["A"] == pytest.approx(108 * math.pi, rel=1e-12)
    assert row["B"] == pytest.approx(18 * math.pi, rel=1e-12)
    assert row["T"] == pytest.approx(math.pi ** 2, rel=1e-12)
    assert row["y0"] == pytest.approx((18 * math.pi) ** -0.25, rel=1e-12)
    assert row["y1"] == 0.0
    assert row["t_vanish"] <= row["t_bound"] <= row["T"]
    # rerun is byte-identical
    main_entry(["oracle-ode", cfg])
    assert capsys.readouterr().out == out


def test_oracle_row_follows_the_velocity_margin_certificate(tmp_path, capsys):
    """Pinned to thm2, the scenario row uses kappa = eps/8 and
    A = 2 (eps + 2) delta from the report."""
    cfg = bundled_path(tmp_path, "minkowski-m1-thm2")
    assert main_entry(["check", cfg]) == 0
    report = parse_report(capsys.readouterr().out)
    assert report["mode"] == "thm2"
    assert main_entry(["oracle-ode", cfg]) == 0
    row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert float(row["kappa"]) == 1.0 / 8.0
    assert float(row["A"]) == 2.0 * 3.0 * float(report["delta"])


def test_oracle_random_batch(tmp_path, capsys):
    f1, f2 = str(tmp_path / "r1.csv"), str(tmp_path / "r2.csv")
    assert main_entry(["oracle-ode", "--random", "5", "--seed", "3",
                       "--out", f1]) == 0
    assert main_entry(["oracle-ode", "--random", "5", "--seed", "3",
                       "--out", f2]) == 0
    capsys.readouterr()
    with open(f1, "rb") as fh:
        b1 = fh.read()
    with open(f2, "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    rows = list(csv.DictReader(io.StringIO(b1.decode())))
    assert len(rows) == 5
    for row in rows:
        assert float(row["t_vanish"]) <= float(row["t_bound"]) * (1 + 1e-8)
        assert float(row["t_bound"]) <= float(row["T"]) * (1 + 1e-12)
    assert main_entry(["oracle-ode"]) == 2  # neither config nor --random


@pytest.mark.parametrize("source", [
    "desitter-thm2", "minkowski-m0-u2-A3", "minkowski-m1-thm2", "random"])
def test_oracle_rows_are_the_csv_of_the_problems(tmp_path, capsys, source):
    """oracle-ode writes its rows with one %.17g line format: the bytes of
    `_csv`, which formats each value by `_fmt`, on the same problems: a
    certified bundled scenario's, or 120 random problems of seed 7."""
    if source == "random":
        argv = ["--random", "120", "--seed", "7"]
        problems = random_admissible_problems(120, seed=7)
    else:
        argv = [bundled_path(tmp_path, source)]
        scn = config.parse_text(bundled_scenario_text(source))
        rep = evaluate(Start(*scn.build_fields(), scn.nl).rec, scn.run.t0,
                       scn.sf, scn.params, mode=scn.run.theorem_mode)
        problems = [concavity_problem(rep, scn.params)]
    assert main_entry(["oracle-ode", *argv]) == 0
    assert capsys.readouterr().out == cli._csv(ORACLE_COLUMNS, [
        (p.kappa, p.A, p.B, p.T, p.y0, p.y1, solve_concavity(p),
         tstar_bound(p)) for p in problems])


def test_sweep_frontier(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = str(tmp_path / "sweep-out")
    rc = main_entry(["sweep", cfg, "--axis", "data0.amplitude=0.5:2.0:4",
                     "--jobs", "2", "--out", out])
    capsys.readouterr()
    assert rc == 0
    with open(os.path.join(out, "frontier.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    amps = [float(r["data0.amplitude"]) for r in rows]
    assert amps == sorted(amps)
    rhos = dict(zip(amps, (float(r["rho"]) for r in rows)))
    assert rhos[0.5] < 0.0 < rhos[2.0]  # margin crossing inside the sweep
    assert all(r["status"] == "ok" for r in rows)


def test_sweep_jobs_write_the_same_files(tmp_path, capsys):
    """A sweep writes the same frontier.csv and per-point trace.csv files,
    byte for byte, in one process (--jobs 1) and in a pool of two: the
    anchor cut to run.t_end = 0.05 at two amplitudes."""
    cfg = write_cfg(tmp_path, bundled_scenario_text(
        "minkowski-m0-u2-A3").replace("run.t_end = 1.75", "run.t_end = 0.05"))
    written = []
    for jobs in ("1", "2"):
        out = tmp_path / f"sweep-{jobs}"
        assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=2.0:3.0:2",
                           "--jobs", jobs, "--out", str(out)]) == 0
        written.append({p.relative_to(out).as_posix(): p.read_bytes()
                        for p in out.rglob("*.csv")})
    capsys.readouterr()
    assert set(written[0]) == {"frontier.csv", "amplitude2/trace.csv",
                               "amplitude3/trace.csv"}
    assert written[0] == written[1]


def test_main_entry_can_be_reentered(tmp_path, capsys, monkeypatch):
    """One process runs check, simulate, oracle-ode and a one-job sweep on
    the anchor cut to run.t_end = 0.05, with a bad argv (exit 2, usage on
    stderr) and --help (exit 0) between them: twice on the parser the first
    main_entry built, then on a parser built fresh for each call. Stdout,
    stderr, exit codes and written files are the same in every round."""
    cfg = write_cfg(tmp_path, bundled_scenario_text(
        "minkowski-m0-u2-A3").replace("run.t_end = 1.75", "run.t_end = 0.05"))

    def one_round(out):
        seen = []
        for argv in (["check", cfg],
                     ["simulate", cfg, "--out", str(out / "sim")],
                     ["check"],
                     ["oracle-ode", cfg, "--random", "3"],
                     ["--help"],
                     ["sweep", cfg, "--axis", "data0.amplitude=2.0:3.0:2",
                      "--jobs", "1", "--out", str(out / "sweep")]):
            try:
                rc = main_entry(argv)
            except SystemExit as exc:
                rc = f"SystemExit({exc.code})"
            seen.append((rc, *capsys.readouterr()))
        return seen, {p.relative_to(out).as_posix(): p.read_bytes()
                      for p in out.rglob("*") if p.is_file()}

    first = one_round(tmp_path / "round1")
    parser = cli._build_parser()
    assert one_round(tmp_path / "round2") == first
    assert cli._build_parser() is parser
    fresh = cli._build_parser.__wrapped__
    monkeypatch.setattr(cli, "_build_parser", lambda: fresh())
    assert one_round(tmp_path / "round3") == first
    calls, files = first
    assert [rc for rc, _, _ in calls] == [0, 0, "SystemExit(2)", 0,
                                          "SystemExit(0)", 0]
    assert calls[2][2].startswith("usage: kgflrw check")
    assert calls[4][1].startswith("usage: kgflrw")
    assert set(files) == {"sim/trace.csv", "sim/report.txt",
                          "sweep/frontier.csv", "sweep/amplitude2/trace.csv",
                          "sweep/amplitude2/report.txt",
                          "sweep/amplitude3/trace.csv",
                          "sweep/amplitude3/report.txt"}


def test_import_builds_no_parser():
    """The parser is built by the first main_entry, not by the import."""
    done = subprocess.run(
        [sys.executable, "-c", "import kgflrw.cli as cli; "
         "print(cli._build_parser.cache_info().currsize)"],
        env=_src_env(), capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0"


def test_sweep_points_that_round_alike_get_own_directories(tmp_path,
                                                            capsys):
    """Three amplitudes within 1e-6 of 3 each write to their own directory,
    labelled with the value frontier.csv gives, and the exact grid value
    keeps its short name."""
    cfg = write_cfg(tmp_path, bundled_scenario_text(
        "minkowski-m0-u2-A3").replace("run.t_end = 1.75", "run.t_end = 0.05"))
    out = tmp_path / "sweep-out"
    assert main_entry(["sweep", cfg, "--axis",
                       "data0.amplitude=3.0:3.000001:3", "--out",
                       str(out)]) == 0
    capsys.readouterr()
    with open(out / "frontier.csv") as fh:
        amps = [r["data0.amplitude"] for r in csv.DictReader(fh)]
    assert len(set(amps)) == 3 and amps[0] == "3"
    assert sorted(p.name for p in out.iterdir() if p.is_dir()) == sorted(
        f"amplitude{a}" for a in amps)
    for a in amps:
        assert (out / f"amplitude{a}" / "trace.csv").stat().st_size > 0


def test_sweep_point_report_matches_simulate(tmp_path, capsys):
    """A sweep point writes the report of `simulate` on its overridden
    config: same keys in the same order, same values but the scenario name;
    amplitude 0.5 has no certificate, amplitude 2 the norm-margin one."""
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sweep-out"
    assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=0.5:2.0:2",
                       "--out", str(out)]) == 0
    for amp, label in (("0.5", "amplitude0.5"), ("2", "amplitude2")):
        point = write_cfg(tmp_path, SWEEP_CFG.replace(
            "data0.amplitude = 3", f"data0.amplitude = {amp}"), f"{label}.cfg")
        sim = tmp_path / f"sim-{label}"
        assert main_entry(["simulate", point, "--out", str(sim)]) == 0
        with open(sim / "report.txt") as fh:
            want = parse_report(fh.read())
        with open(out / label / "report.txt") as fh:
            got = parse_report(fh.read())
        assert list(got) == list(want)
        assert got.pop("scenario") == f"scn-{label}"
        assert want.pop("scenario") == label
        assert got == want
        assert (out / label / "trace.csv").read_bytes() == \
            (sim / "trace.csv").read_bytes()
    capsys.readouterr()


def test_sweep_point_endings_match_simulate(tmp_path, capsys):
    """A sweep point runs the path of `simulate`: its status names how its
    run ended, and its directory holds the trace.csv and report.txt of
    `simulate` on its config (the scenario name aside)."""
    cfg = write_cfg(tmp_path, ENDINGS_CFG)
    out = tmp_path / "sweep-out"
    assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=1:1000:2",
                       "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "frontier.csv") as fh:
        status = {r["data0.amplitude"]: r["status"]
                  for r in csv.DictReader(fh)}
    assert status == {"1": "wrap_around", "1000": "nonfinite"}
    for amp, code in (("1", 5), ("1000", 6)):
        label = f"amplitude{amp}"
        point = write_cfg(tmp_path, ENDINGS_CFG.replace(
            "data0.amplitude = 1\n", f"data0.amplitude = {amp}\n"),
            f"{label}.cfg")
        sim = tmp_path / f"sim-{label}"
        assert main_entry(["simulate", point, "--out", str(sim)]) == code
        with open(sim / "report.txt") as fh:
            want = parse_report(fh.read())
        with open(out / label / "report.txt") as fh:
            got = parse_report(fh.read())
        assert got.pop("scenario") == f"scn-{label}"
        assert want.pop("scenario") == label
        assert got == want
        assert got["blowup.reason"] == status[amp]
        assert (out / label / "trace.csv").read_bytes() == \
            (sim / "trace.csv").read_bytes()
    capsys.readouterr()


def test_simulate_reports_why_t_star_is_missing(tmp_path, capsys):
    # a threshold just above 1 stops the anchor after one step: two rows
    text = bundled_scenario_text("minkowski-m0-u2-A3").replace(
        "run.blowup_threshold = 1e12", "run.blowup_threshold = 1.000001")
    out = str(tmp_path / "early")
    assert main_entry(["simulate", write_cfg(tmp_path, text), "--out", out]) == 0
    capsys.readouterr()
    with open(os.path.join(out, "report.txt")) as fh:
        report = parse_report(fh.read())
    assert report["blowup.detected"] == "true"
    assert "blowup.t_star" not in report
    assert report["blowup.t_star_status"] == "only 2 rows above the tail threshold"


@pytest.mark.parametrize("command", ["oracle-ode", "simulate", "sweep"])
def test_unwritable_output_path_exits_two(tmp_path, capsys, monkeypatch,
                                          command):
    """An output path that cannot be written exits 2 with one stderr line
    that names it, and no traceback: oracle-ode's CSV in a missing
    directory, and a simulate or sweep output directory that is a file.
    None of them runs the integration: simulate refuses the file before
    its run."""
    runs = count_calls(monkeypatch, dynamics, "run")
    cfg = write_cfg(tmp_path, edited_scenario(
        "minkowski-m0-u2-A3", ("run.t_end = 1.75", "run.t_end = 0.05")))
    missing, taken = tmp_path / "missing" / "x.csv", tmp_path / "taken"
    taken.write_text("")
    argv, path, code = {
        "oracle-ode": (["--random", "2", "--out", str(missing)], missing,
                       errno.ENOENT),
        "simulate": ([cfg, "--out", str(taken)], taken, errno.EEXIST),
        "sweep": ([cfg, "--axis", "data0.amplitude=2.0:3.0:2", "--out",
                   str(taken)], taken, errno.EEXIST)}[command]
    assert main_entry([command, *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        f"error: cannot write {path}: {os.strerror(code)}"]
    assert not missing.parent.exists() and taken.read_text() == ""
    assert runs == []


def test_sweep_point_that_cannot_write_is_an_error_row(tmp_path, capsys,
                                                      monkeypatch):
    """A file where a sweep point's directory goes fails that point alone,
    before its run: its row is an error row with every default, and the
    next point runs."""
    runs = count_calls(monkeypatch, dynamics, "run")
    cfg = write_cfg(tmp_path, edited_scenario(
        "minkowski-m0-u2-A3", ("run.t_end = 1.75", "run.t_end = 0.05")))
    out = tmp_path / "sweep-out"
    out.mkdir()
    (out / "amplitude2").write_text("")
    assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=2.0:3.0:2",
                       "--out", str(out)]) == 0
    capsys.readouterr()
    with open(out / "frontier.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r.pop("status") for r in rows] == ["error(KGFLRWError)", "ok"]
    assert rows[0] == {"data0.amplitude": "2", "case_label": "none",
                       "theorem": "none", "T_bound": "nan", "rho": "nan",
                       "delta": "nan", "t_star": "nan", "margin": "nan"}
    assert (out / "amplitude3" / "report.txt").exists()
    assert len(runs) == 1


def test_frontier_row_is_the_point_report(tmp_path, capsys):
    """Each frontier.csv row is its point's report.txt, read back by
    parse_report and projected through `cli._FRONTIER` (a key the report
    lacks or sets to none gives the column's default), for every status; a
    point stopped before its run writes no report and takes every default.
    Configs and reports share one line reader: a malformed line is a
    ParseError at the same line from both, and a value keeps an `=` in it."""
    np.savetxt(tmp_path / "flat.txt", np.column_stack(
        [np.linspace(0.0, 2.0, 5), np.ones(5), np.zeros(5), np.zeros(5)]))
    horizon = edited_scenario(
        "minkowski-m0-u2-A3", ("scale.a0 = 1.0\n", ""), ("scale.H = 0.0\n", ""),
        ("scale.sigma = 0.0\n", ""), ("run.t_end = 1.75", "run.t_end = 1.5"),
        ("scale.family = powerlaw",
         "scale.family = tabulated\nscale.table_path = flat.txt"))
    smooth = [edited_scenario("desitter-smooth",
                              ("data0.width = 0.55", f"data0.width = {w}"))
              for w in (0.9, 0.75)]
    # status, config, axis, the columns off their defaults (None: no report)
    cases = [
        ("ok", bundled_scenario_text("minkowski-m0-u2-A3"),
         "data0.amplitude=3.0:3.5:2",
         {"theorem", "T_bound", "rho", "delta", "t_star", "margin"}),
        ("horizon_too_short", horizon, "data0.amplitude=2.0:3.0:2", set()),
        ("wrap_around", smooth[0], "data0.amplitude=0.5:1.0:2", None),
        ("wrap_around", smooth[1], "data0.amplitude=0.5:1.0:2",
         {"rho", "delta"}),
        ("nonfinite", ENDINGS_CFG, "data0.amplitude=1000:1000:1",
         {"theorem", "T_bound", "rho", "delta"}),
        ("error(InvariantViolation)", bundled_scenario_text("desitter-thm2"),
         "scale.sigma=0.0:1.0:2", None),
    ]
    for i, (status, text, axis, off_default) in enumerate(cases):
        cfg = write_cfg(tmp_path, text, f"case{i}.cfg")
        out = tmp_path / f"sweep{i}"
        assert main_entry(["sweep", cfg, "--axis", axis, "--out",
                           str(out)]) == 0
        key = axis.partition("=")[0]
        with open(out / "frontier.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == int(axis.rpartition(":")[2])
        for row in rows:
            assert row.pop("status") == status
            report = out / f"{key.split('.')[-1]}{row.pop(key)}" / "report.txt"
            assert report.exists() == (off_default is not None)
            record = ({} if off_default is None
                      else parse_report(report.read_text()))
            assert row == {
                column: cli._fmt(default if record.get(rkey, "none") == "none"
                                 else record[rkey])
                for column, (rkey, default) in cli._FRONTIER.items()}
            assert {column for column, (_, default) in cli._FRONTIER.items()
                    if row[column] != cli._fmt(default)} == (off_default
                                                            or set())
            if status == "ok" and record["scenario"] == "case0-amplitude3":
                T, t_star = float(row["T_bound"]), float(row["t_star"])
                assert T == pytest.approx(math.pi ** 2, rel=1e-12)
                assert abs(t_star - TSTAR) < 1e-6
                assert float(row["margin"]) == T - t_star
            if status == "horizon_too_short":
                assert re.fullmatch(r"certificate needs T = [\d.]+ but the "
                                    r"background lifetime is 2",
                                    record["note.horizon"])
    capsys.readouterr()

    anchor = bundled_scenario_text("minkowski-m0-u2-A3")
    malformed = anchor + "grid.N 64\n"
    lineno = len(anchor.splitlines()) + 1
    for parse in (config.parse_text, parse_report):
        with pytest.raises(ParseError) as exc:
            parse(malformed)
        assert exc.value.line == lineno
    assert parse_report("a = b=c\n") == {"a": "b=c"}
    with pytest.raises(InvariantViolation, match="'b=c'"):
        config.parse_text(anchor.replace("data0.kind = homogeneous",
                                         "data0.kind = b=c"))


def test_fields_built_once_per_simulate_and_sweep_point(tmp_path, capsys,
                                                        monkeypatch):
    """Each profile of a run is built once, by its first build_fields call;
    the parse that validates a config builds none, so a sweep's base config
    costs no field."""
    calls, profiles = [], []
    build, build_profile = Scenario.build_fields, ProfileSpec.build

    def counting(self):
        calls.append(self.name)
        return build(self)

    def counting_profile(self, grid):
        profiles.append(self.kind)
        return build_profile(self, grid)

    monkeypatch.setattr(Scenario, "build_fields", counting)
    monkeypatch.setattr(ProfileSpec, "build", counting_profile)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    assert main_entry(["simulate", cfg, "--out", str(tmp_path / "s")]) == 0
    assert (len(calls), len(profiles)) == (1, 2)
    # the sweep parses its base config, then builds each of its three points
    assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=0.5:2.0:3",
                       "--out", str(tmp_path / "w")]) == 0
    capsys.readouterr()
    assert (len(calls), len(profiles)) == (4, 8)


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def assert_jobs_rejected(tmp_path, capsys, monkeypatch, jobs) -> str:
    """sweep with --jobs jobs exits 2 with one stderr line, before it starts
    a pool or writes anything; returns that line."""
    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a process pool was started")

    monkeypatch.setattr(cli, "ProcessPoolExecutor", NoPool)
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sweep-out"
    rc = main_entry(["sweep", cfg, "--axis", "data0.amplitude=0.5:2.0:2",
                     "--jobs", str(jobs), "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--jobs" in captured.err
    assert not out.exists()
    return captured.err


@pytest.mark.parametrize("jobs", [0, -1, usable_cpus() + 1])
def test_sweep_rejects_jobs_out_of_range(tmp_path, capsys, monkeypatch, jobs):
    assert_jobs_rejected(tmp_path, capsys, monkeypatch, jobs)


def test_sweep_jobs_bounded_by_the_affinity_mask(tmp_path, capsys,
                                                 monkeypatch):
    """A process pinned to one CPU may not start two jobs, however many
    CPUs the machine has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    err = assert_jobs_rejected(tmp_path, capsys, monkeypatch, 2)
    assert err == "error: --jobs must be between 1 and 1, got 2\n"


def test_sweep_bad_axis(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    rc = main_entry(["sweep", cfg, "--axis", "run.dt=1:2:2"])
    assert rc == 2
    assert "not sweepable" in capsys.readouterr().err
    rc = main_entry(["sweep", cfg, "--axis", "nonsense"])
    assert rc == 2
    capsys.readouterr()
    out = tmp_path / "sweep-out"
    # one key on both axes made each value's points share a directory
    axis = "data0.amplitude=2:3:2"
    rc = main_entry(["sweep", cfg, "--axis", axis, "--axis", axis, "--out",
                     str(out)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and not out.exists()
    assert captured.err == "error: axis key 'data0.amplitude' given twice\n"
    # a span hi - lo that overflows is refused too, before np.linspace
    # would warn and make points of nan or inf
    for grid in ("nan:3:2", "1:inf:2", "-inf:3:2", "one:3:2",
                 "-1e308:1e308:3", "1e308:-1e308:2", "-1e308:1e308:1"):
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            rc = main_entry(["sweep", cfg, "--axis",
                             f"data0.amplitude={grid}", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == "" and not out.exists()
        assert captured.err.count("\n") == 1 and "finite" in captured.err
        assert seen == []
    key, values = cli._parse_axis("scale.H=-8e307:8e307:5")
    assert np.isfinite(values).all() and values[[0, 2, 4]].tolist() == [
        -8e307, 0.0, 8e307]


def test_sweep_zero_data_point_is_an_error_row(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    out = tmp_path / "sweep-out"
    rc = main_entry(["sweep", cfg, "--axis", "data0.amplitude=0:3:2",
                     "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    with open(out / "frontier.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["data0.amplitude"], r["status"]) for r in rows] == [
        ("0", "error(InvariantViolation)"), ("3", "ok")]
    assert sorted(os.listdir(out)) == ["amplitude3", "frontier.csv"]


def test_sweep_over_an_unread_key_gives_error_rows(tmp_path, capsys):
    """scale.sigma means nothing under desitter: each point is a config
    error row, as a config setting it would be."""
    text = SWEEP_CFG.replace("scale.family = powerlaw", "scale.family = desitter")
    out = tmp_path / "sweep-out"
    rc = main_entry(["sweep", write_cfg(tmp_path, text), "--axis",
                     "scale.sigma=0:1:2", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    with open(out / "frontier.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["error(InvariantViolation)"] * 2


def test_sweep_invalid_base_config_runs_no_point(tmp_path, capsys):
    text = SWEEP_CFG.replace("data0.kind = homogeneous",
                             "data0.kind = gaussian\ndata0.width = 9")
    out = tmp_path / "sweep-out"
    rc = main_entry(["sweep", write_cfg(tmp_path, text), "--axis",
                     "data0.amplitude=0.5:2.0:2", "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert "does not fit inside half_width" in capsys.readouterr().err


def test_sweep_reads_a_relative_table_next_to_its_config(tmp_path, capsys,
                                                        monkeypatch):
    """A tabulated background's relative scale.table_path is read next to
    the config by every sweep point, also when the sweep runs elsewhere."""
    cfg_dir = tmp_path / "cfg"
    cfg_dir.mkdir()
    t = np.linspace(0.0, 2.0, 50)
    np.savetxt(cfg_dir / "table.txt", np.column_stack([t, np.exp(0.5 * t)]))
    write_cfg(cfg_dir, TABLE_CFG)
    monkeypatch.chdir(tmp_path)
    rc = main_entry(["sweep", os.path.join("cfg", "scn.cfg"), "--axis",
                     "data0.amplitude=0.4:0.6:3", "--out", "sweep-out"])
    capsys.readouterr()
    assert rc == 0
    with open(os.path.join("sweep-out", "frontier.csv")) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok"] * 3


def test_sweep_reads_its_config_once(tmp_path, capsys, monkeypatch):
    """The sweep parses the text it read for its base point and gives that
    same text to every point: the config file is opened once."""
    cfg = write_cfg(tmp_path, SWEEP_CFG)
    opened, real_open = [], open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == cfg:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", counting_open)
    rc = main_entry(["sweep", cfg, "--axis", "data0.amplitude=2:3:2",
                     "--out", str(tmp_path / "sweep-out")])
    capsys.readouterr()
    assert rc == 0 and len(opened) == 1


@pytest.mark.parametrize("argv", [["--seed", "-1"], ["--random", "-3"],
                                  ["--random", "2", "--seed", "-1"]],
                         ids=["seed", "random", "random-and-seed"])
def test_oracle_rejects_negative_counts(capsys, argv):
    assert main_entry(["oracle-ode", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "must be nonnegative" in captured.err


def test_log_env_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGFLRW_LOG", "debug")
    cfg = bundled_path(tmp_path, "bigrip-reject")
    assert main_entry(["check", cfg]) == 3
    capsys.readouterr()
