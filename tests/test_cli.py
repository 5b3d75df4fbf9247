"""Command-line surface: exit codes, determinism, report round-trips.

The edge cases that map an argv to an exit code, stderr and files are the
table of `cases.py`; each group of cases named "group[id]" is the test
test_group here, parametrized by id, run in-process.

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
import shlex
import subprocess
import sys

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
from cases import (BUMP, CASES, CASES_BY_NAME, OFF, anchor, entry, run_case,
                   small_m1, verify)
from oracles import TSTAR, corollaries, count_calls, edited_scenario

# the bump that wraps at t = 0.5, with the gauge coupling and neither step
# control nor the norm threshold stopping a blow-up: amplitude 1 wraps,
# amplitude 1000 blows up before that and ends non-finite
ENDINGS_CFG = anchor(*BUMP, OFF)


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


def test_check_no_theorem_exit_three(tmp_path, capsys):
    cfg = bundled_path(tmp_path, "bigrip-reject")
    rc = main_entry(["check", cfg])
    out = capsys.readouterr().out
    assert rc == 3
    assert parse_report(out)["theorem"] == "none"


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


def _src_env() -> dict:
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
    """check, simulate, sweep --jobs 1 and oracle-ode, on a config and on
    random problems, never import scipy, nor multiprocessing (the process
    pool of sweep --jobs above 1)."""
    anchor = bundled_path(tmp_path, "minkowski-m0-u2-A3")
    short = write_cfg(tmp_path, bundled_scenario_text(
        "minkowski-m0-u2-A3").replace("run.t_end = 1.75", "run.t_end = 0.05"),
        name="short.cfg")
    assert _scipy_modules_after(tmp_path, [
        [["check", anchor], 0],
        [["simulate", short, "--out", "sim-out"], 0],
        [["sweep", short, "--axis", "data0.amplitude=2:3:2", "--jobs", "1",
          "--out", "sweep-out"], 0],
        [["oracle-ode", anchor, "--out", "o.csv"], 0],
        [["oracle-ode", "--random", "3", "--out", "r.csv"], 0]]) == []


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
    cfg = write_cfg(tmp_path, small_m1())
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


def test_sweep_point_report_matches_simulate(tmp_path, capsys):
    """A sweep point writes the report of `simulate` on its overridden
    config: same keys in the same order, same values but the scenario name;
    amplitude 0.5 has no certificate, amplitude 2 the norm-margin one."""
    cfg = write_cfg(tmp_path, small_m1())
    out = tmp_path / "sweep-out"
    assert main_entry(["sweep", cfg, "--axis", "data0.amplitude=0.5:2.0:2",
                       "--out", str(out)]) == 0
    for amp, label in (("0.5", "amplitude0.5"), ("2", "amplitude2")):
        point = write_cfg(tmp_path, small_m1().replace(
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
    cfg = write_cfg(tmp_path, small_m1())
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
    cfg = write_cfg(tmp_path, small_m1())
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


def test_sweep_reads_its_config_once(tmp_path, capsys, monkeypatch):
    """The sweep parses the text it read for its base point and gives that
    same text to every point: the config file is opened once."""
    cfg = write_cfg(tmp_path, small_m1())
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


def test_log_env_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KGFLRW_LOG", "debug")
    cfg = bundled_path(tmp_path, "bigrip-reject")
    assert main_entry(["check", cfg]) == 3
    capsys.readouterr()


def test_parse_axis_keeps_a_wide_finite_grid():
    """A span hi - lo of 1.6e308 is finite, and so is each grid value."""
    key, values = cli._parse_axis("scale.H=-8e307:8e307:5")
    assert np.isfinite(values).all() and values[[0, 2, 4]].tolist() == [
        -8e307, 0.0, 8e307]


def _case_test(group: list):
    """The test of a group of cases: each runs in-process in its own
    directory, with every warning printed to its stderr."""
    def marks(c):
        return [pytest.mark.xfail(strict=True, reason=c.xfail)] if c.xfail \
            else []

    if "[" in group[0].name:
        @pytest.mark.parametrize("case", [
            pytest.param(c, id=c.name.partition("[")[2][:-1], marks=marks(c))
            for c in group])
        def test(case, tmp_path):
            verify(case, tmp_path, run_case(case, tmp_path))
        return test
    [one] = group  # a case named as its test

    def test(tmp_path):
        verify(one, tmp_path, run_case(one, tmp_path))
    for mark in marks(one):
        test = mark(test)
    return test


_GROUPS = {}
for _case in CASES:
    _GROUPS.setdefault(_case.name.partition("[")[0], []).append(_case)
for _name, _group in _GROUPS.items():
    assert f"test_{_name}" not in globals(), _name
    globals()[f"test_{_name}"] = _case_test(_group)


def test_console_script_writes_the_in_process_bytes(tmp_path, monkeypatch):
    """A check, a simulate, an oracle-ode and a sweep case run through
    `python -m kgflrw.cli` pass and write the manifest entries of their
    in-process runs: a numpy warning would reach the subprocess's stderr."""
    monkeypatch.setenv("PYTHONPATH", _src_env()["PYTHONPATH"])
    script = f"{shlex.quote(sys.executable)} -m kgflrw.cli"
    for name in ("overflowing_initial_integrals_print_one_line"
                 "[anchor-amplitude]", "uniform_overflow_exit_six[1e60]",
                 "oracle_unrepresentable_problem_exit_two[H-1e300]",
                 "sweep_zero_data_point_is_an_error_row"):
        c = CASES_BY_NAME[name]
        entries = []
        for way, how in (("in-process", None), ("script", script)):
            d = tmp_path / way / name
            outs = run_case(c, d, how)
            verify(c, d, outs)
            entries.append(entry(c, d, outs))
        assert entries[0] == entries[1], name
