"""The command-line edge cases, each written once, and the one function that
runs a case, which tier-1, CI and the byte-identity manifest share.

A case is a directory of input files (configs built from a bundled scenario
by `oracles.edited_scenario`, tables) and one or more `kgflrw` commands run
in it in order, with relative paths. Each command states its exit code, and
where it matters its exact stderr lines. Every command keeps the stderr
contract: nothing on exit 0 or on check's exit 3, exactly one line on any
other non-zero exit, and two for argparse's usage error; on a non-zero exit
nothing reaches stdout but the report of check's exit 3 and of a simulate
that ran and ended at exit 5 or 6. A case names the files its commands must
write and those they must not, and may check what they wrote.

    python -m pytest tests/test_cli.py        # in-process, via main_entry
    python tests/cases.py --script kgflrw     # through a console script
    python tests/cases.py [--script CMD] --manifest OUT.json
    python tests/cases.py --compare A.json B.json

The runner exits 1 when a case fails. A manifest records, per case, each
command's exit code and the sha256 of its stdout and stderr, and the sha256
of every file in the case's directory after the run; `--compare` prints the
differences by case and by file, and exits 1 when there are any. The bits
depend on numpy and libm, so no hash is committed: a change that keeps the
outputs compares the manifest of its parent's source with its own.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import shlex
import signal
import subprocess
import sys
import tempfile
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from kgflrw.cli import main_entry, parse_report
from kgflrw.functionals import CSV_COLUMNS
from oracles import TSTAR, edited_scenario, vehicle_text

LIMIT_S = 60  # per command: a command that hangs fails its case

ANCHOR = "minkowski-m0-u2-A3"
BUNDLED = {"desitter-thm2": 0, ANCHOR: 0, "minkowski-m1-thm2": 0,
           "bigrip-reject": 3, "desitter-smooth": 3, "minkowski-linear": 3}
NO_CERTIFICATE = "error: odelab: no certificate applies; nothing to derive"
NONFINITE = "state became non-finite; trace truncated"


class Run(NamedTuple):
    """One command: its argv, its exit code (None: the case's check
    decides) and, if stated, its exact stderr lines."""

    argv: tuple
    code: int | None
    stderr: tuple | None = None


@dataclass(frozen=True)
class Case:
    """Input files ({relative path: text}), the commands run on them, the
    files they must write (non-empty) and the paths they must not, and a
    check(directory, [Output per command]). A case whose
    xfail gives a reason fails today, and must (strict)."""

    name: str
    files: dict
    runs: tuple
    writes: tuple = ()
    absent: tuple = ()
    check: Callable | None = None
    xfail: str | None = None


class Output(NamedTuple):
    """What one command did: its exit code, stdout and stderr."""

    code: int
    out: str
    err: str


def case(name, files, *runs, **expect) -> Case:
    """A Case whose runs are ("argv words", code[, stderr lines])."""
    return Case(name, files, tuple(
        Run(tuple(argv.split()), code, None if not lines else tuple(lines))
        for argv, code, *lines in runs), **expect)


class CaseTimeout(Exception):
    """A command ran past LIMIT_S."""


@contextlib.contextmanager
def _time_limit():
    """Raise CaseTimeout in the command after LIMIT_S, where SIGALRM
    exists."""
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        raise CaseTimeout(f"over {LIMIT_S} s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _print_warning(message, category, filename, lineno, file=None,
                   line=None):
    sys.stderr.write(warnings.formatwarning(message, category, filename,
                                            lineno, line))


def _in_process(argv) -> Output:
    """main_entry(argv) in numpy's default error state, with every warning
    of every category printed to the captured stderr, where the stderr
    contract fails it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(), \
            np.errstate(all="warn", under="ignore"), _time_limit():
        warnings.simplefilter("always")
        warnings.showwarning = _print_warning
        try:
            code = main_entry(list(argv))
        except SystemExit as exc:  # argparse's usage error and --help
            code = exc.code
    return Output(code, out.getvalue(), err.getvalue())


def _in_subprocess(script: str, argv, d: pathlib.Path) -> Output:
    """`script ARGV...` (script shell-split) run in d."""
    done = subprocess.run([*shlex.split(script), *argv], cwd=d,
                          capture_output=True, timeout=LIMIT_S)
    return Output(done.returncode, done.stdout.decode(), done.stderr.decode())


def run_case(case: Case, directory, script: str | None = None) -> list:
    """Write case's files into the new directory and run its commands
    there, in-process through main_entry or in a subprocess of script; an
    Output per command."""
    d = pathlib.Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for rel, text in case.files.items():
        (d / rel).parent.mkdir(parents=True, exist_ok=True)
        (d / rel).write_text(text)
    if script is not None:
        return [_in_subprocess(script, run.argv, d) for run in case.runs]
    cwd = os.getcwd()
    os.chdir(d)
    try:
        return [_in_process(run.argv) for run in case.runs]
    finally:
        os.chdir(cwd)


def _contract(command: str, code: int, err: list) -> tuple:
    """(stderr line count, whether stdout may be written) for a command
    that exited with code and printed the stderr lines err."""
    if code == 0:
        return 0, True
    if command == "check" and code == 3:
        return 0, True
    if code == 2 and err and err[0].startswith("usage: "):
        return 2, False
    return 1, command == "simulate" and code in (5, 6)


def verify(case: Case, d: pathlib.Path, outs: list) -> None:
    """Assert each command's exit code and stderr, the contract, the paths
    written and absent in the case's directory d, and the case's check."""
    for run, (code, out, err) in zip(case.runs, outs):
        where = f"{case.name}: kgflrw {' '.join(run.argv)}"
        lines = err.splitlines()
        assert run.code is None or code == run.code, (
            f"{where}: exit {code}, want {run.code}; stderr {lines}")
        count, prints = _contract(run.argv[0], code, lines)
        assert len(lines) == count, f"{where}: exit {code}, stderr {lines}"
        assert prints or out == "", f"{where}: exit {code} wrote stdout"
        assert run.stderr is None or lines == list(run.stderr), (
            f"{where}: stderr {lines}")
    for rel in case.writes:
        path = d / rel
        assert path.is_file() and path.stat().st_size > 0, (
            f"{case.name}: {rel} not written")
    for rel in case.absent:
        assert not os.path.lexists(d / rel), f"{case.name}: {rel} written"
    if case.check is not None:
        case.check(d, outs)


def entry(case: Case, d: pathlib.Path, outs: list) -> dict:
    """The manifest entry of a case run in d, one flat map: each command's
    argv, exit code and the sha256 of its stdout and stderr, and the sha256
    of each file in d (inputs included)."""
    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    out = {}
    for i, (run, (code, stdout, stderr)) in enumerate(zip(case.runs, outs),
                                                      start=1):
        out.update({f"command {i:02d}": " ".join(run.argv),
                    f"command {i:02d} exit": code,
                    f"command {i:02d} stdout": sha(stdout.encode()),
                    f"command {i:02d} stderr": sha(stderr.encode())})
    out.update({f"file {p.relative_to(d).as_posix()}": sha(p.read_bytes())
                for p in sorted(d.rglob("*")) if p.is_file()})
    return out


def compare(a: dict, b: dict) -> list[str]:
    """The differences between manifests a and b, by case and by command
    or file, as "case: item: value in a | value in b" ("-": none)."""
    return [f"{name}: {key}: {ea.get(key, '-')} | {eb.get(key, '-')}"
            for name in sorted(a.keys() | b.keys())
            for ea, eb in [(a.get(name, {}), b.get(name, {}))]
            for key in sorted(ea.keys() | eb.keys())
            if ea.get(key) != eb.get(key)]


# ---------------------------------------------------------------------------
# configs, each a bundled scenario's text with its edits


CUT = ("run.t_end = 1.75", "run.t_end = 0.05")  # the anchor cut short
SMOOTH_CUT = ("run.t_end = 0.8", "run.t_end = 0.05")
ANCHOR_GRID = "grid.n = 1\ngrid.N = 64\ngrid.half_width = 3.141592653589793"
# a flat four-column table over [0, 2]; the anchor on it needs T = pi^2
FLAT4 = "0 1 0 0\n0.5 1 0 0\n1 1 0 0\n1.5 1 0 0\n2 1 0 0\n"
CLOSED_FORM = "scale.family = powerlaw\nscale.a0 = 1.0\nscale.H = 0.0\n" \
              "scale.sigma = 0.0"
ON_FLAT = (CLOSED_FORM,
           "scale.family = tabulated\nscale.table_path = flat.txt")


OFF = ("run.blowup_threshold = 1e12",  # neither step control nor the norm
       "run.blowup_threshold = 1e300\nrun.growth_tol = 1e300")  # threshold
# a bump of amplitude 1 and width 0.5 in a box of half width 1, without a
# certificate: the anchor's light path crosses the support margin at t = 0.5
BUMP = (("grid.half_width = 3.141592653589793", "grid.half_width = 1.0"),
        ("data0.kind = homogeneous", "data0.kind = bump\ndata0.width = 0.5"),
        ("data0.amplitude = 3.0", "data0.amplitude = 1"),
        ("run.t_end = 1.75", "run.t_end = 1.0"),
        ("run.dt = 1e-3", "run.dt = 1e-2"),
        ("run.theorem_mode = auto", "run.theorem_mode = none"))


def anchor(*edits) -> str:
    return edited_scenario(ANCHOR, *edits)


def small_m1(*edits) -> str:
    """minkowski-m1-thm2 at N = 16 with u0 = 3 and u1 = 0 to t_end = 3,
    under theorem_mode auto: certified from amplitude 2 (rho crosses 0
    between 0.5 and 2)."""
    return edited_scenario(
        "minkowski-m1-thm2", ("grid.N = 64", "grid.N = 16"),
        ("data0.amplitude = 6.0", "data0.amplitude = 3"),
        ("data1.amplitude = 1.0", "data1.amplitude = 0"),
        ("run.t_end = 5.0", "run.t_end = 3.0"),
        ("run.theorem_mode = thm2", "run.theorem_mode = auto"), *edits)


def _table(columns) -> str:
    buf = io.StringIO()
    np.savetxt(buf, np.column_stack(columns))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# checks of what a case wrote: check(directory, [Output per command])


def _read_report(path) -> dict:
    return parse_report(pathlib.Path(path).read_text())


def _rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _same_csv(a: str, b: str, *names):
    """The .csv files under a and under b have the same names (names, if
    given) and bytes."""
    def check(d, runs):
        got = [{p.relative_to(d / top).as_posix(): p.read_bytes()
                for p in (d / top).rglob("*.csv")} for top in (a, b)]
        assert got[0] and got[0] == got[1], f"{a} and {b} differ"
        assert not names or sorted(got[0]) == sorted(names)
    return check


def _heads(d, runs) -> None:
    """check prints the head of simulate's report.txt, whose L0, E_t0 and
    I_u0 are the bits of the trace's first row."""
    for checked, sim in zip(runs[0::2], ("complex", "n48", "smooth",
                                         "smooth3d")):
        report = (d / sim / "report.txt").read_text()
        assert report.startswith(checked.out), sim
        assert len(report) > len(checked.out), sim
        row0 = _rows(d / sim / "trace.csv")[0]
        rep = parse_report(checked.out)
        for key, column in (("L0", "L2sq"), ("E_t0", "E"), ("I_u0", "I")):
            assert float(rep[key]).hex() == float(row0[column]).hex(), key


def _vehicle(d, runs) -> None:
    rep = _read_report(d / "sim" / "report.txt")
    assert rep["blowup.detected"] == "true" and rep["run.rejected_steps"] > 0


def _frontier(*want):
    """sweep-out/frontier.csv has the rows (axis value, status) want."""
    def check(d, runs):
        rows = _rows(d / "sweep-out" / "frontier.csv")
        assert [(next(iter(r.values())), r["status"]) for r in rows] == \
            list(want)
    return check


def _deterministic(d, runs) -> None:
    """Two runs write the same bytes: the trace's header and the report's
    blow-up time at the anchor's t*, inside its certificate."""
    for name in ("trace.csv", "report.txt"):
        assert (d / "a" / name).read_bytes() == (d / "b" / name).read_bytes()
    header = (d / "a" / "trace.csv").read_text().partition("\n")[0]
    assert header == ",".join(CSV_COLUMNS)
    rep = _read_report(d / "a" / "report.txt")
    assert rep["blowup.reason"] == "norm_threshold"
    assert abs(rep["blowup.t_star"] - TSTAR) <= 1e-6
    assert rep["blowup.bound_margin"] > 0.0


def _random_batch(d, runs) -> None:
    """A seed gives the same bytes, and each row its ordered times."""
    assert (d / "r1.csv").read_bytes() == (d / "r2.csv").read_bytes()
    rows = [{k: float(v) for k, v in r.items()} for r in _rows(d / "r1.csv")]
    assert len(rows) == 5
    for row in rows:
        assert row["t_vanish"] <= row["t_bound"] * (1 + 1e-8)
        assert row["t_bound"] <= row["T"] * (1 + 1e-12)


def _kept(d, runs) -> None:
    assert (d / "taken").read_text() == "kept\n"


def _one_trace(d, runs) -> None:
    """The +0.0 and -0.0 velocity runs write one trace of several rows."""
    _same_csv("pos", "neg", "trace.csv")(d, runs)
    assert len((d / "pos" / "trace.csv").read_bytes().splitlines()) > 5


def _zero_point(d, runs) -> None:
    _frontier(("0", "error(InvariantViolation)"), ("3", "ok"))(d, runs)
    assert sorted(os.listdir(d / "sweep-out")) == ["amplitude3",
                                                   "frontier.csv"]


def _no_certificate(d, runs) -> None:
    """check certifies nothing (T_bound none); a simulate runs uncertified
    to the norm threshold."""
    rep = parse_report(runs[0].out)
    assert rep["theorem"] == "none" and rep["T_bound"] == "none"
    for sim in runs[2:]:
        kv = parse_report(sim.out)
        assert kv["T_bound"] == "none"
        assert kv["blowup.reason"] == "norm_threshold"


def _check_implies_oracle(d, runs) -> None:
    assert runs[0].code != 0 or runs[1].code == 0, (
        f"check exits 0 but oracle-ode exits {runs[1].code}")


def _hdiag_nan(d, runs) -> None:
    rows = _rows(d / "out" / "trace.csv")
    assert len(rows) > 1 and all(r["Hdiag"] == "nan" for r in rows)


def _wrap(d, runs) -> None:
    assert len((d / "wrap-out" / "trace.csv").read_text().splitlines()) >= 2
    kv = _read_report(d / "wrap-out" / "report.txt")
    assert kv["blowup.reason"] == "wrap_around"
    assert kv["blowup.detected"] == kv["run.reached_t_end"] == "false"
    assert kv["blowup.t"] == kv["run.t_final"] == 0.5000000000000002


def _fits(d, runs) -> None:
    assert all(run.out == "" for run in runs[:-1])
    assert parse_report(runs[-1].out)["theorem"] != "none"


def _nonfinite_late(d, runs) -> None:
    kv = _read_report(d / "nf-out" / "report.txt")
    assert kv["blowup.reason"] == "nonfinite" and kv["run.t_final"] > 1.0


def _eta_overflows(d, runs) -> None:
    last = _rows(d / "ovf-out" / "trace.csv")[-1]
    assert math.isnan(float(last["eta"]))
    assert math.isfinite(float(last["L2sq"]))


def _nonfinite_at_once(d, runs) -> None:
    kv = _read_report(d / "ovf-out" / "report.txt")
    assert kv["blowup.reason"] == "nonfinite"
    assert kv["run.accepted_steps"] == 0 and kv["run.t_final"] == 0


def _out_of_memory(shape: str, *inputs):
    """One MemoryError line naming shape, and no file but the inputs."""
    def check(d, runs):
        [line] = runs[0].err.splitlines()
        assert line.startswith("config error: out of memory: Unable to "
                               "allocate") and f"with shape {shape}" in line
        assert sorted(p.name for p in d.iterdir()) == list(inputs)
    return check


def _cube_overflows(d, runs) -> None:
    big, h100, h300 = (parse_report(run.out) for run in runs)
    assert big["blowup.reason"] == "norm_threshold"
    assert abs(big["blowup.t_star"] - TSTAR) <= 1e-6
    assert h100["run.t_final"] == 5
    assert abs(h300["run.t_final"] - 2.347) <= 1e-3


def _own_directories(d, runs) -> None:
    """Amplitudes within 1e-6 of 3 get a directory each, labelled with the
    value frontier.csv gives."""
    amps = [r["data0.amplitude"]
            for r in _rows(d / "sweep-out" / "frontier.csv")]
    assert len(set(amps)) == 3 and amps[0] == "3"
    assert sorted(p.name for p in (d / "sweep-out").iterdir()
                  if p.is_dir()) == sorted(f"amplitude{a}" for a in amps)
    for a in amps:
        assert (d / "sweep-out" / f"amplitude{a}" / "trace.csv"
                ).stat().st_size > 0


def _t_star_missing(d, runs) -> None:
    report = _read_report(d / "early" / "report.txt")
    assert report["blowup.detected"] == "true"
    assert "blowup.t_star" not in report
    assert report["blowup.t_star_status"] == \
        "only 2 rows above the tail threshold"


# ---------------------------------------------------------------------------
# the cases; a name "group[id]" is tier-1's test_group[id]


HORIZON_LINE = ("horizon too short: certificate needs T = 9.8696044 but the "
                "background lifetime is 2")
INTEGRALS = "config error: functionals: initial data give non-finite " \
            "integrals: "
PROBLEM = "config error: hypotheses: no concavity problem for this " \
          "certificate: "
FILLS = "wrap-around abort: support radius 4.0 already fills the box"
# check, oracle-ode and simulate on scn.cfg; simulate writes to out
COMMANDS = {"check": "check scn.cfg", "oracle-ode": "oracle-ode scn.cfg",
            "simulate": "simulate scn.cfg --out out"}
HORIZON = {"flat.txt": FLAT4, "horizon.cfg": anchor(
    ON_FLAT, ("run.t_end = 1.75", "run.t_end = 1.5"))}
BIG_T0 = ("run.t0 = 0.0\nrun.t_end = 5.0", "run.t0 = 1e300\nrun.t_end = 2e300")
# a spacing that underflows would divide by zero in the stencil; a 3D h^3
# that underflows would read the data as zero, one that overflows raised; a
# complex128 field of 16 * 10^18 bytes is past numpy's intp
GRIDS = {
    "h-underflows": ("grid.n = 1\ngrid.N = 64\ngrid.half_width = 5e-324",
                     "spacing must be a positive normal float, got 0.0"),
    "h3-underflows": ("grid.n = 3\ngrid.N = 8\ngrid.half_width = 1e-110",
                      "cell volume must be a positive normal float, got 0.0"),
    "h3-overflows": ("grid.n = 3\ngrid.N = 8\ngrid.half_width = 1e110",
                     "cell volume must be a positive normal float, got inf"),
    "cells-past-intp": (
        "grid.n = 3\ngrid.N = 1000000\ngrid.half_width = 3.141592653589793",
        "of 1000000^3 cells is too large for a complex128 array")}
BAD_AXES = [  # (axis, what it lacks)
    *((f"data0.amplitude={grid}", "finite numbers lo and hi")
      for grid in ("nan:3:2", "1:inf:2", "-inf:3:2", "one:3:2")),
    *((axis, "a finite span hi - lo and finite grid values")
      for axis in ("data0.amplitude=-1e308:1e308:3",
                   "data0.amplitude=1e308:-1e308:2",
                   "data0.amplitude=-1e308:1e308:1",
                   "scale.H=-1e308:1e308:3"))]


def gaussian(width: float) -> tuple:
    """The edit that makes homogeneous u0 a Gaussian of this width."""
    return ("data0.kind = homogeneous",
            f"data0.kind = gaussian\ndata0.width = {width}")


def overflow_anchor() -> str:
    """The anchor at amplitude 30 and dt 0.02 with step control and the norm
    threshold off: Re(u, u_t) + R passes 1e154 while the state is finite,
    then the state becomes non-finite."""
    return anchor(("data0.amplitude = 3.0", "data0.amplitude = 30"),
                  ("run.dt = 1e-3", "run.dt = 0.02"), OFF)


CASES = [
    # every bundled scenario under each command, with its own exit code
    *(case(f"bundled_scenario[{name}]", {f"{name}.cfg": edited_scenario(name)},
           (f"check {name}.cfg", code), (f"check {name}.cfg --csv", code),
           (f"oracle-ode {name}.cfg", code,
            *((NO_CERTIFICATE,) if code else ())),
           (f"simulate {name}.cfg --out sim", 0),
           writes=("sim/trace.csv", "sim/report.txt"))
      for name, code in BUNDLED.items()),
    case("oracle_random_problems", {}, ("oracle-ode --random 3", 0),
         ("oracle-ode --random 120 --seed 7", 0)),
    case("oracle_random_batch", {},
         *((f"oracle-ode --random 5 --seed 3 --out r{i}.csv", 0)
           for i in (1, 2)),
         ("oracle-ode", 2, "error: need a config or --random N"),
         check=_random_batch),
    case("check_without_a_config_prints_usage", {}, ("check", 2)),
    case("simulate_deterministic", {f"{ANCHOR}.cfg": anchor()},
         (f"simulate {ANCHOR}.cfg --out a", 0),
         (f"simulate {ANCHOR}.cfg --out b", 0), check=_deterministic),
    # the kernels a short simulate runs: float64 at p = 3 with f in Python
    # arithmetic; PowerLaw.eval's non-flat float path; complex128
    # non-uniform data (zdotc, the complex f); steps clamped to the CFL
    # window, also on the static background whose t0 values each step reuses
    *(case(f"simulate_path[{label}]", {"scn.cfg": text},
           ("simulate scn.cfg --out sim", 0), writes=("sim/trace.csv",))
      for label, text in (
          ("p3", anchor(CUT, ("nonlin.p = 2.0", "nonlin.p = 3.0"))),
          ("expanding", anchor(CUT, ("scale.H = 0.0", "scale.H = 0.3"),
                               ("scale.sigma = 0.0", "scale.sigma = 0.5"))),
          ("smooth-complex", edited_scenario(
              "desitter-smooth", SMOOTH_CUT,
              ("data0.amplitude = 0.5", "data0.amplitude = 0.5+0.5j"))),
          ("smooth-clamped", edited_scenario(
              "desitter-smooth", ("run.dt = 1e-3", "run.dt = 0.05"),
              ("run.t_end = 0.8", "run.t_end = 0.5"))),
          ("anchor-clamped", anchor(
              ("run.dt = 1e-3", "run.dt = 0.05"),
              ("run.t_end = 1.75", "run.t_end = 0.5"))))),
    # check and simulate certify one measurement of the data: uniform data
    # whose one-cell sums a whole-array sum may round otherwise (complex,
    # N = 48), non-uniform float64 data, and the 3D pulse at N = 40, which
    # sweeps the stencil in five slabs, measured by a workspace that never
    # steps
    case("check_prints_the_head_of_simulate_report", {
        "complex.cfg": anchor(CUT, ("data0.amplitude = 3.0",
                                    "data0.amplitude = 3+0.5j")),
        "n48.cfg": anchor(CUT, ("grid.N = 64", "grid.N = 48")),
        "smooth.cfg": edited_scenario("desitter-smooth", SMOOTH_CUT),
        "smooth3d.cfg": edited_scenario(
            "desitter-smooth", SMOOTH_CUT, ("grid.n = 1", "grid.n = 3"),
            ("grid.N = 256", "grid.N = 40"),
            ("data0.width = 0.55", "data0.width = 0.7"))},
        ("check complex.cfg", 0), ("simulate complex.cfg --out complex", 0),
        ("check n48.cfg", 0), ("simulate n48.cfg --out n48", 0),
        ("check smooth.cfg", 3), ("simulate smooth.cfg --out smooth", 0),
        ("check smooth3d.cfg", 3),
        ("simulate smooth3d.cfg --out smooth3d", 0), check=_heads),
    # a retried step recomputes the accepted state's Laplacian sum and keeps
    # its f(u); the tail records every step
    case("simulate_vehicle_rejects_and_detects",
         {"vehicle.cfg": vehicle_text()},
         ("simulate vehicle.cfg --out sim", 0), check=_vehicle),
    case("sweep_horizon_too_short_rows", HORIZON,
         ("sweep horizon.cfg --axis data0.amplitude=2.0:3.0:2 --out "
          "sweep-out", 0),
         check=_frontier(("2", "horizon_too_short"),
                         ("3", "horizon_too_short"))),
    case("check_horizon_exit_four", HORIZON,
         ("check horizon.cfg", 4, HORIZON_LINE)),
    *(case(f"horizon_blocked_anchor_exit_four[{label}]", {
        "flat.txt": _table([np.linspace(0.0, 2.0, 5), np.ones(5)]),
        "scn.cfg": anchor(ON_FLAT)}, (argv, 4, HORIZON_LINE))
      for label, argv in (("check", "check scn.cfg"),
                          ("check-csv", "check scn.cfg --csv"),
                          ("oracle-ode", "oracle-ode scn.cfg"))),
    case("oracle_csv_in_a_missing_directory", {},
         ("oracle-ode --random 3 --out missing/x.csv", 2,
          "error: cannot write missing/x.csv: No such file or directory"),
         absent=("missing",)),
    case("simulate_into_an_existing_file",
         {"taken": "kept\n", "anchor.cfg": anchor(CUT)},
         ("simulate anchor.cfg --out taken", 2,
          "error: cannot write taken: File exists"), check=_kept),
    # t0 + 21.7 rounds to t0 = 1e300: a bound that does not exceed its start
    # certifies nothing
    case("certificate_that_rounds_to_t0",
         {"scn.cfg": edited_scenario("minkowski-m1-thm2", BIG_T0)},
         ("check scn.cfg", 3), ("oracle-ode scn.cfg", 3, NO_CERTIFICATE),
         check=_no_certificate),
    # t0 + dt rounds to t0 = 1e300, so no step would move t: a run is
    # refused before its first step, and so is each sweep point
    case("run_that_rounds_to_t0_exit_two",
         {"scn.cfg": edited_scenario("minkowski-m1-thm2", BIG_T0)},
         (COMMANDS["simulate"], 2, "config error: dynamics: t0 + dt rounds "
          "to t0 = 1e+300 at dt = 0.001"),
         ("sweep scn.cfg --axis data0.amplitude=5:6:2 --out sweep-out", 0),
         absent=("out", "sweep-out/amplitude5", "sweep-out/amplitude6"),
         check=_frontier(("5", "error(InvariantViolation)"),
                         ("6", "error(InvariantViolation)"))),
    # a(t0) overflows (the power law's numpy fallback, de Sitter's exp) or
    # underflows to 0, where c^2 / a^2 and adot / a would divide by zero
    *(case(f"background_not_usable_at_t0[{label}]",
           {"scn.cfg": edited_scenario(name, *edits)},
           *((argv, 2, "config error: scale_factor: a(t0) must be finite and "
              "positive with a square that does not underflow, and adot(t0) "
              f"finite; at t0 = 1e+300: {values}")
             for argv in COMMANDS.values()), absent=("out",))
      for label, name, edits, values in (
          ("powerlaw-overflows", "minkowski-m1-thm2",
           (BIG_T0, ("scale.H = 0.0", "scale.H = 0.1")),
           "a = inf, adot = 5.0000000000000004e+297"),
          ("desitter-overflows", "desitter-thm2", (BIG_T0,),
           "a = inf, adot = inf"),
          ("desitter-underflows", "desitter-smooth",
           (("run.t0 = 0.0\nrun.t_end = 0.8",
             "run.t0 = 1e300\nrun.t_end = 2e300"),
            ("scale.H = 0.5", "scale.H = -0.5")),
           "a = 0.0, adot = -0.0"))),
    # ROADMAP item 1: Re(u0, u1) = -1.1e-11 passes the relative tolerance
    case("certificate_that_oracle_ode_refuses", {"scn.cfg": anchor(
        gaussian(0.5),
        ("data0.amplitude = 3.0", "data0.amplitude = 10.0"),
        ("data1.kind = homogeneous\ndata1.amplitude = 0.0",
         "data1.kind = plane_mod\ndata1.amplitude = 0.001\ndata1.width = 1.0"
         f"\ndata1.center = {math.pi / 2 + 1e-9!r}"),
        ("run.t_end = 1.75", "run.t_end = 3.0"))},
        ("check scn.cfg", None), ("oracle-ode scn.cfg", None),
        check=_check_implies_oracle,
        xfail="check certifies data whose concavity problem has y1 > 0"),
    # a support radius of 4.0 fills the box: the one wrap guard of Start
    # refuses it before any certificate, also where the integrals overflow
    case("check_and_oracle_apply_the_wrap_guard", {
        "wide.cfg": anchor(gaussian(1.0)),
        "huge.cfg": anchor(gaussian(1.0), (
            "data0.amplitude = 3.0", "data0.amplitude = 1e200")),
        "fits.cfg": anchor(gaussian(0.75))},
        *((argv.format(cfg), 5, FILLS) for cfg in ("wide", "huge")
          for argv in ("check {}.cfg", "check {}.cfg --csv",
                       "oracle-ode {}.cfg", "simulate {0}.cfg --out {0}")),
        ("check fits.cfg", 0), absent=("wide", "huge"), check=_fits),
    *(case(f"grid_spacing_not_a_normal_float_exit_two[{label}-{command}]",
           {"scn.cfg": anchor((ANCHOR_GRID, grid))},
           (argv, 2, f"config error: field: grid {message}"),
           absent=("out",))
      for label, (grid, message) in GRIDS.items()
      for command, argv in COMMANDS.items()),
    # c^2 / a^2 would divide by an underflowed a0^2
    *(case(f"a0_whose_square_underflows_exit_two[{command}]",
           {"scn.cfg": anchor(("scale.a0 = 1.0", "scale.a0 = 1e-300"))},
           (argv, 2, "config error: scale_factor: a0 must be positive and "
            "its square must not underflow, got 1e-300"), absent=("out",))
      for command, argv in COMMANDS.items()),
    # a comparison problem that overflows (H: theta0 = inf, so y0 = 0), whose
    # bound rounds back to t0 (t0), whose theta0^(-kappa-1) is past the float
    # range (theta0 = 2e-300 on a tiny box) or whose y0^6 underflows (a huge
    # box)
    *(case(f"oracle_unrepresentable_problem_exit_two[{label}]",
           {"scn.cfg": anchor(edit)}, ("oracle-ode scn.cfg", code, line))
      for label, edit, code, line in (
          ("H-1e300", ("scale.H = 0.0", "scale.H = 1e300"), 2,
           PROBLEM + "y0 must be positive"),
          ("t0-1e300", ("run.t0 = 0.0\nrun.t_end = 1.75",
                        "run.t0 = 1e300\nrun.t_end = 2e300"), 3,
           NO_CERTIFICATE),
          ("half_width-1e-300", ("grid.half_width = 3.141592653589793",
                                 "grid.half_width = 1e-300"), 2,
           PROBLEM + "kappa, A, B, T, y0, y1 and t0 must be finite"),
          ("half_width-1e300", ("grid.half_width = 3.141592653589793",
                                "grid.half_width = 1e300"), 2,
           PROBLEM + "y1^2 + I y0^(2 + 1/kappa) underflows to 0"))),
    # sizes past the 47-bit address space: no memory is ever taken
    case("input_too_large_to_allocate_exit_two[check]", {"scn.cfg": anchor(
        ("grid.n = 1\ngrid.N = 64", "grid.n = 3\ngrid.N = 100000"))},
        ("check scn.cfg", 2),
        check=_out_of_memory("(100000, 100000, 100000)", "scn.cfg")),
    case("input_too_large_to_allocate_exit_two[oracle-ode]", {},
         ("oracle-ode --random 10000000000000", 2),
         check=_out_of_memory("(10000000000000, 6)")),
    *(case(f"overflowing_initial_integrals_print_one_line[{label}]",
           {"scn.cfg": edited_scenario(name, edit)},
           ("check scn.cfg", 2, INTEGRALS + bad))
      for label, name, edit, bad in (
          ("anchor-amplitude", ANCHOR,
           ("data0.amplitude = 3.0", "data0.amplitude = 1e150"),
           "F = inf, re_fu = inf"),
          ("bigrip-amplitude", "bigrip-reject",
           ("data0.amplitude = 6.0", "data0.amplitude = 1e300"),
           "L = inf, F = inf, re_fu = inf"),
          ("desitter-lambda", "desitter-thm2",
           ("nonlin.lambda = 1.0", "nonlin.lambda = 1.7976931348623157e308"),
           "F = inf, re_fu = inf"))),
    case("overflowed_initial_data_exit_two", {"scn.cfg": small_m1(
        ("data0.amplitude = 3\n", "data0.amplitude = 1e150\n"))},
        *((argv, 2, INTEGRALS + "F = inf, re_fu = inf")
          for argv in COMMANDS.values()), absent=("out",)),
    case("simulate_zero_data_exit_two", {"scn.cfg": small_m1(
        ("data0.amplitude = 3\n", "data0.amplitude = 0.0\n"))},
        (COMMANDS["simulate"], 2,
         "config error: dynamics: initial data must be nonzero"),
        absent=("out",)),
    # L0 = 1.8e301 is finite but blowup_threshold * L0 is not
    case("norm_threshold_that_overflows_exit_two", {"scn.cfg": anchor(
        ("grid.half_width = 3.141592653589793", "grid.half_width = 1e300"))},
        (COMMANDS["simulate"], 2, "config error: dynamics: norm threshold "
         "blowup_threshold * ||u0||^2 = 1000000000000.0 * "
         "1.8000000000000002e+301 overflows"), absent=("out",)),
    case("dt_min_not_below_dt_exit_two", {"scn.cfg": anchor(
        ("run.dt_min = 1e-12", "run.dt_min = 0.01"))},
        (COMMANDS["simulate"], 2,
         "config error: dynamics: dt_min must be below dt"),
        (COMMANDS["check"], 2,
         "config error: dynamics: dt_min must be below dt"),
        absent=("out",)),
    case("config_error_exit_two", {
        "bogus.cfg": anchor(("run.theorem_mode = auto",
                             "run.theorem_mode = auto\ngrid.bogus = 1")),
        "beyond.cfg": edited_scenario("bigrip-reject", ("run.t_end = 0.5",
                                                        "run.t_end = 1.5"))},
        ("check bogus.cfg", 2, "config error: line 35: unknown key "
         "'grid.bogus'"),
        ("check missing.cfg", 2, "config error: cannot read config: [Errno 2] "
         "No such file or directory: 'missing.cfg'"),
        ("simulate beyond.cfg --out out", 2, "config error: t_end = 1.5 not "
         "below the background horizon 1.0"), absent=("out",)),
    # a wrap mid-run keeps its partial trace and names its ending; a
    # support that already fills the box leaves no directory
    case("simulate_wrap_exit_five", {
        "wrap.cfg": anchor(*BUMP, (
            "nonlin.family = gauge\nnonlin.p = 2.0\nnonlin.lambda = 1.0\n"
            "nonlin.eps = 1.0", "nonlin.family = none")),
        "wrap0.cfg": edited_scenario(
            "desitter-smooth", ("grid.N = 256", "grid.N = 24"),
            ("data0.width = 0.55", "data0.width = 1.2"))},
        ("simulate wrap.cfg --out wrap-out", 5, "wrap-around abort: comoving "
         "light path crossed the support margin at t = 0.5000000000000002"),
        ("simulate wrap0.cfg --out wrap0-out", 5,
         "wrap-around abort: support radius 4.8 already fills the box"),
        absent=("wrap0-out",), check=_wrap),
    case("simulate_nonfinite_exit_six", {"scn.cfg": small_m1(
        ("run.dt = 1e-3", "run.dt = 1e-2"), OFF)},
        ("simulate scn.cfg --out nf-out", 6, NONFINITE),
        check=_nonfinite_late),
    # eta's square overflows to inf while the state is finite
    case("simulate_snapshot_overflow_exit_six", {"scn.cfg": overflow_anchor()},
         ("simulate scn.cfg --out ovf-out", 6, NONFINITE),
         check=_eta_overflows),
    # the first step's stage values pass 1e154, where Python's ** raises
    *(case(f"uniform_overflow_exit_six[{amplitude}]", {"scn.cfg": anchor(
        ("nonlin.p = 2.0", "nonlin.p = 3.0"),
        ("data0.amplitude = 3.0", f"data0.amplitude = {amplitude}"))},
        ("simulate scn.cfg --out ovf-out", 6, NONFINITE),
        check=_nonfinite_at_once)
      for amplitude in ("1e60", "1e60+1e60j")),
    case("nonfinite_run_prints_no_numpy_warning",
         {"scn.cfg": overflow_anchor()},
         ("simulate scn.cfg --out nf", 6, NONFINITE),
         ("sweep scn.cfg --axis data0.amplitude=30:30:1 --out nf-sweep", 0)),
    # a uniform run's sums start from +0.0, as a BLAS dot does
    case("signed_zero_velocity_writes_one_trace", {
        "pos.cfg": anchor(CUT),
        "neg.cfg": anchor(CUT, ("data1.amplitude = 0.0",
                                "data1.amplitude = -0.0"))},
        ("simulate pos.cfg --out pos", 0), ("simulate neg.cfg --out neg", 0),
        check=_one_trace),
    case("powerlaw_sigma_minus_one_runs_desitter", {
        "desitter-thm2.cfg": edited_scenario("desitter-thm2"),
        "powerlaw.cfg": edited_scenario(
            "desitter-thm2", ("scale.family = desitter\n",
                              "scale.family = powerlaw\nscale.sigma = -1\n"))},
        ("simulate desitter-thm2.cfg --out bundled", 0),
        ("simulate powerlaw.cfg --out powerlaw", 0),
        check=_same_csv("bundled", "powerlaw", "trace.csv")),
    # |m| c eps underflows to 0: Hdiag is NaN, as in the massless limit
    case("simulate_subnormal_mass_hdiag_is_nan", {"scn.cfg": anchor(
        ("phys.m = 0.0", "phys.m = 5e-324"),
        ("nonlin.eps = 1.0", "nonlin.eps = 0.5"),
        ("nonlin.p = 2.0", "nonlin.p = 1.5"))},
        (COMMANDS["simulate"], 0), check=_hdiag_nan),
    case("simulate_cfl_window_below_dt_min_exit_two", {"scn.cfg": anchor(
        ("run.theorem_mode = auto",
         "run.theorem_mode = auto\nrun.cfl = 1e-300"))},
        (COMMANDS["simulate"], 2, "config error: dynamics: CFL window cfl * "
         "h * a / c = 9.817477042468103e-302 at t = 0.0 is below dt_min = "
         "1e-12"), absent=("out",)),
    # a(t + dt) underflows at scale.H = -1e300: the window collapses
    *(case(f"simulate_collapsing_cfl_window_exit_two[{name}-{window}-"
           f"{dt_min}]", {"scn.cfg": edited_scenario(
               name, (f"scale.H = {H}", "scale.H = -1e300"),
               (f"run.t_end = {t_end}", "run.t_end = 0.05"))},
           (COMMANDS["simulate"], 2, "config error: dynamics: CFL window "
            f"cfl * h * a / c = {window} at t = 0.0 is below dt_min = "
            f"{dt_min}"), absent=("out",))
      for name, H, t_end, window, dt_min in (
          ("desitter-thm2", "0.5", "5.0", "0.0", "1e-12"),
          ("bigrip-reject", "1.0", "0.5", "3.9269908169872414e-293",
           "1e-09"))),
    # a^3 overflows while a is finite (a0 = 1e300; de Sitter at H = 100 to
    # t = 5); at H = 300 a itself overflows near t = 2.347
    case("simulate_scale_factor_whose_cube_overflows", {
        "big.cfg": anchor(("scale.a0 = 1.0", "scale.a0 = 1e300")),
        **{f"H{H}.cfg": edited_scenario(
            "desitter-smooth", ("scale.H = 0.5", f"scale.H = {H}"),
            ("run.t_end = 0.8", f"run.t_end = {t_end}"))
           for H, t_end in (("100", "5"), ("300", "3"))}},
        ("simulate big.cfg --out big", 0), ("simulate H100.cfg --out H100", 0),
        ("simulate H300.cfg --out H300", 6, NONFINITE),
        check=_cube_overflows),
    # eps^2 rho underflows (1e-300) or the bound overflows (1e-160)
    *(case(f"infinite_bound_is_no_certificate[{name}-{eps}]",
           {"scn.cfg": edited_scenario(name, ("nonlin.eps = 1.0",
                                              f"nonlin.eps = {eps}"))},
           ("check scn.cfg", 3), ("oracle-ode scn.cfg", 3, NO_CERTIFICATE),
           *((("simulate scn.cfg --out sim", 0),) if name == ANCHOR
             else ()),
           check=_no_certificate)
      for name, eps in (("desitter-thm2", "1e-300"), (ANCHOR, "1e-160"),
                        (ANCHOR, "1e-300"))),
    # a threshold just above 1 stops the anchor after one step
    case("simulate_reports_why_t_star_is_missing", {"scn.cfg": anchor(
        ("run.blowup_threshold = 1e12", "run.blowup_threshold = 1.000001"))},
        ("simulate scn.cfg --out early", 0), check=_t_star_missing),
    case("sweep_jobs_write_the_same_files", {"anchor.cfg": anchor(CUT)},
         *((f"sweep anchor.cfg --axis data0.amplitude=2.0:3.0:2 --jobs {jobs} "
            f"--out sweep-{jobs}", 0) for jobs in (1, 2)),
         check=_same_csv("sweep-1", "sweep-2", "frontier.csv",
                         "amplitude2/trace.csv", "amplitude3/trace.csv")),
    case("sweep_points_that_round_alike_get_own_directories",
         {"anchor.cfg": anchor(CUT)},
         ("sweep anchor.cfg --axis data0.amplitude=3.0:3.000001:3 --out "
          "sweep-out", 0), check=_own_directories),
    # one key on both axes, or a span hi - lo or grid value that is not
    # finite (np.linspace would warn and make nan or inf points)
    case("sweep_bad_axis", {"scn.cfg": small_m1()},
         ("sweep scn.cfg --axis run.dt=1:2:2", 2, "config error: axis key "
          "'run.dt' not sweepable (choose from ('data0.amplitude', "
          "'data1.amplitude', 'scale.H', 'scale.sigma', 'nonlin.eps', "
          "'nonlin.p'))"),
         ("sweep scn.cfg --axis nonsense", 2, "config error: axis spec "
          "'nonsense' is not key=lo:hi:steps"),
         ("sweep scn.cfg --axis data0.amplitude=2:3:2 --axis "
          "data0.amplitude=2:3:2 --out sweep-out", 2,
          "error: axis key 'data0.amplitude' given twice"),
         *((f"sweep scn.cfg --axis {axis} --out sweep-out", 2,
            f"config error: axis spec '{axis}' needs {need}")
           for axis, need in BAD_AXES),
         absent=("sweep-out", "scn-sweep")),
    case("sweep_zero_data_point_is_an_error_row", {"scn.cfg": small_m1()},
         ("sweep scn.cfg --axis data0.amplitude=0:3:2 --out sweep-out", 0),
         check=_zero_point),
    # scale.sigma means nothing under desitter
    case("sweep_over_an_unread_key_gives_error_rows", {"scn.cfg": small_m1(
        ("scale.family = powerlaw", "scale.family = desitter"),
        ("scale.sigma = 0.0\n", ""))},
        ("sweep scn.cfg --axis scale.sigma=0:1:2 --out sweep-out", 0),
        check=_frontier(("0", "error(InvariantViolation)"),
                        ("1", "error(InvariantViolation)"))),
    case("sweep_invalid_base_config_runs_no_point", {"scn.cfg": small_m1(
        gaussian(9))},
        ("sweep scn.cfg --axis data0.amplitude=0.5:2.0:2 --out sweep-out", 2,
         "config error: field: width 9.0 does not fit inside half_width "
         "3.141592653589793"), absent=("sweep-out",)),
    # every point reads a relative scale.table_path next to its config
    case("sweep_reads_a_relative_table_next_to_its_config", {
        "cfg/table.txt": _table([np.linspace(0.0, 2.0, 50),
                                 np.exp(0.5 * np.linspace(0.0, 2.0, 50))]),
        "cfg/scn.cfg": edited_scenario(
            "minkowski-m1-thm2",
            (CLOSED_FORM, "scale.family = tabulated\nscale.table_path = "
                          "table.txt"),
            ("grid.N = 64", "grid.N = 16"),
            ("data0.amplitude = 6.0", "data0.amplitude = 0.5"),
            ("data1.amplitude = 1.0", "data1.amplitude = 0.0"),
            ("run.t_end = 5.0", "run.t_end = 0.2"),
            ("run.dt = 1e-3", "run.dt = 1e-2"),
            ("run.theorem_mode = thm2", "run.theorem_mode = none"))},
        ("sweep cfg/scn.cfg --axis data0.amplitude=0.4:0.6:3 --out "
         "sweep-out", 0),
        check=_frontier(("0.40000000000000002", "ok"), ("0.5", "ok"),
                        ("0.59999999999999998", "ok"))),
    *(case(f"oracle_rejects_negative_counts[{label}]", {},
           (f"oracle-ode {argv}", 2, line))
      for label, argv, line in (
          ("seed", "--seed -1", "error: --seed must be nonnegative, got -1"),
          ("random", "--random -3",
           "error: --random must be nonnegative, got -3"),
          ("random-and-seed", "--random 2 --seed -1",
           "error: --seed must be nonnegative, got -1"))),
]
CASES_BY_NAME = {c.name: c for c in CASES}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Run every command-line case, or compare two manifests.")
    ap.add_argument("--script", metavar="CMD",
                    help="run each command as CMD ARGS in a subprocess "
                         "(default: in-process, through main_entry)")
    ap.add_argument("--manifest", metavar="OUT",
                    help="write the cases' exit codes and sha256s to OUT")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="print the differences between two manifests")
    args = ap.parse_args(argv)
    if args.compare:
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in args.compare)
        diffs = compare(a, b)
        print("\n".join(diffs) if diffs else "no differences")
        return 1 if diffs else 0
    manifest, failed, marked = {}, [], 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, c in enumerate(CASES):
            d = pathlib.Path(tmp, f"{i:03d}")
            try:
                outs = run_case(c, d, args.script)
                manifest[c.name] = entry(c, d, outs)
                verify(c, d, outs)
            except Exception as exc:  # the case failed: report it, go on
                manifest.setdefault(c.name, {"error": type(exc).__name__})
                if c.xfail:
                    marked += 1
                else:
                    failed.append(f"FAIL {c.name}: {type(exc).__name__}: "
                                  f"{exc}")
            else:
                if c.xfail:
                    failed.append(f"XPASS {c.name}: {c.xfail}")
    if args.manifest:
        pathlib.Path(args.manifest).write_text(
            json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print("\n".join(failed) or f"{len(CASES) - marked} cases pass, "
          f"{marked} fail as marked")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
