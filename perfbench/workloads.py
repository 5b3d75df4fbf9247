"""The four benchmark workloads: inputs made from the seed, one timed pass,
and the output checks that decide whether an operation failed.

Every operation is a `kgflrw` command run in-process through
`cli.main_entry`, exactly as the command line runs it; the workloads also
parse configs and build fields through `config.parse_text` for the set-up
probes. Names are looked up on their module at call time, so the tracer's
wrappers are seen when they are installed. Operations are closed loop: each
starts after the previous one finished.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import re
from dataclasses import dataclass, field
from time import perf_counter

import kgflrw
from kgflrw import cli, config, odelab

# Reference values and tolerances of the acceptance suite
# (tests/test_acceptance.py); the benchmark invents none of its own.
TSTAR_ANCHOR = 1.7173153422544112  # frozen blow-up time of the flat anchor
TSTAR_REL_TOL = 0.01               # criterion 8: t* within 1%
T_BOUND_REL_TOL = 1e-12            # criterion 2: certified bounds
ORDER_SLACK = 1e-8                 # criterion 5: vanish <= bound <= T
ANCHOR = "minkowski-m0-u2-A3"
CERTIFIED = {
    "minkowski-m0-u2-A3": math.pi ** 2,
    "minkowski-m1-thm2": 240.0 * math.pi ** 2 / 109.0,
    "desitter-thm2": 360.0 * math.pi ** 2 / 109.0,
}
# bundled scenarios that no certificate covers (`check` exits 3 on them)
UNCERTIFIED = ("desitter-smooth", "minkowski-linear", "bigrip-reject")
SWEEP_AXIS = "data0.amplitude=1.0:4.0:7"
SWEEP_POINTS = 7
RANDOM_PROBLEMS = 120
PROBE = None  # contention.Probe of the timed run, set by worker.py


def scenario_path(name: str) -> str:
    return os.path.join(os.path.dirname(kgflrw.__file__), "scenarios",
                        f"{name}.cfg")


def override(text: str, key: str, value) -> str:
    """Set `key = value` in config text, appending the key if absent."""
    line = f"{key} = {value}"
    pat = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    if pat.search(text):
        return pat.sub(line, text)
    return text.rstrip("\n") + "\n" + line + "\n"


@dataclass
class PassResult:
    """One pass over a workload's operations.

    `op_s` maps each operation to its duration (output checks excluded) and
    `run_s` each `simulate` operation to the duration of its `run()` call;
    `snippets` holds the probe's samples taken during the operations (see
    contention.py). Every pass runs the same operations on the same inputs."""

    op_s: dict = field(default_factory=dict)
    run_s: dict = field(default_factory=dict)
    snippets: list = field(default_factory=list)
    steps: int = 0  # attempted RK4 steps of the `simulate` operations
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())

    def fail(self, what: str, reason: str, count: int = 1) -> None:
        """Count `count` failed operations, all for the same reason."""
        self.failed += count
        self.reasons.append(f"{what}: {reason}" if count == 1
                            else f"{what} ({count} operations): {reason}")


def _cli(res: PassResult, key: str, span, argv: list, count: int = 1):
    """Run one kgflrw command in-process as operation `key` and time it.

    `kgflrw.cli.run` is wrapped for the call, so the wall time and the trace
    of the command's `run()` call, if it makes one, are kept as well. Returns
    (exit code, stdout, trace or None), or None if the command raised."""
    out = io.StringIO()
    inner = cli.run
    got = {}

    def timed_run(*args, **kwargs):
        mark = PROBE.mark() if PROBE else None
        t0 = perf_counter()
        got["trace"] = inner(*args, **kwargs)
        got["s"] = perf_counter() - t0
        if mark is not None:  # the probe's handler time is not the run's
            got["s"] -= PROBE.since(mark)[1]
        return got["trace"]

    cli.run = timed_run
    mark = PROBE.mark() if PROBE else None
    t0 = perf_counter()
    try:
        with span("bench.op"), contextlib.redirect_stdout(out):
            rc = cli.main_entry(argv)
    except Exception as exc:  # a raising operation is a failed one
        res.fail(key, f"raised {type(exc).__name__}: {exc}", count)
        return None
    finally:
        took = perf_counter() - t0
        if mark is not None:
            samples, busy_s = PROBE.since(mark)
            took -= busy_s
            res.snippets.extend(samples)
        res.op_s[key] = took
        cli.run = inner
    if "s" in got:
        res.run_s[key] = got["s"]
    return rc, out.getvalue(), got.get("trace")


def _read_report(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "report.txt"), encoding="utf-8") as fh:
        return cli.parse_report(fh.read())


def _attempted_steps(rep: dict) -> int:
    return int(rep["run.accepted_steps"]) + int(rep["run.rejected_steps"])


def _check_blowup(name: str, rep: dict) -> list[str]:
    """Criterion 2 (t* below the certified bound) and, for the anchor,
    criterion 8's 1% band around the frozen t*, read from report.txt."""
    expected = CERTIFIED[name]
    T = rep.get("T_bound")
    if rep.get("mode") == "none" or not isinstance(T, float):
        return ["no certificate applies"]
    if abs(T - expected) > T_BOUND_REL_TOL * expected:
        return [f"T_bound {T!r} is not {expected!r}"]
    if rep.get("blowup.detected") != "true":
        return ["no blow-up detected"]
    if "blowup.t_star" not in rep:
        return [f"blow-up detected ({rep.get('blowup.reason')}) but no t* "
                "was estimated"]
    t, t_star = float(rep["blowup.t"]), float(rep["blowup.t_star"])
    bad = []
    if not t <= T:
        bad.append(f"blow-up at t = {t!r} beyond T_bound {T!r}")
    if not T - t_star > 0.0:
        bad.append(f"t* = {t_star!r} not below T_bound {T!r}")
    if name == ANCHOR and not (abs(t_star - TSTAR_ANCHOR)
                               < TSTAR_REL_TOL * TSTAR_ANCHOR):
        bad.append(f"anchor t* = {t_star!r} off the frozen value by 1% "
                   "or more")
    return bad


def _err_over_unc(rep: dict) -> float:
    err = abs(float(rep["blowup.t_star"]) - TSTAR_ANCHOR)
    # a zero uncertainty makes any error infinitely underestimated
    return err / max(float(rep.get("blowup.t_star_uncertainty", 0.0)),
                     1e-300)


class Workload:
    name = ""

    def __init__(self, seed: int, jobs: int):
        self.seed = seed
        self.jobs = jobs

    def setup(self) -> None:
        """Parse the workload's configs and build its initial fields."""

    def prepare(self, work_dir: str) -> None:
        """Untimed inputs and reference data for the output checks."""

    def run_pass(self, pass_dir: str, span) -> PassResult:
        raise NotImplementedError

    def named_metrics(self, wall_s: float, run_s: float,
                      last: PassResult) -> list[tuple]:
        """(name, value, unit) of the workload's own metrics, from the
        times of a pass (`wall_s`) and of its `run()` calls (`run_s`) at
        the reference core speed, as the gated `wall_s`."""
        return []


class BlowUp1D(Workload):
    """`kgflrw simulate` on the three certified bundled blow-up scenarios:
    certificate evaluation, integration, t* fit, trace and report.

    The scenarios are fixed (the anchor's reference t* needs its exact
    inputs); the seed sets the order in which they run."""

    name = "blowup-1d"

    def __init__(self, seed, jobs):
        super().__init__(seed, jobs)
        self.order = list(CERTIFIED)
        random.Random(seed).shuffle(self.order)

    def setup(self):
        for name in self.order:
            text = kgflrw.bundled_scenario_text(name)
            config.parse_text(text, name=name).build_fields()

    def run_pass(self, pass_dir, span):
        res = PassResult()
        for name in self.order:
            out = os.path.join(pass_dir, name)
            res.attempted += 1
            got = _cli(res, name, span,
                       ["simulate", scenario_path(name), "--out", out])
            if got is None:
                continue
            if got[0] != cli.EXIT_OK:
                res.fail(name, f"exit code {got[0]}")
                continue
            rep = _read_report(out)
            res.steps += _attempted_steps(rep)
            bad = _check_blowup(name, rep)
            if bad:
                res.fail(name, "; ".join(bad))
            elif name == ANCHOR:
                res.info["tstar_abs_err"] = abs(
                    float(rep["blowup.t_star"]) - TSTAR_ANCHOR)
                res.info["tstar_err_over_unc"] = _err_over_unc(rep)
        return res

    def named_metrics(self, wall_s, run_s, last):
        out = []
        if last.steps:
            out.append(("us_per_step", run_s / last.steps * 1e6, "us"))
        if "tstar_abs_err" in last.info:
            out.append(("tstar_abs_err", last.info["tstar_abs_err"], "1"))
        return out


class Field3D(Workload):
    """A 3D N=64 Gaussian on de Sitter with the gauge p=2 nonlinearity and
    no blow-up, generated from `desitter-smooth`. dt = 0.025 is below the
    CFL limit 0.4 h = 0.039; t_end = 0.15 gives 6 RK4 steps, so that a run
    of the benchmark times the operation often enough for its fastest time
    to be steady. The seed moves the Gaussian's centre and amplitude
    slightly; the step count does not change."""

    name = "field-3d"
    N = 64
    DIM = 3

    def __init__(self, seed, jobs):
        super().__init__(seed, jobs)
        rng = random.Random(seed)
        text = kgflrw.bundled_scenario_text("desitter-smooth")
        for key, value in (("grid.n", self.DIM), ("grid.N", self.N),
                           ("run.dt", 0.025), ("run.t_end", 0.15),
                           ("run.record_every", 10),
                           ("data0.amplitude",
                            repr(0.5 * (1.0 + rng.uniform(-0.1, 0.1)))),
                           ("data0.center", repr(rng.uniform(-0.1, 0.1)))):
            text = override(text, key, value)
        self.text = text

    def setup(self):
        config.parse_text(self.text, name=self.name).build_fields()

    def prepare(self, work_dir):
        self.cfg = os.path.join(work_dir, f"{self.name}.cfg")
        with open(self.cfg, "w", encoding="utf-8") as fh:
            fh.write(self.text)

    def run_pass(self, pass_dir, span):
        res = PassResult(attempted=1)
        got = _cli(res, self.name, span,
                   ["simulate", self.cfg, "--out", pass_dir])
        if got is None:
            return res
        rc, _, trace = got
        if rc != cli.EXIT_OK:
            res.fail(self.name, f"exit code {rc}")
            return res
        rep = _read_report(pass_dir)
        res.steps = _attempted_steps(rep)
        last = trace.rows[-1]
        if rep["blowup.detected"] != "false":
            res.fail(self.name, f"run ended early ({rep['blowup.reason']})")
        elif rep["run.reached_t_end"] != "true":
            res.fail(self.name, "run did not reach t_end")
        elif not all(math.isfinite(v) for v in (last.L, last.ut_sq, last.E)):
            res.fail(self.name, "final state is not finite")
        E0 = trace.rows[0].E
        res.info["energy_residual"] = max(
            abs(r.E + r.e_dissipated - E0) for r in trace.rows) / abs(E0)
        return res

    def named_metrics(self, wall_s, run_s, last):
        if not last.steps:
            return []
        return [("ns_per_point_step",
                 run_s / (last.steps * self.N ** self.DIM) * 1e9, "ns")]


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[1:] if ln]


class Sweep1D(Workload):
    """`kgflrw sweep` over seven anchor amplitudes with the process pool.

    The axis is fixed: four points run to t_end and three blow up early, so
    the workers are unevenly loaded. The seed is only recorded."""

    name = "sweep-1d"

    def __init__(self, seed, jobs):
        super().__init__(seed, jobs)
        self.cfg = scenario_path(ANCHOR)

    def setup(self):
        with open(self.cfg, encoding="utf-8") as fh:
            config.parse_text(fh.read(), name=ANCHOR).build_fields()

    def _argv(self, out_dir: str, jobs: int) -> list:
        return ["sweep", self.cfg, "--axis", SWEEP_AXIS, "--jobs", str(jobs),
                "--out", out_dir]

    def prepare(self, work_dir):
        # serial in-process evaluation of the same points; without it every
        # point fails its check
        ref_dir = os.path.join(work_dir, "sweep-reference")
        self.reference, self.no_reference = {}, "no serial reference point"
        ref = PassResult()
        got = _cli(ref, "reference", contextlib.nullcontext,
                   self._argv(ref_dir, 1))
        if got is None:
            self.no_reference = f"serial reference {ref.reasons[0]}"
        elif got[0] != cli.EXIT_OK:
            self.no_reference = f"serial reference exited with {got[0]}"
        else:
            rows = _read_csv(os.path.join(ref_dir, "frontier.csv"))
            self.reference = {r["data0.amplitude"]: r for r in rows}

    def run_pass(self, pass_dir, span):
        res = PassResult(attempted=SWEEP_POINTS)
        got = _cli(res, self.name, span, self._argv(pass_dir, self.jobs),
                   SWEEP_POINTS)
        if got is None:
            return res
        if got[0] != cli.EXIT_OK:
            res.fail(self.name, f"exit code {got[0]}", SWEEP_POINTS)
            return res
        rows = _read_csv(os.path.join(pass_dir, "frontier.csv"))
        if len(rows) != SWEEP_POINTS:
            res.fail(self.name, f"{len(rows)} frontier rows", SWEEP_POINTS)
            return res
        for row in rows:
            amp = row["data0.amplitude"]
            ref = self.reference.get(amp)
            if row["status"] != "ok":
                res.fail(f"amplitude {amp}", f"status {row['status']}")
            elif ref is None:
                res.fail(f"amplitude {amp}", self.no_reference)
            elif row["t_star"] != ref["t_star"]:
                res.fail(f"amplitude {amp}",
                         f"t_star {row['t_star']} != serial {ref['t_star']}")
        anchor_dir = os.path.join(pass_dir, "amplitude3")
        if os.path.exists(os.path.join(anchor_dir, "report.txt")):
            rep = _read_report(anchor_dir)
            if isinstance(rep.get("blowup.t_star"), float):
                res.info["tstar_err_over_unc"] = _err_over_unc(rep)
        return res

    def named_metrics(self, wall_s, run_s, last):
        return [("points_per_s", SWEEP_POINTS / wall_s, "1/s")]


class Certify(Workload):
    """`check` on the six bundled scenarios, `oracle-ode` on each certified
    one, then `oracle-ode --random 120 --seed <seed>`; no integration."""

    name = "certify"

    def __init__(self, seed, jobs):
        super().__init__(seed, jobs)
        self.names = tuple(CERTIFIED) + UNCERTIFIED

    def setup(self):
        self.t0 = {}
        for name in self.names:
            with open(scenario_path(name), encoding="utf-8") as fh:
                scn = config.parse_text(fh.read(), name=name)
            scn.build_fields()
            self.t0[name] = scn.run.t0

    def prepare(self, work_dir):
        self.problems = odelab.random_admissible_problems(
            RANDOM_PROBLEMS, seed=self.seed)

    @staticmethod
    def _order_errors(row: dict, t0: float) -> list[str]:
        tv, tb, T = (float(row[k]) for k in ("t_vanish", "t_bound", "T"))
        bad = []
        if not t0 < tv <= tb * (1.0 + ORDER_SLACK):
            bad.append(f"t_vanish {tv!r} not in (t0, t_bound {tb!r}]")
        if not tb <= T * (1.0 + ORDER_SLACK):
            bad.append(f"t_bound {tb!r} above T {T!r}")
        return bad

    def run_pass(self, pass_dir, span):
        res = PassResult()
        for name in self.names:
            key = f"check {name}"
            res.attempted += 1
            got = _cli(res, key, span, ["check", scenario_path(name)])
            if got is None:
                continue
            rc, text, _ = got
            if name not in CERTIFIED:
                if rc != cli.EXIT_NO_THEOREM:
                    res.fail(key, f"exit code {rc}, expected "
                             f"{cli.EXIT_NO_THEOREM}")
                continue
            if rc != cli.EXIT_OK:
                res.fail(key, f"exit code {rc}")
                continue
            T = cli.parse_report(text).get("T_bound")
            expected = CERTIFIED[name]
            if not (isinstance(T, float)
                    and abs(T - expected) <= T_BOUND_REL_TOL * expected):
                res.fail(key, f"T_bound {T!r} is not {expected!r}")

        for name in CERTIFIED:
            key = f"oracle-ode {name}"
            res.attempted += 1
            csv_path = os.path.join(pass_dir, f"oracle-{name}.csv")
            got = _cli(res, key, span, ["oracle-ode", scenario_path(name),
                                        "--out", csv_path])
            if got is None:
                continue
            if got[0] != cli.EXIT_OK:
                res.fail(key, f"exit code {got[0]}")
                continue
            rows = _read_csv(csv_path)
            if len(rows) != 1:
                res.fail(key, f"{len(rows)} rows")
                continue
            bad = self._order_errors(rows[0], self.t0[name])
            if bad:
                res.fail(key, "; ".join(bad))

        n = RANDOM_PROBLEMS
        key = "oracle-ode --random"
        res.attempted += n
        csv_path = os.path.join(pass_dir, "oracle-random.csv")
        got = _cli(res, key, span, ["oracle-ode", "--random", str(n),
                                    "--seed", str(self.seed), "--out",
                                    csv_path], count=n)
        if got is None:
            return res
        rows = _read_csv(csv_path) if got[0] == cli.EXIT_OK else []
        if got[0] != cli.EXIT_OK or len(rows) != n:
            res.fail(key, f"exit code {got[0]}, {len(rows)} rows", n)
            return res
        for i, (row, prob) in enumerate(zip(rows, self.problems)):
            given = tuple(float(row[k]) for k in
                          ("kappa", "A", "B", "T", "y0", "y1"))
            if given != (prob.kappa, prob.A, prob.B, prob.T,
                         prob.y0, prob.y1):
                res.fail(f"random problem {i}",
                         "inputs differ from the generator's")
                continue
            bad = self._order_errors(row, prob.t0)
            if bad:
                res.fail(f"random problem {i}", "; ".join(bad))
        return res

    def named_metrics(self, wall_s, run_s, last):
        return [("problems_per_s", last.attempted / wall_s, "1/s")]


WORKLOADS = {cls.name: cls for cls in (BlowUp1D, Field3D, Sweep1D, Certify)}
