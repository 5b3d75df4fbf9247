"""Command line front end: check, simulate, oracle-ode, sweep.

Exit codes: 0 a certificate applies or the run completed; 2 configuration
error; 3 no certificate applies; 4 certificate blocked only by the
background's lifetime; 5 wrap-around abort (periodic images about to
contaminate the wavefront); 6 non-finite state. A command returns the code
of the outcome it reports; `main_entry` maps the package's exceptions to 2,
3, 4 and 5 (support filling the box before the first step: `check`,
`oracle-ode` and `simulate` apply the run's wrap guard alike).

`simulate` and every sweep point run a scenario through `_simulate`
(evaluate, run, write). A run that stops without a verdict names its ending
in the trace's blow-up reason; `_ENDINGS` gives each ending its exit code
and its one stderr line, and a sweep row's status is the ending's name.

All emitted text is deterministic for a given config and seed: floats are
serialized with 17 significant digits by `_fmt`, CSV text comes from `_csv`
and rows end with a bare newline, so repeated invocations are byte-identical.

The argument parser is built once per process, on the first `main_entry`
call and not at import, and holds no per-call state.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import re
import sys

import numpy as np

from .config import Scenario, parse_config, parse_text
from .dynamics import Start, Trace, run, wrap_margin
from .errors import (HorizonTooShort, InvariantViolation, KGFLRWError,
                     NoVanishBeforeT, ParseError, TimeBeyondHorizon,
                     WrapAroundRisk)
from .functionals import CSV_COLUMNS, Integrals, measure, snapshot_csv_values
from .hypotheses import HypothesisReport, concavity_problem, evaluate
from .odelab import random_admissible_problems, solve_concavity, tstar_bound

log = logging.getLogger("kgflrw")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_THEOREM = 3
EXIT_HORIZON = 4
EXIT_WRAP = 5
EXIT_NONFINITE = 6

_SWEEP_KEYS = ("data0.amplitude", "data1.amplitude", "scale.H",
               "scale.sigma", "nonlin.eps", "nonlin.p")

ORACLE_COLUMNS = ("kappa", "A", "B", "T", "y0", "y1", "t_vanish", "t_bound")

# a run that stopped without a verdict: (exit code, stderr line)
_ENDINGS = {
    "wrap_around": (EXIT_WRAP, "wrap-around abort: comoving light path "
                               "crossed the support margin at t = {t}"),
    "nonfinite": (EXIT_NONFINITE, "state became non-finite; trace truncated"),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _csv(columns, rows) -> str:
    """A header line of columns, then one line per row of values."""
    return "".join(",".join(map(_fmt, line)) + "\n"
                   for line in [columns, *rows])


def _write(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _report_dict(report: HypothesisReport | None, scenario: Scenario,
                 extra: dict | None = None) -> dict:
    """scenario, config_hash, then report.flat() (if any), then extra."""
    flat = {"scenario": scenario.name, "config_hash": scenario.config_hash}
    if report is not None:
        flat.update(report.flat())
    if extra:
        flat.update(extra)
    return flat


def report_lines(report: HypothesisReport | None, scenario: Scenario,
                 extra: dict | None = None) -> list[str]:
    """Flat key = value block; every line parses back via parse_report."""
    return [f"{key} = {_fmt(val)}"
            for key, val in _report_dict(report, scenario, extra).items()]


def parse_report(text: str) -> dict:
    """Inverse of report_lines/report CSV emission for machine consumers;
    a key given twice is a ParseError (its line: in CSV, the header's)."""
    lines = [(n, ln.split("#", 1)[0].strip())
             for n, ln in enumerate(text.splitlines(), start=1)]
    lines = [(n, ln) for n, ln in lines if ln]
    if lines and "=" not in lines[0][1] and "," in lines[0][1]:
        if len(lines) != 2:
            raise ParseError(f"CSV report needs one value row, got "
                             f"{len(lines) - 1}")
        header, values = (ln.split(",") for _, ln in lines)
        if len(header) != len(values):
            raise ParseError("header/value arity mismatch")
        pairs = [(key, val, lines[0][0]) for key, val in zip(header, values)]
    else:
        pairs = []
        for lineno, ln in lines:
            if "=" not in ln:
                raise ParseError("expected `key = value`", line=lineno)
            key, _, val = ln.partition("=")
            pairs.append((key.strip(), val.strip(), lineno))
    out = {}
    for key, val, lineno in pairs:
        if key in out:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def report_csv(report: HypothesisReport, scenario: Scenario) -> str:
    flat = _report_dict(report, scenario)
    return _csv(flat.keys(), [flat.values()])


def trace_csv_text(trace: Trace) -> str:
    """`_csv` of the trace's rows, one format per row: %.17g writes the
    floats a row holds as `_fmt` does."""
    line = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
    return _csv(CSV_COLUMNS, ()) + "".join(
        line % snapshot_csv_values(row) for row in trace.rows)


def _evaluate_scenario(scn: Scenario, m0: Integrals) -> HypothesisReport:
    return evaluate(m0, scn.run.t0, scn.sf, scn.params,
                    mode=scn.run.theorem_mode)


def _check_scenario(scn: Scenario) -> HypothesisReport:
    """The certificate of scn from one measurement of its data, behind the
    wrap guard of its run: WrapAroundRisk if the data's support already
    fills the box, as `simulate` raises it."""
    wrap_margin(scn.grid, scn.wrap_support_radius())
    return _evaluate_scenario(scn, measure(*scn.build_fields(), scn.nl))


def _simulate(scn: Scenario, out_dir: str) -> tuple:
    """Evaluate and run scn from one measurement of its data (`Start.rec`),
    and write trace.csv and report.txt into out_dir.

    A certificate blocked only by the background's lifetime runs
    uncertified with note.horizon in report.txt. Returns report.txt's text
    (scenario, config_hash, report.flat(), the run summary), the summary,
    the report (None if uncertified) and the ending: the trace's blow-up
    reason if it is a key of _ENDINGS, else None."""
    start = Start(*scn.build_fields(), scn.nl)
    try:
        report = _evaluate_scenario(scn, start.rec)
    except HorizonTooShort as exc:
        log.info("certificate blocked by horizon, running uncertified: %s",
                 exc)
        report, note = None, str(exc).replace("\n", " ")
    mode = "none" if report is None else report.mode
    trace = run(start, scn.sf, scn.params, scn.run,
                T_bound=None if mode == "none" else report.T_bound,
                support_radius=scn.wrap_support_radius(), mode=mode)
    meta, bu = trace.meta, trace.blowup
    summary = {
        "run.t_final": float(meta["t_final"]),
        "run.accepted_steps": int(meta["accepted"]),
        "run.rejected_steps": int(meta["rejected"]),
        "run.reached_t_end": str(bool(meta["reached_t_end"])).lower(),
        "blowup.detected": str(bu is not None and bu.detected).lower(),
        "blowup.reason": "none" if bu is None else bu.reason,
    }
    if bu is not None:
        summary["blowup.t"] = float(bu.t)
        if bu.t_star is not None:
            summary["blowup.t_star"] = float(bu.t_star)
            summary["blowup.t_star_uncertainty"] = float(bu.t_star_uncertainty)
            if report is not None and report.T_bound is not None:
                summary["blowup.bound_margin"] = float(report.T_bound
                                                       - bu.t_star)
        elif bu.t_star_status is not None:
            summary["blowup.t_star_status"] = bu.t_star_status
    if report is None:
        summary["note.horizon"] = note
    text = "\n".join(report_lines(report, scn, extra=summary)) + "\n"
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "trace.csv"), trace_csv_text(trace))
    _write(os.path.join(out_dir, "report.txt"), text)
    ending = bu.reason if bu is not None and bu.reason in _ENDINGS else None
    return text, summary, report, ending


def cmd_check(args) -> int:
    scn = parse_config(args.config)
    report = _check_scenario(scn)
    if args.csv:
        sys.stdout.write(report_csv(report, scn))
    else:
        sys.stdout.write("\n".join(report_lines(report, scn)) + "\n")
    return EXIT_OK if report.theorem != "none" else EXIT_NO_THEOREM


def cmd_simulate(args) -> int:
    scn = parse_config(args.config)
    text, summary, _, ending = _simulate(scn, args.out or f"{scn.name}-out")
    sys.stdout.write(text)
    if ending is None:
        return EXIT_OK
    code, line = _ENDINGS[ending]
    print(line.format(t=summary["blowup.t"]), file=sys.stderr)
    return code


def cmd_oracle(args) -> int:
    for flag, val in (("--random", args.random), ("--seed", args.seed)):
        if val < 0:
            print(f"error: {flag} must be nonnegative, got {val}",
                  file=sys.stderr)
            return EXIT_CONFIG
    scn = parse_config(args.config) if args.config else None
    if scn is None and args.random == 0:
        print("error: need a config or --random N", file=sys.stderr)
        return EXIT_CONFIG
    problems = []
    if scn is not None:
        report = _check_scenario(scn)
        if report.mode == "none":
            print("error: odelab: no certificate applies; nothing to derive",
                  file=sys.stderr)
            return EXIT_NO_THEOREM
        problems.append(concavity_problem(report, scn.sf, scn.params))
    problems.extend(random_admissible_problems(args.random, seed=args.seed))
    text = _csv(ORACLE_COLUMNS,
                [(prob.kappa, prob.A, prob.B, prob.T, prob.y0, prob.y1,
                  solve_concavity(prob), tstar_bound(prob))
                 for prob in problems])
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _parse_axis(spec: str) -> tuple[str, np.ndarray]:
    m = re.fullmatch(r"([\w.]+)=([^:]+):([^:]+):(\d+)", spec.strip())
    if not m:
        raise ParseError(f"axis spec {spec!r} is not key=lo:hi:steps")
    key, steps = m.group(1), int(m.group(4))
    try:
        lo, hi = float(m.group(2)), float(m.group(3))
    except ValueError:
        lo = hi = math.nan
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParseError(f"axis spec {spec!r} needs finite numbers lo and hi")
    if key not in _SWEEP_KEYS:
        raise ParseError(
            f"axis key {key!r} not sweepable (choose from {_SWEEP_KEYS})")
    if steps < 1:
        raise ParseError("axis needs at least one step")
    values = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
    return key, values


def _override_text(text: str, key: str, value: float) -> str:
    sval = _fmt(float(value))
    pat = re.compile(rf"^\s*{re.escape(key)}\s*=")
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if pat.match(ln.split("#", 1)[0]):
            lines[i] = f"{key} = {sval}"
            break
    else:
        lines.append(f"{key} = {sval}")
    return "\n".join(lines) + "\n"


def _sweep_point(payload) -> dict:
    """One sweep point, isolated; returns a frontier row even on failure."""
    base_text, base_dir, name, overrides, out_dir = payload
    row = dict(overrides)
    # the value as frontier.csv writes it, so that no two points share a
    # directory
    label = "_".join(f"{k.split('.')[-1]}{_fmt(v)}"
                     for k, v in overrides.items())
    row.update({"case_label": "none", "theorem": "none", "T_bound": math.nan,
                "rho": math.nan, "delta": math.nan, "t_star": math.nan,
                "margin": math.nan})
    try:
        text = base_text
        for key, val in overrides.items():
            text = _override_text(text, key, val)
        scn = parse_text(text, name=f"{name}-{label}", base_dir=base_dir)
        _, summary, report, ending = _simulate(scn, os.path.join(out_dir,
                                                                 label))
    except KGFLRWError as exc:  # a support filling the box wraps at once
        row["status"] = ("wrap_around" if isinstance(exc, WrapAroundRisk)
                         else f"error({type(exc).__name__})")
        return row
    if report is not None:
        row.update({"case_label": report.case_label,
                    "theorem": report.theorem,
                    "rho": report.rho, "delta": report.delta})
        if report.T_bound is not None:
            row["T_bound"] = report.T_bound
    row["t_star"] = summary.get("blowup.t_star", math.nan)
    row["margin"] = summary.get("blowup.bound_margin", math.nan)
    row["status"] = ending or ("ok" if report is not None
                               else "horizon_too_short")
    return row


def cmd_sweep(args) -> int:
    # the CPUs this process may run on: its affinity mask, where there is one
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if not 1 <= args.jobs <= cores:
        print(f"error: --jobs must be between 1 and {cores}, got {args.jobs}",
              file=sys.stderr)
        return EXIT_CONFIG
    scn = parse_config(args.config)  # validates the base point, builds no field
    with open(args.config, encoding="utf-8") as fh:
        base_text = fh.read()
    axes = [_parse_axis(spec) for spec in args.axis]
    if len(axes) > 2:
        print("error: at most two axes", file=sys.stderr)
        return EXIT_CONFIG
    # the second axis would overwrite the first in every point, repeating
    # each point into one directory
    if len(axes) == 2 and axes[0][0] == axes[1][0]:
        print(f"error: axis key {axes[0][0]!r} given twice", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = args.out or f"{scn.name}-sweep"
    os.makedirs(out_dir, exist_ok=True)

    points = [{}]
    for key, values in axes:
        points = [dict(pt, **{key: float(v)}) for pt in points
                  for v in values]
    base_dir = os.path.dirname(args.config) or "."  # as parse_config
    payloads = [(base_text, base_dir, scn.name, pt, out_dir) for pt in points]
    if args.jobs > 1:
        pool_type = (globals().get("ProcessPoolExecutor")  # if replaced
                     or __getattr__("ProcessPoolExecutor"))
        with pool_type(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]

    axis_keys = [key for key, _ in axes]
    rows.sort(key=lambda r: tuple(r[k] for k in axis_keys))
    columns = axis_keys + ["case_label", "theorem", "T_bound", "rho",
                           "delta", "t_star", "margin", "status"]
    text = _csv(columns, [[row[c] for c in columns] for row in rows])
    frontier = os.path.join(out_dir, "frontier.csv")
    _write(frontier, text)
    sys.stdout.write(text)
    n_bad = sum(1 for r in rows if r["status"] != "ok")
    log.info("sweep wrote %s (%d points, %d failed)",
             frontier, len(rows), n_bad)
    return EXIT_OK


def __getattr__(name: str):
    """`ProcessPoolExecutor`, imported on first use: it loads
    multiprocessing, which only `sweep --jobs` above 1 needs."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kgflrw",
        description="Blow-up laboratory for semilinear waves on expanding "
                    "backgrounds")
    sub = ap.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="evaluate blow-up certificates")
    p_check.add_argument("config")
    p_check.add_argument("--csv", action="store_true",
                         help="emit a CSV header+row instead of key=value")
    p_check.set_defaults(func=cmd_check)

    p_sim = sub.add_parser("simulate", help="integrate the field and trace "
                                            "diagnostics")
    p_sim.add_argument("config")
    p_sim.add_argument("--out", default=None, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_or = sub.add_parser("oracle-ode", help="solve the concavity "
                                             "comparison ODE")
    p_or.add_argument("config", nargs="?", default=None)
    p_or.add_argument("--random", type=int, default=0, metavar="N",
                      help="append N randomized admissible problems")
    p_or.add_argument("--seed", type=int, default=0)
    p_or.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_or.set_defaults(func=cmd_oracle)

    p_sw = sub.add_parser("sweep", help="grid sweep over one or two keys")
    p_sw.add_argument("config")
    p_sw.add_argument("--axis", action="append", required=True,
                      metavar="key=lo:hi:steps")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--out", default=None, help="output directory")
    p_sw.set_defaults(func=cmd_sweep)
    return ap


def main_entry(argv=None) -> int:
    level = os.environ.get("KGFLRW_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s")
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, TimeBeyondHorizon, InvariantViolation) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HorizonTooShort as exc:
        print(f"horizon too short: {exc}", file=sys.stderr)
        return EXIT_HORIZON
    except WrapAroundRisk as exc:
        print(f"wrap-around abort: {exc}", file=sys.stderr)
        return EXIT_WRAP
    except NoVanishBeforeT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_THEOREM
    except KGFLRWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main_entry())
