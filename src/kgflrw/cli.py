"""Command line front end: check, simulate, oracle-ode, sweep.

Exit codes: 0 a certificate applies or the run completed; 2 configuration
error; 3 no certificate applies; 4 certificate blocked only by the
background's lifetime; 5 wrap-around abort (periodic images about to
contaminate the wavefront); 6 non-finite state. A command returns the code
of the outcome it reports; `main_entry` maps the package's exceptions to 2,
3, 4 and 5, and a MemoryError to 2. `check`, `oracle-ode` and `simulate`
measure the data through one `Start`, which refuses a support filling the
box (5) before any certificate is evaluated.

`simulate` and every sweep point run a scenario through `_simulate`
(evaluate, run, write). A run that stops without a verdict names its ending
in the trace's blow-up reason; `_ENDINGS` gives each ending its exit code
and its one stderr line, and a sweep row's status is the ending's name.

`report.txt`, `check` and each frontier row (through `_FRONTIER`) write one
record, `_report_dict`; a sweep point sets its values through `parse_text`.
An output path that cannot be written is a package error (exit 2); an
output directory that is an existing file is refused before the run.

All emitted text is deterministic for a given config and seed: floats are
serialized with 17 significant digits by `_fmt`, CSV text comes from `_csv`
and rows end with a bare newline, so repeated invocations are byte-identical.

The argument parser is built once per process, on the first `main_entry`
call and not at import, and holds no per-call state.
"""

from __future__ import annotations

import argparse
import errno
import functools
import logging
import math
import os
import re
import sys

import numpy as np

from .config import (Scenario, key_value_lines, parse_config, parse_text,
                     read_config)
from .dynamics import Start, Trace, run
from .errors import (HorizonTooShort, InvariantViolation, KGFLRWError,
                     NoVanishBeforeT, ParseError, TimeBeyondHorizon,
                     WrapAroundRisk)
from .functionals import CSV_COLUMNS, Integrals, snapshot_csv_values
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

# frontier.csv column: (report.txt key, value when the record has none; a
# numeric column reads "none" as nan)
_FRONTIER = {"case_label": ("case_label", "none"),
             "theorem": ("theorem", "none"), "T_bound": ("T_bound", math.nan),
             "rho": ("rho", math.nan), "delta": ("delta", math.nan),
             "t_star": ("blowup.t_star", math.nan),
             "margin": ("blowup.bound_margin", math.nan)}


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


def _write(path: str, text: str | None) -> None:
    """Write text to the file path, or make the directory path if text is
    None; an OSError becomes a package error naming path."""
    try:
        if text is None:
            os.makedirs(path, exist_ok=True)
        else:
            with open(path, "w", newline="") as fh:
                fh.write(text)
    except OSError as exc:
        raise KGFLRWError(f"cannot write {path}: {exc.strerror}") from exc


def _report_dict(report: HypothesisReport | None, scn: Scenario) -> dict:
    """scenario, config_hash, then report.flat() (if any)."""
    flat = {} if report is None else report.flat()
    return {"scenario": scn.name, "config_hash": scn.config_hash, **flat}


def _lines(record: dict) -> str:
    """record as `key = value` lines; each parses back via parse_report."""
    return "".join(f"{key} = {_fmt(val)}\n" for key, val in record.items())


def parse_report(text: str) -> dict:
    """Inverse of `_lines` and of `check --csv` for machine consumers; a
    key given twice is a ParseError (its line: in CSV, the header's)."""
    lines = [(n, ln) for n, raw in enumerate(text.splitlines(), start=1)
             if (ln := raw.split("#", 1)[0].strip())]
    if lines and "=" not in lines[0][1] and "," in lines[0][1]:
        if len(lines) != 2:
            raise ParseError(f"CSV report needs one value row, got "
                             f"{len(lines) - 1}")
        header, values = (ln.split(",") for _, ln in lines)
        if len(header) != len(values):
            raise ParseError("header/value arity mismatch")
        pairs = [(lines[0][0], key, val) for key, val in zip(header, values)]
    else:
        pairs = list(key_value_lines(text))
    out = {}
    for lineno, key, val in pairs:
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


def _float_csv(columns, rows) -> str:
    """`_csv` of rows of floats, one %.17g format per row (`_fmt`'s text)."""
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    return _csv(columns, ()) + "".join(line % row for row in rows)


def trace_csv_text(trace: Trace) -> str:
    return _float_csv(CSV_COLUMNS, map(snapshot_csv_values, trace.rows))


def _start(scn: Scenario) -> Start:
    """The data of scn's run, measured: WrapAroundRisk if their support
    already fills the box."""
    return Start(*scn.build_fields(), scn.nl, scn.wrap_support_radius())


def _evaluate_scenario(scn: Scenario, m0: Integrals) -> HypothesisReport:
    return evaluate(m0, scn.run.t0, scn.sf, scn.params,
                    mode=scn.run.theorem_mode)


def _simulate(scn: Scenario, out_dir: str) -> tuple[dict, str | None]:
    """Evaluate and run scn from one measurement of its data (`Start.rec`),
    and write trace.csv and report.txt into out_dir.

    A certificate blocked only by the background's lifetime runs
    uncertified with note.horizon in report.txt. Returns report.txt's
    record (`_report_dict`, then the run summary) and the ending: the
    trace's blow-up reason if it is a key of _ENDINGS, else None. An
    out_dir that is an existing file is refused before the run."""
    if os.path.lexists(out_dir) and not os.path.isdir(out_dir):
        raise KGFLRWError(f"cannot write {out_dir}: "
                          f"{os.strerror(errno.EEXIST)}")
    start = _start(scn)
    try:
        report = _evaluate_scenario(scn, start.rec)
    except HorizonTooShort as exc:
        log.info("certificate blocked by horizon, running uncertified: %s",
                 exc)
        report, note = None, str(exc).replace("\n", " ")
    trace = run(start, scn.sf, scn.params, scn.run,
                cert=None if report is None else report.cert)
    meta, bu = trace.meta, trace.blowup
    record = _report_dict(report, scn)
    record.update({
        "run.t_final": float(meta["t_final"]),
        "run.accepted_steps": int(meta["accepted"]),
        "run.rejected_steps": int(meta["rejected"]),
        "run.reached_t_end": str(bool(meta["reached_t_end"])).lower(),
        "blowup.detected": str(bu is not None and bu.detected).lower(),
        "blowup.reason": "none" if bu is None else bu.reason,
    })
    if bu is not None:
        record["blowup.t"] = float(bu.t)
        if bu.t_star is not None:
            record["blowup.t_star"] = float(bu.t_star)
            record["blowup.t_star_uncertainty"] = float(bu.t_star_uncertainty)
            if report is not None and report.T_bound is not None:
                record["blowup.bound_margin"] = float(report.T_bound
                                                      - bu.t_star)
        elif bu.t_star_status is not None:
            record["blowup.t_star_status"] = bu.t_star_status
    if report is None:
        record["note.horizon"] = note
    _write(out_dir, None)  # the directory
    _write(os.path.join(out_dir, "trace.csv"), trace_csv_text(trace))
    _write(os.path.join(out_dir, "report.txt"), _lines(record))
    ending = bu.reason if bu is not None and bu.reason in _ENDINGS else None
    return record, ending


def cmd_check(args) -> int:
    scn = parse_config(args.config)
    report = _evaluate_scenario(scn, _start(scn).rec)
    record = _report_dict(report, scn)
    sys.stdout.write(_csv(record.keys(), [record.values()]) if args.csv
                     else _lines(record))
    return EXIT_OK if report.theorem != "none" else EXIT_NO_THEOREM


def cmd_simulate(args) -> int:
    scn = parse_config(args.config)
    record, ending = _simulate(scn, args.out or f"{scn.name}-out")
    sys.stdout.write(_lines(record))
    if ending is None:
        return EXIT_OK
    code, line = _ENDINGS[ending]
    print(line.format(t=record["blowup.t"]), file=sys.stderr)
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
        report = _evaluate_scenario(scn, _start(scn).rec)
        if report.cert is None:
            print("error: odelab: no certificate applies; nothing to derive",
                  file=sys.stderr)
            return EXIT_NO_THEOREM
        problems.append(concavity_problem(report, scn.params))
    problems.extend(random_admissible_problems(args.random, seed=args.seed))
    text = _float_csv(ORACLE_COLUMNS, (
        (prob.kappa, prob.A, prob.B, prob.T, prob.y0, prob.y1,
         solve_concavity(prob), tstar_bound(prob)) for prob in problems))
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
    if math.isfinite(hi - lo):  # else np.linspace overflows
        values = np.linspace(lo, hi, steps) if steps > 1 else np.array([lo])
        if np.isfinite(values).all():
            return key, values
    raise ParseError(f"axis spec {spec!r} needs a finite span hi - lo and "
                     f"finite grid values")


def _sweep_point(payload) -> dict:
    """One sweep point, isolated: its frontier row, even on failure."""
    base_text, base_dir, name, values, out_dir = payload
    # the value as frontier.csv writes it, so that no two points share a
    # directory
    label = "_".join(f"{k.split('.')[-1]}{_fmt(v)}"
                     for k, v in values.items())
    try:
        scn = parse_text(base_text, name=f"{name}-{label}", base_dir=base_dir,
                         values=values)
        record, ending = _simulate(scn, os.path.join(out_dir, label))
    except KGFLRWError as exc:  # a support filling the box wraps at once
        record, status = {}, ("wrap_around" if isinstance(exc, WrapAroundRisk)
                              else f"error({type(exc).__name__})")
    else:
        status = ending or ("horizon_too_short" if "note.horizon" in record
                            else "ok")
    return dict(values, status=status, **{
        column: default if record.get(key, "none") == "none" else record[key]
        for column, (key, default) in _FRONTIER.items()})


def cmd_sweep(args) -> int:
    # the CPUs this process may run on: its affinity mask, where there is one
    cores = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
    if not 1 <= args.jobs <= cores:
        print(f"error: --jobs must be between 1 and {cores}, got {args.jobs}",
              file=sys.stderr)
        return EXIT_CONFIG
    # one read of the file, whose text every point parses; parsing it
    # validates the base point and builds no field
    base_text, name, base_dir = read_config(args.config)
    scn = parse_text(base_text, name=name, base_dir=base_dir)
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
    _write(out_dir, None)  # the directory

    points = [{}]
    for key, values in axes:
        points = [dict(pt, **{key: float(v)}) for pt in points
                  for v in values]
    payloads = [(base_text, base_dir, name, pt, out_dir) for pt in points]
    if args.jobs > 1:
        pool_type = (globals().get("ProcessPoolExecutor")  # if replaced
                     or __getattr__("ProcessPoolExecutor"))
        with pool_type(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]

    axis_keys = [key for key, _ in axes]
    rows.sort(key=lambda r: tuple(r[k] for k in axis_keys))
    columns = [*axis_keys, *_FRONTIER, "status"]
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
    except MemoryError as exc:  # data or problems too large to allocate
        print(f"config error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main_entry())
