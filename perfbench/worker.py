"""One workload in a fresh interpreter; started by run.py, not by hand.

    worker.py --probe --workload W --seed S --jobs J
        import kgflrw, parse W's configs, build its initial fields, then print
        the monotonic clock (run.py times set-up from the spawn to it), the
        core speed probe's handler time and the factor that scales set-up to
        the reference core speed (contention.py)
    worker.py --workload W --seed S --seconds T --trace 0|1 --jobs J
        run W for T seconds and print one JSON result as the last line

kgflrw is imported from `src/` of the checkout that holds this file, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import uuid
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")


def import_kgflrw():
    sys.path.insert(0, SRC)
    import kgflrw

    where = os.path.realpath(kgflrw.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SystemExit(f"kgflrw imported from {where}, not from {SRC}")
    return kgflrw


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": " ".join(
            str(blas.get("openblas configuration", "")).split()),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped
    children (the sweep's pool workers); ru_maxrss is in KiB on Linux."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


class Runner:
    """Runs passes of one workload and turns them into metrics."""

    def __init__(self, workload, work_dir, tracer=None):
        self.wl = workload
        self.work_dir = work_dir
        self.tracer = tracer
        self.passes = []  # (PassResult, traced, bytes written)
        self.attempted = self.failed = 0
        self.reasons = []

    def one_pass(self, traced: bool):
        pass_dir = os.path.join(self.work_dir, f"pass{len(self.passes)}")
        os.makedirs(pass_dir)
        span = nullcontext
        if traced:
            self.tracer.install()
            span = self.tracer.span
        try:
            res = self.wl.run_pass(pass_dir, span)
        finally:
            if traced:
                self.tracer.uninstall()
        written = _dir_bytes(pass_dir)
        shutil.rmtree(pass_dir)
        self.attempted += res.attempted
        self.failed += res.failed
        self.reasons.extend(res.reasons)
        return res, traced, written

    def measure(self, seconds: float, trace: bool):
        """Passes until `seconds` have elapsed; with tracing, untraced and
        traced passes alternate. The first pass is timed like the others:
        the metrics keep each operation's fastest time, which a cold start
        does not set."""
        self.wl.prepare(self.work_dir)
        deadline = time.perf_counter() + seconds
        while True:
            traced = trace and len(self.passes) % 2 == 1
            self.passes.append(self.one_pass(traced))
            if time.perf_counter() >= deadline and (
                    not trace or len(self.passes) >= 2):
                break

    def _untraced(self):
        return [p for p, traced, _ in self.passes if not traced]

    def end_to_end(self) -> list[dict]:
        from contention import REFERENCE_SNIPPET_S, scale

        plain = self._untraced()
        probed = [p for p in plain if p.snippets]
        if not probed:
            raise SystemExit("no pass ran long enough for the core speed "
                             "probe to sample it")
        factors = [scale(p.snippets) for p in probed]
        passes = [p.wall_s * k for p, k in zip(probed, factors)]
        wall = statistics.median(passes)
        run_s = statistics.median(sum(p.run_s.values()) * k
                                  for p, k in zip(probed, factors))
        snippets = [x for p in probed for x in p.snippets]
        n = len(probed)
        out = [metric("wall_s", wall, "s", n,
                      "median pass at the reference core speed")]
        # the highest percentile with at least ten passes above it
        q = math.floor(100 * (1 - 10 / n))
        if q > 50:
            out.append(metric(f"wall_s.p{q}",
                              statistics.quantiles(passes, n=100)[q - 1],
                              "s", n))
        out += [metric("raw.wall_s.fastest",
                       fastest_total(p.op_s for p in plain), "s", len(plain),
                       "sum over operations of their fastest time"),
                metric("raw.pass_s.median",
                       statistics.median(p.wall_s for p in plain), "s",
                       len(plain), "as measured"),
                metric("probe.snippet_us.median",
                       statistics.median(snippets) * 1e6, "us",
                       len(snippets),
                       f"reference {REFERENCE_SNIPPET_S * 1e6:g} us"),
                metric("probe.snippet_us.fastest", min(snippets) * 1e6,
                       "us", len(snippets)),
                metric("peak_rss_mb", peak_rss_mb(), "MB", 1),
                metric("fail_ratio", self.failed / max(self.attempted, 1),
                       "ratio", self.attempted)]
        for name, value, unit in self.wl.named_metrics(wall, run_s,
                                                       plain[-1]):
            out.append(metric(name, value, unit, n))
        return out

    def per_layer(self) -> list[dict]:
        from tracer import TIMED_LAYERS

        tr = self.tracer
        traced = [(p, b) for p, t, b in self.passes if t]
        k = len(traced)
        wall = sum(p.wall_s for p, _ in traced)
        totals = tr.layer_totals()
        counters = tr.counters
        out = []
        for layer in TIMED_LAYERS:
            t = totals.get(layer, {"calls": 0, "self_s": 0.0})
            out += [metric(f"{layer}.calls", t["calls"] / k, "count", k),
                    metric(f"{layer}.self_s", t["self_s"] / k, "s", k),
                    metric(f"{layer}.share", t["self_s"] / wall, "ratio", k)]
        points = counters.get("field.lap_array.points", 0)
        lap_self = totals["field.lap_array"]["self_s"]
        out.append(metric("field.lap_array.ns_per_point",
                          lap_self / points * 1e9 if points else 0.0, "ns",
                          totals["field.lap_array"]["calls"]))
        acc = counters.get("dynamics.steps_accepted", 0)
        rej = counters.get("dynamics.steps_rejected", 0)
        steps = acc + rej
        out += [
            metric("scale_factor.eval.calls_per_step",
                   totals["scale_factor.eval"]["calls"] / steps
                   if steps else 0.0, "count", steps),
            metric("functionals.snapshot_rows",
                   counters.get("functionals.snapshot_rows", 0) / k,
                   "count", k),
            metric("dynamics.steps_accepted", acc / k, "count", k),
            metric("dynamics.steps_rejected", rej / k, "count", k),
            metric("dynamics.accept_ratio", acc / steps if steps else 0.0,
                   "ratio", steps),
        ]
        ratios = [p.info["tstar_err_over_unc"] for p, _ in traced
                  if "tstar_err_over_unc" in p.info]
        out.append(metric("dynamics.tstar_err_over_unc",
                          statistics.median(ratios) if ratios else 0.0,
                          "ratio", len(ratios)))
        out.append(metric("cli.bytes_written",
                          sum(b for _, b in traced) / k, "B", k))
        points_s = totals["cli.sweep_point"]["durations"]
        sweeps = sum(totals["cli.main_entry"]["durations"]) \
            if points_s else 0.0
        for stat, fn in (("min", min), ("median", statistics.median),
                         ("max", max)):
            out.append(metric(f"cli.sweep.point_s.{stat}",
                              fn(points_s) if points_s else 0.0, "s",
                              len(points_s)))
        out.append(metric("cli.sweep.efficiency",
                          sum(points_s) / (self.wl.jobs * sweeps)
                          if sweeps else 0.0, "ratio", len(points_s)))
        plain = fastest_total(p.op_s for p in self._untraced())
        with_trace = fastest_total(p.op_s for p, _ in traced)
        out.append(metric("trace.overhead_ratio", with_trace / plain - 1.0,
                          "ratio", k))
        return out


def fastest_total(times) -> float:
    """Sum over operations of each one's fastest time in `times`, a list of
    {operation: seconds} with one entry per pass. A slow period of a shared
    host slows whole passes; the fastest time of each operation is what the
    code costs when the host is not in one."""
    best: dict = {}
    for per_op in times:
        for op, s in per_op.items():
            best[op] = min(s, best.get(op, s))
    return sum(best.values())


def metric(name, value, unit, n, note="") -> dict:
    return {"name": name, "value": float(value), "unit": unit, "n": int(n),
            "note": note}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--jobs", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)

    from contention import Probe, scale

    probe = Probe()
    if args.probe:
        probe.start()
    import_kgflrw()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.jobs)
    if args.probe:
        wl.setup()
        done = time.monotonic()
        probe.stop()
        samples, busy_s = probe.since((0, 0.0))
        print(repr(done), repr(busy_s), repr(scale(samples)))
        return 0

    wl.setup()
    run_id = uuid.uuid4().hex[:12]
    work_dir = os.path.join(OUT, f"{args.workload}-{run_id}")
    os.makedirs(work_dir)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id)
    runner = Runner(wl, work_dir, tracer)
    if not args.trace:
        workloads.PROBE = probe
        probe.start()
    try:
        runner.measure(args.seconds, bool(args.trace))
    finally:
        probe.stop()
        shutil.rmtree(work_dir, ignore_errors=True)
    if args.trace:
        metrics = runner.per_layer()
        spans = os.path.join(
            OUT, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.write(spans)
    else:
        metrics = runner.end_to_end()
    result = {
        "workload": args.workload, "seed": args.seed, "run_id": run_id,
        "trace": args.trace, "jobs": args.jobs, "env": environment(),
        "passes": len(runner.passes), "attempted": runner.attempted,
        "failed": runner.failed, "reasons": runner.reasons[:20],
        "metrics": metrics,
        "missing_bindings": tracer.missing if tracer else [],
        "info": {k: v for p, _, _ in runner.passes for k, v in p.info.items()},
        "pass_wall_s": [p.wall_s for p, traced, _ in runner.passes
                        if not traced],
    }
    if args.trace:
        result["spans_file"] = os.path.relpath(spans, ROOT)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
