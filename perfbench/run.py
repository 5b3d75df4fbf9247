"""kgflrw benchmark: blow-up, 3D field, sweep and certify workloads.

    python3 perfbench/run.py --workload NAME|all --seed N [--seconds S]
                             [--trace 0|1]

Run from anywhere; the benchmark measures the kgflrw in `src/` of the
checkout that holds this file. Each workload runs in a fresh interpreter
(worker.py) with one BLAS/OpenMP thread. With --trace 0 the run reports the
end-to-end metrics: the set-up time of fresh interpreters (median of several
probes) and the workload's passes over --seconds seconds, both scaled to a
reference core speed (contention.py), and as measured. With --trace 1 it
reports the per-layer metrics from traced passes instead. Every metric is
printed as `metric NAME = VALUE UNIT (n=SAMPLES)`; the last line is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("blowup-1d", "field-3d", "sweep-1d", "certify")
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    # one BLAS/OpenMP thread per process: `sweep --jobs 2` with threaded
    # BLAS would otherwise put four threads on two cores
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               KGFLRW_LOG="error")
    return env


def call(argv: list[str], timeout: float) -> str:
    """Run a child in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=child_env(),
                            cwd=ROOT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except BaseException as exc:  # timeout, or this process is stopping
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise BenchError(f"{' '.join(argv[1:3])} timed out") from None
        raise
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[1])} {' '.join(argv[2:])} "
                         f"exited with {proc.returncode}")
    return out


def setup_times(workload: str, seed: int, jobs: int, count: int,
                deadline: float) -> list[tuple[float, float]]:
    """Fresh interpreter to kgflrw imported, configs parsed and initial
    fields built, measured from the spawn: (as measured, at the reference
    core speed) per probe. The probe's handler time is left out."""
    argv = [sys.executable, WORKER, "--probe", "--workload", workload,
            "--seed", str(seed), "--jobs", str(jobs)]
    times = []
    for _ in range(count):
        start = time.monotonic()
        out = call(argv, deadline - start)
        done, busy_s, factor = map(float, out.strip().splitlines()[-1]
                                   .split())
        took = done - start - busy_s
        times.append((took, took * factor))
    return times


def run_workload(workload, seed, seconds, trace, jobs, spec, deadline):
    probes = []
    if not trace:
        # half the probes before the worker and half after it, so that the
        # median is taken over the run instead of one moment of the host
        probes = setup_times(workload, seed, jobs, SETUP_PROBES // 2,
                             deadline)
    out = call([sys.executable, WORKER, "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--jobs", str(jobs)],
               deadline - time.monotonic())
    result = json.loads(out.strip().splitlines()[-1])
    if not trace:
        probes += setup_times(workload, seed, jobs,
                              SETUP_PROBES - len(probes), deadline)
        result["metrics"][:0] = [
            {"name": "setup_s",
             "value": statistics.median(ref for _, ref in probes),
             "unit": "s", "n": len(probes),
             "note": "median fresh interpreter at the reference core speed"},
            {"name": "raw.setup_s",
             "value": statistics.median(raw for raw, _ in probes),
             "unit": "s", "n": len(probes), "note": "as measured"}]

    wanted = spec["per_layer" if trace else "end_to_end"]
    by_name = {m["name"]: m for m in result["metrics"]}
    chosen = {}
    for entry in wanted:
        got = by_name.get(entry["name"])
        if got is None or got["unit"] != entry["unit"] \
                or not math.isfinite(got["value"]):
            raise BenchError(f"{workload}: metric {entry['name']} "
                             "missing, not finite or in the wrong unit")
        chosen[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    result["chosen"] = chosen
    return result


def print_report(result: dict) -> None:
    print(f"workload = {result['workload']}")
    print(f"seed = {result['seed']}")
    for key in ("trace", "run_id", "jobs", "passes", "attempted", "failed"):
        print(f"{key} = {result[key]}")
    for key, val in result["env"].items():
        print(f"env {key} = {val}")
    for key, val in sorted(result["info"].items()):
        print(f"info {key} = {val!r}")
    if result.get("spans_file"):
        print(f"spans_file = {result['spans_file']}")
    for name in result.get("missing_bindings", []):
        print(f"untraced binding (not found) = {name}")
    for m in result["metrics"]:
        note = f"  # {m['note']}" if m["note"] else ""
        print(f"metric {m['name']} = {m['value']!r} {m['unit']} "
              f"(n={m['n']}){note}")
    print("samples wall_s = " + " ".join(
        format(v, ".4g") for v in result["pass_wall_s"]))
    for reason in result["reasons"]:
        print(f"failure: {reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="kgflrw benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measured seconds per workload (default: "
                         "run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds through `call`, which stops the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "kgflrw",
                                       "__init__.py")):
        print(f"error: no kgflrw sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    if not 1 <= seconds <= 60:
        ap.error("--seconds must be between 1 and 60")
    jobs = min(2, len(os.sched_getaffinity(0)))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + TIME_LIMIT_S
        try:
            result = run_workload(name, args.seed, seconds, args.trace, jobs,
                                  spec, deadline)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(result)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["chosen"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["chosen"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
