"""In-memory span tracer for the per-layer numbers of the benchmark.

The tracer lives entirely in the benchmark: it replaces kgflrw functions with
timing wrappers at the places where their callers look them up, so `src/`
needs no instrumentation. A name imported with `from .field import
lap_array` is a separate binding in `kgflrw.dynamics`, so each binding that a
caller uses is replaced; methods are replaced on their class.

Each call records one span (id, parent id, layer, start, end). Spans stay in
flat arrays in memory and are written once, at exit, by `write`. A layer's
self time is its span's duration minus the time its child spans cover; child
spans from sweep workers run in parallel, so for those the covered time is
the union of their intervals.

Sweep workers are forked by `kgflrw.cli`'s process pool and inherit the
installed wrappers and the open span stack, so their spans link to the
parent's `cli.main_entry` span. Each worker ships the spans of one sweep
point back inside the row it returns, and the pool's `map` moves them into
the parent's tracer before `cmd_sweep` sees the row.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from time import perf_counter

SHIP_KEY = "_perfbench_spans"


def _count_points(counters, args, result):
    counters["field.lap_array.points"] = (
        counters.get("field.lap_array.points", 0) + args[0].size)


def _count_run(counters, args, result):
    meta = result.meta
    for key, name in (("accepted", "dynamics.steps_accepted"),
                      ("rejected", "dynamics.steps_rejected")):
        counters[name] = counters.get(name, 0) + int(meta[key])
    counters["functionals.snapshot_rows"] = (
        counters.get("functionals.snapshot_rows", 0) + len(result.rows))


# (module, attribute path, layer, counter hook). Every binding a caller uses
# is listed; a binding that a later version of kgflrw drops is reported as
# missing instead of failing the run.
TARGETS = (
    ("kgflrw.field", "lap_array", "field.lap_array", _count_points),
    ("kgflrw.dynamics", "lap_array", "field.lap_array", _count_points),
    ("kgflrw.dynamics", "l2_norm_sq", "field.norms", None),
    ("kgflrw.dynamics", "inner_re", "field.norms", None),
    ("kgflrw.dynamics", "grad_norm_sq", "field.norms", None),
    ("kgflrw.functionals", "l2_norm_sq", "field.norms", None),
    ("kgflrw.functionals", "inner_re", "field.norms", None),
    ("kgflrw.functionals", "grad_norm_sq", "field.norms", None),
    ("kgflrw.hypotheses", "l2_norm_sq", "field.norms", None),
    ("kgflrw.hypotheses", "inner_re", "field.norms", None),
    ("kgflrw.functionals", "integrate_F", "field.integrate_F", None),
    ("kgflrw.scale_factor", "PowerLaw.eval", "scale_factor.eval", None),
    ("kgflrw.scale_factor", "DeSitter.eval", "scale_factor.eval", None),
    ("kgflrw.scale_factor", "Tabulated.eval", "scale_factor.eval", None),
    ("kgflrw.nonlinearity", "GaugeInvariantPower.f", "nonlinearity.f", None),
    ("kgflrw.nonlinearity", "RealAbsPower.f", "nonlinearity.f", None),
    ("kgflrw.nonlinearity", "GaugeInvariantPower.F", "nonlinearity.F", None),
    ("kgflrw.nonlinearity", "RealAbsPower.F", "nonlinearity.F", None),
    ("kgflrw.dynamics", "energy", "functionals.energy", None),
    ("kgflrw.dynamics", "nehari", "functionals.nehari", None),
    ("kgflrw.hypotheses", "energy", "functionals.energy", None),
    ("kgflrw.hypotheses", "nehari", "functionals.nehari", None),
    ("kgflrw.functionals", "energy", "functionals.energy", None),
    ("kgflrw.functionals", "nehari", "functionals.nehari", None),
    ("kgflrw.functionals", "RunningIntegrals.push",
     "functionals.RunningIntegrals.push", None),
    ("kgflrw.dynamics", "_rk4", "dynamics.rk4", None),
    ("kgflrw.dynamics", "_rhs", "dynamics.rhs", None),
    ("kgflrw.dynamics", "run", "dynamics.run", _count_run),
    ("kgflrw.cli", "run", "dynamics.run", _count_run),
    ("kgflrw.dynamics", "estimate_t_star", "dynamics.estimate_t_star", None),
    ("kgflrw.hypotheses", "evaluate", "hypotheses.evaluate", None),
    ("kgflrw.cli", "evaluate", "hypotheses.evaluate", None),
    ("kgflrw.odelab", "solve_concavity", "odelab.solve_concavity", None),
    ("kgflrw.cli", "solve_concavity", "odelab.solve_concavity", None),
    ("kgflrw.config", "parse_text", "config.parse_text", None),
    ("kgflrw.cli", "parse_text", "config.parse_text", None),
    ("kgflrw.config", "Scenario.build_fields", "config.build_fields", None),
    ("kgflrw.cli", "trace_csv_text", "cli.trace_csv_text", None),
    ("kgflrw.cli", "main_entry", "cli.main_entry", None),
    ("kgflrw.cli", "_sweep_point", "cli.sweep_point", None),
)

# layers that report calls, self time and share of wall time; the sweep's
# own spans feed the cli.sweep.* metrics instead
TIMED_LAYERS = tuple(name for name in dict.fromkeys(t[2] for t in TARGETS)
                     if name not in ("cli.main_entry", "cli.sweep_point"))


class Tracer:
    """Span recorder plus the wrappers that feed it; install/uninstall swap
    the wrappers in and out so untraced passes run the original code."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.ids = array.array("q")
        self.parents = array.array("q")
        self.layer = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.counters: dict[str, float] = {}
        self.stack: list[int] = []
        self.owner_pid = os.getpid()
        self._id_pid = self.owner_pid
        self._next = 0
        self._saved: list[tuple] = []
        self.missing: list[str] = []
        for _, _, layer, _ in TARGETS:
            self._layer_id(layer)

    def _layer_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _new_id(self) -> int:
        # ids carry the pid so spans from forked sweep workers stay unique
        self._next += 1
        return (self._id_pid << 32) | self._next

    def _record(self, sid, parent, layer, t0, t1):
        self.ids.append(sid)
        self.parents.append(parent)
        self.layer.append(layer)
        self.starts.append(t0)
        self.ends.append(t1)

    @contextmanager
    def span(self, name: str):
        """Span around a block of benchmark code (the workload's operations)."""
        layer = self._layer_id(name)
        sid = self._new_id()
        parent = self.stack[-1] if self.stack else 0
        self.stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self._record(sid, parent, layer, t0, t1)

    def _wrap(self, fn, name, hook):
        layer = self._layer_id(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._new_id()
            stack = tracer.stack
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                tracer._record(sid, parent, layer, t0, t1)
            if hook is not None:
                hook(tracer.counters, args, result)
            return result

        return traced

    def _shipping(self, traced):
        """Sweep-point wrapper: in a forked worker, attach this point's spans
        and counter deltas to the returned row."""
        tracer = self

        @functools.wraps(traced)
        def ship(payload):
            if os.getpid() == tracer.owner_pid:
                return traced(payload)
            tracer._id_pid = os.getpid()
            mark = len(tracer.ids)
            before = dict(tracer.counters)
            row = traced(payload)
            row[SHIP_KEY] = tracer._take(mark, before)
            return row

        return ship

    def _take(self, mark: int, before: dict) -> dict:
        out = {"names": list(self.names)}
        for key in ("ids", "parents", "layer", "starts", "ends"):
            arr = getattr(self, key)
            out[key] = arr[mark:]
            del arr[mark:]
        out["counters"] = {k: v - before.get(k, 0)
                           for k, v in self.counters.items()
                           if v != before.get(k, 0)}
        self.counters = before
        return out

    def absorb(self, shipped: dict) -> None:
        remap = array.array("i", (self._layer_id(n) for n in shipped["names"]))
        self.ids.extend(shipped["ids"])
        self.parents.extend(shipped["parents"])
        self.layer.extend(remap[i] for i in shipped["layer"])
        self.starts.extend(shipped["starts"])
        self.ends.extend(shipped["ends"])
        for key, val in shipped["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + val

    def _harvesting_pool(self):
        tracer = self

        class HarvestingPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                for row in super().map(fn, *iterables, **kwargs):
                    if isinstance(row, dict) and SHIP_KEY in row:
                        tracer.absorb(row.pop(SHIP_KEY))
                    yield row

        return HarvestingPool

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, object] = {}
        self.missing = []
        for mod_name, path, layer, hook in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = (owner.__dict__.get(attr) if isinstance(owner, type)
                        else getattr(owner, attr, None))
            if original is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = self._wrap(original, layer, hook)
                if attr == "_sweep_point":
                    wrapper = self._shipping(wrapper)
                wrappers[id(original)] = wrapper
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        cli = importlib.import_module("kgflrw.cli")
        if getattr(cli, "ProcessPoolExecutor", None) is ProcessPoolExecutor:
            self._saved.append((cli, "ProcessPoolExecutor",
                                ProcessPoolExecutor))
            cli.ProcessPoolExecutor = self._harvesting_pool()

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # ------------------------------------------------------------------
    # analysis

    def _arrays(self):
        import numpy as np

        # copies: a live buffer view would stop the arrays from growing
        return (np.array(self.ids, dtype=np.int64),
                np.array(self.parents, dtype=np.int64),
                np.array(self.layer, dtype=np.int32),
                np.array(self.starts, dtype=np.float64),
                np.array(self.ends, dtype=np.float64))

    def self_times(self):
        """Per-span self time: duration minus the time child spans cover."""
        import numpy as np

        ids, parents, _, starts, ends = self._arrays()
        dur = ends - starts
        n = len(ids)
        if n == 0:
            return dur
        order = np.argsort(ids, kind="stable")
        pos = np.searchsorted(ids[order], parents)
        pos = np.minimum(pos, n - 1)
        has_parent = ids[order][pos] == parents
        pidx = order[pos]
        covered = np.bincount(pidx[has_parent], weights=dur[has_parent],
                              minlength=n)
        # children in another process may overlap each other: use the union
        cross = has_parent & ((ids >> 32) != (parents >> 32))
        for p in np.unique(pidx[cross]):
            kids = np.flatnonzero(has_parent & (pidx == p))
            spans = sorted(zip(np.maximum(starts[kids], starts[p]),
                               np.minimum(ends[kids], ends[p])))
            total, reach = 0.0, -np.inf
            for s, e in spans:
                if e > reach:
                    total += e - max(s, reach)
                    reach = e
            covered[p] = total
        return dur - covered

    def layer_totals(self) -> dict[str, dict]:
        """calls, self seconds and the list of span durations per layer."""
        import numpy as np

        _, _, layer, starts, ends = self._arrays()
        selfs = self.self_times()
        k = len(self.names)
        calls = np.bincount(layer, minlength=k)
        self_s = np.bincount(layer, weights=selfs, minlength=k)
        out = {}
        for i, name in enumerate(self.names):
            mask = layer == i
            out[name] = {"calls": int(calls[i]), "self_s": float(self_s[i]),
                         "durations": (ends[mask] - starts[mask]).tolist()}
        return out

    def write(self, path: str) -> None:
        """Write every recorded span to a compressed .npz file."""
        import numpy as np

        ids, parents, layer, starts, ends = self._arrays()
        np.savez_compressed(path, ids=ids, parents=parents, layer=layer,
                            starts=starts, ends=ends,
                            names=np.array(self.names),
                            run_id=np.array(self.run_id))
