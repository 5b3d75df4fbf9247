"""Smoke test of the benchmark itself; not part of the tier-1 suite.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload briefly with tracing off and on, and checks that each
metric named in BENCHMARK.json is printed with its unit and a sample count,
that the seed is recorded, and that the last line follows the result format.
Also checks that the benchmark fails, without a result, in a directory that
holds only BENCHMARK.json and the benchmark's own files. Takes a few
minutes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest
from run import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
METRIC_LINE = re.compile(r"^metric (\S+) = (\S+) (\S+) \(n=(\d+)\)")
SEED = 5


def _bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=400)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted(workload, trace):
    proc = _bench("--workload", workload, "--seed", str(SEED),
                  "--seconds", "1", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert f"seed = {SEED}" in lines

    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1

    printed = {}
    for line in lines:
        match = METRIC_LINE.match(line)
        if match:
            printed[match.group(1)] = (float(match.group(2)),
                                       match.group(3), int(match.group(4)))
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for entry in wanted:
        value, unit, _ = printed[entry["name"]]
        assert unit == entry["unit"]
        assert result["metrics"][entry["name"]] == {"value": value,
                                                    "unit": unit}
        if not trace:
            assert value > 0.0, entry["name"]


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "certify", "--seed", str(SEED),
                  "--seconds", "1", root=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
