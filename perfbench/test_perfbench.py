"""The benchmark's own tests: a short run of every workload, untraced and
traced, must verify every op, print exactly the metrics BENCHMARK.json
declares with their units, and (traced) pass the trace self-check, which
also pins where drawing happens: ``xlib.draw_string`` fires on the pipe
and churn workloads and never on socket_tcl_logic.

Run from the root of the repository::

    python3 -m pytest perfbench -q
"""

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
    SPEC = json.load(spec_file)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py")] + list(args),
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7",
                     "--seconds", "1.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert "failed_ratio" in proc.stdout


def test_tracer_restores_every_original():
    """Untraced windows must run Wafe's own functions, not wrappers."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import tracer as tracing

        def current():
            out = []
            for __, module, cls, attr in tracing.TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                out.append(owner.__dict__[attr])
            return out

        before = current()
        tracer = tracing.Tracer()
        tracer.install()
        assert all(a is not b for a, b in zip(before, current()))
        tracer.uninstall()
        assert all(a is b for a, b in zip(before, current()))
    finally:
        sys.path.remove(os.path.join(ROOT, "src"))


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it must exit non-zero
    without printing a result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "--workload", WORKLOADS[0], "--seed",
                     "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_scales_times():
    """Ops run while the probe took twice PROBE_REF_MS read half as long
    once calibrated; the wall time is kept as measured."""
    import run
    import workloads

    slow = 2 * run.PROBE_REF_MS
    total = workloads.Outcome()
    total.extend(workloads.Outcome([4.0, 6.0], 2, 0, (), 0.5),
                 run.HostProbe.scale(slow, slow))
    assert total.latencies_ms == [2.0, 3.0]
    assert total.elapsed == 0.25 and total.wall == 0.5
