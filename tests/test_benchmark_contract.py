"""The benchmark under perfbench/ calls the package by name: its own
self-test covers the untraced workloads and their checks, one traced pass
of each workload that probes the package covers the probes and the span
wrappers, and every function that its tracer wraps must still exist.  A
change that deletes or renames a name the benchmark reads fails here."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_benchmark_selftest_passes():
    result = subprocess.run(
        [sys.executable, "perfbench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("workload", ["verify", "queries"])
def test_traced_pass_is_correct(workload):
    # --trace 1 runs perfbench/probes.py and the tracer's wrappers, which
    # the untraced self-test never reaches
    args = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", "1"]
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert json.loads(result.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize(
    "module, name", [(module, name) for module, names in spans.LAYER_FUNCTIONS.items() for name in names]
)
def test_traced_function_exists(module, name):
    assert callable(getattr(spans.MODULES[module], name, None))
