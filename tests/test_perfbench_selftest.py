"""The benchmark harness's own checks run with the test suite.

``perfbench/selftest.py`` checks the harness's correctness gate, its pair
counts on fixed inputs and its naive cross-checks.  Running it here makes
a change that breaks them fail the suite, not only the benchmark run.
So does renaming or deleting a function that ``perfbench/spans.py`` wraps:
its metrics would read None.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import modgrob
import modgrob.cli  # noqa: F401  the tracer wraps cli.main too

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load_spans():
    """``perfbench/spans.py`` as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layer_metric_finds_its_wrap_targets():
    assert Path(modgrob.__file__).resolve().is_relative_to(ROOT / "src")
    spans = _load_spans()
    tracer = spans.Tracer().install()
    try:
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.remove()
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert [name for name, (value, _) in metrics.items() if value is None] == []
