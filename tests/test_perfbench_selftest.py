"""The benchmark harness's own checks run with the test suite.

``perfbench/selftest.py`` checks the harness's correctness gate, its pair
counts on fixed inputs and its naive cross-checks.  Running it here makes
a change that breaks them fail the suite, not only the benchmark run.
So does renaming or deleting a function that ``perfbench/spans.py`` wraps:
its metrics would read None.  And so does a change of any output byte of
the benchmark's requests: every basis, certificate and CLI output must
match ``perfbench/refs.json``.
"""

import importlib.util
import json
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


def _load_perfbench(name):
    """``perfbench/<name>.py`` as a module, loaded without writing bytecode."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layer_metric_finds_its_wrap_targets():
    assert Path(modgrob.__file__).resolve().is_relative_to(ROOT / "src")
    spans = _load_perfbench("spans")
    tracer = spans.Tracer().install()
    try:
        metrics = spans.layer_metrics(tracer)
    finally:
        tracer.remove()
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert [name for name, (value, _) in metrics.items() if value is None] == []


def test_every_perfbench_request_matches_its_reference(tmp_path):
    """Each of the 402 perfbench requests, run on the modgrob this suite
    imported, renders exactly its reference and passes its ``verify`` hook,
    as ``check`` in ``perfbench/run.py`` demands.  The cli workload's
    problem files go to ``tmp_path``; nothing is written under perfbench."""
    workloads = _load_perfbench("workloads")
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text(encoding="utf-8"))
    failures, count = [], 0
    for workload in workloads.WORKLOADS:
        requests = workloads.build(workload, modgrob, modgrob.cli, tmp_path / workload,
                                   refs["arnold_g"])
        expected = refs[workload]
        assert sorted(req.name for req in requests) == sorted(expected)
        count += len(requests)
        for req in requests:
            try:
                result = req.call()
            except Exception as exc:  # noqa: BLE001 - every failure is reported
                failures.append((req.name, f"{type(exc).__name__}: {exc}"))
                continue
            if req.render(result) != expected[req.name]:
                failures.append((req.name, "output differs from the reference"))
            elif req.verify is not None and (msg := req.verify(result)):
                failures.append((req.name, msg))
    assert (count, failures) == (402, [])
