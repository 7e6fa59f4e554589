#!/usr/bin/env python3
"""Self-tests of the benchmark harness.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

Checks the correctness gate (one altered output byte is a failure), the
self-time arithmetic, that a set-up timed between requests leaves the
modgrob of the passes in place, that wrap targets missing from a later
commit give absent metrics instead of a crash, the seed-commit pair counts
(katsura4 over QQ makes 49 S-pairs, cyclic5 over QQ 733) and their
repetition, and a few completion outputs against the naive implementations
in ``tests/oracle.py``.  Exits with code 1 if any check fails.
"""

import sys
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import make_refs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as W  # noqa: E402

ROOT = Path.cwd()


def completion_subset(mg, names):
    return [r for r in W.completion_requests(mg) if r.name in names]


def test_altered_byte_is_a_failure():
    mg, _ = W.import_modgrob(ROOT)
    refs = run.load_refs()["completion"]
    requests = completion_subset(mg, ("katsura3/QQ", "cyclic4/ZZ12"))
    _, outcomes = run.run_pass(requests, range(len(requests)))
    assert run.check(outcomes, refs) == []
    name = requests[0].name
    altered = dict(refs)
    altered[name] = refs[name][:-1] + chr(ord(refs[name][-1]) ^ 1)
    assert [n for n, _ in run.check(outcomes, altered)] == [name]


def test_self_time_is_duration_minus_children():
    Span = spans.Span
    top = Span("cli.main", None, 0.0, 10.0)
    first = Span("parser.parse_problem", top, 1.0, 3.0)
    second = Span("groebner.buchberger_z", top, 4.0, 8.0)
    inner = Span("intarith.ext_gcd", second, 5.0, 6.0)
    selfs = spans.self_times([first, inner, second, top])
    assert selfs[id(top)] == 4.0
    assert selfs[id(first)] == 2.0
    assert selfs[id(second)] == 3.0
    assert selfs[id(inner)] == 1.0


def test_missing_targets_are_absent():
    pkg = types.ModuleType("fakegrob")
    groebner = types.ModuleType("fakegrob.groebner")
    groebner.buchberger_field = lambda gens: gens
    groebner.buchberger_z = lambda gens: gens
    saved = {n: sys.modules.get(n) for n in ("fakegrob", "fakegrob.groebner")}
    sys.modules.update({"fakegrob": pkg, "fakegrob.groebner": groebner})
    try:
        with spans.Tracer("fakegrob") as tracer:
            groebner.buchberger_field([1])
            groebner.buchberger_z([2])
        metrics = spans.layer_metrics(tracer)
    finally:
        for name, mod in saved.items():
            if mod is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = mod
    assert set(metrics) == set(spans.LAYER_METRICS)
    assert metrics["groebner.completions"][0] == 2
    for gone in ("groebner.s_pairs", "polyring.divides_calls", "lemma.self_s",
                 "arnold.check_s", "cli.self_s"):
        assert metrics[gone][0] is None, gone
    assert not hasattr(groebner.buchberger_field, "__wrapped__")


def test_setup_probe_keeps_the_live_modgrob():
    mg, _ = W.import_modgrob(ROOT)
    refs = run.load_refs()
    live = dict(sys.modules)
    probe = run.SetupProbe("cli", ROOT, refs["arnold_g"], 0.0)
    try:
        probe()
        probe()
    finally:
        run.remove_work()
    assert len(probe.times) == 2 and min(probe.times) > 0
    for name, mod in live.items():
        if name == "modgrob" or name.startswith("modgrob."):
            assert sys.modules[name] is mod, name
    assert sys.modules["modgrob"] is mg


def test_pair_counts_repeat():
    mg, _ = W.import_modgrob(ROOT)
    for fam, n, expected, repeats in (("katsura", 4, 49, 2), ("cyclic", 5, 733, 1)):
        gens = W.FAMILIES[fam](mg, n, mg.QQ)
        for _ in range(repeats):
            with spans.Tracer() as tracer:
                mg.buchberger_field(gens)
            metrics = spans.layer_metrics(tracer)
            assert metrics["groebner.s_pairs"][0] == expected, (fam, n, metrics)
            assert metrics["groebner.completions"][0] == 1
    assert not hasattr(mg.buchberger_field, "__wrapped__")


def test_outputs_match_naive_oracle():
    mg, _ = W.import_modgrob(ROOT)
    O = make_refs.import_oracle(ROOT)
    names = ("katsura3/QQ", "cyclic4/F32003", "katsura2/ZZ", "cyclic4/ZZ6")
    for req in completion_subset(mg, names):
        theirs = make_refs.naive_completion(mg, O, req.name)
        assert [O.from_pkg(g) for g in req.call().elements] == theirs, req.name


def main():
    failed = 0
    for name, fn in list(globals().items()):
        if not name.startswith("test_"):
            continue
        try:
            fn()
            print(f"PASS {name}")
        except Exception:  # noqa: BLE001 - report every failing check
            failed += 1
            print(f"FAIL {name}")
            traceback.print_exc()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
