#!/usr/bin/env python3
"""modgrob benchmark: one workload, one closed-loop client, one process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload completion|certify|cli \\
        --seed N --seconds S --trace 0|1

Set-up imports modgrob from ``src/`` and builds the workload's inputs.
It is timed SETUP_BEFORE times before the passes, again between requests
about every SETUP_INTERVAL of ``--seconds``, and after the passes until
there are SETUP_SAMPLES samples; ``setup_s`` is their median.  The samples
are spread over the run because a shared 2-vCPU machine changes speed by
some 30% from one few-second stretch to the next, and a median of samples
taken in one stretch moves with it.  A pass sends every request of the
workload once, one at a time, in an order fixed by the seed; each result
is compared byte for byte with ``refs.json``.

With ``--trace 0`` passes repeat while the next one is expected to end
within ``--seconds`` (at least one pass).  The JSON metrics are setup_s,
wall_s (median over passes of the summed request latencies) and
peak_rss_mb.  geomean_ms, p50_ms and p90_ms of the per-request latencies
are printed on a line before, with their sample count.  They are not JSON
metrics because the same small request alternates between speeds some 50%
apart from one second to the next, and their run-to-run spread reached
0.24-0.36 of the median, wider than any bound a regression gate can use.
fail_share is the JSON object's failed / attempted, also printed on its
own line.

With ``--trace 1`` a traced pass runs between two untraced ones, and the
per-layer metrics of the traced pass are printed; trace.overhead_share
compares it with the mean of the other two.  The last line of standard
output is one JSON object; a run whose checkout has no modgrob exits with
code 2 and prints none.
"""

import argparse
import contextlib
import gc
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_BEFORE = 10
SETUP_SAMPLES = 21
SETUP_INTERVAL = 1 / 60
MIN_PERCENTILE_SAMPLES = 100
REFS = HERE / "refs.json"
WORK = HERE / ".work" / str(os.getpid())


def remove_work():
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        WORK.parent.rmdir()


def load_refs(path=REFS):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def setup_once(workload, root, arnold_g, work=WORK):
    """Import modgrob afresh and build the inputs: (seconds, modgrob, requests).

    Modules of an earlier import hold reference cycles, so they are
    collected first, to keep peak_rss_mb to one spare copy."""
    gc.collect()
    t0 = time.perf_counter()
    mg, cli = workloads.import_modgrob(root)
    requests = workloads.build(workload, mg, cli, work, arnold_g)
    return time.perf_counter() - t0, mg, requests


def modgrob_modules():
    return {n: m for n, m in sys.modules.items()
            if n == "modgrob" or n.startswith("modgrob.")}


class SetupProbe:
    """Times one more set-up between requests once ``interval`` has passed.

    The probe builds its inputs in a directory of its own, then puts back
    the modgrob modules that the passes use, so the requests never see it."""

    def __init__(self, workload, root, arnold_g, interval):
        self.args = (workload, root, arnold_g, WORK / "probe")
        self.interval = interval
        self.times = []
        self.due = time.perf_counter() + interval

    def sample(self):
        live = modgrob_modules()
        self.times.append(setup_once(*self.args)[0])
        for name in modgrob_modules():
            del sys.modules[name]
        sys.modules.update(live)

    def __call__(self):
        if time.perf_counter() >= self.due:
            self.sample()
            self.due = time.perf_counter() + self.interval


def run_pass(requests, order, between=None):
    """Send each request once; return (latencies, [(request, result, error)]).

    ``between()``, if given, runs after each request, outside its latency."""
    latencies, outcomes = [], []
    clock = time.perf_counter
    for i in order:
        req = requests[i]
        t0 = clock()
        try:
            result, error = req.call(), None
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            result, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - t0)
        outcomes.append((req, result, error))
        if between is not None:
            between()
    return latencies, outcomes


def check(outcomes, refs):
    """Names and reasons of the requests whose output is wrong."""
    failures = []
    for req, result, error in outcomes:
        if error is not None:
            failures.append((req.name, error))
            continue
        expected = refs.get(req.name)
        if expected is None:
            failures.append((req.name, "no reference"))
        elif req.render(result) != expected:
            failures.append((req.name, "output differs from the reference"))
        elif req.verify is not None and (msg := req.verify(result)):
            failures.append((req.name, msg))
    return failures


def timed_pass(requests, rng, between=None):
    """One pass in a seeded order: (summed latencies, latencies, outcomes)."""
    order = list(range(len(requests)))
    rng.shuffle(order)
    gc.collect()
    latencies, outcomes = run_pass(requests, order, between)
    return math.fsum(latencies), latencies, outcomes


def measure(requests, refs, rng, seconds, probe):
    """Untraced passes while the next is expected to end within ``seconds``."""
    walls, latencies, failures = [], [], []
    start = time.perf_counter()
    while True:
        wall, lat, outcomes = timed_pass(requests, rng, probe)
        walls.append(wall)
        latencies += lat
        failures += check(outcomes, refs)
        if time.perf_counter() - start + wall > seconds:
            return walls, latencies, failures


def end_to_end(setup_s, walls):
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def latency_summary(latencies):
    """geomean_ms, and p50_ms and p90_ms where there are enough samples."""
    parts = [f"geomean_ms={1e3 * statistics.geometric_mean(latencies)}"]
    if len(latencies) >= MIN_PERCENTILE_SAMPLES:
        parts.append(f"p50_ms={1e3 * statistics.median(latencies)}")
        parts.append(f"p90_ms={1e3 * statistics.quantiles(latencies, n=10)[8]}")
    return " ".join(parts) + f" samples={len(latencies)}"


def traced(mg_package, requests, refs, rng):
    """A traced pass between two untraced ones; per-layer metrics of the former."""
    before, _, outcomes = timed_pass(requests, rng)
    failures = check(outcomes, refs)
    with spans.Tracer(mg_package) as tracer:
        wall_traced, _, outcomes = timed_pass(requests, rng)
    failures += check(outcomes, refs)
    after, _, outcomes = timed_pass(requests, rng)
    failures += check(outcomes, refs)
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_share"] = (2 * wall_traced / (before + after) - 1, "ratio")
    return metrics, 3 * len(requests), failures


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    try:
        refs = load_refs()
        setup_times = []
        for _ in range(SETUP_BEFORE):
            mg = requests = None
            seconds, mg, requests = setup_once(args.workload, root, refs["arnold_g"])
            setup_times.append(seconds)
    except (workloads.SetupError, OSError, ImportError) as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    expected = refs[args.workload]
    rng = random.Random(args.seed)
    try:
        if args.trace:
            metrics, attempted, failures = traced(mg.__name__, requests, expected, rng)
        else:
            probe = SetupProbe(args.workload, root, refs["arnold_g"],
                               args.seconds * SETUP_INTERVAL)
            walls, latencies, failures = measure(requests, expected, rng, args.seconds,
                                                 probe)
            while len(setup_times) + len(probe.times) < SETUP_SAMPLES:
                probe.sample()
            setup_times += probe.times
            attempted = len(latencies)
            metrics = end_to_end(statistics.median(setup_times), walls)
            print(f"{args.workload}: {len(walls)} pass(es) of {len(requests)} requests, "
                  f"{len(setup_times)} set-ups; " + latency_summary(latencies), flush=True)
    finally:
        remove_work()
    for name, reason in failures:
        print(f"FAIL {name}: {reason}", file=sys.stderr)
    failed = len(failures)
    print(f"fail_share={failed / attempted} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
