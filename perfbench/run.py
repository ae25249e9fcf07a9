"""latticemini benchmark: one closed-loop client in one process.

    python3 perfbench/run.py --workload {symbolic,census,deep-count}
                             --seed N --seconds S --trace {0,1}

The client sends a request, waits for the answer, times it, checks it against
the closed form outside the timed interval, and only then sends the next one.
Inputs come from --seed alone, and the library receives only vertex lists.
The run measures whole passes (see workloads.py) until --seconds have gone.

With --trace 0 the last line of stdout is the JSON result with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run. The lines before it print every metric by name, with
its unit, and the failed share.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads
from layertrace import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 5
WARMUP_SEED = 0


def import_library():
    """A fresh import of latticemini, as a new process would pay for it."""
    for name in [m for m in sys.modules if m == "latticemini" or m.startswith("latticemini.")]:
        del sys.modules[name]
    lm = importlib.import_module("latticemini")
    importlib.import_module("latticemini.cli")
    return lm


def setup(workload: str, seed: int):
    """Import, generate the first pass and warm up.

    Returns the first pass, the stream of later passes and the set-up time
    in seconds.

    The warm-up runs two requests of a fixed seed, so its cost does not depend
    on --seed. Set-up is repeated and the median reported, because a single
    set-up is short and noisy.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        lm = import_library()
        stream = workloads.passes(lm, workload, seed)
        first = next(stream)
        for request in next(workloads.passes(lm, workload, WARMUP_SEED))[:2]:
            request.call()
        times.append(perf_counter() - start)
    return first, stream, statistics.median(times)


def timed(request):
    """Run one request; returns (seconds, verified)."""
    start = perf_counter()
    try:
        result = request.call()
    except Exception:  # a raising request is a failed one, not a crash
        elapsed = perf_counter() - start
        print(f"request {request.kind} raised:", file=sys.stderr)
        traceback.print_exc()
        return elapsed, False
    elapsed = perf_counter() - start
    try:
        ok = bool(request.check(result))
    except Exception:  # a malformed answer fails its check
        print(f"check of {request.kind} raised:", file=sys.stderr)
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"request {request.kind} returned a wrong answer", file=sys.stderr)
    return elapsed, ok


def tail(latencies):
    """(value, percentile): the highest percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    k = n - 11
    return ordered[k], 100.0 * (k + 1) / n


def end_to_end(first, stream, seconds: float, setup_s: float):
    latencies, failed = [], 0
    batch = first
    start = perf_counter()
    while True:
        for request in batch:
            elapsed, ok = timed(request)
            latencies.append(elapsed)
            failed += not ok
        if perf_counter() - start >= seconds:
            break
        batch = next(stream)
    attempted = len(latencies)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "throughput_qps": ((attempted - failed) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"latency_tail_ms is p{tail_pct:.2f} of {attempted} samples",
        f"failed_share = {failed / attempted} ({failed} of {attempted})",
    ]
    return metrics, notes, attempted, failed


def traced(first, stream, seconds: float, workload: str, seed: int):
    """Per-layer metrics from one traced pass, then the overhead of tracing.

    The first pass runs traced; its counters depend on the seed only. In the
    rest of the time each slot alternates between untraced and traced from
    pass to pass, and trace.overhead_ratio is the ratio of the median
    latencies of the two halves.
    """
    tracer = Tracer()
    failed = 0
    tracer.install()
    try:
        for i, request in enumerate(first):
            tracer.request = i
            _, ok = timed(request)
            failed += not ok
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(len(first))
    attempted = len(first)
    plain, wrapped = [], []
    start = perf_counter()
    passes = 0
    while perf_counter() - start < seconds or not plain or not wrapped:
        passes += 1
        for request in next(stream):
            if (request.slot + passes) % 2:
                tracer.request = attempted
                tracer.install()
                try:
                    elapsed, ok = timed(request)
                finally:
                    tracer.uninstall()
                wrapped.append(elapsed)
            else:
                elapsed, ok = timed(request)
                plain.append(elapsed)
            attempted += 1
            failed += not ok
    tracer.write_spans(HERE / "out" / f"spans-{workload}-{seed}.jsonl")
    layers["trace.overhead_ratio"] = statistics.median(wrapped) / statistics.median(plain)
    units = {"calls": "count", "self_ms": "ms", "hull_points": "count",
             "box_cells": "count", "distinct_share": "ratio", "overhead_ratio": "ratio"}
    metrics = {name: (value, units[name.split(".")[1]]) for name, value in layers.items()}
    total = sum(v for k, v in layers.items() if k.endswith(".self_ms")) or 1.0
    notes = [
        f"{k[:-len('.self_ms')]} holds {100 * v / total:.1f}% of traced self time"
        for k, v in layers.items() if k.endswith(".self_ms")
    ]
    notes.append(
        f"per-layer figures are per request over the {len(first)} requests of the first pass"
    )
    notes.append(f"failed_share = {failed / attempted} ({failed} of {attempted})")
    return metrics, notes, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "latticemini" / "__init__.py").is_file():
        print(f"error: the latticemini sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    first, stream, setup_s = setup(args.workload, args.seed)
    if args.trace:
        metrics, notes, attempted, failed = traced(
            first, stream, args.seconds, args.workload, args.seed
        )
    else:
        metrics, notes, attempted, failed = end_to_end(first, stream, args.seconds, setup_s)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for note in notes:
        print(note)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
