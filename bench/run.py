#!/usr/bin/env python3
"""Closed-loop benchmark of the infgon library and command line.

    python3 bench/run.py --workload octagon_realize --seed 1 --seconds 40 --trace 0

It imports infgon from the `src` directory next to `bench`.  One client
sends each query only after the previous one returned.  A run repeats
passes (one complete sweep each, see workload.py) for --seconds and
cuts the last pass at that time; the first passes are sent whole until
MIN_QUERIES queries are timed, so every query is timed at least once.
Every answer is checked against a fact that does not come from infgon.

The median latency and the throughput are taken over each query's
slowest time in the run, the 90th percentile over every query sent.
Other tenants of a shared host slow the whole machine, by up to 1.9x,
for stretches of tens of seconds.  How much of a run falls in such a
stretch drifts from run to run, but nearly every run holds one, so a
query's slowest time, its time on the busy host, is steady.  See
bench/README.md.

--trace 0 reports the end-to-end metrics.  --trace 1 runs one pass
untraced and one traced, reports the per-layer metrics of the traced
pass, and writes its spans to .bench_out/.  A summary goes to stderr;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, perf_counter_ns

from workload import Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("octagon_realize", "tail_offsets", "cli_cold")
MIN_QUERIES = 100
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
END_TO_END_UNITS = {
    "setup_s": "s", "queries_per_s": "1/s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "peak_rss_mb": "MB",
}
_FAILED = object()


def build(name: str, seed: int, tiny: bool, in_process: bool = False):
    if name == "cli_cold":
        from cli_cold import CliCold
        return CliCold(seed, tiny, ROOT, in_process)
    import sweeps
    cls = {"octagon_realize": sweeps.OctagonRealize,
           "tail_offsets": sweeps.TailOffsets}[name]
    return cls(tiny)


def run_pass(wl: Workload, rng: random.Random, run=lambda q: q.call(),
             between=lambda: None, deadline: float | None = None
             ) -> tuple[list[int | None], int]:
    """Sends the queries of one pass in an order drawn from `rng`,
    calling `between` after each outside its timing, and sends no more
    once perf_counter() has reached `deadline`.  Returns their latencies
    in ns, in the workload's list order (None for a query not sent), and
    the number of failures.  The checks that span the pass run only when
    it was sent whole."""
    queries = wl.pass_queries()
    order = list(range(len(queries)))
    rng.shuffle(order)
    latencies: list[int | None] = [None] * len(queries)
    failed = 0
    for i in order:
        if deadline is not None and perf_counter() >= deadline:
            return latencies, failed
        q = queries[i]
        start = perf_counter_ns()
        try:
            answer = run(q)
        except Exception:
            answer = _FAILED
            traceback.print_exc(limit=4)
        latencies[i] = perf_counter_ns() - start
        if answer is _FAILED or not _passes(q, answer):
            failed += 1
        between()
    return latencies, failed + wl.end_pass()


def _passes(q, answer) -> bool:
    try:
        return bool(q.check(answer))
    except Exception:
        traceback.print_exc(limit=4)
        return False


def child_setup_s(args) -> float:
    """Seconds from spawning a fresh benchmark process to the moment
    its workload is ready for the first query."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size]
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed with code {proc.returncode}")
    return elapsed


def import_s() -> float:
    """Seconds a fresh interpreter takes to `import infgon.cli`."""
    code = ("import time; s = time.perf_counter(); import infgon.cli; "
            "print(time.perf_counter() - s)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True, cwd=ROOT,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    return float(out.stdout)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


def peak_rss_mb(wl) -> float:
    """Peak resident memory of this process, or the workload's own
    figure when it runs its queries in child processes."""
    if hasattr(wl, "peak_rss_mb"):
        return wl.peak_rss_mb()
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args) -> tuple[int, int, list[str], dict, str]:
    wl = build(args.workload, args.seed, args.size == "tiny")
    rng = random.Random(args.seed)
    min_queries = 1 if args.size == "tiny" else MIN_QUERIES
    samples: list[list[int]] = []   # each query's latencies, in list order
    sent, failed, passes = 0, 0, 0
    setups: list[float] = []
    start = perf_counter()
    deadline = start + args.seconds

    def sample_setup():
        # Spread over the run, so that the median is not taken while
        # the host happens to run at one speed.
        due = start + args.seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and perf_counter() >= due:
            setups.append(child_setup_s(args))

    try:
        while True:
            # Only a pass that follows MIN_QUERIES timed queries is cut.
            lat, bad = run_pass(
                wl, rng, between=sample_setup,
                deadline=deadline if sent >= min_queries else None)
            samples = samples or [[] for _ in lat]
            for s, x in zip(samples, lat):
                if x is not None:
                    s.append(x)
                    sent += 1
            failed += bad
            if None in lat:
                passes += sum(x is not None for x in lat) / len(lat)
                break
            passes += 1
            if sent >= min_queries and perf_counter() >= deadline:
                break
        rss = peak_rss_mb(wl)
    finally:
        wl.close()
    while len(setups) < SETUP_REPEATS:
        setups.append(child_setup_s(args))
    latencies = [x for s in samples for x in s]
    ms = sorted(x / 1e6 for x in latencies)
    slowest = [max(s) for s in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(slowest) / (sum(slowest) / 1e9),
        "latency_p50_ms": statistics.median(slowest) / 1e6,
        "latency_p90_ms": percentile(ms, 0.9),
        "peak_rss_mb": rss,
    }
    return (len(latencies), failed, wl.errors,
            _with_units(metrics, END_TO_END_UNITS), f"passes={passes:.2f}")


def traced_run(args) -> tuple[int, int, list[str], dict, str]:
    from tracing import Tracer, per_layer_units
    wl = build(args.workload, args.seed, args.size == "tiny", in_process=True)
    rng = random.Random(args.seed)
    try:
        plain, bad1 = run_pass(wl, rng)
        with Tracer() as tracer:
            traced, bad2 = run_pass(
                wl, rng, lambda q: tracer.run_query(q.tag, q.call))
    finally:
        wl.close()
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (sum(traced) - sum(plain)) / 1e9
    metrics["cli.import_s"] = statistics.median(
        import_s() for _ in range(IMPORT_REPEATS))
    spans = ROOT / ".bench_out" / f"spans_{args.workload}_seed{args.seed}.tsv.gz"
    tracer.write_spans(spans)
    note = (f"untraced_s={sum(plain) / 1e9:.3f} traced_s={sum(traced) / 1e9:.3f}"
            f" spans={len(tracer.spans)} -> {spans.relative_to(ROOT)}")
    return (len(plain) + len(traced), bad1 + bad2, wl.errors,
            _with_units(metrics, per_layer_units()), note)


def _with_units(metrics: dict, units: dict) -> dict:
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the smoke-test inputs (see smoke.py)")
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "infgon" / "__init__.py").is_file():
        print(f"run.py: no infgon package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        wl = build(args.workload, args.seed, args.size == "tiny")
        print("ready", flush=True)
        wl.close()
        return 0

    attempted, failed, errors, metrics, note = (
        traced_run if args.trace else timed_run)(args)
    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} size={args.size} "
          f"trace={args.trace} {note} attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted:.6f}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0 and not errors,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
