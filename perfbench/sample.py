"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Set-up imports ``mackey`` from the checkout's ``src``, builds ``catalog()``
for all five groups and parses the fixtures the workload reads; then one
pass computes and checks every item of the workload in seed order.  The
last line of standard output is a JSON record of the sample.

    python3 perfbench/sample.py --root . --workload dual-grid --seed 1 \
        --spawned-ns <time.monotonic_ns() before the process was started>
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

# How often the reference loop is timed during set-up and during a pass,
# and for how many rounds.
SETUP_TICK_S = 0.02
TICK_S = 0.1
TICK_ROUNDS = 24


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-ns", type=int, required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans-out")
    p.add_argument("--inject-mismatch", action="store_true")
    args = p.parse_args()

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]

    # Set-up is timed from before the interpreter was started; the host's
    # speed is followed from here on, and its first timing rescales the
    # interpreter's start.
    start = (time.monotonic_ns() - args.spawned_ns) / 1e9
    clock = hostspeed.Clock(TICK_ROUNDS)
    if not args.trace:  # per-layer times are as measured, without ticks
        clock.start(SETUP_TICK_S)
    t0 = time.perf_counter()
    import mackey
    import workloads

    if not Path(mackey.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"imported mackey from {mackey.__file__}, not {src}")
    t1 = time.perf_counter()
    from mackey.catalog import catalog

    for g in workloads.GROUPS:
        catalog(g)
    t2 = time.perf_counter()
    items = workloads.build(args.workload, args.seed, args.inject_mismatch)
    t3 = time.perf_counter()
    setup = {"import_s": t1 - t0, "catalog_s": t2 - t1, "parse_s": t3 - t2}
    if not args.trace:
        clock.stop()
        rounds = clock.rounds()
        setup.update({
            "setup_s": start + clock.wall,
            "setup_ref_s": start * hostspeed.REFERENCE_S / rounds[0] + clock.ref,
            "setup_round_s": statistics.median(rounds),
        })
    if args.setup_only:
        print(json.dumps(setup))
        return 0

    if args.trace:
        record = traced_pass(items, args.spans_out)
    else:
        record = timed_pass(items, clock)
    record = {
        **setup,
        **record,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(json.dumps(record))
    return 0


def run_item(item) -> int:
    try:
        return item.run()
    except Exception as exc:  # a row that raises fails every cell
        print(f"ERROR {item.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return item.cells


def timed_pass(items, clock: hostspeed.Clock) -> dict:
    """Run every item, each timed as measured and as rescaled to the
    reference host; the CPU time of an item is rescaled by the same factor
    as its wall time."""
    out = []
    first = clock.count
    for item in items:
        wall, cpu, ref = clock.wall, clock.cpu, clock.ref
        clock.start(TICK_S)
        bad = run_item(item)
        clock.stop()
        wall, cpu, ref = clock.wall - wall, clock.cpu - cpu, clock.ref - ref
        out.append({"name": item.name, "cells": item.cells, "failed": bad,
                    "s": wall, "cpu_s": cpu, "ref_s": ref,
                    "cpu_ref_s": cpu * ref / wall})
    return {
        "wall_s": sum(i["s"] for i in out),
        "cpu_s": sum(i["cpu_s"] for i in out),
        "wall_ref_s": sum(i["ref_s"] for i in out),
        "cpu_ref_s": sum(i["cpu_ref_s"] for i in out),
        "round_s": statistics.median(clock.rounds(first)),
        "items": out,
    }


def traced_pass(items, spans_out) -> dict:
    """Run every item inside spans; no reference loops, so the spans'
    self times add up to the pass."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    out = []
    c0 = time.process_time()
    w0 = time.perf_counter()
    with tracer.root():
        for item in items:
            s = time.perf_counter()
            bad = run_item(item)
            out.append({"name": item.name, "cells": item.cells, "failed": bad,
                        "s": time.perf_counter() - s})
    record = {
        "wall_s": time.perf_counter() - w0,
        "cpu_s": time.process_time() - c0,
        "items": out,
        "trace": tracer.summary(),
    }
    if spans_out:
        tracer.dump(spans_out)
    return record
    if tracer:
        record["trace"] = tracer.summary()
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
