"""Benchmark of the ``mackey`` engine, run from the root of a checkout.

    python3 perfbench/run.py --workload slice-grid --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

* ``slice-grid``: the 48 Q8 slice-layer rows of ``slice_homotopy.txt``
  through ``suspension_homotopy``, each cell checked with
  ``match_expression`` as ``mackey verify --suite slice-homotopy`` does;
* ``e2-pages``: the Q8 spectral-sequence pages n = 0..13 compared with
  ``charts_q8.txt`` through ``cli.suite_charts``, and every recorded page's
  differentials validated;
* ``dual-grid``: the rows with negative summands (cochain and two-sided
  complexes), the same cells again through ``cohomology_mackey``, and
  S(H) cohomology.  Its 3-5 s pass is also the one the self-test uses.

Every sample is a fresh interpreter (``sample.py``), because the library's
module caches would turn a second pass into lookups and a user of the CLI
pays for them on every run.  A sample runs the whole workload once, one row
after another in a single thread.  With ``--trace 0`` the run first starts
a few interpreters that only set up, then makes passes while another pass
still fits in ``--seconds`` (at least one), and reports medians.  The
median row time and the time of each workload's slowest row are printed
too, but are not among the result's metrics: they time single rows of
0.02 to 15 s, which vary too much between runs on a shared machine.  With
``--trace 1`` it makes one untraced and one traced pass and reports
per-layer self times and counts from the traced one.

The host this runs on is shared, and its speed drifts by 20% and more,
moving wall, CPU and start-up times alike.  So the end-to-end times are
rescaled to a reference host: each sample times a few rounds of a fixed
pure-Python loop (``hostspeed.py``) many times a second during set-up and
during each item, and a time is reported as it would read where a round
takes ``hostspeed.REFERENCE_S`` seconds.  The loop uses no library code, so
a change to the library moves a rescaled time as much as a measured one.
The measured times are printed and recorded next to them.  Per-layer times
are as measured.

The last line of standard output is the JSON result.  The exit code is 0
when every cell matched its fixture, 1 on a mismatch and 2 when the
checkout has no ``src/mackey`` to benchmark.  A record of the run, with
the seed, the item order and the per-item times, is written to
``.perfbench/`` in the checkout; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("slice-grid", "e2-pages", "dual-grid")
SETUP_PROBES = 9

# The fixed computation of each workload whose time is ``slowest_row_s``.
SLOWEST = {
    "slice-grid": "rhoK+2rhoQ Z",
    "e2-pages": "n=13",
    "dual-grid": "cohomology 2rhoQ Z",
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cells_per_s": "1/s",
}

# per-layer metric -> (unit, how it is read off the traced pass)
_SELF = "self"
_CALLS = "calls"
PER_LAYER = {
    "repcw.smash_s": ("s", _SELF, ["repcw.smash"]),
    "repcw.reduce_complex_s": ("s", _SELF, ["repcw.reduce_complex"]),
    "repcw.check_boundary_s": ("s", _SELF, ["repcw.check_boundary"]),
    "repcw.expand_level_e_s": ("s", _SELF, ["repcw.expand_level_e"]),
    "repcw.reduce_complex_calls": ("count", _CALLS, ["repcw.reduce_complex"]),
    "repcw.check_boundary_calls": ("count", _CALLS, ["repcw.check_boundary"]),
    "repcw.sphere_complex_calls": ("count", _CALLS, ["repcw.sphere_complex"]),
    "repcw.cells_in": ("count", None, None),
    "repcw.cells_out": ("count", None, None),
    "repcw.cells_kept_ratio": ("ratio", None, None),
    "bredon.engines": ("count", _CALLS, ["bredon.MackeyHomology"]),
    "bredon.assembly_s": ("s", _SELF, ["bredon.MackeyHomology"]),
    "bredon.functor_s": ("s", _SELF, ["bredon.MackeyHomology.functor"]),
    "bredon.functor_calls": ("count", _CALLS, ["bredon.MackeyHomology.functor"]),
    "bredon.identify_s": ("s", _SELF, ["bredon.identify"]),
    "bredon.identify_calls": ("count", _CALLS, ["bredon.identify"]),
    "exactalg.reduced_complex_s": ("s", _SELF, ["exactalg.ReducedComplex"]),
    "exactalg.homology_s": (
        "s", _SELF, ["exactalg.ReducedComplex.homology", "exactalg.homology_at"]),
    "exactalg.snf_s": (
        "s", _SELF, ["exactalg.snf_full", "exactalg.snf", "exactalg.snf_diagonal"]),
    "exactalg.snf_calls": ("count", _CALLS, ["exactalg.snf_full"]),
    "exactalg.snf_entries": ("count", None, None),
    "exactalg.induced_s": ("s", _SELF, ["exactalg.induced_on_homology"]),
    "exactalg.induced_calls": ("count", _CALLS, ["exactalg.induced_on_homology"]),
    "functors.find_isomorphism_s": ("s", _SELF, ["functors.find_isomorphism"]),
    "functors.find_isomorphism_calls": (
        "count", _CALLS, ["functors.find_isomorphism"]),
    "functors.iso_found_ratio": ("ratio", None, None),
    "functors.strip_g_s": ("s", _SELF, ["functors.strip_g_summands"]),
    "functors.match_expression_calls": (
        "count", _CALLS, ["functors.match_expression"]),
    "functors.check_axioms_s": ("s", _SELF, ["functors.check_axioms"]),
    "functors.check_axioms_calls": ("count", _CALLS, ["functors.check_axioms"]),
    "slices.slice_list_calls": ("count", _CALLS, ["slices.slice_list"]),
    "chart.validate_calls": ("count", _CALLS, ["chart.validate_differentials"]),
    "catalog.build_s": ("s", None, None),
    "golden.parse_s": ("s", None, None),
    "import_s": ("s", None, None),
    "trace.overhead_s": ("s", None, None),
    "trace.unattributed_s": ("s", None, None),
}


def sample(workload: str, seed: int, setup_only=False, trace=False,
           inject=False) -> dict:
    """Run one fresh interpreter and return its record (and its lifetime)."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", "--spans-out",
                str(OUT / f"spans-{workload}-seed{seed}.json")]
    if inject:
        cmd.append("--inject-mismatch")
    # Sphere reduction depends on string hash order: with random hashing
    # the reduced 5rhoQ sphere has 191 to 199 cells from run to run.  A
    # fixed hash seed makes the work, and the per-layer counts, repeat.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    start = time.monotonic_ns()
    proc = subprocess.run(
        cmd + ["--spawned-ns", str(start)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=170,
    )
    lifetime = (time.monotonic_ns() - start) / 1e9
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"sample exited with {proc.returncode}: {' '.join(cmd)}")
    record = json.loads(lines[-1])
    record["lifetime_s"] = lifetime
    return record


def _cells(rec: dict) -> tuple[int, int]:
    return (sum(i["cells"] for i in rec["items"]),
            sum(i["failed"] for i in rec["items"]))


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    """Medians over the passes and set-ups of times rescaled to the
    reference host (``hostspeed.py``)."""
    med = statistics.median
    values = {
        "wall_s": med(p["wall_ref_s"] for p in passes),
        "cpu_s": med(p["cpu_ref_s"] for p in passes),
        "setup_s": med(s["setup_ref_s"] for s in setups),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        "cells_per_s": med(_cells(p)[0] / p["wall_ref_s"] for p in passes),
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def measured(passes: list[dict], setups: list[dict]) -> dict:
    """The same medians as measured on this host, before rescaling, and the
    median time of a round of the reference loop; printed and recorded,
    not gated."""
    med = statistics.median
    return {
        "wall_s": med(p["wall_s"] for p in passes),
        "cpu_s": med(p["cpu_s"] for p in passes),
        "setup_s": med(s["setup_s"] for s in setups),
        "round_s": med(p["round_s"] for p in passes),
    }


def row_times(workload: str, passes: list[dict]) -> dict:
    """Median row time and the time of the workload's slowest row.  These
    time single rows of 0.02 to 15 s, too short to be steady on a shared
    machine, so they are printed and recorded but are not gated metrics."""
    med = statistics.median
    slowest = SLOWEST[workload]
    return {
        "row_p50_s": med(med(i["s"] for i in p["items"]) for p in passes),
        "slowest_row_s": med(
            next(i["s"] for i in p["items"] if i["name"] == slowest)
            for p in passes
        ),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    t = traced["trace"]
    counts = t["counts"]
    values = {
        "repcw.cells_in": counts.get("repcw.cells_in", 0),
        "repcw.cells_out": counts.get("repcw.cells_out", 0),
        "exactalg.snf_entries": counts.get("exactalg.snf_entries", 0),
        "catalog.build_s": traced["catalog_s"],
        "golden.parse_s": traced["parse_s"],
        "import_s": traced["import_s"],
        "trace.overhead_s": traced["wall_s"] - untraced["wall_s"],
        "trace.unattributed_s": t["root_self_s"],
    }
    values["repcw.cells_kept_ratio"] = (
        values["repcw.cells_out"] / values["repcw.cells_in"]
        if values["repcw.cells_in"] else 0.0
    )
    searches = t["calls"].get("functors.find_isomorphism", 0)
    values["functors.iso_found_ratio"] = (
        counts.get("functors.iso_found", 0) / searches if searches else 0.0
    )
    for name, (_, kind, labels) in PER_LAYER.items():
        if kind is not None:
            table = t["self_s"] if kind == _SELF else t["calls"]
            values[name] = sum(table.get(label, 0) for label in labels)
    return {k: {"value": values[k], "unit": u} for k, (u, _, _) in PER_LAYER.items()}


def check_trace(traced: dict) -> None:
    """Self times of all spans plus the root's self time are the pass."""
    t = traced["trace"]
    total = sum(t["self_s"].values()) + t["root_self_s"]
    if abs(total - t["root_s"]) > 1e-6 * max(1.0, t["root_s"]):
        raise RuntimeError(f"span self times sum to {total}, pass took {t['root_s']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-mismatch", action="store_true",
                   help="replace one expected fixture value by a wrong one")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "mackey" / "__init__.py").is_file():
        print(f"no mackey sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    def run(**kw) -> dict:
        return sample(args.workload, args.seed, inject=args.inject_mismatch, **kw)

    setups = []
    if args.trace:
        untraced = run()
        traced = run(trace=True)
        check_trace(traced)
        timed, passes = [untraced], [untraced, traced]
        metrics = per_layer(traced, untraced)
    else:
        for _ in range(SETUP_PROBES):
            setups.append(run(setup_only=True))
        start = time.monotonic()
        passes = []
        while True:
            rec = run()
            passes.append(rec)
            setups.append(rec)
            if time.monotonic() - start + rec["lifetime_s"] > args.seconds:
                break
        timed = passes
        metrics = end_to_end(passes, setups)

    attempted = sum(_cells(r)[0] for r in passes)
    failed = sum(_cells(r)[1] for r in passes)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "passes": len(passes),
        "setups": [{k: s[k] for k in ("setup_s", "setup_round_s", "setup_ref_s")}
                   for s in setups],
        "order": [i["name"] for i in passes[0]["items"]],
        "samples": [{k: v for k, v in r.items() if k != "trace"} for r in passes],
        "trace_summary": passes[-1].get("trace"),
        "rows": row_times(args.workload, timed),
        "measured": measured(passes, setups) if setups else None,
        "metrics": metrics,
    }
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"mismatch_ratio={failed / attempted:.6f} ({failed}/{attempted} cells)")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in (record["measured"] or {}).items():
        print(f"  (measured {name:23s} {value:.6g} s, not rescaled, not gated)")
    for name, value in record["rows"].items():
        print(f"  ({name:32s} {value:.6g} s, not gated)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
