#!/usr/bin/env python3
"""Time the large-k Q8 spheres: building S^{k rhoQ} and its Z homology in
every degree, for k = 4..8, five times each, in a fresh interpreter per
measurement so no cache carries over.

    python scripts/bench_spheres.py                      # this checkout
    python scripts/bench_spheres.py --tree old=../parent --tree new=.

Each ``--tree LABEL=PATH`` names a checkout whose ``src`` is imported; the
trees take turns, in alternating order, for every k and repeat, so drift of
the host's speed falls on all of them alike.  Per tree and k the file holds
the median and the quartiles of the build and homology seconds, the cell
count of the sphere, the largest peak RSS, and the names of H_n.  It is
written to ``BENCH_spheres.json`` (``--out``) and also says whether every
tree named every degree alike.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KS = range(4, 9)  # S^{k rhoQ} for these k
REPEATS = 5  # measurements per tree and k

# one measurement: build the sphere, then its Z homology in every degree
CHILD = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
from mackey.bredon import homology_mackey
from mackey.catalog import named
from mackey.repcw import parse_rep, sphere_complex
rep = parse_rep("Q8", sys.argv[2])
z = named("Q8", "Z")
t0 = time.perf_counter()
c = sphere_complex(rep)
t1 = time.perf_counter()
names = [homology_mackey(c, z, n)[1] for n in range(rep.dim + 1)]
t2 = time.perf_counter()
print(json.dumps({
    "sphere_s": t1 - t0, "homology_s": t2 - t1, "cells": c.ncells(),
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "names": names,
}))
"""


def measure(src: Path, rep: str) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(src), rep],
        check=True, capture_output=True, text=True,
    )
    return json.loads(out.stdout)


def spread(xs: list[float]) -> dict:
    """Median and quartiles, rounded to the millisecond."""
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": round(statistics.median(xs), 3),
            "q1": round(q[0], 3), "q3": round(q[2], 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", default=[],
                    help="LABEL=PATH of a checkout to time (repeatable)")
    ap.add_argument("--out", default=str(ROOT / "BENCH_spheres.json"))
    args = ap.parse_args(argv)
    trees = dict(t.split("=", 1) for t in args.tree) or {"this": str(ROOT)}
    trees = {label: Path(path).resolve() / "src" for label, path in trees.items()}

    runs = {label: {k: [] for k in KS} for label in trees}
    order = list(trees)
    for _ in range(REPEATS):
        for k in KS:
            for label in order:
                m = measure(trees[label], f"{k}rhoQ")
                runs[label][k].append(m)
                print(f"{label} {k}rhoQ sphere {m['sphere_s']:.3f}s "
                      f"homology {m['homology_s']:.3f}s cells {m['cells']}",
                      flush=True)
            order.reverse()

    result = {
        "what": "Q8 S^{k rhoQ}: sphere_complex build and Z homology in every "
                "degree, fresh interpreter per measurement",
        "host": {"machine": platform.machine(), "python": platform.python_version()},
        "repeats": REPEATS,
        "trees": {},
    }
    for label, by_k in runs.items():
        result["trees"][label] = {
            f"{k}rhoQ": {
                "sphere_s": spread([m["sphere_s"] for m in ms]),
                "homology_s": spread([m["homology_s"] for m in ms]),
                "cells": ms[0]["cells"],
                "peak_rss_mb": round(max(m["peak_rss_mb"] for m in ms), 1),
                "names": ms[0]["names"],
            }
            for k, ms in by_k.items()
        }
    result["names_agree"] = all(
        len({json.dumps(m["names"]) for by_k in runs.values() for m in by_k[k]}) == 1
        for k in KS
    )
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}; names agree: {result['names_agree']}")
    return 0 if result["names_agree"] else 1


if __name__ == "__main__":
    sys.exit(main())
