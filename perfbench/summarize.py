"""Summarize the run records ``run.py`` left in ``.perfbench/``.

    python3 perfbench/summarize.py [--out perfbench/baseline.json]

For each workload it gives, over the untraced runs, each end-to-end
metric's median, quartiles and quartile spread (as a share of the median),
the same for the measured times before rescaling to the reference host,
the median row times that are printed but not gated, and the number of
runs and passes; over the traced runs, each per-layer metric's median and
each layer's share of the traced pass, by module.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else 0.0}


def layer_shares(trace: dict) -> dict:
    by_module: dict[str, float] = defaultdict(float)
    for label, s in trace["self_s"].items():
        by_module[label.split(".")[0]] += s
    by_module["unattributed"] = trace["root_self_s"]
    return {m: s / trace["root_s"] for m, s in sorted(by_module.items())}


def summarize(records: list[dict], gated: set[str]) -> dict:
    out = {}
    for w in sorted({r["workload"] for r in records}):
        plain = [r for r in records if r["workload"] == w and not r["trace"]]
        traced = [r for r in records if r["workload"] == w and r["trace"]]
        entry: dict = {"in_benchmark_json": w in gated, "runs": len(plain),
                       "seeds": sorted(r["seed"] for r in plain),
                       "passes": sum(r["passes"] for r in plain)}
        if plain:
            entry["end_to_end"] = {
                m: {**spread([r["metrics"][m]["value"] for r in plain]),
                    "unit": plain[0]["metrics"][m]["unit"]}
                for m in plain[0]["metrics"]
            }
            entry["measured_not_rescaled"] = {
                k: spread([r["measured"][k] for r in plain])
                for k in plain[0]["measured"]
            }
            entry["rows_not_gated"] = {
                k: statistics.median(r["rows"][k] for r in plain)
                for k in plain[0]["rows"]
            }
        if traced:
            entry["traced_runs"] = len(traced)
            entry["per_layer"] = {
                m: {"median": statistics.median(r["metrics"][m]["value"] for r in traced),
                    "unit": traced[0]["metrics"][m]["unit"]}
                for m in traced[0]["metrics"]
            }
            entry["layer_share"] = layer_shares(traced[0]["trace_summary"])
        out[w] = entry
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--out")
    args = p.parse_args()
    records = [json.loads(f.read_text())
               for f in sorted((ROOT / ".perfbench").glob("run-*.json"))]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = {w["name"] for w in spec["workloads"]}
    summary = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "workloads": summarize(records, gated)}
    text = json.dumps(summary, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
