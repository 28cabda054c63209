"""The benchmark's own test, run from the root of a checkout.

    python3 perfbench/selftest.py [--workload dual-grid]

It checks that

* a run with one deliberately wrong expected value reports a mismatch
  ratio above 0, ``"correct": false``, and exits nonzero;
* a short run prints every end-to-end metric named in ``BENCHMARK.json``
  with its unit, and a traced run every per-layer metric;
* every per-layer count repeats exactly across two traced runs with
  different seeds;
* in a directory holding only ``BENCHMARK.json`` and ``perfbench``, the
  benchmark exits nonzero without printing a result.

Exits 0 when all of these hold.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        timeout=600,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def expect(cond: bool, what: str, failures: list[str]) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", default="dual-grid")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    common = ["--workload", args.workload, "--seconds", "1"]
    failures: list[str] = []

    code, out = bench(*common, "--seed", "1", "--trace", "0", "--inject-mismatch")
    res = result(out)
    ratio = float(re.search(r"mismatch_ratio=([0-9.]+)", out).group(1))
    expect(code != 0 and not res["correct"] and res["failed"] > 0 and ratio > 0,
           f"a wrong expected value is caught (exit {code}, mismatch_ratio "
           f"{ratio}, {res['failed']}/{res['attempted']} cells)", failures)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, out = bench(*common, "--seed", "1", "--trace", str(trace))
        res = result(out)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(code == 0 and res["correct"] and res["failed"] == 0
               and got == want,
               f"--trace {trace} prints every {key} metric with its unit "
               f"and matches every cell (exit {code})", failures)
        if trace:
            counts_seed1 = res["metrics"]

    code, out = bench(*common, "--seed", "2", "--trace", "1")
    counts_seed2 = result(out)["metrics"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    differ = [
        k for k, u in units.items()
        if u == "count" and counts_seed1[k]["value"] != counts_seed2[k]["value"]
    ]
    expect(code == 0 and not differ,
           f"per-layer counts repeat exactly across seeds 1 and 2 {differ or ''}",
           failures)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, out = bench(*common, "--seed", "1", "--trace", "0", cwd=bare)
    expect(code != 0 and not out.strip(),
           f"without the sources the benchmark fails (exit {code})", failures)
    shutil.rmtree(bare)

    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
