#!/usr/bin/env python3
"""Print homotopy grids for regular-representation suspensions.

Each row k lists the nonzero homotopy Mackey functors of the k-fold
regular-representation suspension of the Eilenberg-Mac Lane spectrum of
the chosen coefficient system.  Negative k goes through the dual (cochain)
side of the engine.

    python scripts/homotopy_grid.py --group q8 --max-k 2
    python scripts/homotopy_grid.py --group k4 --coeff F --max-k 2

A cell the catalog cannot name prints as ``(unrecognized)``, and the exit
status is then 1.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mackey.bredon import suspension_homotopy
from mackey.functors import expression_functor
from mackey.grouplat import canonical_group_name


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--group", default="q8")
    ap.add_argument("--coeff", default="Z")
    ap.add_argument("--max-k", type=int, default=2)
    ap.add_argument("--negative", action="store_true")
    args = ap.parse_args()
    gname = canonical_group_name(args.group)
    rho = {"Q8": "rhoQ", "K4": "rhoK", "C4": "rho", "C2": "rho"}[gname]
    size = {"Q8": 8, "K4": 4, "C4": 4, "C2": 2}[gname]
    coeff = expression_functor(gname, args.coeff)
    ks = range(1, args.max_k + 1)
    unnamed = 0
    for k in ks:
        sign = "-" if args.negative else ""
        rep = f"{sign}{k}{rho}" if k > 1 else f"{sign}{rho}"
        degrees = range(-size * k, 1) if args.negative else range(0, size * k + 1)
        t0 = time.time()
        row = suspension_homotopy(gname, rep, coeff, degrees)
        cells = {n: nm for n, (f, nm) in row.items() if nm != "0"}
        print(f"k={k} ({time.time() - t0:.1f}s)")
        for n in sorted(cells, reverse=True):
            if cells[n] is None:
                unnamed += 1
            print(f"  pi_{n:>3} = {cells[n] or '(unrecognized)'}")
    if unnamed:
        print(f"{unnamed} cells unrecognized", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
