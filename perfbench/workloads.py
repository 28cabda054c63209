"""The benchmark's workloads: which rows each one computes and how each
row is checked against the golden fixtures.

A workload is a fixed list of items.  An item is one computation a user of
the ``mackey`` command asks for (a homotopy row, a cohomology row, a
spectral-sequence page) together with the fixture cells it is checked
against.  The seed only permutes the order of the items; the set is fixed.

Items that build or reuse the same representation sphere are chained
together and keep their fixed order inside the chain, because the library
caches spheres across calls: the item that pays for a sphere is then the
same for every seed, so per-item times do not depend on the seed.  Chains
are shuffled as blocks.
"""

from __future__ import annotations

import contextlib
import random
import re
import sys
from dataclasses import dataclass
from typing import Callable

from mackey import bredon, chart, cli, functors, golden, repcw, slices

# Every group's catalog is built during set-up, as the CLI would.
GROUPS = ("T", "C2", "C4", "K4", "Q8")

# The one printed chart that fails differential validation on purpose: the
# n = 13 page leaves an unprinted class without a differential (the fixture
# flags it and the package README documents it).
KNOWN_VIOLATIONS = {13: ["class g^2 at (4, 20, 1) survives"]}

# Deliberately wrong expectation used by ``--inject-mismatch``.
WRONG = "g^9"


@dataclass
class Item:
    name: str
    cells: int  # fixture cells (or chart classes) the item checks
    shares: tuple[str, ...]  # representation spheres it builds or reuses
    run: Callable[[], int]  # computes and checks; returns the failed cells


def _report(msg: str) -> None:
    print(msg, file=sys.stderr)


def _matches(item: str, n: int, f, want: str) -> bool:
    """The check ``mackey verify`` makes; an exception counts as a mismatch."""
    try:
        ok = functors.match_expression(f, "" if want == "0" else want)
    except Exception as exc:  # a raising check is a failed cell, not a crash
        _report(f"ERROR {item} @ {n}: {type(exc).__name__}: {exc}")
        return False
    if not ok:
        _report(f"MISMATCH {item} @ {n}: expected {want}, got {f.name or f}")
    return ok


def _spheres(group_name: str, rep: str) -> tuple[str, ...]:
    """Names of the spheres a virtual representation is computed from: its
    positive part (primal complex) and its negative part (dual complex)."""
    pos, neg = [], []
    for sign, term in re.findall(r"([+-]?)([^+-]+)", rep):
        if not term.isdigit():
            (neg if sign == "-" else pos).append(term)
    return tuple(
        f"{group_name}:{'+'.join(sorted(part))}" for part in (pos, neg) if part
    )


def _row_item(group_name: str, key: str, row: dict, degrees: range) -> Item:
    """One fixture row through ``suspension_homotopy``, every degree checked."""
    rep, coeff_name = key.split()

    def run() -> int:
        coeff = functors.expression_functor(group_name, coeff_name)
        got = bredon.suspension_homotopy(group_name, rep, coeff, degrees)
        return sum(
            not _matches(key, n, got[n][0], row.get(n, "0")) for n in degrees
        )

    return Item(key, len(degrees), _spheres(group_name, rep), run)


def _cohomology_item(group_name: str, rep: str, row: dict, degrees: range) -> Item:
    """H^n(S^V; Z) through one ``cohomology_mackey`` call per degree, as
    ``mackey cohomology`` computes it; the answer is pi_{-n} of S^{-V}."""
    name = f"cohomology {rep} Z"

    def run() -> int:
        coeff = functors.expression_functor(group_name, "Z")
        c = repcw.sphere_complex(repcw.parse_rep(group_name, rep))
        return sum(
            not _matches(name, n, bredon.cohomology_mackey(c, coeff, n)[0],
                         row.get(-n, "0"))
            for n in degrees
        )

    return Item(name, len(degrees), _spheres(group_name, rep), run)


def _unit_sphere_item(row: dict) -> Item:
    name = "S(H) cohomology"
    degrees = range(0, 4)

    def run() -> int:
        coeff = functors.expression_functor("Q8", "Z")
        c = repcw.unit_sphere_complex("Q8", "H")
        return sum(
            not _matches(name, n, bredon.cohomology_mackey(c, coeff, n)[0],
                         row.get(n, "0"))
            for n in degrees
        )

    return Item(name, len(degrees), ("Q8:H",), run)


def _span(row: dict) -> range:
    return range(min(row), max(row) + 1)


def _rho_q_power(rep: str) -> int:
    m = re.search(r"(\d*)rhoQ", rep)
    return int(m.group(1) or 1) if m else 0


def _wrong(row: dict, degree: int) -> dict:
    return {**row, degree: WRONG}


def slice_grid(inject: bool) -> list[Item]:
    """Every Q8 slice-layer row with at most three copies of rhoQ."""
    table = golden.degree_table("slice_homotopy.txt")
    keys = [k for k in sorted(table) if _rho_q_power(k.split()[0]) <= 3]
    if len(keys) != 48:
        raise RuntimeError(f"slice_homotopy.txt has {len(keys)} rows with j <= 3, not 48")
    items = []
    for key in keys:
        row = table[key]
        if inject and not items:
            row = _wrong(row, max(row))
        items.append(_row_item("Q8", key, row, _span(row)))
    return items


def dual_grid(inject: bool) -> list[Item]:
    """Negative and mixed suspensions, then the same negative rows again as
    cohomology of the positive spheres, then S(H) cohomology."""
    neg = [
        ("Q8", "qrho_grid.txt", "-rhoQ Z"),
        ("Q8", "qrho_grid.txt", "-2rhoQ Z"),
        ("K4", "krho_grid.txt", "-rhoK Z"),
        ("K4", "krho_grid.txt", "-2rhoK Z"),
        ("K4", "krho_grid.txt", "-3rhoK Z"),
    ]
    items = []
    for gname, filename, key in neg:
        row = golden.degree_table(filename)[key]
        if inject and not items:
            row = _wrong(row, min(row))
        degrees = range(min(row), 0)
        items.append(_row_item(gname, key, row, degrees))
        rep = key.split()[0].lstrip("-")
        items.append(
            _cohomology_item(gname, rep, row, range(1, -min(row) + 1))
        )
    aux = golden.degree_table("aux_mixed.txt")
    for key in sorted(aux):
        items.append(_row_item("Q8", key, aux[key], _span(aux[key])))
    items.append(
        _unit_sphere_item(golden.degree_table("sphere_h.txt")["S(H) cohomology"])
    )
    return items


@contextlib.contextmanager
def _one_chart_page(n: int):
    """Make ``cli.suite_charts`` compare exactly page n.

    ``suite_charts`` compares pages ``range(0, 9)`` and then validates
    ``range(0, 13)``.  Shadowing ``range`` in the ``cli`` module lets this
    benchmark reuse its comparison, misprint handling included, for every
    page 0..13 instead of keeping a copy that could drift.  Validation is
    done by the caller for all 14 pages.
    """
    calls = []

    def page_range(*args):
        calls.append(args)
        return [n] if args == (0, 9) else []

    cli.range = page_range
    try:
        yield
    finally:
        del cli.range
    if calls != [(0, 9), (0, 13)]:
        raise RuntimeError(
            f"cli.suite_charts now loops over {calls}; update _one_chart_page"
        )


def _page_item(n: int, expected: list[str]) -> Item:
    page = chart.golden_page("Q8", n)
    classes = sum(len(v) for v in page.entries.values())

    def run() -> int:
        failures: list[str] = []
        with _one_chart_page(n):
            cli.suite_charts(None, failures)
        for f in failures:
            _report(f"MISMATCH {f}")
        report = chart.validate_differentials(chart.golden_page("Q8", n))
        if report.violations != expected:
            _report(f"MISMATCH page n={n} validation: expected {expected}, "
                    f"got {report.violations}")
        return len(failures) + (report.violations != expected)

    reps = [d.rep for d in slices.slice_list("Q8", n) if d.rep]
    shares = tuple(s for r in reps for s in _spheres("Q8", r))
    # one class per printed entry, plus the page's differential validation
    return Item(f"n={n}", classes + 1, shares, run)


def e2_pages(inject: bool) -> list[Item]:
    """The Q8 spectral-sequence pages n = 0..13 against charts_q8.txt."""
    items = []
    for n in range(0, 14):
        expected = KNOWN_VIOLATIONS.get(n, [])
        if inject and n == 0:
            expected = [WRONG]
        items.append(_page_item(n, expected))
    return items


WORKLOADS = {
    "slice-grid": slice_grid,
    "e2-pages": e2_pages,
    "dual-grid": dual_grid,
}


def ordered(items: list[Item], seed: int) -> list[Item]:
    """Shuffle chains of sphere-sharing items by seed, keeping each chain's
    own order."""
    parent = list(range(len(items)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner: dict[str, int] = {}
    for i, item in enumerate(items):
        for s in item.shares:
            if s in owner:
                parent[root(i)] = root(owner[s])
            else:
                owner[s] = i
    chains: dict[int, list[Item]] = {}
    for i, item in enumerate(items):
        chains.setdefault(root(i), []).append(item)
    blocks = list(chains.values())
    random.Random(seed).shuffle(blocks)
    return [item for block in blocks for item in block]


def build(workload: str, seed: int, inject: bool = False) -> list[Item]:
    return ordered(WORKLOADS[workload](inject), seed)
