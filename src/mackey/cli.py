"""Command-line surface: inspection, computation, and a golden-fixture
verification runner.

Usage errors exit with status 2 (argparse); computation errors print a
structured message and exit 1; ``verify`` exits nonzero when any computed
value disagrees with a fixture, printing the expected/computed pair.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import partial

from .bredon import (
    cached_engine,
    cohomology_mackey,
    homology_mackey,
    identify,
    suspension_engine,
    suspension_homotopy,
)
from .catalog import named
from .chart import golden_page, render_ascii, render_svg, validate_differentials
from .functors import (
    MackeyFunctor,
    check_axioms,
    covering_pairs,
    data_equal,
    match_expression,
)
from .golden import degree_table, slice_table
from .grouplat import canonical_group_name, group
from .inflation import check_psi_phi_agree, phi_inflate, psi_inflate, q_push, quotient_onto
from .repcw import parse_rep, sphere_complex
from .slices import Unsupported, e2_page, r_tower, slice_list, slice_tower
from .stats import COUNTS


def functor_json(m: MackeyFunctor) -> dict:
    g = m.group()
    levels = {}
    for s in g.subgroups():
        lvl = m.levels[s.name]
        levels[s.name] = {
            "rank": lvl.rank,
            "torsion": list(lvl.invariant_factors),
        }
    res = {}
    tr = {}
    for low, high in covering_pairs(g):
        res[f"{low}<{high}"] = [list(r) for r in m.res[(low, high)].matrix]
        tr[f"{low}<{high}"] = [list(r) for r in m.tr[(low, high)].matrix]
    weyl = {}
    for (sub, elem), h in sorted(m.weyl.items()):
        weyl[f"{sub}:{elem}"] = [list(r) for r in h.matrix]
    return {
        "schema": 1,
        "group": m.group_name,
        "name": m.name,
        "levels": levels,
        "res": res,
        "tr": tr,
        "weyl": weyl,
    }


def print_functor(m: MackeyFunctor, as_json: bool) -> None:
    if as_json:
        print(json.dumps(functor_json(m), indent=2, sort_keys=True))
        return
    g = m.group()
    print(f"{m.name or '(unrecognized)'} over {m.group_name}")
    for s in reversed(g.subgroups()):
        print(f"  {s.name:>3}: {m.levels[s.name]}")
    for low, high in covering_pairs(g):
        r = m.res[(low, high)].matrix
        t = m.tr[(low, high)].matrix
        print(f"  res {high}->{low}: {r}   tr {low}->{high}: {t}")
    for (sub, elem), h in sorted(m.weyl.items()):
        print(f"  weyl {sub},{elem}: {h.matrix}")


class BadDegrees(ValueError):
    """A --degrees value that is neither n nor a..b with a <= b."""


def _parse_degrees(text: str) -> range:
    lo, dots, hi = text.partition("..")
    try:
        a = int(lo)
        b = int(hi) if dots else a
    except ValueError:
        raise BadDegrees(f"--degrees {text!r}: expected n or a..b") from None
    if a > b:
        raise BadDegrees(f"--degrees {text!r}: the range is empty, {a} > {b}")
    return range(a, b + 1)


def cmd_show(args) -> int:
    m = named(args.group, args.name)
    print_functor(m, args.json)
    return 0


def cmd_inflate(args) -> int:
    src = canonical_group_name(args.src)
    tgt = canonical_group_name(args.to)
    if args.kind == "push":
        out = q_push(quotient_onto(src, tgt), named(src, args.name))
    else:
        f = psi_inflate if args.kind == "psi" else phi_inflate
        out = f(quotient_onto(tgt, src), named(src, args.name))
    nm = identify(out)
    print_functor(out.with_name(nm) if nm else out, args.json)
    return 0


def _print_graded(results, as_json: bool) -> None:
    if as_json:
        payload = {
            str(n): functor_json(f) for n, (f, nm) in sorted(results.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    for n in sorted(results):
        f, nm = results[n]
        if not f.is_trivial():
            print(f"  {n:>3}: {nm or '(unrecognized) ' + str(f)}")


def _print_stats(eng) -> None:
    """The engine's sizes and every count so far, as name: value lines on stderr."""
    for name, value in {**eng.sizes(), **COUNTS}.items():
        print(f"{name}: {value}", file=sys.stderr)


def cmd_homology(args) -> int:
    gname = canonical_group_name(args.group)
    degrees = _parse_degrees(args.degrees)
    coeff = named(gname, args.coeff)
    results = suspension_homotopy(gname, args.rep, coeff, degrees)
    _print_graded(results, args.json)
    if args.stats:
        # the engine the computation just cached
        _print_stats(suspension_engine(gname, args.rep, coeff))
    return 0


def cmd_cohomology(args) -> int:
    gname = canonical_group_name(args.group)
    degrees = _parse_degrees(args.degrees)
    coeff = named(gname, args.coeff)
    c = sphere_complex(parse_rep(gname, args.rep))
    results = {n: cohomology_mackey(c, coeff, n) for n in degrees}
    _print_graded(results, args.json)
    if args.stats:
        # the engine the computation just cached
        _print_stats(cached_engine(coeff, dual=c))
    return 0


def cmd_slices(args) -> int:
    slices = slice_list(canonical_group_name(args.group), args.n)
    if args.json:
        print(json.dumps([
            {"t": d.t, "suspension": d.suspension(), "coefficient": d.coeff}
            for d in slices
        ], indent=2))
        return 0
    for d in slices:
        print(f"  P^{d.t} = {d.expression()}")
    return 0


def cmd_tower(args) -> int:
    if canonical_group_name(args.group) != "Q8":
        raise Unsupported(f"slice towers are recorded for Q8 only, not {args.group}")
    tower = r_tower(args.r, args.j) if args.n is None else slice_tower("Q8", args.n)
    for layer, stage in tower.layers:
        suffix = f"   over {stage}" if stage else ""
        print(f"  P^{layer.t} = {layer.expression()}{suffix}")
    return 0


def cmd_e2(args) -> int:
    page = e2_page(canonical_group_name(args.group), args.n)
    if args.json:
        payload = {
            f"{x},{y}": names_ for (x, y), names_ in sorted(page.entries.items())
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(render_ascii(page))
    return 0


def cmd_chart(args) -> int:
    page = golden_page(canonical_group_name(args.group), args.n)
    if args.ascii or not args.out:
        print(render_ascii(page))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(render_svg(page))
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# verification suites: SUITES is the one place that chooses the fixture rows
# `verify` checks and their degrees


def _check_row(filename, key, row, got, failures):
    """Compare computed degrees {n: (functor, name)} with a fixture row, in
    which an omitted degree vanishes."""
    for n, (f, nm) in got.items():
        want = row.get(n, "0")
        if not match_expression(f, want):
            failures.append(
                f"{filename}:{key} degree {n}: expected {want}, computed {nm or f}"
            )


def _span(gname, rep):
    """Degrees -dim V- .. dim V+ of the suspension by rep = V+ - V-, with
    the integer offset on its side: the homotopy lives inside them."""
    pos, neg, offset = parse_rep(gname, rep).split()
    return range(min(offset, 0) - neg.dim, pos.dim + max(offset, 0) + 1)


def suite_rows(gname, filename, args, failures):
    """Every "<rep> <coefficients>" row of a degree-table fixture, over its
    whole span."""
    for key, row in degree_table(filename).items():
        rep, coeff = key.split()
        got = suspension_homotopy(
            gname, rep, named(gname, coeff), _span(gname, rep)
        )
        _check_row(filename, key, row, got, failures)


def suite_axioms(args, failures):
    from .catalog import catalog

    for gname in ("T", "C2", "C4", "K4", "Q8"):
        for nm, f in sorted(catalog(gname).items()):
            report = check_axioms(f)
            if not report.ok:
                failures.append(f"axioms {gname}:{nm}: {report.failures[:3]}")


def suite_sphere_h(args, failures):
    """The three-sphere S(H), both sides, and S^H as the suspension of Z by H."""
    from .repcw import unit_sphere_complex

    table = degree_table("sphere_h.txt")
    c = unit_sphere_complex("Q8", "H")
    coeff = named("Q8", "Z")
    for key, side in (("S(H) homology", homology_mackey),
                      ("S(H) cohomology", cohomology_mackey)):
        got = {n: side(c, coeff, n) for n in range(0, 4)}
        _check_row("sphere_h.txt", key, table[key], got, failures)
    got = suspension_homotopy("Q8", "H", coeff, _span("Q8", "H"))
    _check_row("sphere_h.txt", "S^H homology", table["S^H homology"], got, failures)


def suite_inflation(args, failures):
    from .catalog import catalog

    q8 = group("Q8")
    qm = q8.quotient(q8.subgroup("Z"))
    pairs = [("Z(2,1)", "Z(3,2)"), ("Z*", "Z(3,1)")]
    for src, tgt in pairs:
        if not data_equal(psi_inflate(qm, named("K4", src)), named("Q8", tgt)):
            failures.append(f"module inflation of {src} is not {tgt}")
    for nm, f in sorted(catalog("K4").items()):
        if not f.is_zmodule:
            continue
        if not data_equal(q_push(qm, psi_inflate(qm, f)), f):
            failures.append(f"push after inflation is not the identity on {nm}")
        if f.levels["e"].is_trivial and not check_psi_phi_agree(qm, f):
            failures.append(f"inflations disagree on {nm}")


def suite_ses(args, failures):
    from .catalog import seven_sequences
    from .functors import ses_check

    for idx, (i, p) in enumerate(seven_sequences(), start=1):
        if not ses_check(i, p):
            failures.append(f"short exact sequence {idx} fails")


def suite_slices(args, failures):
    table = slice_table("slices_q8.txt")
    for n in sorted(table):
        got = sorted((d.t, d.shift, d.rep, d.coeff) for d in slice_list("Q8", n))
        if got != sorted(table[n]):
            failures.append(f"slice list over Q8 at n={n} differs")
    table = slice_table("slices_c4.txt")
    for n in sorted(table):
        got = sorted((d.t, d.shift, d.rep, d.coeff) for d in slice_list("C4", n))
        if got != sorted(table[n]):
            failures.append(f"slice list over C4 at n={n} differs")


def suite_charts(args, failures):
    for n in range(0, 9):
        page = e2_page("Q8", n)
        want = golden_page("Q8", n)
        gold = {}
        for (x, y), names_ in want.entries.items():
            keep = [
                nm for i, nm in enumerate(names_, start=1)
                if "misprint" not in want.flags.get((x, y, i), set())
            ]
            if keep:
                gold[(x, y)] = sorted(keep)
        comp = {k: sorted(v) for k, v in page.entries.items()}
        if comp != gold:
            for key in sorted(set(comp) | set(gold)):
                if comp.get(key) != gold.get(key):
                    failures.append(
                        f"page n={n} cell {key}: chart {gold.get(key)}, "
                        f"computed {comp.get(key)}"
                    )
    for n in range(0, 13):
        report = validate_differentials(golden_page("Q8", n))
        if not report.ok:
            failures.append(f"differential pattern n={n}: {report.violations}")


SUITES = {
    "axioms": suite_axioms,
    "sphere-h": suite_sphere_h,
    "qrho-grid": partial(suite_rows, "Q8", "qrho_grid.txt"),
    "krho-grid": partial(suite_rows, "K4", "krho_grid.txt"),
    "krho-mod2-grid": partial(suite_rows, "K4", "krho_mod2_grid.txt"),
    "aux": partial(suite_rows, "Q8", "aux_mixed.txt"),
    "inflation": suite_inflation,
    "ses": suite_ses,
    "slices": suite_slices,
    "slice-homotopy": partial(suite_rows, "Q8", "slice_homotopy.txt"),
    "charts": suite_charts,
}


def cmd_verify(args) -> int:
    chosen = [args.suite] if args.suite else list(SUITES)
    any_fail = False
    for name in chosen:
        failures: list[str] = []
        t0 = time.perf_counter()
        SUITES[name](args, failures)
        secs = time.perf_counter() - t0
        if failures:
            print(f"FAIL {name} ({len(failures)} mismatches, {secs:.1f} s)")
        else:
            print(f"ok {name} ({secs:.1f} s)")
        for f in failures:
            print(f"    {f}")
        any_fail = any_fail or bool(failures)
    return 1 if any_fail else 0


def _add_stats_flag(s: argparse.ArgumentParser) -> None:
    s.add_argument(
        "--stats", action="store_true",
        help="print the engine's sizes and the counts so far to stderr, one "
        "name: value line each",
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mackey",
        description="Exact Mackey-functor homology of representation "
        "spheres, slice data, and spectral-sequence charts.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("show", help="display a named Mackey functor")
    s.add_argument("--group", required=True)
    s.add_argument("--name", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_show)

    s = sub.add_parser("inflate", help="inflate or push along a quotient")
    s.add_argument("--kind", choices=("psi", "phi", "push"), required=True)
    s.add_argument("--from", dest="src", required=True)
    s.add_argument("--to", required=True)
    s.add_argument("--name", required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_inflate)

    s = sub.add_parser("homology", help="homotopy of a suspension")
    s.add_argument("--group", required=True)
    s.add_argument("--rep", required=True)
    s.add_argument("--coeff", default="Z")
    s.add_argument("--degrees", default="0..8")
    s.add_argument("--json", action="store_true")
    _add_stats_flag(s)
    s.set_defaults(func=cmd_homology)

    s = sub.add_parser("cohomology", help="cohomology of a sphere complex")
    s.add_argument("--group", required=True)
    s.add_argument("--rep", required=True)
    s.add_argument("--coeff", default="Z")
    s.add_argument("--degrees", default="0..8")
    s.add_argument("--json", action="store_true")
    _add_stats_flag(s)
    s.set_defaults(func=cmd_cohomology)

    s = sub.add_parser("slices", help="slice list of an integer suspension")
    s.add_argument("--group", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_slices)

    s = sub.add_parser("tower", help="slice towers")
    s.add_argument("--group", default="q8")
    which = s.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", type=int)
    which.add_argument("--r", type=int)
    s.add_argument("--j", type=int, default=1)
    s.set_defaults(func=cmd_tower)

    s = sub.add_parser("e2", help="compute a spectral-sequence page")
    s.add_argument("--group", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=cmd_e2)

    s = sub.add_parser("chart", help="render a recorded chart")
    s.add_argument("--group", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--out")
    s.add_argument("--ascii", action="store_true")
    s.set_defaults(func=cmd_chart)

    s = sub.add_parser("verify", help="run golden-fixture suites")
    s.add_argument("--suite", choices=list(SUITES))
    s.set_defaults(func=cmd_verify)
    return p


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Read `--rep -rhoQ` and `--degrees -8..-1`, or an abbreviation of
    either option, as `--rep=-rhoQ` and `--degrees=-8..-1`: argparse takes a
    separate value that starts with a dash, other than a plain negative
    number, for an option.  `-h` stays the help option, never a value."""
    out: list[str] = []
    for tok in argv:
        opt = out[-1] if out else ""
        if (len(opt) > 2 and ("--rep".startswith(opt) or "--degrees".startswith(opt))
                and tok.startswith("-") and not tok.startswith("--") and tok != "-h"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # computation errors exit 1, structured
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
