"""Command-line interface tests."""

import json
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mackey import bredon, repcw
from mackey.bredon import cached_engine, suspension_engine
from mackey.catalog import named
from mackey.cli import main
from mackey.functors import EXPRESSIONS, RECOGNITION, LruMemo, covering_pairs
from mackey.repcw import point_complex, sphere_complex


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_show_json_schema(capsys):
    code, out = run(capsys, "show", "--group", "q8", "--name", "B(3,0)", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["group"] == "Q8"
    assert payload["levels"]["Q8"] == {"rank": 0, "torsion": [8]}
    assert payload["levels"]["e"] == {"rank": 0, "torsion": []}
    assert payload["res"]["Z<L"] == [[1]]
    assert payload["tr"]["Z<L"] == [[2]]


def test_show_unknown_name_exits_one(capsys):
    code = main(["show", "--group", "q8", "--name", "bogus"])
    assert code == 1


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["homology"])
    assert exc.value.code == 2


def test_homology_command(capsys):
    code, out = run(
        capsys, "homology", "--group", "q8", "--rep", "H",
        "--coeff", "Z", "--degrees", "0..4",
    )
    assert code == 0
    assert "4: Z" in out and "2: mgw" in out and "0: B(3,0)" in out


def test_cohomology_command(capsys):
    code, out = run(
        capsys, "cohomology", "--group", "q8", "--rep", "rhoQ",
        "--coeff", "Z", "--degrees", "0..8",
    )
    assert code == 0
    assert "8: Z*" in out and "5: phi_Z(B(2,0))" in out
    assert "4:" not in out


def test_slices_command(capsys):
    code, out = run(capsys, "slices", "--group", "q8", "--n", "3")
    assert code == 0
    assert out.strip() == "P^3 = S^{3} H(Z)"
    code, out = run(capsys, "slices", "--group", "q8", "--n", "6", "--json")
    data = json.loads(out)
    assert [d["t"] for d in data] == [6, 12, 16]


def test_inflate_command(capsys):
    code, out = run(
        capsys, "inflate", "--kind", "psi", "--from", "k4", "--to", "q8",
        "--name", "Z(2,1)",
    )
    assert code == 0
    assert out.startswith("Z(3,2)")


@pytest.mark.parametrize("kind, src, tgt", [("push", "C2", "Q8"), ("psi", "Q8", "C2")])
def test_inflate_without_a_quotient_names_both_groups(capsys, kind, src, tgt):
    # the larger group is the pushed-from one for push, the target otherwise
    code = main(["inflate", "--kind", kind, "--from", src, "--to", tgt, "--name", "Z"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: NoQuotient: C2 has no quotient Q8 by a nontrivial proper "
        "normal subgroup\n"
    )


def test_chart_svg_output(tmp_path, capsys):
    out_file = tmp_path / "page.svg"
    code, out = run(
        capsys, "chart", "--group", "q8", "--n", "5", "--out", str(out_file)
    )
    assert code == 0
    text = out_file.read_text()
    assert text.startswith("<?xml") and "<svg" in text


def test_e2_command(capsys):
    code, out = run(capsys, "e2", "--group", "q8", "--n", "5", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["5,0"] == ["Z"]
    assert data["2,6"] == ["mg"]


def test_verify_single_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "ses")
    assert code == 0
    assert "ok ses" in out


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "nope")
    assert code == 2


def test_verify_detects_corrupted_fixture(tmp_path, capsys, monkeypatch):
    # verify must exit nonzero and print the diff when a fixture disagrees
    import shutil
    from mackey import golden as golden_mod
    from mackey.golden import golden_dir

    dst = tmp_path / "golden"
    shutil.copytree(golden_dir(), dst)
    target = dst / "sphere_h.txt"
    text = target.read_text().replace("3 Z\n", "3 Z*\n", 1)
    target.write_text(text)
    monkeypatch.setenv("MACKEY_GOLDEN_DIR", str(dst))
    golden_mod.degree_table.cache_clear()
    golden_mod.slice_table.cache_clear()
    golden_mod.chart_table.cache_clear()
    try:
        code, out = run(capsys, "verify", "--suite", "sphere-h")
        assert code == 1
        assert "expected" in out
    finally:
        monkeypatch.delenv("MACKEY_GOLDEN_DIR")
        golden_mod.degree_table.cache_clear()
        golden_mod.slice_table.cache_clear()
        golden_mod.chart_table.cache_clear()


def test_homology_stats_go_to_stderr(capsys):
    code = main([
        "homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4",
        "--stats",
    ])
    sharing, memo = _sharing_line(), _memo_lines()  # unchanged since the command printed them
    captured = capsys.readouterr()
    assert code == 0
    assert "4: B(3,0)" in captured.out and "level" not in captured.out
    err = captured.err.splitlines()
    cell_lines, lines, assembly = err[:2], err[2:8], err[8:11]
    assert err[11] == sharing
    assert err[13:] == memo
    # the primal complex is the sphere of rhoQ, the dual one a point
    sphere = sphere_complex("rhoQ", "Q8")
    for line, side, c in zip(cell_lines, ("primal", "dual"), (sphere, point_complex("Q8"))):
        assert line.startswith(f"{side} cells per degree: ")
        per_degree = {int(n): k for n, k in re.findall(r"(\d+):(\d+)", line)}
        assert per_degree == {n: str(len(cs)) for n, cs in c.cells.items()}
        assert line.endswith(f"({c.ncells()} in all)")
    assert [ln.split(":")[0] for ln in lines] == [
        f"level {h}" for h in ("e", "Z", "L", "D", "R", "Q8")
    ]
    chain, core, top = (int(w) for w in re.findall(r"\d+", lines[0].split(":")[1]))
    assert core <= chain and top >= 0
    assert "chain generators" in lines[0] and "largest core entry" in lines[0]
    # one cell pair per sphere cell, the dual complex being a point
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    _check_assembly_lines(assembly, sphere, eng, 1)
    assert err[12] == _zero_line(eng)


def _sharing_line():
    counts = bredon.LEVEL_SHARING
    return (f"level sharing: {counts['built']} levels built, {counts['reused']} reused, "
            f"{counts['maps reused']} structure maps reused, {len(bredon._LEVELS)} live")


def _zero_line(eng):
    zero = eng.zero_degrees
    return (f"zero degrees: {zero['skipped']} skipped without homology, "
            f"{zero['found']} found zero after homology")


def _memo_lines():
    """The sphere cache line, the recognition memo line and the coefficient
    memos line."""
    validated = bredon._VALIDATED_COEFFS
    spheres = repcw._SPHERE_CACHE
    return [
        f"sphere cache: {spheres.hits} hits, {spheres.misses} misses, {len(spheres)} entries",
        f"recognition memo: {RECOGNITION.hits} hits, "
        f"{RECOGNITION.misses} misses, {len(RECOGNITION)} entries",
        f"coefficient memos: expressions {EXPRESSIONS.hits} hits, "
        f"{EXPRESSIONS.misses} misses, {len(EXPRESSIONS)} entries; "
        f"validated {validated.hits} hits, {validated.misses} misses, "
        f"{len(validated)} entries",
    ]


def _check_assembly_lines(lines, sphere, eng, sign):
    """The cell-pair, block and chain-map lines: a point paired with each
    sphere cell, in degree n for a primal sphere (sign 1) and -n for a dual
    one (-1)."""
    per_degree = " ".join(f"{sign * n}:{len(sphere.cells[n])}" for n in sorted(
        sphere.cells, key=lambda n: sign * n))
    _, blocks, maps = eng.assembly_sizes()
    assert lines == [
        f"cell pairs per level: {sphere.ncells()} (by degree {per_degree})",
        f"distinct orbit-map blocks built: {blocks}",
        f"per-degree structure chain maps built: res {maps['res']}, tr {maps['tr']}, "
        f"Weyl {maps['weyl']}",
    ]
    assert blocks > 0 and all(maps.values())


def test_homology_prints_no_stats_by_default(capsys):
    code = main(["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..1"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_cohomology_stats_go_to_stderr(capsys):
    argv = ["cohomology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..8"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    hits, misses = RECOGNITION.hits, RECOGNITION.misses
    assert main(argv + ["--stats"]) == 0
    sharing, memo = _sharing_line(), _memo_lines()
    captured = capsys.readouterr()
    assert captured.out == plain.out
    lines = captured.err.splitlines()
    # the same cells again: every nonzero one is recognised from the memo
    assert RECOGNITION.misses == misses
    assert RECOGNITION.hits - hits == len(plain.out.splitlines()) > 0
    assert lines[11] == sharing
    assert lines[13:] == memo
    # cohomology reads the sphere of rhoQ as the dual complex
    sphere = sphere_complex("rhoQ", "Q8")
    assert lines[0] == "primal cells per degree: 0:1 (1 in all)"
    per_degree = " ".join(f"{n}:{len(cs)}" for n, cs in sorted(sphere.cells.items()))
    assert lines[1] == f"dual cells per degree: {per_degree} ({sphere.ncells()} in all)"
    assert [ln.split(":")[0] for ln in lines[2:8]] == [
        f"level {h}" for h in ("e", "Z", "L", "D", "R", "Q8")
    ]
    eng = cached_engine(named("Q8", "Z"), dual=sphere)  # the one the command cached
    _check_assembly_lines(lines[8:11], sphere, eng, -1)
    assert lines[12] == _zero_line(eng)


def test_stats_count_the_coefficient_memos(capsys, monkeypatch):
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo(64))  # a fresh engine
    monkeypatch.setattr(bredon, "_VALIDATED_COEFFS", LruMemo(64))
    argv = ["cohomology", "--group", "q8", "--rep", "rhoQ", "--coeff", "mg+g^2",
            "--degrees", "0..4", "--stats"]
    assert main(argv) == 0
    first = capsys.readouterr().err.splitlines()
    assert first[-3:] == _memo_lines()
    hits, misses = EXPRESSIONS.hits, EXPRESSIONS.misses
    assert main(argv) == 0
    second = capsys.readouterr().err.splitlines()
    assert second[-3:] == _memo_lines()
    # the sum is built once and its engine validated it once: the second
    # command finds both the expression and the engine
    assert (EXPRESSIONS.hits, EXPRESSIONS.misses) == (hits + 1, misses)
    assert second[-1].endswith("; validated 0 hits, 1 misses, 1 entries")


def test_stats_count_the_sphere_cache(capsys, monkeypatch):
    monkeypatch.setattr(repcw, "_SPHERE_CACHE", LruMemo(256))
    argv = ["homology", "--group", "c4", "--rep", "lambda+2sigma", "--degrees", "0..4",
            "--stats"]
    assert main(argv) == 0
    first = capsys.readouterr().err.splitlines()
    assert first[-3:] == _memo_lines()
    # the sphere and the unit sphere of lambda that its block splices
    assert first[-3].endswith(" hits, 2 misses, 2 entries")
    assert main(argv) == 0
    second = capsys.readouterr().err.splitlines()
    assert second[-3:] == _memo_lines()
    assert second[-3].endswith(" hits, 2 misses, 2 entries")


def test_stats_count_one_chain_map_per_nonzero_source(capsys, monkeypatch):
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo(64))  # a fresh engine
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())  # fresh levels
    assert main(["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4",
                 "--stats"]) == 0
    err = capsys.readouterr().err.splitlines()
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    g = eng.g
    want = {"res": 0, "tr": 0, "weyl": 0}
    for n in range(5):
        f = eng.functor(n)
        nonzero = {h for h, lv in f.levels.items() if not lv.is_trivial}
        for low, high in covering_pairs(g):
            want["res"] += high in nonzero
            want["tr"] += low in nonzero
        want["weyl"] += len(g.generators) * len(nonzero)
    assert eng.assembly_sizes()[2] == want
    assert (f"per-degree structure chain maps built: res {want['res']}, "
            f"tr {want['tr']}, Weyl {want['weyl']}") in err
    # a map for every level and degree would be many more
    every = 5 * (2 * len(covering_pairs(g)) + len(g.generators) * len(eng.levels))
    assert 0 < sum(want.values()) < every / 2


def test_stats_count_the_levels_two_coefficients_share(capsys, monkeypatch):
    # Z and Z(3,2) agree at every subgroup but Q8: the second engine builds
    # only its top level and reuses the maps the first induced out of the others
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo(64))
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    monkeypatch.setattr(bredon, "LEVEL_SHARING", dict.fromkeys(bredon.LEVEL_SHARING, 0))
    argv = ["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4", "--stats"]
    assert main(argv + ["--coeff", "Z"]) == 0
    first = capsys.readouterr().err.splitlines()
    assert ("level sharing: 6 levels built, 0 reused, 0 structure maps reused, "
            "6 live") in first
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    g = eng.g
    below_top = 0  # maps induced out of a nonzero level, cached on a level below Q8
    for n in range(5):
        nonzero = {h for h, lv in eng.functor(n).levels.items() if not lv.is_trivial}
        for low, high in covering_pairs(g):
            below_top += (high in nonzero) + (low in nonzero) if high != "Q8" else 0
        below_top += len(g.generators) * len(nonzero - {"Q8"})
    assert below_top > 0
    assert main(argv + ["--coeff", "Z(3,2)"]) == 0
    second = capsys.readouterr().err.splitlines()
    assert (f"level sharing: 7 levels built, 5 reused, {below_top} structure maps reused, "
            "7 live") in second
    # the two engines hold one value of each level below Q8
    other = suspension_engine("Q8", "rhoQ", named("Q8", "Z(3,2)"))
    assert all(other._levels[h] is eng._levels[h] for h in ("e", "Z", "L", "D", "R"))
    assert other._levels["Q8"] is not eng._levels["Q8"]


def test_stats_count_the_degrees_answered_by_the_zero_functor(capsys, monkeypatch):
    # the sphere of rhoQ has cells in degrees 1..8, and with Z coefficients
    # the degrees 3, 5 and 7 have cores but no homology
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo(64))  # a fresh engine
    assert main(["homology", "--group", "q8", "--rep", "rhoQ", "--degrees=-3..12",
                 "--stats"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert "zero degrees: 8 skipped without homology, 3 found zero after homology" in err
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    assert eng._core_degrees == set(range(1, 9))
    # the degrees again come from the engine's functor cache, and count no more
    assert main(["homology", "--group", "q8", "--rep", "rhoQ", "--degrees=-3..12",
                 "--stats"]) == 0
    assert eng.zero_degrees == {"skipped": 8, "found": 3}


@pytest.mark.parametrize("command", ["homology", "cohomology"])
@pytest.mark.parametrize("degrees, why", [
    ("5..2", "the range is empty, 5 > 2"),
    ("x", "expected n or a..b"),
    ("1..x", "expected n or a..b"),
    ("1..2..3", "expected n or a..b"),
    ("", "expected n or a..b"),
])
def test_bad_degrees_exit_one_naming_the_option(capsys, command, degrees, why):
    code = main([command, "--group", "q8", "--rep", "rhoQ", "--degrees", degrees])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: BadDegrees: --degrees {degrees!r}: {why}\n"


@pytest.mark.parametrize("degrees, want", [
    ("3", [3]), ("-2..1", [-2, -1, 0, 1]), ("4..4", [4]), ("-3", [-3]),
])
def test_degrees_are_one_degree_or_an_inclusive_range(degrees, want):
    from mackey.cli import _parse_degrees

    assert list(_parse_degrees(degrees)) == want


@pytest.mark.parametrize("rep, degrees", [
    (["--rep", "-rhoQ"], ["--degrees=-8..-1"]),
    (["--rep=-rhoQ"], ["--degrees", "-8..-1"]),
    (["--rep", "-rhoQ"], ["--degrees", "-8..-1"]),
    (["--re", "-rhoQ"], ["--deg", "-8..-1"]),
])
def test_a_negative_value_may_follow_its_option_after_a_space(capsys, rep, degrees):
    code, out = run(capsys, "homology", "--group", "q8", *rep, *degrees)
    assert code == 0 and "-8: Z*" in out
    assert out == run(capsys, "homology", "--group", "q8", "--rep=-rhoQ",
                      "--degrees=-8..-1")[1]


def test_h_after_an_option_is_never_its_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["homology", "--group", "q8", "--rep", "-h"])
    assert exc.value.code == 2
    assert "--rep: expected one argument" in capsys.readouterr().err


def test_python_dash_m_runs_the_command_line():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-m", "mackey", "show", "--group", "q8", "--name", "B(3,0)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("B(3,0) over Q8")
    bad = subprocess.run([sys.executable, "-m", "mackey", "homology", "--group", "q8",
                          "--rep", "rhoQ", "--degrees", "5..2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert bad.returncode == 1 and "--degrees" in bad.stderr


def test_isomorphism_search_limit_is_reported(capsys, monkeypatch):
    from mackey.functors import expression_functor

    # a catalog entry of free rank 2 sends recognition past the search's limit
    monkeypatch.setattr(
        "mackey.bredon.catalog", lambda g: {"Z+Z": expression_functor(g, "Z+Z")}
    )
    code = main(["homology", "--group", "c2", "--rep", "0", "--coeff", "Z+Z",
                 "--degrees", "0"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: IsomorphismSearchLimit: iso search needs free rank <= 1\n"
    )


@pytest.mark.parametrize("coeff", ["g^-1", "Z^0", "Z^x"])
def test_a_power_below_one_is_refused(capsys, coeff):
    code = main(["homology", "--group", "q8", "--rep", "rhoQ", "--coeff", coeff,
                 "--degrees", "0..1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: BadExpression: ")


def _homotopy_grid_script():
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "homotopy_grid.py"
    spec = importlib.util.spec_from_file_location("homotopy_grid", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("names, code", [
    ({0: "Z", 1: "0", 2: "g"}, 0),
    ({0: "Z", 1: None, 2: "g"}, 1),
])
def test_homotopy_grid_exits_one_on_an_unnamed_cell(monkeypatch, capsys, names, code):
    script = _homotopy_grid_script()
    z = named("C2", "Z")
    monkeypatch.setattr(script, "suspension_homotopy",
                        lambda g, rep, coeff, degrees: {n: (z, nm) for n, nm in names.items()})
    monkeypatch.setattr(sys, "argv", ["homotopy_grid.py", "--group", "c2", "--max-k", "1"])
    assert script.main() == code
    captured = capsys.readouterr()
    assert "pi_  2 = g" in captured.out and "pi_  0 = Z" in captured.out
    # a zero cell is left out; an unnamed one is printed
    assert ("pi_  1" in captured.out) == (code == 1)
    assert ("pi_  1 = (unrecognized)" in captured.out) == (code == 1)
    assert ("1 cells unrecognized" in captured.err) == (code == 1)
