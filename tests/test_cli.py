"""Command-line interface tests."""

import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from mackey import bredon, cli, repcw
from mackey.bredon import cached_engine, suspension_engine
from mackey.catalog import named
from mackey.cli import main
from mackey.functors import covering_pairs
from mackey.repcw import point_complex, sphere_complex
from mackey.slices import r_tower, slice_tower
from mackey.stats import COUNTS, LruMemo


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


@pytest.mark.parametrize("group, name", [
    ("q8", "phi_Z(mg)"), ("k4", "phi_LDR(F*)"),
    ("q8", "mg+g^2"), ("q8", "g^2"), ("q8", "phi_Z(m+g)"),
])
def test_show_evaluates_a_term(capsys, group, name):
    code, out = run(capsys, "show", "--group", group, "--name", name)
    assert code == 0 and out.startswith(f"{name} over ")


def test_show_a_zero_power_exits_one(capsys):
    code = main(["show", "--group", "q8", "--name", "g^0"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: BadExpression: 'g^0': a power must be an integer >= 1\n")


def test_a_sum_inside_an_operator_is_the_sum_of_the_operator(capsys):
    argv = ["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4", "--coeff"]
    inside = run(capsys, *argv, "phi_Z(m+g)")
    outside = run(capsys, *argv, "phi_Z(m)+phi_Z(g)")
    assert inside == outside and inside[0] == 0 and "phi_LDR(F)" in inside[1]


def test_show_a_term_with_an_unknown_argument_exits_one(capsys):
    code = main(["show", "--group", "q8", "--name", "phi_Z(nonsense)"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        "error: UnknownName: no Mackey functor named 'phi_Z(nonsense)' over q8\n")


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


@pytest.mark.parametrize("argv, tower", [
    (("--r", "4", "--j", "1"), lambda: r_tower(4, 1)),
    (("--group", "q8", "--n", "8"), lambda: slice_tower("Q8", 8)),
])
def test_tower_command_prints_every_layer(capsys, argv, tower):
    code, out = run(capsys, "tower", *argv)
    assert code == 0
    layers = tower().layers
    assert len(layers) > 1
    assert out.splitlines() == [
        f"  P^{d.t} = {d.expression()}" + (f"   over {stage}" if stage else "")
        for d, stage in layers
    ]


def test_tower_takes_either_n_or_r(capsys):
    for argv in (["--group", "q8", "--n", "8", "--r", "4"], []):
        with pytest.raises(SystemExit) as exc:
            main(["tower", *argv])
        assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--group", "k4", "--r", "4", "--j", "1"), ("--group", "c4", "--n", "8"),
])
def test_a_tower_over_another_group_is_refused(capsys, argv):
    # both forms: the recursive towers take no group, yet are Q8's alone
    code = main(["tower", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: Unsupported:") and "Q8" in captured.err


def test_a_chart_page_that_is_not_recorded_exits_one(capsys):
    code = main(["chart", "--group", "q8", "--n", "99"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: NoPage: no chart page n=99 is recorded for Q8; "
                            "the recorded pages are n = 0..13\n")


def test_a_bare_sign_in_a_representation_exits_one(capsys):
    code = main(["homology", "--group", "q8", "--rep", "rhoQ-"])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ValueError:") and "'rhoQ-'" in err


@pytest.mark.parametrize("option, text, error", [
    ("--rep", "rhoQ+", "ValueError"), ("--rep", "rhoQ++H", "ValueError"),
    ("--coeff", "Z+", "BadExpression"), ("--coeff", "mg++g", "BadExpression"),
])
def test_an_empty_term_exits_one(capsys, option, text, error):
    argv = ["homology", "--group", "q8", "--rep", "rhoQ", "--coeff", "Z"]
    argv[argv.index(option) + 1] = text
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: {error}: ") and repr(text) in captured.err


def test_inflate_leaves_an_unrecognized_result_unnamed(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "identify", lambda f: calls.append(f) or bredon.identify(f))
    argv = ("inflate", "--kind", "push", "--from", "q8", "--to", "k4", "--name", "mgw")
    code, out = run(capsys, *argv, "--json")
    assert code == 0 and json.loads(out)["name"] is None
    code, out = run(capsys, *argv)
    assert code == 0 and out.startswith("(unrecognized) over K4")
    assert len(calls) == 2  # once per command


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


@pytest.mark.parametrize("kind, src, tgt, big", [
    ("push", "k4", "c2", "K4"), ("phi", "c2", "k4", "K4"),
    ("push", "q8", "c2", "Q8"), ("psi", "c2", "q8", "Q8"),
])
def test_inflate_along_one_of_several_kernels_is_refused(capsys, kind, src, tgt, big):
    # K4 and Q8 each have three quotients C2, with kernels L, D and R
    name = "F" if src == "c2" else "Z"
    code = main(["inflate", "--kind", kind, "--from", src, "--to", tgt, "--name", name])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (
        f"error: NoQuotient: {big} has 3 quotients C2, with kernels L, D, R\n")


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
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nope"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err and "nope" in err
    listed = err.split("choose from", 1)[1]
    assert all(name in listed for name in cli.SUITES)


def test_verify_detects_corrupted_fixture(edit_golden, capsys):
    # verify must exit nonzero and print the diff when a fixture disagrees
    edit_golden("sphere_h.txt", "3 Z\n", "3 Z*\n")
    code, out = run(capsys, "verify", "--suite", "sphere-h")
    assert code == 1
    assert "expected" in out


def _check_sizes(printed, eng, sides, sign):
    """The sizes the command printed are the engine's: the cells of each
    side's complex, a point paired with each sphere cell in degree n for a
    primal sphere (sign 1) and -n for a dual one (-1), and every level."""
    assert {name: printed[name] for name in eng.sizes()} == eng.sizes()
    sphere = sides["primal" if sign == 1 else "dual"]
    for side, c in sides.items():
        assert printed[f"{side} cells"] == c.ncells()
        for n, cs in c.cells.items():
            assert printed[f"{side} cells in degree {n}"] == len(cs)
    assert printed["cell pairs"] == sphere.ncells()
    for n, cs in sphere.cells.items():
        assert printed[f"cell pairs in degree {sign * n}"] == len(cs)
    for h in ("e", "Z", "L", "D", "R", "Q8"):
        chain, core, top = (printed[f"level {h} {what}"] for what in (
            "chain generators", "core generators", "largest core entry"))
        assert 0 <= core <= chain and top >= 0
    assert printed["orbit-map blocks"] > 0


def test_homology_stats_go_to_stderr(capsys, stats, monkeypatch):
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))  # a fresh engine
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())  # fresh levels
    out, printed, grew = stats.run(
        capsys, "homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4")
    assert "4: B(3,0)" in out and "level" not in out
    # the primal complex is the sphere of rhoQ, the dual one a point
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    sides = {"primal": sphere_complex("rhoQ", "Q8"), "dual": point_complex("Q8")}
    _check_sizes(printed, eng, sides, 1)
    # the engine the command built induced res, tr and Weyl maps
    assert all(grew[f"{kind} chain maps built"] > 0 for kind in ("res", "tr", "weyl"))


def test_homology_prints_no_stats_by_default(capsys):
    code = main(["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..1"])
    assert code == 0
    assert capsys.readouterr().err == ""


def test_cohomology_stats_go_to_stderr(capsys, stats, monkeypatch):
    argv = ["cohomology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..8"]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))  # a fresh engine
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())  # fresh levels
    out, printed, grew = stats.run(capsys, *argv)
    assert out == plain.out
    # the same cells again: every nonzero one is recognised from the memo
    assert grew["recognition memo misses"] == 0
    assert grew["recognition memo hits"] == len(plain.out.splitlines()) > 0
    # cohomology reads the sphere of rhoQ as the dual complex
    eng = cached_engine(named("Q8", "Z"), dual=sphere_complex("rhoQ", "Q8"))
    sides = {"primal": point_complex("Q8"), "dual": sphere_complex("rhoQ", "Q8")}
    assert printed["primal cells in degree 0"] == printed["primal cells"] == 1
    _check_sizes(printed, eng, sides, -1)
    assert all(grew[f"{kind} chain maps built"] > 0 for kind in ("res", "tr", "weyl"))


@pytest.mark.parametrize("argv", [
    ["homology", "--group", "q8", "--rep", "rhoQ", "--coeff", "Z", "--degrees", "0..4"],
    ["homology", "--group", "q8", "--rep", "rhoQ", "--coeff", "Z", "--degrees=-3..12"],
    ["homology", "--group", "c4", "--rep", "lambda+2sigma", "--coeff", "Z", "--degrees", "0..4"],
    ["cohomology", "--group", "q8", "--rep", "rhoQ", "--coeff", "mg+g^2", "--degrees", "0..4"],
])
def test_every_stats_line_is_a_name_of_its_own_and_its_value(capsys, stats, argv):
    # stats.run checks the name: value form, that no name repeats and that
    # every count is printed
    _, printed, _ = stats.run(capsys, *argv)
    memos = ("recognition memo", "sphere cache", "validation memo", "engine cache")
    assert {f"{m} {e}" for m in memos for e in ("hits", "misses", "evictions")} <= set(printed)


def test_stats_count_the_coefficient_memos(capsys, stats, monkeypatch):
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))  # a fresh engine
    monkeypatch.setattr(bredon, "_VALIDATED_COEFFS", LruMemo("validation memo", 64))
    argv = ["cohomology", "--group", "q8", "--rep", "rhoQ", "--coeff", "mg+g^2",
            "--degrees", "0..4"]
    _, _, first = stats.run(capsys, *argv)
    assert (first["validation memo hits"], first["validation memo misses"]) == (0, 1)
    _, _, second = stats.run(capsys, *argv)
    # the sum is built once and its engine validated it once: the second
    # command finds both the sum and the engine
    assert named("q8", "mg+g^2") is named("Q8", "mg + g^2")
    assert (second["validation memo hits"], second["validation memo misses"]) == (0, 0)
    assert len(bredon._VALIDATED_COEFFS) == 1


def test_stats_count_the_sphere_cache(capsys, stats, monkeypatch):
    monkeypatch.setattr(repcw, "_SPHERE_CACHE", LruMemo("sphere cache", 256))
    argv = ["homology", "--group", "c4", "--rep", "lambda+2sigma", "--degrees", "0..4"]
    _, _, first = stats.run(capsys, *argv)
    # the sphere and the unit sphere of lambda that its block splices
    assert first["sphere cache misses"] == len(repcw._SPHERE_CACHE) == 2
    _, _, second = stats.run(capsys, *argv)
    assert second["sphere cache misses"] == 0 and len(repcw._SPHERE_CACHE) == 2


def _generator_cosets(g, h: str) -> set[frozenset]:
    """The cosets eH of the generators e of G outside H, as sets of elements."""
    sub = g.subgroup(h).elements
    return {frozenset(g.mul(e, x) for x in sub) for e in g.generators if e not in sub}


def test_stats_count_one_chain_map_per_nonzero_source(capsys, stats, monkeypatch):
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))  # a fresh engine
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())  # fresh levels
    _, _, grew = stats.run(capsys, "homology", "--group", "q8", "--rep", "rhoQ",
                           "--degrees", "0..4")
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    g = eng.g
    want = {"res": 0, "tr": 0, "weyl": 0}
    weyl_skipped = {"weyl maps taken as identity": 0, "weyl maps shared by coset": 0}
    for n in range(5):
        f = eng.functor(n)
        nonzero = {h for h, lv in f.levels.items() if not lv.is_trivial}
        for low, high in covering_pairs(g):
            want["res"] += high in nonzero
            want["tr"] += low in nonzero
        for h in nonzero:
            # one Weyl chain map per coset eH of the generators outside H
            inside = sum(e in g.subgroup(h).elements for e in g.generators)
            cosets = len(_generator_cosets(g, h))
            want["weyl"] += cosets
            weyl_skipped["weyl maps taken as identity"] += inside
            weyl_skipped["weyl maps shared by coset"] += len(g.generators) - inside - cosets
    assert {kind: grew[f"{kind} chain maps built"] for kind in want} == want
    assert {name: grew[name] for name in weyl_skipped} == weyl_skipped
    assert all(weyl_skipped.values())
    # a map for every level and degree would be many more
    every = 5 * (2 * len(covering_pairs(g)) + len(g.generators) * len(eng.levels))
    assert 0 < sum(want.values()) < every / 2


def test_stats_count_the_levels_two_coefficients_share(capsys, stats, monkeypatch):
    # Z and Z(3,2) agree at every subgroup but Q8: the second engine builds
    # only its top level and reuses the maps the first induced out of the others
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    argv = ["homology", "--group", "q8", "--rep", "rhoQ", "--degrees", "0..4"]
    sharing = ("levels built", "levels reused", "structure maps reused")
    _, printed, grew = stats.run(capsys, *argv, "--coeff", "Z")
    assert [grew[name] for name in sharing] == [6, 0, 0] and printed["live levels"] == 6
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    g = eng.g
    below_top = 0  # maps induced out of a nonzero level, cached on a level below Q8
    for n in range(5):
        nonzero = {h for h, lv in eng.functor(n).levels.items() if not lv.is_trivial}
        for low, high in covering_pairs(g):
            below_top += (high in nonzero) + (low in nonzero) if high != "Q8" else 0
        below_top += sum(len(_generator_cosets(g, h)) for h in nonzero - {"Q8"})
    assert below_top > 0
    _, printed, grew = stats.run(capsys, *argv, "--coeff", "Z(3,2)")
    assert [grew[name] for name in sharing] == [1, 5, below_top]
    assert printed["live levels"] == 7
    # the two engines hold one value of each level below Q8
    other = suspension_engine("Q8", "rhoQ", named("Q8", "Z(3,2)"))
    assert all(other._levels[h] is eng._levels[h] for h in ("e", "Z", "L", "D", "R"))
    assert other._levels["Q8"] is not eng._levels["Q8"]


def test_stats_count_the_degrees_answered_by_the_zero_functor(capsys, stats, monkeypatch):
    # the sphere of rhoQ has cells in degrees 1..8, and with Z coefficients
    # the degrees 3, 5 and 7 have cores but no homology
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))  # a fresh engine
    argv = ["homology", "--group", "q8", "--rep", "rhoQ", "--degrees=-3..12"]
    zero = ("zero degrees skipped", "zero degrees found")
    _, _, grew = stats.run(capsys, *argv)
    assert [grew[name] for name in zero] == [8, 3]
    eng = suspension_engine("Q8", "rhoQ", named("Q8", "Z"))  # the one the command cached
    assert eng._core_degrees == set(range(1, 9))
    # the degrees again come from the engine's functor cache, and count no more
    _, _, grew = stats.run(capsys, *argv)
    assert [grew[name] for name in zero] == [0, 0]


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
