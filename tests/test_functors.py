"""Catalog and Mackey-functor structure tests: axioms on every named
functor, duality, the seven short exact sequences, and isomorphism search.
"""

import gc
import itertools
import os
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from functools import reduce
from math import gcd
from pathlib import Path

import pytest

from mackey.catalog import catalog, named
from mackey.inflation import phi_inflate
from mackey.exactalg import AbHom, FgAbelian, NonComposable, homology_at
from mackey.bredon import identify, suspension_homotopy
from mackey.cli import _span
from mackey.functors import (
    RECOGNITION,
    AxiomReport,
    BadExpression,
    MackeyFunctor,
    MackeyMorphism,
    IsomorphismSearchLimit,
    Mismatch,
    MixedTorsion,
    UnknownName,
    _all_chains,
    _compose_res,
    _compose_tr,
    _double_cosets_within,
    _split_off,
    _strip_g,
    box_dual,
    check_axioms,
    covering_pairs,
    data_equal,
    expression_functor,
    find_isomorphism,
    hom_group,
    is_isomorphic,
    match_expression,
    ses_check,
    strip_g_summands,
    zero_functor,
)
from mackey.golden import degree_table
from mackey.grouplat import group
from mackey.repcw import sphere_complex


ALL_GROUPS = ("T", "C2", "C4", "K4", "Q8")


def test_catalog_passes_axioms():
    # phi_Z(X) is zero at e, so its tr . res at e < Z is zero, and must be
    # the index 2 on X's bottom level: phi_Z(X) is cohomological iff 2 kills
    # that level; every other entry is cohomological
    for gname in ALL_GROUPS:
        for nm, f in catalog(gname).items():
            report = check_axioms(f)
            assert report.ok, f"{gname}:{nm} -> {report}"
            inner = re.fullmatch(r"phi_Z\((.+)\)", nm) if gname == "Q8" else None
            want = inner is None or all(
                o in (1, 2) for o in named("K4", inner[1]).levels["e"].orders)
            assert f.is_zmodule == want, f"{gname}:{nm}"


def test_is_zmodule_is_read_off_the_data():
    z, phi = named("Q8", "Z"), named("Q8", "phi_Z(Z)")
    assert z.is_zmodule and not phi.is_zmodule
    assert z.direct_sum(z).is_zmodule and not z.direct_sum(phi).is_zmodule
    assert "is_zmodule" not in {fld.name for fld in fields(z)}
    # the name is keyword-only, so a flag in its old place is refused
    with pytest.raises(TypeError):
        MackeyFunctor("Q8", z.levels, z.res, z.tr, {}, True)


def test_box_dual_is_unnamed_and_the_catalog_names_duals():
    g = named("K4", "g")
    assert box_dual(g).name is None and box_dual(g).content_key == g.content_key
    assert named("K4", "Z*").content_key == box_dual(named("K4", "Z")).content_key
    assert named("K4", "Z*").name == "Z*"


def test_expected_catalog_contents():
    for nm in ("Z", "Z*", "Z(2,1)", "B(2,0)", "g", "phi(f)", "phi(F)", "phi(F*)"):
        named("C4", nm)
    for nm in ("Z", "Z*", "Z(2,1)", "F", "F*", "B(2,0)", "phi_LDR(F)",
               "phi_LDR(F*)", "phi_LDR(f)", "mg", "mg*", "g", "m", "m*",
               "w", "w*"):
        named("K4", nm)
    for nm in ("Z", "Z*", "B(3,0)", "Z(3,2)", "Z(3,1)", "Z(2,1)", "Z(1,0)",
               "Z(2,0)", "phi_Z(B(2,0))", "phi_Z(F)", "phi_Z(F*)", "mgw",
               "mg", "m", "w", "w*", "g"):
        named("Q8", nm)
    with pytest.raises(UnknownName):
        named("Q8", "nonsense")


def test_name_normalization():
    assert named("Q8", "φ*_Z F") is named("Q8", "phi_Z(F)")
    assert named("q8", "B(3,0)").name == "B(3,0)"


def test_each_catalog_entry_is_its_name_evaluated():
    assert [len(catalog(g)) for g in ALL_GROUPS] == [4, 7, 8, 16, 37]
    for gname in ALL_GROUPS:
        for nm, f in catalog(gname).items():
            assert f is named(gname, nm) and f.name == nm
    # over Q8 a bare name of the explicit list is phi_Z of the K4 name
    q8 = group("Q8")
    along_z = q8.quotient(q8.subgroup("Z"))
    for nm in ("m", "m*", "w", "w*", "mg", "mg*", "phi_LDR(F)", "phi_LDR(F*)",
               "phi_LDR(f)", "g"):
        want = phi_inflate(along_z, named("K4", nm)).content_key
        assert named("Q8", nm).content_key == want, nm
        assert named("Q8", f"phi_Z({nm})").content_key == want, nm


def test_a_term_outside_the_catalog_is_evaluated():
    c4 = group("C4")
    phi_z = named("C4", "phi(Z)")
    assert "phi(Z)" not in catalog("C4") and phi_z.name == "phi(Z)"
    assert data_equal(phi_z, phi_inflate(c4.quotient(c4.subgroup("C2")), named("C2", "Z")))
    assert named("K4", "mg**").content_key == named("K4", "mg").content_key
    for gname, term in (("Q8", "phi_Z(nonsense)"), ("Q8", "B(2,0)"),
                        ("Q8", "phi_LDR(Z)"), ("K4", "phi(F)"), ("C4", "F")):
        with pytest.raises(UnknownName, match=rf"^no Mackey functor named "
                                              rf"{re.escape(repr(term))} over {gname}$"):
            named(gname, term)
    with pytest.raises(ValueError, match=r"^unknown group 'c8'$"):
        named("c8", "Z")


def test_a_sum_inside_an_operator_is_the_sum_of_its_inflations():
    for gname, inside, outside in (("Q8", "phi_Z(m+g)", "phi_Z(m)+phi_Z(g)"),
                                   ("C4", "phi(F+g^2)", "phi(F)+phi(g)^2")):
        f = named(gname, inside)
        assert f.name == inside and f.content_key == named(gname, outside).content_key
    assert named("Q8", "φ*_Z(m + g)") is named("Q8", "phi_Z(m+g)")
    with pytest.raises(UnknownName, match=r"^no Mackey functor named "
                                          r"'phi_Z\(m \+ bogus\)' over q8$"):
        named("q8", "phi_Z(m + bogus)")
    # the zero sum, spelled either way, is one value
    assert named("Q8", "") is named("Q8", "0") is named("q8", " 0 ")
    assert named("Q8", "0").is_trivial() and named("Q8", "0").name == "0"


def test_a_named_copy_shares_the_values_cached_on_its_content():
    f = zero_functor("Q8").direct_sum(named("Q8", "Z"))
    key, _, composite = f.content_key, f.is_zmodule, f.res_map("e", "Q8")
    twin = f.with_name("renamed")
    assert twin is not f and (twin.name, f.name) == ("renamed", None)
    assert {"content_key", "is_zmodule"} <= vars(twin).keys()
    assert twin.content_key is key and twin._map_memo is f._map_memo
    assert twin.res_map("e", "Q8") is composite


def test_every_name_identify_gives_evaluates_to_a_match():
    # a sum with a power, beyond the rows below
    f = zero_functor("Q8").direct_sum(named("Q8", "m")).direct_sum(named("Q8", "g^2"))
    assert identify(f) == "m+g^2" and match_expression(f, "m+g^2")
    sums = set()
    for gname, filename in (("Q8", "qrho_grid.txt"), ("K4", "krho_grid.txt"),
                            ("Q8", "aux_mixed.txt")):
        for key in degree_table(filename):
            rep, coeff = key.split()
            got = suspension_homotopy(gname, rep, named(gname, coeff), _span(gname, rep))
            for n, (f, nm) in got.items():
                assert nm == identify(f) and nm is not None, (key, n)
                assert named(gname, nm).name == nm
                assert match_expression(f, nm), (key, n, nm)
                if "+" in nm or "^" in nm:
                    sums.add(nm)
    assert {"phi_LDR(F)+g", "g^3"} <= sums


def test_constant_z_shape():
    z = named("Q8", "Z")
    for s in group("Q8").subgroups():
        assert z.levels[s.name] == FgAbelian((0,))
    for key, h in z.res.items():
        assert h.matrix == ((1,),)
    for key, h in z.tr.items():
        assert h.matrix == ((2,),)


def test_b30_levels():
    b = named("Q8", "B(3,0)")
    assert b.levels["Q8"] == FgAbelian((8,))
    assert b.levels["L"] == FgAbelian((4,))
    assert b.levels["Z"] == FgAbelian((2,))
    assert b.levels["e"].is_trivial


def test_mgw_levels_and_maps():
    f = named("Q8", "mgw")
    assert f.levels["Q8"] == FgAbelian((2, 2))
    assert f.levels["L"] == FgAbelian((4,))
    assert f.levels["Z"] == FgAbelian((2,))
    assert f.levels["e"].is_trivial
    assert f.res[("L", "Q8")].matrix == ((2, 0),)
    assert f.res[("D", "Q8")].matrix == ((2, 2),)
    assert f.tr[("R", "Q8")].matrix == ((1,), (0,))
    # sign action of the Weyl quotient at the index-two levels
    w = f.weyl_action("L", "j")
    assert w.matrix == ((3,),)
    assert f.weyl_action("L", "i").matrix == ((1,),)


def test_injected_fault_is_caught():
    z = named("Q8", "Z")
    broken = dict(z.tr)
    lvl = z.levels["Z"]
    broken[("Z", "L")] = AbHom(lvl, lvl, ((3,),))
    from mackey.functors import MackeyFunctor

    bad = MackeyFunctor("Q8", dict(z.levels), dict(z.res), broken)
    report = check_axioms(bad)
    assert not report.ok
    assert any("double coset" in f for f in report.failures)


def test_box_dual_pairs():
    assert is_isomorphic(box_dual(named("Q8", "Z")), named("Q8", "Z*"))
    assert is_isomorphic(box_dual(named("K4", "w")), named("K4", "w*"))
    assert is_isomorphic(box_dual(named("K4", "g")), named("K4", "g"))
    with pytest.raises(MixedTorsion):
        badlevels = dict(named("Q8", "Z").levels)
        from mackey.functors import MackeyFunctor

        z = named("Q8", "Z")
        badlevels["e"] = FgAbelian((2,))
        res = dict(z.res)
        tr = dict(z.tr)
        lvlz = z.levels["Z"]
        res[("e", "Z")] = AbHom(lvlz, badlevels["e"], ((1,),))
        tr[("e", "Z")] = AbHom(badlevels["e"], lvlz, ((0,),))
        box_dual(MackeyFunctor("Q8", badlevels, res, tr))


def test_each_group_has_one_catalog_however_it_is_spelled():
    assert named("q8", "Z") is named("Q8", "Z")
    assert catalog("k") is catalog("k4") is catalog("K4")
    assert catalog("trivial") is catalog("T")


def test_box_dual_involution_on_catalog():
    for gname in ("C4", "K4", "Q8"):
        for nm, f in catalog(gname).items():
            kinds = {
                "free" if v.is_free else "finite"
                for v in f.levels.values()
                if not v.is_trivial
            }
            if len(kinds) > 1:
                continue
            assert is_isomorphic(box_dual(box_dual(f)), f), f"{gname}:{nm}"


from mackey.catalog import seven_sequences


def test_seven_short_exact_sequences():
    assert len(seven_sequences()) == 7
    for idx, (i, p) in enumerate(seven_sequences(), start=1):
        assert ses_check(i, p), f"sequence {idx} is not short exact"


def test_ses_mismatch():
    seqs = seven_sequences()
    i = seqs[1][0]  # lands in Z
    p = seqs[2][1]  # departs from Z(3,2)
    with pytest.raises(Mismatch):
        ses_check(i, p)
    # composable but not exact: Z(3,1) -> Z -> g drops the index-two part
    assert not ses_check(seqs[1][0], seqs[0][1])


def test_is_isomorphic_basics():
    assert is_isomorphic(named("Q8", "Z"), named("Q8", "Z"))
    assert not is_isomorphic(named("Q8", "Z"), named("Q8", "Z*"))
    assert not is_isomorphic(named("K4", "m"), named("K4", "m*"))
    assert not is_isomorphic(named("K4", "mg"), named("K4", "phi_LDR(F)"))


def test_catalog_entries_pairwise_distinct():
    for gname in ("K4", "Q8"):
        table = catalog(gname)
        items = sorted(table)
        for i, a in enumerate(items):
            for b in items[i + 1:]:
                if f"phi_Z({a})" == b or f"phi_Z({b})" == a:
                    continue  # registered alias over Q8
                assert not is_isomorphic(
                    table[a], table[b]
                ), f"{a} and {b} should differ"


def test_isomorphism_search_limits_raise_a_typed_error():
    assert not issubclass(IsomorphismSearchLimit, NotImplementedError)
    zz = expression_functor("C2", "Z+Z")  # free rank 2 at every level
    with pytest.raises(IsomorphismSearchLimit, match="free rank"):
        is_isomorphic(zz, zz)
    # g summands are split off before any search, so g^5 is answered
    g5 = expression_functor("K4", "g^5")
    assert g5.levels["K4"] == FgAbelian((2,) * 5)
    assert is_isomorphic(g5, g5)
    # End(F^5) is the 5 x 5 matrices over End(F) = Z/2: 2^25 elements
    f5 = expression_functor("K4", "F^5")
    assert hom_group(f5, f5)[0] == FgAbelian((2,) * 25)
    with pytest.raises(IsomorphismSearchLimit, match="too large"):
        is_isomorphic(f5, f5)


def test_match_expression():
    m = named("K4", "m")
    g = named("K4", "g")
    s = m.direct_sum(g).direct_sum(g)
    assert match_expression(s, "m + g^2")
    assert not match_expression(s, "m + g")
    assert match_expression(zero_functor("Q8"), "")
    assert not match_expression(named("Q8", "g"), "")
    # the non-split check: m + g is not phi_Z(F)
    assert not is_isomorphic(
        named("Q8", "m").direct_sum(named("Q8", "g")), named("Q8", "phi_Z(F)")
    )


def _fixture_terms(expr):
    """(name, multiplicity) for each term of a fixture sum, whose operators
    hold no sums."""
    return [(nm, int(p or 1)) for nm, _, p in
            (t.partition("^") for t in expr.split("+") if t)]


def _two_step_match(m, expr):
    """match_expression in two steps: strip m, strip the sum of expr's terms
    other than g, compare the powers of g, then search the complements."""
    terms = _fixture_terms(expr)
    rest = [named(m.group_name, nm) for nm, mult in terms if nm != "g" for _ in range(mult)]
    k_b, red_b = _strip_g(reduce(MackeyFunctor.direct_sum, rest, zero_functor(m.group_name)))
    k_m, red_m = _strip_g(m)
    g_count = sum(mult for nm, mult in terms if nm == "g")
    return k_m == g_count + k_b and find_isomorphism(red_m, red_b) is not None


@pytest.mark.parametrize("gname, filename", [
    ("Q8", "qrho_grid.txt"), ("K4", "krho_grid.txt"), ("K4", "krho_mod2_grid.txt"),
])
def test_match_expression_agrees_with_the_two_step_definition(gname, filename):
    # every cell over its row's span, against its fixture expression, that
    # expression plus g, and g^9
    verdicts = []
    for key, row in degree_table(filename).items():
        rep, coeff = key.split()
        got = suspension_homotopy(gname, rep, expression_functor(gname, coeff), _span(gname, rep))
        for n, (f, _) in got.items():
            want = row.get(n, "0")
            want = "" if want == "0" else want
            for expr in (want, f"{want}+g" if want else "g", "g^9"):
                verdict = match_expression(f, expr)
                assert verdict is _two_step_match(f, expr), (key, n, expr)
                verdicts.append(verdict)
    assert verdicts.count(True) == len(verdicts) // 3


def test_a_composite_map_needs_a_contained_pair():
    z = named("Q8", "Z")
    for composite in (z.res_map, z.tr_map):
        with pytest.raises(ValueError, match="L is not contained in D"):
            composite("L", "D")


_AXIOM_REPORTS = """
import hashlib
from mackey.catalog import catalog
from mackey.functors import check_axioms
for gname in ("T", "C2", "C4", "K4", "Q8"):
    for nm, f in sorted(catalog(gname).items()):
        checked = "\\n".join(check_axioms(f).checked).encode()
        print(gname, nm, hashlib.sha256(checked).hexdigest())
"""


def test_axiom_reports_do_not_depend_on_the_string_hash_seed():
    src = str(Path(check_axioms.__code__.co_filename).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _AXIOM_REPORTS], capture_output=True, text=True,
            check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout.splitlines()
        for seed in ("0", "1")
    ]
    assert len(runs[0]) == sum(len(catalog(g)) for g in ALL_GROUPS)
    assert runs[0] == runs[1]


@pytest.mark.parametrize("expr", ["g^-1", "Z^0", "Z^x"])
def test_a_power_below_one_is_a_bad_expression(expr):
    with pytest.raises(BadExpression):
        named("Q8", expr)
    with pytest.raises(BadExpression):
        match_expression(zero_functor("Q8"), f"{expr}+g")
    assert issubclass(BadExpression, ValueError)


@pytest.mark.parametrize("expr", ["Z+", "mg++g", "+Z", "Z + "])
def test_an_empty_term_is_a_bad_expression(expr):
    with pytest.raises(BadExpression, match="an empty term"):
        named("Q8", expr)
    with pytest.raises(BadExpression, match="an empty term"):
        named("Q8", f"phi_Z({expr})")
    g = named("Q8", "g")
    want = named("Q8", "mg").direct_sum(g.direct_sum(g))
    assert named("Q8", "mg + g^2").content_key == want.content_key


def test_expression_functor_sum_levels():
    s = expression_functor("K4", "g^3")
    assert s.levels["K4"] == FgAbelian((2, 2, 2))
    assert s.levels["e"].is_trivial


# ---------------------------------------------------------------------------
# the map find_isomorphism returns, against a brute-force reference search
# that enumerates the automorphisms of each level


def _reference_isos(a, b):
    """Every isomorphism a -> b of free rank <= 1, in enumeration order."""
    if a != b:
        return []
    if a.is_trivial:
        return [AbHom.zero(a, b)]
    cols = []
    for order in a.orders:
        choices = []
        for o in b.orders:
            if order == 0:
                choices.append(range(-1, 2) if o == 0 else range(o))
            else:
                choices.append((0,) if o == 0 else range(0, o, o // gcd(o, order)))
        cols.append(list(itertools.product(*choices)))
    elems = list(itertools.product(*[(0,) if o == 0 else range(o) for o in a.orders]))
    target = {b.reduce_vec(v) for v in itertools.product(
        *[(0,) if o == 0 else range(o) for o in b.orders])}
    out = []
    for combo in itertools.product(*cols):
        h = AbHom(a, b, tuple(zip(*combo)))
        free = [j for j, o in enumerate(a.orders) if o == 0]
        if free and sum(
            abs(h.matrix[i][free[0]]) for i, o in enumerate(b.orders) if o == 0
        ) != 1:
            continue
        image = {h(v) for v in elems}
        if image == target and len(image) == len(elems):
            out.append(h)
    return out


def _reference_find_isomorphism(a, b):
    """Levelwise candidates filtered by Weyl equivariance on AbHom objects,
    then top-down backtracking over res and tr."""
    g = a.group()
    subs = [s.name for s in reversed(g.subgroups())]
    if any(a.levels[s] != b.levels[s] for s in subs):
        return None
    cand = {}
    for s in subs:
        cand[s] = [
            h for h in _reference_isos(a.levels[s], b.levels[s])
            if all(
                h.compose(a.weyl_action(s, e)).equals(b.weyl_action(s, e).compose(h))
                for e in g.elements
            )
        ]
    pairs = covering_pairs(g)
    assignment = {}

    def consistent(s, h):
        for low, high in pairs:
            if low == s and high in assignment:
                f_high = assignment[high]
                if not (h.compose(a.res[(low, high)]).equals(
                        b.res[(low, high)].compose(f_high))
                        and f_high.compose(a.tr[(low, high)]).equals(
                        b.tr[(low, high)].compose(h))):
                    return False
            if high == s and low in assignment:
                f_low = assignment[low]
                if not (f_low.compose(a.res[(low, high)]).equals(
                        b.res[(low, high)].compose(h))
                        and h.compose(a.tr[(low, high)]).equals(
                        b.tr[(low, high)].compose(f_low))):
                    return False
        return True

    def backtrack(idx):
        if idx == len(subs):
            return True
        for h in cand[subs[idx]]:
            if consistent(subs[idx], h):
                assignment[subs[idx]] = h
                if backtrack(idx + 1):
                    return True
                del assignment[subs[idx]]
        return False

    return dict(assignment) if backtrack(0) else None


def _invertible(h):
    """Whether the level map h has trivial kernel and cokernel."""
    return (homology_at(None, h).group.is_trivial
            and homology_at(h, None).group.is_trivial)


def _check_returned_iso(a, b):
    """find_isomorphism finds a map exactly when the reference search does,
    and the map it returns is a morphism invertible at every level."""
    iso = find_isomorphism(a, b)
    ref = _reference_find_isomorphism(a, b)
    assert (iso is None) == (ref is None)
    if iso is None:
        return None
    assert set(iso) == {s.name for s in a.group().subgroups()}
    MackeyMorphism(a, b, iso)  # raises Mismatch unless res, tr, Weyl commute
    assert all(_invertible(h) for h in iso.values())
    return iso


def test_returned_isomorphism_on_catalog_pairs():
    found = 0
    for gname in ALL_GROUPS:
        table = catalog(gname)
        subs = [s.name for s in group(gname).subgroups()]
        for x, y in itertools.product(sorted(table), repeat=2):
            a, b = table[x], table[y]
            if any(a.levels[s] != b.levels[s] for s in subs):
                continue
            iso = _check_returned_iso(a, b)
            found += iso is not None
            if x == y:
                assert iso is not None, f"{gname}:{x}"
    # the registered Q8 aliases phi_Z(X) ~ X add pairs off the diagonal
    assert found > sum(len(catalog(gn)) for gn in ALL_GROUPS)


def _level_maps(a, b):
    """Every homomorphism between two finite presentations."""
    steps = [range(0, bo, bo // gcd(ao, bo)) for bo in b.orders for ao in a.orders]
    n = a.ngens
    for entries in itertools.product(*steps):
        yield AbHom(a, b, tuple(entries[i * n:(i + 1) * n] for i in range(b.ngens)))


def _commutes(a, b, comps):
    """Whether the level maps commute with res, tr and every Weyl map, by
    composing them."""
    g = a.group()
    for key in covering_pairs(g):
        low, high = key
        if not (comps[low].compose(a.res[key]).equals(b.res[key].compose(comps[high]))
                and comps[high].compose(a.tr[key]).equals(b.tr[key].compose(comps[low]))):
            return False
    return all(comps[s.name].compose(a.weyl_action(s.name, e)).equals(
        b.weyl_action(s.name, e).compose(comps[s.name]))
        for s in g.subgroups() for e in g.elements)


@pytest.mark.parametrize("gname", ["C2", "K4"])
def test_hom_group_order_matches_a_brute_force_count(gname):
    # every tuple of level maps between catalog functors whose levels are
    # finite of order at most 16; MackeyMorphism keeps exactly the tuples
    # that commute when composed
    table = catalog(gname)
    small = [nm for nm, f in sorted(table.items())
             if all(lvl.is_finite and lvl.order() <= 16 for lvl in f.levels.values())]
    subs = [s.name for s in group(gname).subgroups()]
    for x, y in itertools.product(small, repeat=2):
        a, b = table[x], table[y]
        count = 0
        for maps in itertools.product(*(list(_level_maps(a.levels[s], b.levels[s]))
                                        for s in subs)):
            comps = dict(zip(subs, maps))
            try:
                MackeyMorphism(a, b, comps)
                ok = True
            except Mismatch:
                ok = False
            assert ok == _commutes(a, b, comps), (x, y, comps)
            count += ok
        assert hom_group(a, b)[0].order() == count, (x, y)


def test_hom_group_pins():
    z, g = named("Q8", "Z"), named("Q8", "g")
    hom, gens = hom_group(z, z)
    assert hom == FgAbelian((0,))
    MackeyMorphism(z, z, gens[0])
    assert all(_invertible(h) for h in gens[0].values())  # the identity, up to sign
    assert hom_group(g, g)[0] == FgAbelian((2,))
    assert hom_group(z, g)[0] == FgAbelian((2,))  # Z -> g, the top's reduction mod 2
    assert hom_group(g, z)[0].is_trivial


@pytest.mark.parametrize("gname, rho, size, max_k", [
    ("K4", "rhoK", 4, 4),
    ("Q8", "rhoQ", 8, 2),
])
def test_every_mod_two_cell_is_isomorphic_to_itself(gname, rho, size, max_k):
    # F cells of the +-k rho suspensions, whose top levels reach (Z/2)^5
    # and past, where a search without splitting g off first stops
    f = expression_functor(gname, "F")
    for k in range(1, max_k + 1):
        for sign, degrees in (("", range(0, size * k + 1)), ("-", range(-size * k, 1))):
            row = suspension_homotopy(gname, f"{sign}{k}{rho}", f, degrees)
            for n, (cell, _) in row.items():
                if not cell.is_trivial():
                    assert is_isomorphic(cell, cell), (sign, k, n)


@pytest.mark.parametrize(
    "gname, left, right",
    [
        ("Q8", "m + g + Z", "Z + m"),
        ("Q8", "phi_Z(F) + g^2", "phi_Z(F)"),
        ("Q8", "w + Z(2,1) + g", "Z(2,1) + w"),
        ("K4", "m + w + g", "w + m"),
        ("C4", "Z(2,1) + g^2", "Z(2,1)"),
    ],
)
def test_returned_isomorphism_after_stripping_g(gname, left, right):
    a = strip_g_summands(expression_functor(gname, left))[1]
    b = strip_g_summands(expression_functor(gname, right))[1]
    assert _check_returned_iso(a, b) is not None


def _c2_with_action_at_e(action):
    """Over C2: level e is (Z/2)^2 with s acting by the given matrix, the
    top level is zero; res and tr are zero."""
    e, top = FgAbelian((2, 2)), FgAbelian(())
    weyl = {("e", "s"): AbHom(e, e, action)} if action else {}
    return MackeyFunctor(
        "C2", {"e": e, "C2": top},
        {("e", "C2"): AbHom.zero(top, e)}, {("e", "C2"): AbHom.zero(e, top)},
        weyl,
    )


def test_returned_isomorphism_respects_the_weyl_action():
    swap = _c2_with_action_at_e(((0, 1), (1, 0)))
    shear = _c2_with_action_at_e(((1, 1), (0, 1)))
    trivial = _c2_with_action_at_e(None)
    # res and tr say nothing here, so only the Weyl filter rules candidates out
    iso = _check_returned_iso(swap, shear)
    assert iso is not None and not iso["e"].equals(AbHom.identity(FgAbelian((2, 2))))
    assert _check_returned_iso(trivial, swap) is None
    assert _check_returned_iso(shear, trivial) is None


def _c2_with_weyl_off_level():
    """_c2_with_action_at_e(None) with a Weyl map at e onto (2, 2, 1): the
    same group as the level (2, 2), in another presentation."""
    e, wide = FgAbelian((2, 2)), FgAbelian((2, 2, 1))
    return replace(_c2_with_action_at_e(None),
                   weyl={("e", "s"): AbHom(e, wide, ((0, 1), (1, 0), (0, 0)))})


def test_weyl_map_off_the_level_presentation_is_refused():
    # the levels agree, but a Weyl map onto the second presentation is not
    # an endomorphism of the level, so no functor holds it
    with pytest.raises(ValueError, match=r"^weyl map at e,s maps \(2, 2\) -> \(2, 2, 1\)"):
        _c2_with_weyl_off_level()
    # the same map at the top level, where the g-split reads it
    g2 = expression_functor("C2", "g^2")
    top = g2.levels["C2"]
    with pytest.raises(ValueError, match="^weyl map at C2,s "):
        replace(g2, weyl={("C2", "s"): AbHom(top, FgAbelian((2, 2, 1)),
                                             ((1, 0), (0, 1), (0, 0)))})


def test_check_axioms_checks_only_the_mackey_axioms():
    # a map off its level never reaches the check: construction refuses it
    for gname in ALL_GROUPS:
        for nm, f in sorted(catalog(gname).items()):
            labels = check_axioms(f).checked
            assert not any("shape" in x or "present" in x for x in labels), (gname, nm)


@pytest.mark.parametrize("orders, action", [
    ((2, 2), ((1, 0), (0, 1))),
    # an order-1 generator: the matrix reduces to the reduced identity
    ((2, 1), ((1, 0), (0, 1))),
])
def test_an_identity_weyl_map_of_its_level_is_not_stored(orders, action):
    lvl, top = FgAbelian(orders), FgAbelian(())
    res, tr = {("e", "C2"): AbHom.zero(top, lvl)}, {("e", "C2"): AbHom.zero(lvl, top)}
    plain = MackeyFunctor("C2", {"e": lvl, "C2": top}, res, tr)
    given = MackeyFunctor("C2", {"e": lvl, "C2": top}, res, tr,
                          {("e", "s"): AbHom(lvl, lvl, action)})
    assert dict(given.weyl) == dict(plain.weyl) == {}
    assert given.content_key == plain.content_key
    # an identity onto another presentation of the level is no Weyl map
    wide = FgAbelian(orders + (1,))
    with pytest.raises(ValueError, match="^weyl map at e,s "):
        MackeyFunctor("C2", {"e": lvl, "C2": top}, res, tr,
                      {("e", "s"): AbHom(lvl, wide, action + ((0,) * len(orders),))})


def _malformed_c2_z(case):
    """The changes that break one piece of the shape of C2's constant
    functor Z, and the message that refuses them."""
    z = named("C2", "Z")
    lvl, pair = z.levels["C2"], ("e", "C2")
    two = FgAbelian((0, 1))  # Z again, in another presentation
    return {
        "missing res": ({"res": {}}, r"^missing res e<C2$"),
        "res off its levels": (
            {"res": {pair: AbHom(FgAbelian((0, 0)), lvl, ((1, 0),))}},
            r"^res e<C2 maps \(0, 0\) -> \(0,\), not \(0,\) -> \(0,\)$"),
        "tr off its levels": (
            {"tr": {pair: AbHom(lvl, two, ((2,), (0,)))}},
            r"^tr e<C2 maps \(0,\) -> \(0, 1\), not \(0,\) -> \(0,\)$"),
        "extra covering key": (
            {"tr": {**z.tr, ("C2", "e"): z.tr[pair]}},
            r"^no tr belongs at \('C2', 'e'\) over C2$"),
        "missing level": ({"levels": {"C2": lvl}}, r"^missing level e$"),
        "extra level": (
            {"levels": {**z.levels, "X": lvl}}, r"^no level belongs at 'X' over C2$"),
        "weyl key off the subgroups": (
            {"weyl": {("X", "s"): AbHom.identity(lvl)}},
            r"^no weyl map belongs at \('X', 's'\) over C2$"),
        "weyl key off the elements": (
            {"weyl": {("C2", "t"): AbHom.identity(lvl)}},
            r"^no weyl map belongs at \('C2', 't'\) over C2$"),
        "weyl map off its level": (
            {"weyl": {("e", "s"): AbHom(lvl, two, ((1,), (0,)))}},
            r"^weyl map at e,s maps \(0,\) -> \(0, 1\), not \(0,\) -> \(0,\)$"),
    }[case]


@pytest.mark.parametrize("case", [
    "missing res", "res off its levels", "tr off its levels", "extra covering key",
    "missing level", "extra level", "weyl key off the subgroups",
    "weyl key off the elements", "weyl map off its level",
])
def test_construction_refuses_a_malformed_functor(case):
    changes, message = _malformed_c2_z(case)
    with pytest.raises(ValueError, match=message):
        replace(named("C2", "Z"), **changes)


def test_isomorphism_search_leaves_no_reference_cycles():
    z = named("Q8", "Z")
    assert is_isomorphic(z, z)  # fills the catalog and the recognition memo
    gc.collect()
    gc.disable()
    try:
        assert is_isomorphic(z, z)
        assert not is_isomorphic(z, box_dual(z))
        # is_isomorphic may answer from the recognition memo; search again
        assert find_isomorphism(z, z) is not None
        assert find_isomorphism(z, box_dual(z)) is None
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# the recognition memo


def _check_memoised(m, others):
    """strip_g_summands and is_isomorphic, asked twice (the second time from
    the memo), agree with the computations they memoise."""
    k, red = _strip_g(m)
    for _ in range(2):
        k2, red2 = strip_g_summands(m)
        assert k2 == k and data_equal(red2, red)
        if k == 0:
            assert red2 is m
        for other in others:
            want = find_isomorphism(red, other) is not None
            assert is_isomorphic(red, other) is want
            assert is_isomorphic(red2, other) is want


def test_memoised_recognition_agrees_on_catalog_pairs():
    for gname in ALL_GROUPS:
        table = catalog(gname)
        for nm in sorted(table):
            _check_memoised(table[nm], [table[x] for x in sorted(table)])


def test_memoised_recognition_agrees_on_a_slice_grid_row():
    key = "2rhoQ phi_Z(F)"
    row = degree_table("slice_homotopy.txt")[key]
    rep, coeff = key.split()
    degrees = range(min(row), max(row) + 1)
    got = suspension_homotopy("Q8", rep, expression_functor("Q8", coeff), degrees)
    table = catalog("Q8")
    for n in degrees:
        f = got[n][0]
        _check_memoised(f, [f] + [table[x] for x in sorted(table)])
        _agrees_with_the_enumeration(f)
        assert match_expression(f, row.get(n, ""))
    assert any(strip_g_summands(got[n][0])[0] for n in degrees)


def test_memo_is_keyed_on_content_not_on_the_object_or_name(stats):
    z = named("Q8", "Z")
    assert identify(z) == "Z" and strip_g_summands(z)[1] is z and is_isomorphic(z, z)
    stats.mark()
    for same in (zero_functor("Q8").direct_sum(z), z.with_name("renamed")):
        assert same is not z and same.content_key == z.content_key
        assert identify(same) == "Z"
        assert strip_g_summands(same)[1] is same
        assert is_isomorphic(same, z)
    assert stats.grew()["recognition memo misses"] == 0


def _with_res(m, key, h):
    """m with res[key] replaced by h, as a new value."""
    return replace(m, res={**m.res, key: h})


def test_changed_res_matrix_changes_the_next_answer():
    for gname in ("C2", "Q8"):
        f = expression_functor(gname, "Z")
        assert identify(f) == "Z" and match_expression(f, "Z")
        pair = covering_pairs(group(gname))[0]
        old = f.res[pair]
        changed = _with_res(f, pair, AbHom(old.dom, old.cod, ((2,),)))
        assert identify(changed) != "Z"
        assert not match_expression(changed, "Z")
        back = _with_res(changed, pair, old)
        assert back.content_key == f.content_key
        assert identify(back) == "Z" and match_expression(back, "Z")
        assert identify(f) == "Z" and match_expression(f, "Z")


def _bumped_res(m):
    """m with 1 added to the top left entry of its first nonempty res matrix."""
    for key, h in m.res.items():
        if h.dom.ngens and h.cod.ngens:
            rows = [list(r) for r in h.matrix]
            rows[0][0] += 1
            return _with_res(m, key, AbHom(h.dom, h.cod, tuple(map(tuple, rows))))
    raise AssertionError("no res entry to change")


def test_mutated_complement_does_not_poison_later_lookups():
    expr = "m + g^2"
    k, want = _strip_g(expression_functor("Q8", expr))
    assert k == 2 and not want.is_trivial()
    k1, red = strip_g_summands(expression_functor("Q8", expr))
    assert k1 == 2 and data_equal(red, want)
    # the memo hands the same complement to everyone who asks: it refuses
    # changes, and a changed copy is another content with another answer
    key, h = next(iter(red.res.items()))
    with pytest.raises(TypeError):
        red.res[key] = h
    bumped = _bumped_res(red)
    assert not data_equal(bumped, want) and not is_isomorphic(bumped, red)
    again = expression_functor("Q8", expr)
    k2, red2 = strip_g_summands(again)
    assert k2 == 2 and red2 is red and data_equal(red2, want)
    assert match_expression(again, expr)
    assert identify(again) == "m+g^2"
    # the expected side of match_expression: C2 B(1,0) is g plus a zero
    # complement, which strip_g_summands hands out to anyone who asks
    b10 = expression_functor("C2", "B(1,0)")
    assert match_expression(b10, "B(1,0)")
    k, red = strip_g_summands(expression_functor("C2", "B(1,0)"))
    assert k == 1 and red.is_trivial()
    with pytest.raises(TypeError):
        red.levels["C2"] = FgAbelian((3,))
    z3, e = FgAbelian((3,)), red.levels["e"]
    three = MackeyFunctor("C2", {"e": e, "C2": z3}, {("e", "C2"): AbHom.zero(z3, e)},
                          {("e", "C2"): AbHom.zero(e, z3)})
    assert not is_isomorphic(three, red)
    assert match_expression(b10, "B(1,0)")
    assert match_expression(expression_functor("C2", "B(1,0)"), "B(1,0)")
    # with k = 0 the caller's own functor comes back; a changed copy of it
    # is a new content
    z = expression_functor("K4", "m")
    assert strip_g_summands(z)[1] is z
    assert not match_expression(_bumped_res(z), "m")
    assert match_expression(z, "m")
    assert match_expression(expression_functor("K4", "m"), "m")


def test_values_from_named_catalog_and_sphere_complex_refuse_assignment():
    table = catalog("C2")
    z = named("C2", "Z")
    with pytest.raises(TypeError):
        table["Z"] = box_dual(z)
    with pytest.raises(TypeError):
        del table["Z"]
    for f in (z, table["F"]):
        for fld in fields(f):
            with pytest.raises(FrozenInstanceError):
                setattr(f, fld.name, getattr(f, fld.name))
        for maps, key in ((f.levels, "e"), (f.res, ("e", "C2")),
                          (f.tr, ("e", "C2")), (f.weyl, ("e", "s"))):
            with pytest.raises(TypeError):
                maps[key] = f.res[("e", "C2")]
    c = sphere_complex("2sigma", "C2")
    for fld in fields(c):
        with pytest.raises(FrozenInstanceError):
            setattr(c, fld.name, getattr(c, fld.name))
    with pytest.raises(TypeError):
        c.cells[0] = ("e",)
    with pytest.raises(TypeError):
        c.diff[1] = {}
    with pytest.raises(TypeError):
        c.diff[1][(0, 0)] = ((1, "1"),)
    assert named("C2", "Z") is z and catalog("C2")["Z"] is z
    assert sphere_complex("2sigma", "C2") is c
    # the maps are private copies: the dicts a value was built from may change
    levels = dict(z.levels)
    m = MackeyFunctor("C2", levels, z.res, z.tr)
    levels["e"] = FgAbelian((2,))
    assert m.content_key == z.content_key


def test_search_limit_is_raised_on_every_call():
    zz = expression_functor("C2", "Z+Z")
    for _ in range(2):
        with pytest.raises(IsomorphismSearchLimit, match="free rank"):
            is_isomorphic(zz, zz)
    for _ in range(2):
        with pytest.raises(IsomorphismSearchLimit, match="free rank"):
            match_expression(zz, "Z+Z")
    f5 = expression_functor("K4", "F^5")
    for check in (lambda: is_isomorphic(f5, f5), lambda: match_expression(f5, "F^5")) * 2:
        with pytest.raises(IsomorphismSearchLimit, match="too large"):
            check()


def test_identify_strips_each_complement_once(monkeypatch):
    # strip_g_summands records that the complement it returns is g-free, so
    # recognising the complement does not strip it again
    RECOGNITION.clear()
    complements, again = set(), []

    def counting_strip(m):
        if m.content_key in complements:
            again.append(m)
        k, red = _strip_g(m)
        if k:
            complements.add(red.content_key)
        return k, red

    monkeypatch.setattr("mackey.functors._strip_g", counting_strip)
    m = expression_functor("Q8", "Z(3,2)+g+g")
    assert identify(m) == "Z(3,2)+g^2"
    assert complements and again == []


def test_memo_never_grows_past_its_bound(monkeypatch, stats):
    monkeypatch.setattr(RECOGNITION, "size", 5)
    table = catalog("K4")
    for nm in sorted(table):
        strip_g_summands(table[nm])
        assert len(RECOGNITION) <= 5
        for other in sorted(table):
            is_isomorphic(table[nm], table[other])
            assert len(RECOGNITION) <= 5
    assert len(RECOGNITION) == 5
    # least recently used first out: the last pair asked is still there,
    # its two strips and the search on their complements
    stats.mark()
    is_isomorphic(table[nm], table[other])
    assert stats.grew()["recognition memo hits"] == 3
    assert stats.grew()["recognition memo misses"] == 0


def test_identify_answers_from_the_catalog_in_use(monkeypatch, stats):
    # identify reads the catalog when it computes; the catalog is a fixed,
    # read-only table, so an answer is memoised on the content alone
    RECOGNITION.clear()
    monkeypatch.setattr("mackey.bredon.catalog", lambda g: {"other": named(g, "Z")})
    assert identify(expression_functor("C2", "Z")) == "other"
    monkeypatch.undo()
    RECOGNITION.clear()
    assert identify(expression_functor("C2", "Z")) == "Z"
    stats.mark()
    assert identify(named("C2", "Z")) == "Z"
    assert stats.grew()["recognition memo misses"] == 0


# ---------------------------------------------------------------------------
# oracle: the axiom check on every pair of group elements


def check_axioms_all_pairs(m: MackeyFunctor) -> AxiomReport:
    """check_axioms with its action and equivariance clauses on all of G:
    W(x.y) = W(x)W(y) for every x and y, equivariance at every element,
    and each double coset sum formed through AbHom addition."""
    g = m.group()
    failures = []
    checked = []

    def expect(cond: bool, label: str):
        checked.append(label)
        if not cond:
            failures.append(label)

    pairs = covering_pairs(g)
    for low, high in pairs:
        r = m.res.get((low, high))
        t = m.tr.get((low, high))
        expect(r is not None and t is not None, f"maps present {low}<{high}")
        if r is None or t is None:
            continue
        expect(
            r.dom.orders == m.levels[high].orders
            and r.cod.orders == m.levels[low].orders,
            f"res shape {low}<{high}",
        )
        expect(
            t.dom.orders == m.levels[low].orders
            and t.cod.orders == m.levels[high].orders,
            f"tr shape {low}<{high}",
        )
    if failures:
        return AxiomReport(failures, checked)

    for s in g.subgroups():
        for t in g.subgroups():
            if not (s.elements < t.elements):
                continue
            paths = _all_chains(g, s, t)
            if len(paths) < 2:
                continue
            res_maps = [_compose_res(m, p) for p in paths]
            tr_maps = [_compose_tr(m, p) for p in paths]
            expect(
                all(h.equals(res_maps[0]) for h in res_maps[1:]),
                f"res path independence {s.name}<{t.name}",
            )
            expect(
                all(h.equals(tr_maps[0]) for h in tr_maps[1:]),
                f"tr path independence {s.name}<{t.name}",
            )

    known = len(failures)
    for s in g.subgroups():
        lvl = m.levels[s.name]
        for e in g.elements:
            w = m.weyl_action(s.name, e)
            expect(
                w.dom.orders == lvl.orders and w.cod.orders == lvl.orders,
                f"weyl shape {s.name},{e}",
            )
    if len(failures) > known:
        return AxiomReport(failures, checked)
    for s in g.subgroups():
        ident = AbHom.identity(m.levels[s.name])
        for x in s.elements:
            expect(
                m.weyl_action(s.name, x).equals(ident),
                f"weyl trivial on own subgroup {s.name},{x}",
            )
        for x in g.elements:
            wx = m.weyl_action(s.name, x)
            for y in g.elements:
                wxy = m.weyl_action(s.name, g.mul(x, y))
                comp = wx.compose(m.weyl_action(s.name, y))
                expect(wxy.equals(comp), f"weyl action {s.name}: {x}*{y}")

    for low, high in pairs:
        for e in g.elements:
            wl = m.weyl_action(low, e)
            wh = m.weyl_action(high, e)
            r = m.res[(low, high)]
            t = m.tr[(low, high)]
            expect(
                r.compose(wh).equals(wl.compose(r)),
                f"res equivariance {low}<{high},{e}",
            )
            expect(
                t.compose(wl).equals(wh.compose(t)),
                f"tr equivariance {low}<{high},{e}",
            )

    for h in g.subgroups():
        inside = [s for s in g.subgroups() if s.elements <= h.elements]
        for k1 in inside:
            for k2 in inside:
                if k1.name == h.name and k2.name == h.name:
                    continue
                meet = g.intersect(k1, k2)
                lhs = m.res_map(k1.name, h.name).compose(m.tr_map(k2.name, h.name))
                rhs = AbHom.zero(m.levels[k2.name], m.levels[k1.name])
                for rep in _double_cosets_within(g, h, k1, k2):
                    term = m.tr_map(meet.name, k1.name).compose(
                        m.weyl_action(meet.name, rep).compose(
                            m.res_map(meet.name, k2.name)
                        )
                    )
                    rhs = rhs + term
                expect(
                    lhs.equals(rhs),
                    f"double coset {k1.name}\\{h.name}/{k2.name}",
                )

    return AxiomReport(failures, checked)


def _single_entry_edits(m: MackeyFunctor, rng: random.Random, count: int):
    """Up to count functors, each m with one entry of one res, tr or Weyl
    matrix changed to another value that keeps the map a homomorphism."""
    g = m.group()
    slots = ([("res", k, h) for k, h in m.res.items()]
             + [("tr", k, h) for k, h in m.tr.items()]
             + [("weyl", (s.name, e), m.weyl_action(s.name, e))
                for s in g.subgroups() for e in g.elements])
    slots = [slot for slot in slots if slot[2].dom.ngens and slot[2].cod.ngens]
    out = []
    for _ in range(4 * count):
        if len(out) == count or not slots:
            break
        kind, key, h = rng.choice(slots)
        i, j = rng.randrange(h.cod.ngens), rng.randrange(h.dom.ngens)
        c, o, x = h.cod.orders[i], h.dom.orders[j], h.matrix[i][j]
        if c:  # o * value must vanish mod c
            values = [v for v in range(0, c, c // gcd(c, o)) if v != x]
        else:  # a free target takes no image of a torsion generator
            values = [] if o else [x + d for d in (-2, -1, 1, 2)]
        if not values:
            continue
        rows = [list(r) for r in h.matrix]
        rows[i][j] = rng.choice(values)
        edited = AbHom(h.dom, h.cod, tuple(map(tuple, rows)))
        out.append(replace(m, **{kind: {**getattr(m, kind), key: edited}}))
    return out


@pytest.mark.parametrize("gname", ALL_GROUPS)
def test_generator_axiom_check_agrees_with_the_all_pairs_oracle(gname):
    rng = random.Random(f"axioms {gname}")
    verdicts = []
    for nm, f in sorted(catalog(gname).items()):
        assert check_axioms(f).ok and check_axioms_all_pairs(f).ok, nm
        for edited in _single_entry_edits(f, rng, 6):
            ok = check_axioms(edited).ok
            assert ok == check_axioms_all_pairs(edited).ok, (nm, edited)
            verdicts.append(ok)
    # every unedited functor passes both checks, and edits make them fail
    assert False in verdicts


def test_generator_axiom_check_counts_fewer_checks():
    for gname, n_all, n_gen in (("C2", 25, 12), ("Q8", 654, 213)):
        z = named(gname, "Z")
        assert len(check_axioms_all_pairs(z).checked) == n_all
        assert len(check_axioms(z).checked) == n_gen


def test_weyl_map_that_is_no_action_fails_on_generators():
    # W(j) = -1 on the level Z of the constant functor; i acts trivially,
    # so W(i.j) = W(k) = 1 differs from W(i)W(j) = -1
    z = named("Q8", "Z")
    lvl = z.levels["Z"]
    bad = replace(z, weyl={("Z", "j"): AbHom(lvl, lvl, ((-1,),))})
    for check in (check_axioms, check_axioms_all_pairs):
        report = check(bad)
        assert not report.ok
        assert any(f.startswith("weyl action Z:") for f in report.failures)


# ---------------------------------------------------------------------------
# oracle: the g-split by enumerating the top level's torsion elements


def _strip_g_by_enumeration(m: MackeyFunctor) -> tuple[int, MackeyFunctor]:
    """strip_g_summands by listing all 2^n torsion elements of the top level
    T.  W is every element of order 2 that each restriction to a maximal
    subgroup kills and each Weyl map fixes; the reps are the elements of W
    whose classes modulo the transfer images and 2T fall outside the span,
    closed as a set, of the classes kept before them.  The complement is
    built by the library's _split_off, which the search does not touch."""
    g = m.group()
    top = g.top().name
    T = m.levels[top]
    if T.is_trivial:
        return 0, m
    maximals = [s.name for s in g.subgroups() if any(c.name == top for c in g.covers(s))]
    W = [
        v for v in itertools.product(*(range(o) if o else (0,) for o in T.orders))
        if any(v) and not any(T.reduce_vec([2 * x for x in v]))
        and all(not any(m.res[(s, top)](v)) for s in maximals)
        and all(m.weyl_action(top, e)(v) == T.reduce_vec(v) for e in g.elements)
    ]
    cols = [col for s in maximals for col in zip(*m.tr[(s, top)].matrix)]
    cols += [tuple(2 * (i == j) for i in range(T.ngens)) for j in range(T.ngens)]
    span = AbHom(FgAbelian((0,) * len(cols)), T, tuple(zip(*cols)))
    quot = homology_at(span, AbHom.zero(T, FgAbelian(())))
    reps, seen = [], {(0,) * quot.group.ngens}
    for v in W:
        p = quot.project(v)
        if p not in seen:
            reps.append(v)
            seen |= {quot.group.reduce_vec([a + b for a, b in zip(old, p)]) for old in seen}
    return (len(reps), _split_off(m, reps)) if reps else (0, m)


def _agrees_with_the_enumeration(m: MackeyFunctor) -> None:
    k, red = strip_g_summands(m)
    k_want, red_want = _strip_g_by_enumeration(m)
    assert k == k_want, (str(m), k, k_want)
    assert is_isomorphic(red, red_want), str(m)


@pytest.mark.parametrize("gname", ALL_GROUPS)
def test_strip_g_agrees_with_the_enumeration_oracle(gname):
    for nm in sorted(catalog(gname)):
        for j in range(4):
            expr = f"{nm}+g^{j}" if j else nm  # a power must be at least 1
            _agrees_with_the_enumeration(expression_functor(gname, expr))


@pytest.mark.parametrize("gname", ALL_GROUPS)
def test_strip_g_count_agrees_with_the_enumeration_off_valid_functors(gname):
    # single edits break the axioms (a Weyl map that is no action, res and
    # tr that do not commute), and the kernel's conditions are still the
    # enumeration's
    rng = random.Random(f"strip {gname}")
    for nm, f in sorted(catalog(gname).items()):
        for edited in _single_entry_edits(f.direct_sum(named(gname, "g")), rng, 6):
            assert _strip_g(edited)[0] == _strip_g_by_enumeration(edited)[0], (nm, edited)


def test_a_transfer_into_the_free_part_counts_modulo_two():
    # C2 Z* + g with tr(1) = (1, 1): a change of basis at the top makes it
    # (1, 0) again, so g still splits off; the transfer's odd free
    # coordinate keeps (0, 1) outside the transfer images plus 2T
    f = expression_functor("C2", "Z*+g")
    t = f.tr[("e", "C2")]
    crossed = replace(f, tr={("e", "C2"): AbHom(t.dom, t.cod, ((1,), (1,)))})
    assert check_axioms(crossed).ok
    assert strip_g_summands(crossed)[0] == 1
    _agrees_with_the_enumeration(crossed)
    assert identify(crossed) == "Z*+g"


@pytest.mark.parametrize("gname", ("Q8", "K4"))
def test_a_top_level_above_twelve_generators_splits(gname):
    expr = "phi_LDR(F)+g^10"
    f = expression_functor(gname, expr)
    assert f.levels[group(gname).top().name].ngens > 12
    assert strip_g_summands(f)[0] == 10
    assert match_expression(f, expr)
    assert identify(f) == expr
    k, red = strip_g_summands(expression_functor(gname, "g^13"))
    assert k == 13 and red.is_trivial()


@pytest.mark.parametrize("gname, rep", [("Q8", "12rhoQ"), ("K4", "12rhoK")])
def test_degree_24_of_the_twelfth_regular_suspension_gets_a_name(gname, rep):
    # the name itself is left for a closed-form answer key to check
    f = suspension_homotopy(gname, rep, expression_functor(gname, "Z"), [24])[24][0]
    assert f.levels[group(gname).top().name].ngens > 12
    assert identify(f) is not None


def test_expression_functor_is_built_once_per_canonical_group_name():
    z = expression_functor("Q8", "Z")
    for spelling in ("Q8", "q8", "q"):
        assert expression_functor(spelling, "Z") is z
    assert z is named("Q8", "Z") and z.group_name == "Q8"
    # every spelling of one sum is one value
    s = expression_functor("q8", "mg+g^2")
    for text in ("mg+g^2", " mg + g ^ 2", "mg⊕g^2"):
        assert expression_functor("Q8", text) is s and named("q", text) is s
    assert expression_functor("q8", "Z ") is z
    with pytest.raises(UnknownName):
        expression_functor("q8", "nonsense")
    with pytest.raises(UnknownName):  # a failed build is not stored
        expression_functor("q8", "nonsense")


def _plain_homs(monkeypatch):
    """AbHom.compose as the plain product, and identity and zero homs
    through the validating constructor: no shortcut for identity factors."""
    from mackey.exactalg import _mat_mul_mod, identity as identity_matrix, zeros

    def compose(self, first):
        if first.cod.orders != self.dom.orders:
            raise NonComposable("middle objects differ")
        return AbHom(first.dom, self.cod, _mat_mul_mod(
            self.matrix, first.matrix, self.cod.orders, first.dom.ngens))

    monkeypatch.setattr(AbHom, "compose", compose)
    monkeypatch.setattr(AbHom, "identity", staticmethod(
        lambda g: AbHom(g, g, identity_matrix(g.ngens))))
    monkeypatch.setattr(AbHom, "zero", staticmethod(
        lambda d, c: AbHom(d, c, zeros(c.ngens, d.ngens))))


def test_axiom_reports_do_not_depend_on_the_identity_shortcuts(monkeypatch):
    z = named("Q8", "Z")
    lvl = z.levels["Z"]
    planted = [
        MackeyFunctor("Q8", dict(z.levels), dict(z.res),
                      {**z.tr, ("Z", "L"): AbHom(lvl, lvl, ((3,),))}),
        replace(z, weyl={("Z", "j"): AbHom(lvl, lvl, ((-1,),))}),
    ]
    rng = random.Random("planted edits")
    for nm in ("Z", "mgw", "B(3,0)"):
        planted += _single_entry_edits(named("Q8", nm), rng, 4)
    functors = [f for gname in ALL_GROUPS for _, f in sorted(catalog(gname).items())]
    functors += planted
    fast = [(r.checked, r.failures) for r in map(check_axioms, functors)]
    # fresh copies, so no composite memoised above is read back
    copies = [replace(f) for f in functors]
    _plain_homs(monkeypatch)
    plain = [(r.checked, r.failures) for r in map(check_axioms, copies)]
    assert fast == plain
    assert sum(bool(failures) for _, failures in fast) >= 3


def _content_key_below_oracle(m: MackeyFunctor, h: str) -> bytes:
    """content_key_below with the subgroups below h found by conjugating
    each subgroup by every element."""
    import marshal

    g, top = m.group(), m.group().subgroup(h).elements
    below = {s.name for s in g.subgroups() if any(
        {g.mul(g.mul(x, y), g.inv(x)) for y in s.elements} <= top for x in g.elements)}
    return marshal.dumps((
        sorted((s, lvl.orders) for s, lvl in m.levels.items() if s in below),
        *(sorted((k, f.matrix) for k, f in d.items() if k[i] in below)
          for d, i in ((m.res, 1), (m.tr, 1), (m.weyl, 0)))), 0)


@pytest.mark.parametrize("gname", ALL_GROUPS)
def test_content_key_below_reads_the_group_table(gname):
    g = group(gname)
    for nm, f in sorted(catalog(gname).items()):
        for s in g.subgroups():
            assert f.content_key_below(s.name) == _content_key_below_oracle(f, s.name), nm
