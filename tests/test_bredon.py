"""Engine tests: golden homotopy table rows through the `mackey verify` row
comparison (`cli._check_row`, over each row's whole span), sharing and
caching, structure maps, duality and other cross-checks."""

import gc
import itertools
import random
import sys
import weakref
from dataclasses import dataclass, replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackey import bredon, cli
from mackey import catalog as catalog_module
from mackey.bredon import (
    AxiomFailure,
    MackeyHomology,
    cached_engine,
    cohomology_mackey,
    homology_mackey,
    suspension_engine,
    suspension_homotopy,
)
from mackey.catalog import catalog, named
from mackey.exactalg import AbHom, FgAbelian, induced_on_homology
from mackey.functors import (
    MackeyFunctor,
    box_dual,
    check_axioms,
    covering_pairs,
    expression_functor,
    is_isomorphic,
    match_expression,
    restrict_functor,
    zero_functor,
)
from mackey.golden import degree_table
from mackey.grouplat import group, orbit_table
from mackey.repcw import (
    IRREDUCIBLES,
    BurnsideComplex,
    VirtualRep,
    cone_of_unit_sphere,
    parse_rep,
    point_complex,
    reduce_complex,
    restrict_complex,
    smash,
    sphere_complex,
    suspend,
    underlying_homology_ranks,
    unit_sphere_complex,
)
from mackey.stats import LruMemo


def check_rows(group_name, filename, *keys):
    """The named fixture rows, with the catalog's coefficients, over the
    spans `mackey verify` checks them on (`cli._span`)."""
    table = degree_table(filename)
    failures = []
    for key in keys:
        rep, coeff = key.split()
        got = suspension_homotopy(
            group_name, rep, named(group_name, coeff), cli._span(group_name, rep)
        )
        cli._check_row(filename, key, table[key], got, failures)
    assert failures == []


def test_sphere_of_h_homology_and_cohomology():
    table = degree_table("sphere_h.txt")
    c = unit_sphere_complex("Q8", "H")
    coeff = named("Q8", "Z")
    degrees = range(parse_rep("Q8", "H").dim)  # S(H) is a 3-sphere
    for n in degrees:
        f, nm = homology_mackey(c, coeff, n)
        assert nm == table["S(H) homology"].get(n, "0")
    for n in degrees:
        f, nm = cohomology_mackey(c, coeff, n)
        assert nm == table["S(H) cohomology"].get(n, "0")


def test_sphere_h_cone():
    row = degree_table("sphere_h.txt")["S^H homology"]
    got = suspension_homotopy("Q8", "H", named("Q8", "Z"), cli._span("Q8", "H"))
    failures = []
    cli._check_row("sphere_h.txt", "S^H homology", row, got, failures)
    assert failures == []


def test_qrho_rows():
    check_rows("Q8", "qrho_grid.txt", "rhoQ Z", "2rhoQ Z")


def test_h_powers():
    check_rows("Q8", "qrho_grid.txt", "2H Z")


def test_negative_qrho_and_gap():
    check_rows("Q8", "qrho_grid.txt", "-rhoQ Z", "-2rhoQ Z")


def test_krho_rows():
    check_rows(
        "K4", "krho_grid.txt",
        "rhoK Z", "2rhoK Z", "3rhoK Z", "-rhoK Z", "-2rhoK Z", "-3rhoK Z",
    )


def test_small_h_model_same_mackey_homology(small_h_unit_sphere):
    coeff = named("Q8", "Z")
    big = unit_sphere_complex("Q8", "H")
    small = small_h_unit_sphere
    for n in range(0, 4):
        a, _ = homology_mackey(big, coeff, n)
        b, _ = homology_mackey(small, coeff, n)
        assert is_isomorphic(a, b), n


def test_homology_table_batch():
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    table = {n: homology_mackey(c, named("Q8", "Z"), n) for n in range(0, 9)}
    assert table[8][1] == "Z"
    assert table[6][1] == "mgw"


def test_computed_functors_pass_axioms():
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    eng = MackeyHomology(named("Q8", "Z"), primal=c)
    for n in (1, 2, 4, 6, 8):
        assert check_axioms(eng.functor(n)).ok, n


def test_identification_is_not_fooled_by_extensions():
    # the degree-two value of the quaternionic sphere is the nonsplit
    # extension, not the direct sum of its levelwise pieces
    c = sphere_complex(parse_rep("Q8", "H"))
    f, nm = homology_mackey(c, named("Q8", "Z"), 2)
    assert nm == "mgw"
    assert not match_expression(f, "mg+w")


def test_restriction_functoriality():
    # level data of the big computation agrees with computing over the
    # subgroup from scratch
    for rep in ("H", "rhoK"):
        c = sphere_complex(parse_rep("Q8", rep))
        coeff = named("Q8", "Z")
        eng = MackeyHomology(coeff, primal=c)
        for sub in ("L", "Z"):
            c_res = restrict_complex(c, sub)
            coeff_res = restrict_functor(coeff, sub)
            eng_res = MackeyHomology(coeff_res, primal=c_res)
            for n in range(0, parse_rep("Q8", rep).dim + 1):
                big = restrict_functor(eng.functor(n), sub)
                small = eng_res.functor(n)
                assert is_isomorphic(big, small), (rep, sub, n)


def test_weyl_action_restricts_to_b20():
    # the sign circle of the mystery functor restricts to the cyclic group
    # as the order-four quotient functor
    assert is_isomorphic(
        restrict_functor(named("Q8", "mgw"), "L"), named("C4", "B(2,0)")
    )


def _duality_crosscheck(c, group_name: str, degrees: range) -> int:
    """Cohomology with Z against the dual of homology with dual Z: free
    answers match in the same degree, torsion ones a degree later.  Returns
    the number of nonzero cohomology groups checked."""
    m = named(group_name, "Z")
    checked = 0
    for n in degrees:
        coh, _ = cohomology_mackey(c, m, n)
        if coh.is_trivial():
            continue
        free = all(v.is_free for v in coh.levels.values())
        partner, _ = homology_mackey(c, box_dual(m), n if free else n - 1)
        assert is_isomorphic(coh, box_dual(partner)), n
        checked += 1
    return checked


def test_duality_crosscheck_sphere_of_h():
    assert _duality_crosscheck(unit_sphere_complex("Q8", "H"), "Q8", range(0, 4))


@pytest.mark.parametrize("group_name, rep", [
    ("Q8", "rhoQ"), ("Q8", "2rhoQ"), ("Q8", "rhoK"),
    ("K4", "rhoK"), ("K4", "2rhoK"), ("C4", "2rho"),
])
def test_duality_crosscheck_representation_spheres(group_name, rep):
    """The same check on S^V in every degree 0..dim V: its cochains meet
    codomains with torsion rows, where cycles are told apart by divisibility."""
    v = parse_rep(group_name, rep)
    assert _duality_crosscheck(sphere_complex(v), group_name, range(0, v.dim + 1))


def test_gap_vanishing():
    coeff = named("Q8", "Z")
    for k in (1, 2):
        got = suspension_homotopy("Q8", f"-{k}rhoQ", coeff, range(-3, 0))
        for n in range(-3, 0):
            assert got[n][0].is_trivial(), (k, n)


def test_euler_characteristic_matches_homology():
    from mackey.repcw import expand_level_e, underlying_homology_ranks

    c = sphere_complex(parse_rep("Q8", "rhoK"))
    sizes, _ = expand_level_e(c)
    chi_cells = sum((-1) ** n * k for n, k in sizes.items())
    h = underlying_homology_ranks(c)
    chi_h = sum((-1) ** n * rk for n, (rk, _) in h.items())
    assert chi_cells == chi_h


def test_orientation_periodicity_instance():
    # tensoring the free three-sphere cells with the sign-sum sphere
    # shifts its Mackey-valued homology up by four
    c = unit_sphere_complex("Q8", "H")
    shifted = smash(c, sphere_complex(parse_rep("Q8", "rhoK")))
    coeff = named("Q8", "Z")
    for n in range(0, 4):
        a, _ = homology_mackey(c, coeff, n)
        b, _ = homology_mackey(shifted, coeff, n + 4)
        assert is_isomorphic(a, b), n


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_underlying_level_matches_sphere_dimension(data):
    gname = data.draw(st.sampled_from(["C4", "K4", "Q8"]))
    irrs = {
        "C4": ["sigma", "lambda"],
        "K4": ["sigmaL", "sigmaD", "sigmaR"],
        "Q8": ["sigmaL", "sigmaD", "sigmaR", "H"],
    }[gname]
    from mackey.repcw import VirtualRep

    mults = {"1": data.draw(st.integers(0, 1))}
    for irr in irrs:
        mults[irr] = data.draw(st.integers(0, 1))
    rep = VirtualRep.make(gname, mults)
    coeff = named(gname, "Z")
    eng = MackeyHomology(coeff, primal=sphere_complex(rep))
    for n in range(0, rep.dim + 1):
        lvl = eng.functor(n).levels["e"]
        if n == rep.dim:
            assert lvl == FgAbelian((0,))
        else:
            assert lvl.is_trivial


def test_coefficients_changed_after_validation_are_checked_again():
    coeff = expression_functor("Q8", "Z")
    MackeyHomology(coeff)  # validates the constant functor
    key = sorted(coeff.res)[0]
    zero = AbHom.zero(coeff.res[key].dom, coeff.res[key].cod)
    changed = replace(coeff, res={**coeff.res, key: zero})
    assert not check_axioms(changed).ok
    with pytest.raises(AxiomFailure):
        MackeyHomology(changed)
    MackeyHomology(coeff)


def test_invalid_coefficients_raise_on_every_engine(monkeypatch):
    monkeypatch.setattr(bredon, "_VALIDATED_COEFFS", LruMemo("validation memo", 64))
    # a Weyl map at Z that is not an action: W(j) = -1 but W(i) = 1
    z = expression_functor("Q8", "Z")
    lvl = z.levels["Z"]
    bad = replace(z, weyl={("Z", "j"): AbHom(lvl, lvl, ((-1,),))})
    for _ in range(2):  # a failed validation is not stored
        with pytest.raises(AxiomFailure, match="weyl action Z"):
            MackeyHomology(bad)
    assert len(bredon._VALIDATED_COEFFS) == 0
    MackeyHomology(z)
    assert len(bredon._VALIDATED_COEFFS) == 1


def _make_dual(coeff):
    """Constant Z over C2 (res 1, tr 2) with the maps of its dual (res 2,
    tr 1), as a new value."""
    z = FgAbelian((0,))
    return replace(coeff, res={("e", "C2"): AbHom(z, z, ((2,),))},
                   tr={("e", "C2"): AbHom(z, z, ((1,),))})


def test_homology_follows_a_valid_change_of_validated_coefficients():
    # both are valid, and each engine must compute with its own maps
    coeff = expression_functor("C2", "Z")
    assert is_isomorphic(MackeyHomology(coeff).functor(0), named("C2", "Z"))
    changed = _make_dual(coeff)
    dual = box_dual(named("C2", "Z"))
    assert is_isomorphic(changed, dual)
    assert is_isomorphic(MackeyHomology(changed).functor(0), dual)
    assert is_isomorphic(MackeyHomology(coeff).functor(0), named("C2", "Z"))


def test_engine_cache_is_keyed_on_coefficient_content():
    bredon._ENGINE_CACHE.clear()
    engines = {
        id(suspension_engine("C2", "sigma", expression_functor("C2", "Z")))
        for _ in range(50)
    }
    assert len(engines) == 1 and len(bredon._ENGINE_CACHE) == 1
    eng = suspension_engine("C2", "sigma", expression_functor("C2", "Z"))
    other = suspension_engine("C2", "sigma", _make_dual(expression_functor("C2", "Z")))
    assert other is not eng
    # equal content, a new object: the engine of that content
    assert suspension_engine("C2", "sigma", _make_dual(named("C2", "Z"))) is other
    assert suspension_engine("C2", "sigma", named("C2", "Z")) is eng
    # an engine's own coefficients refuse change
    with pytest.raises(TypeError):
        eng.coeff.res[("e", "C2")] = other.coeff.res[("e", "C2")]
    assert is_isomorphic(eng.coeff, named("C2", "Z"))


def test_engine_cache_is_bounded():
    bredon._ENGINE_CACHE.clear()
    coeff = expression_functor("C2", "Z")
    for k in range(1, bredon._ENGINE_CACHE.size + 5):
        # a point at offset k, and a suspended point at offset 0: the
        # entry points share the cache and its bound
        suspension_engine("C2", str(k), expression_functor("C2", "Z"))
        homology_mackey(suspend(point_complex("C2"), k), coeff, k)
        assert len(bredon._ENGINE_CACHE) == min(2 * k, bredon._ENGINE_CACHE.size)


def _count_engines(monkeypatch):
    """Start from an empty engine cache and record every engine built."""
    built = []
    init = MackeyHomology.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MackeyHomology, "__init__", counting_init)
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", bredon._ENGINE_CACHE.size))
    return built


def _maps(d):
    """Maps by key, as plain data."""
    return {k: (h.dom.orders, h.cod.orders, h.matrix) for k, h in d.items()}


def _data(f):
    """Level orders, res/tr and stored Weyl maps of a functor, as plain data."""
    return ({s: lvl.orders for s, lvl in f.levels.items()},
            _maps(f.res), _maps(f.tr), _maps(f.weyl))


def test_cohomology_degrees_share_one_engine(monkeypatch):
    built = _count_engines(monkeypatch)
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    coeff = named("Q8", "Z")
    got = {n: cohomology_mackey(c, coeff, n)[0] for n in range(1, 9)}
    assert len(built) == 1
    assert sum(not f.is_trivial() for f in got.values()) == 3  # 5, 7 and 8
    for n, f in got.items():
        assert _data(f) == _data(MackeyHomology(coeff, dual=c).functor(-n)), n


def test_complexes_with_equal_content_share_an_engine(monkeypatch):
    built = _count_engines(monkeypatch)
    coeff = named("Q8", "Z")
    # every call builds a new complex object with the same content
    got = [homology_mackey(unit_sphere_complex("Q8", "H"), coeff, n)[0] for n in range(4)]
    c = unit_sphere_complex("Q8", "H")
    table = {n: homology_mackey(c, coeff, n) for n in range(4)}
    assert len(built) == 1
    assert [_data(f) for f in got] == [_data(table[n][0]) for n in range(4)]


def test_a_complex_changed_after_its_engine_was_built_is_refused(monkeypatch):
    _count_engines(monkeypatch)
    coeff = named("C4", "Z")
    c = unit_sphere_complex("C4", "lambda")  # one boundary, g - 1
    engine = cached_engine(coeff, dual=c)
    first = [_data(cohomology_mackey(c, coeff, n)[0]) for n in (0, 1)]
    (key, entry), = c.diff[1].items()
    flipped = ((-entry[0][0], entry[0][1]),) + entry[1:]
    with pytest.raises(TypeError):
        c.diff[1][key] = flipped
    # with the sign of one term flipped, g + 1 is still a complex, with
    # other cohomology and an engine of its own
    other = BurnsideComplex(c.group_name, c.cells, {1: {key: flipped}})
    assert cached_engine(coeff, dual=other) is not engine
    assert [_data(cohomology_mackey(other, coeff, n)[0]) for n in (0, 1)] != first
    # equal content, a new object: the first engine and answers
    again = unit_sphere_complex("C4", "lambda")
    assert again is not c and cached_engine(coeff, dual=again) is engine
    assert [_data(cohomology_mackey(again, coeff, n)[0]) for n in (0, 1)] == first


def test_suspension_and_cohomology_of_a_sphere_stay_distinct_engines(monkeypatch):
    # -rhoQ is computed on the dual S^{rhoQ-1} at offset -1, cohomology on
    # the dual S^{rhoQ}: the engines differ, so each checks the other
    built = _count_engines(monkeypatch)
    coeff = named("Q8", "Z")
    eng = suspension_engine("Q8", "-rhoQ", coeff)
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    for n in range(0, 9):
        coh, _ = cohomology_mackey(c, coeff, n)
        assert is_isomorphic(coh, eng.functor(-n)), n
    assert len(built) == 2 and len(bredon._ENGINE_CACHE) == 2
    assert cached_engine(coeff, dual=c) is not eng


def test_dropped_engine_is_freed_without_the_cycle_collector(monkeypatch):
    # homology data is plain data with no closure over its ReducedComplex,
    # so the complexes go with the last reference to the engine; its levels
    # are its own, not shared with an engine an earlier test cached
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    coeff = named("Q8", "Z")
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    gc.collect()
    gc.disable()
    try:
        eng = MackeyHomology(coeff, primal=c)
        for n in range(5):
            eng.functor(n)
        refs = [weakref.ref(level.complex) for level in eng._levels.values()]
        del eng
        assert len(refs) == 6
        assert [r() for r in refs] == [None] * 6
    finally:
        gc.enable()


def test_validated_coefficients_are_bounded_and_evicted_ones_checked_again(monkeypatch):
    checked = []

    def counting_check(coeff):
        checked.append(coeff.name)
        return check_axioms(coeff)

    monkeypatch.setattr("mackey.functors.check_axioms", counting_check)
    monkeypatch.setattr(bredon, "_VALIDATED_COEFFS", LruMemo("validation memo", 2))
    z, zstar, f = (named("C2", nm) for nm in ("Z", "Z*", "F"))
    for coeff in (z, zstar, z, f):
        MackeyHomology(coeff)
    # Z was used again before F came, so Z* was the least recently used
    assert checked == ["Z", "Z*", "F"]
    assert len(bredon._VALIDATED_COEFFS) == 2
    MackeyHomology(z)
    MackeyHomology(zstar)  # evicted, so validated again
    assert checked == ["Z", "Z*", "F", "Z*"]
    assert len(bredon._VALIDATED_COEFFS) == 2


def test_block_tables_are_kept_for_the_last_64_coefficient_systems(monkeypatch):
    # the constant functors Z/n over C2, n = 2..71: each engine fills its
    # coefficients' block tables, and only the validation memo and the
    # engine cache, 64 entries each, hold them
    monkeypatch.setattr(bredon, "_VALIDATED_COEFFS", LruMemo("validation memo", 64))
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))
    c = sphere_complex(parse_rep("C2", "2sigma"))
    coeffs = [catalog_module._constant("C2", n) for n in range(2, 72)]
    tables = [cached_engine(m, primal=c)._tables for m in coeffs]
    assert all(any(k[0] == "block" for k in t) for t in tables)
    assert len(bredon._VALIDATED_COEFFS) == 64
    # the first six are freed: this list and getrefcount's argument hold them
    assert all(sys.getrefcount(tables[i]) == 2 for i in range(6))
    for m, t in zip(coeffs[6:], tables[6:]):
        assert bredon._VALIDATED_COEFFS.recall(m.content_key, dict) is t
    # the coefficients keep nothing of an engine's
    assert {k[0] for m in coeffs for k in m._map_memo} <= {"res", "tr", "weyl_id", "below"}


def _balanced_sphere(group_name, text):
    """S^V in the balanced smash order: the two smallest complexes smashed
    and reduced until one is left (trivial summands left out).  Its
    complexes are larger than the spheres sphere_complex builds, which gives
    the level reducer's pivot rule more to do."""
    mults = parse_rep(group_name, text).mult_dict()
    factors = []
    for irr in IRREDUCIBLES[group_name]:
        cone = reduce_complex(cone_of_unit_sphere(unit_sphere_complex(group_name, irr)))
        factors.extend([cone] * mults.get(irr, 0))
    while len(factors) > 1:
        factors.sort(key=lambda f: f.ncells(), reverse=True)
        factors.append(reduce_complex(smash(factors.pop(), factors.pop())))
    return factors[0]


def test_least_fill_pivots_leave_a_smaller_core():
    # Q8 rhoK+2rhoQ Z on the balanced-order sphere (147 cells): of 1007
    # level-e generators, the first unit pivot in entry order left a core of
    # 355 and least-fill pivots leave 225
    primal = _balanced_sphere("Q8", "rhoK+2rhoQ")
    eng = MackeyHomology(expression_functor("Q8", "Z"), primal=primal)
    sizes = eng.sizes()
    assert sizes["level e chain generators"] == 1007
    assert sizes["level e core generators"] <= 225


def test_the_folded_sphere_keeps_level_e_small():
    # the same row on the sphere sphere_complex builds now (49 cells)
    eng = suspension_engine("Q8", "rhoK+2rhoQ", expression_functor("Q8", "Z"))
    assert eng.sizes()["level e chain generators"] <= 223


# ---------------------------------------------------------------------------
# cell-pair blocks against a verbatim copy of the per-summand assembly: the
# engine sums memoised orbit-map blocks at cell-pair corners, and every
# boundary and structure chain map must equal the copy's entry for entry.


@lru_cache(maxsize=None)
def _old_orbit_table(group_name: str, stabs: tuple[str, str, str]):
    """Orbits of G/A x G/B x G/C: returns (reps, point->index, stab name)."""
    g = group(group_name)
    subs = [g.subgroup(s) for s in stabs]
    stab = g.subgroup(stabs[0])
    for s in subs[1:]:
        stab = g.intersect(stab, s)

    def act(x, pt):
        return tuple(g.coset(g.mul(x, p), subs[i]) for i, p in enumerate(pt))

    def key(pt):
        return tuple(g.elem_sort_key(p) for p in pt)

    points = list(itertools.product(*[g.cosets(s) for s in subs]))
    index: dict[tuple[str, str, str], int] = {}
    reps: list[tuple[str, str, str]] = []
    for pt in sorted(points, key=key):
        if pt in index:
            continue
        orbit = {act(x, pt) for x in g.elements}
        idx = len(reps)
        reps.append(pt)
        for q in orbit:
            index[q] = idx
    return tuple(reps), index, stab.name


@lru_cache(maxsize=None)
def _locate(group_name: str, stabs: tuple[str, str, str], pt):
    """Orbit index of pt and a translation u with u . rep = pt."""
    g = group(group_name)
    reps, index, _ = _old_orbit_table(group_name, stabs)
    idx = index[pt]
    rep = reps[idx]
    subs = [g.subgroup(s) for s in stabs]
    for u in g.elements:
        if all(
            g.coset(g.mul(u, rep[i]), subs[i]) == pt[i] for i in range(3)
        ):
            return idx, u
    raise RuntimeError("translation not found")


@dataclass(frozen=True)
class _Summand:
    p: int  # dual degree
    di: int  # dual cell index
    q: int  # primal degree
    pi: int  # primal cell index
    orbit: int  # orbit index in the triple product
    stab: str  # stabilizer subgroup name
    offset: int  # its first generator in the chain group of degree q - p


def _old_add_block(acc, r0: int, c0: int, hom: AbHom, coeff: int) -> None:
    """Add coeff * hom to sparse entries acc with its corner at (r0, c0)."""
    for a, row in enumerate(hom.matrix, r0):
        for b, x in enumerate(row, c0):
            if x:
                key = (a, b)
                acc[key] = acc.get(key, 0) + coeff * x


class _PerSummand:
    """The per-summand assembly the cell-pair blocks replaced."""

    def __init__(self, eng: MackeyHomology):
        self.g, self.coeff = eng.g, eng.coeff
        self.primal, self.dual = eng.primal, eng.dual
        self._summands, self._index, self._orders = {}, {}, {}
        self._hom_cache, self._level_map_cache = {}, {}
        for h in eng.levels:
            self._build_level(h)

    def _build_level(self, h: str) -> None:
        summands: dict[int, list[_Summand]] = {}
        index: dict[tuple, _Summand] = {}
        orders: dict[int, list[int]] = {}
        for p in sorted(self.dual.cells):
            for q in sorted(self.primal.cells):
                t = q - p
                for di, ka in enumerate(self.dual.cells[p]):
                    for pi, kb in enumerate(self.primal.cells[q]):
                        reps, _, stab = _old_orbit_table(self.g.name, (ka, kb, h))
                        for oi in range(len(reps)):
                            gens = orders.setdefault(t, [])
                            s = _Summand(p, di, q, pi, oi, stab, len(gens))
                            gens.extend(self.coeff.levels[stab].orders)
                            summands.setdefault(t, []).append(s)
                            index[(p, di, q, pi, oi)] = s
        self._summands[h] = summands
        self._index[h] = index
        self._orders[h] = {t: tuple(o) for t, o in orders.items()}

    def _boundary(self, h: str, t: int):
        g = self.g
        index = self._index[h]
        acc = {}
        for s in self._summands[h][t]:
            ka = self.dual.cells[s.p][s.di]
            kb = self.primal.cells[s.q][s.pi]
            reps, _, _ = _old_orbit_table(g.name, (ka, kb, h))
            base = reps[s.orbit]
            # primal direction: covariant, degree q -> q-1
            for (ti_c, sj_c), entry in self.primal.diff.get(s.q, {}).items():
                if sj_c != s.pi:
                    continue
                kb2 = self.primal.cells[s.q - 1][ti_c]
                for coeff, u in entry:
                    pt = (
                        base[0],
                        g.coset(g.mul(base[1], u), g.subgroup(kb2)),
                        base[2],
                    )
                    oi, w = _locate(g.name, (ka, kb2, h), pt)
                    tgt = index[(s.p, s.di, s.q - 1, ti_c, oi)]
                    _old_add_block(acc, tgt.offset, s.offset,
                                   self._covariant(s.stab, tgt.stab, w), coeff)
        # dual direction: contravariant, dual degree p -> p+1, Koszul sign.
        for s2 in self._summands[h][t - 1]:
            kb = self.primal.cells[s2.q][s2.pi]
            ka2 = self.dual.cells[s2.p][s2.di]
            reps2, _, _ = _old_orbit_table(g.name, (ka2, kb, h))
            base2 = reps2[s2.orbit]
            sign = -1 if s2.q % 2 else 1
            for (i_tgt, j_src), entry in self.dual.diff.get(s2.p, {}).items():
                if j_src != s2.di:
                    continue
                ka = self.dual.cells[s2.p - 1][i_tgt]
                for coeff, u in entry:
                    pt = (
                        g.coset(g.mul(base2[0], u), g.subgroup(ka)),
                        base2[1],
                        base2[2],
                    )
                    oi, w = _locate(g.name, (ka, kb, h), pt)
                    src = index[(s2.p - 1, i_tgt, s2.q, s2.pi, oi)]
                    _old_add_block(acc, s2.offset, src.offset,
                                   self._contravariant(s2.stab, src.stab, w), sign * coeff)
        return bredon._reduced(acc, self._orders[h][t - 1])

    def _covariant(self, a: str, b: str, u: str) -> AbHom:
        """M_* of the orbit map x -> x.u from G/a into G/b."""
        key = ("cov", a, b, u)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.coeff.tr_map(a, b).compose(
                self.coeff.weyl_action(a, u)
            )
        return self._hom_cache[key]

    def _contravariant(self, a: str, b: str, u: str) -> AbHom:
        """M^* of the orbit map x -> x.u from G/a into G/b."""
        key = ("con", a, b, u)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.coeff.weyl_action(
                a, self.g.inv(u)
            ).compose(self.coeff.res_map(a, b))
        return self._hom_cache[key]

    def _level_map(self, h_from: str, h_to: str, kind: str, elem: str | None = None):
        cache_key = (h_from, h_to, kind, elem)
        if cache_key in self._level_map_cache:
            return self._level_map_cache[cache_key]
        g = self.g
        out = {}
        for t, src in self._summands[h_from].items():
            acc = {}
            if kind in ("tr", "weyl"):
                # covariant along the projection or translation of G/h
                for s in src:
                    ka = self.dual.cells[s.p][s.di]
                    kb = self.primal.cells[s.q][s.pi]
                    reps, _, _ = _old_orbit_table(g.name, (ka, kb, h_from))
                    base = reps[s.orbit]
                    if kind == "tr":
                        p3 = g.coset(base[2], g.subgroup(h_to))
                    else:
                        p3 = g.coset(g.mul(base[2], g.inv(elem)), g.subgroup(h_to))
                    oi, w = _locate(g.name, (ka, kb, h_to), (base[0], base[1], p3))
                    tgt = self._index[h_to][(s.p, s.di, s.q, s.pi, oi)]
                    _old_add_block(acc, tgt.offset, s.offset,
                                   self._covariant(s.stab, tgt.stab, w), 1)
            else:
                # restriction is contravariant along G/h_to -> G/h_from, so
                # components are indexed by the h_to-side orbits
                for s2 in self._summands[h_to].get(t, []):
                    ka = self.dual.cells[s2.p][s2.di]
                    kb = self.primal.cells[s2.q][s2.pi]
                    reps2, _, _ = _old_orbit_table(g.name, (ka, kb, h_to))
                    base2 = reps2[s2.orbit]
                    pt = (base2[0], base2[1], g.coset(base2[2], g.subgroup(h_from)))
                    oi, w = _locate(g.name, (ka, kb, h_from), pt)
                    s = self._index[h_from][(s2.p, s2.di, s2.q, s2.pi, oi)]
                    _old_add_block(acc, s2.offset, s.offset,
                                   self._contravariant(s2.stab, s.stab, w), 1)
            out[t] = bredon._reduced(acc, self._orders[h_to].get(t, ()))
        self._level_map_cache[cache_key] = out
        return out


def _c4_rotation() -> MackeyFunctor:
    """Z^2 with the generator of C4 acting by a quarter turn, at the bottom
    level only (-1 has no fixed points): a Weyl action of order four."""
    z2, zero = FgAbelian((0, 0)), FgAbelian(())
    turns = {"g": ((0, -1), (1, 0)), "g2": ((-1, 0), (0, -1)), "g3": ((0, 1), (-1, 0))}
    return MackeyFunctor(
        "C4", {"e": z2, "C2": zero, "C4": zero},
        {("e", "C2"): AbHom(zero, z2, ((), ())), ("C2", "C4"): AbHom(zero, zero, ())},
        {("e", "C2"): AbHom(z2, zero, ()), ("C2", "C4"): AbHom(zero, zero, ())},
        {("e", e): AbHom(z2, z2, m) for e, m in turns.items()},
    )


def _block_engines() -> list[MackeyHomology]:
    """Engines of every shape: primal only, dual only, two-sided, over Q8,
    K4 and C4, with coefficients whose Weyl actions are trivial, of order
    two and of order four."""
    def c4(rep):
        return sphere_complex(parse_rep("C4", rep))

    assert check_axioms(_c4_rotation()).ok
    return [
        suspension_engine("Q8", "rhoK+2rhoQ", named("Q8", "Z")),
        cached_engine(named("Q8", "Z"), dual=sphere_complex(parse_rep("Q8", "2rhoQ"))),
        suspension_engine("Q8", "rhoK-H", named("Q8", "Z(3,2)")),
        suspension_engine("K4", "2rhoK", named("K4", "F")),
        MackeyHomology(_c4_rotation(), primal=c4("lambda+sigma"), dual=c4("sigma")),
    ]


def test_cell_pair_blocks_equal_the_per_summand_assembly():
    weyl_maps = 0
    for eng in _block_engines():
        ref = _PerSummand(eng)
        g = eng.g
        for h in eng.levels:
            assert eng._levels[h].orders == ref._orders[h], h
            for t in eng._levels[h].orders:
                if t - 1 in eng._levels[h].orders:
                    assert eng._boundary(h, t) == ref._boundary(h, t), (h, t)
            for e in g.elements:
                got = _every_degree(eng, h, h, "weyl", e)
                assert got == ref._level_map(h, h, "weyl", e), (h, e)
                weyl_maps += any(got.values())
        for low, high in covering_pairs(g):
            assert _every_degree(eng, high, low, "res") == ref._level_map(high, low, "res")
            assert _every_degree(eng, low, high, "tr") == ref._level_map(low, high, "tr")
    assert weyl_maps


def _every_degree(eng, h_from, h_to, kind, elem=None):
    """The engine's per-degree chain maps of one kind, in every degree."""
    return {t: eng._level_map(h_from, h_to, kind, elem, t) for t in eng._pairs}


def test_memoised_weyl_action_equals_word_by_word_composition():
    nontrivial = 0
    for eng in _block_engines():
        g = eng.g
        for t in eng._levels["e"].orders:
            n = t + eng.offset
            f = eng.functor(n)
            want = {}
            # the composition the word memo replaced, letter by letter
            for h in eng.levels:
                sub = g.subgroup(h)
                if f.levels[h].is_trivial:
                    continue
                data = eng.homology_raw(h, n)
                ident = AbHom.identity(f.levels[h])
                gen_maps = {}
                for e in g.generators:
                    whom = eng._level_map(h, h, "weyl", e, t)
                    gen_maps[e] = induced_on_homology(whom, data, data)
                for e in g.elements:
                    acc = ident
                    for letter in g.word(e):
                        acc = acc.compose(gen_maps[letter])
                    if e not in sub.elements and not acc.equals(ident):
                        want[(h, e)] = acc
            assert _maps(f.weyl) == _maps(want), n
            nontrivial += len(want)
    assert nontrivial


def _weyl_rule_engines() -> list[MackeyHomology]:
    """Primal, dual and two-sided engines over C2, C4, K4 and Q8."""
    out = []
    for gname, p, d in (("C2", "2rho", "rho"), ("C4", "lambda+sigma", "rho"),
                        ("K4", "rhoK", "sigmaL+sigmaD"), ("Q8", "rhoK", "H")):
        primal, dual = (sphere_complex(parse_rep(gname, r)) for r in (p, d))
        coeff = named(gname, "Z")
        out += [MackeyHomology(coeff, primal=primal), MackeyHomology(coeff, dual=dual),
                MackeyHomology(coeff, primal=primal, dual=dual)]
    return out


def test_a_weyl_map_is_the_identity_inside_h_and_one_map_per_coset(monkeypatch):
    # each generator's map built and induced on its own, as the assembly
    # did before it took the identity inside H and one map per coset eH
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    inside = shared = 0
    for eng in _weyl_rule_engines():
        g = eng.g
        for t in eng._pairs:
            n = t + eng.offset
            f = eng.functor(n)
            data = {h: eng.homology_raw(h, n) for h in eng.levels}
            for h in eng.levels:
                if data[h].group.is_trivial:
                    continue
                sub = g.subgroup(h)
                for e in g.generators:
                    got = eng._induced(h, h, "weyl", e, t, data)
                    assert got.equals(f.weyl_action(h, e)), (g.name, n, h, e)
                    if e in sub.elements:
                        assert got.equals(AbHom.identity(data[h].group)), (g.name, n, h, e)
                        inside += 1
                    else:
                        rep = g.coset(e, sub)
                        assert got.equals(eng._induced(h, h, "weyl", rep, t, data))
                        shared += rep != e
    assert inside and shared


def _generator_cosets(g, h: str) -> set[frozenset]:
    """The cosets eH of the generators e of G outside H, as sets of elements."""
    sub = g.subgroup(h).elements
    return {frozenset(g.mul(e, x) for x in sub) for e in g.generators if e not in sub}


def test_a_source_without_homology_builds_no_chain_map(monkeypatch, stats):
    zero_sources = 0
    for cached in _block_engines():
        # an engine with levels of its own, which has induced no map yet
        monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
        eng = MackeyHomology(cached.coeff, primal=cached.primal, dual=cached.dual,
                             offset=cached.offset)
        g = eng.g
        for t in eng._pairs:
            n = t + eng.offset
            stats.mark()
            f = eng.functor(n)
            grew = stats.grew()
            data = {h: eng.homology_raw(h, n) for h in eng.levels}
            # the full build: every res, tr and Weyl chain map of the degree
            # is built and induced, whatever its source
            want = dict.fromkeys(("res", "tr", "weyl"), 0)
            maps = [("res", high, low, None, f.res[(low, high)])
                    for low, high in covering_pairs(g)]
            maps += [("tr", low, high, None, f.tr[(low, high)])
                     for low, high in covering_pairs(g)]
            maps += [("weyl", h, h, e, f.weyl.get((h, e), AbHom.identity(f.levels[h])))
                     for h in eng.levels for e in g.generators]
            for kind, a, b, elem, got in maps:
                full = induced_on_homology(eng._level_map(a, b, kind, elem, t), data[a], data[b])
                assert got == full, (n, kind, a, b, elem)
                if data[a].group.is_trivial:
                    zero_sources += 1
                elif kind != "weyl":
                    want[kind] += 1
            # a Weyl chain map per coset eH of the generators outside H
            want["weyl"] = sum(len(_generator_cosets(g, h)) for h in eng.levels
                               if not data[h].group.is_trivial)
            assert {k: grew[f"{k} chain maps built"] for k in want} == want, n
    assert zero_sources


def test_a_map_that_is_not_a_chain_map_into_zero_homology_is_refused(monkeypatch):
    # over C4, S^(lambda+sigma) with Z: in degree 1 the level C2 has homology
    # and the level C4 has none, but C4's core keeps a generator whose
    # boundary is not zero
    eng = MackeyHomology(named("C4", "Z"), primal=sphere_complex(parse_rep("C4", "lambda+sigma")))
    src, tgt = eng.homology_raw("C2", 1), eng.homology_raw("C4", 1)
    assert not src.group.is_trivial and tgt.group.is_trivial
    core = eng._levels["C4"].complex
    j = next(j for _, j in core.d[1] if core.alive[1][j])
    c, _ = src.generator_lifts[0][0]
    real = eng._level_map

    def level_map(h_from, h_to, kind, elem, t):
        # the transfer C2 -> C4 sends the first generator's lift to a non-cycle
        if (h_from, h_to, kind) == ("C2", "C4", "tr"):
            return {(j, c): 1}
        return real(h_from, h_to, kind, elem, t)

    monkeypatch.setattr(eng, "_level_map", level_map)
    with pytest.raises(ValueError, match="vector is not a cycle"):
        eng.functor(1)


def test_every_orbit_has_the_triples_one_stabilizer():
    # the block layout gives every orbit of G/A x G/B x G/C the summand
    # M(A n B n C), and smash gives every orbit of G/A x G/B the cell
    # G/(A n B); that needs each point's stabilizer to be the intersection
    orbits = {2: 0, 3: 0}
    for name in ("T", "C2", "C4", "K4", "Q8"):
        g = group(name)
        subs = g.subgroups()
        for size in orbits:
            for factors in itertools.product(subs, repeat=size):
                reps, index, stab = orbit_table(name, tuple(s.name for s in factors))

                def act(u, pt):
                    return tuple(g.coset(g.mul(u, x), s) for x, s in zip(pt, factors))

                for rep in reps:
                    fixing = {u for u in g.elements if act(u, rep) == rep}
                    assert fixing == g.subgroup(stab).elements, (name, factors, rep)
                for pt, (i, u) in index.items():
                    # the first translation in element order, as the blocks read it
                    assert u == next(x for x in g.elements if act(x, reps[i]) == pt)
                orbits[size] += len(reps)
    assert orbits == {2: 125, 3: 1505}


def test_dropped_engine_and_its_caches_are_freed_without_the_cycle_collector(monkeypatch):
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())  # levels of its own
    coeff = named("Q8", "Z")
    c = sphere_complex(parse_rep("Q8", "rhoQ"))
    gc.collect()
    gc.disable()
    try:
        eng = MackeyHomology(coeff, primal=c)
        for n in range(5):
            eng.functor(n)
        # each cache held by the engine alone, as lone is by its one name
        lone = {0: 0}
        caches = (eng._levels, eng._diff_by_source, eng._functor_cache, lone)
        assert all(caches)
        counts = [sys.getrefcount(x) for x in caches]
        assert counts == [counts[-1]] * len(counts)
        # the orbit-map blocks are the coefficients' tables in the validation
        # memo and outlive the engine; nothing they hold is an engine or level
        assert bredon._VALIDATED_COEFFS.recall(coeff.content_key, dict) is eng._tables
        shared = list(eng._tables.items())
        assert {k[0] for k, _ in shared} == {"block", "orbit hom", "block orders"}
        todo = list(shared)
        while todo:
            x = todo.pop()
            assert not isinstance(x, (MackeyHomology, bredon._Level))
            if isinstance(x, (tuple, list, dict)):
                todo.extend(gc.get_referents(x))
        ref = weakref.ref(eng)
        del eng, caches
        assert ref() is None
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# levels shared between engines


def _level_data(eng, h):
    """A level's layout, reduced complex and boundaries, as plain data; the
    boundaries are assembled again by the engine from its own coefficients."""
    lv = eng._levels[h]
    c = lv.complex
    bounds = {t: eng._boundary(h, t) for t in lv.orders if t - 1 in lv.orders}
    return lv.offsets, lv.orders, bounds, c.d, c.alive, c.steps


@pytest.mark.parametrize("group_name, rep", [
    ("Q8", "rhoQ"), ("Q8", "2rhoQ"), ("Q8", "rhoK+rhoQ"), ("K4", "rhoK"),
])
def test_every_shared_level_equals_a_freshly_assembled_one(monkeypatch, group_name, rep):
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    c = sphere_complex(parse_rep(group_name, rep))
    table = catalog(group_name)
    engines = {nm: MackeyHomology(table[nm], primal=c) for nm in sorted(table)}
    degrees = sorted(c.cells)
    shared = 0
    for nm, eng in engines.items():
        mine = [h for h in eng.levels
                if any(other._levels[h] is eng._levels[h] for other in engines.values()
                       if other is not eng)]
        if not mine:
            continue
        shared += len(mine)
        # the same coefficients, every level assembled by this engine alone
        monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
        fresh = MackeyHomology(table[nm], primal=c)
        for h in mine:
            assert fresh._levels[h] is not eng._levels[h]
            assert _level_data(eng, h) == _level_data(fresh, h), (nm, h)
        # homology and structure maps, some of them induced by other engines
        for n in degrees:
            assert _data(eng.functor(n)) == _data(fresh.functor(n)), (nm, n)
    assert shared


def test_a_group_spelled_in_lower_case_is_the_same_group():
    z = named("Q8", "Z")
    copy = MackeyFunctor("q8", z.levels, z.res, z.tr, z.weyl)
    assert copy.group_name == zero_functor("q8").group_name == "Q8"
    assert copy.content_key == z.content_key
    assert bredon.identify(copy) == "Z"
    assert match_expression(copy, "Z") and is_isomorphic(copy, z)
    # one engine, and the levels of an engine built apart are shared too
    assert suspension_engine("q8", "rhoQ", copy) is suspension_engine("Q8", "rhoQ", z)
    c = sphere_complex(parse_rep("Q8", "2rhoQ"))
    ours, theirs = MackeyHomology(copy, primal=c), MackeyHomology(z, primal=c)
    assert all(ours._levels[h] is theirs._levels[h] for h in ours.levels)


def _data_at(m, s):
    """What a functor holds at the subgroup s: its level, the res and tr of
    each covering pair below s, and the Weyl action on it."""
    g = m.group()
    return (m.levels[s].orders,
            [(m.res[k].matrix, m.tr[k].matrix) for k in covering_pairs(g) if k[1] == s],
            [m.weyl_action(s, e).matrix for e in g.elements])


@pytest.mark.parametrize("group_name, rep", [
    ("C2", "1+sigma"), ("C4", "1+sigma+lambda"), ("K4", "rhoK"), ("Q8", "rhoQ"),
])
def test_coefficients_that_differ_at_one_subgroup_share_the_levels_without_it(
        monkeypatch, group_name, rep):
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    c = sphere_complex(parse_rep(group_name, rep))
    g, table = group(group_name), catalog(group_name)
    engines = {nm: MackeyHomology(f, primal=c) for nm, f in table.items()}
    pairs = 0
    for a, b in itertools.combinations(sorted(table), 2):
        differ = [s for s in g.subgroups()
                  if _data_at(table[a], s.name) != _data_at(table[b], s.name)]
        if len(differ) != 1:
            continue
        s, = differ
        pairs += 1
        shared = {h.name for h in g.subgroups()
                  if engines[a]._levels[h.name] is engines[b]._levels[h.name]}
        assert shared == {h.name for h in g.subgroups() if not s <= h}, (a, b, s.name)
    assert pairs


@pytest.mark.parametrize("seed", range(12))
def test_the_shared_underlying_level_matches_the_underlying_homology(seed):
    # level e reads the coefficients at e alone, where Z and Z* agree: their
    # engines share it, and its homology is that of Hom(dual, primal) over
    # the integers, by the Kunneth formula from each complex's own homology
    rnd = random.Random(seed)
    gname = rnd.choice(["C4", "K4", "Q8"])
    rep = VirtualRep.make(gname, {irr: rnd.randint(-1, 1)
                                  for irr in ("1",) + IRREDUCIBLES[gname]})
    z, zstar = (suspension_engine(gname, rep, named(gname, nm)) for nm in ("Z", "Z*"))
    assert z._levels["e"] is zstar._levels["e"]
    assert z._levels[gname] is not zstar._levels[gname]
    primal, dual = (underlying_homology_ranks(x) for x in (z.primal, z.dual))
    assert all(tors == () for _, tors in [*primal.values(), *dual.values()])
    for t in range(min(z._pairs) - 1, max(z._pairs) + 2):
        rank = sum(primal.get(p + t, (0,))[0] * r for p, (r, _) in dual.items())
        want = FgAbelian((0,) * rank)
        assert z.homology_raw("e", t + z.offset).group == want, (str(rep), t)
    # the sphere of the virtual representation: Z in its dimension alone
    assert z.homology_raw("e", rep.dim).group == FgAbelian((0,))


# ---------------------------------------------------------------------------
# zero degrees


def _assembled_the_slow_way(eng, n):
    """The degree-n functor from every level's homology, taken afresh, and
    every res, tr and Weyl map induced, with no shortcut for zero degrees."""
    t, g = n - eng.offset, eng.g
    data = {h: eng._levels[h].complex.homology(t) for h in eng.levels}
    levels = {h: d.group for h, d in data.items()}
    pairs = covering_pairs(g)
    res = {(lo, hi): eng._induced(hi, lo, "res", None, t, data) for lo, hi in pairs}
    tr = {(lo, hi): eng._induced(lo, hi, "tr", None, t, data) for lo, hi in pairs}
    weyl = {}
    for h in eng.levels:
        ident = AbHom.identity(levels[h])
        for e in g.elements:
            acc = ident
            for letter in g.word(e):
                acc = acc.compose(eng._induced(h, h, "weyl", letter, t, data))
            if e not in g.subgroup(h) and not acc.equals(ident):
                weyl[(h, e)] = acc
    return MackeyFunctor(eng.group_name, levels, res, tr, weyl)


@pytest.mark.parametrize("rep, found", [
    ("rhoQ", {3, 5, 7}), ("rhoQ-2", {1, 3, 5}), ("-rhoQ", {-6, -4}),
])
def test_zero_degrees_answer_like_the_full_assembly(monkeypatch, stats, rep, found):
    # below the complex, above it, and with a core but no homology
    monkeypatch.setattr(bredon, "_LEVELS", weakref.WeakValueDictionary())
    monkeypatch.setattr(bredon, "_ENGINE_CACHE", LruMemo("engine cache", 64))
    eng = suspension_engine("Q8", rep, named("Q8", "Z"))
    zero = bredon._zero("Q8")
    core = {t + eng.offset for t in eng._core_degrees}
    degrees = range(min(core) - 3, max(core) + 4)
    for n in degrees:
        f, t = eng.functor(n), n - eng.offset
        taken = [t in eng._levels[h].homology for h in eng.levels]
        if n not in core:  # no level's core has a generator: no homology taken
            assert f is zero and not any(taken), n
        elif n in found:  # homology taken at every level, and all of it zero
            assert f is zero and all(taken), n
        else:
            assert not f.is_trivial() and all(taken), n
        assert f.content_key == _assembled_the_slow_way(eng, n).content_key, n
    assert found < core and {n for n in degrees if eng.functor(n) is zero} == (
        set(degrees) - core) | found
    grew = stats.grew()
    assert (grew["zero degrees skipped"], grew["zero degrees found"]) == (
        len(set(degrees) - core), len(found))
