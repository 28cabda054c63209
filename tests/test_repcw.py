"""Representation parsing, sphere complexes, smash products, reduction."""

import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackey import repcw
from mackey.bredon import homology_mackey
from mackey.catalog import named
from mackey.exactalg import AbHom, FgAbelian, homology_at, mat
from mackey.functors import is_isomorphic
from mackey.golden import degree_table
from mackey.grouplat import group
from mackey.repcw import (
    BurnsideComplex,
    GroupMismatch,
    NegativeMultiplicity,
    TrivialRep,
    VirtualRep,
    check_boundary,
    cone_of_unit_sphere,
    expand_level_e,
    parse_rep,
    point_complex,
    reduce_complex,
    restrict_complex,
    sign_sphere,
    smash,
    sphere_complex,
    underlying_homology_ranks,
    unit_sphere_complex,
)
from mackey.slices import slice_list
from mackey.stats import LruMemo


def test_parse_rep():
    r = parse_rep("Q8", "2rhoK+H")
    m = r.mult_dict()
    assert m == {"1": 2, "sigmaL": 2, "sigmaD": 2, "sigmaR": 2, "H": 1}
    assert r.dim == 12
    r2 = parse_rep("Q8", "3+rhoK")
    assert r2.dim == 7
    r3 = parse_rep("Q8", "-1+rhoQ")
    assert r3.dim == 7 and r3.shift == -1
    r4 = parse_rep("C4", "lambda")
    assert r4.dim == 2
    assert parse_rep("Q8", "sigma1").mult_dict() == {"sigmaL": 1}
    with pytest.raises(ValueError):
        parse_rep("C4", "rhoQ")


@pytest.mark.parametrize("text", ["rhoQ-", "-", "rhoQ--H", "1+-",
                                  "rhoQ+", "rhoQ++H", "+-rhoQ", "rhoQ+-H", ""])
def test_a_sign_with_nothing_after_it_is_refused(text):
    # an empty term, after a sign or between two
    with pytest.raises(ValueError, match=re.escape(f"representation {text!r}: an empty term")):
        parse_rep("Q8", text)


def test_a_leading_or_inner_minus_keeps_its_meaning():
    q = parse_rep("Q8", "rhoQ")
    neg = parse_rep("Q8", "-rhoQ")
    assert neg.mult_dict() == {k: -v for k, v in q.mult_dict().items()}
    assert parse_rep("Q8", "-1+rhoQ").shift == -1
    assert parse_rep("Q8", "rhoK-H").mult_dict() == {
        "1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1, "H": -1}


def test_unit_sphere_shapes():
    s = unit_sphere_complex("C4", "sigma")
    assert s.cells == {0: ("C2",)}
    sh = unit_sphere_complex("Q8", "H")
    assert [len(sh.cells[n]) for n in range(4)] == [1, 3, 4, 2]
    assert sh.entry(1, 0, 0) == ((-1, "1"), (1, "i"))
    assert sh.entry(1, 0, 1) == ((-1, "1"), (1, "j"))
    assert sh.entry(1, 0, 2) == ((-1, "1"), (1, "k"))
    with pytest.raises(TrivialRep):
        unit_sphere_complex("C4", "1")


def test_unit_sphere_h_is_three_sphere():
    h = underlying_homology_ranks(unit_sphere_complex("Q8", "H"))
    assert h[0] == (1, ())
    assert h[1] == (0, ())
    assert h[2] == (0, ())
    assert h[3] == (1, ())


def test_small_h_model_matches(small_h_unit_sphere):
    h = underlying_homology_ranks(small_h_unit_sphere)
    assert h[0] == (1, ()) and h[3] == (1, ())
    assert h[1] == (0, ()) and h[2] == (0, ())


def test_cone_ranks_of_h_sphere():
    cone = cone_of_unit_sphere(unit_sphere_complex("Q8", "H"))
    sizes, _ = expand_level_e(cone)
    # one fixed cell plus 8 underlying points per free cell: 1, 8, 24, 32, 16
    assert [sizes[n] for n in range(5)] == [1, 8, 24, 32, 16]


def test_sphere_s0_and_suspension():
    s0 = sphere_complex(parse_rep("Q8", "0"))
    assert s0.cells == {0: ("Q8",)}
    s3 = sphere_complex(parse_rep("Q8", "3"))
    assert s3.cells == {3: ("Q8",)}


@pytest.mark.parametrize("group_name, text", [
    ("C2", "3rho"), ("C4", "2rho+lambda"), ("K4", "3rhoK"), ("Q8", "2rhoQ"),
    ("Q8", "rhoK+2rhoQ"), ("Q8", "3rhoQ"), ("Q8", "4rhoQ"),
])
def test_sphere_has_the_homology_of_a_sphere_of_its_dimension(group_name, text):
    # the closed form, read off the underlying integer complex without the
    # Mackey engine: Z in degree dim V and 0 in every other degree
    rep = parse_rep(group_name, text)
    h = underlying_homology_ranks(sphere_complex(rep))
    assert h.get(rep.dim) == (1, ())
    assert all(v == (0, ()) for n, v in h.items() if n != rep.dim)


# the integer homology of the underlying complex against a dense oracle, on
# 41 complexes: k rho spheres, mixed spheres, S(H), its cone, and restrictions
_ORACLE_SPHERES = (
    [("Q8", f"{k}rhoQ") for k in range(1, 7)]
    + [(g, f"{k}{rho}") for g, rho in (("K4", "rhoK"), ("C4", "rho"), ("C2", "rho"))
       for k in range(1, 9)]
    + [("Q8", "rhoK+2rhoQ"), ("Q8", "1+rhoK"), ("Q8", "H+sigmaL"), ("Q8", "2+rhoK+rhoQ"),
       ("C4", "2rho+lambda"), ("C4", "lambda+2sigma"), ("K4", "sigmaL+2sigmaD")]
)
_ORACLE_COMPLEXES = {
    **{f"{g} {text}": lambda g=g, text=text: sphere_complex(text, g)
       for g, text in _ORACLE_SPHERES},
    "S(H)": lambda: unit_sphere_complex("Q8", "H"),
    "cone of S(H)": lambda: cone_of_unit_sphere(unit_sphere_complex("Q8", "H")),
    **{f"2rhoQ restricted to {sub}": lambda sub=sub: restrict_complex(
        sphere_complex("2rhoQ", "Q8"), sub) for sub in ("L", "Z")},
}


def _dense_homology_ranks(c: BurnsideComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """expand_level_e's columns as dense matrices, and homology_at per degree."""
    sizes, cols_by_degree = expand_level_e(c)

    def free(n):
        return FgAbelian((0,) * sizes.get(n, 0))

    diff = {}
    for n, cols in cols_by_degree.items():
        m = [[0] * sizes[n] for _ in range(sizes.get(n - 1, 0))]
        for j, col in cols.items():
            for r, v in col.items():
                m[r][j] = v
        diff[n] = AbHom(free(n), free(n - 1), mat(m))
    out = {}
    for n in sorted(set(sizes) | {n - 1 for n in diff}):
        d_in, d_out = diff.get(n + 1), diff.get(n)
        if d_in is None and d_out is None:
            d_out = AbHom.zero(free(n), FgAbelian(()))
        h = homology_at(d_in, d_out).group
        out[n] = (h.rank, h.invariant_factors)
    return out


@pytest.mark.parametrize("name", list(_ORACLE_COMPLEXES))
def test_underlying_homology_ranks_match_the_dense_oracle(name):
    c = _ORACLE_COMPLEXES[name]()
    assert underlying_homology_ranks(c) == _dense_homology_ranks(c)


@pytest.mark.parametrize("text, most", [
    ("rhoK+2rhoQ", 49), ("3rhoQ", 55), ("4rhoQ", 85), ("rhoK+3rhoQ", 79),
])
def test_folded_spheres_stay_small(text, most):
    # smashing the blocks onto each other, largest first; the balanced
    # order that paired the two smallest complexes left 147, 65, 189 and 81
    assert sphere_complex(text, "Q8").ncells() <= most


# ---------------------------------------------------------------------------
# the fold that the closed-form blocks replaced, kept as an oracle


_FOLDED: dict = {}  # (periodic irreducibles, group, mults, shift) -> sphere


def _folded_sphere(rep: VirtualRep, periodic=repcw.PERIODIC, memo=None) -> BurnsideComplex:
    """S^V as sphere_complex built it before its closed-form blocks: every
    irreducible smashed on one at a time, the factors ordered largest
    reduced unit sphere first (ties in IRREDUCIBLES order), onto the sphere
    of the prefix, and the power of a single irreducible in ``periodic``
    spliced.  The prefixes are kept in memo, by default one shared dict."""
    memo = _FOLDED if memo is None else memo
    key = (periodic, rep.group_name, rep.mults, rep.shift)
    if key not in memo:
        memo[key] = _fold_step(rep, periodic, memo)
    return memo[key]


def _fold_step(rep: VirtualRep, periodic, memo) -> BurnsideComplex:
    mults = rep.mult_dict()
    gname = rep.group_name
    irrs = [irr for irr in repcw.IRREDUCIBLES[gname] if mults.get(irr)]

    def sphere(part: dict) -> BurnsideComplex:
        return _folded_sphere(VirtualRep.make(gname, part), periodic, memo)

    if mults.get("1") or rep.shift:
        return repcw.suspend(sphere({irr: mults[irr] for irr in irrs}),
                             mults.get("1", 0) + rep.shift)
    if not irrs:
        return point_complex(gname)
    if mults == {irrs[0]: 1}:
        return reduce_complex(cone_of_unit_sphere(unit_sphere_complex(gname, irrs[0])))
    if len(irrs) == 1 and (gname, irrs[0]) in periodic:
        return repcw.periodic_sphere(sphere({irrs[0]: 1}), mults[irrs[0]])
    unit = {irr: sphere({irr: 1}) for irr in irrs}
    f = sorted(irrs, key=lambda irr: unit[irr].ncells(), reverse=True)[-1]
    return reduce_complex(repcw.smash(sphere({**mults, f: mults[f] - 1}), unit[f]))


def _built(monkeypatch, make):
    """make() with a fresh sphere cache, and the (left, right) pairs it smashed."""
    smashed = []
    real_smash = repcw.smash

    def counting_smash(c, d):
        smashed.append((c, d))
        return real_smash(c, d)

    with monkeypatch.context() as m:
        m.setattr(repcw, "_SPHERE_CACHE", LruMemo("sphere cache", 256))
        m.setattr(repcw, "smash", counting_smash)
        return make(), smashed


def _spheres_of(group_name: str, texts) -> dict:
    """The spheres of the positive and negative parts of virtual reps."""
    out = {}
    for text in texts:
        for part in parse_rep(group_name, text).split()[:2]:
            if part.mults:
                out[(part.group_name, part.mults)] = part
    return out


def _fixture_spheres() -> list[VirtualRep]:
    """Every sphere the golden degree tables and the Q8 and C4 slice lists
    n <= 32 use.  The benchmark's workloads compute fixture rows and slice
    pages n <= 13 only, so their spheres are among these."""
    spheres = _spheres_of("Q8", ["H"])
    for gname, filename in [("Q8", "qrho_grid.txt"), ("K4", "krho_grid.txt"),
                            ("K4", "krho_mod2_grid.txt"), ("Q8", "aux_mixed.txt"),
                            ("Q8", "slice_homotopy.txt")]:
        spheres.update(_spheres_of(gname, [key.split()[0] for key in degree_table(filename)]))
    for gname in ("Q8", "C4"):
        spheres.update(_spheres_of(
            gname, [d.rep for n in range(33) for d in slice_list(gname, n) if d.rep]))
    return list(spheres.values())


def test_every_fixture_and_slice_sphere_equals_the_fold():
    spheres = _fixture_spheres()
    assert len(spheres) == 54
    for rep in spheres:
        assert sphere_complex(rep).content_key == _folded_sphere(rep).content_key, str(rep)


_KRHO_ROWS = [("Q8", "rhoQ", 12), ("K4", "rhoK", 12), ("C4", "rho", 8)]


def test_the_krho_rows_equal_the_fold_and_a_second_pass_builds_none(monkeypatch, stats):
    cache = LruMemo("sphere cache", 256)
    monkeypatch.setattr(repcw, "_SPHERE_CACHE", cache)
    rows = [parse_rep(g, f"{k}{rho}") for g, rho, top in _KRHO_ROWS for k in range(1, top + 1)]
    assert len(rows) == 32
    misses = 0  # the fold's own spheres go to a cache of the same name
    for rep in rows:
        stats.mark()
        built = sphere_complex(rep)
        misses += stats.grew()["sphere cache misses"]
        assert built.content_key == _folded_sphere(rep).content_key, str(rep)
    # each row and its nontrivial part, and the unit spheres of H and
    # lambda; the fold built 496 spheres for these rows, more than the 256
    # entries hold, so a second pass built them all again
    assert misses == len(cache) == 66
    stats.mark()
    for rep in rows:
        sphere_complex(rep)
    assert stats.grew()["sphere cache misses"] == 0


@pytest.mark.parametrize("group_name, texts", [
    ("C2", [f"{k}{v}" for k in range(1, 13) for v in ("sigma", "rho")]),
    ("Q8", [f"{k}rhoK" for k in range(1, 9)]),
    ("C4", [f"{a}lambda+{b}sigma" for a in range(5) for b in range(6)]),
    ("Q8", [f"{a}H+{b}sigmaL+{c}sigmaD" for a in range(4) for b in range(4) for c in range(4)]),
])
def test_more_rows_equal_the_fold(group_name, texts):
    # C4 lambda+2sigma and its kind tell the block order apart: smashing
    # the blocks smallest first gives other complexes
    for text in texts:
        rep = parse_rep(group_name, text)
        assert sphere_complex(rep).content_key == _folded_sphere(rep).content_key, text


def _reversed_blocks(rep: VirtualRep) -> BurnsideComplex:
    """S^V from the same closed-form blocks smashed the other way round:
    the signs in reverse IRREDUCIBLES order, the periodic block last.  It
    is another complex of the same sphere."""
    mults = rep.mult_dict()
    gname = rep.group_name
    irrs = sorted((irr for irr in reversed(repcw.IRREDUCIBLES[gname]) if mults.get(irr)),
                  key=lambda irr: (gname, irr) in repcw.PERIODIC)
    out = point_complex(gname)
    for irr in irrs:
        block = (repcw.periodic_sphere(sphere_complex(irr, gname), mults[irr])
                 if (gname, irr) in repcw.PERIODIC else sign_sphere(gname, irr, mults[irr]))
        out = reduce_complex(smash(out, block))
    return repcw.suspend(out, mults.get("1", 0))


@pytest.mark.parametrize("seed", [3, 14, 15])
@pytest.mark.parametrize("group_name", ["C2", "C4", "K4", "Q8"])
def test_random_spheres_agree_with_the_fold_cell_for_cell(group_name, seed):
    # two nonzero virtual representations per seed, up to 2 of each
    # irreducible and 1 trivial summand
    rng = random.Random(seed)
    reps = []
    while len(reps) < 2:
        rep = VirtualRep.make(group_name, {irr: rng.randint(0, 2) for irr in
                                           repcw.IRREDUCIBLES[group_name]})
        if rep.mults:
            reps.append(VirtualRep.make(group_name, {**rep.mult_dict(), "1": rng.randint(0, 1)}))
    z = named(group_name, "Z")
    for rep in reps:
        blocks = sphere_complex(rep)
        assert blocks.content_key == _folded_sphere(rep).content_key, str(rep)
        other = _reversed_blocks(rep)
        for n in range(rep.dim + 2):
            a, _ = homology_mackey(blocks, z, n)
            b, _ = homology_mackey(other, z, n)
            assert is_isomorphic(a, b), (str(rep), n)


def test_a_sphere_is_one_smash_per_block_after_the_first(monkeypatch):
    rep = parse_rep("Q8", "2H+2sigmaL")
    out, smashed = _built(monkeypatch, lambda: sphere_complex(rep))
    assert len(smashed) == 1
    c, d = smashed[0]
    assert c.content_key == repcw.periodic_sphere(sphere_complex("H", "Q8"), 2).content_key
    assert d.content_key == sign_sphere("Q8", "sigmaL", 2).content_key
    assert out.content_key == _folded_sphere(rep).content_key
    # one block per irreducible, so at most three smashes over Q8
    _, smashed = _built(monkeypatch, lambda: sphere_complex("3rhoQ+2", "Q8"))
    assert len(smashed) == 3


def test_only_the_spheres_asked_for_are_cached(monkeypatch, stats):
    cache = LruMemo("sphere cache", 256)
    monkeypatch.setattr(repcw, "_SPHERE_CACHE", cache)
    sphere_complex("2H+2sigmaL+sigmaR", "Q8")
    # the sphere and the unit sphere of H, which its block splices; no prefix
    grew = stats.grew()
    assert (grew["sphere cache misses"], len(cache)) == (2, 2)
    sphere_complex("H", "Q8")
    grew = stats.grew()
    assert (grew["sphere cache hits"], grew["sphere cache misses"]) == (1, 2)


def test_each_public_constructor_checks_its_complex_once(monkeypatch):
    checked = []
    real_check = repcw.check_boundary

    def counting_check(c):
        checked.append(c)
        real_check(c)

    monkeypatch.setattr(repcw, "check_boundary", counting_check)
    monkeypatch.setattr(repcw, "_SPHERE_CACHE", LruMemo("sphere cache", 256))
    h = unit_sphere_complex("Q8", "H")
    cone = cone_of_unit_sphere(h)
    s_h, s_l = sphere_complex("H", "Q8"), sphere_complex("sigmaL", "Q8")
    constructors = {
        "unit_sphere_complex": lambda: unit_sphere_complex("Q8", "H"),
        "cone_of_unit_sphere": lambda: cone_of_unit_sphere(h),
        "reduce_complex": lambda: reduce_complex(cone),
        "smash": lambda: smash(s_h, s_l),
        "sign_sphere": lambda: sign_sphere("Q8", "sigmaL", 3),
        "periodic_sphere": lambda: repcw.periodic_sphere(s_h, 2),
        "restrict_complex": lambda: restrict_complex(s_h, "L"),
        # the unit sphere of H is cached: one splice
        "sphere_complex": lambda: sphere_complex("3H", "Q8"),
    }
    for name, make in constructors.items():
        checked.clear()
        out = make()
        assert len(checked) == 1 and checked[0] is out, name
    # a block step checks its sign block, the smash of the blocks, then the
    # reduced sphere, and a cached sphere is not checked again
    checked.clear()
    out = sphere_complex("H+sigmaL", "Q8")
    assert len(checked) == 3 and checked[2] is out
    assert checked[0].content_key == s_l.content_key
    assert checked[1].ncells() > out.ncells()
    checked.clear()
    sphere_complex("H+sigmaL", "Q8")
    assert not checked


@pytest.mark.parametrize("group_name, irr", sorted(repcw.SIGN_KERNEL))
def test_a_sign_sphere_is_a_sphere_on_which_its_kernel_acts_trivially(group_name, irr):
    kernel = repcw.SIGN_KERNEL[(group_name, irr)]
    cone = reduce_complex(cone_of_unit_sphere(unit_sphere_complex(group_name, irr)))
    assert sign_sphere(group_name, irr, 1).content_key == cone.content_key
    for k in range(1, 13):
        c = sign_sphere(group_name, irr, k)
        h = underlying_homology_ranks(c)
        assert h[k] == (1, ()) and all(v == (0, ()) for n, v in h.items() if n != k)
        # K acts trivially on sigma, so over K this is S^k: one cell fixed
        # by all of K in degree k
        over_k = reduce_complex(restrict_complex(c, kernel))
        assert dict(over_k.cells) == {k: (group(over_k.group_name).top().name,)}, k
        assert not over_k.diff


_CONTENT_DIGESTS = """
import hashlib
from mackey import repcw
for group_name, text, sub in [
    ("Q8", "rhoQ", "L"), ("Q8", "2rhoQ", "Z"), ("Q8", "rhoK", "D"),
    ("Q8", "rhoK+2rhoQ", "R"), ("C4", "rho", "C2"), ("K4", "2rhoK", "L"),
]:
    c = repcw.sphere_complex(text, group_name)
    for x in (c, repcw.restrict_complex(c, sub)):
        print(group_name, text, x.group_name, hashlib.sha256(x.content_key).hexdigest())
"""


def test_complexes_do_not_depend_on_the_string_hash_seed():
    src = str(Path(repcw.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = [
        subprocess.run(
            [sys.executable, "-c", _CONTENT_DIGESTS], capture_output=True, text=True,
            check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in ("0", "1", "2")
    ]
    assert len(runs[0].splitlines()) == 12
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("group_name, irr", sorted(repcw.PERIODIC))
def test_each_periodic_irreducible_has_one_period_of_free_cells(group_name, irr):
    g = group(group_name)
    unit = unit_sphere_complex(group_name, irr)
    d = repcw.IRR_DIM[irr]
    # S(V) is free and connected
    assert all(k == "e" for cs in unit.cells.values() for k in cs)
    assert underlying_homology_ranks(unit)[0] == (1, ())
    # the reduced S^V: one G/G cell, then free cells in degrees 1..d with
    # one cell at each end
    s = sphere_complex(irr, group_name)
    assert s.cells[0] == (g.top().name,) and max(s.cells) == d
    assert all(k == "e" for n in range(1, d + 1) for k in s.cells[n])
    assert len(s.cells[1]) == len(s.cells[d]) == 1
    # orientation preserving: the sum of the top cell's translates is a
    # cycle, so every entry of its boundary augments to zero
    assert all(sum(x for x, _ in e) == 0 for e in s.diff[d].values())


@pytest.mark.parametrize("group_name, text", [
    ("C4", "sigma"), ("C4", "lambda+sigma"), ("Q8", "H+sigmaL"), ("Q8", "0"),
])
def test_only_one_period_of_free_cells_is_spliced(group_name, text):
    with pytest.raises(ValueError):
        repcw.periodic_sphere(sphere_complex(text, group_name), 2)


@pytest.mark.parametrize("group_name, irr, coeffs, ks", [
    ("Q8", "H", ("Z", "Z*", "B(3,0)", "mg"), (2, 3, 4)),
    ("C4", "lambda", ("Z", "Z*", "B(2,0)", "g"), (2, 3)),
])
def test_the_splice_agrees_with_the_fold(monkeypatch, group_name, irr, coeffs, ks):
    for k in ks:
        rep = parse_rep(group_name, f"{k}{irr}")
        spliced, smashes = _built(monkeypatch, lambda: sphere_complex(rep))
        # the fold without the splice: one smash per factor after the first
        folded, folds = _built(monkeypatch, lambda: _folded_sphere(rep, frozenset(), {}))
        assert (len(smashes), len(folds)) == (0, k - 1)
        assert ({n: len(cs) for n, cs in spliced.cells.items()}
                == {n: len(cs) for n, cs in folded.cells.items()})
        assert spliced.ncells() == 1 + k * (sphere_complex(irr, group_name).ncells() - 1)
        check_boundary(spliced)
        dim = k * repcw.IRR_DIM[irr]
        h = underlying_homology_ranks(spliced)
        assert h[dim] == (1, ()) and all(v == (0, ()) for n, v in h.items() if n != dim)
        for name in coeffs:
            coeff = named(group_name, name)
            for n in range(dim + 2):
                a, _ = homology_mackey(spliced, coeff, n)
                b, _ = homology_mackey(folded, coeff, n)
                assert is_isomorphic(a, b), (rep, name, n)


def test_5rhoq_has_the_same_names_spliced_and_folded(monkeypatch):
    z = named("Q8", "Z")
    rep = parse_rep("Q8", "5rhoQ")
    blocks, smashes = _built(monkeypatch, lambda: sphere_complex(rep))
    spliced, splice_folds = _built(monkeypatch, lambda: _folded_sphere(rep, memo={}))
    folded, folds = _built(monkeypatch, lambda: _folded_sphere(rep, frozenset(), {}))
    # three smashes of four blocks; the fold smashed each of the 15 sign
    # factors on, and the five H as well without the splice
    assert (len(smashes), len(splice_folds), len(folds)) == (3, 15, 19)
    assert blocks.content_key == spliced.content_key
    names = [(homology_mackey(blocks, z, n)[1], homology_mackey(folded, z, n)[1])
             for n in range(42)]
    assert all(a == b and a is not None for a, b in names), names
    assert names[40] == ("Z", "Z") and names[10][0] == "phi_LDR(F)+g^3"


def test_sign_sphere_homology():
    c = sphere_complex(parse_rep("C4", "sigma"))
    h = underlying_homology_ranks(c)
    assert h.get(1) == (1, ())
    assert all(v == (0, ()) for n, v in h.items() if n != 1)


def test_lambda_sphere_homology():
    c = sphere_complex(parse_rep("C4", "lambda"))
    h = underlying_homology_ranks(c)
    assert h.get(2) == (1, ())


def test_smash_two_circles():
    s1 = sphere_complex(parse_rep("K4", "1"))
    s2 = smash(s1, s1)
    h = underlying_homology_ranks(s2)
    assert h.get(2) == (1, ())


def test_smash_sign_spheres_free_orbit():
    a = cone_of_unit_sphere(unit_sphere_complex("K4", "sigmaL"))
    b = cone_of_unit_sphere(unit_sphere_complex("K4", "sigmaR"))
    s = smash(a, b)
    # the double coset split of K4/L x K4/R is a single free orbit
    assert s.cells[2] == ("e",)
    h = underlying_homology_ranks(s)
    assert h.get(2) == (1, ())


def test_smash_group_mismatch():
    with pytest.raises(GroupMismatch):
        smash(point_complex("Q8"), point_complex("K4"))


def test_negative_multiplicity_rejected():
    with pytest.raises(NegativeMultiplicity):
        sphere_complex(parse_rep("Q8", "rhoK-H"))


def test_reduction_preserves_homology():
    c = cone_of_unit_sphere(unit_sphere_complex("Q8", "H"))
    r = reduce_complex(c)
    assert r.ncells() < c.ncells()
    assert underlying_homology_ranks(r).get(4) == (1, ())
    check_boundary(r)


def test_rho_k_sphere():
    c = sphere_complex(parse_rep("K4", "rhoK"))
    h = underlying_homology_ranks(c)
    assert h.get(4) == (1, ())
    assert all(v == (0, ()) for n, v in h.items() if n != 4)


def test_restrict_h_sphere_to_c4():
    over_c4 = restrict_complex(sphere_complex(parse_rep("Q8", "H")), "L")
    assert over_c4.group_name == "C4"
    direct = sphere_complex(parse_rep("C4", "2lambda"))
    ha = underlying_homology_ranks(over_c4)
    hb = underlying_homology_ranks(direct)
    keys = set(ha) | set(hb)
    for n in keys:
        assert ha.get(n, (0, ())) == hb.get(n, (0, ()))


def test_restrict_to_trivial_is_underlying():
    c = sphere_complex(parse_rep("K4", "sigmaL"))
    r = restrict_complex(c, "e")
    assert r.group_name == "T"
    sizes, _ = expand_level_e(c)
    rsizes, _ = expand_level_e(r)
    assert sizes == rsizes


def test_smash_associativity_on_homology():
    a = cone_of_unit_sphere(unit_sphere_complex("K4", "sigmaL"))
    b = cone_of_unit_sphere(unit_sphere_complex("K4", "sigmaD"))
    c = cone_of_unit_sphere(unit_sphere_complex("K4", "sigmaR"))
    left = smash(smash(a, b), c)
    right = smash(a, smash(b, c))
    hl = underlying_homology_ranks(left)
    hr = underlying_homology_ranks(right)
    keys = set(hl) | set(hr)
    for n in keys:
        assert hl.get(n, (0, ())) == hr.get(n, (0, ()))
    # and as Mackey functors at every level
    from mackey.bredon import homology_mackey
    from mackey.catalog import named
    from mackey.functors import is_isomorphic

    coeff = named("K4", "Z")
    for n in range(0, 4):
        fl, _ = homology_mackey(left, coeff, n)
        fr, _ = homology_mackey(right, coeff, n)
        assert is_isomorphic(fl, fr), n


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_sphere_underlying_homology(data):
    gname = data.draw(st.sampled_from(["C2", "C4", "K4", "Q8"]))
    irrs = {
        "C2": ["sigma"], "C4": ["sigma", "lambda"],
        "K4": ["sigmaL", "sigmaD", "sigmaR"],
        "Q8": ["sigmaL", "sigmaD", "sigmaR", "H"],
    }[gname]
    mults = {"1": data.draw(st.integers(0, 2))}
    for irr in irrs:
        mults[irr] = data.draw(st.integers(0, 1 if irr == "H" else 2))
    from mackey.repcw import VirtualRep

    rep = VirtualRep.make(gname, mults)
    c = sphere_complex(rep)
    h = underlying_homology_ranks(c)
    for n, v in h.items():
        expected = (1, ()) if n == rep.dim else (0, ())
        assert v == expected, (gname, mults, n, v)
