"""Acceptance: every suite of the `mackey verify` registry (`cli.SUITES`,
the one place that chooses the fixture rows and degrees to check) passes
within its time bound, together the suites check every row of every
degree-table fixture, each acceptance criterion's rows are among them, and
the property batteries hold.

Every expected value is exact (these are finitely presented abelian groups
and integer matrices; no numerical tolerance exists anywhere).  The suite and
property tests print a PASS line, so `pytest -s tests/test_acceptance.py`
reads as a checklist.
"""

import random
import time
from unittest import mock

import pytest

from mackey import cli
from mackey.bredon import MackeyHomology, cohomology_mackey, homology_mackey
from mackey.catalog import named
from mackey.chart import ChartPage, golden_page, validate_differentials
from mackey.exactalg import FgAbelian
from mackey.functors import box_dual, is_isomorphic, restrict_functor
from mackey.golden import degree_table, golden_dir
from mackey.repcw import (
    VirtualRep,
    parse_rep,
    restrict_complex,
    sphere_complex,
    unit_sphere_complex,
)
from mackey.slices import slice_list, slice_tower

# seconds; the suite holding the quaternionic powers H, 2H, 3H is qrho-grid
BOUNDS = {"sphere-h": 1.0, "axioms": 1.0, "qrho-grid": 10.0}
# degree-table fixture -> its group
DEGREE_TABLES = {
    "qrho_grid.txt": "Q8", "krho_grid.txt": "K4", "krho_mod2_grid.txt": "K4",
    "aux_mixed.txt": "Q8", "slice_homotopy.txt": "Q8", "sphere_h.txt": "Q8",
}
OTHER_FIXTURES = ("slices_q8.txt", "slices_c4.txt", "charts_q8.txt")


@pytest.fixture(scope="module")
def runs():
    """name -> (failures, seconds, {(fixture, case): degrees checked}),
    each suite run once."""
    return {}


def _run(runs, name):
    if name not in runs:
        checked = {}
        real = cli._check_row

        def spy(filename, key, row, got, failures):
            checked[(filename, key)] = set(got)
            real(filename, key, row, got, failures)

        failures = []
        with mock.patch.object(cli, "_check_row", spy):
            t0 = time.perf_counter()
            cli.SUITES[name](None, failures)
            secs = time.perf_counter() - t0
        runs[name] = (failures, secs, checked)
    return runs[name]


@pytest.mark.parametrize("name", list(cli.SUITES))
def test_registry_suite(runs, name):
    failures, secs, checked = _run(runs, name)
    assert failures == []
    bound = BOUNDS.get(name, 60.0)
    assert secs < bound, f"took {secs:.2f}s, budget {bound:.0f}s"
    cells = sum(map(len, checked.values()))
    print(f"PASS {name} ({secs:.2f}s, {cells} degree-table cells)")


def _due(filename, key):
    """The degrees a case must be checked on: those it records and, for a
    suspension, the whole span of its representation (S^H is the suspension
    of Z by H; the S(H) rows are the unit sphere's own)."""
    row = degree_table(filename)[key]
    if key.startswith("S(H)"):
        return set(row)
    rep = "H" if key == "S^H homology" else key.split()[0]
    return set(row) | set(cli._span(DEGREE_TABLES[filename], rep))


def test_every_degree_table_case_is_checked_by_some_suite(runs):
    fixtures = sorted(p.name for p in golden_dir().glob("*.txt"))
    assert fixtures == sorted([*DEGREE_TABLES, *OTHER_FIXTURES])
    checked = {}
    for name in cli.SUITES:
        for case, degrees in _run(runs, name)[2].items():
            checked.setdefault(case, set()).update(degrees)
    for filename in DEGREE_TABLES:
        for key in degree_table(filename):
            assert (filename, key) in checked, f"{filename}: case {key} is unchecked"
            assert _due(filename, key) <= checked[(filename, key)], (filename, key)


def _passline(num, detail):
    print(f"PASS criterion {num}: {detail}")


def _rows_pass(runs, name, filename, *keys):
    """The registry suite `name` checked each named fixture row over its
    whole span and found none of them wrong."""
    failures, _secs, checked = _run(runs, name)
    for key in keys:
        assert _due(filename, key) <= checked.get((filename, key), set()), key
        assert not [f for f in failures if f.startswith(f"{filename}:{key} ")], key


def test_criterion_1_sphere_of_h():
    t0 = time.time()
    c = unit_sphere_complex("Q8", "H")
    coeff = named("Q8", "Z")
    expected = {3: "Z", 1: "mgw", 0: "Z*"}
    for n in range(0, 4):
        f, nm = homology_mackey(c, coeff, n)
        if n in expected:
            assert is_isomorphic(f, named("Q8", expected[n])), n
        else:
            assert f.is_trivial(), n
    elapsed = time.time() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _passline(1, "three-sphere homology is Z, mgw, Z* in degrees 3, 1, 0")


def test_criterion_2_h_powers(runs):
    _rows_pass(runs, "qrho-grid", "qrho_grid.txt", "H Z", "2H Z", "3H Z")
    assert runs["qrho-grid"][1] < BOUNDS["qrho-grid"]
    _passline(2, "quaternionic sphere powers k = 1, 2, 3")


def test_criterion_3_qrho_rows(runs):
    _rows_pass(runs, "qrho-grid", "qrho_grid.txt", "rhoQ Z", "2rhoQ Z")
    _passline(3, "regular-representation grid rows k = 1, 2, cell for cell")


def test_criterion_4_negative_spheres(runs):
    _rows_pass(runs, "sphere-h", "sphere_h.txt", "S(H) cohomology")
    _rows_pass(runs, "qrho-grid", "qrho_grid.txt", "-rhoQ Z", "-2rhoQ Z")
    _rows_pass(runs, "aux", "aux_mixed.txt",
               "rhoK-H Z", "rhoK-H Z(3,2)", "H-rhoK Z(2,0)")
    _passline(4, "cohomology of the three-sphere, negative grid rows, "
              "and the three mixed suspensions")


def test_criterion_5_klein_grid(runs):
    _rows_pass(runs, "krho-grid", "krho_grid.txt", "rhoK Z", "2rhoK Z", "3rhoK Z")
    _rows_pass(runs, "krho-mod2-grid", "krho_mod2_grid.txt", "rhoK F", "2rhoK F")
    _passline(5, "Klein four-group grid k <= 3 plus the mod-2 stretch rows")


def test_criterion_8_slices(runs):
    assert _run(runs, "slices")[0] == []
    for n in (5, 6, 7, 8):
        tower = slice_tower("Q8", n)
        assert sorted(d.t for d, _ in tower.layers) == sorted(
            d.t for d in slice_list("Q8", n)
        )
    # each slice layer family has the stated homotopy, one to three
    # regular-representation steps in
    _rows_pass(runs, "slice-homotopy", "slice_homotopy.txt",
               *degree_table("slice_homotopy.txt"))
    _passline(8, "slice lists for Q8 and C4, towers, and the homotopy of "
              "every slice family at j = 1, 2, 3")


def test_criterion_9_spectral_sequences(runs):
    assert _run(runs, "charts")[0] == []
    for n in (5, 6, 7, 8):
        want = golden_page("Q8", n)
        for k in range(len(want.differentials)):
            broken = ChartPage(
                want.group_name, n, dict(want.entries),
                want.differentials[:k] + want.differentials[k + 1:],
                dict(want.flags),
            )
            assert not validate_differentials(broken).ok, (n, k)
    _passline(9, "pages n = 5..8 cell for cell; every differential is "
              "needed and the printed patterns validate")


def test_criterion_10_property_suites():
    t0 = time.time()
    # twenty random small representation spheres: underlying homology is a
    # single infinite cyclic class in the sphere dimension
    rng = random.Random(20260808)
    irrs = {
        "C4": ["sigma", "lambda"],
        "K4": ["sigmaL", "sigmaD", "sigmaR"],
        "Q8": ["sigmaL", "sigmaD", "sigmaR", "H"],
    }
    for _ in range(20):
        gname = rng.choice(list(irrs))
        mults = {"1": rng.randint(0, 2)}
        for irr in irrs[gname]:
            mults[irr] = rng.randint(0, 1)
        rep = VirtualRep.make(gname, mults)
        eng = MackeyHomology(named(gname, "Z"), primal=sphere_complex(rep))
        for n in range(0, rep.dim + 1):
            lvl = eng.functor(n).levels["e"]
            if n == rep.dim:
                assert lvl == FgAbelian((0,))
            else:
                assert lvl.is_trivial

    # restriction functoriality on the two named complexes
    for rep in ("H", "rhoK"):
        c = sphere_complex(parse_rep("Q8", rep))
        coeff = named("Q8", "Z")
        eng = MackeyHomology(coeff, primal=c)
        eng_res = MackeyHomology(
            restrict_functor(coeff, "L"), primal=restrict_complex(c, "L")
        )
        for n in range(0, parse_rep("Q8", rep).dim + 1):
            assert is_isomorphic(
                restrict_functor(eng.functor(n), "L"), eng_res.functor(n)
            ), (rep, n)

    # duality cross-check on the three-sphere S(H)
    c = unit_sphere_complex("Q8", "H")
    m = named("Q8", "Z")
    dual_hom = {
        n: homology_mackey(c, box_dual(m), n)[0] for n in range(0, 4)
    }
    for n in range(0, 4):
        coh, _ = cohomology_mackey(c, m, n)
        if coh.is_trivial():
            continue
        free = all(v.is_free for v in coh.levels.values())
        partner = dual_hom[n] if free else dual_hom[n - 1]
        assert is_isomorphic(coh, box_dual(partner)), n
    elapsed = time.time() - t0
    print(f"PASS property batteries ({elapsed:.2f}s): twenty random spheres, "
          "restriction functoriality, duality cross-checks; all equalities exact")
