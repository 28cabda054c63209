"""Group table, lattice, double coset, and quotient tests.

Double-coset assertions are frozen from a brute-force partition oracle
(enumerate all of G and group elements into H g K classes by hand below).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mackey import grouplat
from mackey.functors import _double_cosets_within
from mackey.grouplat import (
    NotProperNontrivial,
    ParentMismatch,
    group,
    subgroup_iso,
)


def brute_double_cosets(g, h, k, inside=None):
    """Independent partition of G (or of the subgroup inside) into double
    cosets H g K."""
    remaining = [x for x in g.elements if inside is None or x in inside]
    classes = []
    while remaining:
        x = remaining[0]
        cls = sorted(
            {g.mul(g.mul(a, x), b) for a in h.elements for b in k.elements},
            key=g.elem_sort_key,
        )
        classes.append(cls)
        remaining = [y for y in remaining if y not in cls]
    return classes


def test_subgroup_lists():
    assert [s.name for s in group("Q8").subgroups()] == ["e", "Z", "L", "D", "R", "Q8"]
    assert [s.name for s in group("K4").subgroups()] == ["e", "L", "D", "R", "K4"]
    assert [s.name for s in group("T").subgroups()] == ["e"]
    assert [s.name for s in group("C4").subgroups()] == ["e", "C2", "C4"]


@pytest.mark.parametrize("name", ["T", "C2", "C4", "K4", "Q8"])
def test_every_subgroup_is_normal(name):
    # the premise of the engine's Weyl maps: right translation of G/H by an
    # element of H is the identity, and two elements of one coset eH agree
    g = group(name)
    for s in g.subgroups():
        for x in g.elements:
            assert {g.mul(g.mul(x, y), g.inv(x)) for y in s.elements} == s.elements, (s, x)


def test_lagrange():
    for name in ("T", "C2", "C4", "K4", "Q8"):
        g = group(name)
        for s in g.subgroups():
            assert g.order % s.order == 0


def test_quaternion_relations():
    q = group("Q8")
    assert q.mul("i", "j") == "k"
    assert q.mul("j", "i") == "-k"
    assert q.mul("i", "i") == "-1"
    assert q.mul("k", "i") == "j"
    assert q.inv("i") == "-i"


def test_double_cosets_z_z():
    q = group("Q8")
    z = q.subgroup("Z")
    dcs = q.double_cosets(z, z)
    assert len(dcs) == 4
    assert all(stab.name == "Z" for _, stab in dcs)
    assert brute_double_cosets(q, z, z) == [
        ["1", "-1"], ["i", "-i"], ["j", "-j"], ["k", "-k"]
    ]


def test_double_cosets_full_group():
    for name in ("C2", "C4", "K4", "Q8"):
        g = group(name)
        dcs = g.double_cosets(g.top(), g.bottom())
        assert len(dcs) == 1
        assert dcs[0][1].name == "e"


def test_double_cosets_k4_l_d():
    g = group("K4")
    dcs = g.double_cosets(g.subgroup("L"), g.subgroup("D"))
    assert len(dcs) == 1
    assert dcs[0][1].name == "e"
    assert brute_double_cosets(g, g.subgroup("L"), g.subgroup("D")) == [
        ["1", "a", "b", "ab"]
    ]


def test_double_cosets_partition_count():
    # sum over cosets of |H||K|/|H n K| recovers |G|, and the
    # representatives are the least elements of the brute-force classes,
    # in G and, for K1, K2 <= H, in H
    for name in ("C4", "K4", "Q8"):
        g = group(name)
        for h in g.subgroups():
            for k in g.subgroups():
                dcs = g.double_cosets(h, k)
                total = sum(
                    h.order * k.order // g.intersect(h, k).order for _ in dcs
                )
                assert total == g.order
                assert [x for x, _ in dcs] == [c[0] for c in brute_double_cosets(g, h, k)]
            inside = [s for s in g.subgroups() if s <= h]
            for k1 in inside:
                for k2 in inside:
                    assert _double_cosets_within(g, h, k1, k2) == [
                        c[0] for c in brute_double_cosets(g, k1, k2, h)
                    ], (name, h.name, k1.name, k2.name)


def test_parent_mismatch():
    with pytest.raises(ParentMismatch):
        group("Q8").double_cosets(group("Q8").subgroup("Z"), group("K4").subgroup("L"))


def test_bottlenecks():
    q = group("Q8")
    assert q.is_bottleneck(q.subgroup("Z")) is True
    for nm in ("L", "D", "R"):
        assert q.is_bottleneck(q.subgroup(nm)) is False
    k = group("K4")
    assert k.is_bottleneck(k.subgroup("L")) is False
    c4 = group("C4")
    assert c4.is_bottleneck(c4.subgroup("C2")) is True
    with pytest.raises(NotProperNontrivial):
        q.is_bottleneck(q.subgroup("e"))


def test_quotient_q8_to_k4():
    q = group("Q8")
    qm = q.quotient(q.subgroup("Z"))
    assert qm.target == "K4"
    assert qm("i") == "a" and qm("j") == "b" and qm("k") == "ab"
    # subgroup names survive the identification
    for nm in ("L", "D", "R"):
        assert qm.image_subgroup(q.subgroup(nm)).name == nm


def test_small_quotients():
    c4 = group("C4")
    assert c4.quotient(c4.subgroup("C2")).target == "C2"
    k4 = group("K4")
    assert k4.quotient(k4.subgroup("L")).target == "C2"
    q = group("Q8")
    assert q.quotient(q.subgroup("Q8")).target == "T"
    assert q.quotient(q.subgroup("e")).target == "Q8"


def test_subgroup_isos_are_isos():
    for parent in ("C2", "C4", "K4", "Q8"):
        g = group(parent)
        for s in g.subgroups():
            target, iso = subgroup_iso(parent, s.name)
            t = group(target)
            assert sorted(iso) == sorted(s.elements)
            assert set(iso.values()) == set(t.elements)
            for x in s.elements:
                for y in s.elements:
                    assert iso[g.mul(x, y)] == t.mul(iso[x], iso[y])


# a C2 table in which s has no inverse, and C4 with {1, g} listed as a
# subgroup: under python -O each must still raise BadGroupTable
_BROKEN_TABLES = """
from mackey.grouplat import BadGroupTable, Group, group

c2, c4 = group("C2"), group("C4")
no_inverse = {**c2.table, ("s", "s"): "s"}
cases = [
    ("C2", c2.elements, no_inverse, {"e": ["1"], "C2": c2.elements}, ["e", "C2"]),
    ("C4", c4.elements, c4.table, {"e": ["1"], "C2": ["1", "g"], "C4": c4.elements},
     ["e", "C2", "C4"]),
]
print(__debug__)
for name, elems, table, subs, order in cases:
    try:
        Group(name, list(elems), table, subs, order)
    except BadGroupTable as exc:
        print(exc)
"""


def test_a_broken_table_raises_under_python_O():
    src = str(Path(grouplat.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", _BROKEN_TABLES], capture_output=True, text=True,
        check=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    ).stdout
    assert out.splitlines() == ["False", "C2: s has no inverse", "C4:C2 is not a subgroup"]

