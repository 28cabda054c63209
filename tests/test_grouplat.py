"""Group table, lattice, double coset, and quotient tests.

Double-coset assertions are frozen from a brute-force partition oracle
(enumerate all of G and group elements into H g K classes by hand below).
"""

import pytest

from mackey.functors import _double_cosets_within
from mackey.grouplat import (
    NotProperNontrivial,
    ParentMismatch,
    double_cosets,
    group,
    is_bottleneck,
    quotient,
    subgroup_iso,
    subgroups,
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
    assert [s.name for s in subgroups("Q8")] == ["e", "Z", "L", "D", "R", "Q8"]
    assert [s.name for s in subgroups("K4")] == ["e", "L", "D", "R", "K4"]
    assert [s.name for s in subgroups("T")] == ["e"]
    assert [s.name for s in subgroups("C4")] == ["e", "C2", "C4"]


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
    dcs = double_cosets(z, z)
    assert len(dcs) == 4
    assert all(stab.name == "Z" for _, stab in dcs)
    assert brute_double_cosets(q, z, z) == [
        ["1", "-1"], ["i", "-i"], ["j", "-j"], ["k", "-k"]
    ]


def test_double_cosets_full_group():
    for name in ("C2", "C4", "K4", "Q8"):
        g = group(name)
        dcs = double_cosets(g.top(), g.bottom())
        assert len(dcs) == 1
        assert dcs[0][1].name == "e"


def test_double_cosets_k4_l_d():
    g = group("K4")
    dcs = double_cosets(g.subgroup("L"), g.subgroup("D"))
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
        double_cosets(group("Q8").subgroup("Z"), group("K4").subgroup("L"))


def test_bottlenecks():
    q = group("Q8")
    assert is_bottleneck("Q8", q.subgroup("Z")) is True
    for nm in ("L", "D", "R"):
        assert is_bottleneck("Q8", q.subgroup(nm)) is False
    k = group("K4")
    assert is_bottleneck("K4", k.subgroup("L")) is False
    assert is_bottleneck("C4", group("C4").subgroup("C2")) is True
    with pytest.raises(NotProperNontrivial):
        is_bottleneck("Q8", q.subgroup("e"))


def test_quotient_q8_to_k4():
    q = group("Q8")
    qm = quotient("Q8", q.subgroup("Z"))
    assert qm.target == "K4"
    assert qm("i") == "a" and qm("j") == "b" and qm("k") == "ab"
    # subgroup names survive the identification
    for nm in ("L", "D", "R"):
        assert qm.image_subgroup(q.subgroup(nm)).name == nm


def test_small_quotients():
    c4 = group("C4")
    assert quotient("C4", c4.subgroup("C2")).target == "C2"
    k4 = group("K4")
    assert quotient("K4", k4.subgroup("L")).target == "C2"
    assert quotient("Q8", group("Q8").subgroup("Q8")).target == "T"
    assert quotient("Q8", group("Q8").subgroup("e")).target == "Q8"


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
