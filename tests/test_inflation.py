"""Change of group: restriction, pushforward and the two inflations along
bottleneck quotients."""

import pytest

from mackey.catalog import catalog, named
from mackey.exactalg import AbHom, FgAbelian
from mackey.functors import (
    MackeyFunctor,
    check_axioms,
    covering_pairs,
    data_equal,
    restrict_functor,
)
from mackey.grouplat import group, subgroup_iso
from mackey.inflation import (
    BottomNotZero,
    NotBottleneck,
    NotZModule,
    check_psi_phi_agree,
    phi_inflate,
    psi_inflate,
    q_push,
)


def qmap(src, kernel):
    g = group(src)
    return g.quotient(g.subgroup(kernel))


Q8_TO_K4 = qmap("Q8", "Z")
C4_TO_C2 = qmap("C4", "C2")


def test_q_push_constant():
    assert data_equal(q_push(Q8_TO_K4, named("Q8", "Z")), named("K4", "Z"))


def test_q_push_z32():
    assert data_equal(q_push(Q8_TO_K4, named("Q8", "Z(3,2)")), named("K4", "Z(2,1)"))


def test_q_push_mgw_levels():
    # level-by-level copy from the table: F2^2 on top, sign Z/4s, Z/2 bottom
    pushed = q_push(Q8_TO_K4, named("Q8", "mgw"))
    assert pushed.levels["K4"].orders == (2, 2)
    for nm in ("L", "D", "R"):
        assert pushed.levels[nm].orders == (4,)
    assert pushed.levels["e"].orders == (2,)
    assert check_axioms(pushed).ok


def test_psi_table_identities():
    assert data_equal(
        psi_inflate(Q8_TO_K4, named("K4", "Z(2,1)")), named("Q8", "Z(3,2)")
    )
    assert data_equal(
        psi_inflate(Q8_TO_K4, named("K4", "Z*")), named("Q8", "Z(3,1)")
    )
    assert data_equal(psi_inflate(C4_TO_C2, named("C2", "Z")), named("C4", "Z"))


def test_psi_preconditions():
    k4 = group("K4")
    with pytest.raises(NotBottleneck):
        psi_inflate(k4.quotient(k4.subgroup("L")), named("C2", "Z"))
    zq = named("K4", "Z")
    not_module = type(zq)(
        zq.group_name, dict(zq.levels), dict(zq.res), dict(zq.tr), {}, False
    )
    with pytest.raises(NotZModule):
        psi_inflate(Q8_TO_K4, not_module)


def test_push_after_psi_is_identity_on_data():
    for nm, f in catalog("K4").items():
        if not f.is_zmodule:
            continue
        inflated = psi_inflate(Q8_TO_K4, f)
        assert data_equal(q_push(Q8_TO_K4, inflated), f), nm
        assert check_axioms(inflated).ok, nm
        assert inflated.is_zmodule


def test_psi_bottom_structure():
    # below the kernel: identity restriction, index transfer
    inflated = psi_inflate(Q8_TO_K4, named("K4", "Z*"))
    assert inflated.res[("e", "Z")].matrix == ((1,),)
    assert inflated.tr[("e", "Z")].matrix == ((2,),)


def test_phi_inflate_shapes():
    phi_f = phi_inflate(Q8_TO_K4, named("K4", "F"))
    assert data_equal(phi_f, named("Q8", "phi_Z(F)"))
    for nm in ("Q8", "L", "D", "R", "Z"):
        assert phi_f.levels[nm].orders == (2,)
    assert phi_f.levels["e"].is_trivial
    phi_b = phi_inflate(Q8_TO_K4, named("K4", "B(2,0)"))
    assert data_equal(phi_b, named("Q8", "phi_Z(B(2,0))"))
    assert phi_b.levels["Z"].is_trivial


def test_phi_inflate_zero():
    from mackey.functors import zero_functor

    assert phi_inflate(Q8_TO_K4, zero_functor("K4")).is_trivial()


def test_psi_phi_agree_on_vanishing_bottom():
    for nm, f in catalog("K4").items():
        if not f.levels["e"].is_trivial or not f.is_zmodule:
            continue
        assert check_psi_phi_agree(Q8_TO_K4, f), nm


def test_psi_phi_agree_rejects_nonzero_bottom():
    with pytest.raises(BottomNotZero):
        check_psi_phi_agree(Q8_TO_K4, named("K4", "Z"))


# ---------------------------------------------------------------------------
# the four change-of-group builders against verbatim copies of the ones that
# each read m's levels, res/tr composites and Weyl maps themselves and each
# left out the identity Weyl maps themselves


def restrict_functor_copy(m, sub_name):
    g = m.group()
    g.subgroup(sub_name)
    target, iso = subgroup_iso(g.name, sub_name)
    inv = {v: k for k, v in iso.items()}
    tgt = group(target)
    pre = {}
    for s in tgt.subgroups():
        elems = frozenset(inv[x] for x in s.elements)
        match = next(t for t in g.subgroups() if t.elements == elems)
        pre[s.name] = match.name
    levels = {nm: m.levels[pre[nm]] for nm in pre}
    res = {}
    tr = {}
    for low, high in covering_pairs(tgt):
        res[(low, high)] = m.res_map(pre[low], pre[high])
        tr[(low, high)] = m.tr_map(pre[low], pre[high])
    weyl = {}
    for s in tgt.subgroups():
        for e in tgt.elements:
            w = m.weyl_action(pre[s.name], inv[e])
            if not w.equals(AbHom.identity(levels[s.name])):
                weyl[(s.name, e)] = w
    return MackeyFunctor(target, levels, res, tr, weyl, m.is_zmodule)


def q_push_copy(qm, m):
    src = qm.source_group()
    tgt = qm.target_group()
    pre = {s.name: qm.preimage_subgroup(s).name for s in tgt.subgroups()}
    levels = {nm: m.levels[pre[nm]] for nm in pre}
    res = {}
    tr = {}
    for low, high in covering_pairs(tgt):
        res[(low, high)] = m.res_map(pre[low], pre[high])
        tr[(low, high)] = m.tr_map(pre[low], pre[high])
    weyl = {}
    section = {}
    for e in src.elements:
        section.setdefault(qm(e), e)
    for s in tgt.subgroups():
        for e in tgt.elements:
            w = m.weyl_action(pre[s.name], section[e])
            if not w.equals(AbHom.identity(levels[s.name])):
                weyl[(s.name, e)] = w
    return MackeyFunctor(qm.target, levels, res, tr, weyl, m.is_zmodule)


def psi_inflate_copy(qm, m):
    src = qm.source_group()
    n = qm.kernel_subgroup()
    bottom = m.levels["e"]
    levels = {}
    for s in src.subgroups():
        if n.elements <= s.elements:
            levels[s.name] = m.levels[qm.image_subgroup(s).name]
        else:
            levels[s.name] = bottom
    res = {}
    tr = {}
    for low, high in covering_pairs(src):
        lo = src.subgroup(low)
        hi = src.subgroup(high)
        if n.elements <= lo.elements:
            key = (qm.image_subgroup(lo).name, qm.image_subgroup(hi).name)
            res[(low, high)] = m.res[key]
            tr[(low, high)] = m.tr[key]
        else:
            index = hi.order // lo.order
            res[(low, high)] = AbHom.identity(bottom)
            tr[(low, high)] = AbHom.scalar(bottom, index)
    weyl = {}
    for s in src.subgroups():
        img = qm.image_subgroup(s).name if n.elements <= s.elements else "e"
        for e in src.elements:
            w = m.weyl_action(img, qm(e))
            if not w.equals(AbHom.identity(levels[s.name])):
                weyl[(s.name, e)] = w
    return MackeyFunctor(qm.source, levels, res, tr, weyl, True)


def phi_inflate_copy(qm, m):
    src = qm.source_group()
    n = qm.kernel_subgroup()
    zero = FgAbelian(())
    levels = {}
    for s in src.subgroups():
        if n.elements <= s.elements:
            levels[s.name] = m.levels[qm.image_subgroup(s).name]
        else:
            levels[s.name] = zero
    res = {}
    tr = {}
    for low, high in covering_pairs(src):
        lo = src.subgroup(low)
        hi = src.subgroup(high)
        if n.elements <= lo.elements:
            key = (qm.image_subgroup(lo).name, qm.image_subgroup(hi).name)
            res[(low, high)] = m.res[key]
            tr[(low, high)] = m.tr[key]
        else:
            res[(low, high)] = AbHom.zero(levels[high], levels[low])
            tr[(low, high)] = AbHom.zero(levels[low], levels[high])
    weyl = {}
    for s in src.subgroups():
        if not (n.elements <= s.elements):
            continue
        img = qm.image_subgroup(s).name
        for e in src.elements:
            w = m.weyl_action(img, qm(e))
            if not w.equals(AbHom.identity(levels[s.name])):
                weyl[(s.name, e)] = w
    zmod = m.is_zmodule and all(
        o != 0 and n.order % o == 0 for o in m.levels["e"].orders
    )
    return MackeyFunctor(qm.source, levels, res, tr, weyl, zmod)


def _constructions(gname):
    """(label, built, copy) for every catalog entry of gname restricted to
    each subgroup, and, where gname is the source of Q8/Z or C4/C2, pushed
    down, and every entry of the target psi- and phi-inflated."""
    out = []
    for nm, f in sorted(catalog(gname).items()):
        for s in group(gname).subgroups():
            out.append((f"res {nm} to {s.name}", restrict_functor(f, s.name),
                        restrict_functor_copy(f, s.name)))
    qm = {"Q8": Q8_TO_K4, "C4": C4_TO_C2}.get(gname)
    if qm is not None:
        for nm, f in sorted(catalog(gname).items()):
            out.append((f"push {nm}", q_push(qm, f), q_push_copy(qm, f)))
        for nm, f in sorted(catalog(qm.target).items()):
            out.append((f"phi {nm}", phi_inflate(qm, f), phi_inflate_copy(qm, f)))
            if f.is_zmodule:
                out.append((f"psi {nm}", psi_inflate(qm, f), psi_inflate_copy(qm, f)))
    return out


@pytest.mark.parametrize("gname, count", [("C2", 14), ("C4", 46), ("K4", 80), ("Q8", 291)])
def test_change_of_group_matches_the_copies(gname, count):
    cases = _constructions(gname)
    for label, built, copy in cases:
        assert data_equal(built, copy), label
        assert built.content_key == copy.content_key, label
    assert len(cases) == count
