"""Inflation of Mackey functors along a quotient q: G -> G/N.

Three constructions are provided, all at the level of finite data and all
restricted to bottleneck kernels (a nontrivial proper normal subgroup
comparable with every subgroup), where they are determined by two facts:
pushing forward recovers the original functor, and the restriction to N is
constant at the bottom value.

* ``q_push``: levels over G/N read off the levels of G at preimages.
* ``psi_inflate``: the module-level inflation; constant at M(e) on levels
  inside N, with identity restrictions and index transfers there.
* ``phi_inflate``: the geometric inflation; zero strictly below N.

``psi_inflate`` requires its input to satisfy the cohomological condition;
``q_push . psi_inflate`` is the identity on the nose, not merely up to
isomorphism, and the tests check exact data equality.
"""

from __future__ import annotations

from .exactalg import AbHom, FgAbelian
from .functors import MackeyFunctor, covering_pairs, is_isomorphic
from .grouplat import QuotientMap, group


class NotBottleneck(Exception):
    pass


class NotZModule(Exception):
    pass


class BottomNotZero(Exception):
    pass


class NoQuotient(Exception):
    pass


def quotient_onto(source: str, target: str) -> QuotientMap:
    """The quotient map of source onto target by a nontrivial proper normal
    subgroup; raises NoQuotient if there is none."""
    big = group(source)
    for n in big.subgroups():
        if 1 < n.order < big.order and big.quotient(n).target == target:
            return big.quotient(n)
    raise NoQuotient(f"{source} has no quotient {target} by a nontrivial "
                     "proper normal subgroup")


def q_push(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Push a G-Mackey functor down to G/N by evaluating at preimages."""
    if m.group_name != qm.source:
        raise ValueError("functor is not over the source of the quotient")
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


def _require_bottleneck(qm: QuotientMap) -> None:
    src = qm.source_group()
    n = qm.kernel_subgroup()
    if n.order in (1, src.order) or not src.is_bottleneck(n):
        raise NotBottleneck(f"{qm.kernel} is not a bottleneck subgroup of {qm.source}")


def psi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Module inflation: copy above N, constant at m(e) on and below N."""
    if m.group_name != qm.target:
        raise ValueError("functor is not over the target of the quotient")
    _require_bottleneck(qm)
    if not m.is_zmodule:
        raise NotZModule("module inflation needs the cohomological condition")
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
            # inside the kernel: identity restriction, index transfer
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


def phi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Geometric inflation: copy above N, zero strictly below it."""
    if m.group_name != qm.target:
        raise ValueError("functor is not over the target of the quotient")
    _require_bottleneck(qm)
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
    # the cohomological condition survives iff |N| kills the bottom value
    zmod = m.is_zmodule and all(
        o != 0 and n.order % o == 0 for o in m.levels["e"].orders
    )
    return MackeyFunctor(qm.source, levels, res, tr, weyl, zmod)


def check_psi_phi_agree(qm: QuotientMap, m: MackeyFunctor) -> bool:
    """The two inflations agree whenever the bottom level vanishes."""
    if not m.levels["e"].is_trivial:
        raise BottomNotZero("the bottom level must vanish")
    return is_isomorphic(psi_inflate(qm, m), phi_inflate(qm, m))
