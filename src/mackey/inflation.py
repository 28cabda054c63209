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

Each reads its input through ``functors.pull_back`` and changes only what
is its own: ``psi_inflate`` the transfers inside N, ``phi_inflate`` the
levels and maps strictly below N.

``psi_inflate`` requires its input to satisfy the cohomological condition;
``q_push . psi_inflate`` is the identity on the nose, not merely up to
isomorphism, and the tests check exact data equality.
"""

from __future__ import annotations

from .exactalg import AbHom, FgAbelian
from .functors import MackeyFunctor, covering_pairs, is_isomorphic, pull_back
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
    tgt = qm.target_group()
    pre = {s.name: qm.preimage_subgroup(s).name for s in tgt.subgroups()}
    section = {}
    for e in qm.source_group().elements:
        section.setdefault(qm(e), e)
    return MackeyFunctor(qm.target, *pull_back(m, qm.target, pre, section), m.is_zmodule)


def _require_bottleneck(qm: QuotientMap) -> None:
    src = qm.source_group()
    n = qm.kernel_subgroup()
    if n.order in (1, src.order) or not src.is_bottleneck(n):
        raise NotBottleneck(f"{qm.kernel} is not a bottleneck subgroup of {qm.source}")


def _inflate(qm: QuotientMap, m: MackeyFunctor) -> tuple[list[str], tuple[dict, ...]]:
    """The subgroups inside the kernel N, and m read along qm: a subgroup
    containing N at its image, one inside N at the bottom, e."""
    if m.group_name != qm.target:
        raise ValueError("functor is not over the target of the quotient")
    _require_bottleneck(qm)
    n = qm.kernel_subgroup().elements
    pre, inside = {}, []
    for s in qm.source_group().subgroups():
        if n <= s.elements:
            pre[s.name] = qm.image_subgroup(s).name
        else:
            pre[s.name] = "e"
            inside.append(s.name)
    return inside, pull_back(m, qm.source, pre, qm.projection)


def psi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Module inflation: copy above N, constant at m(e) on and below N."""
    inside, (levels, res, tr, weyl) = _inflate(qm, m)
    if not m.is_zmodule:
        raise NotZModule("module inflation needs the cohomological condition")
    src = qm.source_group()
    for low, high in covering_pairs(src):
        if low in inside:
            # inside the kernel: identity restriction, index transfer
            index = src.subgroup(high).order // src.subgroup(low).order
            tr[(low, high)] = AbHom.scalar(levels[low], index)
    return MackeyFunctor(qm.source, levels, res, tr, weyl, True)


def phi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Geometric inflation: copy above N, zero strictly below it."""
    inside, (levels, res, tr, weyl) = _inflate(qm, m)
    zero = FgAbelian(())
    for s in inside:
        levels[s] = zero
    for low, high in covering_pairs(qm.source_group()):
        if low in inside:
            res[(low, high)] = AbHom.zero(levels[high], zero)
            tr[(low, high)] = AbHom.zero(zero, levels[high])
    weyl = {key: w for key, w in weyl.items() if key[0] not in inside}
    # the cohomological condition survives iff |N| kills the bottom value
    n = qm.kernel_subgroup()
    zmod = m.is_zmodule and all(
        o != 0 and n.order % o == 0 for o in m.levels["e"].orders
    )
    return MackeyFunctor(qm.source, levels, res, tr, weyl, zmod)


def check_psi_phi_agree(qm: QuotientMap, m: MackeyFunctor) -> bool:
    """The two inflations agree whenever the bottom level vanishes."""
    if not m.levels["e"].is_trivial:
        raise BottomNotZero("the bottom level must vanish")
    return is_isomorphic(psi_inflate(qm, m), phi_inflate(qm, m))
