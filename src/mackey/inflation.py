"""Inflation of Mackey functors along a quotient q: G -> G/N.

Three constructions are provided:

* ``q_push``: levels over G/N read off the levels of G at preimages.
* ``psi_inflate``: the module-level inflation, along a bottleneck kernel
  (a nontrivial proper normal subgroup comparable with every subgroup),
  where it is determined by two facts: pushing forward recovers the
  original functor, and the restriction to N is constant at the bottom
  value.  It is constant at M(e) on levels inside N, with identity
  restrictions and index transfers there.
* ``phi_inflate``: the geometric inflation, along any nontrivial proper
  normal kernel; zero on every subgroup that does not contain N.

Each reads its input through ``functors.pull_back`` and changes only what
is its own: ``psi_inflate`` the transfers inside N, ``phi_inflate`` the
levels and maps on the subgroups that do not contain N.

``psi_inflate`` needs a cohomological input, as ``is_zmodule`` reads it off
the res and tr.  ``q_push . psi_inflate`` is the identity on the nose, not
merely up to isomorphism; the tests check exact data equality.
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
    subgroup; raises NoQuotient if there is none, or more than one."""
    big = group(source)
    maps = [big.quotient(n) for n in big.subgroups()
            if 1 < n.order < big.order and big.quotient(n).target == target]
    if len(maps) > 1:
        kernels = ", ".join(qm.kernel for qm in maps)
        raise NoQuotient(f"{source} has {len(maps)} quotients {target}, with "
                         f"kernels {kernels}")
    if not maps:
        raise NoQuotient(f"{source} has no quotient {target} by a nontrivial "
                         "proper normal subgroup")
    return maps[0]


def q_push(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Push a G-Mackey functor down to G/N by evaluating at preimages."""
    if m.group_name != qm.source:
        raise ValueError("functor is not over the source of the quotient")
    tgt = qm.target_group()
    pre = {s.name: qm.preimage_subgroup(s).name for s in tgt.subgroups()}
    section = {}
    for e in qm.source_group().elements:
        section.setdefault(qm(e), e)
    return MackeyFunctor(qm.target, *pull_back(m, qm.target, pre, section))


def _inflate(qm: QuotientMap, m: MackeyFunctor) -> tuple[list[str], tuple[dict, ...]]:
    """The subgroups that do not contain the kernel N, and m read along qm:
    a subgroup containing N at its image, any other at the bottom, e."""
    if m.group_name != qm.target:
        raise ValueError("functor is not over the target of the quotient")
    if qm.kernel_subgroup().order in (1, qm.source_group().order):
        raise NotBottleneck(f"{qm.kernel} is not a nontrivial proper subgroup "
                            f"of {qm.source}")
    n = qm.kernel_subgroup().elements
    pre, outside = {}, []
    for s in qm.source_group().subgroups():
        if n <= s.elements:
            pre[s.name] = qm.image_subgroup(s).name
        else:
            pre[s.name] = "e"
            outside.append(s.name)
    return outside, pull_back(m, qm.source, pre, qm.projection)


def psi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Module inflation: copy above N, constant at m(e) on and below N."""
    inside, (levels, res, tr, weyl) = _inflate(qm, m)
    if not qm.source_group().is_bottleneck(qm.kernel_subgroup()):
        raise NotBottleneck(f"{qm.kernel} is not a bottleneck subgroup of {qm.source}")
    if not m.is_zmodule:
        raise NotZModule("module inflation needs the cohomological condition")
    src = qm.source_group()
    for low, high in covering_pairs(src):
        if low in inside:
            # inside the kernel: identity restriction, index transfer
            index = src.subgroup(high).order // src.subgroup(low).order
            tr[(low, high)] = AbHom.scalar(levels[low], index)
    return MackeyFunctor(qm.source, levels, res, tr, weyl)


def phi_inflate(qm: QuotientMap, m: MackeyFunctor) -> MackeyFunctor:
    """Geometric inflation: copy on the subgroups containing N, zero on the
    others."""
    outside, (levels, res, tr, weyl) = _inflate(qm, m)
    zero = FgAbelian(())
    for s in outside:
        levels[s] = zero
    for low, high in covering_pairs(qm.source_group()):
        if low in outside:
            res[(low, high)] = AbHom.zero(levels[high], zero)
            tr[(low, high)] = AbHom.zero(zero, levels[high])
    weyl = {key: w for key, w in weyl.items() if key[0] not in outside}
    return MackeyFunctor(qm.source, levels, res, tr, weyl)


def check_psi_phi_agree(qm: QuotientMap, m: MackeyFunctor) -> bool:
    """The two inflations agree whenever the bottom level vanishes."""
    if not m.levels["e"].is_trivial:
        raise BottomNotZero("the bottom level must vanish")
    return is_isomorphic(psi_inflate(qm, m), phi_inflate(qm, m))
