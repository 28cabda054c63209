"""Mackey functors over the five supported groups, as finite data.

A Mackey functor assigns an abelian group to each subgroup together with
restriction and transfer along covering pairs of the subgroup lattice and a
Weyl action of the ambient group on each level.  Because every subgroup of
our groups is normal, conjugation is exactly the Weyl action and double
cosets are cosets of products, which keeps the axiom checks elementary.

Only covering-pair maps are stored; maps along longer chains are composites
(path independence is one of the checked axioms).
"""

from __future__ import annotations

import itertools
import marshal
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, reduce
from math import gcd
from types import MappingProxyType
from typing import Mapping

from .exactalg import (
    AbHom,
    FgAbelian,
    NonComposable,
    _is_identity,
    _mat_mul_mod,
    _reduce_matrix,
    _unchecked,
    homology_at,
    mat_add,
)
from .grouplat import Group, Subgroup, canonical_group_name, group, orbit_table, subgroup_iso


class Mismatch(Exception):
    pass


class MixedTorsion(Exception):
    pass


class UnknownName(Exception):
    pass


class IsomorphismSearchLimit(Exception):
    """A level is beyond the exhaustive isomorphism search: free rank 2 or
    more, or more than 300,000 candidate matrices."""


@dataclass(frozen=True)
class MackeyFunctor:
    """A value: every field is read-only, and the maps are private
    read-only copies of the dicts it was built from, so a functor handed
    out by a cache or the catalog cannot change under its other holders."""

    group_name: str
    levels: Mapping[str, FgAbelian]
    res: Mapping[tuple[str, str], AbHom]  # (sub, cover) -> level(cover) -> level(sub)
    tr: Mapping[tuple[str, str], AbHom]  # (sub, cover) -> level(sub) -> level(cover)
    weyl: Mapping[tuple[str, str], AbHom] = field(default_factory=dict)
    is_zmodule: bool = True
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "group_name", canonical_group_name(self.group_name))
        for f in ("levels", "res", "tr"):
            object.__setattr__(self, f, MappingProxyType(dict(getattr(self, f))))
        object.__setattr__(self, "_map_memo", {})  # composites, identities, keys below
        g = self.group()
        for s in g.subgroups():
            if s.name not in self.levels:
                raise ValueError(f"missing level {s.name}")
        # The one place that decides what is stored: the identity of its own
        # level is what weyl_action supplies, so it is dropped; an identity
        # onto another presentation is kept, for the checks to refuse.
        levels = self.levels
        object.__setattr__(self, "weyl", MappingProxyType({
            k: h for k, h in self.weyl.items()
            if not (_is_identity(h) and k[0] in levels
                    and h.dom.orders == levels[k[0]].orders)}))

    @cached_property
    def content_key(self) -> bytes:
        """Everything the axiom check and recognition read: group,
        is_zmodule, level orders and the res/tr/Weyl matrices (not the
        name).  Equal keys get equal verdicts.

        The key is one bytes string in marshal format 0, which shares no
        objects, so equal values encode to equal bytes: it is smaller than
        the nested tuples it encodes, and its hash is cached."""

        def maps(d):
            return sorted((k, h.dom.orders, h.cod.orders, h.matrix) for k, h in d.items())

        return marshal.dumps((
            self.group_name,
            self.is_zmodule,
            sorted((s, lvl.orders) for s, lvl in self.levels.items()),
            maps(self.res),
            maps(self.tr),
            maps(self.weyl),
        ), 0)

    def content_key_below(self, h: str) -> bytes:
        """content_key's part at the subgroups in a conjugate of h: all that
        a level-h Bredon complex reads of its coefficients."""
        key = ("below", h)
        if key not in self._map_memo:
            below = self.group().below[h]
            self._map_memo[key] = marshal.dumps((
                sorted((s, lvl.orders) for s, lvl in self.levels.items() if s in below),
                *(sorted((k, m.matrix) for k, m in d.items() if k[i] in below)
                  for d, i in ((self.res, 1), (self.tr, 1), (self.weyl, 0)))), 0)
        return self._map_memo[key]

    def group(self) -> Group:
        return group(self.group_name)

    def _chain(self, low: str, high: str) -> list[str]:
        g = self.group()
        lo, hi = g.subgroup(low), g.subgroup(high)
        if not lo.elements <= hi.elements:
            raise ValueError(f"{low} is not contained in {high}")
        chain = [low]
        cur = lo
        while cur.name != high:
            nxt = next(c for c in g.covers(cur) if c.elements <= hi.elements)
            chain.append(nxt.name)
            cur = nxt
        return chain

    def res_map(self, low: str, high: str) -> AbHom:
        """Restriction level(high) -> level(low), composed along the lattice."""
        memo = self._map_memo
        key = ("res", low, high)
        if key not in memo:
            memo[key] = _compose_res(self, self._chain(low, high))
        return memo[key]

    def tr_map(self, low: str, high: str) -> AbHom:
        memo = self._map_memo
        key = ("tr", low, high)
        if key not in memo:
            memo[key] = _compose_tr(self, self._chain(low, high))
        return memo[key]

    def weyl_action(self, sub: str, elem: str) -> AbHom:
        h = self.weyl.get((sub, elem))
        if h is None:
            memo = self._map_memo
            key = ("weyl_id", sub)
            h = memo.get(key)
            if h is None:
                h = memo[key] = AbHom.identity(self.levels[sub])
        return h

    def with_name(self, name: str) -> "MackeyFunctor":
        return replace(self, name=name)

    def is_trivial(self) -> bool:
        return all(v.is_trivial for v in self.levels.values())

    def direct_sum(self, other: "MackeyFunctor") -> "MackeyFunctor":
        if other.group_name != self.group_name:
            raise Mismatch("different groups")
        g = self.group()
        levels = {
            s.name: self.levels[s.name].direct_sum(other.levels[s.name])
            for s in g.subgroups()
        }
        res = {}
        tr = {}
        for key in self.res:
            res[key] = self.res[key].direct_sum(other.res[key])
            tr[key] = self.tr[key].direct_sum(other.tr[key])
        weyl = {
            (s.name, e): self.weyl_action(s.name, e).direct_sum(other.weyl_action(s.name, e))
            for s in g.subgroups() for e in g.elements
            if (s.name, e) in self.weyl or (s.name, e) in other.weyl
        }
        return MackeyFunctor(
            self.group_name, levels, res, tr, weyl,
            self.is_zmodule and other.is_zmodule,
        )

    def __str__(self) -> str:
        g = self.group()
        parts = [f"{s.name}: {self.levels[s.name]}" for s in reversed(g.subgroups())]
        label = self.name or "MackeyFunctor"
        return f"{label}({self.group_name}; " + ", ".join(parts) + ")"


def zero_functor(group_name: str, is_zmodule: bool = True,
                 name: str | None = "0") -> MackeyFunctor:
    g = group(group_name)
    z = FgAbelian(())
    maps = dict.fromkeys(covering_pairs(g), AbHom.zero(z, z))
    return MackeyFunctor(group_name, {s.name: z for s in g.subgroups()}, maps, maps, {},
                         is_zmodule, name)


def covering_pairs(g: Group) -> list[tuple[str, str]]:
    out = []
    for s in g.subgroups():
        for c in g.covers(s):
            out.append((s.name, c.name))
    return out


def data_equal(a: MackeyFunctor, b: MackeyFunctor) -> bool:
    """Exact equality of the stored data (not just isomorphism)."""
    if a.group_name != b.group_name:
        return False
    g = a.group()
    for s in g.subgroups():
        if a.levels[s.name].orders != b.levels[s.name].orders:
            return False
    for key in covering_pairs(g):
        if not a.res[key].equals(b.res[key]) or not a.tr[key].equals(b.tr[key]):
            return False
    for s in g.subgroups():
        for e in g.elements:
            if not a.weyl_action(s.name, e).equals(b.weyl_action(s.name, e)):
                return False
    return True


# ---------------------------------------------------------------------------
# axiom checking


def _double_cosets_within(g: Group, h: Subgroup, k1: Subgroup, k2: Subgroup):
    """Representatives of K1 \\ H / K2 inside the subgroup h: the double
    cosets K1\\G/K2 that lie in h, each by its least element."""
    reps, _, _ = orbit_table(g.name, (k1.name, k2.name))
    return [y for _, y in reps if y in h]


@dataclass
class AxiomReport:
    failures: list[str]
    checked: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        if self.ok:
            return f"all axioms pass ({len(self.checked)} checks)"
        return "FAIL:\n  " + "\n  ".join(self.failures)


def check_axioms(m: MackeyFunctor) -> AxiomReport:
    """Check the Mackey axioms: maps present and of the right shape, path
    independence of composite res and tr, the Weyl action, equivariance of
    res and tr, the double coset formula inside every subgroup, and the
    cohomological condition when ``m.is_zmodule``.

    The action and equivariance clauses are checked for each generator s
    in ``Group.generators`` only, which proves them for every element, by
    induction on a word in the generators:

    - W(1) = 1 is the clause "trivial on own subgroup" at 1, so
      W(x.1) = W(x)W(1) for every x;
    - if W(x.y) = W(x)W(y) for every x, then for a generator s,
      W(x.ys) = W(x.y)W(s) = W(x)W(y)W(s) = W(x)W(ys), the first and last
      steps being the generator clause at x.y and at y;
    - res and tr commute with W(1) = 1, and if they commute with W(y) at
      both of their levels, they commute with W(ys) = W(y)W(s).

    Q8 takes 289 checks this way, not the 661 of every pair of elements."""
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

    # path independence of composite res / tr
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

    # Weyl actions are actions, trivial on the subgroup itself
    known = len(failures)
    for s in g.subgroups():
        lvl = m.levels[s.name]
        for e in g.elements:
            w = m.weyl_action(s.name, e)
            expect(
                w.dom.orders == lvl.orders and w.cod.orders == lvl.orders,
                f"weyl shape {s.name},{e}",
            )
    if len(failures) > known:  # maps of the wrong shape do not compose
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
            for y in g.generators:
                wxy = m.weyl_action(s.name, g.mul(x, y))
                comp = wx.compose(m.weyl_action(s.name, y))
                expect(wxy.equals(comp), f"weyl action {s.name}: {x}*{y}")

    # equivariance of res and tr
    for low, high in pairs:
        for e in g.generators:
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

    # double coset formula inside every subgroup; the right-hand side is
    # summed as integer matrices and reduced mod level(k1) once
    for h in g.subgroups():
        inside = [s for s in g.subgroups() if s.elements <= h.elements]
        for k1 in inside:
            for k2 in inside:
                if k1.name == h.name and k2.name == h.name:
                    continue
                meet = g.intersect(k1, k2).name
                lhs = m.res_map(k1.name, h.name).compose(m.tr_map(k2.name, h.name))
                up, down = m.tr_map(meet, k1.name), m.res_map(meet, k2.name)
                terms = [up.compose(m.weyl_action(meet, rep).compose(down)).matrix
                         for rep in _double_cosets_within(g, h, k1, k2)]
                expect(
                    lhs.matrix == _reduce_matrix(reduce(mat_add, terms), lhs.cod),
                    f"double coset {k1.name}\\{h.name}/{k2.name}",
                )

    # cohomological condition
    if m.is_zmodule:
        for low, high in pairs:
            index = g.subgroup(high).order // g.subgroup(low).order
            lhs = m.tr[(low, high)].compose(m.res[(low, high)])
            expect(
                lhs.equals(AbHom.scalar(m.levels[high], index)),
                f"cohomological {low}<{high}",
            )

    return AxiomReport(failures, checked)


def _all_chains(g: Group, s: Subgroup, t: Subgroup) -> list[list[str]]:
    if s.name == t.name:
        return [[s.name]]
    out = []
    for c in g.covers(s):
        if c.elements <= t.elements:
            for rest in _all_chains(g, c, t):
                out.append([s.name] + rest)
    return out


def _compose_res(m: MackeyFunctor, chain: list[str]) -> AbHom:
    h = AbHom.identity(m.levels[chain[-1]])
    for a, b in reversed(list(zip(chain, chain[1:]))):
        h = m.res[(a, b)].compose(h)
    return h


def _compose_tr(m: MackeyFunctor, chain: list[str]) -> AbHom:
    h = AbHom.identity(m.levels[chain[0]])
    for a, b in zip(chain, chain[1:]):
        h = m.tr[(a, b)].compose(h)
    return h


# ---------------------------------------------------------------------------
# duality


def _dual_group(gp: FgAbelian) -> FgAbelian:
    return FgAbelian(gp.orders)


def _dual_hom(h: AbHom) -> AbHom:
    """Adjoint with respect to the standard pairings.

    Free groups dualize by transposing; finite ones are Pontryagin-dual,
    where the (j, i) entry picks up the factor dom_order_j / cod_order_i.
    """
    a, b = h.dom, h.cod
    rows = []
    for j in range(a.ngens):
        row = []
        for i in range(b.ngens):
            x = h.matrix[i][j]
            if a.orders[j] == 0 and b.orders[i] == 0:
                row.append(x)
            else:
                num = x * a.orders[j]
                if num % b.orders[i]:
                    raise MixedTorsion("hom has no integral dual")
                row.append(num // b.orders[i])
        rows.append(tuple(row))
    return AbHom(_dual_group(b), _dual_group(a), tuple(rows))


def box_dual(m: MackeyFunctor) -> MackeyFunctor:
    """Linear dual (all levels free) or Pontryagin dual (all levels finite).

    Restrictions and transfers trade places; the Weyl action dualizes with
    an inverse so it stays a left action.
    """
    kinds = set()
    for lvl in m.levels.values():
        if lvl.is_trivial:
            continue
        kinds.add("free" if lvl.is_free else ("finite" if lvl.is_finite else "mixed"))
    if "mixed" in kinds or len(kinds) > 1:
        raise MixedTorsion("levels must be all free or all finite")
    g = m.group()
    levels = {s.name: _dual_group(m.levels[s.name]) for s in g.subgroups()}
    res = {}
    tr = {}
    for key in covering_pairs(g):
        res[key] = _dual_hom(m.tr[key])
        tr[key] = _dual_hom(m.res[key])
    weyl = {
        (s.name, e): _dual_hom(m.weyl[(s.name, g.inv(e))])
        for s in g.subgroups() for e in g.elements if (s.name, g.inv(e)) in m.weyl
    }
    name = (m.name[:-1] if m.name.endswith("*") else m.name + "*") if m.name else None
    return MackeyFunctor(m.group_name, levels, res, tr, weyl, m.is_zmodule, name)


# ---------------------------------------------------------------------------
# morphisms and exact sequences


@dataclass
class MackeyMorphism:
    source: MackeyFunctor
    target: MackeyFunctor
    components: dict[str, AbHom]

    def __post_init__(self):
        if self.source.group_name != self.target.group_name:
            raise Mismatch("source and target over different groups")
        g = self.source.group()
        for s in g.subgroups():
            c = self.components.get(s.name)
            if c is None:
                raise Mismatch(f"missing component at {s.name}")
            if (
                c.dom.orders != self.source.levels[s.name].orders
                or c.cod.orders != self.target.levels[s.name].orders
            ):
                raise Mismatch(f"component at {s.name} has wrong shape")
        for low, high in covering_pairs(g):
            f_low, f_high = self.components[low], self.components[high]
            if not f_low.compose(self.source.res[(low, high)]).equals(
                self.target.res[(low, high)].compose(f_high)
            ):
                raise Mismatch(f"does not commute with res at {low}<{high}")
            if not f_high.compose(self.source.tr[(low, high)]).equals(
                self.target.tr[(low, high)].compose(f_low)
            ):
                raise Mismatch(f"does not commute with tr at {low}<{high}")
        for s in g.subgroups():
            for e in g.elements:
                ws = self.source.weyl_action(s.name, e)
                wt = self.target.weyl_action(s.name, e)
                if not self.components[s.name].compose(ws).equals(
                    wt.compose(self.components[s.name])
                ):
                    raise Mismatch(f"does not commute with Weyl at {s.name}")


def ses_check(i: MackeyMorphism, p: MackeyMorphism) -> bool:
    """Levelwise short-exactness of 0 -> A -i-> B -p-> C -> 0."""
    if i.target is not p.source and not data_equal(i.target, p.source):
        raise Mismatch("middle objects differ")
    g = i.source.group()
    for s in g.subgroups():
        fi = i.components[s.name]
        fp = p.components[s.name]
        if not fp.compose(fi).is_zero():
            return False
        if not homology_at(None, fi).group.is_trivial:
            return False  # i not injective
        if not homology_at(fi, fp).group.is_trivial:
            return False  # not exact in the middle
        if not homology_at(fp, None).group.is_trivial:
            return False  # p not surjective
    return True


# ---------------------------------------------------------------------------
# memos

_MISSING = object()


class LruMemo:
    """Values by key, least recently used first, at most ``size`` of them,
    with counts of hits and misses."""

    def __init__(self, size: int):
        self.size = size
        self.hits = 0
        self.misses = 0
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def recall(self, key, compute):
        """The value stored under key; otherwise compute() is stored and
        returned.  An exception from compute is not stored, so it is raised
        again on the next call."""
        value = self._entries.pop(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            value = compute()
        else:
            self.hits += 1
        self._entries[key] = value  # now the most recently used
        while len(self._entries) > self.size:
            del self._entries[next(iter(self._entries))]
        return value

    def clear(self) -> None:
        self._entries.clear()
        self.hits = self.misses = 0


# Results of strip_g_summands, is_isomorphic, bredon.identify and the
# expected side of match_expression.  Keys are built from content keys, never
# from id() or a name, so equal functors share one result; functors are
# values, so a stored result stays true of its key.
RECOGNITION = LruMemo(1024)

# Values of expression_functor by (canonical group name, expression text).
EXPRESSIONS = LruMemo(256)


# ---------------------------------------------------------------------------
# isomorphism testing


def _hom_columns(order: int, cod: FgAbelian) -> list[tuple[int, ...]]:
    """All possible images in cod of a generator of the given order."""
    choices = []
    for o in cod.orders:
        if order == 0:
            if o == 0:
                choices.append(range(-1, 2))  # -1, 0, 1 suffice for rank <= 1
            else:
                choices.append(range(o))
        else:
            if o == 0:
                choices.append((0,))
            else:
                step = o // gcd(o, order)
                choices.append(range(0, o, step))
    return [tuple(c) for c in itertools.product(*choices)]


@lru_cache(maxsize=256)
def _isos_between(a_orders: tuple[int, ...], b_orders: tuple[int, ...]) -> tuple[AbHom, ...]:
    """All isomorphisms between the two presentations.  Free rank at most 1
    and at most 300,000 candidate matrices are supported; beyond that it
    raises IsomorphismSearchLimit.

    Keyed on the presentations, not on FgAbelian equality: equal groups
    with different generator orders give different matrices."""
    a, b = FgAbelian(a_orders), FgAbelian(b_orders)
    if a != b:
        return ()
    if a.is_trivial:
        return (AbHom.zero(a, b),)
    if a.rank > 1:
        raise IsomorphismSearchLimit("iso search needs free rank <= 1")
    cols = [_hom_columns(o, b) for o in a.orders]
    size = 1
    for c in cols:
        size *= len(c)
    if size > 300_000:
        raise IsomorphismSearchLimit(
            "level too large for exhaustive isomorphism search; "
            "split off g summands first"
        )
    out = []
    torsion_elems = _torsion_elements(a)
    target_torsion = {_torsion_reduce(b, v) for v in _torsion_elements(b)}
    for combo in itertools.product(*cols):
        matrix = tuple(zip(*combo))
        h = AbHom(a, b, matrix)
        # the free generator must hit a free generator with coefficient +-1
        ok = True
        for j, ao in enumerate(a.orders):
            if ao == 0:
                fc = [h.matrix[i][j] for i, bo in enumerate(b.orders) if bo == 0]
                if sum(abs(x) for x in fc) != 1:
                    ok = False
                break
        if not ok:
            continue
        # bijective on torsion makes the whole map an isomorphism
        image = {h(v) for v in torsion_elems}
        if image == target_torsion and len(image) == len(torsion_elems):
            out.append(h)
    return tuple(out)


def _torsion_elements(g: FgAbelian) -> list[tuple[int, ...]]:
    coords: list[tuple[int, ...]] = [()]
    for o in g.orders:
        vals = (0,) if o == 0 else tuple(range(o))
        coords = [c + (x,) for c in coords for x in vals]
    return coords


def _torsion_reduce(g: FgAbelian, v) -> tuple[int, ...]:
    return tuple(0 if o == 0 else x % o for x, o in zip(v, g.orders))


def _weyl_pairs(a: MackeyFunctor, b: MackeyFunctor, s: str, elements) -> set:
    """Distinct matrix pairs (W_a(e), W_b(e)) at level s over the elements
    either functor stores a Weyl map for."""
    a_orders, b_orders = a.levels[s].orders, b.levels[s].orders
    mats: set = set()
    for e in elements:
        if (s, e) not in a.weyl and (s, e) not in b.weyl:
            continue
        wa, wb = a.weyl_action(s, e), b.weyl_action(s, e)
        if not (wa.dom.orders == wa.cod.orders == a_orders
                and wb.dom.orders == wb.cod.orders == b_orders):
            raise NonComposable(f"weyl map at {s},{e} is not a level endomorphism")
        mats.add((wa.matrix, wb.matrix))
    return mats


def is_isomorphic(a: MackeyFunctor, b: MackeyFunctor) -> bool:
    """Whether find_isomorphism finds a map, once per pair of contents."""
    return RECOGNITION.recall(("iso", a.content_key, b.content_key),
                              lambda: find_isomorphism(a, b) is not None)


def find_isomorphism(a: MackeyFunctor, b: MackeyFunctor) -> dict[str, AbHom] | None:
    """Search for a family of levelwise isomorphisms commuting with all
    structure maps, or None.

    The candidates at each level are all isomorphisms between the two
    presentations, a table memoised per pair of presentation tuples.  They
    are first filtered for Weyl equivariance, h . W_a(e) == W_b(e) . h, on
    plain reduced integer matrices: one test per distinct pair of Weyl
    matrices over every group element either functor stores a map for
    (elsewhere both sides are the identity).  Backtracking top down over the
    survivors then enforces res and tr on every covering pair; the first
    consistent family in candidate order is returned."""
    if a.group_name != b.group_name:
        return None
    g = a.group()
    subs = [s.name for s in reversed(g.subgroups())]  # top down
    for s in subs:
        if a.levels[s] != b.levels[s]:
            return None

    cand: dict[str, list[AbHom]] = {}
    for s in subs:
        mats = _weyl_pairs(a, b, s, g.elements)
        orders, ncols = b.levels[s].orders, a.levels[s].ngens
        isos = [
            h for h in _isos_between(a.levels[s].orders, orders)
            if all(
                _mat_mul_mod(h.matrix, wa, orders, ncols)
                == _mat_mul_mod(wb, h.matrix, orders, ncols)
                for wa, wb in mats
            )
        ]
        if not isos:
            return None
        cand[s] = isos

    # depth-first over levels, top down: choice[k] is the next candidate to
    # try at level k; a loop with explicit state leaves no reference cycle
    pairs = covering_pairs(g)
    assignment: dict[str, AbHom] = {}
    choice = [0] * len(subs)
    k = 0
    while 0 <= k < len(subs):
        s = subs[k]
        assignment.pop(s, None)
        for c in range(choice[k], len(cand[s])):
            if _consistent(a, b, pairs, assignment, s, cand[s][c]):
                assignment[s] = cand[s][c]
                choice[k] = c + 1
                k += 1
                break
        else:
            choice[k] = 0
            k -= 1
    return assignment if k == len(subs) else None


def _consistent(a: MackeyFunctor, b: MackeyFunctor, pairs, assignment: dict,
                s: str, h: AbHom) -> bool:
    """h at level s commutes with res and tr to and from the assigned levels."""
    for low, high in pairs:
        if s not in (low, high) or (high if s == low else low) not in assignment:
            continue
        h_low, h_high = (h, assignment[high]) if s == low else (assignment[low], h)
        key = (low, high)
        if not (h_low.compose(a.res[key]).equals(b.res[key].compose(h_high))
                and h_high.compose(a.tr[key]).equals(b.tr[key].compose(h_low))):
            return False
    return True


def pull_back(m: MackeyFunctor, target: str, pre: Mapping[str, str],
              elem: Mapping[str, str]) -> tuple[dict, dict, dict, dict]:
    """The levels, res, tr and Weyl maps of a target-functor that reads m
    along pre (a subgroup of target -> a subgroup of m's group) and elem (an
    element of target -> an element of m's group): level s is m's level
    pre[s], res and tr along a covering pair are m's composites between the
    two preimages, and the Weyl map of e at s is m's of elem[e] at pre[s].
    Restriction, push-forward and both inflations are this read, plus what
    each of them changes."""
    tgt = group(target)
    pairs = covering_pairs(tgt)
    levels = {s.name: m.levels[pre[s.name]] for s in tgt.subgroups()}
    res = {(low, high): m.res_map(pre[low], pre[high]) for low, high in pairs}
    tr = {(low, high): m.tr_map(pre[low], pre[high]) for low, high in pairs}
    weyl = {(s.name, e): m.weyl_action(pre[s.name], elem[e])
            for s in tgt.subgroups() for e in tgt.elements}
    return levels, res, tr, weyl


def restrict_functor(m: MackeyFunctor, sub_name: str) -> MackeyFunctor:
    """View a Mackey functor through a subgroup, as a functor over the
    abstract copy of that subgroup."""
    g = m.group()
    target, iso = subgroup_iso(g.name, sub_name)
    inv = {v: k for k, v in iso.items()}
    pre = {}
    for s in group(target).subgroups():
        elems = frozenset(inv[x] for x in s.elements)
        pre[s.name] = next(t.name for t in g.subgroups() if t.elements == elems)
    return MackeyFunctor(target, *pull_back(m, target, pre, inv), m.is_zmodule)


# ---------------------------------------------------------------------------
# splitting off powers of g

# Summands isomorphic to g live in the top level T.  Their generators lie in
# W: the elements of T[2] (the 2-torsion, spanned by (o/2) e_i for each
# generator of even order o) that every restriction to a maximal subgroup
# kills and every stored top-level Weyl map fixes; the other elements act
# as the identity.  W is the kernel on T[2] of those maps stacked into one,
# read off one homology_at.  The reps are the basis vectors of W, in order,
# that are independent over F_2 of the transfer images and the reps kept
# before them modulo 2T: one small echelon of bit rows of T/2T, seeded with
# the transfer images.  No step enumerates elements, so the top may have
# any size.  The reps split off canonically, which keeps isomorphism testing
# away from automorphism groups of large F_2 vector spaces.


def strip_g_summands(m: MackeyFunctor) -> tuple[int, MackeyFunctor]:
    """Return (k, complement) with m isomorphic to complement + g^k and k
    maximal; the complement is m itself when k = 0.  Computed once per
    content of m."""

    def compute():
        k, red = _strip_g(m)
        return (0, None) if k == 0 else (k, red)

    k, red = RECOGNITION.recall(("strip", m.content_key), compute)
    return (0, m) if k == 0 else (k, red)


@lru_cache(maxsize=None)
def _maximals(group_name: str) -> tuple[str, ...]:
    g = group(group_name)
    top = g.top().name
    return tuple(s.name for s in g.subgroups() if any(c.name == top for c in g.covers(s)))


def _strip_g(m: MackeyFunctor) -> tuple[int, MackeyFunctor]:
    """strip_g_summands, computed."""
    g = m.group()
    top = g.top().name
    T = m.levels[top]
    even = [j for j, o in enumerate(T.orders) if o and o % 2 == 0]
    if not even:
        return 0, m
    maximals = _maximals(m.group_name)
    res_maps = [m.res[(s, top)] for s in maximals]
    weyl_maps = [m.weyl[(top, e)] for e in g.elements if (top, e) in m.weyl]
    if any(not w.dom.orders == w.cod.orders == T.orders for w in weyl_maps):
        raise NonComposable(f"a weyl map at {top} is not a level endomorphism")

    def stacked(v):  # every restriction of v, then every (W_e - 1) v
        moved = (T.reduce_vec([a - b for a, b in zip(w(v), v)]) for w in weyl_maps)
        return sum((r(v) for r in res_maps), ()) + sum(moved, ())

    halves = [tuple(T.orders[j] // 2 if i == j else 0 for i in range(T.ngens))
              for j in even]
    # T[2] into T, and the stacked map out of T[2]: valid by construction,
    # since 2 kills each (o/2) e_i and so each image of one
    t2 = _unchecked(FgAbelian((2,) * len(even)), T, tuple(zip(*halves)))
    cod = FgAbelian(sum((r.cod.orders for r in res_maps), ()) + T.orders * len(weyl_maps))
    kernel = homology_at(None, _unchecked(t2.dom, cod, tuple(zip(*map(stacked, halves)))))
    n = kernel.group.ngens
    W = [t2(kernel.lift(_unit(n, j))) for j in range(n)]
    pivots: dict[int, int] = {}

    def independent(v) -> bool:
        """Whether v mod 2T is outside the pivots' span; if so it joins them."""
        b = sum(1 << j for j, (x, o) in enumerate(zip(v, T.orders)) if x % 2 and o % 2 == 0)
        while b and b.bit_length() in pivots:
            b ^= pivots[b.bit_length()]
        if b:
            pivots[b.bit_length()] = b
        return bool(b)

    for s in maximals:
        for col in zip(*m.tr[(s, top)].matrix):
            independent(col)
    reps = [v for v in W if independent(v)]
    return (len(reps), _split_off(m, reps)) if reps else (0, m)


def _split_off(m: MackeyFunctor, reps: list[tuple[int, ...]]) -> MackeyFunctor:
    """The complement of the g summands generated by reps, 2-torsion
    elements of the top level: the top becomes its quotient by them, and
    the res, tr and Weyl maps at the top are induced."""
    g = m.group()
    top = g.top().name
    T = m.levels[top]
    incl = AbHom(FgAbelian((2,) * len(reps)), T, tuple(zip(*reps)))
    top_quot = homology_at(incl, AbHom.zero(T, FgAbelian(())))
    new_top = top_quot.group
    levels = dict(m.levels)
    levels[top] = new_top
    res = dict(m.res)
    tr = dict(m.tr)
    for s in _maximals(m.group_name):
        lifted = [
            m.res[(s, top)](top_quot.lift(_unit(new_top.ngens, j)))
            for j in range(new_top.ngens)
        ]
        res[(s, top)] = AbHom(
            new_top, m.levels[s], tuple(zip(*lifted)) if lifted else
            tuple(() for _ in range(m.levels[s].ngens))
        )
        projected = [
            top_quot.project(m.tr[(s, top)](_unit(m.levels[s].ngens, j)))
            for j in range(m.levels[s].ngens)
        ]
        tr[(s, top)] = AbHom(
            m.levels[s], new_top, tuple(zip(*projected)) if projected else
            tuple(() for _ in range(new_top.ngens))
        )
    weyl = dict(m.weyl)
    for key, w in m.weyl.items():
        if key[0] == top:
            cols = [
                top_quot.project(w(top_quot.lift(_unit(new_top.ngens, j))))
                for j in range(new_top.ngens)
            ]
            weyl[key] = AbHom(new_top, new_top, tuple(zip(*cols)) if cols else ())
    return MackeyFunctor(m.group_name, levels, res, tr, weyl, m.is_zmodule)


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n))


# ---------------------------------------------------------------------------
# formal sums of named functors


def parse_expression(expr: str) -> list[tuple[str, int]]:
    """Parse "mg + g^2" style sums into (name, multiplicity) terms."""
    expr = expr.replace("⊕", "+").strip()
    if expr in ("", "0"):
        return []
    terms = []
    for raw in expr.split("+"):
        t = raw.strip()
        if not t:
            continue
        if "^" in t:
            base, _, p = t.partition("^")
            terms.append((base.strip(), int(p)))
        else:
            terms.append((t, 1))
    return terms


def expression_functor(group_name: str, expr: str) -> MackeyFunctor:
    """The direct sum named by expr, built once per canonical group name
    and expression text and then handed out as the one frozen value."""
    from .catalog import named

    gname = canonical_group_name(group_name)

    def build():
        total = zero_functor(gname)
        for nm, mult in parse_expression(expr):
            f = named(gname, nm)
            for _ in range(mult):
                total = total.direct_sum(f)
        return total

    return EXPRESSIONS.recall((gname, expr), build)


def match_expression(m: MackeyFunctor, expr: str) -> bool:
    """True iff m is isomorphic to the direct sum named by expr.

    Powers of g are compared through the canonical g-splitting, so large
    elementary top levels never reach the exhaustive search.
    """
    g_count, k_b, red_b = _expected_split(m.group_name, parse_expression(expr))
    k_m, red_m = strip_g_summands(m)
    if k_m != g_count + k_b:
        return False
    return is_isomorphic(red_m, red_b)


def _expected_split(group_name: str, terms: list[tuple[str, int]]) -> tuple:
    """(explicit powers of g, then strip_g_summands of the sum of the other
    terms), once per group and terms: the catalog they name is a fixed,
    read-only table."""
    from .catalog import named

    def compute():
        # a lone summand is the catalog functor itself, not a copy of it:
        # 0 + f is data-equal to f
        parts = [named(group_name, nm) for nm, mult in terms if nm != "g"
                 for _ in range(mult)]
        base = parts[0] if parts else zero_functor(group_name)
        for f in parts[1:]:
            base = base.direct_sum(f)
        k, red = strip_g_summands(base)
        return sum(mult for nm, mult in terms if nm == "g"), k, red

    return RECOGNITION.recall(("expected", group_name, tuple(terms)), compute)
