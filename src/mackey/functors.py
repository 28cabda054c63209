"""Mackey functors over the five supported groups, as finite data.

A Mackey functor assigns an abelian group to each subgroup together with
restriction and transfer along covering pairs of the subgroup lattice and a
Weyl action of the ambient group on each level.  Because every subgroup of
our groups is normal, conjugation is exactly the Weyl action and double
cosets are cosets of products, which keeps the axiom checks elementary.

Only covering-pair maps are stored; maps along longer chains are composites
(path independence is one of the checked axioms).  Names such as
``mg+g^2`` are read by ``catalog.named`` alone.
"""

from __future__ import annotations

import itertools
import marshal
from copy import copy
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import gcd, prod
from operator import mul
from types import MappingProxyType
from typing import Mapping

from .exactalg import (
    AbHom,
    FgAbelian,
    _is_identity,
    _reduce_matrix,
    _unchecked,
    homology_at,
    mat_add,
    mat_scale,
    snf_full,
    zeros,
)
from .grouplat import Group, Subgroup, canonical_group_name, group, subgroup_iso
from .stats import LruMemo


class Mismatch(Exception):
    pass


class MixedTorsion(Exception):
    pass


class UnknownName(Exception):
    pass


class BadExpression(ValueError):
    """A sum of named functors with an empty term, or a power not an integer >= 1."""


class IsomorphismSearchLimit(Exception):
    """A pair is beyond the isomorphism search: a level of free rank 2 or
    more, or more than 300,000 elements in the finite part of Hom."""


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
    name: str | None = field(default=None, kw_only=True)

    def __post_init__(self):
        object.__setattr__(self, "group_name", canonical_group_name(self.group_name))
        for f in ("levels", "res", "tr"):
            object.__setattr__(self, f, MappingProxyType(dict(getattr(self, f))))
        object.__setattr__(self, "_map_memo", {})  # composites, identities, keys below
        # The one place that decides a functor's shape: a level at each
        # subgroup, res and tr at each covering pair between those levels'
        # presentations, and Weyl maps keyed by a subgroup and an element,
        # each an endomorphism of its level.  A ValueError names the first
        # map that is not.  The identity is what weyl_action supplies, so it
        # is not stored.
        g = self.group()
        levels = self.levels
        pairs = covering_pairs(g)
        for kind, given, want in (("level", levels, g.subgroup_by_name),
                                  ("res", self.res, pairs), ("tr", self.tr, pairs)):
            for k in want:
                if k not in given:
                    raise ValueError(f"missing {kind} {k if kind == 'level' else '<'.join(k)}")
            if len(given) != len(want):
                k = next(k for k in given if k not in want)
                raise ValueError(f"no {kind} belongs at {k!r} over {g.name}")
        for low, high in pairs:
            lo, hi = levels[low].orders, levels[high].orders
            _expect_shape(self.res[low, high], hi, lo, "res %s<%s", low, high)
            _expect_shape(self.tr[low, high], lo, hi, "tr %s<%s", low, high)
        weyl = {}
        for (s, e), h in self.weyl.items():
            if s not in levels or e not in g.elements:
                raise ValueError(f"no weyl map belongs at {(s, e)!r} over {g.name}")
            _expect_shape(h, levels[s].orders, levels[s].orders, "weyl map at %s,%s", s, e)
            if not _is_identity(h):
                weyl[s, e] = h
        object.__setattr__(self, "weyl", MappingProxyType(weyl))

    @cached_property
    def content_key(self) -> bytes:
        """Everything the axiom check and recognition read: group, level
        orders and the res/tr/Weyl matrices (not the name).  Equal keys get
        equal verdicts.

        The key is one bytes string in marshal format 0, which shares no
        objects, so equal values encode to equal bytes: it is smaller than
        the nested tuples it encodes, and its hash is cached."""

        def maps(d):
            return sorted((k, h.dom.orders, h.cod.orders, h.matrix) for k, h in d.items())

        return marshal.dumps((
            self.group_name,
            sorted((s, lvl.orders) for s, lvl in self.levels.items()),
            maps(self.res),
            maps(self.tr),
            maps(self.weyl),
        ), 0)

    @cached_property
    def is_zmodule(self) -> bool:
        """Whether the functor is cohomological (Thevenaz and Webb, "The
        structure of Mackey functors", 1995): tr . res is the index
        [high:low] on every covering pair, and so on every composite."""
        g = self.group()
        return all(self.tr[p].compose(self.res[p]).equals(AbHom.scalar(
            self.levels[p[1]], g.subgroup(p[1]).order // g.subgroup(p[0]).order))
            for p in covering_pairs(g))

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

    def res_map(self, low: str, high: str) -> AbHom:
        """Restriction level(high) -> level(low), composed along the lattice."""
        memo = self._map_memo
        key = ("res", low, high)
        if key not in memo:
            g = self.group()
            chain = _all_chains(g, g.subgroup(low), g.subgroup(high))[0]
            memo[key] = _compose_res(self, chain)
        return memo[key]

    def tr_map(self, low: str, high: str) -> AbHom:
        memo = self._map_memo
        key = ("tr", low, high)
        if key not in memo:
            g = self.group()
            chain = _all_chains(g, g.subgroup(low), g.subgroup(high))[0]
            memo[key] = _compose_tr(self, chain)
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
        """A copy under another name that shares the content's cached values."""
        twin = copy(self)
        object.__setattr__(twin, "name", name)
        return twin

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
        return MackeyFunctor(self.group_name, levels, res, tr, weyl)

    def __str__(self) -> str:
        g = self.group()
        parts = [f"{s.name}: {self.levels[s.name]}" for s in reversed(g.subgroups())]
        label = self.name or "MackeyFunctor"
        return f"{label}({self.group_name}; " + ", ".join(parts) + ")"


def zero_functor(group_name: str, name: str | None = "0") -> MackeyFunctor:
    g = group(group_name)
    z = FgAbelian(())
    maps = dict.fromkeys(covering_pairs(g), AbHom.zero(z, z))
    return MackeyFunctor(group_name, {s.name: z for s in g.subgroups()}, maps, maps,
                         name=name)


@lru_cache(maxsize=None)
def covering_pairs(g: Group) -> tuple[tuple[str, str], ...]:
    """The (sub, cover) pairs of g's lattice, computed once per group."""
    return tuple((s.name, c.name) for s in g.subgroups() for c in g.covers(s))


def _expect_shape(h: AbHom, dom: tuple[int, ...], cod: tuple[int, ...], label: str, *args) -> None:
    """Raise ValueError naming the map, label % args, unless h: dom -> cod."""
    if h.dom.orders != dom or h.cod.orders != cod:
        raise ValueError(f"{label % args} maps {h.dom.orders} -> {h.cod.orders}, not {dom} -> {cod}")


def data_equal(a: MackeyFunctor, b: MackeyFunctor) -> bool:
    """Exact equality of the stored data (not just isomorphism)."""
    return a.content_key == b.content_key


# ---------------------------------------------------------------------------
# axiom checking


def _double_cosets_within(g: Group, h: Subgroup, k1: Subgroup, k2: Subgroup):
    """Representatives of K1 \\ H / K2 inside the subgroup h: the double
    cosets K1\\G/K2 that lie in h, each by its least element."""
    return [y for y, _ in g.double_cosets(k1, k2) if y in h]


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
    """Check the Mackey axioms: path independence of composite res and tr,
    the Weyl action, equivariance of res and tr, and the double coset
    formula inside every subgroup.  The maps' shapes need no check, since
    construction refuses any other.  Being cohomological is no axiom:
    ``m.is_zmodule`` reads it off the data.

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

    Q8 takes 213 checks this way, not the 654 of every pair of elements."""
    g = m.group()
    failures = []
    checked = []

    def expect(cond: bool, label: str):
        checked.append(label)
        if not cond:
            failures.append(label)

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
    for s in g.subgroups():
        ident = AbHom.identity(m.levels[s.name])
        # in the group's order: a frozenset's order varies with the hash seed
        for x in [x for x in g.elements if x in s.elements]:
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
    for low, high in covering_pairs(g):
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

    return AxiomReport(failures, checked)


def _all_chains(g: Group, s: Subgroup, t: Subgroup) -> list[list[str]]:
    """Every chain of covering pairs from s up to t, the greedy one first:
    each step takes the first cover of g.covers that lies in t."""
    if not s.elements <= t.elements:
        raise ValueError(f"{s.name} is not contained in {t.name}")
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
    return AbHom(b, a, tuple(rows))


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
    levels = {s.name: m.levels[s.name] for s in g.subgroups()}
    res = {}
    tr = {}
    for key in covering_pairs(g):
        res[key] = _dual_hom(m.tr[key])
        tr[key] = _dual_hom(m.res[key])
    weyl = {
        (s.name, e): _dual_hom(m.weyl[(s.name, g.inv(e))])
        for s in g.subgroups() for e in g.elements if (s.name, g.inv(e)) in m.weyl
    }
    return MackeyFunctor(m.group_name, levels, res, tr, weyl)


# ---------------------------------------------------------------------------
# morphisms and exact sequences


@dataclass
class MackeyMorphism:
    """Level maps that satisfy hom_group's equations: they commute with res
    and tr on every covering pair and with every stored Weyl map, or
    Mismatch names the map that fails."""

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
        _HomSystem(self.source, self.target).check(self.components)


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

# Results of strip_g_summands, the isomorphism search on a pair of
# complements, and bredon.identify.  Keys are built from content keys, never
# from id() or a name, so equal functors share one result; functors are
# values, so a stored result stays true of its key.
RECOGNITION = LruMemo("recognition memo", 1024)


# ---------------------------------------------------------------------------
# Hom and isomorphism testing

# A Mackey functor is a module over the Mackey algebra (Thevenaz and Webb,
# "The structure of Mackey functors", 1995), so Hom(a, b) is the integer
# kernel of one linear system.  The unknowns are the entries of the level
# matrices: entry (i, j) at level s lies in Hom(Z/a_j, Z/b_i), the multiples
# of the step b_i / gcd(a_j, b_i) modulo b_i, so it is one unknown of order
# gcd(a_j, b_i), free when a_j = b_i = 0, and none when the entry is always
# zero (b_i = 0 != a_j, or gcd 1).  Each equation is one entry of
# f_t P - Q f_u, for P and Q the res, tr or Weyl maps of a and b, taken
# modulo its target generator's order.


class _HomSystem:
    """The equations of Hom(a, b), in blocks labelled by the structure map
    each block says the level maps commute with."""

    def __init__(self, a: MackeyFunctor, b: MackeyFunctor):
        g = a.group()
        self.a, self.b = a, b
        self.index: dict[tuple[str, int, int], int] = {}  # (level, i, j) -> unknown
        self.steps: list[int] = []
        self.orders: list[int] = []
        for s in g.subgroups():
            for i, bo in enumerate(b.levels[s.name].orders):
                for j, ao in enumerate(a.levels[s.name].orders):
                    o = gcd(ao, bo)
                    if o != 1 and (bo or not ao):
                        self.index[(s.name, i, j)] = len(self.orders)
                        self.steps.append(bo // o if bo else 1)
                        self.orders.append(o)
        self.blocks: list[tuple[str, list[tuple[tuple[int, ...], int]]]] = []
        for low, high in covering_pairs(g):
            key = (low, high)
            self._block(f"res at {low}<{high}", low, high, a.res[key], b.res[key])
            self._block(f"tr at {low}<{high}", high, low, a.tr[key], b.tr[key])
        for s in g.subgroups():
            pairs = {}
            for e in g.elements:
                if (s.name, e) in a.weyl or (s.name, e) in b.weyl:
                    wa, wb = a.weyl_action(s.name, e), b.weyl_action(s.name, e)
                    pairs[(wa.matrix, wb.matrix)] = (wa, wb)
            for wa, wb in pairs.values():
                self._block(f"Weyl at {s.name}", s.name, s.name, wa, wb)

    def _block(self, label: str, t: str, u: str, p: AbHom, q: AbHom) -> None:
        """The equations f_t p = q f_u, for p: a(u) -> a(t), q: b(u) -> b(t):
        one row of coefficients on the unknowns per entry, with its order."""
        rows = []
        for i, o in enumerate(self.b.levels[t].orders):
            for j in range(p.dom.ngens):
                row = [0] * len(self.orders)
                for k, pk in enumerate(p.matrix):  # f_t[i][k] p[k][j]
                    if (x := self.index.get((t, i, k))) is not None:
                        row[x] += self.steps[x] * pk[j]
                for k, qik in enumerate(q.matrix[i]):  # q[i][k] f_u[k][j]
                    if (x := self.index.get((u, k, j))) is not None:
                        row[x] -= self.steps[x] * qik
                if any(row := tuple(c % o if o else c for c in row)):
                    rows.append((row, o))
        self.blocks.append((label, rows))

    def check(self, components: Mapping[str, AbHom]) -> None:
        """Raise Mismatch naming the first block the level maps fail.  A
        valid level map is a multiple of the step at every entry, so it has
        coordinates in the unknowns."""
        x = [components[s].matrix[i][j] // self.steps[n] for (s, i, j), n in self.index.items()]
        for label, rows in self.blocks:
            for row, o in rows:
                v = sum(map(mul, row, x))
                if v % o if o else v:
                    raise Mismatch(f"does not commute with {label}")

    def level_maps(self, x) -> dict[str, AbHom]:
        """The level maps with coordinates x in the unknowns."""
        a, b = self.a.levels, self.b.levels
        mats = {s: [[0] * a[s].ngens for _ in b[s].orders] for s in a}
        for ((s, i, j), n), v in zip(self.index.items(), x):
            mats[s][i][j] = self.steps[n] * v
        return {s: _unchecked(a[s], b[s], _reduce_matrix(m, b[s])) for s, m in mats.items()}


def hom_group(a: MackeyFunctor, b: MackeyFunctor) -> tuple[FgAbelian, tuple[dict[str, AbHom], ...]]:
    """Hom(a, b) as a finitely generated abelian group, and each generator
    lifted to its level maps, read off one homology_at of the stacked
    equations."""
    if a.group_name != b.group_name:
        raise Mismatch("source and target over different groups")
    system = _HomSystem(a, b)
    rows = list(dict.fromkeys(r for _, block in system.blocks for r in block))
    hom = homology_at(None, _unchecked(FgAbelian(tuple(system.orders)),
                                       FgAbelian(tuple(o for _, o in rows)),
                                       tuple(row for row, _ in rows)))
    k = hom.group.ngens
    return hom.group, tuple(system.level_maps(hom.lift(_unit(k, j))) for j in range(k))


def is_isomorphic(a: MackeyFunctor, b: MackeyFunctor) -> bool:
    """Whether a and b are isomorphic: the powers of g split off must agree,
    and find_isomorphism compares the complements, once per pair of them."""
    (k_a, red_a), (k_b, red_b) = strip_g_summands(a), strip_g_summands(b)
    return k_a == k_b and RECOGNITION.recall(
        ("iso", red_a.content_key, red_b.content_key),
        lambda: find_isomorphism(red_a, red_b) is not None)


def find_isomorphism(a: MackeyFunctor, b: MackeyFunctor) -> dict[str, AbHom] | None:
    """An isomorphism a -> b as its level maps, or None, found in Hom(a, b).

    At each level of free rank 1 (a higher free rank raises
    IsomorphismSearchLimit) the free-to-free entry phi of an isomorphism is
    +-1.  Torsion elements of Hom have phi = 0, and phi is injective on the
    free part, so each sign pattern pins the free coordinates by one exact
    solve.  The finite part of Hom, at most 300,000 elements, is then
    enumerated until every level map is onto, which makes it an
    isomorphism: the levels of a and b are isomorphic, and a surjection
    between isomorphic finitely generated abelian groups is injective."""
    if a.group_name != b.group_name:
        return None
    subs = [s.name for s in reversed(a.group().subgroups())]  # top down
    if any(a.levels[s] != b.levels[s] for s in subs):
        return None
    if any(a.levels[s].rank > 1 for s in subs):
        raise IsomorphismSearchLimit("iso search needs free rank <= 1")
    hom, gens = hom_group(a, b)
    free = [k for k, o in enumerate(hom.orders) if o == 0]
    tors = [k for k, o in enumerate(hom.orders) if o]
    if (size := prod(hom.orders[k] for k in tors)) > 300_000:
        raise IsomorphismSearchLimit(
            f"Hom too large for exhaustive isomorphism search ({size} elements "
            "in its finite part); split off g summands first")
    phi = [[gens[k][s].matrix[b.levels[s].orders.index(0)][a.levels[s].orders.index(0)]
            for k in free] for s in subs if a.levels[s].rank]
    d, u, v, _, _ = snf_full(phi, ("u", "v"))
    onto: dict = {}
    # -h is an isomorphism when h is, so the first sign is +1
    for signs in itertools.product((1, -1), repeat=max(len(phi) - 1, 0)):
        # u phi v = d, so phi y = signs iff y = v z with d z = u signs
        w = [sum(map(mul, row, (1,) + signs)) for row in u]
        if any(w[k] % d[k][k] if k < len(free) else w[k] for k in range(len(w))):
            continue
        y = [sum(x * w[k] // d[k][k] for k, x in enumerate(row)) for row in v]
        for t in itertools.product(*(range(hom.orders[k]) for k in tors)):
            terms = [(c, gens[k]) for c, k in zip(y + list(t), free + tors) if c]
            maps = {}
            for s in subs:
                lvl = b.levels[s]
                m = _reduce_matrix(reduce(mat_add, (mat_scale(c, h[s].matrix) for c, h in terms),
                                          zeros(lvl.ngens, a.levels[s].ngens)), lvl)
                maps[s] = _unchecked(a.levels[s], lvl, m)
                if (s, m) not in onto:
                    onto[(s, m)] = lvl.is_trivial or homology_at(maps[s], None).group.is_trivial
                if not onto[(s, m)]:
                    break
            else:
                return maps
    return None


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
    return MackeyFunctor(target, *pull_back(m, target, pre, inv))


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
        if k == 0:
            return (0, None)
        # k is maximal, so the complement has no g summand: recognition,
        # which strips it again, finds that here (a zero one strips at no cost)
        if not red.is_trivial():
            RECOGNITION.recall(("strip", red.content_key), lambda: (0, None))
        return (k, red)

    k, red = RECOGNITION.recall(("strip", m.content_key), compute)
    return (0, m) if k == 0 else (k, red)


@lru_cache(maxsize=None)
def _maximals(group_name: str) -> tuple[str, ...]:
    g = group(group_name)
    return tuple(low for low, high in covering_pairs(g) if high == g.top().name)


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
    return MackeyFunctor(m.group_name, levels, res, tr, weyl)


def _unit(n: int, j: int) -> tuple[int, ...]:
    return tuple(1 if i == j else 0 for i in range(n))


# ---------------------------------------------------------------------------
# names


def expression_functor(group_name: str, expr: str) -> MackeyFunctor:
    """The functor a name denotes; the same as catalog.named."""
    from .catalog import named

    return named(group_name, expr)


def match_expression(m: MackeyFunctor, expr: str) -> bool:
    """True iff m is isomorphic to the functor expr names."""
    from .catalog import named

    return is_isomorphic(m, named(m.group_name, expr))
