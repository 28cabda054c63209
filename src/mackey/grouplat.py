"""Concrete data for the five groups in play: the trivial group, C2, C4,
the Klein four-group K4 and the quaternion group Q8.

Groups are hardcoded multiplication tables rather than generic
presentations; only these five ever occur.  Every subgroup of each of them
is normal, which the rest of the package leans on heavily: double cosets
HgK are plain cosets of the subgroup HK, Weyl groups are quotient groups,
and conjugation never moves a subgroup.

Element names: Q8 = {1, -1, i, -i, j, -j, k, -k} with the quaternion table;
K4 = {1, a, b, ab}; C4 = {1, g, g2, g3}; C2 = {1, s}.  The quotient
Q8 -> K4 identifies the images of L = <i>, D = <k>, R = <j> with the K4
subgroups of the same names (a = image of i, b = image of j, ab = image
of k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable


class ParentMismatch(Exception):
    pass


class NotProperNontrivial(Exception):
    pass


class BadGroupTable(ValueError):
    """A hardcoded table that is not a group, or a listed subgroup that is
    not a normal subgroup."""


@dataclass(frozen=True)
class Subgroup:
    parent: str  # group name
    name: str
    elements: frozenset[str]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, elem: str) -> bool:
        return elem in self.elements

    def __le__(self, other: "Subgroup") -> bool:
        return self.elements <= other.elements

    def __str__(self) -> str:
        return f"{self.parent}:{self.name}"


class Group:
    """A finite group with named subgroups and quotient data."""

    def __init__(self, name: str, elements: list[str], table: dict[tuple[str, str], str],
                 subgroup_elems: dict[str, Iterable[str]], subgroup_order: list[str]):
        self.name = name
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(elements)}
        self.table = table
        self.identity = elements[0]
        self.inverse = {}
        for x in elements:
            for y in elements:
                if table[(x, y)] == self.identity:
                    self.inverse[x] = y
        self.subgroup_by_name = {
            nm: Subgroup(name, nm, frozenset(subgroup_elems[nm]))
            for nm in subgroup_elems
        }
        self._subgroup_order = subgroup_order
        self._coset_memo: dict[tuple[str, str], str] = {}
        self.generators = {
            "T": (), "C2": ("s",), "C4": ("g",), "K4": ("a", "b"),
            "Q8": ("i", "j"),
        }[name]
        self._words: dict[str, tuple[str, ...]] = {self.identity: ()}
        frontier = [self.identity]
        while frontier:
            nxt = []
            for x in frontier:
                for gen in self.generators:
                    y = self.mul(x, gen)
                    if y not in self._words:
                        self._words[y] = self._words[x] + (gen,)
                        nxt.append(y)
            frontier = nxt
        self._check_table()
        # by subgroup name h, the subgroups with a conjugate inside h: as
        # every subgroup is normal, the subgroups inside h
        self.below = {h.name: frozenset(s.name for s in self.subgroups() if s <= h)
                      for h in self.subgroups()}

    def word(self, elem: str) -> tuple[str, ...]:
        """A fixed expression of elem as a product of the generators."""
        return self._words[elem]

    # -- basics ------------------------------------------------------------

    def mul(self, x: str, y: str) -> str:
        return self.table[(x, y)]

    def inv(self, x: str) -> str:
        return self.inverse[x]

    @property
    def order(self) -> int:
        return len(self.elements)

    def elem_sort_key(self, x: str) -> int:
        return self._index[x]

    def _check_table(self) -> None:
        es, one, mul = self.elements, self.identity, self.mul
        for x in es:
            if mul(one, x) != x or mul(x, one) != x:
                raise BadGroupTable(f"{self.name}: {one} is not an identity at {x}")
            if x not in self.inverse:
                raise BadGroupTable(f"{self.name}: {x} has no inverse")
        for x, y, z in itertools.product(es, repeat=3):
            if mul(mul(x, y), z) != mul(x, mul(y, z)):
                raise BadGroupTable(f"{self.name}: ({x}{y}){z} != {x}({y}{z})")
        for sub in self.subgroup_by_name.values():
            elems = sub.elements
            if any(self.inv(x) not in elems or mul(x, y) not in elems
                   for x in elems for y in elems):
                raise BadGroupTable(f"{sub} is not a subgroup")
            # normality is a standing assumption downstream
            if any(mul(mul(gx, x), self.inv(gx)) not in elems for gx in es for x in elems):
                raise BadGroupTable(f"{sub} is not normal")

    # -- subgroup lattice ----------------------------------------------------

    def subgroups(self) -> list[Subgroup]:
        """All subgroups, ordered by (order, canonical name)."""
        return [self.subgroup_by_name[nm] for nm in self._subgroup_order]

    def subgroup(self, name: str) -> Subgroup:
        return self.subgroup_by_name[name]

    def top(self) -> Subgroup:
        return self.subgroup_by_name[self._subgroup_order[-1]]

    def bottom(self) -> Subgroup:
        return self.subgroup_by_name["e"]

    def covers(self, sub: Subgroup) -> list[Subgroup]:
        """Subgroups covering ``sub`` in the lattice (minimal oversubgroups)."""
        above = [
            s for s in self.subgroups()
            if sub.elements < s.elements
        ]
        return [
            s for s in above
            if not any(t.elements < s.elements for t in above)
        ]

    def intersect(self, a: Subgroup, b: Subgroup) -> Subgroup:
        common = a.elements & b.elements
        for s in self.subgroups():
            if s.elements == common:
                return s
        raise ValueError("intersection is not a listed subgroup")

    def coset(self, g: str, sub: Subgroup) -> str:
        """Canonical representative (minimal element) of g.sub."""
        key = (g, sub.name)
        memo = self._coset_memo
        out = memo.get(key)
        if out is None:
            out = min(
                (self.mul(g, x) for x in sub.elements), key=self.elem_sort_key
            )
            memo[key] = out
        return out

    def cosets(self, sub: Subgroup) -> list[str]:
        seen = []
        for g in self.elements:
            c = self.coset(g, sub)
            if c not in seen:
                seen.append(c)
        return seen

    def double_cosets(self, h: Subgroup, k: Subgroup) -> list[tuple[str, Subgroup]]:
        """Representatives of H\\G/K with stabilizers H n gKg^-1 (= H n K here).

        Representatives are the minimal element of each double coset in the
        canonical element order, so all downstream bases are reproducible:
        the second coordinates of the orbit representatives of G/H x G/K.
        """
        if h.parent != self.name or k.parent != self.name:
            raise ParentMismatch(f"{h} or {k} not a subgroup of {self.name}")
        reps, _, stab = orbit_table(self.name, (h.name, k.name))
        return [(y, self.subgroup(stab)) for _, y in reps]

    def is_bottleneck(self, n: Subgroup) -> bool:
        """True when every subgroup is comparable with n."""
        if n.parent != self.name:
            raise ParentMismatch(str(n))
        if n.order in (1, self.order):
            raise NotProperNontrivial(f"{n} is not proper nontrivial")
        return all(
            s.elements <= n.elements or n.elements <= s.elements
            for s in self.subgroups()
        )

    def quotient(self, n: Subgroup) -> "QuotientMap":
        return _quotient_map(self.name, n.name)


@dataclass(frozen=True)
class QuotientMap:
    source: str
    kernel: str
    target: str
    projection: dict[str, str] = field(hash=False)

    def source_group(self) -> Group:
        return group(self.source)

    def target_group(self) -> Group:
        return group(self.target)

    def kernel_subgroup(self) -> Subgroup:
        return group(self.source).subgroup(self.kernel)

    def __call__(self, elem: str) -> str:
        return self.projection[elem]

    def image_subgroup(self, sub: Subgroup) -> Subgroup:
        """The subgroup of the target corresponding to sub (kernel <= sub)."""
        tgt = self.target_group()
        img = frozenset(self.projection[x] for x in sub.elements)
        for s in tgt.subgroups():
            if s.elements == img:
                return s
        raise ValueError(f"image of {sub} is not a listed subgroup")

    def preimage_subgroup(self, sub: Subgroup) -> Subgroup:
        src = self.source_group()
        pre = frozenset(x for x in src.elements if self.projection[x] in sub.elements)
        for s in src.subgroups():
            if s.elements == pre:
                return s
        raise ValueError(f"preimage of {sub} is not a listed subgroup")


# ---------------------------------------------------------------------------
# the five groups


def _abelian_table(elems: list[str], add) -> dict[tuple[str, str], str]:
    return {(x, y): add(x, y) for x in elems for y in elems}


@lru_cache(maxsize=None)
def group(name: str) -> Group:
    name = canonical_group_name(name)
    if name == "T":
        return Group("T", ["1"], {("1", "1"): "1"}, {"e": ["1"]}, ["e"])
    if name == "C2":
        elems = ["1", "s"]
        tbl = {("1", "1"): "1", ("1", "s"): "s", ("s", "1"): "s", ("s", "s"): "1"}
        return Group("C2", elems, tbl, {"e": ["1"], "C2": elems}, ["e", "C2"])
    if name == "C4":
        elems = ["1", "g", "g2", "g3"]
        idx = {e: n for n, e in enumerate(elems)}

        def add(x, y):
            return elems[(idx[x] + idx[y]) % 4]

        tbl = _abelian_table(elems, add)
        subs = {"e": ["1"], "C2": ["1", "g2"], "C4": elems}
        return Group("C4", elems, tbl, subs, ["e", "C2", "C4"])
    if name == "K4":
        elems = ["1", "a", "b", "ab"]
        vec = {"1": (0, 0), "a": (1, 0), "b": (0, 1), "ab": (1, 1)}
        rev = {v: k for k, v in vec.items()}

        def add(x, y):
            vx, vy = vec[x], vec[y]
            return rev[((vx[0] + vy[0]) % 2, (vx[1] + vy[1]) % 2)]

        tbl = _abelian_table(elems, add)
        subs = {
            "e": ["1"],
            "L": ["1", "a"],
            "D": ["1", "ab"],
            "R": ["1", "b"],
            "K4": elems,
        }
        return Group("K4", elems, tbl, subs, ["e", "L", "D", "R", "K4"])
    if name == "Q8":
        elems = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        tbl = _quaternion_table(elems)
        subs = {
            "e": ["1"],
            "Z": ["1", "-1"],
            "L": ["1", "-1", "i", "-i"],
            "D": ["1", "-1", "k", "-k"],
            "R": ["1", "-1", "j", "-j"],
            "Q8": elems,
        }
        return Group("Q8", elems, tbl, subs, ["e", "Z", "L", "D", "R", "Q8"])
    raise ValueError(f"unknown group {name!r}")


def _quaternion_table(elems):
    base = {
        ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
        ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
        ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
    }

    def split(x):
        return (-1, x[1:]) if x.startswith("-") else (1, x)

    def joinsign(s, u):
        if u.startswith("-"):
            s, u = -s, u[1:]
        return u if s == 1 else "-" + u

    tbl = {}
    for x in elems:
        for y in elems:
            sx, ux = split(x)
            sy, uy = split(y)
            s = sx * sy
            if ux == "1":
                prod = uy
            elif uy == "1":
                prod = ux
            elif ux == uy:
                prod = "-1"
            else:
                prod = base[(ux, uy)]
            tbl[(x, y)] = joinsign(s, prod)
    return tbl


def canonical_group_name(name: str) -> str:
    aliases = {
        "t": "T", "trivial": "T", "e": "T", "1": "T",
        "c2": "C2", "c4": "C4", "k4": "K4", "k": "K4",
        "q8": "Q8", "q": "Q8",
    }
    return aliases.get(name.lower(), name)


@lru_cache(maxsize=None)
def orbit_table(group_name: str, stabs: tuple[str, ...]):
    """Orbits of G/A x G/B x ..., one factor per name in ``stabs``, under
    left translation: returns (reps, index, stab name).  A point is a tuple
    of coset representatives; reps holds the first point of each orbit in
    element order, and index sends each point to its orbit and the first u
    of G, in element order, with u . rep = point.

    Every point has the one stabilizer A n B n ...: the stabilizer of
    (xA, yB, ...) is xAx^-1 n yBy^-1 n ..., and every subgroup of the groups
    here is normal.  The orbits of G/A x G/B are the double cosets A\\G/B,
    with representatives (e, y) for y the least element of AyB.
    """
    g = group(group_name)
    subs = [g.subgroup(s) for s in stabs]
    stab = subs[0]
    for s in subs[1:]:
        stab = g.intersect(stab, s)
    index: dict[tuple[str, ...], tuple[int, str]] = {}
    reps: list[tuple[str, ...]] = []
    # each g.cosets list is in element order, so their product is too
    for pt in itertools.product(*[g.cosets(s) for s in subs]):
        if pt in index:
            continue
        for u in g.elements:
            moved = tuple(g.coset(g.mul(u, p), s) for p, s in zip(pt, subs))
            index.setdefault(moved, (len(reps), u))
        reps.append(pt)
    return tuple(reps), index, stab.name


# quotient targets: (source, kernel) -> (target, projection rule)
@lru_cache(maxsize=None)
def _quotient_map(source: str, kernel: str) -> QuotientMap:
    g = group(source)
    n = g.subgroup(kernel)
    if n.order == 1:
        proj = {x: x for x in g.elements}
        return QuotientMap(source, kernel, source, proj)
    if n.order == g.order:
        return QuotientMap(source, kernel, "T", {x: "1" for x in g.elements})
    if source == "Q8" and kernel == "Z":
        # canonical identification of Q8/Z with K4: L, D, R keep their names
        proj = {}
        for x in g.elements:
            u = x[1:] if x.startswith("-") else x
            proj[x] = {"1": "1", "i": "a", "j": "b", "k": "ab"}[u]
        return QuotientMap(source, kernel, "K4", proj)
    if source == "Q8" and kernel in ("L", "D", "R"):
        proj = {x: "1" if x in n.elements else "s" for x in g.elements}
        return QuotientMap(source, kernel, "C2", proj)
    if source == "K4" and kernel in ("L", "D", "R"):
        proj = {x: "1" if x in n.elements else "s" for x in g.elements}
        return QuotientMap(source, kernel, "C2", proj)
    if source == "C4" and kernel == "C2":
        proj = {x: "1" if x in n.elements else "s" for x in g.elements}
        return QuotientMap(source, kernel, "C2", proj)
    raise ValueError(f"no quotient table for {source}/{kernel}")


# isomorphisms from each subgroup onto its canonical abstract group,
# used when restricting complexes and coefficient systems
@lru_cache(maxsize=None)
def subgroup_iso(parent: str, sub_name: str) -> tuple[str, dict[str, str]]:
    g = group(parent)
    sub = g.subgroup(sub_name)
    if sub.order == g.order:
        return parent, {x: x for x in g.elements}
    if sub.order == 1:
        return "T", {g.identity: "1"}
    if parent == "Q8":
        if sub_name == "Z":
            return "C2", {"1": "1", "-1": "s"}
        gens = {"L": "i", "D": "k", "R": "j"}
        x = gens[sub_name]
        c4 = ["1", x, "-1", "-" + x]
        return "C4", {c4[n]: ["1", "g", "g2", "g3"][n] for n in range(4)}
    if parent == "K4":
        other = next(e for e in sub.elements if e != "1")
        return "C2", {"1": "1", other: "s"}
    if parent == "C4" and sub_name == "C2":
        return "C2", {"1": "1", "g2": "s"}
    raise ValueError(f"no iso table for {parent}:{sub_name}")


def subgroup_image_under_iso(parent: str, sub_name: str, inner: Subgroup) -> str:
    """Name, in the canonical group, of a subgroup contained in ``sub_name``."""
    target, iso = subgroup_iso(parent, sub_name)
    img = frozenset(iso[x] for x in inner.elements)
    for s in group(target).subgroups():
        if s.elements == img:
            return s.name
    raise ValueError("inner subgroup does not map to a listed subgroup")
