"""Mackey-functor-valued Bredon homology and cohomology.

The engine evaluates a coefficient Mackey functor M on products of orbits.
For a chain complex C of orbit cells and a subgroup H, the level-H chain
group in degree n is the direct sum of M(A n B n H) over the orbits of
(dual cell) x (primal cell) x G/H; boundaries act covariantly (conjugation
then transfer) in the primal slot and contravariantly (restriction then
conjugation) in the dual slot.  Restriction, transfer, and the Weyl action
between levels are the contravariant/covariant images of the projections
and translations of the G/H factor, so every structure map comes from one
mechanism and base change makes them commute with the differentials.

Assembly goes by cell pairs: a chain group is a list of blocks, one per
(dual cell, primal cell) pair, each holding the pair's orbits.  The image
of one orbit map on a whole block depends only on the cells' stabilizers,
the level, the slot it moves, the target stabilizer and the translation,
so it is built once per coefficient system, in its memo; boundaries and
the res/tr/Weyl chain maps add integer multiples of these sparse blocks at
cell-pair corners.

Homology in a fixed degree is then an honest Mackey functor; the engine
computes it levelwise with the exact integer homology machinery, induces
the structure maps on homology classes, and finally tries to recognize the
answer inside the named catalog (including sums with powers of ``g``).
"""

from __future__ import annotations

import itertools
import weakref
from functools import cache

from .catalog import catalog
from .exactalg import (
    AbHom,
    Entries,
    HomologyClassData,
    ReducedComplex,
    induced_on_homology,
)
from .functors import (
    RECOGNITION,
    MackeyFunctor,
    covering_pairs,
    is_isomorphic,
    strip_g_summands,
    zero_functor,
)
from .grouplat import Group, group, orbit_table
from .repcw import (
    BurnsideComplex,
    GroupMismatch,
    VirtualRep,
    parse_rep,
    point_complex,
    sphere_complex,
)
from .stats import COUNTS, LruMemo


class AxiomFailure(Exception):
    pass


# content keys of the validated coefficients
_VALIDATED_COEFFS = LruMemo("validation memo", 64)


def _require_valid_coefficients(coeff: MackeyFunctor) -> None:
    """Coefficient systems must satisfy the Mackey axioms; checked once per
    content while that content is among the most recently validated."""
    from .functors import check_axioms

    def check():
        report = check_axioms(coeff)
        if not report.ok:
            raise AxiomFailure(str(report))

    _VALIDATED_COEFFS.recall(coeff.content_key, check)


# ---------------------------------------------------------------------------
# cell boundaries by source


def _by_source(c: BurnsideComplex) -> dict[int, dict[int, list]]:
    """Each degree's boundary terms (target cell, terms) by source cell."""
    out: dict[int, dict[int, list]] = {}
    for n, d in c.diff.items():
        for (i, j), entry in d.items():
            out.setdefault(n, {}).setdefault(j, []).append((i, entry))
    return out


# ---------------------------------------------------------------------------
# the engine


def _add_block(acc: Entries, r0: int, c0: int, block: tuple, coeff: int) -> None:
    """Add coeff * block, sparse (row, col, x) entries, with its corner at (r0, c0)."""
    for r, c, x in block:
        key = (r0 + r, c0 + c)
        acc[key] = acc.get(key, 0) + coeff * x


def _reduced(acc: Entries, orders: tuple[int, ...]) -> Entries:
    """The entries mod their row's order, without zeros."""
    out = {}
    for (i, j), x in acc.items():
        if orders[i]:
            x %= orders[i]
        if x:
            out[(i, j)] = x
    return out


class _Level:
    """One level's data, shared by every engine alike at the level (the same
    complexes, and coefficients that agree below it); it refers to no engine."""

    def __init__(self):
        # per degree: the first generator of each cell pair's block, generator
        # orders and homology; induced maps by (source, target, kind, elem, t)
        self.offsets, self.orders, self.homology, self.maps = {}, {}, {}, {}
        self.complex: ReducedComplex | None = None


# levels by (primal, dual, level, coefficient content below the level), each
# while some engine holds it
_LEVELS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


@cache
def _zero(group_name: str, is_zmodule: bool) -> MackeyFunctor:
    """The unnamed zero functor: the functor of a degree with no homology."""
    return zero_functor(group_name, is_zmodule, None)


class MackeyHomology:
    """A two-sided Bredon complex with coefficients, evaluated at all levels.

    ``primal`` contributes homologically (degree +q), ``dual``
    cohomologically (degree -p); either may be a point.  ``offset`` shifts
    reported degrees, implementing formal suspensions by trivial summands.

    A level's chain group in degree t is a list of blocks, one per pair
    (dual cell in degree p, primal cell in degree q = t + p), in the same
    order at every level; the block of cells G/A, G/B at level H holds
    M(A n B n H) once per orbit of G/A x G/B x G/H.  Boundaries and
    structure chain maps are sparse entries {(row, col): value}, the format
    ReducedComplex reduces, summed from memoised orbit-map blocks placed at
    cell-pair corners.  A level, with its homology and induced maps, is
    shared by every live engine alike at that level (_LEVELS).
    """

    def __init__(
        self,
        coeff: MackeyFunctor,
        primal: BurnsideComplex | None = None,
        dual: BurnsideComplex | None = None,
        offset: int = 0,
    ):
        self.group_name = coeff.group_name
        self.g: Group = group(self.group_name)
        if primal is None:
            primal = point_complex(self.group_name)
        if dual is None:
            dual = point_complex(self.group_name)
        if primal.group_name != self.group_name or dual.group_name != self.group_name:
            raise GroupMismatch("complexes and coefficients over different groups")
        _require_valid_coefficients(coeff)
        self.coeff = coeff
        self.primal = primal
        self.dual = dual
        self.offset = offset
        self.levels = [s.name for s in self.g.subgroups()]
        # (p, dual cell, q, primal cell) per degree q - p, in chain order
        self._pairs: dict[int, list[tuple[int, int, int, int]]] = {}
        for p in sorted(dual.cells):
            for q in sorted(primal.cells):
                if dual.cells[p] and primal.cells[q]:
                    self._pairs.setdefault(q - p, []).extend(itertools.product(
                        (p,), range(len(dual.cells[p])), (q,), range(len(primal.cells[q]))))
        self._diff_by_source = (_by_source(primal), _by_source(dual))
        self._levels: dict[str, _Level] = {}
        self._functor_cache: dict[int, MackeyFunctor] = {}
        for h in self.levels:
            key = (primal.content_key, dual.content_key, h, coeff.content_key_below(h))
            level = _LEVELS.get(key)
            COUNTS["levels built" if level is None else "levels reused"] += 1
            self._levels[h] = _LEVELS[key] = self._build_level(h) if level is None else level
        # the degrees in which some level's core has a generator: no other
        # degree has homology at any level, and none is taken there
        self._core_degrees = {t for level in self._levels.values()
                              for t, alive in level.complex.alive.items() if any(alive)}

    # -- chain-level assembly ------------------------------------------------

    def _triple(self, pair: tuple[int, int, int, int], h: str) -> tuple[str, str, str]:
        p, di, q, pi = pair
        return (self.dual.cells[p][di], self.primal.cells[q][pi], h)

    def _block_orders(self, triple: tuple[str, str, str]) -> tuple[int, ...]:
        """Generator orders of a cell pair's block: M(stab) once per orbit,
        every orbit having the one stabilizer stab (grouplat.orbit_table)."""
        memo, key = self.coeff._map_memo, ("block orders", triple)
        out = memo.get(key)
        if out is None:
            reps, _, stab = orbit_table(self.group_name, triple)
            out = memo[key] = self.coeff.levels[stab].orders * len(reps)
        return out

    def _build_level(self, h: str) -> _Level:
        level = self._levels[h] = _Level()
        for t, pairs in self._pairs.items():
            at, gens = {}, []
            level.offsets[t] = at
            for pair in pairs:
                at[pair] = len(gens)
                gens.extend(self._block_orders(self._triple(pair, h)))
            level.orders[t] = tuple(gens)
        diffs = {t: self._boundary(h, t) for t in sorted(level.orders) if t - 1 in level.orders}
        level.complex = ReducedComplex(level.orders, diffs)
        return level

    def _boundary(self, h: str, t: int) -> Entries:
        src_at, tgt_at = self._levels[h].offsets[t], self._levels[h].offsets[t - 1]
        primal_src, dual_src = self._diff_by_source
        acc: Entries = {}
        # primal direction: covariant, degree q -> q-1
        for pair, c0 in src_at.items():
            p, di, q, pi = pair
            triple = self._triple(pair, h)
            for ti, entry in primal_src.get(q, {}).get(pi, ()):
                r0 = tgt_at[(p, di, q - 1, ti)]
                kb2 = self.primal.cells[q - 1][ti]
                for coeff, u in entry:
                    _add_block(acc, r0, c0, self._block("cov", triple, 1, kb2, u), coeff)
        # dual direction: contravariant, dual degree p -> p+1, Koszul sign.
        # Components are indexed by target orbits: for a cell map
        # phi_u: (cell in degree p+1) -> (cell in degree p), apply M^* to
        # phi_u x id x id, whose components go from the orbit containing
        # the image of each (p+1)-side orbit to that orbit.
        for pair, r0 in tgt_at.items():
            p, di, q, pi = pair
            triple = self._triple(pair, h)
            sign = -1 if q % 2 else 1
            for ti, entry in dual_src.get(p, {}).get(di, ()):
                c0 = src_at[(p - 1, ti, q, pi)]
                ka = self.dual.cells[p - 1][ti]
                for coeff, u in entry:
                    _add_block(acc, r0, c0, self._block("con", triple, 0, ka, u), sign * coeff)
        return _reduced(acc, self._levels[h].orders[t - 1])

    def _block(self, kind: str, triple: tuple[str, str, str], slot: int,
               c: str, u: str) -> tuple:
        """M_* (kind "cov") or M^* (kind "con") of the orbit map that sends
        the slot coordinate x of G/A x G/B x G/H to x.u in G/c, on the blocks
        of ``triple`` and of its image triple: sparse (row, col, x) entries,
        every orbit's component at its offset.  The orbits of ``triple`` are
        the columns of a covariant block and the rows of a contravariant one.
        A block reads only the coefficients and the group: it is theirs.
        """
        memo, key = self.coeff._map_memo, ("block", kind, triple, slot, c, u)
        block = memo.get(key)
        if block is not None:
            return block
        g, m = self.g, self.coeff
        reps, _, a = orbit_table(g.name, triple)
        _, index, b = orbit_table(g.name, triple[:slot] + (c,) + triple[slot + 1:])
        wa, wb = len(m.levels[a].orders), len(m.levels[b].orders)
        sub = g.subgroup(c)
        out = []
        for i, rep in enumerate(reps):
            j, w = index[rep[:slot] + (g.coset(g.mul(rep[slot], u), sub),) + rep[slot + 1:]]
            r0, c0 = (j * wb, i * wa) if kind == "cov" else (i * wa, j * wb)
            hom = memo.get(("orbit hom", kind, a, b, w))
            if hom is None:
                hom = memo[("orbit hom", kind, a, b, w)] = (
                    m.tr_map(a, b).compose(m.weyl_action(a, w)) if kind == "cov"
                    else m.weyl_action(a, g.inv(w)).compose(m.res_map(a, b))).matrix
            out.extend((r, col, x) for r, row in enumerate(hom, r0)
                       for col, x in enumerate(row, c0) if x)
        block = memo[key] = tuple(out)
        return block

    # -- structure chain maps -----------------------------------------------

    def _level_map(self, h_from: str, h_to: str, kind: str, elem: str | None,
                   t: int) -> Entries:
        """Chain map between level complexes induced on the G/H factor, in
        degree t, as sparse entries.

        kind "res": contravariant along G/h_to -> G/h_from (h_to <= h_from);
        kind "tr": covariant along G/h_from -> G/h_to (h_from <= h_to);
        kind "weyl": covariant along right translation of G/h by elem.
        """
        COUNTS[f"{kind} chain maps built"] += 1
        u = self.g.identity if elem is None else self.g.inv(elem)
        # restriction's blocks are indexed by the h_to-side orbits
        mode, h, c = ("con", h_to, h_from) if kind == "res" else ("cov", h_from, h_to)
        acc: Entries = {}
        rows, cols = self._levels[h_to].offsets[t], self._levels[h_from].offsets[t]
        for pair in self._pairs[t]:
            block = self._block(mode, self._triple(pair, h), 2, c, u)
            _add_block(acc, rows[pair], cols[pair], block, 1)
        return _reduced(acc, self._levels[h_to].orders[t])

    def _induced(self, h_from: str, h_to: str, kind: str, elem: str | None,
                 t: int, data: dict[str, HomologyClassData]) -> AbHom:
        """The map on degree-t homology of one structure chain map.  A
        source with no homology generator maps by zero, so its chain map is
        never built; every other one is built, applied and projected once
        per content of its higher level, whose key fixes both levels."""
        src, tgt = data[h_from], data[h_to]
        if src.group.is_trivial:
            return AbHom.zero(src.group, tgt.group)
        maps = self._levels[h_to if kind == "tr" else h_from].maps
        key = (h_from, h_to, kind, elem, t)
        COUNTS["structure maps reused"] += key in maps
        if key not in maps:
            maps[key] = induced_on_homology(self._level_map(*key), src, tgt)
        return maps[key]

    def sizes(self) -> dict[str, int]:
        """The engine's sizes by name: the cells of each complex, in all and
        per degree; each level's chain generators, the core generators its
        reduction left and the largest absolute value of a core entry; the
        cell pairs, in all and per degree (the same at every level); the
        distinct orbit-map blocks built so far for its coefficient system,
        by this engine or another; and the levels some engine holds."""
        out = {}
        for side, c in (("primal", self.primal), ("dual", self.dual)):
            out[f"{side} cells"] = c.ncells()
            out |= {f"{side} cells in degree {n}": len(cs) for n, cs in sorted(c.cells.items())}
        for h, level in self._levels.items():
            out |= zip((f"level {h} chain generators", f"level {h} core generators",
                        f"level {h} largest core entry"), level.complex.sizes())
        out["cell pairs"] = sum(map(len, self._pairs.values()))
        out |= {f"cell pairs in degree {t}": len(ps) for t, ps in sorted(self._pairs.items())}
        out["orbit-map blocks"] = sum(k[0] == "block" for k in self.coeff._map_memo)
        out["live levels"] = len(_LEVELS)
        return out

    # -- homology -------------------------------------------------------------

    def homology_raw(self, h: str, n: int) -> HomologyClassData:
        level, t = self._levels[h], n - self.offset
        if t not in level.homology:
            level.homology[t] = level.complex.homology(t)
        return level.homology[t]

    def functor(self, n: int) -> MackeyFunctor:
        """The degree-n homology as a Mackey functor (raw, unnamed); a zero
        degree is the shared zero functor."""
        out = self._functor_cache.get(n)
        if out is None:
            out = self._functor_cache[n] = self._assemble(n)
        return out

    def _assemble(self, n: int) -> MackeyFunctor:
        t = n - self.offset
        g = self.g
        if t not in self._core_degrees:
            COUNTS["zero degrees skipped"] += 1
            return _zero(self.group_name, self.coeff.is_zmodule)
        data = {h: self.homology_raw(h, n) for h in self.levels}
        levels = {h: data[h].group for h in self.levels}
        if all(lvl.is_trivial for lvl in levels.values()):
            COUNTS["zero degrees found"] += 1
            return _zero(self.group_name, self.coeff.is_zmodule)
        res, tr = {}, {}
        for low, high in covering_pairs(g):
            res[(low, high)] = self._induced(high, low, "res", None, t, data)
            tr[(low, high)] = self._induced(low, high, "tr", None, t, data)
        weyl = {}
        for h in self.levels:
            if levels[h].is_trivial:
                continue
            # induce the generators only; other elements are their products,
            # by word: the map of the word's prefix, then its last letter's.
            # Every subgroup is normal, so right translation of G/H by an
            # element of H is the identity, and two generators in one coset
            # eH translate every orbit alike: one chain map per coset.
            acts = {(): AbHom.identity(levels[h])}
            sub = g.subgroup(h)
            gen_maps, by_coset = {}, {}
            for e in g.generators:
                if e in sub.elements:
                    COUNTS["weyl maps taken as identity"] += 1
                    gen_maps[e] = acts[()]
                elif (coset := g.coset(e, sub)) in by_coset:
                    COUNTS["weyl maps shared by coset"] += 1
                    gen_maps[e] = by_coset[coset]
                else:
                    gen_maps[e] = by_coset[coset] = self._induced(h, h, "weyl", e, t, data)
            for e in g.elements:
                if e in sub.elements:
                    continue
                word = g.word(e)
                for k in range(1, len(word) + 1):
                    if word[:k] not in acts:
                        acts[word[:k]] = acts[word[:k - 1]].compose(gen_maps[word[k - 1]])
                weyl[(h, e)] = acts[word]
        return MackeyFunctor(self.group_name, levels, res, tr, weyl, self.coeff.is_zmodule)


# ---------------------------------------------------------------------------
# recognition against the catalog


def identify(m: MackeyFunctor) -> str | None:
    """Best catalog name (possibly a sum with a power of g) for m, once per
    content of m."""
    if m.is_trivial():
        return "0"
    return RECOGNITION.recall(("identify", m.content_key), lambda: _identify(m))


def _identify(m: MackeyFunctor) -> str | None:
    table = catalog(m.group_name)
    k, red = strip_g_summands(m)
    gpart = "" if k == 0 else ("g" if k == 1 else f"g^{k}")
    if red.is_trivial():
        return gpart or None
    names = sorted(table, key=lambda nm: (len(nm), nm))
    g = m.group()
    for nm in names:
        f = table[nm]
        if any(
            red.levels[s.name] != f.levels[s.name] for s in g.subgroups()
        ):
            continue
        if is_isomorphic(red, f):
            return f"{nm}+{gpart}" if gpart else nm
    return None


# ---------------------------------------------------------------------------
# public operations


def homology_mackey(
    c: BurnsideComplex, coeff: MackeyFunctor, n: int
) -> tuple[MackeyFunctor, str | None]:
    """Degree-n Mackey-functor-valued homology of a Burnside complex."""
    return _named(cached_engine(coeff, primal=c).functor(n))


def cohomology_mackey(
    c: BurnsideComplex, coeff: MackeyFunctor, n: int
) -> tuple[MackeyFunctor, str | None]:
    """Degree-n cohomology; equals pi_{-n} of the function object."""
    return _named(cached_engine(coeff, dual=c).functor(-n))


def homology_table(
    c: BurnsideComplex, coeff: MackeyFunctor, degrees
) -> dict[int, tuple[MackeyFunctor, str | None]]:
    return {n: homology_mackey(c, coeff, n) for n in degrees}


def _named(f: MackeyFunctor) -> tuple[MackeyFunctor, str | None]:
    nm = identify(f)
    return (f.with_name(nm) if nm else f, nm)


# engines by the content of their coefficients and complexes, and offset
_ENGINE_CACHE = LruMemo("engine cache", 64)


def cached_engine(coeff: MackeyFunctor, primal: BurnsideComplex | None = None,
                  dual: BurnsideComplex | None = None, offset: int = 0) -> MackeyHomology:
    """MackeyHomology(coeff, primal, dual, offset), one engine per content."""
    point = point_complex(coeff.group_name)
    primal, dual = (point if c is None else c for c in (primal, dual))
    return _ENGINE_CACHE.recall(
        (coeff.content_key, offset, primal.content_key, dual.content_key),
        lambda: MackeyHomology(coeff, primal=primal, dual=dual, offset=offset))


def suspension_engine(
    group_name: str, rep: VirtualRep | str, coeff: MackeyFunctor
) -> MackeyHomology:
    """Engine computing the homotopy of the rep-sphere suspension of coeff.

    Negative summands of the virtual representation become a dual complex;
    the integer part of the suspension is a degree offset.
    """
    if isinstance(rep, str):
        rep = parse_rep(group_name, rep)
    pos, neg, offset = rep.split()
    spheres = (sphere_complex(v) if v.mults else None for v in (pos, neg))
    return cached_engine(coeff, *spheres, offset)


def suspension_homotopy(
    group_name: str, rep: VirtualRep | str, coeff: MackeyFunctor, degrees
) -> dict[int, tuple[MackeyFunctor, str | None]]:
    eng = suspension_engine(group_name, rep, coeff)
    return {n: _named(eng.functor(n)) for n in degrees}
