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

Homology in a fixed degree is then an honest Mackey functor; the engine
computes it levelwise with the exact integer homology machinery, induces
the structure maps on homology classes, and finally tries to recognize the
answer inside the named catalog (including sums with powers of ``g``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .catalog import catalog
from .exactalg import (
    AbHom,
    Entries,
    HomologyClassData,
    ReducedComplex,
    induced_on_homology,
)
from .functors import MackeyFunctor, covering_pairs, is_isomorphic
from .grouplat import Group, group
from .repcw import (
    BurnsideComplex,
    GroupMismatch,
    VirtualRep,
    parse_rep,
    point_complex,
    sphere_complex,
)


class AxiomFailure(Exception):
    pass


# content keys of the validated coefficients, least recently used first
_VALIDATED_COEFFS: dict[tuple, None] = {}
_VALIDATED_COEFFS_SIZE = 64


def _content_key(coeff: MackeyFunctor) -> tuple:
    """Everything check_axioms reads, so equal keys get equal verdicts."""

    def maps(d):
        return tuple(sorted(
            (k, h.dom.orders, h.cod.orders, h.matrix) for k, h in d.items()
        ))

    return (
        coeff.group_name,
        coeff.is_zmodule,
        tuple(sorted((s, lvl.orders) for s, lvl in coeff.levels.items())),
        maps(coeff.res),
        maps(coeff.tr),
        maps(coeff.weyl),
    )


def _require_valid_coefficients(coeff: MackeyFunctor) -> None:
    """Coefficient systems must satisfy the Mackey axioms; checked once per
    content while that content is among the most recently validated, so a
    functor mutated after validation is checked again."""
    from .functors import check_axioms

    key = _content_key(coeff)
    if key in _VALIDATED_COEFFS:
        del _VALIDATED_COEFFS[key]
    else:
        # Composites memoised before a change would outlive it: drop them so
        # the check and every engine built afterwards read the current maps.
        coeff.__dict__.pop("_map_memo", None)
        report = check_axioms(coeff)
        if not report.ok:
            raise AxiomFailure(str(report))
    _VALIDATED_COEFFS[key] = None  # now the most recently used
    if len(_VALIDATED_COEFFS) > _VALIDATED_COEFFS_SIZE:
        del _VALIDATED_COEFFS[next(iter(_VALIDATED_COEFFS))]


# ---------------------------------------------------------------------------
# orbits of triple products, concretely


@lru_cache(maxsize=None)
def _orbit_table(group_name: str, stabs: tuple[str, str, str]):
    """Orbits of G/A x G/B x G/C: returns (reps, point->index, stab name)."""
    g = group(group_name)
    subs = [g.subgroup(s) for s in stabs]
    stab = g.subgroup(stabs[0])
    for s in subs[1:]:
        stab = g.intersect(stab, s)

    def act(x, pt):
        return tuple(g.coset(g.mul(x, p), subs[i]) for i, p in enumerate(pt))

    def key(pt):
        return tuple(g.elem_sort_key(p) for p in pt)

    points = list(itertools.product(*[g.cosets(s) for s in subs]))
    index: dict[tuple[str, str, str], int] = {}
    reps: list[tuple[str, str, str]] = []
    for pt in sorted(points, key=key):
        if pt in index:
            continue
        orbit = {act(x, pt) for x in g.elements}
        idx = len(reps)
        reps.append(pt)
        for q in orbit:
            index[q] = idx
    return tuple(reps), index, stab.name


@lru_cache(maxsize=None)
def _locate(group_name: str, stabs: tuple[str, str, str], pt):
    """Orbit index of pt and a translation u with u . rep = pt."""
    g = group(group_name)
    reps, index, _ = _orbit_table(group_name, stabs)
    idx = index[pt]
    rep = reps[idx]
    subs = [g.subgroup(s) for s in stabs]
    for u in g.elements:
        if all(
            g.coset(g.mul(u, rep[i]), subs[i]) == pt[i] for i in range(3)
        ):
            return idx, u
    raise RuntimeError("translation not found")


# ---------------------------------------------------------------------------
# the engine


@dataclass(frozen=True)
class _Summand:
    p: int  # dual degree
    di: int  # dual cell index
    q: int  # primal degree
    pi: int  # primal cell index
    orbit: int  # orbit index in the triple product
    stab: str  # stabilizer subgroup name
    offset: int  # its first generator in the chain group of degree q - p


def _add_block(acc: Entries, r0: int, c0: int, hom: AbHom, coeff: int) -> None:
    """Add coeff * hom to sparse entries acc with its corner at (r0, c0)."""
    for a, row in enumerate(hom.matrix, r0):
        for b, x in enumerate(row, c0):
            if x:
                key = (a, b)
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


class MackeyHomology:
    """A two-sided Bredon complex with coefficients, evaluated at all levels.

    ``primal`` contributes homologically (degree +q), ``dual``
    cohomologically (degree -p); either may be a point.  ``offset`` shifts
    reported degrees, implementing formal suspensions by trivial summands.
    Boundaries and structure chain maps are sparse entries {(row, col):
    value}, the format ReducedComplex reduces.
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
        self._summands: dict[str, dict[int, list[_Summand]]] = {}
        # summand of each (p, di, q, pi, orbit), per level
        self._index: dict[str, dict[tuple, _Summand]] = {}
        self._orders: dict[str, dict[int, tuple[int, ...]]] = {}
        self._complex: dict[str, ReducedComplex] = {}
        self._homology_cache: dict[tuple[str, int], HomologyClassData] = {}
        self._functor_cache: dict[int, MackeyFunctor] = {}
        self._hom_cache: dict[tuple, AbHom] = {}
        self._level_map_cache: dict[tuple, dict[int, Entries]] = {}
        for h in self.levels:
            self._build_level(h)

    # -- chain-level assembly ------------------------------------------------

    def _build_level(self, h: str) -> None:
        summands: dict[int, list[_Summand]] = {}
        index: dict[tuple, _Summand] = {}
        orders: dict[int, list[int]] = {}
        for p in sorted(self.dual.cells):
            for q in sorted(self.primal.cells):
                t = q - p
                for di, ka in enumerate(self.dual.cells[p]):
                    for pi, kb in enumerate(self.primal.cells[q]):
                        reps, _, stab = _orbit_table(self.g.name, (ka, kb, h))
                        for oi in range(len(reps)):
                            gens = orders.setdefault(t, [])
                            s = _Summand(p, di, q, pi, oi, stab, len(gens))
                            gens.extend(self.coeff.levels[stab].orders)
                            summands.setdefault(t, []).append(s)
                            index[(p, di, q, pi, oi)] = s
        self._summands[h] = summands
        self._index[h] = index
        self._orders[h] = {t: tuple(o) for t, o in orders.items()}
        diffs = {t: self._boundary(h, t) for t in sorted(summands) if t - 1 in summands}
        self._complex[h] = ReducedComplex(self._orders[h], diffs)

    def _boundary(self, h: str, t: int) -> Entries:
        g = self.g
        index = self._index[h]
        acc: Entries = {}
        for s in self._summands[h][t]:
            ka = self.dual.cells[s.p][s.di]
            kb = self.primal.cells[s.q][s.pi]
            reps, _, _ = _orbit_table(g.name, (ka, kb, h))
            base = reps[s.orbit]
            # primal direction: covariant, degree q -> q-1
            for (ti_c, sj_c), entry in self.primal.diff.get(s.q, {}).items():
                if sj_c != s.pi:
                    continue
                kb2 = self.primal.cells[s.q - 1][ti_c]
                for coeff, u in entry:
                    pt = (
                        base[0],
                        g.coset(g.mul(base[1], u), g.subgroup(kb2)),
                        base[2],
                    )
                    oi, w = _locate(g.name, (ka, kb2, h), pt)
                    tgt = index[(s.p, s.di, s.q - 1, ti_c, oi)]
                    _add_block(acc, tgt.offset, s.offset,
                               self._covariant(s.stab, tgt.stab, w), coeff)
        # dual direction: contravariant, dual degree p -> p+1, Koszul sign.
        # Components are indexed by target orbits: for a cell map
        # phi_u: (cell in degree p+1) -> (cell in degree p), apply M^* to
        # phi_u x id x id, whose components go from the orbit containing
        # the image of each (p+1)-side orbit to that orbit.
        for s2 in self._summands[h][t - 1]:
            kb = self.primal.cells[s2.q][s2.pi]
            ka2 = self.dual.cells[s2.p][s2.di]
            reps2, _, _ = _orbit_table(g.name, (ka2, kb, h))
            base2 = reps2[s2.orbit]
            sign = -1 if s2.q % 2 else 1
            for (i_tgt, j_src), entry in self.dual.diff.get(s2.p, {}).items():
                if j_src != s2.di:
                    continue
                ka = self.dual.cells[s2.p - 1][i_tgt]
                for coeff, u in entry:
                    pt = (
                        g.coset(g.mul(base2[0], u), g.subgroup(ka)),
                        base2[1],
                        base2[2],
                    )
                    oi, w = _locate(g.name, (ka, kb, h), pt)
                    src = index[(s2.p - 1, i_tgt, s2.q, s2.pi, oi)]
                    _add_block(acc, s2.offset, src.offset,
                               self._contravariant(s2.stab, src.stab, w), sign * coeff)
        return _reduced(acc, self._orders[h][t - 1])

    def _covariant(self, a: str, b: str, u: str) -> AbHom:
        """M_* of the orbit map x -> x.u from G/a into G/b."""
        key = ("cov", a, b, u)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.coeff.tr_map(a, b).compose(
                self.coeff.weyl_action(a, u)
            )
        return self._hom_cache[key]

    def _contravariant(self, a: str, b: str, u: str) -> AbHom:
        """M^* of the orbit map x -> x.u from G/a into G/b."""
        key = ("con", a, b, u)
        if key not in self._hom_cache:
            self._hom_cache[key] = self.coeff.weyl_action(
                a, self.g.inv(u)
            ).compose(self.coeff.res_map(a, b))
        return self._hom_cache[key]

    # -- structure chain maps -----------------------------------------------

    def _level_map(self, h_from: str, h_to: str, kind: str, elem: str | None = None):
        """Chain map between level complexes induced on the G/H factor, as
        sparse entries per degree.

        kind "res": contravariant along G/h_to -> G/h_from (h_to <= h_from);
        kind "tr": covariant along G/h_from -> G/h_to (h_from <= h_to);
        kind "weyl": covariant along right translation of G/h by elem.
        """
        cache_key = (h_from, h_to, kind, elem)
        if cache_key in self._level_map_cache:
            return self._level_map_cache[cache_key]
        g = self.g
        out: dict[int, Entries] = {}
        for t, src in self._summands[h_from].items():
            acc: Entries = {}
            if kind in ("tr", "weyl"):
                # covariant along the projection or translation of G/h
                for s in src:
                    ka = self.dual.cells[s.p][s.di]
                    kb = self.primal.cells[s.q][s.pi]
                    reps, _, _ = _orbit_table(g.name, (ka, kb, h_from))
                    base = reps[s.orbit]
                    if kind == "tr":
                        p3 = g.coset(base[2], g.subgroup(h_to))
                    else:
                        p3 = g.coset(g.mul(base[2], g.inv(elem)), g.subgroup(h_to))
                    oi, w = _locate(g.name, (ka, kb, h_to), (base[0], base[1], p3))
                    tgt = self._index[h_to][(s.p, s.di, s.q, s.pi, oi)]
                    _add_block(acc, tgt.offset, s.offset,
                               self._covariant(s.stab, tgt.stab, w), 1)
            else:
                # restriction is contravariant along G/h_to -> G/h_from, so
                # components are indexed by the h_to-side orbits
                for s2 in self._summands[h_to].get(t, []):
                    ka = self.dual.cells[s2.p][s2.di]
                    kb = self.primal.cells[s2.q][s2.pi]
                    reps2, _, _ = _orbit_table(g.name, (ka, kb, h_to))
                    base2 = reps2[s2.orbit]
                    pt = (base2[0], base2[1], g.coset(base2[2], g.subgroup(h_from)))
                    oi, w = _locate(g.name, (ka, kb, h_from), pt)
                    s = self._index[h_from][(s2.p, s2.di, s2.q, s2.pi, oi)]
                    _add_block(acc, s2.offset, s.offset,
                               self._contravariant(s2.stab, s.stab, w), 1)
            out[t] = _reduced(acc, self._orders[h_to].get(t, ()))
        self._level_map_cache[cache_key] = out
        return out

    def level_sizes(self) -> dict[str, tuple[int, int, int]]:
        """Per level: chain generators, core generators left by the
        reduction, and the largest absolute value of a core entry."""
        return {h: self._complex[h].sizes() for h in self.levels}

    # -- homology -------------------------------------------------------------

    def homology_raw(self, h: str, n: int) -> HomologyClassData:
        key = (h, n - self.offset)
        if key not in self._homology_cache:
            self._homology_cache[key] = self._complex[h].homology(n - self.offset)
        return self._homology_cache[key]

    def functor(self, n: int) -> MackeyFunctor:
        """The degree-n homology as a Mackey functor (raw, unnamed)."""
        if n in self._functor_cache:
            return self._functor_cache[n]
        t = n - self.offset
        g = self.g
        data = {h: self.homology_raw(h, n) for h in self.levels}
        levels = {h: data[h].group for h in self.levels}
        res = {}
        tr = {}
        for low, high in covering_pairs(g):
            rmaps = self._level_map(high, low, "res")
            tmaps = self._level_map(low, high, "tr")
            rhom = rmaps.get(t)
            thom = tmaps.get(t)
            res[(low, high)] = (
                induced_on_homology(rhom, data[high], data[low])
                if rhom is not None
                else AbHom.zero(levels[high], levels[low])
            )
            tr[(low, high)] = (
                induced_on_homology(thom, data[low], data[high])
                if thom is not None
                else AbHom.zero(levels[low], levels[high])
            )
        weyl = {}
        for h in self.levels:
            sub = g.subgroup(h)
            if levels[h].is_trivial:
                continue
            # induce the generators only; other elements are their products
            gen_maps = {}
            for e in g.generators:
                wmaps = self._level_map(h, h, "weyl", e)
                whom = wmaps.get(t)
                gen_maps[e] = (
                    induced_on_homology(whom, data[h], data[h])
                    if whom is not None
                    else AbHom.identity(levels[h])
                )
            ident = AbHom.identity(levels[h])
            for e in g.elements:
                acc = ident
                for letter in g.word(e):
                    acc = acc.compose(gen_maps[letter])
                if e not in sub.elements and not acc.equals(ident):
                    weyl[(h, e)] = acc
        out = MackeyFunctor(
            self.group_name, levels, res, tr, weyl, self.coeff.is_zmodule
        )
        self._functor_cache[n] = out
        return out


# ---------------------------------------------------------------------------
# recognition against the catalog


def identify(m: MackeyFunctor) -> str | None:
    """Best catalog name (possibly a sum with a power of g) for m."""
    if m.is_trivial():
        return "0"
    from .functors import strip_g_summands

    k, red = strip_g_summands(m)
    gpart = "" if k == 0 else ("g" if k == 1 else f"g^{k}")
    if red.is_trivial():
        return gpart or None
    table = catalog(m.group_name)
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


def _engine_content(coeff, primal, dual, offset) -> tuple:
    """Everything an engine computes from, complexes in the order it reads them."""
    return (_content_key(coeff), offset) + tuple(
        (c.group_name, tuple(c.cells.items()),
         tuple((n, tuple(d.items())) for n, d in c.diff.items()))
        for c in (primal, dual))


# engines by the hash of their content, least recently used first
_ENGINE_CACHE: dict[int, MackeyHomology] = {}
_ENGINE_CACHE_SIZE = 64


def cached_engine(coeff: MackeyFunctor, primal: BurnsideComplex | None = None,
                  dual: BurnsideComplex | None = None, offset: int = 0) -> MackeyHomology:
    """MackeyHomology(coeff, primal, dual, offset), one engine per content."""
    point = point_complex(coeff.group_name)
    primal, dual = (point if c is None else c for c in (primal, dual))
    want = _engine_content(coeff, primal, dual, offset)
    # the key is the content's hash, not the content (kilobytes per engine);
    # a hit is confirmed on the full content, which also refuses an engine
    # whose coefficients or complexes changed since (it reads them lazily)
    key = hash(want)
    eng = _ENGINE_CACHE.pop(key, None)
    if eng is None or _engine_content(eng.coeff, eng.primal, eng.dual, eng.offset) != want:
        eng = MackeyHomology(coeff, primal=primal, dual=dual, offset=offset)
    _ENGINE_CACHE[key] = eng  # now the most recently used
    if len(_ENGINE_CACHE) > _ENGINE_CACHE_SIZE:
        del _ENGINE_CACHE[next(iter(_ENGINE_CACHE))]
    return eng


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
