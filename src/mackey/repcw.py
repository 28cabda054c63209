"""Equivariant cell complexes of representation spheres in Burnside form.

A complex is a list of orbit cells [G/K] per degree whose boundaries are
integer combinations of right-translation orbit maps x |-> x.u.  Because
all subgroups of our groups are normal, an orbit map G/K -> G/K' exists
exactly when K <= K', and products of orbits split along double cosets
K\\G/K' with constant stabilizer K n K'.

Library complexes:

* the two-point sphere of a sign representation (one orbit G/kernel);
* the circle of the rotation representation of C4 (free cells, boundary
  gamma - 1);
* the free quaternionic cell structure on the three-sphere of the
  4-dimensional irreducible, with boundary matrices of ranks 2, 4, 3, 1.

``sphere_complex`` builds reduced complexes of representation spheres from
closed-form blocks, one S^kV per irreducible V, smashed together with
Gaussian elimination over the Burnside category after every smash, so that
complexes stay near their homology size.  Unit pivots are single orbit maps
with coefficient +-1 between cells with equal stabilizer; eliminating them
changes nothing about any level's homology or its induced structure maps.

For a sign representation, ``sign_sphere`` writes S^kV down: one cell G/K
in each degree 1..k.  For V in ``PERIODIC``, S(V) is a free, connected,
orientation-preserving G-sphere, so S(kV), the k-fold join of S(V), has the
periodic free resolution as its cellular complex (Cartan-Eilenberg XII.7,
Brown VI.9): ``periodic_sphere`` repeats the free cells of the reduced S^V
k times and joins each period to the one below by the norm.
"""

from __future__ import annotations

import marshal
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .grouplat import Group, group, orbit_table, subgroup_iso, subgroup_image_under_iso
from .stats import LruMemo


class TrivialRep(Exception):
    pass


class NegativeMultiplicity(Exception):
    pass


class GroupMismatch(Exception):
    pass


class BoundaryError(Exception):
    pass


# an orbit-map sum: ((coeff, element), ...), normalized and sorted
OrbitSum = tuple[tuple[int, str], ...]


def osum(pairs) -> OrbitSum:
    acc: dict[str, int] = {}
    for c, u in pairs:
        acc[u] = acc.get(u, 0) + c
    return tuple(sorted((c, u) for u, c in acc.items() if c != 0))


# ---------------------------------------------------------------------------
# integer element tables: the smash, reduction and level-e kernels work on
# element indices and turn sums back into OrbitSums only where they store them


class _Tables(NamedTuple):
    names: tuple[str, ...]  # element names; the identity is index 0
    index: dict[str, int]
    mul: tuple[tuple[int, ...], ...]  # mul[x][y] is the index of x.y
    cosets: dict[str, tuple[int, ...]]  # subgroup -> representatives, in g.cosets order
    coset_pos: dict[str, tuple[int, ...]]  # subgroup -> element -> position of its coset
    below: frozenset[tuple[str, str]]  # (K, K') with K <= K'


@lru_cache(maxsize=None)
def _tables(group_name: str) -> _Tables:
    g = group(group_name)
    names = g.elements
    index = {x: k for k, x in enumerate(names)}
    subs = g.subgroups()
    cosets = {s.name: tuple(index[x] for x in g.cosets(s)) for s in subs}
    pos = {
        s.name: tuple(cosets[s.name].index(index[g.coset(x, s)]) for x in names)
        for s in subs
    }
    mul = tuple(tuple(index[g.mul(x, y)] for y in names) for x in names)
    below = frozenset((a.name, b.name) for a in subs for b in subs if a <= b)
    return _Tables(names, index, mul, cosets, pos, below)


def _osum_of(sums: dict[int, int], names: tuple[str, ...]) -> OrbitSum:
    """The OrbitSum of {element index: coefficient}."""
    return tuple(sorted([(c, names[u]) for u, c in sums.items() if c]))


# ---------------------------------------------------------------------------
# virtual representations


IRREDUCIBLES = {
    "T": (),
    "C2": ("sigma",),
    "C4": ("sigma", "lambda"),
    "K4": ("sigmaL", "sigmaD", "sigmaR"),
    "Q8": ("sigmaL", "sigmaD", "sigmaR", "H"),
}

IRR_DIM = {"sigma": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1, "lambda": 2, "H": 4}

# sign representations are keyed by their kernels
SIGN_KERNEL = {
    ("C2", "sigma"): "e",
    ("C4", "sigma"): "C2",
    ("K4", "sigmaL"): "L",
    ("K4", "sigmaD"): "D",
    ("K4", "sigmaR"): "R",
    ("Q8", "sigmaL"): "L",
    ("Q8", "sigmaD"): "D",
    ("Q8", "sigmaR"): "R",
}

# named composites usable in the rep grammar
COMPOSITES = {
    "C2": {"rho": {"1": 1, "sigma": 1}},
    "C4": {"rho": {"1": 1, "sigma": 1, "lambda": 1},
           "rhoC4": {"1": 1, "sigma": 1, "lambda": 1}},
    "K4": {"rhoK": {"1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1},
           "rho": {"1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1}},
    "Q8": {
        "rhoK": {"1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1},
        "rhoQ": {"1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1, "H": 1},
        "rho": {"1": 1, "sigmaL": 1, "sigmaD": 1, "sigmaR": 1, "H": 1},
    },
    "T": {},
}

REP_ALIASES = {"sigma1": "sigmaL", "sigma2": "sigmaD", "sigma3": "sigmaR",
               "h": "H", "hh": "H"}


@dataclass(frozen=True)
class VirtualRep:
    """Multiplicities of irreducibles plus an integer shift.

    The shift tracks formal (de)suspension by trivial summands; it is the
    only place negative integers are allowed in a rep that still has an
    honest cell complex.
    """

    group_name: str
    mults: tuple[tuple[str, int], ...]  # sorted (irr, mult), trivial as "1"
    shift: int = 0

    @staticmethod
    def make(group_name: str, mults: dict[str, int], shift: int = 0) -> "VirtualRep":
        clean = {k: v for k, v in mults.items() if v != 0}
        return VirtualRep(group_name, tuple(sorted(clean.items())), shift)

    def mult_dict(self) -> dict[str, int]:
        return dict(self.mults)

    @property
    def dim(self) -> int:
        d = self.shift
        for irr, m in self.mults:
            d += m * (1 if irr == "1" else IRR_DIM[irr])
        return d

    def split(self) -> tuple["VirtualRep", "VirtualRep", int]:
        """(positive part, negative part, integer offset)."""
        pos: dict[str, int] = {}
        neg: dict[str, int] = {}
        offset = 0
        for irr, m in self.mults:
            if irr == "1":
                if m > 0:
                    pos["1"] = m
                else:
                    offset += m
            elif m > 0:
                pos[irr] = m
            elif m < 0:
                neg[irr] = -m
        offset += self.shift
        return (
            VirtualRep.make(self.group_name, pos),
            VirtualRep.make(self.group_name, neg),
            offset,
        )

    def __str__(self) -> str:
        parts = []
        total_triv = self.shift + dict(self.mults).get("1", 0)
        if total_triv:
            parts.append(str(total_triv))
        for irr, m in self.mults:
            if irr == "1" or m == 0:
                continue
            parts.append(irr if m == 1 else f"{m}{irr}" if m > 0 else f"({m}){irr}")
        return "+".join(parts) if parts else "0"


def parse_rep(group_name: str, text: str) -> VirtualRep:
    """Parse expressions like "2rhoK+H", "3+rhoK", "-1+rhoQ", "lambda"."""
    g = group(group_name).name
    mults: dict[str, int] = {}
    shift = 0
    s = text.replace(" ", "")
    terms = s.replace("-", "+-").split("+")
    # a leading sign leaves an empty first term that is none
    for token in terms[1:] if s[:1] in ("+", "-") else terms:
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
        if not token:
            raise ValueError(f"representation {text!r}: an empty term")
        num = ""
        while token and (token[0].isdigit()):
            num += token[0]
            token = token[1:]
        coef = sign * (int(num) if num else 1)
        if not token:
            shift += coef
            continue
        name = REP_ALIASES.get(token.lower(), token)
        if name in COMPOSITES.get(g, {}):
            for irr, m in COMPOSITES[g][name].items():
                mults[irr] = mults.get(irr, 0) + coef * m
        elif name in IRREDUCIBLES[g] or name == "1":
            mults[name] = mults.get(name, 0) + coef
        else:
            raise ValueError(f"unknown representation {token!r} over {g}")
    return VirtualRep.make(g, mults, shift)


# ---------------------------------------------------------------------------
# complexes


@dataclass(frozen=True)
class BurnsideComplex:
    """Chain complex of formal orbit sums.

    cells[n] lists stabilizer names of degree-n cells; diff[n] maps
    (target_index, source_index) to the orbit-map sum from cell
    cells[n][source] into cells[n-1][target].  A value: ``cells``, ``diff``
    and each degree of ``diff`` are private read-only copies of the dicts
    it was built from.
    """

    group_name: str
    cells: Mapping[int, tuple[str, ...]]
    diff: Mapping[int, Mapping[tuple[int, int], OrbitSum]]

    def __post_init__(self):
        object.__setattr__(self, "cells", MappingProxyType(
            {n: tuple(cs) for n, cs in self.cells.items()}))
        object.__setattr__(self, "diff", MappingProxyType(
            {n: MappingProxyType(dict(d)) for n, d in self.diff.items()}))

    @cached_property
    def content_key(self) -> bytes:
        """Group, cells and diff entries in the order an engine reads them,
        as marshal format 0 bytes (see MackeyFunctor.content_key)."""
        return marshal.dumps((
            self.group_name, tuple(self.cells.items()),
            tuple((n, tuple(d.items())) for n, d in self.diff.items())), 0)

    def group(self) -> Group:
        return group(self.group_name)

    def ncells(self) -> int:
        return sum(len(cs) for cs in self.cells.values())

    def entry(self, n: int, i: int, j: int) -> OrbitSum:
        return self.diff.get(n, {}).get((i, j), ())


def point_complex(group_name: str) -> BurnsideComplex:
    g = group(group_name)
    return BurnsideComplex(g.name, {0: (g.top().name,)}, {})


def suspend(c: BurnsideComplex, k: int) -> BurnsideComplex:
    if k == 0:
        return c
    cells = {n + k: cs for n, cs in c.cells.items()}
    diff = {n + k: d for n, d in c.diff.items()}
    return BurnsideComplex(c.group_name, cells, diff)


def unit_sphere_complex(group_name: str, irr: str) -> BurnsideComplex:
    """Cell complex of the unit sphere of a nontrivial irreducible."""
    g = group(group_name)
    irr = REP_ALIASES.get(irr, irr)
    if irr == "1":
        raise TrivialRep("the trivial representation has no unit sphere here")
    if (g.name, irr) in SIGN_KERNEL:
        k = SIGN_KERNEL[(g.name, irr)]
        return BurnsideComplex(g.name, {0: (k,)}, {})
    if g.name == "C4" and irr == "lambda":
        e = g.identity
        return BurnsideComplex(
            "C4",
            {0: ("e",), 1: ("e",)},
            {1: {(0, 0): osum([(1, "g"), (-1, e)])}},
        )
    if g.name == "Q8" and irr == "H":
        return _h_unit_sphere()
    raise ValueError(f"no unit sphere for {irr} over {g.name}")


def _h_unit_sphere() -> BurnsideComplex:
    """The free three-sphere of the quaternionic representation.

    Degrees 0..3 carry 1, 3, 4, 2 free cells; the subgroups generated by
    i, j, k act freely along the coordinate circles."""
    e = "1"
    return _free_q8_complex(
        [[[(1, "i"), (-1, e)], [(1, "j"), (-1, e)], [(1, "k"), (-1, e)]]],
        [[[(1, "k")], [(1, e)], [(1, e)], [(1, "k")]],
         [[(-1, e)], [(-1, e)], [(1, "i")], [(1, "i")]],
         [[(1, e)], [(-1, "j")], [(-1, e)], [(1, "j")]]],
        [[[(1, e)], [(1, "j")]],
         [[(-1, e)], [(-1, "i")]],
         [[(1, e)], [(1, "k")]],
         [[(-1, e)], [(-1, e)]]])


def _free_q8_complex(*mats) -> BurnsideComplex:
    """The free Q8-complex with one cell in degree 0 whose d_n is mats[n-1],
    rows of orbit-map sums, checked."""
    cells = {0: ("e",)}
    diff = {}
    for n, rows in enumerate(mats, 1):
        cells[n] = ("e",) * len(rows[0])
        diff[n] = {(i, j): osum(entry) for i, row in enumerate(rows)
                   for j, entry in enumerate(row)}
    c = BurnsideComplex("Q8", cells, diff)
    check_boundary(c)
    return c


def cone_of_unit_sphere(c: BurnsideComplex) -> BurnsideComplex:
    """Reduced complex of S^V as the mapping cone of S(V)+ -> S^0."""
    g = c.group()
    cells = {0: (g.top().name,)}
    for n, cs in c.cells.items():
        cells[n + 1] = cs
    diff: dict[int, dict[tuple[int, int], OrbitSum]] = {}
    diff[1] = {
        (0, j): osum([(1, g.identity)]) for j in range(len(c.cells.get(0, ())))
    }
    for n, d in c.diff.items():
        diff[n + 1] = d
    out = BurnsideComplex(c.group_name, cells, diff)
    check_boundary(out)
    return out


# ---------------------------------------------------------------------------
# products of orbits


@lru_cache(maxsize=None)
def _product_table(group_name: str, k1: str, k2: str) -> tuple[tuple[tuple[int, int], ...], ...]:
    """[x][y] -> (orbit, u) with u.rep = (x.K1, y.K2) for the orbit's
    representative rep: grouplat.orbit_table of G/K1 x G/K2 on element
    indices."""
    g = group(group_name)
    s1, s2 = g.subgroup(k1), g.subgroup(k2)
    _, index, _ = orbit_table(group_name, (k1, k2))
    ix = _tables(group_name).index
    at = {pt: (r, ix[u]) for pt, (r, u) in index.items()}
    return tuple(
        tuple(at[(g.coset(x, s1), g.coset(y, s2))] for y in g.elements)
        for x in g.elements
    )


def _terms_by_source(c: BurnsideComplex, n: int, t: _Tables) -> dict[int, list]:
    """diff[n] as {source cell: [(target cell, [(coeff, element index)])]},
    in the order of diff[n]."""
    ix = t.index
    out: dict[int, list] = {}
    for (ti, si), entry in c.diff.get(n, {}).items():
        out.setdefault(si, []).append((ti, [(x, ix[u]) for x, u in entry]))
    return out


def _add_term(acc: dict[int, dict[int, int]], key: int, coeff: int, u: int) -> None:
    """Add coeff.u to acc[key]; an entry that was zero moves to the end, as a
    deleted and re-inserted dict key would."""
    sums = acc.get(key)
    if sums is None or not any(sums.values()):
        acc.pop(key, None)
        acc[key] = sums = {} if sums is None else sums
    sums[u] = sums.get(u, 0) + coeff


# ---------------------------------------------------------------------------
# smash products


def smash(c: BurnsideComplex, d: BurnsideComplex) -> BurnsideComplex:
    """Tensor of Burnside complexes with Koszul signs; orbit products are
    decomposed into orbits along double cosets."""
    if c.group_name != d.group_name:
        raise GroupMismatch("smash needs complexes over the same group")
    out = _product(c, d)
    # checked here, not only after reduction: cancelling unit pivots can
    # leave d.d = 0 on a product whose own d.d is not
    check_boundary(out)
    return out


def _product(c: BurnsideComplex, d: BurnsideComplex) -> BurnsideComplex:
    """smash, unchecked."""
    g = c.group()
    t = _tables(g.name)
    cells: dict[int, list[str]] = {}
    # (p, i, q, j) -> index of the first orbit of cell i x cell j; its
    # orbits follow in the order of orbit_table
    first: dict[tuple[int, int, int, int], int] = {}
    # per degree: (p, i, q, j, element index of the orbit's rep)
    meta: dict[int, list[tuple[int, int, int, int, int]]] = {}
    for p in sorted(c.cells):
        for q in sorted(d.cells):
            n = p + q
            for i, k1 in enumerate(c.cells[p]):
                for j, k2 in enumerate(d.cells[q]):
                    out_cells = cells.setdefault(n, [])
                    out_meta = meta.setdefault(n, [])
                    first[(p, i, q, j)] = len(out_cells)
                    reps, _, stab = orbit_table(g.name, (k1, k2))
                    for _, rep in reps:
                        out_cells.append(stab)
                        out_meta.append((p, i, q, j, t.index[rep]))
    c_terms = {p: _terms_by_source(c, p, t) for p in c.diff}
    d_terms = {q: _terms_by_source(d, q, t) for q in d.diff}
    diff: dict[int, dict[tuple[int, int], OrbitSum]] = {}
    for n in sorted(meta):
        for si, (p, i, q, j, rep) in enumerate(meta[n]):
            k1 = c.cells[p][i]
            k2 = d.cells[q][j]
            acc: dict[int, dict[int, int]] = {}
            # boundary on the left factor: the base point (e.K1, rep.K2)
            # goes to (a.K1t, rep.K2)
            for ti_c, entry in c_terms.get(p, {}).get(i, ()):
                table = _product_table(g.name, c.cells[p - 1][ti_c], k2)
                base = first[(p - 1, ti_c, q, j)]
                for coeff, a in entry:
                    tgt, u = table[a][rep]
                    _add_term(acc, base + tgt, coeff, u)
            # boundary on the right factor, with the sign of the left degree:
            # the base point goes to (e.K1, rep.b.K2t), in row e = 0 of its table
            sign = -1 if p % 2 else 1
            rep_row = t.mul[rep]
            for ti_d, entry in d_terms.get(q, {}).get(j, ()):
                table = _product_table(g.name, k1, d.cells[q - 1][ti_d])[0]
                base = first[(p, i, q - 1, ti_d)]
                for coeff, b in entry:
                    tgt, u = table[rep_row[b]]
                    _add_term(acc, base + tgt, sign * coeff, u)
            if not acc:
                continue
            dd = diff.setdefault(n, {})
            for ti, sums in acc.items():
                entry = _osum_of(sums, t.names)
                if entry:
                    dd[(ti, si)] = entry
    return BurnsideComplex(c.group_name, {n: tuple(cs) for n, cs in cells.items()}, diff)


# ---------------------------------------------------------------------------
# Gaussian elimination over the Burnside category


def reduce_complex(c: BurnsideComplex) -> BurnsideComplex:
    """Cancel invertible orbit-map entries until none remain.

    An entry is invertible when it is a single orbit map with coefficient
    +-1 between cells with the same stabilizer (the only units of these
    integral group rings are the trivial ones).  Each cancellation is the
    usual Gaussian elimination of complexes and leaves every level's
    homology, with all its structure maps, unchanged up to isomorphism.
    Row/column indexes and a pivot worklist keep the sweep near-linear in
    the number of entries actually touched.
    """
    g = c.group()
    t = _tables(g.name)
    ix, mul, names = t.index, t.mul, t.names
    alive = {n: [True] * len(cs) for n, cs in c.cells.items()}
    # entries are OrbitSums until a correction rewrites them as
    # {element index: coeff}
    diff = {n: dict(d) for n, d in c.diff.items()}
    by_row: dict[int, dict[int, set[int]]] = {}
    by_col: dict[int, dict[int, set[int]]] = {}
    for n, d in diff.items():
        rows: dict[int, set[int]] = {}
        cols: dict[int, set[int]] = {}
        for (i, j) in d:
            rows.setdefault(i, set()).add(j)
            cols.setdefault(j, set()).add(i)
        by_row[n] = rows
        by_col[n] = cols

    def sums_of(entry) -> dict[int, int]:
        return entry if type(entry) is dict else {ix[u]: x for x, u in entry}

    def is_unit(n, i, j) -> bool:
        entry = diff[n].get((i, j))
        if entry is None or len(entry) != 1:
            return False
        x = next(iter(entry.values())) if type(entry) is dict else entry[0][0]
        return x in (1, -1) and c.cells[n][j] == c.cells[n - 1][i]

    def clear_entry(n, i, j):
        if diff[n].pop((i, j), None) is not None:
            by_row[n][i].discard(j)
            by_col[n][j].discard(i)

    queue = [
        (n, i, j)
        for n in sorted(diff)
        for (i, j) in sorted(diff[n])
        if is_unit(n, i, j)
    ]
    while queue:
        n, pi, pj = queue.pop()
        if not (alive[n][pj] and alive[n - 1][pi]) or not is_unit(n, pi, pj):
            continue
        ((pu, pc),) = sums_of(diff[n][(pi, pj)]).items()
        pinv = ix[g.inv(names[pu])]
        row = [
            (j, sums_of(diff[n][(pi, j)]))
            for j in list(by_row[n].get(pi, ()))
            if j != pj
        ]
        col = [
            (i, sums_of(diff[n][(i, pj)]))
            for i in list(by_col[n].get(pj, ()))
            if i != pi
        ]
        alive[n][pj] = False
        alive[n - 1][pi] = False
        # clear the pivot row and column
        for j, _ in row:
            clear_entry(n, pi, j)
        for i, _ in col:
            clear_entry(n, i, pj)
        clear_entry(n, pi, pj)
        if n + 1 in diff:
            for j in list(by_row[n + 1].get(pj, ())):
                clear_entry(n + 1, pj, j)
        if n - 1 in diff:
            for i in list(by_col[n - 1].get(pi, ())):
                clear_entry(n - 1, i, pi)
        # correction terms: the map beta o pivot^-1 o gamma comes off entry
        # (i, j); its elements are u_gamma.u_pivot^-1.u_beta.  The pivot's
        # inverse is composed into each row entry once: right multiplication
        # by an element permutes elements, so those products need no
        # collecting.  Storing an entry and the unit test are inlined: this
        # loop makes every fill-in.
        dn, rows_n, cols_n = diff[n], by_row[n], by_col[n]
        cells_n, cells_lo = c.cells[n], c.cells[n - 1]
        col_terms = [(i, list(beta.items())) for i, beta in col]
        for j, gamma in row:
            row_terms = [(-pc * x, mul[mul[u][pinv]]) for u, x in gamma.items()]
            for i, beta in col_terms:
                key = (i, j)
                old = dn.get(key)
                sums = {} if old is None else dict(sums_of(old))
                for x, times in row_terms:
                    for u, y in beta:
                        w = times[u]
                        sums[w] = sums.get(w, 0) + x * y
                new = {w: x for w, x in sums.items() if x}
                if new:
                    if old is None:
                        rows_n.setdefault(i, set()).add(j)
                        cols_n.setdefault(j, set()).add(i)
                    dn[key] = new
                    if (len(new) == 1 and next(iter(new.values())) in (1, -1)
                            and cells_n[j] == cells_lo[i]):
                        queue.append((n, i, j))
                elif old is not None:
                    clear_entry(n, i, j)

    # reindex the surviving cells
    new_index: dict[int, dict[int, int]] = {}
    cells: dict[int, tuple[str, ...]] = {}
    for n, flags in alive.items():
        mapping = {}
        kept = []
        for old, ok in enumerate(flags):
            if ok:
                mapping[old] = len(kept)
                kept.append(c.cells[n][old])
        new_index[n] = mapping
        if kept:
            cells[n] = tuple(kept)
    out_diff: dict[int, dict[tuple[int, int], OrbitSum]] = {}
    for n, d in diff.items():
        if not d:
            continue
        out_diff[n] = {
            (new_index[n - 1][i], new_index[n][j]):
                _osum_of(e, names) if type(e) is dict else e
            for (i, j), e in d.items()
        }
    out = BurnsideComplex(c.group_name, cells, out_diff)
    check_boundary(out)
    return out


# ---------------------------------------------------------------------------
# sphere complexes


# Irreducibles V whose unit sphere is free, connected and orientation
# preserving: the reduced S^V has one G/G cell in degree 0 and free cells in
# degrees 1..dim V, one at each end, and S^kV is its periodic splice.
PERIODIC = frozenset({("Q8", "H"), ("C4", "lambda")})

# The spheres callers asked for, and the unit sphere S^V of each V in
# PERIODIC, which every splice of V starts from; values, so safe to share.
# A perfbench workload builds 39 to 67 of them, and the kρ rows of Q8 and K4
# to k = 12 and of C4 to k = 8 about 70.
_SPHERE_CACHE = LruMemo("sphere cache", 256)


def sphere_complex(rep: VirtualRep | str, group_name: str | None = None) -> BurnsideComplex:
    """Reduced Burnside complex of the representation sphere S^V."""
    if isinstance(rep, str):
        if group_name is None:
            raise ValueError("group needed to parse a rep string")
        rep = parse_rep(group_name, rep)
    return _sphere(rep)


def _sphere(rep: VirtualRep) -> BurnsideComplex:
    """sphere_complex of a parsed rep, cached."""
    return _SPHERE_CACHE.recall(
        (rep.group_name, rep.mults, rep.shift), lambda: _build_sphere(rep))


def _build_sphere(rep: VirtualRep) -> BurnsideComplex:
    mults = rep.mult_dict()
    if any(m < 0 for m in mults.values()) or rep.shift < 0:
        raise NegativeMultiplicity(
            "negative spheres are handled through cohomology, not cells"
        )
    gname = group(rep.group_name).name
    if mults.get("1") or rep.shift:
        nontrivial = VirtualRep.make(gname, {irr: m for irr, m in mults.items() if irr != "1"})
        return suspend(_sphere(nontrivial), mults.get("1", 0) + rep.shift)
    # the periodic block first, then the signs in IRREDUCIBLES order: the
    # largest unit sphere first keeps every product near its final size, and
    # another order gives other complexes, so other cache keys downstream
    irrs = sorted((irr for irr in IRREDUCIBLES[gname] if mults.get(irr)),
                  key=lambda irr: (gname, irr) not in PERIODIC)
    if not irrs:
        return point_complex(gname)
    if mults == {irrs[0]: 1} and (gname, irrs[0]) in PERIODIC:
        # the one cone still reduced: the unit that splices start from
        return reduce_complex(cone_of_unit_sphere(unit_sphere_complex(gname, irrs[0])))
    out, *blocks = [_block(gname, irr, mults[irr]) for irr in irrs]
    for block in blocks:
        out = reduce_complex(smash(out, block))
    return out


def _block(gname: str, irr: str, k: int) -> BurnsideComplex:
    """S^k.irr in closed form: a sign sphere, or the splice of the cached
    unit sphere of a periodic irreducible."""
    if (gname, irr) not in PERIODIC:
        return sign_sphere(gname, irr, k)
    unit = _sphere(VirtualRep.make(gname, {irr: 1}))
    return unit if k == 1 else periodic_sphere(unit, k)


def sign_sphere(group_name: str, irr: str, k: int) -> BurnsideComplex:
    """S^k.sigma, reduced, for a sign irreducible sigma with kernel K: one
    G/K cell in each degree 1..k over the G/G cell, bounding e in degree 1,
    then e - t in even and e + t in odd degrees, for t the first element
    outside K.  For k = 1 it is the reduced cone of the unit sphere G/K."""
    g = group(group_name)
    kernel = SIGN_KERNEL[(g.name, REP_ALIASES.get(irr, irr))]
    t = next(x for x in g.elements if x not in g.subgroup(kernel))
    e = g.identity
    out = BurnsideComplex(
        g.name, {n: (kernel,) if n else (g.top().name,) for n in range(k + 1)},
        {n: {(0, 0): osum([(1, e), (1 if n % 2 else -1, t)]) if n > 1 else ((1, e),)}
         for n in range(1, k + 1)})
    check_boundary(out)
    return out


def periodic_sphere(unit: BurnsideComplex, k: int) -> BurnsideComplex:
    """S^kV from the reduced S^V of an irreducible V in PERIODIC.

    The free cells of S^V, in degrees 1..d, are one period of a free
    resolution of Z: they are repeated k times, each period with S^V's own
    boundaries in its degrees 2..d, and the bottom cell of each period after
    the first bounds the norm, the sum of all group elements, times the top
    cell of the period below.  The norm composes to zero with the top cell's
    boundary because S(V) preserves orientation, and with the boundaries
    into the bottom cell because they augment to zero, as they do into the
    G/G cell of S^V.  The first period is S^V itself."""
    g = unit.group()
    d = max(unit.cells)
    free = g.bottom().name
    if (unit.cells.get(0) != (g.top().name,) or len(unit.cells.get(1, ())) != 1
            or len(unit.cells[d]) != 1
            or any(s != free for n, cs in unit.cells.items() if n for s in cs)):
        raise ValueError("not one G/G cell under one period of free cells")
    norm = {(0, 0): osum((1, u) for u in g.elements)}
    cells = {0: unit.cells[0]}
    diff = {1: unit.diff[1]}
    for p in range(k):
        for n in range(1, d + 1):
            cells[p * d + n] = unit.cells[n]
            if p and n == 1:
                diff[p * d + n] = norm
            elif n > 1 and n in unit.diff:
                diff[p * d + n] = unit.diff[n]
    out = BurnsideComplex(unit.group_name, cells, diff)
    check_boundary(out)
    return out


def restrict_complex(c: BurnsideComplex, sub_name: str) -> BurnsideComplex:
    """View a G-complex as a complex over (the abstract copy of) H <= G.

    The H-orbits of G/K are the orbits of G/H x G/K, through the points
    (e.H, x.K), so the restriction is the smash of the point cell G/H with
    c: every translation in it fixes e.H, so lies in H, and is renamed, with
    every stabilizer, along subgroup_iso."""
    g = c.group()
    target, iso = subgroup_iso(g.name, sub_name)
    h = g.subgroup(sub_name)
    prod = _product(BurnsideComplex(g.name, {0: (sub_name,)}, {}), c)
    stab = {k.name: subgroup_image_under_iso(g.name, sub_name, k)
            for k in g.subgroups() if k <= h}
    out = BurnsideComplex(
        target, {n: tuple(stab[k] for k in cs) for n, cs in prod.cells.items()},
        {n: {key: osum((x, iso[u]) for x, u in entry) for key, entry in d.items()}
         for n, d in prod.diff.items() if d})
    check_boundary(out)
    return out


# ---------------------------------------------------------------------------
# verification


def _level_e_columns(c: BurnsideComplex, t: _Tables, n: int):
    """The columns of d_n on the underlying integer complex, one {row:
    coeff} per point, in basis order.  A cell G/K has one point per coset
    of K, in g.cosets order; the point cs.K of cell i goes to the point
    cs.u.Kt of cell ti for each term x.u of its boundary."""
    lower = c.cells.get(n - 1, ())
    low_offs, size = {}, 0  # level-e row of the first point of each cell
    for ti, k in enumerate(lower):
        low_offs[ti], size = size, size + len(t.cosets[k])
    by_source = _terms_by_source(c, n, t)
    for i, k in enumerate(c.cells.get(n, ())):
        terms = [
            (low_offs[ti], t.coset_pos[lower[ti]], x, u)
            for ti, entry in by_source.get(i, ())
            for x, u in entry
        ]
        for cs in t.cosets[k]:
            times = t.mul[cs]
            col: dict[int, int] = {}
            for off, pos, x, u in terms:
                r = off + pos[times[u]]
                col[r] = col.get(r, 0) + x
            yield col


def expand_level_e(c: BurnsideComplex) -> tuple[dict[int, int], dict[int, dict]]:
    """Underlying integer complex: one basis vector per point of each orbit."""
    t = _tables(c.group_name)
    sizes = {n: sum(len(t.cosets[k]) for k in c.cells[n]) for n in sorted(c.cells)}
    mats: dict[int, dict] = {}
    for n in sorted(c.diff):
        mats[n] = {
            sj: {r: v for r, v in col.items() if v}
            for sj, col in enumerate(_level_e_columns(c, t, n))
        }
    return sizes, mats


def check_boundary(c: BurnsideComplex) -> None:
    """Verify d.d = 0 on the underlying integer complex, once per cell.

    Every entry must be a sum of orbit maps G/K -> G/K' with K <= K'.  Then
    the level-e column of the point cs.K of a cell is the translate by cs of
    the column of its base point e.K, so d.d vanishes on every point iff it
    vanishes on each cell's base point: the Burnside composite of the
    cell's boundary, sum x.y.(u.v)K'' over terms x.u then y.v, read per
    point of each target cell G/K''."""
    t = _tables(c.group_name)
    mul, pos = t.mul, t.coset_pos
    terms = {n: _terms_by_source(c, n, t) for n in c.diff}
    for n, upper in terms.items():
        src, tgt = c.cells[n], c.cells[n - 1]
        lower = terms.get(n - 1, {})
        for si, by_target in upper.items():
            acc: dict[tuple[int, int], int] = {}
            for ti, entry in by_target:
                if (src[si], tgt[ti]) not in t.below:
                    raise BoundaryError(
                        f"no orbit map G/{src[si]} -> G/{tgt[ti]} at degree {n}"
                    )
                for tti, entry2 in lower.get(ti, ()):
                    tpos = pos[c.cells[n - 2][tti]]
                    for x, u in entry:
                        row = mul[u]
                        for y, v in entry2:
                            key = (tti, tpos[row[v]])
                            acc[key] = acc.get(key, 0) + x * y
            if any(acc.values()):
                raise BoundaryError(f"d.d != 0 at degree {n}")


def underlying_homology_ranks(c: BurnsideComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Integer homology (rank, torsion) of the underlying complex."""
    from .exactalg import ReducedComplex

    sizes, mats = expand_level_e(c)
    orders = {n: (0,) * size for n, size in sizes.items()}
    for n in mats:
        orders.setdefault(n - 1, ())
    rc = ReducedComplex(orders, {
        n: {(r, j): v for j, col in cols.items() for r, v in col.items()}
        for n, cols in mats.items()
    })
    out = {}
    for n in sorted(orders):
        h = rc.homology(n).group
        out[n] = (h.rank, h.invariant_factors)
    return out
