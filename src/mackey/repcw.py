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

``sphere_complex`` builds reduced complexes of representation spheres by
smashing cones of the unit-sphere complexes, running Gaussian elimination
over the Burnside category after every smash so that complexes stay near
their homology size.  Unit pivots are single orbit maps with coefficient
+-1 between cells with equal stabilizer; eliminating them changes nothing
about any level's homology or its induced structure maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .grouplat import Group, Subgroup, group, subgroup_iso, subgroup_image_under_iso


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


def osum_add(a: OrbitSum, b: OrbitSum) -> OrbitSum:
    return osum(list(a) + list(b))


def osum_scale(c: int, a: OrbitSum) -> OrbitSum:
    return tuple((c * x, u) for x, u in a) if c else ()


def osum_compose(g: Group, first: OrbitSum, then: OrbitSum) -> OrbitSum:
    """x. u1 followed by x.u2 is x.(u1 u2)."""
    return osum(
        (c1 * c2, g.mul(u1, u2)) for c1, u1 in first for c2, u2 in then
    )


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
    s = text.replace(" ", "").replace("-", "+-")
    for token in s.split("+"):
        if not token:
            continue
        sign = 1
        if token.startswith("-"):
            sign, token = -1, token[1:]
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


@dataclass
class BurnsideComplex:
    """Chain complex of formal orbit sums.

    cells[n] lists stabilizer names of degree-n cells; diff[n] maps
    (target_index, source_index) to the orbit-map sum from cell
    cells[n][source] into cells[n-1][target].
    """

    group_name: str
    cells: dict[int, tuple[str, ...]]
    diff: dict[int, dict[tuple[int, int], OrbitSum]]

    def group(self) -> Group:
        return group(self.group_name)

    def degrees(self) -> list[int]:
        return sorted(d for d, cs in self.cells.items() if cs)

    def ncells(self) -> int:
        return sum(len(cs) for cs in self.cells.values())

    def entry(self, n: int, i: int, j: int) -> OrbitSum:
        return self.diff.get(n, {}).get((i, j), ())

    def top_degree(self) -> int:
        ds = self.degrees()
        return ds[-1] if ds else 0

    def describe(self) -> str:
        return " ".join(
            f"{n}:[{','.join(self.cells[n])}]" for n in self.degrees()
        )


def point_complex(group_name: str) -> BurnsideComplex:
    g = group(group_name)
    return BurnsideComplex(g.name, {0: (g.top().name,)}, {})


def suspend(c: BurnsideComplex, k: int) -> BurnsideComplex:
    if k == 0:
        return c
    cells = {n + k: cs for n, cs in c.cells.items()}
    diff = {n + k: dict(d) for n, d in c.diff.items()}
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
    d1 = {(0, 0): osum([(1, "i"), (-1, e)]),
          (0, 1): osum([(1, "j"), (-1, e)]),
          (0, 2): osum([(1, "k"), (-1, e)])}
    rows2 = [
        [(1, "k"), (1, e), (1, e), (1, "k")],
        [(-1, e), (-1, e), (1, "i"), (1, "i")],
        [(1, e), (-1, "j"), (-1, e), (1, "j")],
    ]
    d2 = {
        (i, j): osum([rows2[i][j]])
        for i in range(3)
        for j in range(4)
    }
    rows3 = [
        [(1, e), (1, "j")],
        [(-1, e), (-1, "i")],
        [(1, e), (1, "k")],
        [(-1, e), (-1, e)],
    ]
    d3 = {
        (i, j): osum([rows3[i][j]])
        for i in range(4)
        for j in range(2)
    }
    c = BurnsideComplex(
        "Q8",
        {0: ("e",), 1: ("e", "e", "e"), 2: ("e",) * 4, 3: ("e",) * 2},
        {1: d1, 2: d2, 3: d3},
    )
    check_boundary(c)
    return c


def small_h_unit_sphere() -> BurnsideComplex:
    """A smaller free model of the same three-sphere, for cross-checks."""
    e = "1"
    d1 = {(0, 0): osum([(1, "i"), (-1, e)]),
          (0, 1): osum([(1, "j"), (-1, e)])}
    d2 = {(0, 0): osum([(1, e), (1, "i")]),
          (0, 1): osum([(1, e), (1, "k")]),
          (1, 0): osum([(-1, e), (-1, "j")]),
          (1, 1): osum([(-1, e), (1, "i")])}
    d3 = {(0, 0): osum([(1, "i"), (-1, e)]),
          (1, 0): osum([(1, e), (-1, "k")])}
    c = BurnsideComplex(
        "Q8",
        {0: ("e",), 1: ("e", "e"), 2: ("e", "e"), 3: ("e",)},
        {1: d1, 2: d2, 3: d3},
    )
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
        diff[n + 1] = dict(d)
    out = BurnsideComplex(c.group_name, cells, diff)
    check_boundary(out)
    return out


# ---------------------------------------------------------------------------
# products of orbits


@lru_cache(maxsize=None)
def product_reps(group_name: str, k1: str, k2: str) -> tuple[tuple[str, str], ...]:
    """Orbit data for G/K1 x G/K2: (rep, stabilizer name) per double coset."""
    g = group(group_name)
    out = []
    stab = g.intersect(g.subgroup(k1), g.subgroup(k2))
    for rep, _ in g.double_cosets(g.subgroup(k1), g.subgroup(k2)):
        out.append((rep, stab.name))
    return tuple(out)


@lru_cache(maxsize=None)
def locate_in_product(
    group_name: str, k1: str, k2: str, p1: str, p2: str
) -> tuple[str, str]:
    """Find (rep, u) with u.(eK1, rep.K2) = (p1.K1, p2.K2)."""
    g = group(group_name)
    s1, s2 = g.subgroup(k1), g.subgroup(k2)
    for rep, _ in product_reps(group_name, k1, k2):
        for x in s1.elements:
            u = g.mul(p1, x)
            if g.coset(g.mul(u, rep), s2) == g.coset(p2, s2):
                return rep, u
    raise RuntimeError("point not found in any orbit")


# ---------------------------------------------------------------------------
# smash products


def smash(c: BurnsideComplex, d: BurnsideComplex) -> BurnsideComplex:
    """Tensor of Burnside complexes with Koszul signs; orbit products are
    decomposed into orbits along double cosets."""
    if c.group_name != d.group_name:
        raise GroupMismatch("smash needs complexes over the same group")
    g = c.group()
    cells: dict[int, list[str]] = {}
    index: dict[tuple[int, int, int, int, str], int] = {}
    meta: dict[int, list[tuple[int, int, int, int, str]]] = {}
    for p in sorted(c.cells):
        for q in sorted(d.cells):
            n = p + q
            for i, k1 in enumerate(c.cells[p]):
                for j, k2 in enumerate(d.cells[q]):
                    for rep, stab in product_reps(g.name, k1, k2):
                        cells.setdefault(n, [])
                        meta.setdefault(n, [])
                        index[(p, i, q, j, rep)] = len(cells[n])
                        cells[n].append(stab)
                        meta[n].append((p, i, q, j, rep))
    diff: dict[int, dict[tuple[int, int], OrbitSum]] = {}

    def add_entry(n, ti, si, term):
        if not term:
            return
        dd = diff.setdefault(n, {})
        prev = dd.get((ti, si), ())
        new = osum_add(prev, term)
        if new:
            dd[(ti, si)] = new
        elif (ti, si) in dd:
            del dd[(ti, si)]

    for n in sorted(meta):
        for si, (p, i, q, j, rep) in enumerate(meta[n]):
            k1 = c.cells[p][i]
            k2 = d.cells[q][j]
            # boundary on the left factor
            for (ti_c, sj_c), entry in c.diff.get(p, {}).items():
                if sj_c != i:
                    continue
                k1t = c.cells[p - 1][ti_c]
                for coeff, a in entry:
                    # image of base point (e.K1, rep.K2) is (a.K1t, rep.K2)
                    tgt_rep, u = locate_in_product(
                        g.name, k1t, k2, g.coset(a, g.subgroup(k1t)),
                        g.coset(rep, g.subgroup(k2)),
                    )
                    ti = index[(p - 1, ti_c, q, j, tgt_rep)]
                    add_entry(n, ti, si, osum([(coeff, u)]))
            # boundary on the right factor, with the sign of the left degree
            sign = -1 if p % 2 else 1
            for (ti_d, sj_d), entry in d.diff.get(q, {}).items():
                if sj_d != j:
                    continue
                k2t = d.cells[q - 1][ti_d]
                for coeff, b in entry:
                    tgt_rep, u = locate_in_product(
                        g.name, k1, k2t, g.coset(g.identity, g.subgroup(k1)),
                        g.coset(g.mul(rep, b), g.subgroup(k2t)),
                    )
                    ti = index[(p, i, q - 1, ti_d, tgt_rep)]
                    add_entry(n, ti, si, osum([(sign * coeff, u)]))
    out = BurnsideComplex(
        c.group_name, {n: tuple(cs) for n, cs in cells.items()}, diff
    )
    check_boundary(out)
    return out


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
    alive = {n: [True] * len(cs) for n, cs in c.cells.items()}
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

    def is_unit(n, i, j) -> bool:
        entry = diff[n].get((i, j))
        return (
            entry is not None
            and len(entry) == 1
            and entry[0][0] in (1, -1)
            and c.cells[n][j] == c.cells[n - 1][i]
        )

    def set_entry(n, i, j, val: OrbitSum):
        d = diff[n]
        if val:
            if (i, j) not in d:
                by_row[n].setdefault(i, set()).add(j)
                by_col[n].setdefault(j, set()).add(i)
            d[(i, j)] = val
        elif (i, j) in d:
            del d[(i, j)]
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
        pc, pu = diff[n][(pi, pj)][0]
        inv = ((pc, g.inv(pu)),)
        row = [
            (j, diff[n][(pi, j)])
            for j in list(by_row[n].get(pi, ()))
            if j != pj
        ]
        col = [
            (i, diff[n][(i, pj)])
            for i in list(by_col[n].get(pj, ()))
            if i != pi
        ]
        alive[n][pj] = False
        alive[n - 1][pi] = False
        # clear the pivot row and column
        for j, _ in row:
            set_entry(n, pi, j, ())
        for i, _ in col:
            set_entry(n, i, pj, ())
        set_entry(n, pi, pj, ())
        if n + 1 in diff:
            for j in list(by_row[n + 1].get(pj, ())):
                set_entry(n + 1, pj, j, ())
        if n - 1 in diff:
            for i in list(by_col[n - 1].get(pi, ())):
                set_entry(n - 1, i, pi, ())
        # correction terms
        for j, gamma in row:
            ginv = osum_compose(g, gamma, inv)
            for i, beta in col:
                corr = osum_scale(-1, osum_compose(g, ginv, beta))
                new = osum_add(diff[n].get((i, j), ()), corr)
                set_entry(n, i, j, new)
                if new and is_unit(n, i, j):
                    queue.append((n, i, j))

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
            (new_index[n - 1][i], new_index[n][j]): e for (i, j), e in d.items()
        }
    out = BurnsideComplex(c.group_name, cells, out_diff)
    check_boundary(out)
    return out


# ---------------------------------------------------------------------------
# sphere complexes


_SPHERE_CACHE: dict[tuple, BurnsideComplex] = {}


def sphere_complex(rep: VirtualRep | str, group_name: str | None = None) -> BurnsideComplex:
    """Reduced Burnside complex of the representation sphere S^V."""
    if isinstance(rep, str):
        if group_name is None:
            raise ValueError("group needed to parse a rep string")
        rep = parse_rep(group_name, rep)
    key = (rep.group_name, rep.mults, rep.shift)
    if key in _SPHERE_CACHE:
        return _SPHERE_CACHE[key]
    mults = rep.mult_dict()
    if any(m < 0 for m in mults.values()) or rep.shift < 0:
        raise NegativeMultiplicity(
            "negative spheres are handled through cohomology, not cells"
        )
    # smash the reduced factors pairwise, smallest first, so intermediate
    # complexes stay close to their homology size
    factors: list[BurnsideComplex] = []
    for irr in IRREDUCIBLES[group(rep.group_name).name]:
        m = mults.get(irr, 0)
        if not m:
            continue
        factor = reduce_complex(
            cone_of_unit_sphere(unit_sphere_complex(rep.group_name, irr))
        )
        factors.extend([factor] * m)
    if not factors:
        out = point_complex(rep.group_name)
    else:
        while len(factors) > 1:
            factors.sort(key=lambda f: f.ncells(), reverse=True)
            a = factors.pop()
            b = factors.pop()
            factors.append(reduce_complex(smash(a, b)))
        out = factors[0]
    out = suspend(out, mults.get("1", 0) + rep.shift)
    _SPHERE_CACHE[key] = out
    return out


def restrict_complex(c: BurnsideComplex, sub_name: str) -> BurnsideComplex:
    """View a G-complex as a complex over (the abstract copy of) H <= G."""
    g = c.group()
    h = g.subgroup(sub_name)
    target, iso = subgroup_iso(g.name, sub_name)
    cells: dict[int, list[str]] = {}
    meta: dict[int, list[tuple[int, str]]] = {}
    index: dict[tuple[int, int, str], int] = {}
    for n in sorted(c.cells):
        cells[n] = []
        meta[n] = []
        for i, k in enumerate(c.cells[n]):
            ksub = g.subgroup(k)
            inner = g.intersect(h, ksub)
            stab = subgroup_image_under_iso(g.name, sub_name, inner)
            for rep, _ in g.double_cosets(h, ksub):
                index[(n, i, rep)] = len(cells[n])
                cells[n].append(stab)
                meta[n].append((i, rep))
    diff: dict[int, dict[tuple[int, int], OrbitSum]] = {}
    for n in sorted(c.diff):
        dd: dict[tuple[int, int], OrbitSum] = {}
        for si, (j, grep) in enumerate(meta[n]):
            for (ti_c, sj_c), entry in c.diff[n].items():
                if sj_c != j:
                    continue
                ktgt = g.subgroup(c.cells[n - 1][ti_c])
                for coeff, a in entry:
                    ga = g.mul(grep, a)
                    # H-orbit of (ga)Ktgt: find its representative
                    trep = _h_orbit_rep(g, h, ktgt, ga)
                    # h0 in H with h0 . trep . Ktgt = ga . Ktgt
                    h0 = next(
                        x
                        for x in sorted(h.elements, key=g.elem_sort_key)
                        if g.coset(g.mul(x, trep), ktgt) == g.coset(ga, ktgt)
                    )
                    ti = index[(n - 1, ti_c, trep)]
                    term = osum([(coeff, iso[h0])])
                    prev = dd.get((ti, si), ())
                    new = osum_add(prev, term)
                    if new:
                        dd[(ti, si)] = new
                    elif (ti, si) in dd:
                        del dd[(ti, si)]
        if dd:
            diff[n] = dd
    out = BurnsideComplex(target, {n: tuple(cs) for n, cs in cells.items()}, diff)
    check_boundary(out)
    return out


def _h_orbit_rep(g: Group, h: Subgroup, k: Subgroup, x: str) -> str:
    orbit = {g.mul(g.mul(u, x), v) for u in h.elements for v in k.elements}
    best = min(orbit, key=g.elem_sort_key)
    for rep, _ in g.double_cosets(h, k):
        if rep in orbit:
            return rep
    return best


# ---------------------------------------------------------------------------
# verification


def expand_level_e(c: BurnsideComplex) -> tuple[dict[int, int], dict[int, dict]]:
    """Underlying integer complex: one basis vector per point of each orbit."""
    g = c.group()
    sizes = {}
    basis: dict[int, list[tuple[int, str]]] = {}
    for n in sorted(c.cells):
        basis[n] = []
        for i, k in enumerate(c.cells[n]):
            for cs in g.cosets(g.subgroup(k)):
                basis[n].append((i, cs))
        sizes[n] = len(basis[n])
    mats: dict[int, dict] = {}
    for n in sorted(c.diff):
        cols: dict[int, dict[int, int]] = {}
        tgt_index = {bk: idx for idx, bk in enumerate(basis.get(n - 1, []))}
        by_source: dict[int, list[tuple[int, OrbitSum]]] = {}
        for (ti, si), entry in c.diff[n].items():
            by_source.setdefault(si, []).append((ti, entry))
        for sj, (i, cs) in enumerate(basis.get(n, [])):
            col: dict[int, int] = {}
            for ti, entry in by_source.get(i, ()):
                ktgt = g.subgroup(c.cells[n - 1][ti])
                for coeff, u in entry:
                    pt = g.coset(g.mul(cs, u), ktgt)
                    r = tgt_index[(ti, pt)]
                    col[r] = col.get(r, 0) + coeff
            cols[sj] = {r: v for r, v in col.items() if v}
        mats[n] = cols
    return sizes, mats


def check_boundary(c: BurnsideComplex) -> None:
    """Verify d.d = 0 on the underlying integer complex."""
    sizes, mats = expand_level_e(c)
    for n in sorted(mats):
        if n + 1 not in mats:
            continue
        upper = mats[n + 1]
        lower = mats[n]
        for sj, col in upper.items():
            acc: dict[int, int] = {}
            for mid, cv in col.items():
                for r, v in lower.get(mid, {}).items():
                    acc[r] = acc.get(r, 0) + cv * v
            if any(v for v in acc.values()):
                raise BoundaryError(f"d.d != 0 at degree {n + 1}")


def underlying_homology_ranks(c: BurnsideComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Integer homology (rank, torsion) of the underlying complex."""
    from .exactalg import AbHom, FgAbelian, ChainComplexAb, mat, zeros

    sizes, mats = expand_level_e(c)
    groups = {n: FgAbelian((0,) * sizes[n]) for n in sizes}
    diffs = {}
    for n, cols in mats.items():
        if n - 1 not in sizes:
            groups[n - 1] = FgAbelian(())
        rows = sizes.get(n - 1, 0)
        m = [[0] * sizes[n] for _ in range(rows)]
        for j, col in cols.items():
            for r, v in col.items():
                m[r][j] = v
        diffs[n] = AbHom(groups[n], groups.get(n - 1, FgAbelian(())), mat(m))
    cx = ChainComplexAb(groups, diffs)
    out = {}
    for n in sorted(groups):
        h = cx.homology(n).group
        out[n] = (h.rank, h.invariant_factors)
    return out
