"""Exact integer linear algebra: Smith normal form, finitely generated
abelian groups, and homology of complexes of such groups.

Everything is done with Python's arbitrary-precision integers, so there is
no overflow to guard against.  Matrices are small (tens to a few hundred
rows), which keeps the classical SNF algorithm comfortably fast: its pivot
is an entry of least absolute value, so a unit whenever there is one.

Conventions used throughout the package:

* A finitely generated abelian group is presented by a tuple of generator
  ``orders``: ``0`` means an infinite-cyclic generator, ``d >= 2`` a
  generator of order ``d``.  Free generators come first in normal form.
* A homomorphism is an integer matrix acting on generator coordinate
  columns; torsion coordinates are read modulo their order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache, cached_property
from math import gcd
from operator import mul
from typing import Iterable, Sequence


Matrix = tuple[tuple[int, ...], ...]
# a sparse matrix: {(row, col): value}, no zero values
Entries = dict[tuple[int, int], int]


class NonComposable(Exception):
    """Middle objects of a would-be complex differ."""


class NotAComplex(Exception):
    """Composite of consecutive differentials is nonzero."""


# ---------------------------------------------------------------------------
# plain integer matrices


def mat(rows: Iterable[Iterable[int]]) -> Matrix:
    m = tuple(tuple(int(x) for x in row) for row in rows)
    if m and any(len(row) != len(m[0]) for row in m):
        raise ValueError("ragged matrix")
    return m


def zeros(r: int, c: int) -> Matrix:
    return tuple((0,) * c for _ in range(r))


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ra, ca = shape(a)
    rb, cb = shape(b)
    if ca != rb:
        raise ValueError(f"shape mismatch {shape(a)} @ {shape(b)}")
    bt = list(zip(*b)) if b else []
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def _mat_mul_mod(a: Matrix, b: Matrix, orders: Sequence[int], ncols: int) -> Matrix:
    """a @ b with row i reduced mod orders[i] (0 leaves it alone).

    ``ncols`` is the column count of b, which a b without rows cannot carry.
    """
    cols = tuple(zip(*b)) if b else ((),) * ncols
    out = []
    for row, o in zip(a, orders):
        if o:
            out.append(tuple([sum(map(mul, row, col)) % o for col in cols]))
        else:
            out.append(tuple([sum(map(mul, row, col)) for col in cols]))
    return tuple(out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if shape(a) != shape(b):
        raise ValueError("shape mismatch")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c: int, a: Matrix) -> Matrix:
    return tuple(tuple(c * x for x in row) for row in a)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


# ---------------------------------------------------------------------------
# Smith normal form

_TRANSFORMS = frozenset({"u", "v", "uinv", "vinv"})


# A transform side is a pair [fwd, inv] of row lists, each None when not
# wanted.  The left side is (u, uinv^T) and the right side is (v^T, vinv):
# every operation on m then updates both members of a side by row
# operations.  Row op "row_i -= q row_t" on m makes u do the same and uinv
# do "col_t += q col_i"; column op "col_j -= q col_t" on m makes v do the
# same and vinv do "row_t += q row_j".


def _side_swap(side, a, b):
    for rows in side:
        if rows is not None:
            rows[a], rows[b] = rows[b], rows[a]


def _side_add(side, i, t, q):
    """fwd: row_i -= q row_t; inv: row_t += q row_i."""
    fwd, inv = side
    if fwd is not None:
        fwd[i] = [x - q * y for x, y in zip(fwd[i], fwd[t])]
    if inv is not None:
        inv[t] = [x + q * y for x, y in zip(inv[t], inv[i])]


def _pivot_to(m, left, right, src, t):
    i, j = src
    if i != t:
        m[t], m[i] = m[i], m[t]
        _side_swap(left, t, i)
    if j != t:
        for row in m:
            row[t], row[j] = row[j], row[t]
        _side_swap(right, t, j)


def _clear_with_pivot(m, left, right, t):
    n_r, n_c = len(m), len(m[0])
    p = m[t][t]
    for i in range(n_r):
        if i != t and m[i][t] != 0:
            q = m[i][t] // p if p in (1, -1) else _nearest_quotient(m[i][t], p)
            if q:
                m[i] = [x - q * y for x, y in zip(m[i], m[t])]
                _side_add(left, i, t, q)
    for j in range(n_c):
        if j != t and m[t][j] != 0:
            q = m[t][j] // p if p in (1, -1) else _nearest_quotient(m[t][j], p)
            if q:
                for row in m:
                    if row[t]:
                        row[j] -= q * row[t]
                _side_add(right, j, t, q)


def _nearest_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def snf_full(
    m: Matrix, want: Iterable[str] = _TRANSFORMS
) -> tuple[Matrix, Matrix | None, Matrix | None, Matrix | None, Matrix | None]:
    """Smith normal form with the transforms named in ``want``.

    Returns (s, u, v, uinv, vinv) with u*m*v = s; s is diagonal with
    nonnegative entries d_1 | d_2 | ... .  A transform that ``want`` does
    not name is not built and comes back as None; the others do not depend
    on which are built.  Pivots are chosen of minimal absolute value with a
    deterministic (row, col) tie-break so normal forms are reproducible.
    """
    n_r = len(m)
    n_c = len(m[0]) if m else 0
    a = [list(row) for row in m]

    def start(name, n):
        return [list(r) for r in identity(n)] if name in want else None

    left = [start("u", n_r), start("uinv", n_r)]
    right = [start("v", n_c), start("vinv", n_c)]
    t = 0
    while t < min(n_r, n_c):
        # the first entry of least absolute value in row-major order: the
        # first unit, when there is one, which ends the scan
        pivot = None
        best = None
        for i in range(t, n_r):
            row = a[i]
            for j in range(t, n_c):
                x = abs(row[j])
                if x and (best is None or x < best):
                    best, pivot = x, (i, j)
                    if x == 1:
                        break
            if best == 1:
                break
        if pivot is None:
            break
        _pivot_to(a, left, right, pivot, t)
        _clear_with_pivot(a, left, right, t)
        if best == 1:
            # a unit clears its row and column and divides every entry
            t += 1
            continue
        if any(a[t][j] for j in range(t + 1, n_c)) or any(
            a[i][t] for i in range(t + 1, n_r)
        ):
            continue
        # force divisibility d_t | everything below
        stuck = False
        for i in range(t + 1, n_r):
            for j in range(t + 1, n_c):
                if a[i][j] % a[t][t] != 0:
                    a[t] = [x + y for x, y in zip(a[t], a[i])]
                    _side_add(left, t, i, -1)
                    stuck = True
                    break
            if stuck:
                break
        if not stuck:
            t += 1
    for i in range(min(n_r, n_c)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            for rows in left:
                if rows is not None:
                    rows[i] = [-x for x in rows[i]]
    u, uinv_t = left
    v_t, vinv = right
    freeze = lambda rows: None if rows is None else tuple(map(tuple, rows))
    flip = lambda rows: None if rows is None else transpose(rows)
    return freeze(a), freeze(u), flip(v_t), flip(uinv_t), freeze(vinv)


# ---------------------------------------------------------------------------
# finitely generated abelian groups


def _normalize_orders(orders: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Invariant factors of a direct sum of cyclic groups Z/o (o=0 free)."""
    rank = sum(1 for o in orders if o == 0)
    torsion = [o for o in orders if o not in (0, 1)]
    if not torsion:
        return rank, ()
    # repeatedly replace pairs by (gcd, lcm) until the chain divides
    ds = sorted(torsion)
    changed = True
    while changed:
        changed = False
        for i in range(len(ds) - 1):
            a, b = ds[i], ds[i + 1]
            if b % a != 0:
                g = gcd(a, b)
                ds[i], ds[i + 1] = g, a * b // g
                changed = True
        ds.sort()
    ds = [d for d in ds if d > 1]
    return rank, tuple(ds)


@dataclass(frozen=True)
class FgAbelian:
    """A f.g. abelian group given by generator orders (0 = infinite).

    ``orders`` is the presentation actually used for coordinates; two groups
    compare equal when their invariant-factor normal forms agree.
    """

    orders: tuple[int, ...]

    def __post_init__(self):
        orders = tuple(int(o) for o in self.orders)
        if orders and min(orders) < 0:
            raise ValueError(f"negative order in {orders}")
        object.__setattr__(self, "orders", orders)

    @staticmethod
    def normal(rank: int, factors: Sequence[int] = ()) -> "FgAbelian":
        factors = tuple(factors)
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError("invariant factors must divide in turn")
        if any(f < 2 for f in factors):
            raise ValueError("invariant factors are at least 2")
        return FgAbelian((0,) * rank + factors)

    @property
    def ngens(self) -> int:
        return len(self.orders)

    @cached_property
    def normal_form(self) -> tuple[int, tuple[int, ...]]:
        """(rank, invariant factors), computed on first use and kept."""
        return _normalize_orders(self.orders)

    @property
    def rank(self) -> int:
        return self.normal_form[0]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.normal_form[1]

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.invariant_factors

    @property
    def is_finite(self) -> bool:
        return self.rank == 0

    @property
    def is_free(self) -> bool:
        return not self.invariant_factors

    def order(self) -> int | None:
        """Number of elements, or None when infinite."""
        if not self.is_finite:
            return None
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    def reduce_vec(self, v: Sequence[int]) -> tuple[int, ...]:
        return tuple(x % o if o else x for x, o in zip(v, self.orders))

    def direct_sum(self, other: "FgAbelian") -> "FgAbelian":
        return FgAbelian(self.orders + other.orders)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FgAbelian):
            return NotImplemented
        return self.normal_form == other.normal_form

    def __hash__(self):
        return hash(self.normal_form)

    def __str__(self) -> str:
        rank, factors = self.normal_form
        parts = ["Z"] * rank + [f"Z/{d}" for d in factors]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class AbHom:
    """Homomorphism of f.g. abelian groups as a matrix on generators."""

    dom: FgAbelian
    cod: FgAbelian
    matrix: Matrix

    def __post_init__(self):
        if len(self.matrix) != self.cod.ngens or any(
            len(row) != self.dom.ngens for row in self.matrix
        ):
            raise ValueError(
                f"matrix is {shape(self.matrix)}, "
                f"expected {self.cod.ngens}x{self.dom.ngens}"
            )
        object.__setattr__(self, "matrix", _reduce_matrix(self.matrix, self.cod))
        for j, o in enumerate(self.dom.orders):
            if o == 0:
                continue
            img = tuple(o * self.matrix[i][j] for i in range(self.cod.ngens))
            if any(
                (x % co if co else x) for x, co in zip(img, self.cod.orders)
            ):
                raise ValueError("matrix does not respect torsion")

    @staticmethod
    def zero(dom: FgAbelian, cod: FgAbelian) -> "AbHom":
        return _unchecked(dom, cod, zeros(cod.ngens, dom.ngens))

    @staticmethod
    def identity(g: FgAbelian) -> "AbHom":
        return _unchecked(g, g, _reduced_identity(g.orders))

    @staticmethod
    def scalar(g: FgAbelian, c: int) -> "AbHom":
        return AbHom(g, g, mat_scale(c, identity(g.ngens)))

    def __call__(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.dom.ngens:
            raise ValueError("bad vector length")
        out = tuple(
            sum(row[j] * v[j] for j in range(self.dom.ngens))
            for row in self.matrix
        )
        return self.cod.reduce_vec(out)

    def compose(self, first: "AbHom") -> "AbHom":
        """self after first.  An identity factor multiplies nothing: first is
        reduced mod self.cod already, and a valid self is zero on the columns
        of order-1 generators, which the reduced identity zeroes."""
        if first.cod.orders != self.dom.orders:
            raise NonComposable("middle objects differ")
        if _is_identity(self):
            return first
        if _is_identity(first):
            return _unchecked(first.dom, self.cod, self.matrix)
        # a composite of two valid homs is valid: only the reduction is redone
        return _unchecked(first.dom, self.cod, _mat_mul_mod(
            self.matrix, first.matrix, self.cod.orders, first.dom.ngens))

    def __add__(self, other: "AbHom") -> "AbHom":
        if (self.dom, self.cod) != (other.dom, other.cod):
            raise ValueError("mismatched homs")
        return AbHom(self.dom, self.cod, mat_add(self.matrix, other.matrix))

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.matrix)

    def equals(self, other: "AbHom") -> bool:
        return (
            self.dom.orders == other.dom.orders
            and self.cod.orders == other.cod.orders
            and self.matrix == other.matrix
        )

    def direct_sum(self, other: "AbHom") -> "AbHom":
        dom = self.dom.direct_sum(other.dom)
        cod = self.cod.direct_sum(other.cod)
        m = [
            list(row) + [0] * other.dom.ngens for row in self.matrix
        ] + [[0] * self.dom.ngens + list(row) for row in other.matrix]
        return AbHom(dom, cod, mat(m))


def _unchecked(dom: FgAbelian, cod: FgAbelian, m: Matrix) -> AbHom:
    """An AbHom without the checks, for a matrix valid by construction."""
    out = object.__new__(AbHom)
    out.__dict__.update(dom=dom, cod=cod, matrix=m)
    return out


@cache
def _reduced_identity(orders: tuple[int, ...]) -> Matrix:
    """The identity mod the orders, one per orders: order-1 rows are zero."""
    return _reduce_matrix(identity(len(orders)), FgAbelian(orders))


def _is_identity(h: AbHom) -> bool:
    return h.dom.orders == h.cod.orders and h.matrix == _reduced_identity(h.dom.orders)


def _reduce_matrix(m: Matrix, cod: FgAbelian) -> Matrix:
    return tuple(
        tuple(x % o if o else x for x in row) for row, o in zip(m, cod.orders)
    )


# ---------------------------------------------------------------------------
# homology of complexes of f.g. abelian groups


def _relation_columns(g: FgAbelian) -> list[tuple[int, ...]]:
    cols = []
    for i, o in enumerate(g.orders):
        if o:
            cols.append(tuple(o if j == i else 0 for j in range(g.ngens)))
    return cols


@dataclass(frozen=True)
class HomologyClassData:
    """A homology group together with coordinates on the chain level.

    ``lift`` maps normal-form generators to chain vectors; ``project`` sends
    a cycle (chain vector) to its homology class in normal-form coordinates.
    The Smith normal forms run on a core of the chain group: the generators
    at positions ``alive``, left by the elimination ``steps`` in ``degree``
    of a ReducedComplex (no steps when it comes from ``homology_at``).  It is
    plain data, so it keeps no complex alive.
    """

    group: FgAbelian
    orders: tuple[int, ...]  # chain generator orders
    _lifts: Matrix  # core x ngens, the homology generators as core cycles
    _d: Matrix  # the core boundary d_out, which tells cycles apart
    _cod_orders: tuple[int, ...]  # orders of the rows of _d
    _proj: Matrix  # ngens x (core + torsion rows of _d), see _cycle_coords
    alive: tuple[int, ...]
    steps: tuple = ()
    degree: int = 0

    def lift(self, coords: Sequence[int]) -> tuple[int, ...]:
        if len(coords) != self.group.ngens:
            raise ValueError("bad coordinate length")
        v = [0] * len(self.orders)
        for idx, row in zip(self.alive, self._lifts):
            v[idx] = sum(map(mul, row, coords))
        return tuple(_lift_steps(self.steps, self.degree, self.orders, v))

    @cached_property
    def generator_lifts(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each homology generator lifted to a chain vector, as its nonzero
        (index, value) entries; lifted once, for every map out of this group."""
        n = self.group.ngens
        lifts = (self.lift(tuple(int(i == k) for i in range(n))) for k in range(n))
        return tuple(tuple((j, x) for j, x in enumerate(v) if x) for v in lifts)

    def project(self, chain_vec: Sequence[int]) -> tuple[int, ...]:
        v = _project_steps(self.steps, self.degree, self.orders, chain_vec)
        coords = _cycle_coords(
            self._d, self._cod_orders, self._proj, [v[idx] for idx in self.alive])
        if coords is None:
            raise ValueError("vector is not a cycle")
        return self.group.reduce_vec(coords)


def _cycle_coords(d: Matrix, cod_orders: Sequence[int], rows: Matrix,
                  x: Sequence[int]) -> tuple[int, ...] | None:
    """rows . (x, y), where y solves d x + R y = 0 for the diagonal relation
    columns R of the torsion rows of d; None when x is no cycle, that is,
    when d x is nonzero on a free row or no multiple of a torsion row's
    order."""
    ext = list(x)
    for row, o in zip(d, cod_orders):
        dx = sum(map(mul, row, x))
        if o:
            q, r = divmod(dx, o)
            if r:
                return None
            ext.append(-q)
        elif dx:
            return None
    return tuple([sum(map(mul, row, ext)) for row in rows])


def homology_at(d_in: AbHom | None, d_out: AbHom | None) -> HomologyClassData:
    """Homology ker(d_out)/im(d_in) of a two-step complex at the middle.

    Either map may be None (interpreted as the zero map from/to 0).  Raises
    NonComposable when the middle objects differ and NotAComplex when
    d_out . d_in is nonzero.

    One Smith form u [d_out | R] v = s, R the diagonal relation columns of
    the codomain's torsion rows, gives the cycles and their coordinates.
    The kernel of [d_out | R] is spanned by the columns of v past the rank,
    and dropping their R part keeps a basis, since R has full column rank.
    That basis spans the cycle lattice, the preimage of the codomain's
    relations, which holds the middle's own relations because d_out
    respects torsion.  The rows of vinv past the rank send a kernel vector
    (x, y) to its coordinates in that basis.
    """
    if d_in is None and d_out is None:
        raise ValueError("need at least one differential")
    middle = d_in.cod if d_in is not None else d_out.dom
    if d_in is not None and d_out is not None:
        if d_in.cod.orders != d_out.dom.orders:
            raise NonComposable("middle objects differ")
        if not d_out.compose(d_in).is_zero():
            raise NotAComplex("d_out . d_in != 0")
    n = middle.ngens
    d = d_out.matrix if d_out is not None else ()
    cod_orders = d_out.cod.orders if d_out is not None else ()
    if d:
        tors = [i for i, o in enumerate(cod_orders) if o]
        stacked = tuple(
            row + tuple(o if i == t else 0 for t in tors)
            for i, (row, o) in enumerate(zip(d, cod_orders))
        )
        s, _, v, _, vinv = snf_full(stacked, ("v", "vinv"))
        rank = sum(1 for i in range(min(shape(s))) if s[i][i])
        basis, tail = tuple(row[rank:] for row in v[:n]), vinv[rank:]
    else:
        basis = tail = identity(n)
    # relations: the middle torsion and the boundaries, in basis coords
    rels = _relation_columns(middle)
    if d_in is not None:
        rels += transpose(d_in.matrix)
    rel_coords = [_cycle_coords(d, cod_orders, tail, x) for x in rels]
    if None in rel_coords:
        raise NotAComplex("boundary does not lie in the cycle lattice")
    r = len(tail)
    relmat = transpose(rel_coords) if rel_coords else zeros(r, 0)
    s, u, _, uinv, _ = snf_full(relmat, ("u", "uinv"))
    sr, sc = shape(s)
    orders = []
    kept = []
    for i in range(r):
        d_i = s[i][i] if i < min(sr, sc) else 0
        if d_i == 1:
            continue
        orders.append(d_i)
        kept.append(i)
    free = [i for i, o in zip(kept, orders) if o == 0]
    tors = [i for i, o in zip(kept, orders) if o != 0]
    sel = free + tors
    sel_orders = tuple([0] * len(free) + [orders[kept.index(i)] for i in tors])
    gen_coords = tuple(tuple(row[i] for i in sel) for row in uinv)
    return HomologyClassData(
        FgAbelian(sel_orders), middle.orders, mat_mul(basis, gen_coords), d,
        cod_orders, mat_mul(tuple(u[i] for i in sel), tail) if sel else (),
        tuple(range(n)),
    )


class ReducedComplex:
    """A chain complex of f.g. abelian groups with unit entries swept out.

    Gaussian elimination of complexes: whenever a differential entry is an
    isomorphism of cyclic summands (equal orders, invertible coefficient),
    the pair of generators cancels and the neighbouring entries pick up the
    usual correction term.  Each cancellation takes a unit of least
    Markowitz cost, so the core fills in as little as the rule can see and
    its entries stay small.  The elimination steps are recorded so chains
    can be projected into, and lifted out of, the reduced complex; homology
    classes therefore keep coordinates in the original chain groups while
    all Smith normal forms run on the small core.

    ``orders[n]`` are the generator orders of C_n, and ``diffs[n]`` is the
    boundary C_n -> C_{n-1} as sparse entries {(row, col): value}, each
    reduced mod its row's order and nonzero.
    """

    def __init__(self, orders: dict[int, tuple[int, ...]], diffs: dict[int, Entries]):
        self.orders = orders
        self.alive: dict[int, list[bool]] = {
            n: [True] * len(o) for n, o in orders.items()
        }
        # row-major, as a dense matrix reads: pivots of equal cost are taken
        # in this order
        self.d: dict[int, Entries] = {
            n: {k: entries[k] for k in sorted(entries)} for n, entries in diffs.items()
        }
        # steps: (degree, source_idx, target_idx, pinv, gamma, beta)
        self.steps: list[tuple[int, int, int, int, dict, dict]] = []
        self._reduce()
        self._dense: dict[int, AbHom] = {}

    def _reduce(self) -> None:
        # the indices are locals: an engine keeps its reduced complexes, and
        # they are of no use once the reduction is done
        seq = itertools.count()  # one counter: a key's seq orders it in its degree
        index = {
            n: _DegreeIndex(dn, self.orders[n], self.orders[n - 1], seq)
            for n, dn in self.d.items()
        }
        # one cancellation per degree per sweep, in ascending degrees
        changed = True
        while changed:
            changed = False
            for n in sorted(self.d):
                pivot = index[n].least_fill_pivot()
                if pivot is not None:
                    self._cancel(n, *pivot, index)
                    changed = True

    def _cancel(self, n: int, pi: int, pj: int, pinv: int, index) -> None:
        ix = index[n]
        dn, rows, cols, units, late = ix.d, ix.rows, ix.cols, ix.units, ix.late
        gamma = {j: dn[(pi, j)] for j in rows[pi] if j != pj}
        beta = {i: dn[(i, pj)] for i in cols[pj] if i != pi}
        src_orders, tgt_orders = self.orders[n], self.orders[n - 1]
        for j, gv in gamma.items():
            cj, c, src_o = cols[j], pinv * gv, src_orders[j]
            for i, bv in beta.items():
                key = (i, j)
                o = tgt_orders[i]
                old = dn.get(key)
                new = (old or 0) - bv * c
                if o:
                    new %= o
                if not new:
                    if old is not None:
                        ix.drop(i, j)
                    continue
                if old is None:
                    rows[i][j] = next(ix.seq)
                    cj[i] = None
                    ix.row_fill[i] += 1
                    ix.col_fill[j] += 1
                dn[key] = new
                if o == src_o and (inv := _unit_inverse(o, new)) is not None:
                    if old is not None and key not in units:
                        late.add(key)
                    units[key] = inv
                elif units.pop(key, None) is not None:
                    late.discard(key)
        ix.drop_row(pi)
        ix.drop_col(pj)
        # the cancelled generators leave the neighbouring differentials too
        if n + 1 in index:
            index[n + 1].drop_row(pj)
        if n - 1 in index:
            index[n - 1].drop_col(pi)
        self.alive[n][pj] = False
        self.alive[n - 1][pi] = False
        self.steps.append((n, pj, pi, pinv, gamma, beta))

    def sizes(self) -> tuple[int, int, int]:
        """(chain generators, core generators, largest |entry| of the core)."""
        return (
            sum(map(len, self.orders.values())),
            sum(map(sum, self.alive.values())),
            max((abs(v) for d in self.d.values() for v in d.values()), default=0),
        )

    # -- homology -------------------------------------------------------------

    def _alive_indices(self, n: int) -> list[int]:
        return [i for i, a in enumerate(self.alive.get(n, [])) if a]

    def _reduced_group(self, n: int) -> FgAbelian:
        return FgAbelian(tuple(self.orders[n][i] for i in self._alive_indices(n)))

    def _reduced_diff(self, n: int) -> AbHom | None:
        """The core's boundary C_n -> C_{n-1} as a dense map, built once: it
        is d_out of H_n and d_in of H_{n+1}."""
        if n not in self.d:
            return None
        if n not in self._dense:
            src = self._alive_indices(n)
            tgt = self._alive_indices(n - 1)
            src_pos = {idx: k for k, idx in enumerate(src)}
            tgt_pos = {idx: k for k, idx in enumerate(tgt)}
            m = [[0] * len(src) for _ in range(len(tgt))]
            for (i, j), v in self.d[n].items():
                m[tgt_pos[i]][src_pos[j]] = v
            self._dense[n] = AbHom(
                self._reduced_group(n), self._reduced_group(n - 1), mat(m))
        return self._dense[n]

    def homology(self, n: int) -> HomologyClassData:
        """H_n, with lift and project in the full degree-n chain coordinates.

        A degree whose generators were all eliminated has H_n = 0: every
        chain lifts from and projects to the empty core, so no differential
        is built and no Smith form runs."""
        if not any(self.alive.get(n, ())):
            return replace(_EMPTY_CORE, orders=self.orders.get(n, ()), degree=n)
        d_in, d_out = self._reduced_diff(n + 1), self._reduced_diff(n)
        if d_in is None and d_out is None:
            d_out = AbHom.zero(self._reduced_group(n), FgAbelian(()))
        return replace(
            homology_at(d_in, d_out),
            orders=self.orders.get(n, ()),
            alive=tuple(self._alive_indices(n)),
            # only eliminations in degrees n and n + 1 touch degree-n chains
            steps=tuple(st for st in self.steps if st[0] in (n, n + 1)),
            degree=n,
        )


# the homology of a degree with no generators, on an empty core with no steps
_EMPTY_CORE = homology_at(None, AbHom.zero(FgAbelian(()), FgAbelian(())))


class _DegreeIndex:
    """Indices of the entries d of one degree while ReducedComplex reduces
    it, kept in step with d:

    * rows {i: {j: seq}} and cols {j: {i: None}}, each in entry order, seq
      being the entry's place in the entry order of d;
    * row_fill and col_fill: each row's and column's entry count minus one,
      the factors of a unit's Markowitz cost;
    * units {(i, j): pinv}: the entries that may be pivots (equal orders,
      invertible value), in entry order except for
    * late: the units that were entries before a fill-in made them units,
      and so joined ``units`` out of entry order.
    """

    __slots__ = ("d", "seq", "rows", "cols", "row_fill", "col_fill", "units", "late")

    def __init__(self, d: Entries, src_orders, tgt_orders, seq):
        self.d, self.seq = d, seq
        self.rows: dict[int, dict[int, int]] = {}
        self.cols: dict[int, dict[int, None]] = {}
        self.units: Entries = {}
        self.late: set[tuple[int, int]] = set()
        for k, ((i, j), v) in zip(seq, d.items()):
            self.rows.setdefault(i, {})[j] = k
            self.cols.setdefault(j, {})[i] = None
            o = src_orders[j]
            if o == tgt_orders[i] and (pinv := _unit_inverse(o, v)) is not None:
                self.units[(i, j)] = pinv
        self.row_fill = [len(self.rows.get(i, ())) - 1 for i in range(len(tgt_orders))]
        self.col_fill = [len(self.cols.get(j, ())) - 1 for j in range(len(src_orders))]

    def least_fill_pivot(self) -> tuple[int, int, int] | None:
        """The unit of least Markowitz cost (row entries - 1) * (column
        entries - 1), which bounds the fill-in its cancellation makes; among
        equal costs, the first in entry order.

        The scan of ``units`` keeps the first unit of the least cost it has
        seen, and stops at a unit of cost 0.  Every unit after the one kept
        is either late or a new entry, which comes later in entry order, so
        only the late units are then compared by (cost, entry order)."""
        row_fill, col_fill, rows = self.row_fill, self.col_fill, self.rows
        best = None
        for (i, j), pinv in self.units.items():
            cost = row_fill[i] * col_fill[j]
            if best is None or cost < best[0]:
                best = (cost, rows[i][j], i, j, pinv)
                if not cost:
                    break
        for i, j in self.late:  # late units are units: best is set
            cost = row_fill[i] * col_fill[j]
            if (cost, rows[i][j]) < best[:2]:
                best = (cost, rows[i][j], i, j, self.units[(i, j)])
        return None if best is None else best[2:]

    def drop(self, i: int, j: int) -> None:
        """Remove entry (i, j) from d and from every index."""
        del self.d[(i, j)], self.rows[i][j], self.cols[j][i]
        self.row_fill[i] -= 1
        self.col_fill[j] -= 1
        if self.units.pop((i, j), None) is not None:
            self.late.discard((i, j))

    def drop_row(self, i: int) -> None:
        for j in list(self.rows.get(i, ())):
            self.drop(i, j)

    def drop_col(self, j: int) -> None:
        for i in list(self.cols.get(j, ())):
            self.drop(i, j)


def _unit_inverse(order: int, v: int) -> int | None:
    """The inverse of v as a unit of Z/order (order 0: of Z), or None."""
    if order == 0:
        return v if v in (1, -1) else None
    if gcd(v % order, order) == 1:
        return pow(v % order, -1, order)
    return None


def _project_steps(steps, n: int, orders, vec) -> list[int]:
    """Apply elimination steps to a degree-n chain vector."""
    v = list(vec)
    for d, s, t, pinv, gamma, beta in steps:
        if d == n:
            v[s] = 0
        elif d - 1 == n:
            if v[t]:
                for i2, bv in beta.items():
                    v[i2] -= bv * pinv * v[t]
                    if orders[i2]:
                        v[i2] %= orders[i2]
            v[t] = 0
    return v


def _lift_steps(steps, n: int, orders, vec) -> list[int]:
    """Undo elimination steps on a reduced degree-n chain vector."""
    v = list(vec)
    for d, s, t, pinv, gamma, beta in reversed(steps):
        if d == n:
            acc = 0
            for j2, gv in gamma.items():
                if v[j2]:
                    acc += gv * v[j2]
            val = -pinv * acc
            if orders[s]:
                val %= orders[s]
            v[s] = val
        elif d - 1 == n:
            v[t] = 0
    return v


def induced_on_homology(
    f: Entries, src: HomologyClassData, tgt: HomologyClassData
) -> AbHom:
    """Map induced on homology by a chain-level map in one degree.

    ``f`` is the sparse matrix of a map from the source chain group to the
    target chain group.  Each source generator's lift is sent through ``f``
    and projected into the target, including when the target homology is 0,
    and the projection raises ValueError("vector is not a cycle") when an
    image is not a cycle (as far as the target's core sees: its elimination
    steps are applied first).  Chain-map-ness across degrees is the
    caller's to ensure.  A source with no generators gives the zero map and
    checks nothing, which is why ``MackeyHomology`` builds no chain map for
    it.
    """
    orders = tgt.orders
    by_col: dict[int, list[tuple[int, int]]] = {}
    for (i, j), x in f.items():
        by_col.setdefault(j, []).append((i, x))
    cols = []
    for v in src.generator_lifts:
        w = [0] * len(orders)
        for j, y in v:
            for i, x in by_col.get(j, ()):
                w[i] += x * y
        cols.append(tgt.project([x % o if o else x for x, o in zip(w, orders)]))
    m = transpose(mat(cols)) if cols else zeros(tgt.group.ngens, 0)
    return AbHom(src.group, tgt.group, m)
