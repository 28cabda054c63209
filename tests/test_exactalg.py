"""Tests for the exact linear algebra layer.

The Smith normal form is checked against an independent oracle: the product
d_1 * ... * d_k of the first k diagonal entries equals the gcd of all k x k
minors of the input.  That characterization involves no row reduction at
all, so it cannot share a bug with the implementation under test.
"""

import dataclasses
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackey import exactalg
from mackey.exactalg import (
    AbHom,
    FgAbelian,
    NonComposable,
    NotAComplex,
    Matrix,
    ReducedComplex,
    homology_at,
    identity,
    induced_on_homology,
    mat,
    mat_mul,
    shape,
    transpose,
    zeros,
)

# ---------------------------------------------------------------------------
# oracles: exact routines the package itself does not need


class NotChainMap(Exception):
    """A map of complexes fails to commute with the differentials."""


def det(a: Matrix) -> int:
    """Determinant by fraction-free Gaussian elimination (Bareiss)."""
    n, c = shape(a)
    if n != c:
        raise ValueError("determinant of non-square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_unimodular(u: Matrix) -> Matrix:
    """Exact inverse of a unimodular integer matrix."""
    n, c = shape(u)
    if n != c:
        raise ValueError("not square")
    aug = [list(row) + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(u)]
    # fraction-free solve via rational elimination; result is integral
    frac = [[Fraction(x) for x in row] for row in aug]
    for k in range(n):
        piv = next(i for i in range(k, n) if frac[i][k] != 0)
        frac[k], frac[piv] = frac[piv], frac[k]
        inv = 1 / frac[k][k]
        frac[k] = [x * inv for x in frac[k]]
        for i in range(n):
            if i != k and frac[i][k] != 0:
                f = frac[i][k]
                frac[i] = [x - f * y for x, y in zip(frac[i], frac[k])]
    out = []
    for row in frac:
        vals = row[n:]
        if any(x.denominator != 1 for x in vals):
            raise ValueError("matrix is not unimodular")
        out.append(tuple(int(x) for x in vals))
    return tuple(out)


def dense_homology(groups: dict[int, FgAbelian], diff: dict[int, AbHom], n: int):
    """H_n of the dense complex with boundaries diff[n]: C_n -> C_{n-1},
    one homology_at per degree (which raises NotAComplex if d.d != 0)."""
    d_in, d_out = diff.get(n + 1), diff.get(n)
    if d_in is None and d_out is None:
        d_out = AbHom.zero(groups.get(n, FgAbelian(())), FgAbelian(()))
    return homology_at(d_in, d_out)


def check_chain_map(
    f_by_degree: dict[int, AbHom],
    src: dict[int, AbHom],
    tgt: dict[int, AbHom],
) -> None:
    """f commutes with the boundaries src[n] and tgt[n] in every degree."""
    for n, f in f_by_degree.items():
        below = f_by_degree.get(n - 1)
        ds = src.get(n)
        dt = tgt.get(n)
        if ds is None and dt is None:
            continue
        lhs = dt.compose(f) if dt is not None else None
        rhs = below.compose(ds) if (below is not None and ds is not None) else None
        if lhs is None and rhs is None:
            continue
        if lhs is None or rhs is None:
            probe = lhs if lhs is not None else rhs
            if not probe.is_zero():
                raise NotChainMap(f"square at degree {n} does not commute")
        elif not lhs.equals(rhs):
            raise NotChainMap(f"square at degree {n} does not commute")



# Linear algebra the package no longer needs: each Smith form here goes
# through exactalg.snf_full, so its own copy below (of the kernel that kept
# all four transforms) is not mixed up with these.


def mat_vec(a: Matrix, v) -> tuple[int, ...]:
    r, c = shape(a)
    if len(v) != c:
        raise ValueError("shape mismatch")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    if not a:
        return b
    if not b:
        return a
    if len(a) != len(b):
        raise ValueError("row mismatch")
    return tuple(ra + rb for ra, rb in zip(a, b))


def snf(m: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Smith normal form: (s, u, v) with u*m*v = s; see snf_full."""
    s, u, v, _, _ = exactalg.snf_full(m, ("u", "v"))
    return s, u, v


def snf_diagonal(m: Matrix) -> list[int]:
    s = exactalg.snf_full(m, ())[0]
    return [s[i][i] for i in range(min(shape(s)))]


def solve_exact(a: Matrix, b) -> tuple[int, ...] | None:
    """One integer solution x of a x = b, or None if none exists."""
    return _solve(snf(a), b)


def _solve(snf_a: tuple[Matrix, Matrix, Matrix], b) -> tuple[int, ...] | None:
    """solve_exact from the Smith form (s, u, v) of a, kept for many b."""
    s, u, v = snf_a
    n_r, n_c = len(u), len(v)
    ub = mat_vec(u, tuple(b))
    y = [0] * n_c
    for i in range(n_r):
        d = s[i][i] if i < min(n_r, n_c) else 0
        if i < n_c and d:
            if ub[i] % d != 0:
                return None
            y[i] = ub[i] // d
        elif ub[i] != 0:
            return None
    return mat_vec(v, y)


def kernel_basis(a: Matrix) -> list[tuple[int, ...]]:
    """Basis of the integer kernel lattice of a."""
    n_r, n_c = shape(a)
    if n_c == 0:
        return []
    s, _, v, _, _ = exactalg.snf_full(a, ("v",))
    rank = sum(1 for i in range(min(n_r, n_c)) if s[i][i] != 0)
    cols = transpose(v)
    return [cols[j] for j in range(rank, n_c)]


def column_space_basis(gens: list[tuple[int, ...]], dim: int) -> list[tuple[int, ...]]:
    """Basis of the lattice spanned by the given vectors in Z^dim.

    With u g v = s diagonal, the nonzero columns of g v form a basis: they
    are the columns of u^-1 s, and v is unimodular.
    """
    if not gens:
        return []
    g = transpose(mat(gens))  # dim x k
    s, _, v, _, _ = exactalg.snf_full(g, ("v",))
    gv = mat_mul(g, v)
    cols = transpose(gv)
    out = []
    for i in range(min(len(g), len(g[0]) if g else 0)):
        if s[i][i]:
            out.append(cols[i])
    return out


def _relation_columns(g: FgAbelian) -> list[tuple[int, ...]]:
    cols = []
    for i, o in enumerate(g.orders):
        if o:
            cols.append(tuple(o if j == i else 0 for j in range(g.ngens)))
    return cols


# The homology of a two-step complex as it was computed with four Smith
# forms: a kernel basis, a basis of the lattice it spans with the middle
# relations, that basis's Smith form to solve for coordinates in it, and
# the relations' Smith form.  Verbatim but for the elimination steps, which
# a group from homology_at never has.


@dataclasses.dataclass(frozen=True)
class FourSmithHomology:
    group: FgAbelian
    orders: tuple[int, ...]  # chain generator orders
    _basis: Matrix  # core x r, columns span the cycle lattice
    _gen_coords: Matrix  # r x ngens, homology generators in basis coords
    _basis_snf: tuple[Matrix, Matrix, Matrix]  # Smith form (s, u, v) of _basis
    _u: Matrix  # basis coords -> Smith coords of the relations
    _sel: tuple[int, ...]  # the Smith coords that are homology generators
    alive: tuple[int, ...]

    def lift(self, coords) -> tuple[int, ...]:
        if len(coords) != self.group.ngens:
            raise ValueError("bad coordinate length")
        core = mat_vec(self._basis, mat_vec(self._gen_coords, coords))
        v = [0] * len(self.orders)
        for idx, x in zip(self.alive, core):
            v[idx] = x
        return tuple(v)

    def project(self, chain_vec) -> tuple[int, ...]:
        v = list(chain_vec)
        w = _solve(self._basis_snf, [v[idx] for idx in self.alive])
        if w is None:
            raise ValueError("vector is not a cycle")
        coords = mat_vec(self._u, w)
        return self.group.reduce_vec(tuple(coords[i] for i in self._sel))


def four_smith_homology_at(d_in: AbHom | None, d_out: AbHom | None) -> FourSmithHomology:
    """Homology ker(d_out)/im(d_in) of a two-step complex at the middle.

    Either map may be None (interpreted as the zero map from/to 0).  Raises
    NonComposable when the middle objects differ and NotAComplex when
    d_out . d_in is nonzero.
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
    rel_mid = _relation_columns(middle)
    # cycle lattice: preimage of the codomain relations under d_out
    if d_out is None or d_out.cod.ngens == 0:
        cycle_gens = [tuple(identity(n)[i]) for i in range(n)]
    else:
        rel_cod = _relation_columns(d_out.cod)
        stacked = d_out.matrix
        if rel_cod:
            stacked = hstack(stacked, transpose(mat(rel_cod)))
        cycle_gens = [k[:n] for k in kernel_basis(stacked)]
    basis_cols = column_space_basis(cycle_gens + rel_mid, n)
    r = len(basis_cols)
    basis = transpose(mat(basis_cols)) if basis_cols else zeros(n, 0)
    basis_snf = snf(basis)
    # relations: boundaries and the middle torsion expressed in the basis
    rel_vecs = list(rel_mid)
    if d_in is not None:
        for j in range(d_in.dom.ngens):
            rel_vecs.append(tuple(d_in.matrix[i][j] for i in range(n)))
    rel_in_basis = []
    for v in rel_vecs:
        w = _solve(basis_snf, v)
        if w is None:
            raise NotAComplex("boundary does not lie in the cycle lattice")
        rel_in_basis.append(w)
    relmat = transpose(mat(rel_in_basis)) if rel_in_basis else zeros(r, 0)
    s, u, _, uinv, _ = exactalg.snf_full(relmat, ("u", "uinv"))
    sr, sc = shape(s)
    orders = []
    kept = []
    for i in range(r):
        d = s[i][i] if i < min(sr, sc) else 0
        if d == 1:
            continue
        orders.append(d)
        kept.append(i)
    free = [i for i, o in zip(kept, orders) if o == 0]
    tors = [i for i, o in zip(kept, orders) if o != 0]
    sel = free + tors
    sel_orders = tuple([0] * len(free) + [orders[kept.index(i)] for i in tors])
    group = FgAbelian(sel_orders)
    gen_coords = tuple(tuple(row[i] for i in sel) for row in uinv)
    return FourSmithHomology(
        group, middle.orders, basis, gen_coords, basis_snf, u, tuple(sel),
        tuple(range(n)),
    )

def minor_gcd(m, k):
    """gcd of all k x k minors, the SNF oracle."""
    rows, cols = len(m), len(m[0]) if m else 0
    g = 0
    for ri in itertools.combinations(range(rows), k):
        for ci in itertools.combinations(range(cols), k):
            sub = mat([[m[i][j] for j in ci] for i in ri])
            g = gcd(g, det(sub))
    return abs(g)


def oracle_diagonal(m):
    """Invariant factors of m straight from the minor-gcd definition."""
    rows, cols = len(m), len(m[0]) if m else 0
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = minor_gcd(m, k)
        if g == 0:
            out.append(0)
            prev = 0
        else:
            out.append(g // prev)
            prev = g
    return out


def test_snf_identity():
    s, u, v = snf(identity(2))
    assert s == identity(2)
    assert u == identity(2)
    assert v == identity(2)


def test_snf_worked_example():
    m = mat([[2, 4], [6, 8]])
    # frozen from the minor-gcd oracle: gcd of entries 2, |det| = 8 -> (2, 4)
    assert oracle_diagonal(m) == [2, 4]
    s, u, v = snf(m)
    assert snf_diagonal(m) == [2, 4]
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(det(u)) == 1 and abs(det(v)) == 1


def test_snf_zero_matrix():
    m = mat([[0, 0], [0, 0], [0, 0]])
    assert snf_diagonal(m) == [0, 0]


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.data(),
)
def test_snf_properties(rows, cols, data):
    m = mat(
        [
            [data.draw(st.integers(-9, 9)) for _ in range(cols)]
            for _ in range(rows)
        ]
    )
    s, u, v = snf(m)
    assert mat_mul(mat_mul(u, m), v) == s
    assert abs(det(u)) == 1
    assert abs(det(v)) == 1
    diag = [s[i][i] for i in range(min(rows, cols))]
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    assert all(d >= 0 for d in diag)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert s[i][j] == 0
    assert diag == oracle_diagonal(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.data())
def test_unimodular_inverse(n, data):
    m = mat(
        [[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(n)]
    )
    _, u, _ = snf(m)
    uinv = invert_unimodular(u)
    assert mat_mul(u, uinv) == identity(n)


def test_solve_exact():
    a = mat([[2, 0], [0, 3]])
    assert solve_exact(a, (4, 9)) == (2, 3)
    assert solve_exact(a, (1, 0)) is None


def Zn(n=1):
    return FgAbelian.normal(n)


def test_fg_abelian_normal_form():
    assert FgAbelian((4, 2)) == FgAbelian((2, 4))
    assert FgAbelian((2, 3)) == FgAbelian((6,))
    assert FgAbelian((0, 2, 1)).rank == 1
    assert FgAbelian((0, 2)).invariant_factors == (2,)
    assert str(FgAbelian((0, 4))) == "Z + Z/4"
    with pytest.raises(ValueError):
        FgAbelian.normal(0, (4, 2))


def test_abhom_torsion_check():
    z2 = FgAbelian((2,))
    z4 = FgAbelian((4,))
    AbHom(z2, z4, mat([[2]]))
    with pytest.raises(ValueError):
        AbHom(z2, z4, mat([[1]]))


GROUPS = st.lists(st.sampled_from([0, 2, 3, 4, 6]), max_size=3).map(
    lambda orders: FgAbelian(tuple(orders))
)


def random_hom(data, dom, cod):
    """A valid hom: a generator of order o goes to elements killed by o."""
    cols = []
    for o in dom.orders:
        col = []
        for co in cod.orders:
            if o == 0:
                col.append(data.draw(st.integers(-9, 9)))
            elif co == 0:
                col.append(0)
            else:
                col.append(co // gcd(co, o) * data.draw(st.integers(-9, 9)))
        cols.append(col)
    rows = tuple(tuple(col[i] for col in cols) for i in range(cod.ngens))
    return AbHom(dom, cod, rows)


@settings(max_examples=150, deadline=None)
@given(GROUPS, GROUPS, GROUPS, st.data())
def test_compose_agrees_with_validating_constructor(a, b, c, data):
    first = random_hom(data, a, b)
    second = random_hom(data, b, c)
    raw = tuple(
        tuple(
            sum(second.matrix[i][k] * first.matrix[k][j] for k in range(b.ngens))
            for j in range(a.ngens)
        )
        for i in range(c.ngens)
    )
    composite = second.compose(first)
    checked = AbHom(a, c, raw)
    assert composite.dom.orders == a.orders and composite.cod.orders == c.orders
    assert composite.matrix == checked.matrix


def test_homology_circle():
    z = Zn()
    d = AbHom.zero(z, z)
    h = homology_at(d, d)
    assert h.group == Zn()


def test_homology_mod2():
    z = Zn()
    h = homology_at(AbHom.scalar(z, 2), AbHom.zero(z, z))
    assert h.group == FgAbelian((2,))
    # projection sends the generator's double to zero
    assert h.project((2,)) == (0,)
    assert h.project((1,)) == (1,)


def test_homology_rejects_noncomplex():
    z = Zn()
    with pytest.raises(NotAComplex):
        homology_at(AbHom.scalar(z, 1), AbHom.scalar(z, 1))


def test_cone_of_identity_is_exact():
    # 0 -> Z -=-> Z -> 0 has no homology anywhere
    z = Zn()
    d = AbHom.identity(z)
    assert homology_at(None, d).group.is_trivial
    assert homology_at(d, None).group.is_trivial


def test_free_sphere_complex_euler_characteristic():
    # S^3 via the free quaternion cell structure sizes 8,24,32,16: chi = 0
    groups = {0: Zn(1), 1: Zn(1)}
    d = AbHom.zero(Zn(1), Zn(1))
    ranks = [homology_at(None, d).group.rank, homology_at(d, None).group.rank]
    chi_h = ranks[0] - ranks[1]
    chi_c = groups[0].rank - groups[1].rank
    assert chi_h == chi_c


def test_induced_identity_and_doubling():
    z = Zn()
    zero = AbHom.zero(z, z)
    src = homology_at(zero, zero)
    tgt = homology_at(zero, zero)
    ind = induced_on_homology({(0, 0): 1}, src, tgt)
    assert ind.matrix == identity(1)
    ind2 = induced_on_homology({(0, 0): 2}, src, tgt)
    assert ind2.matrix == ((2,),)


def test_check_chain_map_rejects():
    z = Zn()
    src = {1: AbHom.scalar(z, 2)}
    tgt = {1: AbHom.scalar(z, 3)}
    with pytest.raises(NotChainMap):
        check_chain_map(
            {0: AbHom.identity(z), 1: AbHom.identity(z)}, src, tgt
        )


def test_homology_with_torsion_chains():
    # Z/4 --2--> Z/4: kernel {0,2}, image {0,2}: homology is trivial ...
    z4 = FgAbelian((4,))
    d = AbHom(z4, z4, mat([[2]]))
    h = homology_at(d, d)
    assert h.group.is_trivial
    # ... while Z/8 --4--> Z/8 --4--> leaves Z/2
    z8 = FgAbelian((8,))
    d8 = AbHom(z8, z8, mat([[4]]))
    assert homology_at(d8, d8).group == FgAbelian((2,))


# ---------------------------------------------------------------------------
# ReducedComplex against the full-SNF oracle, on random complexes

# Elementary complexes Z/s --x--> Z/t (order 0 = Z), keyed (s, t, x), with
# the homology they leave at the source and at the target degree.
PIECES = {
    (0, 0, 1): ((), ()),
    (0, 0, -1): ((), ()),
    (2, 2, 1): ((), ()),
    (3, 3, 2): ((), ()),
    (4, 4, 3): ((), ()),
    (0, 0, 3): ((), (3,)),
    (0, 0, 4): ((), (4,)),
    (0, 3, 1): ((0,), ()),
    (0, 4, 1): ((0,), ()),
    (2, 4, 2): ((), (2,)),
    (4, 4, 2): ((2,), (2,)),
    (4, 2, 1): ((2,), ()),
}
TOP = 3


def _random_automorphism(rng, orders):
    """(a, a_inv, new orders): a permutation after elementary operations
    e_i += c e_j that respect torsion, with the exact inverse."""
    n = len(orders)
    a = [list(r) for r in identity(n)]
    a_inv = [list(r) for r in identity(n)]
    for _ in range(3 * n):
        i, j, c = rng.randrange(n), rng.randrange(n), rng.choice((-2, -1, 1, 2))
        oi, oj = orders[i], orders[j]
        if i == j or (oj * c % oi if oi else oj * c):
            continue
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        for row in a_inv:
            row[j] -= c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    return ([a[p] for p in perm], [[row[p] for p in perm] for row in a_inv],
            tuple(orders[p] for p in perm))


def _random_complex(seed):
    """Orders, dense differentials and expected homology of a direct sum of
    elementary complexes in degrees 0..TOP, in random bases."""
    rng = random.Random(seed)
    orders = {n: [] for n in range(TOP + 1)}
    entries = {n: [] for n in range(1, TOP + 1)}
    expected = {n: [] for n in range(TOP + 1)}
    for n in range(TOP + 1):
        for _ in range(rng.randrange(3)):
            o = rng.choice((0, 2, 3, 4))
            orders[n].append(o)
            expected[n].append(o)
    for n in range(1, TOP + 1):
        for _ in range(rng.randrange(1, 5)):
            (s, t, x), (hs, ht) = rng.choice(list(PIECES.items()))
            entries[n].append((len(orders[n - 1]), len(orders[n]), x))
            orders[n].append(s)
            orders[n - 1].append(t)
            expected[n] += hs
            expected[n - 1] += ht
    autos = {n: _random_automorphism(rng, o) for n, o in orders.items()}
    diffs = {}
    for n in range(1, TOP + 1):
        d = [[0] * len(orders[n]) for _ in orders[n - 1]]
        for i, j, x in entries[n]:
            d[i][j] = x
        d = mat_mul(mat_mul(mat(autos[n - 1][0]), mat(d)), mat(autos[n][1]))
        diffs[n] = [[x % o if o else x for x in row]
                    for row, o in zip(d, autos[n - 1][2])]
    new_orders = {n: auto[2] for n, auto in autos.items()}
    return new_orders, diffs, {n: FgAbelian(tuple(h)) for n, h in expected.items()}


@pytest.mark.parametrize("seed", range(40))
def test_reduced_complex_matches_the_full_snf(seed):
    orders, dense, expected = _random_complex(seed)
    groups = {n: FgAbelian(o) for n, o in orders.items()}
    oracle = {n: AbHom(groups[n], groups[n - 1], mat(d)) for n, d in dense.items()}
    rc = ReducedComplex(orders, {
        n: {(i, j): x for i, row in enumerate(d) for j, x in enumerate(row) if x}
        for n, d in dense.items()
    })
    for n in range(-1, TOP + 2):
        h = rc.homology(n)
        assert h.group == dense_homology(groups, oracle, n).group == expected.get(
            n, FgAbelian(()))
        k = h.group.ngens
        for e in identity(k):
            chain = h.lift(e)
            assert h.project(chain) == e
            if n in dense:  # lifts are cycles
                image = [sum(x * c for x, c in zip(row, chain)) for row in dense[n]]
                assert not any(y % o if o else y for y, o in zip(image, orders[n - 1]))
        ident = {(i, i): 1 for i in range(len(orders.get(n, ())))}
        assert induced_on_homology(ident, h, h).matrix == identity(k)
        # boundaries project to 0
        for col in zip(*dense.get(n + 1, [])):
            assert h.project(col) == (0,) * k



# ---------------------------------------------------------------------------
# homology_at against the four-Smith-form oracle, on random two-step complexes


def _random_two_step(seed):
    """(d_in, d_out, cycles, non-cycles) for a random A --d_in--> B --d_out--> C.

    C has a free and a torsion generator, B mixes free and torsion ones, and
    d_in is None in every fourth case.  Two free generators of B have
    boundary e_f and e_t, f a free and t a torsion row of C, so a random
    cycle plus either is a non-cycle that only that row sees.  B then takes
    a random basis, d_in random combinations of its cycles and relations.
    """
    rng = random.Random(seed)
    c_orders = [0, rng.choice((2, 3, 4, 6))]
    c_orders += [rng.choice((0, 2, 3, 4, 6)) for _ in range(rng.randrange(3))]
    rng.shuffle(c_orders)
    free_row = c_orders.index(0)
    tors_row = next(i for i, o in enumerate(c_orders) if o)
    b_orders = [rng.choice((0, 0, 2, 3, 4, 6)) for _ in range(rng.randrange(1, 5))]
    cols = [
        [co // gcd(co, o) * rng.randint(-3, 3) if o and co
         else 0 if o else rng.randint(-3, 3) for co in c_orders]
        for o in b_orders
    ]
    for row in (free_row, tors_row):
        cols.append([int(i == row) for i in range(len(c_orders))])
        b_orders.append(0)
    a, a_inv, b_orders = _random_automorphism(rng, b_orders)
    B, C = FgAbelian(b_orders), FgAbelian(tuple(c_orders))
    d_out = AbHom(B, C, mat_mul(transpose(mat(cols)), mat(a_inv)))
    planted = [tuple(row[-2] for row in a), tuple(row[-1] for row in a)]
    # the cycle lattice: the kernel of [d_out | codomain relations] and B's
    # own relations
    rel_cod = _relation_columns(C)
    stacked = hstack(d_out.matrix, transpose(mat(rel_cod))) if rel_cod else d_out.matrix
    gens = [k[:B.ngens] for k in kernel_basis(stacked)] + _relation_columns(B)

    def combination():
        out = [0] * B.ngens
        for g in gens:
            c = rng.randint(-2, 2)
            out = [x + c * y for x, y in zip(out, g)]
        return tuple(out)

    d_in = None
    if seed % 4:
        boundaries = [combination() for _ in range(rng.randrange(4))]
        a_orders = (0,) * len(boundaries)
        if rng.random() < 0.5:  # a torsion generator that bounds nothing
            boundaries.append((0,) * B.ngens)
            a_orders += (rng.choice((2, 3, 4)),)
        cols_in = transpose(mat(boundaries)) if boundaries else zeros(B.ngens, 0)
        d_in = AbHom(FgAbelian(a_orders), B, cols_in)
    cycles = [combination() for _ in range(6)]
    non_cycles = [tuple(x + y for x, y in zip(cycles[k], p))
                  for k, p in enumerate(planted)]
    return d_in, d_out, cycles, non_cycles


@pytest.mark.parametrize("seed", range(60))
def test_homology_at_agrees_with_the_four_smith_form_oracle(seed):
    d_in, d_out, cycles, non_cycles = _random_two_step(seed)
    new, old = homology_at(d_in, d_out), four_smith_homology_at(d_in, d_out)
    group = new.group
    assert group.orders == old.group.orders
    # the two generator bases differ by an automorphism M of the group
    gens = identity(group.ngens)
    m = AbHom(group, group, transpose(mat([old.project(new.lift(e)) for e in gens]))
              if gens else ())
    m_inv = AbHom(group, group, transpose(mat([new.project(old.lift(e)) for e in gens]))
                  if gens else ())
    assert m.compose(m_inv).equals(AbHom.identity(group))
    assert m_inv.compose(m).equals(AbHom.identity(group))
    for z in cycles:
        assert old.project(z) == m(new.project(z))
    for col in transpose(d_in.matrix) if d_in is not None else ():
        assert new.project(col) == (0,) * group.ngens
    # one non-cycle fails only on a free row of C, the other only on a
    # torsion row
    for x in non_cycles:
        for h in (new, old):
            with pytest.raises(ValueError, match="vector is not a cycle"):
                h.project(x)


def test_homology_at_runs_two_smith_forms(monkeypatch):
    calls = []
    real = exactalg.snf_full

    def counted(m, want=exactalg._TRANSFORMS):
        calls.append(frozenset(want))
        return real(m, want)

    monkeypatch.setattr(exactalg, "snf_full", counted)
    z8 = FgAbelian((8,))
    d8 = AbHom(z8, z8, mat([[4]]))
    assert homology_at(d8, d8).group == FgAbelian((2,))
    assert calls == [{"v", "vinv"}, {"u", "uinv"}]
    # a map to 0 has no boundary rows: only the relations' Smith form runs
    calls.clear()
    homology_at(AbHom.scalar(Zn(), 2), AbHom.zero(Zn(), FgAbelian(())))
    assert calls == [{"u", "uinv"}]


def test_reduced_complex_builds_each_dense_boundary_once():
    orders, dense, _ = _random_complex(3)
    rc = ReducedComplex(orders, {
        n: {(i, j): x for i, row in enumerate(d) for j, x in enumerate(row) if x}
        for n, d in dense.items()
    })
    for n in range(TOP + 1):
        if any(rc.alive[n]):
            h = rc.homology(n)
            if n in dense:
                assert h._d is rc._reduced_diff(n).matrix
    assert all(rc._reduced_diff(n) is rc._reduced_diff(n) for n in dense)

# ---------------------------------------------------------------------------
# snf_full against a verbatim copy of the one that kept all four transforms
# up to date and swept unit pivots in a loop of their own; the kernel builds
# only the requested ones, in one pivot loop, with the same pivots and
# operations, so every requested transform must be the copy's.


class _Transforms:
    """Row/column transforms of an SNF run, with inverses kept in step.

    Row op U := E U entails Uinv := Uinv E^-1 (a column op), and dually for
    V, so everything stays in integers; no matrix is ever inverted after
    the fact.
    """

    def __init__(self, n_r: int, n_c: int):
        self.left = [list(r) for r in identity(n_r)]
        self.left_inv = [list(r) for r in identity(n_r)]
        self.right = [list(r) for r in identity(n_c)]
        self.right_inv = [list(r) for r in identity(n_c)]

    def swap_rows(self, a, b):
        self.left[a], self.left[b] = self.left[b], self.left[a]
        for row in self.left_inv:
            row[a], row[b] = row[b], row[a]

    def swap_cols(self, a, b):
        for row in self.right:
            row[a], row[b] = row[b], row[a]
        self.right_inv[a], self.right_inv[b] = (
            self.right_inv[b],
            self.right_inv[a],
        )

    def add_row(self, i, t, q):
        """row_i -= q row_t."""
        li, lt = self.left[i], self.left[t]
        for j in range(len(li)):
            li[j] -= q * lt[j]
        for row in self.left_inv:
            row[t] += q * row[i]

    def add_col(self, j, t, q):
        """col_j -= q col_t."""
        for row in self.right:
            row[j] -= q * row[t]
        rj, rt = self.right_inv[j], self.right_inv[t]
        for k in range(len(rt)):
            rt[k] += q * rj[k]

    def negate_row(self, i):
        self.left[i] = [-x for x in self.left[i]]
        for row in self.left_inv:
            row[i] = -row[i]


def _unit_sweep(m, tf: "_Transforms", start):
    """Eliminate with +-1 pivots first; this keeps entry growth tame."""
    n_r, n_c = len(m), len(m[0]) if m else 0
    t = start
    while t < min(n_r, n_c):
        pivot = None
        for i in range(t, n_r):
            for j in range(t, n_c):
                if m[i][j] in (1, -1):
                    pivot = (i, j)
                    break
            if pivot:
                break
        if pivot is None:
            return t
        _pivot_to(m, tf, pivot, t)
        _clear_with_pivot(m, tf, t)
        if all(m[t][j] == 0 for j in range(t + 1, n_c)) and all(
            m[i][t] == 0 for i in range(t + 1, n_r)
        ):
            t += 1
    return t


def _pivot_to(m, tf: "_Transforms", src, t):
    i, j = src
    if i != t:
        m[t], m[i] = m[i], m[t]
        tf.swap_rows(t, i)
    if j != t:
        for row in m:
            row[t], row[j] = row[j], row[t]
        tf.swap_cols(t, j)


def _clear_with_pivot(m, tf: "_Transforms", t):
    n_r, n_c = len(m), len(m[0])
    p = m[t][t]
    for i in range(n_r):
        if i != t and m[i][t] != 0:
            q = m[i][t] // p if p in (1, -1) else _nearest_quotient(m[i][t], p)
            if q:
                mi, mt = m[i], m[t]
                for j in range(n_c):
                    mi[j] -= q * mt[j]
                tf.add_row(i, t, q)
    for j in range(n_c):
        if j != t and m[t][j] != 0:
            q = m[t][j] // p if p in (1, -1) else _nearest_quotient(m[t][j], p)
            if q:
                for i in range(n_r):
                    m[i][j] -= q * m[i][t]
                tf.add_col(j, t, q)


def _nearest_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def snf_full(m: Matrix) -> tuple[Matrix, Matrix, Matrix, Matrix, Matrix]:
    """Smith normal form with transforms and their inverses.

    Returns (s, u, v, uinv, vinv) with u*m*v = s; s is diagonal with
    nonnegative entries d_1 | d_2 | ... .  Pivots are chosen of minimal
    absolute value with a deterministic (row, col) tie-break so normal
    forms are reproducible.
    """
    n_r = len(m)
    n_c = len(m[0]) if m else 0
    a = [list(row) for row in m]
    tf = _Transforms(n_r, n_c)
    if n_r and n_c:
        t = _unit_sweep(a, tf, 0)
        while t < min(n_r, n_c):
            pivot = None
            best = None
            for i in range(t, n_r):
                for j in range(t, n_c):
                    x = abs(a[i][j])
                    if x and (best is None or x < best):
                        best, pivot = x, (i, j)
            if pivot is None:
                break
            _pivot_to(a, tf, pivot, t)
            _clear_with_pivot(a, tf, t)
            if any(a[t][j] for j in range(t + 1, n_c)) or any(
                a[i][t] for i in range(t + 1, n_r)
            ):
                continue
            # force divisibility d_t | everything below
            stuck = False
            for i in range(t + 1, n_r):
                for j in range(t + 1, n_c):
                    if a[i][j] % a[t][t] != 0:
                        for jj in range(n_c):
                            a[t][jj] += a[i][jj]
                        tf.add_row(t, i, -1)
                        stuck = True
                        break
                if stuck:
                    break
            if not stuck:
                t += 1
    for i in range(min(n_r, n_c)):
        if a[i][i] < 0:
            for j in range(n_c):
                a[i][j] = -a[i][j]
            tf.negate_row(i)
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return (
        freeze(a),
        freeze(tf.left),
        freeze(tf.right),
        freeze(tf.left_inv),
        freeze(tf.right_inv),
    )


TRANSFORM_NAMES = ("u", "v", "uinv", "vinv")
SUBSETS = [
    frozenset(c) for k in range(5) for c in itertools.combinations(TRANSFORM_NAMES, k)
]


def _random_matrix(seed):
    """Entries mostly without a unit, so the minimal-pivot loop and the
    nearest-quotient steps run and the transforms grow past one digit."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    return mat(
        [[rng.choice((0, 0, 2, -2, 3, 4, -6, 9, 10, -15, 1, -1)) for _ in range(cols)]
         for _ in range(rows)]
    )


SMITH_CASES = (
    [pytest.param(_random_matrix(seed), id=f"seed{seed}") for seed in range(30)]
    + [
        # diag(2, 3) -> diag(1, 6) only through the divisibility-forcing step
        pytest.param(mat([[2, 0], [0, 3]]), id="diag(2,3)"),
        # pivots of |entry| 2, 1, 4, 2, 1, 24: the first is no unit, and
        # units appear after it, at t = 0 and again at t = 1
        pytest.param(mat([[4, 6, 0], [6, 9, 3], [0, 2, 5]]), id="unit-after-2"),
        # a matrix without rows carries no column count: 0 x n reads as ()
        pytest.param((), id="0xn"),
        pytest.param(((),) * 3, id="3x0"),
    ]
)


@pytest.mark.parametrize("m", SMITH_CASES)
def test_snf_full_builds_the_requested_transforms_of_the_copy(m):
    ref = snf_full(m)
    s, u, v, uinv, vinv = ref
    for want in SUBSETS:
        got = exactalg.snf_full(m, want)
        assert got[0] == s
        for name, g, r in zip(TRANSFORM_NAMES, got[1:], ref[1:]):
            assert g == (r if name in want else None), name
    full = exactalg.snf_full(m)
    assert full == ref
    assert mat_mul(mat_mul(u, m), v) == s
    assert mat_mul(u, uinv) == identity(len(u))
    assert mat_mul(v, vinv) == identity(len(v))


def test_snf_full_takes_the_divisibility_forcing_step():
    # no pivot of diag(2, 3) divides the rest: only that step gives 1 | 6
    assert exactalg.snf_full(mat([[2, 0], [0, 3]]), ())[0] == ((1, 0), (0, 6))


# ---------------------------------------------------------------------------
# the reducer's pivot rule


def test_reducer_takes_a_least_fill_pivot():
    # d = [[1, 1, 0], [1, 0, 2]] over Z.  The first unit in entry order,
    # (0, 0), shares its row and its column and would fill in (1, 1); the
    # unit (0, 1) is alone in its column, so cancelling it fills nothing.
    d = mat([[1, 1, 0], [1, 0, 2]])
    orders = {0: (0, 0), 1: (0, 0, 0)}
    rc = ReducedComplex(orders, {1: {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 2): 2}})
    degree, src, tgt, _, gamma, beta = rc.steps[0]
    assert (degree, src, tgt) == (1, 1, 0)
    assert gamma == {0: 1} and beta == {}
    # (1, 0) is alone in its column next, and again nothing fills in
    assert [st[:3] for st in rc.steps] == [(1, 1, 0), (1, 0, 1)]
    groups = {n: FgAbelian(o) for n, o in orders.items()}
    oracle = {1: AbHom(groups[1], groups[0], d)}
    for n in (0, 1):
        h = rc.homology(n)
        assert h.group == dense_homology(groups, oracle, n).group
        for e in identity(h.group.ngens):
            assert h.project(h.lift(e)) == e
    assert rc.homology(1).group == FgAbelian((0,))
    assert rc.homology(0).group.is_trivial


def test_reducer_breaks_ties_by_entry_order():
    # both units of the identity cost nothing: the first in entry order
    # (row-major, whatever order the entries come in) is cancelled first
    rc = ReducedComplex({0: (0, 0), 1: (0, 0)}, {1: {(1, 1): 1, (0, 0): 1}})
    assert [st[:3] for st in rc.steps] == [(1, 0, 0), (1, 1, 1)]


def test_a_unit_made_by_fill_in_keeps_its_place_in_entry_order():
    # d = [[1, 1, 2], [1, 2, 1]]: (0, 0) goes first (cost 2, first of the
    # ties); its fill-in turns (1, 1) from 2 into 1 and (1, 2) from 1 into
    # -1.  Both then cost nothing, and (1, 1) comes first in entry order
    # although it became a unit after (1, 2) did.
    orders = {0: (0, 0), 1: (0, 0, 0)}
    d = mat([[1, 1, 2], [1, 2, 1]])
    rc = ReducedComplex(orders, {1: {(i, j): x for i, row in enumerate(d)
                                     for j, x in enumerate(row)}})
    assert [st[:3] for st in rc.steps] == [(1, 0, 0), (1, 1, 1)]
    assert rc.homology(1).group == FgAbelian((0,))
    assert rc.homology(0).group.is_trivial


def _homology_without_shortcut(rc: ReducedComplex, n: int):
    """rc.homology(n) computed on the reduced differentials whether or not
    degree n has any generator left."""
    d_in, d_out = rc._reduced_diff(n + 1), rc._reduced_diff(n)
    if d_in is None and d_out is None:
        d_out = AbHom.zero(rc._reduced_group(n), FgAbelian(()))
    return dataclasses.replace(
        homology_at(d_in, d_out),
        orders=rc.orders.get(n, ()),
        alive=tuple(rc._alive_indices(n)),
        steps=tuple(st for st in rc.steps if st[0] in (n, n + 1)),
        degree=n,
    )


def _projected(h, v):
    try:
        return h.project(v)
    except ValueError:  # not a cycle
        return None


def test_an_empty_core_degree_answers_like_the_full_computation(monkeypatch):
    # Z --(1, 3)--> Z^2 --[[-3, 1], [0, 0]]--> Z + Z/4 --(0, 2)--> Z/4: both
    # generators of degree 2 cancel, one against degree 3 and one against
    # degree 1, so degrees 2 and 3 keep no core while H_1 = Z/2 and
    # H_0 = Z/2 remain
    orders = {0: (4,), 1: (0, 4), 2: (0, 0), 3: (0,)}
    rc = ReducedComplex(orders, {
        3: {(0, 0): 1, (1, 0): 3},
        2: {(0, 0): -3, (0, 1): 1},
        1: {(0, 1): 2},
    })
    assert {n for n in orders if not any(rc.alive[n])} == {2, 3}
    full = {n: _homology_without_shortcut(rc, n) for n in range(-1, 5)}
    homology = {n: rc.homology(n) for n in (0, 1)}
    # the empty degrees build no reduced differential
    monkeypatch.setattr(rc, "_reduced_diff", None)
    homology.update({n: rc.homology(n) for n in (-1, 2, 3, 4)})
    for n, h in homology.items():
        ref = full[n]
        assert h.group == ref.group
        assert h.orders == ref.orders and h.degree == n
        gens = identity(h.group.ngens) if h.group.ngens else [()]
        for e in gens:
            assert h.lift(e) == ref.lift(e)
        for v in itertools.product((-1, 0, 1, 2), repeat=len(orders.get(n, ()))):
            assert _projected(h, v) == _projected(ref, v)
    assert [homology[n].group for n in range(4)] == [
        FgAbelian((2,)), FgAbelian((2,)), FgAbelian(()), FgAbelian(())]


# ---------------------------------------------------------------------------
# zero and identity homs, built without the checks

# presentations with order-1, torsion and free generators
PRESENTATIONS = [(), (1,), (0,), (4,), (1, 1), (0, 1, 6), (3, 0, 1, 2), (2, 2, 0, 0)]


def test_identity_and_zero_equal_the_validated_constructions():
    for orders in PRESENTATIONS:
        g = FgAbelian(orders)
        ident = AbHom.identity(g)
        checked = AbHom(g, g, identity(g.ngens))
        assert ident.dom.orders == ident.cod.orders == orders
        assert ident.equals(checked)
        # one reduced identity matrix per presentation, zero on order-1 rows
        assert AbHom.identity(FgAbelian(orders)).matrix is ident.matrix
        assert all(not any(row) for row, o in zip(ident.matrix, orders) if o == 1)
        for cod_orders in PRESENTATIONS:
            c = FgAbelian(cod_orders)
            zero = AbHom.zero(g, c)
            assert zero.equals(AbHom(g, c, zeros(c.ngens, g.ngens)))
            assert zero.is_zero()


def _random_valid_hom(rng: random.Random, dom: FgAbelian, cod: FgAbelian) -> AbHom:
    """A hom through the validating constructor: a generator of order o
    goes to an element killed by o."""
    rows = [[0] * dom.ngens for _ in range(cod.ngens)]
    for j, o in enumerate(dom.orders):
        for i, co in enumerate(cod.orders):
            if o == 0:
                rows[i][j] = rng.randint(-9, 9)
            elif co:
                rows[i][j] = co // gcd(co, o) * rng.randint(-9, 9)
    return AbHom(dom, cod, mat(rows))


@pytest.mark.parametrize("seed", range(60))
def test_compose_with_an_identity_is_the_product(seed):
    rng = random.Random(seed)
    a, b = (FgAbelian(tuple(rng.choice((0, 1, 2, 3, 4, 6)) for _ in range(rng.randint(0, 4))))
            for _ in range(2))
    h = _random_valid_hom(rng, a, b)
    for left, right in ((AbHom.identity(b), h), (h, AbHom.identity(a))):
        composite = left.compose(right)
        product = exactalg._mat_mul_mod(left.matrix, right.matrix, b.orders, a.ngens)
        assert composite.dom.orders == a.orders and composite.cod.orders == b.orders
        assert composite.matrix == product
    # an identity after h hands back h itself
    assert AbHom.identity(b).compose(h) is h


def test_an_identity_factor_is_still_checked_for_composability():
    z2, z4 = FgAbelian((2,)), FgAbelian((4,))
    h = AbHom(z4, z4, ((2,),))
    with pytest.raises(NonComposable):
        AbHom.identity(z2).compose(h)
    with pytest.raises(NonComposable):
        h.compose(AbHom.identity(z2))
    # an equal group in another presentation is another object
    with pytest.raises(NonComposable):
        AbHom.identity(FgAbelian((4, 1))).compose(h)
