"""Tests for the exact linear algebra layer.

The Smith normal form is checked against an independent oracle: the product
d_1 * ... * d_k of the first k diagonal entries equals the gcd of all k x k
minors of the input.  That characterization involves no row reduction at
all, so it cannot share a bug with the implementation under test.
"""

import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mackey.exactalg import (
    AbHom,
    ChainComplexAb,
    FgAbelian,
    NotAComplex,
    NotChainMap,
    ReducedComplex,
    check_chain_map,
    det,
    homology_at,
    identity,
    induced_on_homology,
    invert_unimodular,
    mat,
    mat_mul,
    snf,
    snf_diagonal,
    solve_exact,
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
    cx = ChainComplexAb({0: z, 1: z}, {1: AbHom.identity(z)})
    cx.check()
    assert cx.homology(0).group.is_trivial
    assert cx.homology(1).group.is_trivial


def test_free_sphere_complex_euler_characteristic():
    # S^3 via the free quaternion cell structure sizes 8,24,32,16: chi = 0
    groups = {0: Zn(1), 1: Zn(1)}
    cx = ChainComplexAb(groups, {1: AbHom.zero(Zn(1), Zn(1))})
    ranks = [cx.homology(n).group.rank for n in (0, 1)]
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
    src = ChainComplexAb({0: z, 1: z}, {1: AbHom.scalar(z, 2)})
    tgt = ChainComplexAb({0: z, 1: z}, {1: AbHom.scalar(z, 3)})
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
    oracle = ChainComplexAb(
        groups,
        {n: AbHom(groups[n], groups[n - 1], mat(d)) for n, d in dense.items()},
    )
    oracle.check()
    rc = ReducedComplex(orders, {
        n: {(i, j): x for i, row in enumerate(d) for j, x in enumerate(row) if x}
        for n, d in dense.items()
    })
    for n in range(-1, TOP + 2):
        h = rc.homology(n)
        assert h.group == oracle.homology(n).group == expected.get(n, FgAbelian(()))
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
