"""The integer-coded smash, reduction and level-e kernels of ``repcw``
against verbatim copies of the string-based ones they replaced.

The copies below work on OrbitSums of element names throughout; the kernel
must return the same complexes, entry for entry and in the same dict order,
because the engine, recognition and fixtures downstream read them in that
order.
"""

import inspect
from functools import lru_cache

import pytest

from mackey import repcw
from mackey.grouplat import Group, Subgroup, group, subgroup_image_under_iso, subgroup_iso
from mackey.repcw import (
    BoundaryError,
    BurnsideComplex,
    GroupMismatch,
    OrbitSum,
    cone_of_unit_sphere,
    parse_rep,
    unit_sphere_complex,
)

# ---------------------------------------------------------------------------
# reference copies


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


def double_coset_reps(g: Group, h: Subgroup, k: Subgroup) -> list[str]:
    """The minimal element of each double coset HgK, in element order."""
    remaining = set(g.elements)
    out = []
    while remaining:
        x = min(remaining, key=g.elem_sort_key)
        remaining -= {g.mul(g.mul(a, x), b) for a in h.elements for b in k.elements}
        out.append(x)
    return out


@lru_cache(maxsize=None)
def product_reps(group_name: str, k1: str, k2: str) -> tuple[tuple[str, str], ...]:
    """Orbit data for G/K1 x G/K2: (rep, stabilizer name) per double coset."""
    g = group(group_name)
    s1, s2 = g.subgroup(k1), g.subgroup(k2)
    stab = g.intersect(s1, s2)
    return tuple((rep, stab.name) for rep in double_coset_reps(g, s1, s2))


def _h_orbit_rep(g: Group, h: Subgroup, k: Subgroup, x: str) -> str:
    orbit = {g.mul(g.mul(u, x), v) for u in h.elements for v in k.elements}
    return next(rep for rep in double_coset_reps(g, h, k) if rep in orbit)


@lru_cache(maxsize=None)
def locate_in_product(
    group_name: str, k1: str, k2: str, p1: str, p2: str
) -> tuple[str, str]:
    """Find (rep, u) with u.(eK1, rep.K2) = (p1.K1, p2.K2), u the first
    such element in element order."""
    g = group(group_name)
    s1, s2 = g.subgroup(k1), g.subgroup(k2)
    for u in g.elements:
        if g.coset(u, s1) != g.coset(p1, s1):
            continue
        for rep, _ in product_reps(group_name, k1, k2):
            if g.coset(g.mul(u, rep), s2) == g.coset(p2, s2):
                return rep, u
    raise RuntimeError("point not found in any orbit")


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
            for rep in double_coset_reps(g, h, ksub):
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


# ---------------------------------------------------------------------------
# the kernel against the copies


def _ordered(x):
    """Nested dicts as lists of items, so that comparing also compares order."""
    return [(k, _ordered(v)) for k, v in x.items()] if isinstance(x, dict) else x


def _assert_same(new: BurnsideComplex, ref: BurnsideComplex) -> None:
    assert new.group_name == ref.group_name
    assert _ordered(new.cells) == _ordered(ref.cells)
    assert _ordered(new.diff) == _ordered(ref.diff)
    assert _ordered(repcw.expand_level_e(new)[0]) == _ordered(expand_level_e(ref)[0])
    assert _ordered(repcw.expand_level_e(new)[1]) == _ordered(expand_level_e(ref)[1])


def _fold_both_ways(new, ref, factors):
    """Smash each (kernel, copy) factor onto new and ref and reduce,
    comparing the kernel with the copies after every smash and reduction."""
    for a, b in factors:
        s_new, s_ref = repcw.smash(new, a), smash(ref, b)
        _assert_same(s_new, s_ref)
        new, ref = repcw.reduce_complex(s_new), reduce_complex(s_ref)
        _assert_same(new, ref)
    return new, ref


def _sphere_both_ways(group_name: str, text: str) -> BurnsideComplex:
    """S^V folded one factor at a time, as sphere_complex built it before
    its closed-form blocks, once with the kernel and once with the copies,
    comparing every smash and every reduction: the reduced unit-sphere
    cones, largest first, smashed onto the product so far.  The blocks give
    the same complex.

    The fold spliced S^kW for the largest factor W when W is periodic and
    k > 1.  Its k - 1 folds are still made and compared here, then both
    sides go on from the spliced S^kW, as the fold did."""
    rep = parse_rep(group_name, text)
    mults = rep.mult_dict()
    factors = []
    for irr in repcw.IRREDUCIBLES[rep.group_name]:
        if mults.get(irr, 0):
            cone = cone_of_unit_sphere(unit_sphere_complex(rep.group_name, irr))
            a, b = repcw.reduce_complex(cone), reduce_complex(cone)
            _assert_same(a, b)
            factors.extend([(irr, a, b)] * mults[irr])
    factors.sort(key=lambda f: f[1].ncells(), reverse=True)
    irr = factors[0][0]
    k = mults[irr] if (rep.group_name, irr) in repcw.PERIODIC else 1
    (_, new, ref), *rest = factors
    rest = [(a, b) for _, a, b in rest]
    new, ref = _fold_both_ways(new, ref, rest[:k - 1])
    if k > 1:
        spliced = repcw.sphere_complex(f"{k}{irr}", group_name)
        assert _ordered(spliced.cells) == _ordered(new.cells)
        new = ref = spliced
    new, _ = _fold_both_ways(new, ref, rest[k - 1:])
    return repcw.suspend(new, mults.get("1", 0) + rep.shift)


@pytest.mark.parametrize(
    "group_name, text",
    [("Q8", "rhoQ"), ("Q8", "2rhoQ"), ("Q8", "rhoK+rhoQ"), ("K4", "2rhoK"),
     ("C4", "rho+lambda")],
)
def test_kernel_matches_the_string_based_copies(group_name, text):
    built = _sphere_both_ways(group_name, text)
    cached = repcw.sphere_complex(text, group_name)
    assert _ordered(built.cells) == _ordered(cached.cells)
    assert _ordered(built.diff) == _ordered(cached.diff)


def test_kernel_matches_the_copies_on_a_restricted_complex():
    # spheres at every subgroup, and an unreduced cone, whose cells of equal
    # stabilizer the reduction has not cancelled
    for c in (repcw.sphere_complex("rhoQ", "Q8"), repcw.sphere_complex("rhoK+rhoQ", "Q8"),
              cone_of_unit_sphere(unit_sphere_complex("Q8", "H"))):
        for s in c.group().subgroups():
            new, ref = repcw.restrict_complex(c, s.name), restrict_complex(c, s.name)
            _assert_same(new, ref)
            _assert_same(repcw.reduce_complex(new), reduce_complex(ref))


def test_smash_orders_an_entry_that_cancels_and_returns_like_the_copy():
    # Over Q8, -i, 1 and -1 all send the base point of G/e x G/L into the
    # diagonal orbit of G/L x G/L with the same translation, and j into the
    # other orbit: the diagonal entry is made, cancels, and is made again
    # after the other one, so it comes last.
    c = BurnsideComplex(
        "Q8", {0: ("L",), 1: ("e",)},
        {1: {(0, 0): ((-1, "i"), (1, "1"), (1, "j"), (2, "-1"))}},
    )
    d = unit_sphere_complex("Q8", "sigmaL")
    new, ref = repcw.smash(c, d), smash(c, d)
    _assert_same(new, ref)
    assert list(new.diff[1])[:2] == [(1, 0), (0, 0)]


# ---------------------------------------------------------------------------
# check_boundary rejects broken complexes


def _smashed_q8() -> BurnsideComplex:
    h = repcw.reduce_complex(cone_of_unit_sphere(unit_sphere_complex("Q8", "H")))
    s = repcw.reduce_complex(cone_of_unit_sphere(unit_sphere_complex("Q8", "sigmaL")))
    return repcw.smash(h, s)


def _broken(c: BurnsideComplex, edit) -> BurnsideComplex:
    """c with edit applied to its first entry of two or more terms."""
    n, key = next(
        (n, key) for n in sorted(c.diff) for key in sorted(c.diff[n])
        if len(c.diff[n][key]) > 1
    )
    diff = {m: dict(d) for m, d in c.diff.items()}
    diff[n][key] = edit(diff[n][key])
    return BurnsideComplex(c.group_name, dict(c.cells), diff)


def _flip_first_sign(entry: OrbitSum) -> OrbitSum:
    (x, u), *rest = entry
    return tuple(sorted([(-x, u), *rest]))


def _delete_first_term(entry: OrbitSum) -> OrbitSum:
    return entry[1:]


@pytest.mark.parametrize("edit", [_flip_first_sign, _delete_first_term])
@pytest.mark.parametrize("check", [repcw.check_boundary, check_boundary],
                         ids=["kernel", "reference"])
def test_check_boundary_rejects_a_broken_complex(edit, check):
    c = _smashed_q8()
    check(c)
    with pytest.raises(BoundaryError):
        check(_broken(c, edit))


@pytest.mark.parametrize("edit", [_flip_first_sign, _delete_first_term])
def test_a_fold_step_rejects_each_planted_error(edit):
    # a complex with d.d != 0 smashed with a sign block and reduced, as
    # sphere_complex smashes its blocks: smash's own check rejects it, where
    # the reduced product alone would pass check_boundary
    broken = _broken(_smashed_q8(), edit)
    for k in (1, 2):
        with pytest.raises(BoundaryError):
            repcw.reduce_complex(repcw.smash(broken, repcw.sign_sphere("Q8", "sigmaL", k)))


def test_a_block_step_rejects_a_planted_koszul_sign_error(monkeypatch):
    # the boundary on the right factor without the sign of the left degree:
    # d.d picks up 2 (da x db) wherever both factors have a boundary
    h, sign = repcw.sphere_complex("2H", "Q8"), repcw.sign_sphere("Q8", "sigmaL", 2)
    repcw.smash(h, sign)
    source = inspect.getsource(repcw._product)
    planted = source.replace("sign = -1 if p % 2 else 1", "sign = 1")
    assert planted != source
    namespace: dict = {}
    exec(planted, vars(repcw), namespace)
    monkeypatch.setattr(repcw, "_product", namespace["_product"])
    with pytest.raises(BoundaryError):
        repcw.smash(h, sign)


def _smashed_k4() -> BurnsideComplex:
    return repcw.smash(repcw.sphere_complex("sigmaL+sigmaD", "K4"),
                       repcw.sphere_complex("sigmaR+sigmaL", "K4"))


def _single_term_edits(c: BurnsideComplex):
    """Every complex that differs from c in one term of one entry: that
    term's sign flipped, or that term deleted."""
    for n in sorted(c.diff):
        for key, entry in c.diff[n].items():
            for k, (x, u) in enumerate(entry):
                rest = entry[:k] + entry[k + 1:]
                for edited in (tuple(sorted([(-x, u), *rest])), rest):
                    diff = {m: dict(d) for m, d in c.diff.items()}
                    if edited:
                        diff[n][key] = edited
                    else:
                        del diff[n][key]
                    yield BurnsideComplex(c.group_name, dict(c.cells), diff)


def _passes(check, c: BurnsideComplex) -> bool:
    try:
        check(c)
    except BoundaryError:
        return False
    return True


@pytest.mark.parametrize("make", [_smashed_q8, _smashed_k4], ids=["Q8", "K4"])
def test_check_boundary_per_orbit_agrees_with_the_per_point_copy(make):
    c = make()
    assert _passes(repcw.check_boundary, c) and _passes(check_boundary, c)
    verdicts = [
        (_passes(repcw.check_boundary, e), _passes(check_boundary, e))
        for e in _single_term_edits(c)
    ]
    assert len(verdicts) == 2 * sum(len(e) for d in c.diff.values() for e in d.values())
    assert all(kernel == reference for kernel, reference in verdicts)
    assert not any(kernel for kernel, _ in verdicts)


def test_check_boundary_rejects_an_entry_into_a_smaller_stabilizer():
    # G/L -> G/e is no orbit map; with one boundary there is no d.d to
    # catch it, so only the stabilizer test can
    c = BurnsideComplex("Q8", {0: ("e",), 1: ("L",)}, {1: {(0, 0): ((1, "1"),)}})
    with pytest.raises(BoundaryError):
        repcw.check_boundary(c)
