"""Slice lists, towers, and spectral-sequence pages against the fixtures,
and their properties."""

import pytest

from mackey.bredon import suspension_homotopy
from mackey.chart import golden_page
from mackey.functors import expression_functor
from mackey.golden import slice_table
from mackey import slices
from mackey.slices import (
    BadBookkeeping,
    SliceDescriptor,
    Unsupported,
    e2_page,
    r_tower,
    slice_list,
    slice_tower,
)


def as_tuples(slices):
    return sorted((d.t, d.shift, d.rep, d.coeff) for d in slices)


def test_q8_slice_lists_match_fixture():
    table = slice_table("slices_q8.txt")
    for n in sorted(table):
        assert as_tuples(slice_list("Q8", n)) == sorted(table[n]), n


def test_c4_slice_lists_match_fixture():
    table = slice_table("slices_c4.txt")
    for n in sorted(table):
        assert as_tuples(slice_list("C4", n)) == sorted(table[n]), n


def test_e2_pages_small_n():
    for n in (5, 6):
        page = e2_page("Q8", n)
        want = golden_page("Q8", n)
        comp = {k: sorted(v) for k, v in page.entries.items()}
        gold = {k: sorted(v) for k, v in want.entries.items()}
        assert comp == gold, n


def test_single_slice_below_five():
    for g in ("Q8", "C4"):
        for n in range(0, 5):
            (d,) = slice_list(g, n)
            assert (d.t, d.coeff) == (n, "Z")


def test_unsupported_groups():
    with pytest.raises(Unsupported):
        slice_list("K4", 5)
    with pytest.raises(ValueError):
        slice_list("Q8", -1)


@pytest.mark.parametrize("bad", [
    SliceDescriptor("Q8", 5, 0, "rhoQ", "Z"),  # a bottom slice of dimension 8
    SliceDescriptor("Q8", 5, 0, "rhoQ", "g"),  # trivial underlying level, odd t
])
def test_a_slice_that_breaks_the_bookkeeping_is_refused(monkeypatch, bad):
    # a typed error naming the slice, which python -O does not strip
    with pytest.raises(BadBookkeeping, match="t=5"):
        bad.check_bookkeeping()
    good = slices._slice_list_q8(8)
    monkeypatch.setattr(slices, "_slice_list_q8", lambda n: good + [bad])
    with pytest.raises(BadBookkeeping, match="t=5"):
        slice_list("Q8", 8)


def test_towers_cover_slice_lists():
    for n in (5, 6, 7, 8):
        tower = slice_tower("Q8", n)
        dims = sorted(d.t for d, _ in tower.layers)
        assert dims == sorted(d.t for d in slice_list("Q8", n))


def test_tower_layers_equal_slices_on_homotopy():
    """Where a tower's printed layer differs in shape from the slice list
    (standard suspension trades), the two must agree on all homotopy."""
    for n in (5, 6, 7, 8):
        by_t = {d.t: d for d in slice_list("Q8", n)}
        for layer, _stage in slice_tower("Q8", n).layers:
            other = by_t[layer.t]
            if (layer.shift, layer.rep, layer.coeff) == (
                other.shift, other.rep, other.coeff
            ):
                continue
            a = suspension_homotopy(
                "Q8", layer.suspension(), expression_functor("Q8", layer.coeff),
                range(0, layer.t + 1),
            )
            b = suspension_homotopy(
                "Q8", other.suspension(), expression_functor("Q8", other.coeff),
                range(0, other.t + 1),
            )
            for k in range(0, layer.t + 1):
                from mackey.functors import is_isomorphic

                assert is_isomorphic(a[k][0], b[k][0]), (n, layer.t, k)


def test_r_towers():
    assert [d.t for d, _ in r_tower(4, 1).layers] == [12, 10, 8]
    assert [d.t for d, _ in r_tower(5, 0).layers] == [8, 5]
    assert [d.t for d, _ in r_tower(3, 2).layers] == [16, 12, 11]
    assert [d.t for d, _ in r_tower(2, 2).layers] == [14, 12, 10]
    with pytest.raises(Unsupported):
        r_tower(6, 1)


def test_e2_trivial_page():
    page = e2_page("Q8", 0)
    assert page.entries == {(0, 0): ["Z"]}


def test_slices_above_twice_n_are_inflated():
    """Upper layers come from the quotient group: even slice dimension,
    coefficients vanishing at the bottom level, and homotopy insensitive
    to trading the quaternionic summands away."""
    from mackey.functors import is_isomorphic
    from mackey.repcw import parse_rep

    for n in range(5, 14):
        for d in slice_list("Q8", n):
            if d.t <= 2 * n:
                continue
            assert d.t % 2 == 0, d
            coeff = expression_functor("Q8", d.coeff)
            assert coeff.levels["e"].is_trivial, d
    # spot check: the quaternionic part of the suspension is invisible
    d = next(x for x in slice_list("Q8", 7) if x.t == 16)
    coeff = expression_functor("Q8", d.coeff)
    mults = parse_rep("Q8", d.rep).mult_dict()
    mults.pop("H", None)
    smaller = "+".join(
        (str(v) if nm == "1" else (nm if v == 1 else f"{v}{nm}"))
        for nm, v in sorted(mults.items())
        if v
    )
    a = suspension_homotopy("Q8", d.rep, coeff, range(0, 9))
    b = suspension_homotopy("Q8", smaller, coeff, range(0, 9))
    for k in range(0, 9):
        from mackey.functors import is_isomorphic

        assert is_isomorphic(a[k][0], b[k][0]), k


def test_q8_slices_restrict_into_the_c4_world():
    """Restricting any layer to an index-two cyclic subgroup lands in the
    named C4 library (possibly with powers of its top class)."""
    from mackey.bredon import identify
    from mackey.functors import restrict_functor

    for n in (5, 6, 7, 8):
        for d in slice_list("Q8", n):
            coeff = expression_functor("Q8", d.coeff)
            res = restrict_functor(coeff, "L")
            assert identify(res) is not None, (n, d)
