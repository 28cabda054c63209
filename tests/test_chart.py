"""Differential-pattern validation and rendering, and the fixture loader."""

import pytest

from mackey import golden as golden_mod
from mackey.chart import (
    ChartPage,
    Differential,
    NoPage,
    golden_differentials,
    golden_page,
    render_ascii,
    render_svg,
    validate_differentials,
)
from mackey.slices import e2_page


def test_golden_patterns_validate():
    for n in range(0, 13):
        report = validate_differentials(golden_page("Q8", n))
        assert report.ok, (n, report.violations)


@pytest.mark.parametrize("n", [-1, 14, 99])
def test_a_page_that_is_not_recorded_raises_naming_the_recorded_ones(n):
    with pytest.raises(NoPage, match=rf"n={n} .*the recorded pages are n = 0\.\.13$"):
        golden_page("Q8", n)


def test_n13_flags_the_printed_gap():
    # the printed page for n = 13 omits one class required by the slice
    # homotopy (and the differential that would kill it); the validator
    # surfaces exactly that orphan
    report = validate_differentials(golden_page("Q8", 13))
    assert [v for v in report.violations] == ["class g^2 at (4, 20, 1) survives"]


def test_deleting_any_differential_breaks_accounting():
    for n in (5, 6, 7, 8):
        page = golden_page("Q8", n)
        for k in range(len(page.differentials)):
            broken = ChartPage(
                page.group_name, page.n, dict(page.entries),
                page.differentials[:k] + page.differentials[k + 1:],
                dict(page.flags),
            )
            assert not validate_differentials(broken).ok, (n, k)


def test_bidegree_rule_enforced():
    page = golden_page("Q8", 5)
    bad = ChartPage(
        page.group_name, page.n, dict(page.entries),
        [Differential(4, (2, 3, 1), (2, 6, 1))] + page.differentials[1:],
        dict(page.flags),
    )
    report = validate_differentials(bad)
    assert any("bidegree" in v for v in report.violations)


def test_order_mismatch_detected():
    # replace a full cancellation g -> g by a wrong annotation
    page = golden_page("Q8", 5)
    diffs = [
        Differential(4, (2, 3, 1), (1, 7, 1), None, "mg"),
        page.differentials[1],
    ]
    bad = ChartPage(
        page.group_name, page.n, dict(page.entries), diffs, dict(page.flags)
    )
    report = validate_differentials(bad)
    assert not report.ok


def test_unknown_entries_are_exempt():
    page = ChartPage(
        "Q8", 1,
        {(1, 0): ["Z"], (0, 5): ["UNKNOWN"]},
        [],
        {},
    )
    assert validate_differentials(page).ok


def test_render_ascii_deterministic():
    page = golden_page("Q8", 6)
    a = render_ascii(page)
    b = render_ascii(page)
    assert a == b
    assert "legend" in a
    assert "d5" in a or "d7" in a


def test_render_ascii_empty():
    page = ChartPage("Q8", 0, {}, [], {})
    out = render_ascii(page)
    assert "empty" in out


def test_render_svg_deterministic_and_wellformed():
    import xml.dom.minidom

    page = golden_page("Q8", 8)
    svg1 = render_svg(page)
    svg2 = render_svg(page)
    assert svg1 == svg2
    xml.dom.minidom.parseString(svg1)
    assert svg1.startswith("<?xml")
    assert "<svg" in svg1 and "polygon" in svg1


def test_differentials_are_empty_only_where_no_chart_is_recorded():
    assert len(golden_differentials("Q8", 5)) == 2
    assert golden_differentials("K4", 5) == []
    assert golden_differentials("Q8", 99) == []


def test_a_malformed_chart_fixture_raises(edit_golden):
    # the r field of the first diff line (n = 5) no longer parses: the page
    # must not come out with no differentials
    edit_golden("charts_q8.txt", "\ndiff 4 2,3 1,7\n", "\ndiff four 2,3 1,7\n")
    with pytest.raises(ValueError):
        golden_differentials("Q8", 5)
    with pytest.raises(ValueError):
        e2_page("Q8", 5)


@pytest.mark.parametrize("coord", ["1,7,2,9", "1,7,0", "1,7,-1", "1"])
def test_a_diff_coordinate_is_a_cell_or_one_of_its_classes(edit_golden, coord):
    # x,y or x,y,i with i >= 1; anything else would fail later, in rendering
    edit_golden("charts_q8.txt", "\ndiff 4 2,3 1,7\n", f"\ndiff 4 2,3 {coord}\n")
    with pytest.raises(ValueError, match=rf"^bad chart line 'diff 4 2,3 {coord}': "
                                         rf"expected x,y or x,y,i with i >= 1"):
        golden_differentials("Q8", 5)


def test_a_repeated_case_raises(edit_golden):
    edit_golden("sphere_h.txt", "case S^H homology", "case S(H) homology")
    with pytest.raises(ValueError,
                       match=r"^sphere_h.txt: case 'S\(H\) homology' is repeated$"):
        golden_mod.degree_table("sphere_h.txt")
    edit_golden("slices_q8.txt", "case n=4\n", "case n=3\n")
    with pytest.raises(ValueError, match=r"^slices_q8.txt: case 'n=3' is repeated$"):
        golden_mod.slice_table("slices_q8.txt")


def test_a_repeated_degree_raises(edit_golden):
    edit_golden("sphere_h.txt", "3 Z\n1 mgw\n", "3 Z\n3 Z*\n1 mgw\n")
    with pytest.raises(
        ValueError, match=r"^sphere_h.txt: case 'S\(H\) homology' repeats degree 3$"
    ):
        golden_mod.degree_table("sphere_h.txt")
