"""Differential-pattern validation and rendering."""

import shutil

import pytest

from mackey import golden as golden_mod
from mackey.chart import (
    ChartPage,
    Differential,
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


def test_a_malformed_chart_fixture_raises(tmp_path, monkeypatch):
    # the r field of the first diff line (n = 5) no longer parses: the page
    # must not come out with no differentials
    dst = tmp_path / "golden"
    shutil.copytree(golden_mod.golden_dir(), dst)
    target = dst / "charts_q8.txt"
    text = target.read_text()
    assert "\ndiff 4 2,3 1,7\n" in text
    target.write_text(text.replace("\ndiff 4 2,3 1,7\n", "\ndiff four 2,3 1,7\n", 1))
    monkeypatch.setenv("MACKEY_GOLDEN_DIR", str(dst))
    golden_mod.chart_table.cache_clear()
    try:
        with pytest.raises(ValueError):
            golden_differentials("Q8", 5)
        with pytest.raises(ValueError):
            e2_page("Q8", 5)
    finally:
        monkeypatch.delenv("MACKEY_GOLDEN_DIR")
        golden_mod.chart_table.cache_clear()
