"""Spectral-sequence pages: validation of differential patterns and
rendering as ASCII grids or SVG.

A page holds named entries at chart positions (x, y) = (degree, filtration
distance) and a list of differentials pointing one column left and r rows
up.  A differential may be annotated with the functor remaining at its
source or target after a partial cancellation; unannotated ends are fully
consumed.  The validator replays the pattern page by page:

* bidegree: every arrow moves by (-1, +r);
* accounting: once all pages run, every class is gone except the single
  surviving constant functor on the main diagonal;
* orders: along every arrow the levelwise group orders cancelled at the
  source match those cancelled at the target (checked whenever both sides
  are finite; a class can both receive and emit on one page, in which case
  the flow through it must balance).

Entries named UNKNOWN are exempt from accounting, mirroring unresolved
classes in hand-drawn charts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

from .grouplat import canonical_group_name, group


class NoPage(LookupError):
    """A chart page that is not recorded."""


@dataclass(frozen=True)
class Differential:
    r: int
    source: tuple[int, int, int]  # (x, y, index) with index starting at 1
    target: tuple[int, int, int]
    replace_source: str | None = None
    replace_target: str | None = None


@dataclass
class ChartPage:
    group_name: str
    n: int
    entries: dict[tuple[int, int], list[str]]
    differentials: list[Differential]
    flags: dict[tuple[int, int, int], set[str]] = field(default_factory=dict)


def golden_differentials(group_name: str, n: int) -> list[Differential]:
    """The recorded differentials, or [] where no chart is recorded: a
    fixture that does not parse raises."""
    from .golden import chart_table

    if canonical_group_name(group_name) != "Q8":
        return []
    page = chart_table("charts_q8.txt", "Q8").get(n)
    return list(page.differentials) if page else []


# ---------------------------------------------------------------------------
# validation


@lru_cache(maxsize=None)
def _order_vector(group_name: str, name: str):
    """Levelwise orders of a named functor; None marks an infinite level."""
    from .catalog import named

    f = named(group_name, name)
    g = group(group_name)
    return tuple(f.levels[s.name].order() for s in g.subgroups())


def _ratio(before, after):
    """Levelwise quotient of order vectors; None if not exact or infinite."""
    out = []
    for b, a in zip(before, after):
        if b is None or a is None:
            return None
        if a == 0 or b % a:
            return None
        out.append(b // a)
    return tuple(out)


@dataclass
class ValidationReport:
    violations: list[str]
    survivors: dict[tuple[int, int, int], str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "differential pattern consistent"
        return "violations:\n  " + "\n  ".join(self.violations)


def validate_differentials(page: ChartPage) -> ValidationReport:
    gname = page.group_name
    g = group(gname)
    ones = tuple(1 for _ in g.subgroups())
    violations: list[str] = []
    state: dict[tuple[int, int, int], str | None] = {}
    unknown: set[tuple[int, int, int]] = set()
    for (x, y), names in page.entries.items():
        for idx, nm in enumerate(names, start=1):
            state[(x, y, idx)] = nm
            if nm == "UNKNOWN":
                unknown.add((x, y, idx))

    # (a) bidegree rule
    for d in page.differentials:
        sx, sy, _ = d.source
        tx, ty, _ = d.target
        if tx != sx - 1 or ty - sy != d.r or d.r < 1:
            violations.append(f"bidegree violated by d{d.r} {d.source}->{d.target}")
        if d.source not in state:
            violations.append(f"differential from missing class {d.source}")
        if d.target not in state:
            violations.append(f"differential into missing class {d.target}")
    if violations:
        return ValidationReport(violations, {})

    # (b)+(c): replay pages in order of r
    pages: dict[int, list[Differential]] = {}
    for d in page.differentials:
        pages.setdefault(d.r, []).append(d)
    for r in sorted(pages):
        arrows = pages[r]
        incoming: dict[tuple, list[Differential]] = {}
        outgoing: dict[tuple, Differential] = {}
        for d in arrows:
            incoming.setdefault(d.target, []).append(d)
            if d.source in outgoing:
                violations.append(f"two d{r}s leave {d.source}")
            outgoing[d.source] = d
        consumed: dict[int, tuple] = {}
        positions = sorted(
            set(incoming) | set(outgoing), key=lambda p: -p[0]
        )
        after_state: dict[tuple, str | None] = {}
        for pos in positions:
            before_name = state.get(pos)
            if before_name is None:
                violations.append(f"d{r} touches dead class at {pos}")
                continue
            if pos in unknown:
                # unresolved in the printed chart: trust the pattern
                for d in incoming.get(pos, []):
                    consumed[id(d)] = None
                if pos in outgoing:
                    consumed[id(outgoing[pos])] = None
                    after_state[pos] = outgoing[pos].replace_source
                else:
                    after_state[pos] = (
                        incoming[pos][0].replace_target
                        if incoming.get(pos)
                        else before_name
                    )
                continue
            before = _order_vector(gname, before_name)
            ann: str | None = None
            has_ann = False
            if pos in outgoing and outgoing[pos].replace_source is not None:
                ann = outgoing[pos].replace_source
                has_ann = True
            for d in incoming.get(pos, []):
                if d.replace_target is not None:
                    if has_ann and ann != d.replace_target:
                        violations.append(f"conflicting annotations at {pos}")
                    ann = d.replace_target
                    has_ann = True
            after_name = ann if has_ann else None
            after_state[pos] = after_name
            after = (
                _order_vector(gname, after_name) if after_name else ones
            )
            if None in before:
                for d in incoming.get(pos, []):
                    consumed.setdefault(id(d), None)
                if pos in outgoing:
                    consumed[id(outgoing[pos])] = None
                continue
            flow = _ratio(before, after)
            if flow is None:
                violations.append(
                    f"replacement {after_name!r} does not sit inside "
                    f"{before_name!r} at {pos}"
                )
                continue
            for d in incoming.get(pos, []):
                c = consumed.get(id(d))
                if c is None:
                    continue
                nxt = _ratio(flow, c)
                if nxt is None:
                    violations.append(
                        f"order flow fails at {pos} receiving d{r} from "
                        f"{d.source}"
                    )
                    flow = None
                    break
                flow = nxt
            if flow is None:
                continue
            if pos in outgoing:
                consumed[id(outgoing[pos])] = flow
            elif flow != ones:
                violations.append(
                    f"orders cancelled at {pos} do not match what arrives"
                )
        for pos, nm in after_state.items():
            state[pos] = nm

    # (b): only the abutment survives
    for pos, nm in sorted(state.items()):
        if nm is None or pos in unknown:
            continue
        if pos[:2] == (page.n, 0) and nm == "Z":
            continue
        violations.append(f"class {nm} at {pos} survives")
    survivors = {p: nm for p, nm in state.items() if nm}
    return ValidationReport(violations, survivors)


# ---------------------------------------------------------------------------
# rendering


GLYPHS = {
    "Z": "□",
    "Z*": "▣",
    "F": "■",
    "mgw": "ʘ",
    "B(3,0)": "o",
    "B(2,0)": "o",
    "phi_Z(B(2,0))": "ø",
    "phi_Z(F)": "◇",
    "phi_Z(F*)": "◆",
    "phi_LDR(F)": "⬠",
    "phi_LDR(F*)": "⬟",
    "phi_LDR(f)": "p",
    "mg": "◹",
    "mg*": "◿",
    "m": "m",
    "m*": "ṁ",
    "w": "w",
    "w*": "ẇ",
    "g": "•",
    "phi(F)": "◇",
    "phi(f)": "f",
    "UNKNOWN": "?",
}


def _short(name: str) -> str:
    if name.startswith("g^"):
        return name[2:]
    if name in GLYPHS:
        return GLYPHS[name]
    return name


def render_ascii(page: ChartPage) -> str:
    """Deterministic text grid; one line per filtration row, top down."""
    if not page.entries:
        return "(empty page)\n  x: -\n  y: -\n"
    xs = [x for x, _ in page.entries]
    ys = [y for _, y in page.entries]
    x_lo, x_hi = min(0, min(xs)), max(xs)
    y_lo, y_hi = min(0, min(ys)), max(ys)
    width = 6
    lines = []
    for y in range(y_hi, y_lo - 1, -1):
        cells = []
        for x in range(x_lo, x_hi + 1):
            names = page.entries.get((x, y), [])
            marks = []
            for idx, nm in enumerate(names, start=1):
                text = _short(nm)
                if "?" in page.flags.get((x, y, idx), set()):
                    text = "?"
                marks.append(text)
            cells.append("&".join(marks).center(width))
        lines.append(f"{y:4d} |" + "".join(cells))
    lines.append("     +" + "-" * (width * (x_hi - x_lo + 1)))
    lines.append("      " + "".join(f"{x:^{width}d}" for x in range(x_lo, x_hi + 1)))
    legend = sorted({nm for names in page.entries.values() for nm in names})
    lines.append("")
    lines.append("legend: " + ", ".join(f"{_short(nm)} = {nm}" for nm in legend))
    for d in sorted(page.differentials, key=lambda d: (d.r, d.source)):
        lines.append(
            f"  d{d.r}: ({d.source[0]},{d.source[1]}) -> "
            f"({d.target[0]},{d.target[1]})"
            + (f" [source -> {d.replace_source}]" if d.replace_source else "")
            + (f" [target -> {d.replace_target}]" if d.replace_target else "")
        )
    return "\n".join(lines) + "\n"


_SVG_SHAPES = {
    "Z": ("rect", "none"),
    "Z*": ("rect", "dotted"),
    "F": ("rect", "fill"),
    "mgw": ("circle-dot", "none"),
    "B(3,0)": ("circle", "none"),
    "B(2,0)": ("circle", "none"),
    "phi_Z(B(2,0))": ("circle", "half"),
    "phi_Z(F)": ("diamond", "fill"),
    "phi_Z(F*)": ("diamond", "none"),
    "phi_LDR(F)": ("pentagon", "fill"),
    "phi_LDR(F*)": ("pentagon", "none"),
    "mg": ("trapezoid", "fill"),
    "mg*": ("trapezoid", "none"),
}


_SVG_SCALE = 28  # pixels per grid unit


def render_svg(page: ChartPage) -> str:
    """SVG 1.1 rendering; output is byte-deterministic for fixed input."""
    if page.entries:
        x_hi = max(x for x, _ in page.entries) + 1
        y_hi = max(y for _, y in page.entries) + 1
    else:
        x_hi = y_hi = 1
    w = (x_hi + 2) * _SVG_SCALE
    h = (y_hi + 2) * _SVG_SCALE

    def px(x: float) -> float:
        return round((x + 1) * _SVG_SCALE, 2)

    def py(y: float) -> float:
        return round(h - (y + 1) * _SVG_SCALE, 2)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">',
        '<g stroke="#cccccc" stroke-width="0.5">',
    ]
    for x in range(x_hi + 1):
        out.append(
            f'<line x1="{px(x)}" y1="{py(0)}" x2="{px(x)}" y2="{py(y_hi)}"/>'
        )
    for y in range(y_hi + 1):
        out.append(
            f'<line x1="{px(0)}" y1="{py(y)}" x2="{px(x_hi)}" y2="{py(y)}"/>'
        )
    out.append("</g>")
    for (x, y) in sorted(page.entries):
        names = page.entries[(x, y)]
        for idx, nm in enumerate(names, start=1):
            dx = (idx - 1) * 0.28
            cx, cy = px(x + dx), py(y)
            if "?" in page.flags.get((x, y, idx), set()):
                out.append(_svg_text(cx, cy, "?"))
                continue
            out.append(_svg_glyph(cx, cy, nm))
    for d in sorted(page.differentials, key=lambda d: (d.r, d.source)):
        sx, sy, si = d.source
        tx, ty, ti = d.target
        out.append(
            f'<line x1="{px(sx + (si - 1) * 0.28)}" y1="{py(sy)}" '
            f'x2="{px(tx + (ti - 1) * 0.28)}" y2="{py(ty)}" '
            'stroke="#333333" stroke-width="0.8"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _svg_text(cx: float, cy: float, text: str) -> str:
    return (
        f'<text x="{cx}" y="{round(cy + 3, 2)}" font-size="9" '
        f'text-anchor="middle" font-family="monospace">{text}</text>'
    )


def _svg_glyph(cx: float, cy: float, name: str) -> str:
    r = _SVG_SCALE * 0.18
    if name.startswith("g^") or name == "g":
        k = name[2:] if name.startswith("g^") else "1"
        circle = (
            f'<circle cx="{cx}" cy="{cy}" r="{round(r, 2)}" fill="none" '
            'stroke="#000000" stroke-width="0.8"/>'
        )
        if k == "1":
            return (
                f'<circle cx="{cx}" cy="{cy}" r="{round(r / 2, 2)}" '
                'fill="#000000"/>'
            )
        return circle + _svg_text(cx, cy, k)
    shape, fill = _SVG_SHAPES.get(name, ("text", "none"))
    color = "#000000" if fill == "fill" else "none"
    if shape == "rect":
        dash = ' stroke-dasharray="2,1"' if fill == "dotted" else ""
        return (
            f'<rect x="{round(cx - r, 2)}" y="{round(cy - r, 2)}" '
            f'width="{round(2 * r, 2)}" height="{round(2 * r, 2)}" '
            f'fill="{color}" stroke="#000000" stroke-width="0.8"{dash}/>'
        )
    if shape == "circle":
        extra = ""
        if fill == "half":
            extra = (
                f'<path d="M {round(cx - r, 2)} {cy} A {round(r, 2)} '
                f'{round(r, 2)} 0 0 1 {round(cx + r, 2)} {cy} Z" '
                'fill="#000000"/>'
            )
        return (
            f'<circle cx="{cx}" cy="{cy}" r="{round(r, 2)}" fill="none" '
            'stroke="#000000" stroke-width="0.8"/>' + extra
        )
    if shape == "circle-dot":
        return (
            f'<circle cx="{cx}" cy="{cy}" r="{round(r, 2)}" fill="none" '
            'stroke="#000000" stroke-width="0.8"/>'
            f'<circle cx="{cx}" cy="{cy}" r="{round(r / 3, 2)}" '
            'fill="#000000"/>'
        )
    if shape == "diamond":
        pts = (
            f"{cx},{round(cy - r, 2)} {round(cx + r, 2)},{cy} "
            f"{cx},{round(cy + r, 2)} {round(cx - r, 2)},{cy}"
        )
        return (
            f'<polygon points="{pts}" fill="{color}" stroke="#000000" '
            'stroke-width="0.8"/>'
        )
    if shape == "pentagon":
        pts = []
        import math

        for i in range(5):
            a = -math.pi / 2 + 2 * math.pi * i / 5
            pts.append(
                f"{round(cx + r * math.cos(a), 2)},"
                f"{round(cy + r * math.sin(a), 2)}"
            )
        return (
            f'<polygon points="{" ".join(pts)}" fill="{color}" '
            'stroke="#000000" stroke-width="0.8"/>'
        )
    if shape == "trapezoid":
        pts = (
            f"{round(cx - r, 2)},{round(cy + r * 0.7, 2)} "
            f"{round(cx + r, 2)},{round(cy + r * 0.7, 2)} "
            f"{round(cx + r * 0.5, 2)},{round(cy - r * 0.7, 2)} "
            f"{round(cx - r * 0.5, 2)},{round(cy - r * 0.7, 2)}"
        )
        return (
            f'<polygon points="{pts}" fill="{color}" stroke="#000000" '
            'stroke-width="0.8"/>'
        )
    return _svg_text(cx, cy, name)


def golden_page(group_name: str, n: int) -> ChartPage:
    """The recorded page, as the caller's own copy of the shared fixture."""
    from .golden import chart_table

    gname = canonical_group_name(group_name)
    if gname != "Q8":
        raise ValueError("chart fixtures are recorded for the quaternion group")
    pages = chart_table("charts_q8.txt", gname)
    if n not in pages:
        raise NoPage(f"no chart page n={n} is recorded for Q8; the recorded "
                     f"pages are n = {min(pages)}..{max(pages)}")
    page = pages[n]
    return replace(page, entries=dict(page.entries),
                   differentials=list(page.differentials), flags=dict(page.flags))
