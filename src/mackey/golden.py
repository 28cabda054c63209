"""Loading of the golden fixture files.

Fixtures are plain text, one case block per table row or chart, so they
can be audited by eye.  The directory can be overridden through the
MACKEY_GOLDEN_DIR environment variable.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path


def golden_dir() -> Path:
    override = os.environ.get("MACKEY_GOLDEN_DIR")
    if override:
        return Path(override)
    return Path(__file__).parent / "golden"


def _case_blocks(filename: str) -> dict[str, list[str]]:
    path = golden_dir() / filename
    blocks: dict[str, list[str]] = {}
    current: str | None = None
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("case "):
            current = line[5:].strip()
            blocks[current] = []
        elif line == "end":
            current = None
        elif current is not None:
            blocks[current].append(line)
        else:
            raise ValueError(f"{filename}: stray line {line!r}")
    return blocks


@lru_cache(maxsize=None)
def degree_table(filename: str) -> dict[str, dict[int, str]]:
    """Tables whose case lines are "<degree> <name-expression>"."""
    out: dict[str, dict[int, str]] = {}
    for key, lines in _case_blocks(filename).items():
        row: dict[int, str] = {}
        for line in lines:
            deg, name = line.split(None, 1)
            row[int(deg)] = name.strip()
        out[key] = row
    return out


@lru_cache(maxsize=None)
def slice_table(filename: str) -> dict[int, list[tuple[int, int, str, str]]]:
    """Slice lists: case "n=<k>" with lines "t shift rep coeff"."""
    out: dict[int, list[tuple[int, int, str, str]]] = {}
    for key, lines in _case_blocks(filename).items():
        n = int(key.split("=")[1])
        rows = []
        for line in lines:
            t, shift, rep, coeff = line.split()
            rows.append((int(t), int(shift), "" if rep == "-" else rep, coeff))
        out[n] = rows
    return out


@lru_cache(maxsize=None)
def chart_table(filename: str, group_name: str):
    """Chart fixtures of one group, as chart.ChartPage records by n."""
    from .chart import ChartPage, Differential

    out: dict[int, ChartPage] = {}
    for key, lines in _case_blocks(filename).items():
        n = int(key.split("=")[1])
        entries: dict[tuple[int, int], list[str]] = {}
        flags: dict[tuple[int, int, int], set[str]] = {}
        diffs: list[Differential] = []
        for line in lines:
            parts = line.split()
            if parts[0] == "entry":
                x, y = int(parts[1]), int(parts[2])
                name = parts[3]
                cell = entries.setdefault((x, y), [])
                idx = len(cell) + 1  # indices are 1-based, as in diff lines
                cell.append(name)
                for flag in parts[4:]:
                    flags.setdefault((x, y, idx), set()).add(flag)
            elif parts[0] == "diff":
                r = int(parts[1])
                src = _coord(parts[2])
                tgt = _coord(parts[3])
                rs = rt = None
                for extra in parts[4:]:
                    if extra.startswith("src="):
                        rs = extra[4:]
                    elif extra.startswith("tgt="):
                        rt = extra[4:]
                diffs.append(Differential(r, src, tgt, rs, rt))
            else:
                raise ValueError(f"bad chart line {line!r}")
        out[n] = ChartPage(group_name, n, entries, diffs, flags)
    return out


def _coord(text: str) -> tuple[int, int, int]:
    parts = [int(x) for x in text.split(",")]
    if len(parts) == 2:
        return (parts[0], parts[1], 1)
    return tuple(parts)  # type: ignore[return-value]
