"""The helpers tests share: counts as before/after differences, for the
stats tests, a second free model of the unit sphere of H, and a writable
copy of the golden fixtures."""

import shutil

import pytest

from mackey import golden, repcw
from mackey.cli import main
from mackey.stats import COUNTS


class Stats:
    """``grew()`` is how much each COUNTS entry grew since the last
    ``mark()``, or since the test began; ``run`` runs one command with
    ``--stats`` from a fresh mark."""

    def __init__(self):
        self.mark()

    def mark(self) -> None:
        self._before = COUNTS.copy()

    def grew(self) -> dict[str, int]:
        return {name: COUNTS[name] - self._before[name] for name in COUNTS}

    def run(self, capsys, *argv) -> tuple[str, dict[str, int], dict[str, int]]:
        """The command's stdout, its stderr as {name: value}, every line
        being ``name: value`` with a name of its own and every count printed
        with its value, and grew()."""
        self.mark()
        assert main([*argv, "--stats"]) == 0
        captured = capsys.readouterr()
        pairs = [line.split(": ") for line in captured.err.splitlines()]
        assert pairs and all(len(p) == 2 for p in pairs), captured.err
        printed = {name: int(value) for name, value in pairs}
        assert len(printed) == len(pairs), "a name printed twice"
        assert {name: printed[name] for name in COUNTS} == COUNTS
        return captured.out, printed, self.grew()


@pytest.fixture
def stats() -> Stats:
    return Stats()


@pytest.fixture
def small_h_unit_sphere():
    """A smaller free model of the three-sphere S(H) than
    ``unit_sphere_complex("Q8", "H")``, for cross-checks."""
    e = "1"
    return repcw._free_q8_complex(
        [[[(1, "i"), (-1, e)], [(1, "j"), (-1, e)]]],
        [[[(1, e), (1, "i")], [(1, e), (1, "k")]],
         [[(-1, e), (-1, "j")], [(-1, e), (1, "i")]]],
        [[[(1, "i"), (-1, e)]],
         [[(1, e), (-1, "k")]]])


@pytest.fixture
def edit_golden(tmp_path, monkeypatch):
    """edit(filename, old, new) replaces the first old, which must be there,
    by new in a copy of the golden fixtures that is read instead of the
    shipped ones (through MACKEY_GOLDEN_DIR); every loader's cache is
    cleared before and after the test."""
    dst = tmp_path / "golden"
    shutil.copytree(golden.golden_dir(), dst)
    loaders = (golden.degree_table, golden.slice_table, golden.chart_table)
    monkeypatch.setenv("MACKEY_GOLDEN_DIR", str(dst))
    for loader in loaders:
        loader.cache_clear()

    def edit(filename, old, new):
        text = (dst / filename).read_text()
        assert old in text
        (dst / filename).write_text(text.replace(old, new, 1))

    yield edit
    monkeypatch.delenv("MACKEY_GOLDEN_DIR")
    for loader in loaders:
        loader.cache_clear()
