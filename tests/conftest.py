"""The helpers tests share: counts as before/after differences, for the
stats tests, and a second free model of the unit sphere of H."""

import pytest

from mackey import repcw
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
