"""A fixed pure-Python reference loop that measures how fast the host runs
right now.

The benchmark runs on a few cores of a shared host whose speed drifts by
20% and more, within seconds and over minutes, and every kind of time drifts
with it (wall, CPU, interpreter start-up).  ``Clock`` times a few rounds of
this loop many times a second while set-up and each item of a pass run, and
rescales the measured time by ``REFERENCE_S`` over the time of a round: a
time is reported as it would read on a host that runs a round in
``REFERENCE_S`` seconds.  The loop uses none of the library, so a change to
the library moves the rescaled times as much as the measured ones.

The loop does what the engine's inner loops do: integer row reduction on a
list of Python ints, dict updates, sorting and short-lived int objects.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array

# Seconds one round of ``loop`` took on the host the baseline was recorded
# on (2 cores, Python 3.11), in its faster state.
REFERENCE_S = 0.00011


# The loop's buffers, made once.  The loop keeps nothing it allocates alive
# after it returns, and allocates no container that the garbage collector
# tracks, no dict table and no list storage: objects left among the work's
# would fragment its heap, and tracked ones would move the collector's
# schedule.  Either raises the pass's peak memory.
_N = 9
_M = [0] * (_N * _N)  # an N x N integer matrix, row by row
_V = [0] * (_N * _N)
_COUNTS = dict.fromkeys(range(8 * (_N - 1) ** 2 + 7), 0)


def _rank() -> int:
    """Rank of the matrix in ``_M`` over Z, by repeated division in place."""
    m, n = _M, _N
    rank = 0
    for c in range(n):
        while True:
            p = -1  # the row at or below ``rank`` with the smallest entry in c
            for r in range(rank, n):
                v = m[r * n + c]
                if v and (p < 0 or abs(v) < abs(m[p * n + c])):
                    p = r
            if p < 0:
                break
            if p != rank:
                for j in range(n):
                    a, b = rank * n + j, p * n + j
                    m[a], m[b] = m[b], m[a]
            pivot = m[rank * n + c]
            done = True
            for r in range(rank + 1, n):
                q = m[r * n + c] // pivot
                if q:
                    for j in range(c, n):
                        m[r * n + j] -= q * m[rank * n + j]
                if m[r * n + c]:
                    done = False
            if done:
                rank += 1
                break
        if rank == n:
            break
    return rank


def loop(rounds: int) -> int:
    """A fixed amount of work: ``rounds`` rounds of equal cost."""
    state = 12345
    total = 0
    size = _N * _N
    for _ in range(rounds):
        for i in range(size):
            state = (state * 1103515245 + 12345) % 2**31
            v = state % 7 - 3
            _M[i] = v
            key = (i // _N) * (i % _N) * 8 + v + 3
            _COUNTS[key] = (_COUNTS[key] + 1) % 97
            _V[i] = key * v + _COUNTS[key]
        total += _rank()
        _V.sort()
        total += _V[0] + _V[-1]
    for i in range(size):  # keep no large ints alive until the next tick
        _M[i] = _V[i] = 0
    return total


def round_s(rounds: int) -> float:
    """Seconds one round of the loop takes now, timed over ``rounds``."""
    t = time.perf_counter()
    loop(rounds)
    return (time.perf_counter() - t) / rounds


# Slots of ``Clock._f``: the totals, the marks of the last tick, and the
# time of a round at the last tick.
_WALL, _CPU, _REF, _MARK_WALL, _MARK_CPU, _LAST = range(6)


class Clock:
    """Times work as it would take on the reference host.

    Between ``start`` and ``stop`` a SIGALRM handler times ``rounds``
    rounds of the reference loop every ``tick_s`` seconds.  Each stretch of
    work between two timings is rescaled by ``REFERENCE_S`` over the mean
    speed at its two ends, so changes of host speed within an item are
    followed too.  The handler's own time is left out of both the measured
    and the rescaled time.  All it writes goes into arrays made once, so
    that the ticks leave no objects behind among the work's.
    """

    def __init__(self, rounds: int, capacity: int = 1 << 12) -> None:
        self.n = rounds
        self._f = array("d", bytes(8 * 6))
        self._rounds = array("d", bytes(8 * capacity))
        self._state = array("q", bytes(8 * 2))  # rounds timed, in a tick
        self._handler = self._tick

    @property
    def wall(self) -> float:
        return self._f[_WALL]

    @property
    def cpu(self) -> float:
        return self._f[_CPU]

    @property
    def ref(self) -> float:
        return self._f[_REF]

    @property
    def count(self) -> int:
        return self._state[0]

    def rounds(self, start: int = 0) -> list[float]:
        """Times of a round so far, from the ``start``-th timing on."""
        return self._rounds[start:min(self.count, len(self._rounds))].tolist()

    def _time_round(self) -> float:
        r = round_s(self.n)
        i = self._state[0]
        if i < len(self._rounds):
            self._rounds[i] = r
        self._state[0] = i + 1
        return r

    def _tick(self, *_) -> None:
        if self._state[1]:  # a signal that came while a round was timed
            return
        self._state[1] = 1
        f = self._f
        wall = time.perf_counter() - f[_MARK_WALL]
        cpu = time.process_time() - f[_MARK_CPU]
        r = self._time_round()
        f[_WALL] += wall
        f[_CPU] += cpu
        f[_REF] += wall * REFERENCE_S * (1 / f[_LAST] + 1 / r) / 2
        f[_LAST] = r
        f[_MARK_WALL] = time.perf_counter()
        f[_MARK_CPU] = time.process_time()
        self._state[1] = 0

    def start(self, tick_s: float) -> None:
        f = self._f
        f[_LAST] = self._time_round()
        f[_MARK_WALL] = time.perf_counter()
        f[_MARK_CPU] = time.process_time()
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, tick_s, tick_s)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()


if __name__ == "__main__":
    times = [round_s(8) for _ in range(200)]
    print(f"round median {statistics.median(times) * 1e6:.1f} us, "
          f"min {min(times) * 1e6:.1f} us, max {max(times) * 1e6:.1f} us")
