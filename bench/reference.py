"""A speedometer: a fixed pure-Python computation, run often while the jobs
run, so that job times can be scaled to a steady machine speed.

The machine this benchmark was written on is a share of a busy host.  Its
speed moves by up to a third within seconds and drifts over minutes (the
same job list took from 2.5 s to 3.7 s over ten minutes), and wall and
CPU time move together, so no clock removes it.  The speedometer
therefore runs a reference computation before and after every job and,
from a ``SIGALRM`` timer, every ``TICK_S`` seconds during it.  A job's
time, less the reference runs inside it, is scaled by the reference's
nominal time over the mean of the reference runs from just before the
job to just after it.  A slower program still reads slower; a slower
machine does not.

The reference counts the placements of seven non-attacking queens by
recursion over frozensets: function calls, small-set unions, membership
tests and integer arithmetic, the interpreter paths the engine's search
takes.  It does not touch ``sigma_spectra``, so no change to the package
moves it.
"""

from __future__ import annotations

import gc
import signal
import time
from contextlib import contextmanager
from statistics import fmean
from typing import Iterator

QUEENS = 7
QUEENS_PLACEMENTS = 40
# The reference's time on the 2-core Xeon of bench/README.md at its usual
# speed.  Scaled times read as seconds on a machine that runs it this fast.
NOMINAL_S = 0.001
# Timer period while a job runs, and reference runs between two jobs.
TICK_S = 0.05
PROBES = 5


def _queens(n: int) -> int:
    count = 0

    def place(row: int, cols: frozenset, up: frozenset, down: frozenset) -> None:
        nonlocal count
        if row == n:
            count += 1
            return
        for c in range(n):
            if c in cols or row - c in up or row + c in down:
                continue
            place(row + 1, cols | {c}, up | {row - c}, down | {row + c})

    place(0, frozenset(), frozenset(), frozenset())
    return count


class Speedometer:
    """Reference runs as (start, duration) pairs, in the order they ran."""

    def __init__(self) -> None:
        self.runs: list[tuple[float, float]] = []
        self._busy = False
        self.probe(PROBES)  # untimed use: the interpreter specialises the code
        self.runs.clear()

    def _run(self, _signum: int | None = None, _frame: object = None) -> None:
        if self._busy:  # a tick that lands inside a probe is skipped
            return
        self._busy = True
        # a collection that the job's garbage made due must not land in the
        # reference: it would read a slow machine where the job met a big heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            placements = _queens(QUEENS)
            self.runs.append((start, time.perf_counter() - start))
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        if placements != QUEENS_PLACEMENTS:
            raise RuntimeError(f"reference counted {placements} placements")

    def probe(self, times: int = PROBES) -> None:
        for _ in range(times):
            self._run()

    @contextmanager
    def ticking(self) -> Iterator[None]:
        """Run the reference every ``TICK_S`` seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, self._run)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def inside(self, start: float, end: float) -> float:
        """Seconds the reference ran between two ``perf_counter`` readings."""
        return sum(d for s, d in self.runs if start <= s < end)

    def mean_s(self, times: int = PROBES) -> float:
        """Mean time of ``times`` reference runs made now."""
        first = len(self.runs)
        self.probe(times)
        return fmean(d for _s, d in self.runs[first:])

    def factor(self, first: int) -> float:
        """Nominal over measured reference time, over the runs from index
        ``first`` on."""
        return NOMINAL_S / fmean(d for _s, d in self.runs[first:])
