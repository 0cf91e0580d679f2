"""The yardstick of reference seconds: a fixed exact elimination over
Fractions, the kind of work qfact's rank does, in code that shares nothing
with qfact.

run.py times it right before and right after every case, and every
TICK_S seconds while a case runs, in the process that runs the case. It
divides the case's wall time by the mean of those times. On a shared
host that takes out most of the slowdown that busy neighbours cause, since
they slow this loop and qfact alike.
"""

import gc
import signal
from contextlib import contextmanager
from fractions import Fraction
from random import Random
from time import perf_counter

SIZE = 12


def _matrix():
    rng = Random(5)
    return [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(SIZE)]
            for _ in range(SIZE)]


MATRIX = _matrix()


def eliminate(matrix) -> int:
    """Rank of `matrix`, by Gaussian elimination of a copy."""
    rows = [row[:] for row in matrix]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def seconds() -> float:
    """Wall seconds of one elimination of MATRIX. The collector is off
    meanwhile, so the objects that qfact's work left in the heap do not
    count."""
    gc.disable()
    try:
        start = perf_counter()
        eliminate(MATRIX)
        return perf_counter() - start
    finally:
        gc.enable()


@contextmanager
def ticking(every_s, times: list):
    """While the block runs, time one elimination every `every_s` wall
    seconds, from a SIGALRM handler, and append it to `times`. The block's
    own wall time includes these; subtract their sum. `every_s` None
    times nothing."""
    if every_s is None:
        yield
        return

    def tick(signum, frame):
        times.append(seconds())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, every_s, every_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
