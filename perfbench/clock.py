"""Times normalised by a reference loop measured next to them.

On a shared machine the speed of one core swings by more than half over
spans of seconds to minutes, as neighbours come and go, and a run can sit in
a slow stretch from start to end.  Least or median times within a run do not
remove that.  So each measured time is divided by the time of a fixed
pure-Python loop run just before and just after it, and multiplied by
``REFERENCE_SECONDS``: times are reported in units where the loop takes one
millisecond.  The loop is the benchmark's own code and never calls gaplab,
so a change to gaplab cannot move it.  It mixes the operations gaplab's hot
paths use (list comprehensions, max/min, tuples, sets, string formatting and
parsing), which keeps the normalised times within about 10% across slow and
fast stretches where raw times move by 60%.
"""

from __future__ import annotations

import gc
from time import perf_counter

REFERENCE_SECONDS = 0.001

_VALUES = [(i * 7919) % 1009 for i in range(256)]
_TEXT = "".join(f"{i} {(i * 37) % 500}\n" for i in range(120))


def reference() -> int:
    """The fixed work that sets the unit of time."""
    seen = set()
    s = 0
    for i in range(240):
        nb = [_VALUES[(i * j + j) & 255] for j in range(24)]
        s += max(nb) - min(nb)
        key = (nb[0], nb[1], i & 15)
        if key not in seen:
            seen.add(key)
        s += len(f"{i} {s % 1000}")
    for line in _TEXT.splitlines():
        u, v = line.split()
        s += int(u) < int(v)
    return s + len(seen)


def timed_reference() -> float:
    """Seconds the reference loop takes now.

    The collector is off meanwhile: a full collection over the program's
    objects would otherwise land in the loop and make the program look fast.
    """
    gc.disable()
    try:
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        gc.enable()


def normalise(times: list[float], refs: list[float]) -> list[float]:
    """Scale ``times[i]`` by the mean of ``refs[i]`` and ``refs[i + 1]``,
    the reference timings taken just before and just after it."""
    return [t * 2 * REFERENCE_SECONDS / (refs[i] + refs[i + 1]) for i, t in enumerate(times)]
