"""A fixed reference loop that measures how fast the machine runs right now.

The hosts this benchmark runs on change speed by up to 2x within
seconds (other tenants share the cores), and CPU time slows down as
much as wall time.  So each operation is timed in reference seconds:
its wall time divided by the slowdown of this loop relative to
``NOMINAL_S``, measured just before and just after the operation and
every ``PERIOD_S`` during it.  The loop mixes the two kinds of work egl
does: pure-Python tuple, generator, complex and dict work (samplers,
structure maps) and small numpy calls (finite differences, SVDs).  It
imports nothing from egl, so no change to egl can change it.
"""

import signal
import statistics
from time import perf_counter

import numpy as np

NOMINAL_S = 1.0e-3    # one slowdown() call on a quiet 2 GHz Xeon VM, CPython 3.11
PERIOD_S = 0.2        # slowdown sampling period inside long operations
_MATRIX = np.arange(36.0).reshape(6, 6) % 7 + np.eye(6)


def _python_work(n: int = 300) -> float:
    acc = 0.0
    t = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    table = {}
    for i in range(n):
        t = tuple(x * 0.999 + 0.001 for x in t)
        acc += max(abs(a - b) for a, b in zip(t, t[1:]))
        table[i & 15] = complex(t[0], t[1]) * complex(t[2], t[3])
    return acc + abs(table[0])


def _numpy_work(n: int = 15) -> float:
    acc = 0.0
    for i in range(n):
        v = np.asarray([0.1 * i, 0.2, 0.3, 0.4, 0.5, 0.6], dtype=float)
        s = np.linalg.svd(_MATRIX + 1e-3 * v[:, None], compute_uv=False)
        acc += float(s[0]) + float(np.max(np.abs(v)))
    return acc


def slowdown() -> float:
    """This moment's slowdown factor: reference wall time / NOMINAL_S."""
    start = perf_counter()
    _python_work()
    _numpy_work()
    return (perf_counter() - start) / NOMINAL_S


class Meter:
    """Times calls in reference seconds."""

    def __init__(self):
        slowdown()                       # the loop's own first run is cold
        self._last = slowdown()

    def measure(self, fn, sample=True):
        """(result, wall seconds, reference seconds) of ``fn()``.

        With ``sample``, a SIGALRM timer also measures the slowdown every
        ``PERIOD_S`` while ``fn`` runs; the time those measurements take
        is left out of the wall time.
        """
        samples = [self._last]
        stolen = 0.0

        def tick(signum, frame):
            nonlocal stolen
            start = perf_counter()
            samples.append(slowdown())
            stolen += perf_counter() - start

        if sample:
            previous = signal.signal(signal.SIGALRM, tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        start = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - start
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        self._last = slowdown()
        samples.append(self._last)
        wall -= stolen
        return result, wall, wall / statistics.fmean(samples)
