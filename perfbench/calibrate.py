"""Fixed reference kernels that put the benchmark's times on one speed scale.

The machines the benchmark runs on share their cores, and their speed drifts
by a third or more over minutes: a whole run can land in a slow stretch. A
kernel here is fixed work that uses nothing from traceform, in the mix of work
its workload runs:

- ``intervals`` looks float points up in a sorted list of dyadic ``Fraction``
  ends and sums small ``Fraction`` differences, as the interval, transform
  and darning code does, then makes many small numpy calls;
- ``arrays`` makes large numpy normal draws and running sums in place, as the
  exit and walk engines do, then the same small numpy calls.

Each workload names its kernel in ``KERNEL``. The run times the kernel after
every set-up and after every operation, and ``to_reference`` turns a wall time
into reference seconds: the wall time the same work would take on a machine
where the kernel takes as long as on the reference machine. Each set-up or
operation is divided by the mean of the kernels timed just before and just
after it (the first set-up has only the one after it). A drift that slows an
operation slows the kernels beside it as much, and cancels. A change to
traceform moves only the operations, so it moves the scaled time as much as
the wall time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

import numpy as np

_DYADIC = [Fraction(k, 512) for k in range(513)]


def _intervals() -> None:
    acc = Fraction(0)
    for k in range(6000):
        p = (k * 0.6180339887498949) % 1.0
        i = bisect.bisect_right(_DYADIC, p)
        if i < len(_DYADIC) and _DYADIC[i - 1] <= p:
            acc += _DYADIC[i] - _DYADIC[i - 1]


def _arrays() -> None:
    rng = np.random.default_rng(12345)
    x = np.zeros(200_000)
    for _ in range(40):
        x += rng.standard_normal(x.size)
        np.cumsum(x, out=x)
        x *= 1e-3


def _small_arrays() -> None:
    a = np.arange(256, dtype=float)
    for _ in range(1500):
        a = np.cumsum(np.diff(a, prepend=0.0)) + 1e-9


# name: (work, median wall seconds of one kernel on the reference machine, see README)
KERNELS = {"intervals": (_intervals, 0.29), "arrays": (_arrays, 0.21)}


def kernel(name: str) -> float:
    """Run the named kernel once and return its wall time in seconds.

    The collector is off while it runs, so its time does not depend on how
    many objects the program under test keeps alive.
    """
    work = KERNELS[name][0]
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        work()
        _small_arrays()
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def to_reference(name: str, wall_s: float, *kernel_s: float) -> float:
    """Wall seconds in reference seconds, against the named kernels timed beside them."""
    return wall_s * KERNELS[name][1] / statistics.fmean(kernel_s)
