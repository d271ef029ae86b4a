"""How fast the machine runs right now, sampled while the program runs.

The 2-vCPU host the benchmark was defined on changes speed by up to a factor
of two, from load outside the container: a fixed piece of Python + numpy
work takes 7 ms one moment and 23 ms the next, and the share of slow moments
drifts over minutes, so whole ten-run sets of the same code came out 1.5x
apart. CPU time slows with wall time, so it cannot tell the two apart.

A :class:`SpeedProbe` interrupts the process at a fixed wall-clock interval
(``SIGALRM``) and, between two bytecodes of whatever the program is doing,
times one fixed reference slice of the kind of work the workload does:

- ``python``: small-array numpy arithmetic in a Python loop, like the plant
  and the planner;
- ``blas``: one least-squares solve through the default OpenBLAS threads,
  like the sparse fit. A Python slice reads the wrong speed there, because
  the OpenBLAS threads the fit leaves spinning slow it down.

The time spent in the probe is taken out of every region it times, and a
speed factor is the reference's nominal slice time over the trimmed mean
slice time. Multiplying a region's wall time by that factor gives its time at
the reference speed, the speed at which one slice takes its nominal time: a
program change still moves it in full, a change of the machine's speed over
the run cancels out. Work the program spreads over more CPUs than the
workload uses today would also change what the slices see, so a change like
that has to be read from the raw wall times as well.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

TRIM = 0.02  # share of slices cut from each end before averaging

_BASE = np.linspace(0.0, 1.0, 40)
_A = np.random.default_rng(0).random((200, 60))
_B = _A @ np.linspace(-1.0, 1.0, 60)


def python_slice() -> float:
    """Fixed work that does not depend on the program: 40 small-array steps."""
    y = _BASE.copy()
    total = 0.0
    for i in range(40):
        y = np.minimum(y * 1.0001 + 0.1, 5.0)
        total += float(y[i])
    return total


def blas_slice() -> float:
    """Fixed work that does not depend on the program: one 200x60 lstsq."""
    return float(np.linalg.lstsq(_A, _B, rcond=None)[0][0])


@dataclass(frozen=True)
class Reference:
    work: Callable[[], float]
    nominal_s: float  # typical slice time on the 2-vCPU defining machine
    interval_s: float  # wall time between slices; keeps the probe near 1%


REFERENCES = {
    "python": Reference(python_slice, 140e-6, 0.02),
    "blas": Reference(blas_slice, 1.3e-3, 0.1),
}


def trimmed_mean(values, trim: float = TRIM) -> float:
    """Mean of ``values`` after dropping the ``trim`` share from each end."""
    v = np.sort(np.asarray(values, dtype=float))
    cut = int(len(v) * trim)
    return float(v[cut:len(v) - cut].mean())


class SpeedProbe:
    """Timer-driven reference slices over a ``with`` block; see the module doc."""

    def __init__(self, reference: str):
        self.reference = REFERENCES[reference]
        self.samples: list[float] = []
        self.excluded = 0.0  # wall time spent inside the probe
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.reference.work()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.excluded += time.perf_counter() - t0

    def __enter__(self) -> "SpeedProbe":
        for _ in range(50):  # warm the slice before the first sample
            self.reference.work()
        interval = self.reference.interval_s
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def timed(self, fn, *args):
        """(fn(*args), its wall time less the time the probe took inside it,
        the slice of ``samples`` taken meanwhile)."""
        excluded, first = self.excluded, len(self.samples)
        t0 = time.perf_counter()
        out = fn(*args)
        took = time.perf_counter() - t0
        return out, took - (self.excluded - excluded), slice(first, len(self.samples))

    def factor(self, *spans: slice) -> float:
        """Nominal slice time over the trimmed mean time of the samples in
        ``spans`` (slices of ``samples``, as ``timed`` returns them)."""
        samples = [x for span in spans for x in self.samples[span]]
        if not samples:
            raise RuntimeError("the speed probe took no sample")
        return self.reference.nominal_s / trimmed_mean(samples)
