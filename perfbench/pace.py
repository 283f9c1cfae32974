"""The pace of the machine, read from a fixed reference kernel.

On a shared virtual machine the speed of a core drifts: the same pass of
the same code took 12.6 s in one set of runs and 17.1 s in the next, and
a 0.3 s loop of weyl_sum ranges over 1.8x within two minutes.  The drift
is not steal time: process CPU time moves exactly as wall time does.  It
moves a fixed kernel of the benchmark's own by nearly the same share, so
the benchmark times the program in units of that kernel:

    paced seconds = measured seconds * REF_S / (median kernel time)

The kernel has two parts, like the program: numpy work in the shape of
an engine block (uint64 phases of 2**15 terms, their cos and sin) into
buffers made once, and Python steps of Fraction and SHA-256 work.

REF_S is the nominal time of one warm kernel run, so on a machine that
runs the kernel in REF_S a paced second is a measured second.  A change
to weyl_lab moves the measured seconds and not the kernel, so it moves
the paced seconds by the same share.

While a `with Pace():` block is open, SIGALRM runs the kernel every
INTERVAL_S seconds of wall time (no thread is started).  `clock()` is
perf_counter minus the time spent in the kernel, so timers read with it
leave the samples out.
"""

from __future__ import annotations

import hashlib
import signal
import statistics
import time
from fractions import Fraction

import numpy as np

REF_S = 0.005
INTERVAL_S = 0.25
# the shape of an engine block: 2**15 uint64 phases, then cos and sin,
# into buffers made once, so that a sample allocates no array memory
_J = np.arange(1 << 15, dtype=np.uint64)
_JJ = _J * (_J - np.uint64(1))
_M32 = np.uint64(0xFFFFFFFF)
_LO = np.empty_like(_J)
_HI = np.empty_like(_J)
_PHASE = np.empty(1 << 15)
_TRIG = np.empty(1 << 15)


def kernel() -> float:
    """A fixed piece of numpy and Python work of about 5 ms."""
    acc = 0.0
    for r in range(3):
        np.multiply(_JJ, np.uint64(2654435761 + r), out=_LO)
        np.bitwise_and(_LO, _M32, out=_LO)
        np.multiply(_J, np.uint64(40503 + r), out=_HI)
        np.right_shift(_HI, np.uint64(7), out=_HI)
        np.add(_LO, _HI, out=_LO)
        np.multiply(_LO, 2.0 * np.pi / 2.0**32, out=_PHASE, casting="unsafe")
        acc += float(np.cos(_PHASE, out=_TRIG).sum() + np.sin(_PHASE, out=_TRIG).sum())
    frac = Fraction(0)
    h = hashlib.sha256()
    for i in range(1, 161):
        frac = (frac + Fraction(1, i)).limit_denominator(1 << 20)
        h.update(i.to_bytes(4, "little"))
    return acc + float(frac) + h.digest()[0]


def factor(samples: list[float]) -> float:
    """Paced seconds per measured second over the span of `samples`.

    The median, not the mean: a sample the scheduler interrupts says
    nothing about the speed of the work around it.
    """
    return REF_S / statistics.median(samples)


class Pace:
    """Kernel samples, taken on request and, inside `with`, on a timer."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.paused = 0.0
        self._old_handler = None

    def clock(self) -> float:
        """perf_counter without the time spent in kernel samples."""
        return time.perf_counter() - self.paused

    def sample(self) -> float:
        """Run the kernel twice; record and return the second run's time.

        The first run brings the kernel's code and data back into the
        caches, whatever the program left there.
        """
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.paused += t2 - t0
        return t2 - t1

    def take(self) -> list[float]:
        """The samples since the last take()."""
        out, self.samples = self.samples, []
        return out

    def __enter__(self) -> "Pace":
        self._old_handler = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
