"""A speed probe: a small fixed kernel timed throughout a run, to read how fast
the machine runs while the jobs run.

On a shared host the speed a single thread gets drifts by tens of percent,
switching within seconds, so the raw time of the same pass does not repeat
from run to run.  While a probe is active, a CPU-time interval timer
(`ITIMER_PROF`) interrupts the process every `INTERVAL_S` of CPU time, and the
signal handler runs and times `SpeedProbe.kernel`: a fraction of a millisecond of
Python bytecode and scattered memory reads.  The kernel uses no code of the
package, so a change to the package moves the job times and not the kernel.
Dividing a job's time by the mean kernel time over that job gives a time in
kernel units that the drifting speed moves much less than the raw time.  The
mean, not the median, is used: it weighs the fast and slow spells as the job
meets them.

The handler runs between bytecodes of the main thread, so a long call into C
defers it to the call's end; the samples are still spread over the whole run.
Its own time is counted in `total_s`, so the caller can take it out of the job
times.  Only wall time is sampled: on some virtual machines the process CPU
clock advances in scheduler ticks of several milliseconds, too coarse for the
kernel.
"""

from __future__ import annotations

import random
import signal
import time

INTERVAL_S = 0.04        # CPU time between samples
PY_LOOP = 3000           # integer loop iterations
BUFFER_BYTES = 1 << 25   # 32 MiB: beyond a core's L2, inside the shared L3
READS = 1000             # random byte reads from the buffer


class SpeedProbe:
    """Context manager that samples `kernel` on a CPU-time timer while active."""

    def __init__(self, interval_s: float = INTERVAL_S):
        rng = random.Random(0)
        self.buffer = bytearray(BUFFER_BYTES)
        for at in range(0, BUFFER_BYTES, 1 << 20):     # written, so resident
            self.buffer[at:at + (1 << 20)] = rng.randbytes(1 << 20)
        self.offsets = [rng.randrange(BUFFER_BYTES) for _ in range(READS)]
        self.interval_s = interval_s
        self.wall: list[float] = []      # seconds per kernel run
        self.total_s = 0.0               # wall time spent in the handler
        self._previous = None

    def kernel(self) -> None:
        """The fixed reference work, under a millisecond.

        A loop of integer Python bytecode, then reads from scattered cache
        lines of a buffer that only the shared cache can hold, so that the
        kernel slows down both when the core is shared and when the shared
        cache is.  It allocates no tracked objects, so it never sets off a
        garbage collection of the job's heap inside a sample.
        """
        s = 0
        for i in range(PY_LOOP):
            s += i * i % 7
        buf = self.buffer
        for i in self.offsets:
            s += buf[i]

    def sample(self, *_) -> None:
        w0 = time.perf_counter()
        self.kernel()
        self.wall.append(time.perf_counter() - w0)
        self.total_s += time.perf_counter() - w0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.siginterrupt(signal.SIGPROF, False)     # restart interrupted calls
        signal.setitimer(signal.ITIMER_PROF, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
