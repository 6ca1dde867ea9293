"""Seconds at reference speed: timings that do not move with the host.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of per cent over seconds to minutes, both cores together.  Raw wall
times of two runs of the same code therefore differ by more than most
optimisations save.  This module measures the drift while the benchmark
runs and takes it out:

* a *reference chunk* is a fixed piece of pure-Python work (big-integer
  arithmetic and interpreter dispatch, as in mpmath's python backend) that
  takes ``REF_CHUNK_S`` seconds on the machine the benchmark was defined on;
* :class:`Sampler` runs one chunk in a ``SIGALRM`` handler every
  ``interval`` seconds of wall time, in the measured process, so on the
  same core and interleaved with the measured work, and keeps the chunk
  times;
* ``Sampler.now()`` is ``time.perf_counter()`` minus the time spent in
  those chunks, so the chunks are never counted as the program's time;
* ``factor(lo, hi)`` = ``REF_CHUNK_S`` / mean time of the chunks taken
  while a duration was measured: multiplying the duration by it gives the
  duration at reference speed, in seconds.  Each request is scaled by the
  chunks taken during it, because the drift within a run of half a minute
  is as large as the drift between runs.

When the host is 20% slow the chunks are 20% slow too, the factor is
1/1.2 and the scaled duration stays put; a faster program still reads
faster, because the chunks do not run its code.  The raw seconds are
reported beside the scaled ones.
"""

import signal
import statistics
import time

#: median time of one reference chunk on the machine this benchmark was
#: defined on (2 vCPUs of an x86-64 Xeon host, CPython 3.11)
REF_CHUNK_S = 0.004

#: loop length of one chunk
_CHUNK_LOOPS = 1800


def chunk():
    """One reference chunk; returns its duration in seconds."""
    t0 = time.perf_counter()
    a, b, m = 3 ** 200 + 1, 7 ** 190 + 3, 2 ** 521 - 1
    acc = 0
    for i in range(_CHUNK_LOOPS):
        a = (a * b + i) % m
        acc ^= a & 0xFFFF
        acc += len(str(i)) + divmod(a, 12345)[1] % 3
    return time.perf_counter() - t0


class Sampler:
    """Interleave reference chunks with the work of this process."""

    def __init__(self, interval=0.1):
        self.interval = interval
        self.samples = []
        self.paused = 0.0

    def now(self):
        """perf_counter() without the time spent in reference chunks."""
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame):
        took = chunk()
        self.paused += took
        self.samples.append(took)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._tick(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(None, None)

    def factor(self, lo=0, hi=None, least=5):
        """REF_CHUNK_S / mean time of chunks ``lo:hi``, the window widened
        on both sides until it holds ``least`` chunks (or all of them)."""
        hi = len(self.samples) if hi is None else hi
        while hi - lo < least and (lo > 0 or hi < len(self.samples)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.samples))
        return REF_CHUNK_S / statistics.fmean(self.samples[lo:hi])

