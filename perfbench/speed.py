"""Machine-speed normalisation of measured times.

The benchmark's host shares its cores with other tenants, and the speed at
which it runs one fixed piece of Python drifts by up to 2x within seconds,
in CPU time as much as in wall time.  So the measuring process also times a
fixed pure-Python kernel (``kernel``: Fraction arithmetic and dict updates
on tuple keys, the mix symcoh's exact algebra runs), from a SIGALRM handler
every ``INTERVAL_S`` seconds and once at each end of every measured span.
A span whose work took ``t`` seconds of wall time (the kernel's own time
taken out) while the kernel took k_1 ... k_n seconds is reported as

    t * mean(REF_S / k_i)

the time the same work takes at the speed at which the kernel takes
``REF_S``.  Each interval of the span is rescaled by the speed measured in
it, so drift within a long operation is followed too.  The kernel is
benchmark code, so a change to symcoh cannot move it: the ratio tracks the
program, not the host.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# Seconds the kernel takes at the reference speed.  It scales every
# normalised time; changing it (or the kernel) makes old numbers
# incomparable.
REF_S = 0.0025
INTERVAL_S = 0.05
WARMUP_CALLS = 20


def kernel() -> Fraction:
    acc = Fraction(0)
    table: dict = {}
    for i in range(1, 500):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    return acc


class Speedometer:
    """Times ``kernel`` while active; ``mark``/``since`` measure a span."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # kernel seconds, in time order
        self.spent = 0.0                # seconds spent in the kernel so far
        self._old_handler = None

    def probe(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def __enter__(self) -> "Speedometer":
        for _ in range(WARMUP_CALLS):
            kernel()
        self._old_handler = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def mark(self) -> tuple[int, float, float]:
        """Start a span: probe, then note where the span's samples begin."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            self.probe()
            return len(self.samples) - 1, self.spent, time.perf_counter()
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def since(self, mark: tuple[int, float, float]) -> tuple[float, float]:
        """End a span begun at ``mark``: (wall seconds of its work,
        the same normalised to the reference speed)."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            first, spent0, t0 = mark
            work = time.perf_counter() - t0 - (self.spent - spent0)
            self.probe()
            ks = self.samples[first:]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return work, work * sum(REF_S / k for k in ks) / len(ks)
