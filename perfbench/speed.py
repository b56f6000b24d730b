"""Host-speed meter: turns wall seconds into reference seconds.

On a shared host the CPU a process runs on switches, many times a second,
between full speed and contended states in which the same code runs about 1.7x
to 2.5x slower (other tenants on the same physical core, cache and memory
bus).  A pass of several seconds spends a varying share of its time slowed, so
its wall time moves by tens of percent from pass to pass with no change in the
work.

:class:`SpeedMeter` samples that speed while the measured code runs: an
interval timer interrupts the process every ``PERIOD_S`` seconds, and the
signal handler times one short, fixed unit of pure-Python work (:func:`unit`,
which shares no code with the program).  The interval is then reported as

    reference seconds = (wall seconds - time spent in the units)
                        * REFERENCE_UNIT_S / (mean unit time during the interval)

which is its length on a host where a unit takes ``REFERENCE_UNIT_S``
(about what it takes uncontended).  A slower program moves reference seconds
exactly as it moves wall seconds, because the unit does not change; a host
that slows down stretches the units and the program alike, and the quotient
stays put.  Not every contended state slows the unit and the program by the
same factor, so a pass can still read some percent off.  Wall seconds are
reported beside reference seconds.

The meter uses only the standard library, so a fresh interpreter can start it
before it imports anything else.
"""

from __future__ import annotations

import signal
import time
from types import TracebackType

__all__ = ["PERIOD_S", "REFERENCE_UNIT_S", "SpeedMeter", "unit"]

#: Seconds between two speed samples.
PERIOD_S = 0.02
#: Uncontended seconds of one :func:`unit`; sets the scale of reference seconds.
REFERENCE_UNIT_S = 1.0e-4
#: Rounds of one unit (about a hundred microseconds uncontended).
ROUNDS = 60
#: What :func:`unit` returns when it did its work correctly.
CHECKSUM = 836467430


def unit() -> int:
    """One fixed unit of interpreted work (dict, sort, integer arithmetic)."""
    acc = 0
    table: dict[int, int] = {}
    for i in range(ROUNDS):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + sum(divmod(key, 7)) + len(table)) & 0xFFFFFFFF
        acc ^= sorted(k ^ i for k in range(8))[3]
    return acc


class SpeedMeter:
    """Samples host speed while its ``with`` block runs.

    Installs a ``SIGALRM`` handler and an interval timer on entry and restores
    both on exit.  Only one meter may run at a time in a process.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.wall_s = 0.0
        self._began = 0.0
        self._previous: object = None

    def _sample(self, signum: int, frame: object) -> None:
        start = time.perf_counter()
        checksum = unit()
        self.samples.append(time.perf_counter() - start)
        if checksum != CHECKSUM:
            raise RuntimeError(f"speed unit returned {checksum}, expected {CHECKSUM}")

    def __enter__(self) -> "SpeedMeter":
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._began = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall_s = time.perf_counter() - self._began
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def scale(self) -> float:
        """Reference seconds per wall second of host time during the block (1.0
        if the block was too short to take a sample)."""
        if not self.samples:
            return 1.0
        return REFERENCE_UNIT_S * len(self.samples) / sum(self.samples)

    @property
    def reference_s(self) -> float:
        """The block's duration in reference seconds, not counting the samples."""
        return (self.wall_s - sum(self.samples)) * self.scale
