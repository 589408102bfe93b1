"""Host time converted to reference seconds.

The benchmark runs on shared hosts whose speed drifts by a third or more
within minutes: rounds of the same ``tpcc-fit`` work ran at 1,550 and at
2,790 tx/s six minutes apart.  Measuring longer cannot remove that, so the
host clock is calibrated while the work runs.  Every ``INTERVAL_S`` a ``SIGALRM``
interrupts the work and runs :func:`reference`, a fixed pure-Python
routine (dict, attribute and heap work, as in the simulator), and times it.
A stretch of work between two samples lasted ``gap`` host seconds at a
host speed its neighbouring samples measure, and counts as
``gap * REFERENCE_S / d`` reference seconds, where ``d`` is the median
duration of the ``2 * WINDOW + 1`` samples around it.  A reference second
is a second on a host that runs the routine in ``REFERENCE_S``; the time
the samples themselves take is not counted.

The routine's duration does not depend on the program being measured, so a
faster program still needs fewer reference seconds for the same work.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time

#: Seconds between two reference samples.
INTERVAL_S = 0.1
#: Duration of :func:`reference` on the reference host: its median between
#: slices of this benchmark's workloads on a 2-core shared x86-64 host.
REFERENCE_S = 0.005
#: Samples on each side of a gap whose median sets the gap's host speed.
WINDOW = 3


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: float, nxt: "_Node | None") -> None:
        self.key = key
        self.value = value
        self.next = nxt


def reference() -> float:
    """Fixed interpreter work: keyed lookups, node updates, a bounded heap."""
    table: dict[int, _Node] = {}
    heap: list[tuple[float, int]] = []
    head = None
    total = 0.0
    for i in range(4000):
        key = (i * 7919) % 1021
        node = table.get(key)
        if node is None:
            head = _Node(key, float(i), head)
            table[key] = head
            value = float(i)
        else:
            node.value = node.value * 0.5 + i
            value = node.value
        heapq.heappush(heap, (value, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[0]
        if i % 97 == 0:
            table.pop((key + 13) % 1021, None)
    return total


class HostClock:
    """Samples the host's speed while active (a context manager).

    ``samples`` holds the (start, end) ``perf_counter`` times of each
    reference run.  The work being measured must not use ``SIGALRM``.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        # The routine's garbage must not start a collection of the work's
        # objects inside the sample; the work pays for its own collections.
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference()
        self.samples.append((start, time.perf_counter()))
        if enabled:
            gc.enable()

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(host seconds, reference seconds) of work in ``[start, end]``,
        both without the time the samples inside it took."""
        if not self.samples:
            raise ValueError("no host-speed samples: the clock was never active")
        durations = [e - s for s, e in self.samples]

        def scale(index: int) -> float:
            index = min(index, len(durations) - 1)
            around = durations[max(0, index - WINDOW) : index + WINDOW + 1]
            return REFERENCE_S / statistics.median(around)

        host = reference_s = 0.0
        cursor = start
        index = 0
        for index, (s, e) in enumerate(self.samples):
            if e <= start:
                continue
            if s >= end:
                break
            gap = max(0.0, s - cursor)
            host += gap
            reference_s += gap * scale(index)
            cursor = min(max(cursor, e), end)
        else:
            index = len(self.samples)
        gap = max(0.0, end - cursor)
        host += gap
        reference_s += gap * scale(index)
        return host, reference_s
