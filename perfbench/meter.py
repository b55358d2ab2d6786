"""Host-speed-corrected timing and span tracing for the benchmark.

The hosts this benchmark runs on change speed by tens of percent, both from
one millisecond to the next and over seconds, so a raw wall-clock interval
mixes the program's cost with the host's state.  ``Meter`` interleaves a
fixed reference loop (a probe) with the measured calls and scales each
interval by ``REF_NOMINAL_S / ref``, where ``ref`` is the median time of the
probes taken from WINDOW_S before the interval to WINDOW_S after it.
Corrected intervals are in seconds on a host whose reference loop takes
``REF_NOMINAL_S``; probe time is excluded from every interval.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

# Reference-loop time of the nominal host.  A constant of the benchmark:
# changing it rescales every corrected time, so it never changes.
REF_NOMINAL_S = 0.003
# Probes run at call boundaries, one per PROBE_EVERY_S passed since the
# last one (at most EDGE_PROBES at once, after a long call), and EDGE_PROBES
# times at the start and at the end of a stretch.
PROBE_EVERY_S = 0.25
EDGE_PROBES = 3
# Probes this far before and after an interval set its correction.
WINDOW_S = 3.0


def reference_loop() -> int:
    """Fixed small-integer arithmetic in the interpreter loop."""
    acc = 0
    for i in range(20000):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return acc


class Meter:
    """Measures intervals of one stretch and corrects them for host speed.

    ``start``/``stop`` bracket an interval; ``maybe_probe`` runs a probe if
    one is due and is called at every call boundary.  ``close`` ends the
    stretch; ``corrected`` works only after it.
    """

    def __init__(self) -> None:
        self.probe_times: list[float] = []
        self.probes: list[float] = []
        self._probe_total = 0.0
        self._last_probe = 0.0
        self._medians: dict[tuple[int, int], float] = {}
        for _ in range(EDGE_PROBES):
            self._probe()

    def _probe(self) -> None:
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.probe_times.append(t0)
        self.probes.append(t1 - t0)
        self._probe_total += t1 - t0
        self._last_probe = t1

    def maybe_probe(self) -> None:
        due = int((perf_counter() - self._last_probe) / PROBE_EVERY_S)
        for _ in range(min(due, EDGE_PROBES)):
            self._probe()

    def start(self) -> tuple[float, float]:
        self.maybe_probe()
        return perf_counter(), self._probe_total

    def stop(self, token: tuple[float, float]) -> tuple[float, float, float]:
        """(start, end, raw seconds without the probes run meanwhile)."""
        t0, probe_total = token
        t1 = perf_counter()
        return t0, t1, t1 - t0 - (self._probe_total - probe_total)

    def close(self) -> None:
        for _ in range(EDGE_PROBES):
            self._probe()

    def corrected(self, interval: tuple[float, float, float]) -> float:
        t0, t1, raw = interval
        lo = bisect.bisect_left(self.probe_times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.probe_times, t1 + WINDOW_S)
        ref = self._medians.get((lo, hi))
        if ref is None:
            ref = self._medians[lo, hi] = statistics.median(self.probes[lo:hi])
        return raw * REF_NOMINAL_S / ref

    def ref_loop_ms(self) -> float:
        return statistics.median(self.probes) * 1e3


class NullTracer:
    """Calls straight through, probing at call boundaries; used for the
    untraced (measured) phase."""

    def __init__(self, meter: Meter) -> None:
        self.meter = meter

    def call(self, name, fn, *args, count=None):
        self.meter.maybe_probe()
        return fn(*args)

    def add(self, name: str, value: int) -> None:
        pass

    def begin_item(self, item_id) -> None:
        pass

    def end_item(self) -> None:
        pass


class Tracer(NullTracer):
    """Records one span per public library call, flat under its item span.

    A span is [name, start, end, parent, item id, counts]; parent
    is the index of the item span.  ``count`` maps a call's result to work
    counters and runs outside the timed interval.  Spans stay in memory
    until the run ends.
    """

    def __init__(self, meter: Meter) -> None:
        super().__init__(meter)
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._item: int | None = None

    def call(self, name, fn, *args, count=None):
        self.meter.maybe_probe()
        t0 = perf_counter()
        result = fn(*args)
        t1 = perf_counter()
        counts = count(result) if count is not None else None
        if counts:
            for key, value in counts.items():
                self.add(key, value)
        item_id = None if self._item is None else self.spans[self._item][4]
        self.spans.append([name, t0, t1, self._item, item_id, counts])
        return result

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def begin_item(self, item_id) -> None:
        self.spans.append(["item", perf_counter(), None, None, item_id, None])
        self._item = len(self.spans) - 1

    def end_item(self) -> None:
        self.spans[self._item][2] = perf_counter()
        self._item = None

    def layer_totals(self) -> tuple[dict[str, float], dict[str, int]]:
        """Corrected seconds and call count per layer span name.  Layer spans
        have no children, so a span's duration is its self time."""
        seconds: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, t0, t1, _parent, _item, _counts in self.spans:
            if name == "item":
                continue
            seconds[name] = seconds.get(name, 0.0) + self.meter.corrected((t0, t1, t1 - t0))
            calls[name] = calls.get(name, 0) + 1
        return seconds, calls


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    value there; (0, minimum) when there are ten samples or fewer."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return 0.0, xs[0]
    return 100.0 * (n - 10) / n, xs[n - 11]
