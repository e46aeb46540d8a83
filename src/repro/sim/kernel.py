"""Deterministic discrete-event simulation kernel.

Time is measured in integer picoseconds so that arbitrary clock frequencies
(100 MHz system clock, 50 MHz shared bus, runtime-retuned local clock
domains) coexist without floating-point drift.

Events carry a *priority* in addition to a timestamp.  Clock edges are split
into a *sample* phase (priority ``PRIORITY_SAMPLE``) and a *commit* phase
(priority ``PRIORITY_COMMIT``): at any instant every clocked component first
samples the outputs its neighbours committed on the previous cycle, and only
then do components commit new values.  This reproduces synchronous register
semantics without delta cycles.  Ordinary timed callbacks (timers, DMA
completions, reconfiguration done events) use ``PRIORITY_NORMAL`` and run
after the clock phases of the same instant.

When a run window contains only periodic clock edges, the kernel hands the
window to the compiled-schedule fast path (:mod:`repro.sim.fastpath`),
which dispatches the same sample/commit phases from a precomputed
hyperperiod edge table instead of the event heap -- with bit-identical
event ordering, sequence numbering and ``events_processed`` accounting.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import INSTANT, Tracer

#: Phase in which clocked components read their inputs.
PRIORITY_SAMPLE = 0
#: Phase in which clocked components update their registered outputs.
PRIORITY_COMMIT = 1
#: Ordinary timed callbacks (timers, transfer completions, software).
PRIORITY_NORMAL = 2

PS_PER_SECOND = 1_000_000_000_000

#: Global clock-topology epoch.  Anything that changes a clock's period
#: mid-run (a BUFGMUX reselect retuning an LCD) bumps this counter so the
#: fast path re-reads its cached periods; the single-element list lets the
#: hot loop compare one shared cell instead of a module attribute.
CLOCK_EPOCH: List[int] = [0]


class SimulationError(Exception):
    """Raised for scheduling errors and exhausted simulations."""


@dataclass(order=True)
class Event:
    """A scheduled callback.  Ordered by ``(time, priority, seq)``.

    ``clock`` tags the periodic edge events scheduled by
    :class:`repro.sim.clock.Clock`; the fast path uses it to recognise
    windows made purely of clock edges.  All other events leave it None.
    """

    time: int
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    clock: Optional[Any] = field(default=None, compare=False)

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when popped."""
        self.cancelled = True


@dataclass
class TraceEvent:
    """One annotated occurrence recorded through :meth:`Simulator.log`.

    Used by the switching-methodology benchmarks to reconstruct the paper's
    Figure 5 step sequence.  ``seq`` is the tracer's global record index,
    giving interleaved multi-clock events a stable total order
    ``(time, seq)`` for deterministic rendering.
    """

    time: int
    category: str
    message: str
    fields: Dict[str, Any]
    seq: int = 0

    @property
    def time_us(self) -> float:
        return self.time / 1_000_000.0

    def __str__(self) -> str:
        extra = " ".join(f"{k}={v}" for k, v in self.fields.items())
        line = (
            f"[{self.time_us:12.3f} us] {self.category:<12s} "
            f"{self.message} {extra}"
        )
        return line.rstrip()


class Simulator:
    """Deterministic event-driven simulator.

    The simulator owns global time, the event queue and the trace log.  All
    VAPRES components receive a reference to one ``Simulator`` and schedule
    their activity on it.
    """

    #: Default ring-buffer capacity of the trace store.
    DEFAULT_TRACE_CAPACITY = 65_536

    def __init__(
        self,
        trace_capacity: int = DEFAULT_TRACE_CAPACITY,
        use_fastpath: Optional[bool] = None,
    ) -> None:
        self._now = 0
        self._queue: List[Event] = []
        self._seq = itertools.count()
        self._running = False
        if use_fastpath is None:
            use_fastpath = os.environ.get("REPRO_FASTPATH", "1") != "0"
        self._fastpath = None
        if use_fastpath:
            # deferred import: fastpath imports this module
            from repro.sim.fastpath import FastPathEngine

            self._fastpath = FastPathEngine(self)
        #: Span/instant recorder (bounded ring buffer).  ``log()`` events
        #: land here as instants on ``log.<category>`` tracks; subsystems
        #: (switching, ICAP, runtime) record richer spans directly.
        self.tracer = Tracer(
            time_fn=lambda: self._now, capacity=trace_capacity
        )
        #: Process-local counters/gauges/histograms for this simulation.
        self.metrics = MetricsRegistry()
        self._trace_enabled = True
        self.events_processed = 0
        #: Optional cycle-level instrumentation shim (see
        #: :class:`repro.verify.kernel_check.DeterminismProbe`).  When set,
        #: clocks bracket every component's sample/commit call with
        #: ``phase_probe.begin(component, phase, now)`` / ``.end()``.
        self.phase_probe: Optional[Any] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current simulation time in picoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay_ps: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` to run ``delay_ps`` from now."""
        if delay_ps < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay_ps})")
        return self.schedule_at(self._now + int(delay_ps), callback, priority)

    def schedule_at(
        self,
        time_ps: int,
        callback: Callable[[], None],
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback`` at absolute time ``time_ps``."""
        if time_ps < self._now:
            raise SimulationError(
                f"cannot schedule at {time_ps} ps, now is {self._now} ps"
            )
        event = Event(int(time_ps), priority, next(self._seq), callback)
        heappush(self._queue, event)
        return event

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next pending event.  Returns False when the queue is empty."""
        while self._queue:
            event = heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self.events_processed += 1
            return True
        return False

    def run_until(self, time_ps: int) -> None:
        """Run all events with timestamps ``<= time_ps`` then set now to it."""
        time_ps = int(time_ps)
        if time_ps < self._now:
            raise SimulationError("run_until target is in the past")
        queue = self._queue
        fastpath = self._fastpath
        while queue:
            # Discard cancelled carcasses before the horizon check: a
            # cancelled head inside the window must not let step() run a
            # live event that lies beyond the target.
            if queue[0].cancelled:
                heappop(queue)
                continue
            if queue[0].time > time_ps:
                break
            if (
                fastpath is not None
                and queue[0].clock is not None
                and fastpath.try_run(time_ps)
            ):
                continue
            if not self.step():
                break
        self._now = max(self._now, time_ps)

    def fast_forward(self) -> bool:
        """Run any pure clock-edge prefix of the queue on the fast path.

        Unlike :meth:`run_until` this has no target time: the fast path
        runs until the next non-edge event (or retune/gate) intrudes.
        Intended for callers that loop on :meth:`step` while waiting for a
        ``PRIORITY_NORMAL`` completion event, such as
        :meth:`repro.control.microblaze.Microblaze.run_to_completion`.
        Returns True if any edges were dispatched.
        """
        fastpath = self._fastpath
        if fastpath is None:
            return False
        queue = self._queue
        if not queue or queue[0].clock is None:
            return False
        return fastpath.try_run(None)

    def set_fastpath(self, enabled: bool) -> None:
        """Enable or disable the compiled-schedule fast path at runtime."""
        if enabled and self._fastpath is None:
            from repro.sim.fastpath import FastPathEngine

            self._fastpath = FastPathEngine(self)
        elif not enabled:
            self._fastpath = None

    @property
    def fastpath_enabled(self) -> bool:
        return self._fastpath is not None

    @property
    def fastpath_stats(self) -> Dict[str, int]:
        """Fast-path counters (windows entered, edges dispatched, bails)."""
        if self._fastpath is None:
            return {"windows": 0, "edges": 0, "bails": 0}
        return self._fastpath.stats()

    def run_for(self, delay_ps: int) -> None:
        """Advance the simulation by ``delay_ps`` picoseconds."""
        self.run_until(self._now + int(delay_ps))

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events processed by this call.
        """
        count = 0
        while self._queue:
            if max_events is not None and count >= max_events:
                break
            if not self.step():
                break
            count += 1
        return count

    @property
    def pending_events(self) -> int:
        return sum(1 for e in self._queue if not e.cancelled)

    # ------------------------------------------------------------------
    # tracing
    # ------------------------------------------------------------------
    def set_tracing(
        self, enabled: bool, capacity: Optional[int] = None
    ) -> None:
        """Enable/disable tracing; optionally resize the ring buffer.

        Disabling makes both :meth:`log` and the span tracer early-return
        (near-zero cost).  Shrinking ``capacity`` evicts the oldest
        retained events into :attr:`dropped_events`.
        """
        self._trace_enabled = enabled
        self.tracer.configure(enabled=enabled, capacity=capacity)

    @property
    def trace_capacity(self) -> int:
        return self.tracer.capacity

    @property
    def dropped_events(self) -> int:
        """Events evicted from the bounded trace store so far."""
        return self.tracer.dropped_events

    def log(self, category: str, message: str, **fields: Any) -> None:
        """Record an annotated trace event at the current time.

        Thin shim over the span tracer: the event is stored as an instant
        on track ``log.<category>`` and surfaces as a classic
        :class:`TraceEvent` through :attr:`trace`.
        """
        if self._trace_enabled:
            self.tracer.instant(
                message,
                category=category,
                track="log." + category,
                attrs=fields if fields else None,
            )

    @property
    def trace(self) -> List[TraceEvent]:
        """The retained ``log()`` events, oldest first (bounded view)."""
        return [
            TraceEvent(e.time_ps, e.category, e.name, dict(e.attrs), e.seq)
            for e in self.tracer.events
            if e.kind == INSTANT and e.track.startswith("log.")
        ]

    def trace_by_category(self, category: str) -> List[TraceEvent]:
        return [t for t in self.trace if t.category == category]


def seconds_to_ps(seconds: float) -> int:
    """Convert seconds to integer picoseconds."""
    return int(round(seconds * PS_PER_SECOND))


def freq_hz_to_period_ps(freq_hz: float) -> int:
    """Convert a clock frequency to its period in integer picoseconds."""
    if freq_hz <= 0:
        raise SimulationError(f"frequency must be positive, got {freq_hz}")
    return int(round(PS_PER_SECOND / freq_hz))
