"""Compiled-schedule fast path for pure clock-edge run windows.

The event-heap kernel spends most of a steady-state cycle on bookkeeping:
per edge it pops a sample :class:`~repro.sim.kernel.Event`, allocates and
pushes a commit event plus the next edge event, draws three sequence
numbers and re-reads the clock's period through the full derivation-graph
property chain.  None of that is observable behaviour -- only the order in
which component ``sample``/``commit`` callbacks run is.

:class:`FastPathEngine` exploits that: when the head of the queue is a
periodic clock edge, it *adopts* every pending edge event (removing them
from the heap), compiles the merged edge schedule of all adopted clocks
into a hyperperiod slot table (integer-ps offsets), and dispatches the
sample-then-commit phases instant by instant in a tight loop.  The engine
reproduces the heap kernel bit for bit:

* sequence numbers are drawn from the simulator's own counter in exactly
  the order ``Clock._edge`` would draw them (commit seq, then next-edge
  seq, per clock in pending-edge seq order),
* ``events_processed`` advances by one per virtual sample and one per
  virtual commit,
* clocks due at the same instant dispatch in pending-edge seq order, and
* the moment anything non-periodic intrudes -- a callback schedules an
  event, a clock is gated/ungated, a BUFGMUX reselect or a component
  attach/detach bumps :data:`~repro.sim.kernel.CLOCK_EPOCH`, or a phase
  probe appears -- the engine reconstructs the exact heap state the
  classic kernel would have had at that point and returns control to it.

Windows bounded by a ``run_until`` target or by the earliest non-edge
event never dispatch past either bound, so ``PRIORITY_NORMAL`` timers,
DMA/ICAP completions and software steps interleave with clock edges in
the same total order as before.

Out-of-band frequency mutation (anything other than ``Bufgmux.select``)
must bump ``CLOCK_EPOCH[0]`` or the fast path may keep dispatching on the
stale period; all shipped clocking primitives do this already.
"""

from __future__ import annotations

from heapq import heapify, heappush
from math import gcd
from operator import attrgetter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro.sim.kernel import (
    CLOCK_EPOCH,
    PRIORITY_COMMIT,
    PRIORITY_SAMPLE,
    Event,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle is runtime-lazy
    from repro.sim.clock import Clock
    from repro.sim.kernel import Simulator

#: Windows whose slot tables would hold more than twice this many merged
#: edges (tables replay at least two hyperperiods) fall back to the scan
#: dispatcher (min over live next-edge times each instant).  Keeps
#: pathological frequency ratios from compiling megabyte tables.
MAX_TABLE_EDGES = 4096

_BY_SEQ = attrgetter("seq")

#: Compiled ``(offset, due state indices)`` slots and the span they cover.
_Table = Tuple[List[Tuple[int, Tuple[int, ...]]], int]


class _ClockState:
    """Mutable fast-path shadow of one adopted clock's pending edge."""

    __slots__ = (
        "clock", "next_time", "seq", "period", "commit_seq", "enabled",
        "samples", "commits",
    )

    def __init__(
        self, clock: "Clock", next_time: int, seq: int, period: int
    ) -> None:
        self.clock = clock
        #: Phase lists, valid until ``CLOCK_EPOCH`` moves.
        self.samples = clock.phase_calls("sample")
        self.commits = clock.phase_calls("commit")
        #: Absolute time of the pending (virtual) edge event.
        self.next_time = next_time
        #: Sequence number the pending edge event holds / would hold.
        self.seq = seq
        #: Cached ``clock.period_ps``; refreshed when CLOCK_EPOCH moves.
        self.period = period
        #: Seq drawn for the commit phase of the instant being dispatched.
        self.commit_seq = 0
        self.enabled = True


class FastPathEngine:
    """Dispatches pure clock-edge windows without touching the event heap.

    One engine is owned by at most one :class:`Simulator`; it is inert
    (and free) until :meth:`try_run` finds an adoptable window.
    """

    __slots__ = (
        "sim",
        "_active",
        "_states",
        "_bail_flag",
        "_windows",
        "_edges",
        "_bails",
        "_memo_key",
        "_memo_tables",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self._active = False
        self._states: List[_ClockState] = []
        self._bail_flag = False
        self._windows = 0
        self._edges = 0
        self._bails = 0
        self._memo_key: Optional[Tuple[Tuple[int, int], ...]] = None
        self._memo_tables: Optional[Tuple[_Table, _Table]] = None

    # ------------------------------------------------------------------
    # public surface used by Simulator / Clock
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters: windows adopted, edges dispatched, early bails."""
        return {
            "windows": self._windows,
            "edges": self._edges,
            "bails": self._bails,
        }

    def owns(self, clock: Any) -> bool:
        """True while ``clock``'s pending edge lives inside this engine."""
        if not self._active:
            return False
        for st in self._states:
            if st.clock is clock:
                return True
        return False

    def on_gate(self, clock: Any, enabled: bool) -> None:
        """Handle ``Clock.set_enabled`` for an adopted clock mid-window.

        Mirrors the heap kernel exactly: disabling drops the pending
        (virtual) edge; enabling draws a fresh sequence number and
        schedules the next edge one freshly-read period from now.  Either
        way the compiled slot table is stale, so the window bails once the
        current instant completes.
        """
        sim = self.sim
        for st in self._states:
            if st.clock is clock:
                if enabled:
                    st.seq = next(sim._seq)
                    st.period = clock.period_ps
                    st.next_time = sim._now + st.period
                    st.enabled = True
                else:
                    st.enabled = False
                self._bail_flag = True
                return

    # ------------------------------------------------------------------
    # window entry
    # ------------------------------------------------------------------
    def try_run(self, target: Optional[int]) -> bool:
        """Adopt and dispatch a clock-edge window, if one exists.

        ``target`` bounds the window (inclusive); ``None`` means run until
        the earliest non-edge event intrudes (used by
        :meth:`Simulator.fast_forward`).  Returns True if at least one
        edge was dispatched; on False the queue is untouched.
        """
        sim = self.sim
        if self._active or sim.phase_probe is not None:
            return False
        queue = sim._queue
        edge_events: List[Event] = []
        horizon: Optional[int] = None
        for event in queue:
            if event.cancelled:
                continue
            if event.clock is not None:
                edge_events.append(event)
            elif horizon is None or event.time < horizon:
                horizon = event.time
        if not edge_events:
            return False
        if horizon is not None:
            limit = horizon - 1 if target is None else min(int(target), horizon - 1)
        elif target is None:
            return False  # unbounded window with nothing to stop it
        else:
            limit = int(target)
        first_edge = min(event.time for event in edge_events)
        if first_edge > limit:
            return False

        # Adopt: strip the edge events (and any cancelled carcasses) from
        # the heap; everything else stays put and bounds the window.
        queue[:] = [e for e in queue if e.clock is None and not e.cancelled]
        heapify(queue)
        states = []
        for event in edge_events:
            clock = event.clock
            clock._next_edge_event = None
            states.append(
                _ClockState(clock, event.time, event.seq, clock.period_ps)
            )
        states.sort(key=_BY_SEQ)
        self._states = states
        self._active = True
        self._bail_flag = False
        self._windows += 1
        try:
            tables = self._compile(states, first_edge)
            if tables is None:
                self._scan_window(limit)
            else:
                self._table_window(limit, tables, first_edge)
        finally:
            self._active = False
            self._states = []
        return True

    # ------------------------------------------------------------------
    # schedule compilation
    # ------------------------------------------------------------------
    def _compile(
        self, states: List[_ClockState], t0: int
    ) -> Optional[Tuple[_Table, _Table]]:
        """Merge the adopted clocks' edge grids into two slot tables.

        Returns ``(lead, steady)``: sorted ``(offset, due)`` slots, ``due``
        being the state indices firing at that offset in pending-seq
        order, each with its span; ``None`` selects the scan dispatcher.
        ``lead`` runs once, up to the first hyperperiod multiple past
        every pending edge (one hyperperiod unless a reselect left an edge
        further out); ``steady`` then repeats every hyperperiod.  A clock
        draws its pending seq when it fires, so replaying the draws gives
        the order; only ``lead`` sees pre-window seqs.  States arrive
        seq-sorted, so ``(period, next_time - t0)`` pairs are the key.
        """
        key = tuple((st.period, st.next_time - t0) for st in states)
        if key == self._memo_key:
            return self._memo_tables
        hyper = 1
        for st in states:
            hyper = hyper * st.period // gcd(hyper, st.period)
        lead = hyper * (max(offset for _, offset in key) // hyper + 1)
        total_edges = sum((lead + hyper) // st.period for st in states)
        if total_edges > 2 * MAX_TABLE_EDGES:
            self._memo_key = None
            return None
        upcoming = [offset for _, offset in key]
        rank = list(range(len(states)))
        slots: Tuple[List[Tuple[int, Tuple[int, ...]]], ...] = ([], [])
        drawn = len(states)
        while True:
            t = min(upcoming)
            if t >= lead + hyper:
                break
            due = sorted(
                (i for i, at in enumerate(upcoming) if at == t),
                key=lambda i: rank[i],
            )
            for i in due:
                rank[i] = drawn
                drawn += 1
                upcoming[i] += states[i].period
            slots[t >= lead].append((t % lead, tuple(due)))  # hyper <= lead
        tables = ((slots[0], lead), (slots[1], hyper))
        self._memo_key = key
        self._memo_tables = tables
        return tables

    # ------------------------------------------------------------------
    # dispatchers
    # ------------------------------------------------------------------
    def _table_window(
        self, limit: int, tables: Tuple[_Table, _Table], t0: int
    ) -> None:
        """Hot loop: walk the slot tables cycle by cycle up to ``limit``."""
        cycle = t0
        slots, span = tables[0]
        while True:
            for offset, due in slots:
                t = cycle + offset
                if t > limit:
                    self._finish([])
                    return
                if not self._dispatch_instant(t, due):
                    return
            cycle += span
            slots, span = tables[1]

    def _scan_window(self, limit: int) -> None:
        """Fallback dispatcher: find each next instant by scanning states."""
        states = self._states
        while True:
            t = -1
            for st in states:
                if st.enabled and (t < 0 or st.next_time < t):
                    t = st.next_time
            if t < 0 or t > limit:
                self._finish([])
                return
            due = sorted(
                (i for i, st in enumerate(states)
                 if st.enabled and st.next_time == t),
                key=lambda i: states[i].seq,
            )
            if not self._dispatch_instant(t, due):
                return

    def _dispatch_instant(self, t: int, due: Sequence[int]) -> bool:
        """Run one merged instant ``t`` exactly as the heap kernel would.

        ``due`` indexes the states whose virtual edge fires at ``t``, in
        pending-seq order.  Returns False when the window bailed (heap
        state already reconstructed), True to keep dispatching.  Once
        ``CLOCK_EPOCH`` moves, every later phase of the instant reads its
        clock's live component list, as ``Clock._edge`` would.
        """
        sim = self.sim
        queue = sim._queue
        base_len = len(queue)
        seq_counter = sim._seq
        epoch = CLOCK_EPOCH
        window_epoch = epoch[0]
        states = self._states
        sim._now = t
        pending: List[_ClockState] = []
        for i in due:
            st = states[i]
            # Re-check: an earlier callback this instant may have gated or
            # re-phased this clock (heap kernel: cancelled its edge event).
            if not st.enabled or st.next_time != t:
                continue
            clock = st.clock
            clock.cycles += 1
            for sample in (st.samples if epoch[0] == window_epoch
                           else clock.phase_calls("sample")):
                sample()
            st.commit_seq = next(seq_counter)
            if st.enabled:  # a sample callback may have gated *this* clock
                st.seq = next(seq_counter)
                if epoch[0] != window_epoch:
                    # BUFGMUX reselect mid-instant: Clock._edge would read
                    # the new period when scheduling the next edge.
                    st.period = clock.period_ps
                    self._bail_flag = True
                st.next_time = t + st.period
            pending.append(st)
            if len(queue) != base_len:
                self._edges += len(pending)
                sim.events_processed += len(pending)
                self._bail(t, pending)
                return False
        samples_run = len(pending)
        self._edges += samples_run
        if sim.phase_probe is not None:
            # A sample callback attached a probe; commits must run
            # bracketed, which only the heap kernel does.
            sim.events_processed += samples_run
            self._bail(t, pending)
            return False
        commits_run = 0
        for st in pending:
            for commit in (st.commits if epoch[0] == window_epoch
                           else st.clock.phase_calls("commit")):
                commit()
            commits_run += 1
            if len(queue) != base_len:
                sim.events_processed += samples_run + commits_run
                self._bail(t, pending[commits_run:])
                return False
        sim.events_processed += samples_run + commits_run
        if self._bail_flag or epoch[0] != window_epoch:
            self._bail(t, [])
            return False
        return True

    # ------------------------------------------------------------------
    # heap-state reconstruction
    # ------------------------------------------------------------------
    def _bail(self, t: int, pending: List[_ClockState]) -> None:
        self._bails += 1
        self._finish(pending, t)

    def _finish(
        self, pending: List[_ClockState], t: Optional[int] = None
    ) -> None:
        """Rebuild the exact heap the classic kernel would have right now.

        ``pending`` lists states whose sample phase ran at instant ``t``
        but whose commit has not -- their commit events are pushed with the
        sequence numbers already drawn for them.  Every live state gets its
        pending edge event back (same time, same seq), re-linking
        ``Clock._next_edge_event`` so heap-path gating works again.
        """
        queue = self.sim._queue
        for st in pending:
            heappush(
                queue,
                Event(t, PRIORITY_COMMIT, st.commit_seq, st.clock._commit_phase),
            )
        for st in self._states:
            clock = st.clock
            if st.enabled:
                event = Event(
                    st.next_time, PRIORITY_SAMPLE, st.seq, clock._edge
                )
                event.clock = clock
                heappush(queue, event)
                clock._next_edge_event = event
            else:
                clock._next_edge_event = None
