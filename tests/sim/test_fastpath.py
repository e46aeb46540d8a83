"""Unit tests for the compiled-schedule fast path.

The contract under test: with the fast path enabled, every observable of
the simulation -- callback order, clock cycle counts, ``now``,
``events_processed`` and the global sequence counter -- is bit-identical
to the event-heap kernel.  Differential twins (one heap, one fast) run
the same scenario and their full logs are compared.
"""

import os
import subprocess
import sys

from repro.sim.clock import Bufgmux, Clock, ClockedComponent, FixedSource
from repro.sim.kernel import Simulator


class Recorder(ClockedComponent):
    """Appends every sample/commit call to a shared log."""

    def __init__(self, log, sim, name):
        self.log = log
        self.sim = sim
        self.name = name

    def sample(self):
        self.log.append((self.sim.now, "s", self.name))

    def commit(self):
        self.log.append((self.sim.now, "c", self.name))


def build_twin(freqs, fastpath):
    """One sim with a recorder-carrying clock per frequency."""
    sim = Simulator(use_fastpath=fastpath)
    log = []
    clocks = []
    for i, freq in enumerate(freqs):
        clk = Clock(sim, freq_hz=freq, name=f"clk{i}")
        clk.attach(Recorder(log, sim, f"clk{i}"))
        clk.start()
        clocks.append(clk)
    return sim, clocks, log


def drawn_seq(sim):
    """How many sequence numbers the sim has handed out so far."""
    return sim.schedule(0, lambda: None).seq


def assert_equivalent(freqs, horizon_ps, mutate=None):
    sim_h, clocks_h, log_h = build_twin(freqs, fastpath=False)
    sim_f, clocks_f, log_f = build_twin(freqs, fastpath=True)
    assert sim_f.fastpath_enabled and not sim_h.fastpath_enabled
    if mutate:
        mutate(sim_h, clocks_h)
        mutate(sim_f, clocks_f)
    sim_h.run_until(horizon_ps)
    sim_f.run_until(horizon_ps)
    assert log_f == log_h
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)
    return sim_f, log_f


def test_single_clock_equivalence():
    assert_equivalent([100e6], 500_000)


def test_harmonic_clocks_equivalence():
    assert_equivalent([100e6, 50e6, 25e6], 500_000)


def test_coprime_periods_fall_back_to_scan_mode():
    # 100 MHz (10_000 ps) and 33 MHz (30_303 ps): the hyperperiod table
    # would blow past MAX_TABLE_EDGES, forcing the per-instant scan mode
    assert_equivalent([100e6, 33e6], 400_000)


def test_normal_event_limits_the_window():
    def mutate(sim, clocks):
        hits = []
        sim.schedule(123_456, lambda: hits.append(sim.now))

    assert_equivalent([100e6, 50e6], 300_000, mutate)


def test_event_scheduled_from_sample_bails_identically():
    class Scheduler(ClockedComponent):
        def __init__(self, sim, log):
            self.sim = sim
            self.log = log

        def sample(self):
            if self.sim.now == 60_000:
                self.sim.schedule(5_000, lambda: self.log.append("fired"))

        def commit(self):
            pass

    def mutate(sim, clocks):
        clocks[0].attach(Scheduler(sim, []))

    assert_equivalent([100e6, 50e6], 300_000, mutate)


def test_attach_and_detach_from_clocked_callback_midwindow():
    """Component-list changes inside an instant: the phase already
    running keeps its list, every later phase sees the new one."""

    class Rewirer(ClockedComponent):
        def __init__(self, sim, clocks):
            self.sim = sim
            self.clocks = clocks
            self.log = clocks[0].components[0].log

        def sample(self):
            # clk1 fires before clk0 whenever both are due
            if self.sim.now == 60_000:
                self.clocks[0].detach(self.clocks[0].components[0])
            elif self.sim.now == 100_000:
                self.clocks[1].attach(Recorder(self.log, self.sim, "late1"))

        def commit(self):
            if self.sim.now == 160_000:
                self.clocks[0].attach(Recorder(self.log, self.sim, "late0"))
            elif self.sim.now == 200_000:
                self.clocks[1].detach(self.clocks[1].components[0])

    def mutate(sim, clocks):
        clocks[1].attach(Rewirer(sim, clocks))

    sim_f, log = assert_equivalent([100e6, 50e6], 300_000, mutate)
    assert sim_f.fastpath_stats["bails"] >= 4
    seen = set(log)
    # a later clock's phase in the same instant sees the change ...
    assert (50_000, "s", "clk0") in seen and (60_000, "s", "clk0") not in seen
    assert (160_000, "c", "late0") in seen
    assert (160_000, "s", "late0") not in seen
    # ... and so does the changed clock's own next phase, not its running one
    assert (100_000, "s", "late1") not in seen
    assert (100_000, "c", "late1") in seen
    assert (200_000, "c", "clk1") in seen and (220_000, "s", "clk1") not in seen


def test_midwindow_gating_equivalence():
    def mutate(sim, clocks):
        sim.schedule(95_000, lambda: clocks[1].set_enabled(False))
        sim.schedule(205_000, lambda: clocks[1].set_enabled(True))

    assert_equivalent([100e6, 50e6], 400_000, mutate)


def test_gating_from_commit_callback_equivalence():
    class Gater(ClockedComponent):
        def __init__(self, sim, victim):
            self.sim = sim
            self.victim = victim

        def sample(self):
            pass

        def commit(self):
            if self.sim.now == 100_000:
                self.victim.set_enabled(False)
            elif self.sim.now == 200_000:
                self.victim.set_enabled(True)

    def mutate(sim, clocks):
        clocks[0].attach(Gater(sim, clocks[1]))

    assert_equivalent([100e6, 50e6], 400_000, mutate)


def test_bufgmux_retune_midrun_equivalence():
    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(40e6))
        clk = Clock(sim, source=mux, name="lcd")
        fixed = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        fixed.attach(Recorder(log, sim, "sys"))
        clk.start()
        fixed.start()
        sim.schedule(150_000, lambda: mux.select(1))
        sim.schedule(330_000, lambda: mux.select(0))
        return sim, (clk, fixed), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(500_000)
    sim_f.run_until(500_000)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)


def test_fast_reselect_with_far_pending_edge_equivalence():
    """Slow-to-fast reselect leaves a pending edge several new periods out."""

    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(25e6))
        clk = Clock(sim, source=mux, name="lcd")
        fixed = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        fixed.attach(Recorder(log, sim, "sys"))
        clk.start()
        fixed.start()
        sim.schedule(155_000, lambda: mux.select(1))
        # Just after the first 25 MHz-spaced edge is scheduled: the pending
        # LCD edge sits 40 ns out while the new period is 10 ns.
        sim.schedule(160_001, lambda: mux.select(0))
        return sim, (clk, fixed), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(400_000)
    sim_f.run_until(400_000)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]
    assert drawn_seq(sim_f) == drawn_seq(sim_h)
    assert sim_f.fastpath_stats["edges"] > 0


def test_retune_from_commit_callback_equivalence():
    """CLOCK_EPOCH bump from inside a dispatch instant forces a re-read."""

    class Retuner(ClockedComponent):
        def __init__(self, sim, mux):
            self.sim = sim
            self.mux = mux

        def sample(self):
            pass

        def commit(self):
            if self.sim.now == 100_000:
                self.mux.select(1)

    def build(fastpath):
        sim = Simulator(use_fastpath=fastpath)
        mux = Bufgmux(FixedSource(100e6), FixedSource(50e6))
        clk = Clock(sim, source=mux, name="lcd")
        sysclk = Clock(sim, freq_hz=100e6, name="sys")
        log = []
        clk.attach(Recorder(log, sim, "lcd"))
        sysclk.attach(Recorder(log, sim, "sys"))
        sysclk.attach(Retuner(sim, mux))
        clk.start()
        sysclk.start()
        return sim, (clk, sysclk), log

    sim_h, clocks_h, log_h = build(False)
    sim_f, clocks_f, log_f = build(True)
    sim_h.run_until(400_000)
    sim_f.run_until(400_000)
    assert log_f == log_h
    assert sim_f.events_processed == sim_h.events_processed
    assert [c.cycles for c in clocks_f] == [c.cycles for c in clocks_h]


def test_phase_probe_suppresses_fastpath():
    calls = []

    class Probe:
        def begin(self, component, phase, now):
            calls.append((phase, now))

        def end(self):
            pass

    sim, clocks, log = build_twin([100e6], fastpath=True)
    sim.phase_probe = Probe()
    sim.run_until(100_000)
    assert calls  # the probe saw phases: the heap path ran them
    assert sim.fastpath_stats["edges"] == 0


def test_fast_forward_stops_before_normal_event():
    sim, clocks, log = build_twin([100e6], fastpath=True)
    fired = []
    sim.schedule(55_000, lambda: fired.append(sim.now))
    assert sim.fast_forward()
    assert not fired  # the normal event is for the caller's step() loop
    assert clocks[0].cycles == 5
    assert sim.now <= 55_000


def test_fast_forward_disabled_returns_false():
    sim, clocks, log = build_twin([100e6], fastpath=False)
    assert sim.fast_forward() is False


def test_stats_and_runtime_toggle():
    sim, clocks, log = build_twin([100e6], fastpath=True)
    sim.run_until(200_000)
    stats = sim.fastpath_stats
    assert stats["windows"] >= 1
    assert stats["edges"] == 20
    assert stats["bails"] == 0
    sim.set_fastpath(False)
    assert not sim.fastpath_enabled
    assert sim.fastpath_stats == {"windows": 0, "edges": 0, "bails": 0}
    before = sim.events_processed
    sim.run_until(300_000)
    assert sim.events_processed == before + 20  # heap path still correct
    sim.set_fastpath(True)
    assert sim.fastpath_enabled
    sim.run_until(400_000)
    assert clocks[0].cycles == 40


def test_env_var_disables_fastpath():
    code = (
        "from repro.sim.kernel import Simulator;"
        "print(Simulator().fastpath_enabled)"
    )
    env = dict(os.environ, REPRO_FASTPATH="0")
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "False"


def test_events_processed_accounting_matches_heap_exactly():
    sim_f, clocks_f, _ = build_twin([100e6, 50e6], fastpath=True)
    sim_h, clocks_h, _ = build_twin([100e6, 50e6], fastpath=False)
    for horizon in range(50_000, 500_001, 50_000):
        sim_f.run_until(horizon)
        sim_h.run_until(horizon)
        assert sim_f.events_processed == sim_h.events_processed
