"""In-process per-layer probes for the traced run.

Each probe times calls into one layer's public functions from outside,
on specs shaped like the workloads' own: the executor, admission, the
simulation kernel, the Figure-5 datapath and the Figure-5 switch.  They
run after the workload's traced phase, never during an end-to-end
measurement.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Dict, List

import frontdoor
import stats

EXECUTOR_SOAK_JOBS = 30
EXECUTOR_DENSE_WORDS = 8_000
ADMISSION_DECISIONS = 3_000
KERNEL_EVENTS = 200_000
KERNEL_CHAINS = 8
DATAPATH_CYCLES = 8_000
DATAPATH_SLICES = 5
SWITCHES = 3
#: Figure-5 scenario scale (the paper's 71.94 ms reconfiguration is
#: divided by this to keep a switch short in host time)
FIG5_SPEEDUP = 500.0


def _ms(values: List[float]) -> float:
    return stats.median(values) * 1e3


def executor_probe(seed: int) -> Dict[str, float]:
    """``JobExecutor(...)`` and ``.run([spec])`` serially, in process."""
    from repro.runtime import JobExecutor

    refs = frontdoor.References()
    params, config = refs.params, refs.config
    setup, run, first, stream = [], [], [], []
    sim_us, events, edges, spans = [], [], [], []
    for spec in frontdoor.soak_specs(seed, "x", EXECUTOR_SOAK_JOBS):
        t0 = time.perf_counter()
        executor = JobExecutor(params=params, config=config)
        t1 = time.perf_counter()
        seen: List[float] = []
        executor.on_first_sample = lambda job: seen.append(time.perf_counter())
        result = executor.run([spec])
        t2 = time.perf_counter()
        setup.append(t1 - t0)
        run.append(t2 - t1)
        if seen:
            first.append(seen[0] - t1)
            stream.append(t2 - seen[0])
        sim_us.append(result.sim_us)
        events.append(executor.system.sim.events_processed)
        edges.append(executor.system.sim.fastpath_stats["edges"])
        spans.append(len(result.span_events))

    dense = frontdoor.dense_specs(seed, "x")[0]
    dense = replace(dense, source=replace(dense.source,
                                          count=EXECUTOR_DENSE_WORDS))
    executor = JobExecutor(params=params, config=config)
    t0 = time.perf_counter()
    result = executor.run([dense])
    dense_s = time.perf_counter() - t0
    dense_events = executor.system.sim.events_processed
    words = result.jobs[0].words_out
    return {
        "executor.setup_ms": _ms(setup),
        "executor.run_ms": _ms(run),
        "executor.first_sample_ms_p50": _ms(first),
        "executor.stream_ms_p50": _ms(stream),
        "executor.sim_us_per_job": stats.median(sim_us),
        "executor.dense_us_per_word": dense_s * 1e6 / words,
        "sim.events_per_job": stats.median(events),
        "sim.fastpath_edges_per_job": stats.median(edges),
        "sim.events_per_word": dense_events / words,
        "sim.ns_per_event": dense_s * 1e9 / dense_events,
        "obs.spans_per_job": stats.median(spans),
    }


def admission_probe(seed: int) -> Dict[str, float]:
    """enqueue -> next_decision -> occupy -> release on a standalone
    ``AdmissionController``, replaying soak jobs one at a time."""
    from repro.runtime.admission import AdmissionController, AdmissionDecision
    from repro.runtime.jobs import Job

    params = frontdoor.References().params
    controller = AdmissionController(params, allow_preemption=False)
    jobs = [Job(spec, index=i) for i, spec in
            enumerate(frontdoor.soak_specs(seed, "a", ADMISSION_DECISIONS))]
    start = time.perf_counter()
    for job in jobs:
        controller.enqueue(job, 0.0)
        picked, result = controller.next_decision(0.0, [])
        if result.decision is not AdmissionDecision.ADMIT:
            raise RuntimeError(f"admission refused {job.spec.name}")
        controller.occupy(picked, result.assignment)
        controller.release(picked)
    elapsed = time.perf_counter() - start
    return {"admission.us_per_decision": elapsed * 1e6 / len(jobs)}


def kernel_probe() -> Dict[str, float]:
    """A heap-only ``Simulator`` tick loop (the fast path never engages)."""
    from repro.sim.kernel import Simulator

    sim = Simulator(use_fastpath=False)

    def tick() -> None:
        sim.schedule(1_000, tick)

    for _ in range(KERNEL_CHAINS):
        sim.schedule(1_000, tick)
    start = time.perf_counter()
    sim.run_until((KERNEL_EVENTS // KERNEL_CHAINS) * 1_000)
    elapsed = time.perf_counter() - start
    return {"kernel.events_per_s": sim.events_processed / elapsed}


def _fig5_system():
    from repro.core.params import SystemParameters
    from repro.core.system import VapresSystem
    from repro.modules import Iom, MovingAverage
    from repro.modules.base import staged
    from repro.modules.sources import sine_wave

    params = replace(SystemParameters.prototype(), pr_speedup=FIG5_SPEEDUP)
    system = VapresSystem(params)
    iom = Iom("io0", source=sine_wave(count=10_000_000))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(MovingAverage("filterA", window=4),
                                 "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=4))
    )
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    return system, iom, ch_in, ch_out


def datapath_probe() -> Dict[str, float]:
    """Figure-5 IOM -> MovingAverage -> IOM steady state."""
    system, iom, _, _ = _fig5_system()
    system.run_for_cycles(2_000)  # fill the pipeline
    rates, words = [], 0
    for _ in range(DATAPATH_SLICES):
        before = len(iom.received)
        start = time.perf_counter()
        system.run_for_cycles(DATAPATH_CYCLES)
        rates.append(DATAPATH_CYCLES / (time.perf_counter() - start))
        words += len(iom.received) - before
    return {
        "datapath.cycles_per_s": stats.median(rates),
        "datapath.words_per_cycle": words / (DATAPATH_CYCLES * DATAPATH_SLICES),
    }


def switch_probe() -> Dict[str, float]:
    """One Figure-5 ``ModuleSwitcher.switch`` (core.switching + pr +
    control/ICAP), on a fresh system each time."""
    from repro.core.switching import ModuleSwitcher

    host, lost, reconfig = [], 0, 0.0
    for _ in range(SWITCHES):
        system, _, ch_in, ch_out = _fig5_system()
        system.run_for_us(30)
        start = time.perf_counter()
        report = system.microblaze.run_to_completion(
            ModuleSwitcher(system).switch(
                old_prr="rsb0.prr0", new_prr="rsb0.prr1",
                new_module="filterB", upstream_slot="rsb0.iom0",
                downstream_slot="rsb0.iom0",
                input_channel=ch_in, output_channel=ch_out,
            ),
            "switch",
        )
        host.append(time.perf_counter() - start)
        lost += report.words_lost
        reconfig = report.reconfig_seconds * FIG5_SPEEDUP * 1e3
    return {
        "switch.host_ms": _ms(host),
        "switch.words_lost": float(lost),
        "switch.reconfig_ms": reconfig,
    }


def in_process_probes(seed: int) -> Dict[str, float]:
    out: Dict[str, float] = {}
    out.update(executor_probe(seed))
    out.update(admission_probe(seed))
    out.update(kernel_probe())
    out.update(datapath_probe())
    out.update(switch_probe())
    return out
