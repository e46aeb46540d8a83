"""Differential tests: fast path vs event heap on full system scenarios.

These are the acceptance tests for the compiled-schedule engine: the
complete Figure 5 switching methodology and a runtime fleet batch are
executed twice -- once with the fast path, once on the pure event heap --
and every externally observable result must be identical: received
words and their timestamps, methodology steps, words lost, job
telemetry, the Prometheus exposition of every simulated metric, final
simulation time and the processed-event count.
"""

from dataclasses import replace

from repro.core.params import SystemParameters
from repro.core.switching import ModuleSwitcher
from repro.modules import Iom, MovingAverage
from repro.modules.base import staged
from repro.modules.sources import sine_wave
from repro.obs.export import prometheus_text
from repro.runtime import (
    ExecutorConfig,
    JobExecutor,
    SourceSpec,
    StageSpec,
    StreamJob,
)


#: metric families measured in host wall time, not simulated time
WALL_TIME_FAMILIES = ("repro_executor_quantum_seconds",)


def simulated_metrics(registry):
    text = prometheus_text(registry)
    assert "repro_fifo_occupancy_bucket" in text
    return [
        line for line in text.splitlines()
        if not any(family in line for family in WALL_TIME_FAMILIES)
    ]


def run_fig5(fastpath):
    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    from repro.core.system import VapresSystem

    system = VapresSystem(params)
    system.sim.set_fastpath(fastpath)
    system.bind_metrics()
    iom = Iom("io0", source=sine_wave(count=10_000_000))
    system.attach_iom("rsb0.iom0", iom)
    system.place_module_directly(MovingAverage("filterA", window=4), "rsb0.prr0")
    ch_in = system.open_stream("rsb0.iom0", "rsb0.prr0")
    ch_out = system.open_stream("rsb0.prr0", "rsb0.iom0")
    system.register_module(
        "filterB", lambda: staged(MovingAverage("filterB", window=4))
    )
    system.repository.preload_to_sdram("filterB", "rsb0.prr1")
    system.run_for_us(20)
    report = system.microblaze.run_to_completion(
        ModuleSwitcher(system).switch(
            old_prr="rsb0.prr0",
            new_prr="rsb0.prr1",
            new_module="filterB",
            upstream_slot="rsb0.iom0",
            downstream_slot="rsb0.iom0",
            input_channel=ch_in,
            output_channel=ch_out,
        ),
        "switch",
    )
    system.run_for_us(20)
    return {
        "received": list(iom.received),
        "receive_times": list(iom.receive_times),
        "emit_times": list(iom.emit_times),
        "steps": [s for s, _, _ in report.steps],
        "words_lost": report.words_lost,
        "state_words": list(report.state_words),
        "reconfig_seconds": report.reconfig_seconds,
        "now": system.sim.now,
        "events_processed": system.sim.events_processed,
        "cycles": system.system_clock.cycles,
        "metrics": simulated_metrics(system.sim.metrics),
    }


def test_fig5_switch_identical_under_fastpath():
    heap = run_fig5(fastpath=False)
    fast = run_fig5(fastpath=True)
    assert fast == heap
    assert heap["steps"] == list(range(1, 10))
    assert heap["words_lost"] == 0


def run_fleet(fastpath):
    params = replace(SystemParameters.prototype(), pr_speedup=1000.0)
    config = ExecutorConfig(
        quantum_us=25.0, max_us=100_000.0, use_fastpath=fastpath
    )
    executor = JobExecutor(params=params, config=config)
    jobs = [
        StreamJob(
            name="j0",
            stages=[StageSpec("moving_average", {"window": 4})],
            source=SourceSpec("sine", count=300, params={"period": 64}),
        ),
        StreamJob(
            name="j1",
            stages=[StageSpec("delta_encoder")],
            source=SourceSpec("sine", count=300, params={"period": 64}),
        ),
    ]
    report = executor.run(jobs)
    data = report.to_dict()
    data.pop("wall_seconds", None)
    for job in data.get("jobs", []):
        job.pop("wall_seconds", None)
    data["metrics"] = simulated_metrics(report.metrics)
    return data, executor.system.sim


def test_fleet_serving_identical_under_fastpath():
    heap, sim_h = run_fleet(fastpath=False)
    fast, sim_f = run_fleet(fastpath=True)
    assert fast == heap
    assert sim_f.now == sim_h.now
    assert sim_f.events_processed == sim_h.events_processed
    assert sim_f.fastpath_stats["edges"] > 0
    assert sim_h.fastpath_stats["edges"] == 0
