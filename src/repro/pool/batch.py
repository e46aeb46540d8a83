"""Synchronous batch serving through the device pool.

:func:`run_batch` is the one runner for a batch of independent jobs:
fleet-mode ``serve``, fleet-mode fault campaigns and the RT-FLEET
benchmark.  Every job runs single-tenant on a fresh simulated system
seeded from its own name, so the device count changes only where
(``shard``) and when a job ran, never what it computed.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional, Sequence

from repro.core.params import SystemParameters
from repro.pool.devices import DevicePool, PoolJob
from repro.runtime.executor import ExecutorConfig
from repro.runtime.jobs import JobError, JobState, StreamJob
from repro.runtime.telemetry import FleetReport, JobReport


def run_batch(
    specs: Sequence[StreamJob],
    workers: int = 1,
    params: Optional[SystemParameters] = None,
    config: Optional[ExecutorConfig] = None,
    use_processes: bool = True,
) -> FleetReport:
    """Serve ``specs`` on a pool of ``min(workers, len(specs))`` devices
    and fold the finished jobs into a ``FleetReport(mode="fleet")``.

    A lone device runs on a thread worker (nothing to parallelise);
    more devices use process workers unless ``use_processes`` is off.
    """
    if workers < 1:
        raise JobError("workers must be >= 1")
    specs = list(specs)
    if len({spec.name for spec in specs}) != len(specs):
        raise JobError("job names must be unique")
    devices = max(1, min(workers, len(specs)))
    started = time.perf_counter()

    async def serve():
        pool = DevicePool(
            devices=devices,
            params=params or SystemParameters.prototype(),
            config=config,
            use_processes=use_processes and devices > 1,
        )
        await pool.start()
        jobs = [pool.submit(spec) for spec in specs]
        await pool.stop()
        return pool, jobs

    pool, jobs = asyncio.run(serve())
    return _fold(pool, jobs, time.perf_counter() - started)


def _unrun_report(job: PoolJob) -> JobReport:
    """FAILED report of a job no worker ran (refused at submit or
    aborted by fail-fast), carrying the pool's failure reason."""
    spec = job.spec
    return JobReport(
        name=spec.name,
        span_track=f"job/{spec.name}",
        index=job.id,
        shard=job.device_id or 0,
        state=JobState.FAILED.value,
        priority=spec.priority,
        stages=len(spec.stages),
        words_in=spec.source.count,
        failure_reason=job.failure_reason,
    )


def _fold(
    pool: DevicePool, jobs: List[PoolJob], wall_seconds: float
) -> FleetReport:
    runs = [job.run for job in jobs if job.run is not None]
    device_sim_us: Dict[int, float] = {}  # a device runs jobs in turn
    for run in runs:
        shard = run.jobs[0].shard
        device_sim_us[shard] = device_sim_us.get(shard, 0.0) + run.sim_us
    return FleetReport(
        mode="fleet",
        workers=len(pool.devices),
        jobs=[job.report or _unrun_report(job) for job in jobs],
        wall_seconds=wall_seconds,
        sim_us=max(device_sim_us.values(), default=0.0),
        icap_busy_fraction=max(
            (run.icap_busy_fraction for run in runs), default=0.0
        ),
        preemptions=sum(run.preemptions for run in runs),
        compaction_runs=sum(run.compaction_runs for run in runs),
        compaction_moves=sum(run.compaction_moves for run in runs),
        compaction_words_lost=sum(
            run.compaction_words_lost for run in runs
        ),
        # fresh simulator per job and track-qualified spans: (time,
        # track, seq) is a total order whatever the placement
        span_events=sorted(
            (e for shard in pool.device_shards().values() for e in shard),
            key=lambda e: (e.time_ps, e.track, e.seq),
        ),
        # finished jobs' registries only: no repro_pool_* families
        metrics=pool.aggregator.merged(),
    )
