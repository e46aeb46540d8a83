"""Workload definitions shared across benchmark entry points.

The committed experiment benchmarks (``benchmarks/bench_runtime_fleet.py``,
``benchmarks/bench_pool_soak.py``) and the gated ``repro.bench`` cases
must measure the *same* job batches, or a drift in one copy silently
changes what a regression means.  This module is the single source of
truth:

* :func:`fleet_jobs` -- the RT-FLEET batch: 8 independent stream jobs
  with a rotating stage mix, served by :func:`repro.pool.run_batch`.
* :func:`soak_jobs` -- the pool-soak batch: many tiny jobs shaped like
  ``examples/jobfiles/pool_soak.json``, sized so thousands of them can
  be in flight at once against an overcommitted 4-device pool.

Both builders return plain :class:`StreamJob` specs; callers pick the
executor.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.core.params import SystemParameters
from repro.runtime import ExecutorConfig, SourceSpec, StageSpec, StreamJob

#: Jobs in the RT-FLEET batch (fixed: committed baselines depend on it).
FLEET_JOBS = 8

_FLEET_STAGE_SETS = [
    [StageSpec("moving_average", {"window": 4})],
    [StageSpec("abs")],
    [StageSpec("delta_encoder")],
    [StageSpec("scaler", {"gain": 2})],
]

_SOAK_STAGE_SETS = [
    [StageSpec("passthrough")],
    [StageSpec("scaler", {"gain": 3})],
    [StageSpec("crc32")],
    [StageSpec("moving_average", {"window": 4})],
    [StageSpec("abs")],
]

_SOAK_SOURCES = [
    ("ramp", None),
    ("sine", {"period": 4}),
    ("noise", None),
]


def fleet_params() -> SystemParameters:
    """Fast simulated reconfiguration; the fleet bench measures
    wall-clock serving, not PR latency."""
    return replace(SystemParameters.prototype(), pr_speedup=1000.0)


def fleet_config() -> ExecutorConfig:
    return ExecutorConfig(quantum_us=25.0, max_us=100_000.0)


def fleet_jobs(words: int, jobs: int = FLEET_JOBS) -> List[StreamJob]:
    """The RT-FLEET batch: ``jobs`` independent sine-fed stream jobs."""
    return [
        StreamJob(
            name=f"fleet{i}",
            stages=list(_FLEET_STAGE_SETS[i % len(_FLEET_STAGE_SETS)]),
            source=SourceSpec("sine", count=words, params={"period": 64}),
        )
        for i in range(jobs)
    ]


def soak_params() -> SystemParameters:
    """Near-instant simulated PR so per-job cost is dominated by the
    executor/pool machinery the soak actually exercises."""
    return replace(SystemParameters.prototype(), pr_speedup=20_000.0)


def soak_config() -> ExecutorConfig:
    return ExecutorConfig(quantum_us=5.0, idle_streak=1, max_us=100_000.0)


def soak_jobs(count: int, words: int = 8, prefix: str = "soak") -> List[StreamJob]:
    """``count`` tiny jobs with the pool_soak.json stage/source rotation."""
    specs = []
    for i in range(count):
        kind, params = _SOAK_SOURCES[i % len(_SOAK_SOURCES)]
        specs.append(
            StreamJob(
                name=f"{prefix}-{i:05d}",
                priority=i % 3,
                stages=list(_SOAK_STAGE_SETS[i % len(_SOAK_STAGE_SETS)]),
                source=SourceSpec(kind, count=words, params=params or {}),
            )
        )
    return specs
