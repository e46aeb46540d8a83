"""Experiment RT-FLEET: parallel fleet serving scales with workers.

Serves the same batch of independent stream jobs through
:func:`repro.pool.run_batch` on one device and on four (process
workers), and measures the wall-clock speedup.  Because each job runs
single-tenant on its own simulated VAPRES instance, spreading jobs over
devices is embarrassingly parallel: with 4 workers on >= 4 cores the
8-job batch should complete at least 2x faster than serially, with
bit-identical per-job telemetry.

The batch itself lives in :mod:`repro.bench.workloads` and is shared
with the gated ``repro.bench`` fleet cases and the pool soak, so every
entry point measures the same jobs.

``REPRO_FLEET_BENCH_WORDS`` scales the per-job stream length (CI smoke
uses a small value; the default exercises a meatier batch).
"""

import os

from repro.bench.workloads import (
    FLEET_JOBS,
    fleet_config,
    fleet_jobs,
    fleet_params,
)
from repro.pool import run_batch

JOBS = FLEET_JOBS
WORDS = int(os.environ.get("REPRO_FLEET_BENCH_WORDS", "4000"))
PARAMS = fleet_params()
CONFIG = fleet_config()


def make_jobs():
    return fleet_jobs(WORDS)


def serve(workers):
    report = run_batch(make_jobs(), workers, PARAMS, CONFIG)
    assert report.states == {"DONE": JOBS}, report.states
    return report


def test_fleet_scaling(benchmark):
    quad = benchmark.pedantic(lambda: serve(4), rounds=1, iterations=1)
    single = serve(1)
    speedup = single.wall_seconds / quad.wall_seconds

    # spreading jobs over devices must not change any job's results
    for a, b in zip(single.jobs, quad.jobs):
        da, db = a.to_dict(), b.to_dict()
        da.pop("shard"), db.pop("shard")
        assert da == db

    print()
    print(f"RT-FLEET: {JOBS} jobs x {WORDS} words")
    print(f"  workers=1: {single.wall_seconds:.2f}s")
    print(f"  workers=4: {quad.wall_seconds:.2f}s  (speedup {speedup:.2f}x)")
    benchmark.extra_info["RT-FLEET:jobs"] = JOBS
    benchmark.extra_info["RT-FLEET:words"] = WORDS
    benchmark.extra_info["RT-FLEET:wall_w1_s"] = single.wall_seconds
    benchmark.extra_info["RT-FLEET:wall_w4_s"] = quad.wall_seconds
    benchmark.extra_info["RT-FLEET:speedup"] = speedup

    # parallel speedup needs parallel hardware: on a single usable core
    # the 4-device run can only tie (minus fork overhead), so the scaling
    # assertions are gated on core count; the results-identity check
    # above always runs.
    try:
        usable_cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cores = os.cpu_count() or 1
    benchmark.extra_info["RT-FLEET:usable_cores"] = usable_cores
    if usable_cores >= 2:
        assert speedup > 1.0, "fleet sharding made things slower"
    if usable_cores >= 4:
        assert speedup >= 2.0, (
            f"expected >= 2x speedup on {usable_cores} cores, "
            f"got {speedup:.2f}x"
        )
