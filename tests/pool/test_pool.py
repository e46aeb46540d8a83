"""DevicePool behaviour: determinism, stealing, device loss, recovery.

All tests run inline workers (threads) -- the code path is identical to
process workers minus the pickling boundary, and a 1-core CI host gains
nothing from real processes (one cross-mode test lives in
test_server).
"""

import asyncio
import itertools
from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.pool import DevicePool, PoolError
from repro.runtime import ExecutorConfig, JobExecutor
from repro.runtime.jobs import SourceSpec, StageSpec, StreamJob

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=5.0, idle_streak=1, max_us=100_000.0)


def tiny_job(name, stages=1, count=8, **kwargs):
    return StreamJob(
        name=name,
        stages=[StageSpec("passthrough") for _ in range(stages)],
        source=SourceSpec("ramp", count=count),
        **kwargs,
    )


def make_pool(devices=2, **kwargs):
    kwargs.setdefault("params", FAST)
    kwargs.setdefault("config", CONFIG)
    kwargs.setdefault("use_processes", False)
    return DevicePool(devices=devices, **kwargs)


async def run_pool(specs, devices=2, pool_kwargs=None, mid_run=None):
    """Submit specs, optionally poke the pool mid-run, drain, stop."""
    pool = make_pool(devices=devices, **(pool_kwargs or {}))
    await pool.start()
    jobs = [pool.submit(spec) for spec in specs]
    if mid_run is not None:
        await mid_run(pool)
    await pool.drain()
    await pool.stop(drain=False)
    return pool, jobs


def fingerprint(job):
    """The determinism contract: what must not depend on placement."""
    r = job.report
    return (job.spec.name, job.state, r.state, r.words_out, r.words_lost,
            r.run_us, r.max_gap_us)


# ----------------------------------------------------------------------
def test_pool_runs_batch_to_done():
    specs = [tiny_job(f"j{i}") for i in range(10)]
    pool, jobs = asyncio.run(run_pool(specs, devices=2))
    assert all(job.state == "done" for job in jobs)
    summary = pool.summary()
    assert summary["states"] == {"done": 10}
    assert summary["words_lost"] == 0
    assert all(job.first_sample_t is not None for job in jobs)


def test_pool_results_match_single_device_and_fleet():
    """Differential determinism: 4-device overcommitted pool ==
    1-device pool == each job run solo on its own JobExecutor."""
    specs = [
        tiny_job(f"d{i}", stages=1 + i % 2, count=6 + i) for i in range(8)
    ]
    pool4, jobs4 = asyncio.run(run_pool(specs, devices=4))
    pool1, jobs1 = asyncio.run(run_pool(specs, devices=1))
    by_name = {
        spec.name: JobExecutor(params=FAST, config=CONFIG).run([spec]).jobs[0]
        for spec in specs
    }
    for j4, j1 in zip(jobs4, jobs1):
        assert fingerprint(j4) == fingerprint(j1)
        f = by_name[j4.spec.name]
        assert j4.report.words_out == f.words_out
        assert j4.report.max_gap_us == f.max_gap_us
        assert j4.report.state == f.state
    # the 4-device run really did spread work around
    assert len({j.device_id for j in jobs4}) > 1


def test_reports_carry_submission_index():
    """A served job's report index is its pool job id (submission
    order), so ``/jobs`` done events name distinct, ordered jobs."""
    specs = [tiny_job(f"ix{i}") for i in range(6)]
    _, jobs = asyncio.run(run_pool(specs, devices=2))
    assert [job.id for job in jobs] == list(range(6))
    assert [job.report.index for job in jobs] == list(range(6))


def test_overcommit_grants_beyond_physical_but_binds_within():
    """With overcommit 2.0 a 2-PRR device holds 4 granted vPRRs, yet
    at most 2 are ever bound (the admission ledger enforces it)."""
    async def scenario():
        pool = make_pool(devices=1, overcommit=2.0)
        await pool.start()
        for i in range(8):
            pool.submit(tiny_job(f"oc{i}"))
        device = pool.devices[0]
        assert device.vprr_capacity == 4
        assert device.vprr_granted <= 4
        assert len(pool._pending) == 8 - device.vprr_granted
        bound = [
            v.physical for job in device.live.values() for v in job.vprrs
        ]
        assert len(bound) <= 2 and len(bound) == len(set(bound))
        await pool.drain()
        await pool.stop(drain=False)
        return pool
    pool = asyncio.run(scenario())
    assert pool.summary()["states"] == {"done": 8}


def test_no_overcommit_with_ratio_one():
    async def scenario():
        pool = make_pool(devices=1, overcommit=1.0)
        await pool.start()
        for i in range(6):
            pool.submit(tiny_job(f"nc{i}"))
        assert pool.devices[0].vprr_granted <= 2  # = physical PRRs
        await pool.drain()
        await pool.stop(drain=False)
    asyncio.run(scenario())


def test_work_stealing_rebalances_and_preserves_results():
    """Hold device 0's worker dispatches at the bridge so its backlog
    cannot drain: device 1 empties its own queue, the skew crosses the
    threshold, and the backlog must be stolen across.  Gating the
    bridge (not racing wall-clock threads) keeps the test
    deterministic on a 1-core host -- and the results must equal a
    calm single-device run of the same specs."""
    # 8 jobs exactly fill both grant ceilings (2 devices x overcommit
    # 2.0 x 2 PRRs), so no pool-pending placement masks the skew
    specs = [tiny_job(f"s{i}", count=6) for i in range(8)]

    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        held, gate_open = [], False
        real_submit = pool.bridge.submit

        def gated_submit(worker_id, job_id, spec, ctx=None):
            if worker_id == 0 and not gate_open:
                held.append((worker_id, job_id, spec, ctx))
            else:
                real_submit(worker_id, job_id, spec, ctx)

        pool.bridge.submit = gated_submit
        jobs = [pool.submit(spec) for spec in specs]
        for _ in range(2000):  # device 1 drains, then steals fire
            if pool.steals_total > 0:
                break
            await asyncio.sleep(0.005)
        gate_open = True
        for args in held:
            real_submit(*args)
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs

    pool2, jobs2 = asyncio.run(scenario())
    assert all(job.state == "done" for job in jobs2)
    assert pool2.steals_total > 0
    assert pool2.metrics.value("repro_pool_steals_total") == (
        pool2.steals_total
    )
    stolen = [j for j in jobs2 if j.steals > 0]
    assert stolen and all(j.device_id == 1 for j in stolen)
    pool1, jobs1 = asyncio.run(run_pool(specs, devices=1))
    for ja, jb in zip(jobs2, jobs1):
        assert fingerprint(ja) == fingerprint(jb)


def test_device_loss_requeues_queued_and_drains_bound():
    specs = [tiny_job(f"l{i}", count=6) for i in range(12)]
    seen = {}

    async def poke(pool):
        sub = pool.subscribe()
        pool.mark_device_lost(0, reason="test-loss")
        while not sub.empty():
            event = sub.get_nowait()
            seen.setdefault(event["event"], 0)
            seen[event["event"]] += 1
        pool.unsubscribe(sub)

    pool, jobs = asyncio.run(run_pool(specs, devices=2, mid_run=poke))
    assert all(job.state == "done" for job in jobs)
    assert seen.get("device_lost") == 1
    assert pool.requeues_total > 0
    # everything after the loss ran on the surviving device
    lost_jobs = [j for j in jobs if j.requeues > 0]
    assert lost_jobs and all(j.device_id == 1 for j in lost_jobs)


def test_quarantine_of_all_prrs_loses_device_and_recovery_rejoins():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        for i in range(8):
            pool.submit(tiny_job(f"q{i}", count=6))
        device = pool.devices[0]
        for prr in device.physical_prrs:
            pool.quarantine_prr(0, prr)
        assert device.lost and device.lost_reason == "quarantine"
        # scrub-verified recovery: capacity returns, device rejoins
        assert not pool.release_quarantine(
            0, device.physical_prrs[0], scrub_verified=False
        )
        assert device.lost
        assert pool.release_quarantine(0, device.physical_prrs[0])
        assert not device.lost
        pool.submit(tiny_job("after-recovery", count=6))
        await pool.drain()
        await pool.stop(drain=False)
        return pool
    pool = asyncio.run(scenario())
    assert pool.summary()["states"] == {"done": 9}
    assert pool.strict_ok


def test_all_devices_lost_fails_pending():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        jobs = [pool.submit(tiny_job(f"x{i}")) for i in range(6)]
        pool.mark_device_lost(0, reason="unplugged")
        await pool.drain()
        await pool.stop(drain=False)
        return pool, jobs
    pool, jobs = asyncio.run(scenario())
    failed = [j for j in jobs if j.state == "failed"]
    assert failed and all(
        "no healthy devices" in j.failure_reason for j in failed
    )
    assert not pool.strict_ok


def test_duplicate_active_name_and_draining_are_rejected():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        pool.submit(tiny_job("dup"))
        with pytest.raises(PoolError, match="already active"):
            pool.submit(tiny_job("dup"))
        await pool.drain()
        with pytest.raises(PoolError, match="draining"):
            pool.submit(tiny_job("late"))
        await pool.stop(drain=False)
    asyncio.run(scenario())


def test_too_wide_job_fails_immediately():
    async def scenario():
        pool = make_pool(devices=1)
        await pool.start()
        job = pool.submit(tiny_job("wide", stages=3))  # prototype: 2 PRRs
        await pool.drain()
        await pool.stop(drain=False)
        return job
    job = asyncio.run(scenario())
    assert job.state == "failed"
    assert "widest healthy device" in job.failure_reason


def test_fake_clock_drives_all_timestamps():
    ticks = itertools.count(start=1000.0, step=0.5)

    async def scenario():
        pool = make_pool(devices=1, clock=lambda: next(ticks))
        await pool.start()
        sub = pool.subscribe()
        job = pool.submit(tiny_job("clocked"))
        await pool.drain()
        await pool.stop(drain=False)
        events = []
        while not sub.empty():
            events.append(sub.get_nowait())
        return pool, job, events
    _pool, job, events = asyncio.run(scenario())
    assert job.submitted_t >= 1000.0
    assert job.first_sample_t > job.submitted_t
    assert job.finished_t > job.first_sample_t
    stamps = [e["t"] for e in events]
    assert stamps == sorted(stamps)
    assert all(t >= 1000.0 and (t * 2) == int(t * 2) for t in stamps)
    latency = next(
        e for e in events if e["event"] == "first_sample"
    )["latency_s"]
    assert latency == job.first_sample_t - job.submitted_t


def test_pool_gauges_track_occupancy_and_tenants():
    async def scenario():
        pool = make_pool(devices=2)
        await pool.start()
        for i in range(6):
            pool.submit(tiny_job(f"m{i}"), tenant=f"t{i % 2}")
        depth = pool.metrics.value(
            "repro_pool_tenant_queue_depth", {"tenant": "t0"}
        )
        pressure = pool.metrics.value("repro_pool_overcommit_pressure")
        occupancy = pool.metrics.value(
            "repro_pool_vprr_occupancy", {"device": "0"}
        )
        await pool.drain()
        await pool.stop(drain=False)
        return depth, pressure, occupancy, pool
    depth, pressure, occupancy, pool = asyncio.run(scenario())
    assert depth is not None and depth >= 0
    assert pressure > 0  # overbooked or at least occupied at burst time
    assert occupancy > 0
    # settled back to idle after the drain
    assert pool.metrics.value("repro_pool_overcommit_pressure") == 0.0
