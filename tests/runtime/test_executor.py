"""End-to-end tests for the colocated executor and the fleet runner.

These run real simulations (MicroBlaze software, ICAP reconfiguration,
switch-box channels), so sources are kept small.
"""

from dataclasses import replace

import pytest

from repro.core.params import SystemParameters
from repro.pool import run_batch
from repro.runtime import (
    ExecutorConfig,
    JobError,
    JobExecutor,
    SourceSpec,
    StageSpec,
    StreamJob,
)

FAST = replace(SystemParameters.prototype(), pr_speedup=20_000.0)
FAST_FIG7 = replace(SystemParameters.figure7(), pr_speedup=20_000.0)
CONFIG = ExecutorConfig(quantum_us=10.0, max_us=5_000.0)


def ramp_job(name, count=120, **kwargs):
    return StreamJob(
        name=name,
        stages=kwargs.pop("stages", [StageSpec("passthrough")]),
        source=SourceSpec("ramp", count=count),
        **kwargs,
    )


def run_colocated(jobs, params=FAST, **kwargs):
    executor = JobExecutor(params=params, config=CONFIG, **kwargs)
    return executor.run(jobs), executor


# ----------------------------------------------------------------------
def test_single_job_runs_to_done():
    report, executor = run_colocated([ramp_job("solo")])
    job = report.job("solo")
    assert job.state == "DONE"
    assert job.words_out == 120
    assert job.throughput_words_per_s > 0
    assert not job.interrupted
    assert report.ok
    assert 0 < report.icap_busy_fraction <= 1.0


def test_multi_stage_chain_produces_output():
    report, _ = run_colocated([
        ramp_job("twostage", stages=[StageSpec("abs"), StageSpec("scaler")]),
    ])
    job = report.job("twostage")
    assert job.state == "DONE"
    assert job.stages == 2
    assert job.words_out > 0


def test_two_jobs_share_system_serially():
    """One IOM: the second job waits for the first to finish."""
    report, _ = run_colocated([
        ramp_job("front", count=150),
        ramp_job("back", count=100),
    ])
    assert report.states == {"DONE": 2}
    back = report.job("back")
    assert back.queue_wait_us > 0  # had to wait for the IOM


def test_preemption_evicts_and_preserves_survivor():
    """Figure-5 drain: the victim is evicted mid-stream, the surviving
    high-priority stream sees no interruption."""
    jobs = [
        StreamJob(
            name="keeper", priority=5, preemptible=False,
            stages=[StageSpec("moving_average")],
            source=SourceSpec("sine", count=4000),
        ),
        StreamJob(
            name="victim", priority=1,
            stages=[StageSpec("crc32")],
            source=SourceSpec("ramp", count=4000),
        ),
        StreamJob(
            name="urgent", priority=5, arrival_us=25.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=200),
        ),
    ]
    executor = JobExecutor(params=FAST_FIG7, config=CONFIG)
    report = executor.run(jobs)
    assert executor.preemptions == 1
    victim = report.job("victim")
    assert victim.state == "EVICTED"
    assert victim.evictions == 1
    assert victim.drained  # went through the Figure-5 drain path
    assert victim.state_words == 1  # crc32 checkpointed its register
    assert "evicted by higher-priority job 'urgent'" in victim.failure_reason
    keeper = report.job("keeper")
    assert keeper.state == "DONE"
    assert not keeper.interrupted  # zero-interruption survivor
    assert report.job("urgent").state == "DONE"


def test_requeue_on_eviction_runs_again():
    jobs = [
        StreamJob(
            name="patient", priority=1, requeue_on_eviction=True,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=2500),
        ),
        StreamJob(
            name="vip", priority=9, arrival_us=15.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=150),
        ),
    ]
    report, executor = run_colocated(jobs)  # prototype: single IOM
    assert executor.preemptions == 1
    patient = report.job("patient")
    assert patient.state == "DONE"  # evicted, requeued, finished
    assert patient.evictions == 1
    assert report.job("vip").state == "DONE"


def test_deadline_miss_fails_job():
    report, _ = run_colocated([
        ramp_job("rushed", count=50_000, deadline_us=60.0),
    ])
    job = report.job("rushed")
    assert job.state == "FAILED"
    assert "deadline" in job.failure_reason
    assert not report.ok


def test_infeasible_job_rejected_not_hung():
    report, _ = run_colocated([
        ramp_job("whale", stages=[StageSpec("abs")] * 3),  # 3 > 2 PRRs
        ramp_job("minnow", count=80),
    ])
    whale = report.job("whale")
    assert whale.state == "FAILED"
    assert "rejected at admission" in whale.failure_reason
    assert report.job("minnow").state == "DONE"


def test_budget_exhaustion_fails_stragglers():
    config = ExecutorConfig(quantum_us=10.0, max_us=120.0)
    executor = JobExecutor(params=FAST, config=config)
    report = executor.run([ramp_job("endless", count=1_000_000)])
    job = report.job("endless")
    assert job.state == "FAILED"
    assert "budget" in job.failure_reason


def test_executor_config_validation():
    with pytest.raises(JobError):
        ExecutorConfig(quantum_us=0.0)
    with pytest.raises(JobError):
        ExecutorConfig.from_dict({"quantum_us": 10.0, "warp": 9})


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------
def test_fleet_merges_in_submission_order():
    jobs = [ramp_job(f"job{i}", count=80 + 10 * i) for i in range(5)]
    report = run_batch(jobs, 3, FAST, CONFIG, use_processes=False)
    assert [j.name for j in report.jobs] == [f"job{i}" for i in range(5)]
    assert [j.index for j in report.jobs] == list(range(5))
    assert report.states == {"DONE": 5}
    assert {j.shard for j in report.jobs} == {0, 1, 2}


def test_fleet_rejects_duplicate_names():
    with pytest.raises(JobError, match="unique"):
        run_batch([ramp_job("dup"), ramp_job("dup")], 2, FAST,
                  use_processes=False)


def test_fleet_worker_count_is_clamped():
    report = run_batch([ramp_job("only", count=60)], 8, FAST, CONFIG,
                       use_processes=False)
    assert report.workers == 1  # one job, one device
    with pytest.raises(JobError):
        run_batch([ramp_job("only", count=60)], 0)


def test_fleet_reports_a_job_no_device_can_hold():
    wide = [StageSpec("passthrough") for _ in range(3)]
    report = run_batch(
        [ramp_job("fits", count=60), ramp_job("too-wide", stages=wide)],
        1, FAST, CONFIG, use_processes=False,
    )
    refused = report.job("too-wide")
    assert (refused.state, refused.index, refused.stages) == ("FAILED", 1, 3)
    assert refused.failure_reason == (
        "needs 3 PRRs but the widest healthy device has 2"
    )
    assert report.job("fits").state == "DONE"


def test_fleet_real_processes_match_inline():
    """Real multiprocessing returns the same reports as in-process."""
    jobs = [ramp_job(f"p{i}", count=60) for i in range(4)]
    inline = run_batch(jobs, 2, FAST, CONFIG, use_processes=False)
    forked = run_batch(jobs, 2, FAST, CONFIG, use_processes=True)
    for a, b in zip(inline.jobs, forked.jobs):
        da, db = a.to_dict(), b.to_dict()
        # which device ran a job depends on worker timing
        da.pop("shard"), db.pop("shard")
        assert da == db


# ----------------------------------------------------------------------
# fail-fast and the first-sample hook
# ----------------------------------------------------------------------
def test_fail_fast_colocate_aborts_remaining_jobs():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("casualty", count=4000),
    ]
    config = replace(CONFIG, fail_fast=True)
    executor = JobExecutor(params=FAST, config=config)
    report = executor.run(jobs)
    assert report.job("rushed").state == "FAILED"
    casualty = report.job("casualty")
    assert casualty.state == "FAILED"
    assert "aborted by fail-fast" in casualty.failure_reason
    assert "rushed" in casualty.failure_reason
    assert not report.strict_ok


def test_fail_fast_fleet_skips_rest_of_shard():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("never-ran", count=100),
    ]
    config = replace(CONFIG, fail_fast=True)
    report = run_batch(jobs, 1, FAST, config, use_processes=False)
    skipped = report.job("never-ran")
    assert skipped.state == "FAILED"
    assert "aborted by fail-fast" in skipped.failure_reason
    assert skipped.words_out == 0  # synthesised report; job never ran


def test_fail_fast_is_pool_wide():
    """The first failure aborts every job that has not started on any
    device; a job already running on another device finishes.  Each
    job needs both PRRs of a device, so the queued jobs are never bound
    while the first two run, and never reach a worker."""
    wide = [StageSpec("passthrough"), StageSpec("passthrough")]
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0, stages=wide),
        ramp_job("runner", count=4000, stages=list(wide)),
    ] + [ramp_job(f"queued{i}", stages=list(wide)) for i in range(4)]
    config = replace(CONFIG, fail_fast=True)
    report = run_batch(jobs, 2, FAST, config, use_processes=False)
    assert report.job("rushed").state == "FAILED"
    assert report.job("runner").state == "DONE"
    traced = {event.track.split("/")[1] for event in report.span_events}
    assert {"rushed", "runner"} <= traced
    for i in range(4):
        queued = report.job(f"queued{i}")
        assert queued.state == "FAILED"
        assert queued.failure_reason == (
            "aborted by fail-fast after job 'rushed' ended FAILED"
        )
        assert queued.words_out == 0
        assert f"queued{i}" not in traced
    assert report.metrics.value("repro_icap_transfers_total") == 4


def test_without_fail_fast_survivors_complete():
    jobs = [
        ramp_job("rushed", count=500_000, deadline_us=30.0),
        ramp_job("survivor", count=100),
    ]
    report = run_batch(jobs, 1, FAST, CONFIG, use_processes=False)
    assert report.job("rushed").state == "FAILED"
    assert report.job("survivor").state == "DONE"


def test_strict_ok_counts_terminal_eviction_as_failure():
    jobs = [
        StreamJob(
            name="keeper", priority=5, preemptible=False,
            stages=[StageSpec("moving_average")],
            source=SourceSpec("sine", count=4000),
        ),
        StreamJob(
            name="victim", priority=1,
            stages=[StageSpec("crc32")],
            source=SourceSpec("ramp", count=4000),
        ),
        StreamJob(
            name="urgent", priority=5, arrival_us=25.0,
            stages=[StageSpec("passthrough")],
            source=SourceSpec("ramp", count=200),
        ),
    ]
    executor = JobExecutor(params=FAST_FIG7, config=CONFIG)
    report = executor.run(jobs)
    assert report.job("victim").state == "EVICTED"
    assert report.ok          # eviction is policy...
    assert not report.strict_ok  # ...but strict callers refuse it


def test_on_first_sample_hook_fires_once_per_job():
    seen = []
    executor = JobExecutor(params=FAST, config=CONFIG)
    executor.on_first_sample = lambda job: seen.append(job.spec.name)
    report = executor.run([ramp_job("a", count=200), ramp_job("b", count=200)])
    assert report.states == {"DONE": 2}
    assert sorted(seen) == ["a", "b"]
