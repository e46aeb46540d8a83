"""Campaign-level acceptance: zero-loss recovery, scrub bound, and
byte-identical resilience reports."""

import json
from pathlib import Path

import pytest

from repro.faults.campaign import (
    REPORT_SCHEMA_VERSION,
    FaultCampaign,
    load_campaign_input,
    run_campaign,
)
from repro.faults.model import CampaignConfig
from repro.runtime.jobs import JobError, SourceSpec, StageSpec, StreamJob

REPO_ROOT = Path(__file__).resolve().parents[2]


def make_jobs(count, words=12_000):
    return [
        StreamJob(
            name=f"j{i}",
            stages=[StageSpec("passthrough")],
            source=SourceSpec(kind="ramp", count=words),
            requeue_on_eviction=True,
        )
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# input loading
# ----------------------------------------------------------------------
def test_load_preset_synthesises_a_victim_job():
    loaded = load_campaign_input("prototype")
    assert loaded.name == "prototype"
    assert loaded.mode == "colocate"
    assert [job.name for job in loaded.jobs] == ["campaign-victim"]
    assert loaded.jobs[0].requeue_on_eviction
    # campaigns default to fast simulated reconfiguration
    assert loaded.params.pr_speedup == 1000.0


def test_load_jobfile_carries_jobs_and_executor_tuning():
    loaded = load_campaign_input(
        str(REPO_ROOT / "examples" / "jobfiles" / "campaign.json")
    )
    assert loaded.name == "fault-campaign"
    assert [job.name for job in loaded.jobs] == ["victim"]
    assert loaded.executor.quantum_us == 25.0


def test_load_rejects_missing_and_malformed_targets(tmp_path):
    with pytest.raises(JobError, match="cannot read"):
        load_campaign_input(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(JobError, match="JSON object"):
        load_campaign_input(str(bad))


def test_campaign_rejects_bad_mode_and_empty_jobs():
    config = CampaignConfig(seed=1)
    with pytest.raises(JobError, match="mode"):
        FaultCampaign(config, make_jobs(1), mode="turbo")
    with pytest.raises(JobError, match="at least one job"):
        FaultCampaign(config, [])


# ----------------------------------------------------------------------
# headline acceptance: Figure-5 recovery loses nothing
# ----------------------------------------------------------------------
def test_figure5_recovery_loses_zero_samples():
    loaded = load_campaign_input("prototype")
    config = CampaignConfig(
        seed=7,
        duration_us=600.0,
        seu_frames=1,
        scrub_period_us=100.0,
        escalate_after=1,
    )
    result = run_campaign(config, loaded.jobs, params=loaded.params)
    report = result.resilience
    assert report["schema_version"] == REPORT_SCHEMA_VERSION
    assert report["figure5"]["recoveries"] >= 1
    assert report["figure5"]["samples_lost"] == 0
    assert report["jobs"]["words_out"] == 50_000
    assert report["jobs"]["words_lost"] == 0
    assert report["jobs"]["degraded"] == ["campaign-victim"]
    assert report["jobs"]["failed"] == []
    switch_events = [
        event for event in report["events"]
        if event["action"] == "module_switch"
    ]
    assert switch_events, "expected a Figure-5 module-switch repair"


def test_scrub_only_campaign_repairs_within_the_period_bound():
    loaded = load_campaign_input("prototype")
    config = CampaignConfig(
        seed=3,
        duration_us=600.0,
        seu_frames=2,
        scrub_period_us=100.0,
        escalate_after=99,
        quarantine_after=99,
    )
    result = run_campaign(config, loaded.jobs, params=loaded.params)
    report = result.resilience
    assert report["faults"]["injected"]["seu_frame"] == 2
    assert report["faults"]["detected"]["seu_frame"] == 2
    assert report["faults"]["repaired"]["seu_frame"] == 2
    assert report["scrub"]["passes"] > 0
    assert report["scrub"]["repairs"] >= 1
    # worst case: every PRR scrubbed once per round trip, plus one
    # readback (~50 us here) and scheduling slack
    bound_us = loaded.params.total_prrs * config.scrub_period_us + 100.0
    for event in report["events"]:
        if event["class"] != "seu_frame":
            continue
        assert event["action"] == "frame_rewrite"
        assert event["detected_us"] - event["injected_us"] <= bound_us


# ----------------------------------------------------------------------
# determinism contract
# ----------------------------------------------------------------------
def test_colocate_report_is_byte_identical_across_runs():
    config = CampaignConfig(
        seed=11, duration_us=300.0, seu_frames=1, fifo_bit=1,
        scrub_period_us=100.0, escalate_after=1,
    )
    first = run_campaign(config, make_jobs(1)).to_json()
    second = run_campaign(config, make_jobs(1)).to_json()
    assert first == second
    assert json.loads(first)["mode"] == "colocate"


def test_fleet_report_is_identical_across_worker_counts():
    config = CampaignConfig(
        seed=11, duration_us=300.0, seu_frames=1, fifo_bit=1,
        scrub_period_us=100.0, escalate_after=1,
    )

    def run(workers):
        return run_campaign(
            config, make_jobs(3), mode="fleet",
            workers=workers, use_processes=False,
        ).to_json()

    solo, trio = run(1), run(3)
    assert solo == trio
    report = json.loads(solo)
    # nothing run-environment-dependent may appear in the report
    assert report["sim_us"] is None
    assert "workers" not in solo
    assert "wall" not in solo


def test_lane_stuck_fault_eviction_conserves_words():
    """A stuck lane fault-evicts the streaming victim, which requeues
    and replays its source from word zero; the drained incarnation's
    gated words must not leak into the restarted one."""
    loaded = load_campaign_input(
        str(REPO_ROOT / "examples" / "jobfiles" / "campaign.json")
    )
    config = CampaignConfig(seed=7, duration_us=600.0, lane_stuck=1)
    result = run_campaign(
        config, loaded.jobs, params=loaded.params,
        mode=loaded.mode, executor=loaded.executor,
    )
    jobs = result.resilience["jobs"]
    assert jobs["fault_evictions"] == 1
    assert jobs["words_out"] == 50_000
    assert jobs["words_lost"] == 0
