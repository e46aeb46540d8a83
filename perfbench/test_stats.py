"""Tests of the benchmark's own helpers: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import math
import os

from types import SimpleNamespace

import pytest

import frontdoor
import stats


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
def test_p90_refused_below_100_samples():
    with pytest.raises(stats.PercentileRefused):
        stats.percentile(list(range(99)), 0.9)


def test_p90_at_100_samples_has_ten_beyond():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 0.9) == 90.0
    assert sum(1 for v in values if v > 90.0) == 10


def test_p50_needs_twenty_samples():
    with pytest.raises(stats.PercentileRefused):
        stats.percentile(list(range(19)), 0.5)
    assert stats.percentile(list(range(1, 21)), 0.5) == 10


def test_percentile_rejects_bad_quantile():
    with pytest.raises(ValueError):
        stats.percentile([1.0] * 200, 1.0)


def test_median_even_and_odd():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


# ----------------------------------------------------------------------
# failed and refused jobs count as missing their latency
# ----------------------------------------------------------------------
def _phase(outcomes):
    phase = frontdoor.Phase(traced=False)
    specs = [SimpleNamespace(name=f"j{i}") for i in range(len(outcomes))]
    batch = phase.add(specs)
    batch.start, batch.end = 0.0, 10.0
    for spec, outcome in zip(specs, outcomes):
        record = phase.jobs[spec.name]
        record.due = 1.0
        if outcome == "done":
            record.first_rx, record.done_rx = 1.5, 2.0
            record.report = {"state": "DONE"}
        elif outcome == "failed":
            record.first_rx = 1.5
            record.failed = "device error"
        elif outcome == "rejected":
            record.failed = "rejected: bad spec"
    return phase


def test_failed_and_refused_jobs_miss_their_latency():
    first, done = frontdoor.latencies(
        _phase(["done", "failed", "rejected", "lost"]))
    assert first == [0.5] + [stats.MISSING] * 3
    assert done == [1.0] + [stats.MISSING] * 3


def test_missing_jobs_rank_above_every_latency():
    values = [0.010] * 90 + [stats.MISSING] * 10
    assert stats.percentile(values, 0.9) == 0.010
    assert math.isinf(stats.percentile(values + [stats.MISSING], 0.9))


def test_missing_median_reports_fallback():
    values = [stats.MISSING] * 3 + [0.001]
    assert math.isinf(stats.median(values))
    assert stats.finite_or(stats.median(values), 1234.0) == 1234.0
    assert stats.finite_or(2.0, 1234.0) == 2.0


# ----------------------------------------------------------------------
# stage splits from event stamps
# ----------------------------------------------------------------------
def test_stage_splits_arithmetic():
    stamps = {
        "a": {"submitted": 10.0, "placed": 10.5, "bound": 11.0,
              "running": 11.25, "first_sample": 12.0, "done": 14.0},
        "b": {"submitted": 20.0, "placed": 20.1},  # still queued
    }
    splits = stats.stage_splits(stamps)
    assert splits["queue"] == [0.5, pytest.approx(0.1)]
    assert splits["admit"] == [0.5]
    assert splits["dispatch"] == [0.25]
    assert splits["device_first_sample"] == [0.75]
    assert splits["stream"] == [2.0]


def test_stage_splits_refuse_backwards_clock():
    with pytest.raises(ValueError, match="backwards"):
        stats.stage_splits({"a": {"submitted": 2.0, "placed": 1.0}})


# ----------------------------------------------------------------------
# /proc parsing
# ----------------------------------------------------------------------
STAT = ("4242 (python3 -m (repro) x) S 4200 4242 4200 0 -1 4194304 "
        "1000 0 0 0 150 25 3 4 20 0 3 0 12345 1000000 2000 "
        "18446744073709551615 1 1 0 0 0 0 0 16781312 2 0 0 0 17 1 0 0 0 0 0")


def test_parse_stat_with_spaces_and_parens_in_comm():
    assert stats.parse_stat_cpu_ticks(STAT) == 175
    assert stats.parse_stat_ppid(STAT) == 4200


def test_parse_status_vmhwm():
    status = "Name:\tpython3\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\n"
    assert stats.parse_status_kb(status) == 51200
    with pytest.raises(ValueError):
        stats.parse_status_kb("Name:\tx\n")


def test_fake_proc_tree(tmp_path):
    for pid, ppid, hwm in ((10, 1, 1024), (11, 10, 2048), (12, 10, 512),
                           (13, 11, 256)):
        d = tmp_path / str(pid)
        d.mkdir()
        (d / "stat").write_text(STAT.replace("4242 (", f"{pid} (")
                                .replace(") S 4200", f") S {ppid}"))
        (d / "status").write_text(f"VmHWM:\t{hwm} kB\n")
    (tmp_path / "self").mkdir()
    assert stats.children_of(10, proc=str(tmp_path)) == [11, 12]
    assert stats.peak_rss_mb([10, 11, 12], proc=str(tmp_path)) == 3.5
    assert stats.cpu_seconds(10, proc=str(tmp_path)) == pytest.approx(
        175 / os.sysconf("SC_CLK_TCK"))


def test_live_proc_readings():
    pid = os.getpid()
    assert stats.peak_rss_mb([pid]) > 1.0
    assert stats.cpu_seconds(pid) >= 0.0


def test_digest_is_stable_and_order_sensitive():
    a = stats.digest([{"x": 1, "y": 2}, None])
    assert a == stats.digest([{"y": 2, "x": 1}, None])
    assert a != stats.digest([None, {"x": 1, "y": 2}])


def test_alive_reads_state(tmp_path):
    for pid, state in ((20, "S"), (21, "Z")):
        d = tmp_path / str(pid)
        d.mkdir()
        (d / "stat").write_text(STAT.replace(") S ", f") {state} "))
    assert stats.alive(20, proc=str(tmp_path))
    assert not stats.alive(21, proc=str(tmp_path))
    assert not stats.alive(22, proc=str(tmp_path))
