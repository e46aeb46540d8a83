"""Tests for the benchmark runner, regression compare and CLI gate."""

import json

import pytest

from repro.__main__ import main
from repro.bench import (
    SCHEMA_VERSION,
    BenchError,
    compare_reports,
    default_output_name,
    render_compare,
    run_bench,
)
from repro.bench.runner import load_report, write_report


def fake_report(mode="quick", scale=1.0, cases=("alpha", "beta")):
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "repro-bench",
        "revision": "test",
        "mode": mode,
        "generated_unix": 0,
        "calibration": {"score": 1e6, "elapsed_s": 0.1, "iterations": 1e5},
        "cases": {
            name: {
                "metric": "ops_per_sec",
                "value": 1000.0 * scale,
                "normalized": 0.01 * scale,
                "elapsed_s": 0.5,
                "extra": {},
            }
            for name in cases
        },
        "derived": {},
    }


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_run_bench_writes_schema_versioned_report(tmp_path):
    report = run_bench(quick=True, cases=["kernel_events"], revision="r1")
    assert report["schema_version"] == SCHEMA_VERSION
    assert report["kind"] == "repro-bench"
    assert report["mode"] == "quick"
    assert report["revision"] == "r1"
    assert report["calibration"]["score"] > 0
    case = report["cases"]["kernel_events"]
    assert case["metric"] == "events_per_sec"
    assert case["value"] > 0
    assert case["normalized"] > 0
    path = write_report(report, tmp_path / default_output_name("r1"))
    assert path.name == "BENCH_r1.json"
    assert load_report(path) == report


def test_run_bench_rejects_unknown_case():
    with pytest.raises(BenchError, match="unknown benchmark case"):
        run_bench(quick=True, cases=["no_such_case"])


def test_load_report_rejects_garbage(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(BenchError, match="malformed"):
        load_report(path)
    path.write_text(json.dumps({"kind": "other"}))
    with pytest.raises(BenchError, match="not a repro-bench report"):
        load_report(path)
    wrong = fake_report()
    wrong["schema_version"] = 999
    path.write_text(json.dumps(wrong))
    with pytest.raises(BenchError, match="schema_version"):
        load_report(path)
    with pytest.raises(BenchError, match="cannot read"):
        load_report(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# compare
# ----------------------------------------------------------------------
def test_compare_identical_reports_pass():
    result = compare_reports(fake_report(), fake_report())
    assert result.ok
    assert not result.regressions
    assert "OK" in render_compare(result)


def test_compare_detects_injected_slowdown():
    slow = fake_report(scale=0.5)  # 50% slower than baseline
    result = compare_reports(slow, fake_report(), threshold=0.15)
    assert not result.ok
    assert len(result.regressions) == 2
    assert "REGRESSION" in render_compare(result)


def test_compare_tolerates_small_noise():
    noisy = fake_report(scale=0.9)  # -10% is under the 15% threshold
    result = compare_reports(noisy, fake_report(), threshold=0.15)
    assert result.ok


def test_compare_flags_missing_case():
    partial = fake_report(cases=("alpha",))
    result = compare_reports(partial, fake_report())
    assert not result.ok
    assert any("missing" in r for r in result.regressions)


def test_compare_notes_new_case():
    grown = fake_report(cases=("alpha", "beta", "gamma"))
    result = compare_reports(grown, fake_report())
    assert result.ok
    assert any("new case" in n for n in result.notes)


def test_compare_rejects_mode_mismatch():
    with pytest.raises(BenchError, match="mode mismatch"):
        compare_reports(fake_report(mode="full"), fake_report(mode="quick"))


def test_compare_rejects_bad_threshold():
    with pytest.raises(BenchError, match="threshold"):
        compare_reports(fake_report(), fake_report(), threshold=1.5)


def test_small_normalized_rates_render_non_zero(tmp_path, monkeypatch,
                                                capsys):
    tiny = fake_report(scale=0.002)  # normalized 2e-05, like pool_soak
    table = render_compare(compare_reports(tiny, tiny))
    assert "2e-05" in table and "0.0000" not in table
    monkeypatch.setattr("repro.bench.run_bench", lambda **_: tiny)
    assert main(["bench", "--quick", "--output",
                 str(tmp_path / "r.json")]) == 0
    listing = capsys.readouterr().out
    assert "(normalized 2e-05)" in listing and "0.0000" not in listing


def test_compare_prints_reference_seed_speedup():
    baseline = fake_report()
    baseline["reference_seed"] = {
        "machine": "ref host",
        "cases": {
            "alpha": {"metric": "ops_per_sec", "value": 250.0},
        },
    }
    result = compare_reports(fake_report(), baseline)
    assert any("4.00x" in n and "ref host" in n for n in result.notes)


# ----------------------------------------------------------------------
# CLI (runs from an arbitrary CWD: satellite for the sys.path fix)
# ----------------------------------------------------------------------
def test_cli_bench_gate_from_any_cwd(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "run.json"
    assert main([
        "bench", "--quick", "--cases", "kernel_events",
        "--output", str(out), "--no-rerun",
    ]) == 0
    assert out.exists()
    report = load_report(out)

    # self-compare passes the gate
    baseline = tmp_path / "baseline.json"
    write_report(report, baseline)
    assert main([
        "bench", "--quick", "--cases", "kernel_events",
        "--output", str(out), "--compare", str(baseline), "--no-rerun",
    ]) == 0

    # an inflated baseline (i.e. this code got slower) fails it
    inflated = dict(report)
    inflated["cases"] = json.loads(json.dumps(report["cases"]))
    inflated["cases"]["kernel_events"]["normalized"] *= 3
    write_report(inflated, baseline)
    assert main([
        "bench", "--quick", "--cases", "kernel_events",
        "--output", str(out), "--compare", str(baseline), "--no-rerun",
    ]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_cli_bench_mode_mismatch_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline = tmp_path / "baseline.json"
    write_report(fake_report(mode="full"), baseline)
    code = main([
        "bench", "--quick", "--cases", "kernel_events",
        "--output", str(tmp_path / "r.json"), "--compare", str(baseline),
    ])
    assert code == 2


def test_cli_update_baseline_preserves_reference_seed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    baseline_path = tmp_path / "baseline.json"
    run = run_bench(quick=True, cases=["kernel_events"], revision="r1")
    baseline = dict(run)
    baseline["reference_seed"] = {"machine": "m", "cases": {}}
    write_report(baseline, baseline_path)
    assert main([
        "bench", "--quick", "--cases", "kernel_events",
        "--output", str(tmp_path / "r.json"),
        "--compare", str(baseline_path), "--update-baseline", "--no-rerun",
    ]) == 0
    refreshed = load_report(baseline_path)
    assert refreshed["reference_seed"] == {"machine": "m", "cases": {}}
    assert refreshed["cases"]["kernel_events"]["value"] > 0


def test_committed_baseline_is_loadable_and_quick_mode():
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    baseline = load_report(repo / "benchmarks" / "baselines.json")
    assert baseline["mode"] == "quick"
    assert set(baseline["cases"]) == {
        "kernel_events",
        "compaction_churn",
        "fig5_steady_state",
        "fig5_steady_state_heap",
        "fig5_switch",
        "fleet_steady_state",
        "fleet_steady_state_heap",
        "realtime_pipeline",
        "pool_soak",
        "pool_soak_live",
    }
    for case in baseline["cases"].values():
        assert case["normalized"] > 0 or case["value"] > 0
    assert "reference_seed" in baseline
