"""Fleet-mode outputs against committed golden files, byte for byte.

The golden files were written by the fleet runner that predates
``repro.pool.run_batch`` (a process pool sharding jobs round-robin):

* ``serve_small_w1.json`` -- ``serve examples/jobfiles/small.json
  --json --workers 1`` with ``wall_seconds`` masked;
* ``serve_small_w1.prom`` -- its ``--metrics-out`` text without the
  wall-clock ``repro_executor_quantum_seconds`` family;
* ``serve_small_w4.json`` -- the same at ``--workers 4`` with
  ``wall_seconds``, ``sim_us`` and ``shard`` masked (where a job runs,
  and so each device's simulated-time total, depends on placement);
* ``fleet_campaign.json`` -- the fleet-mode fault-campaign resilience
  report, identical at 1 and 3 workers.

Serving a batch through the device pool must reproduce them exactly.
"""

import re
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.faults.campaign import run_campaign
from repro.faults.model import CampaignConfig
from tests.faults.test_campaign import make_jobs

GOLDEN = Path(__file__).parent / "golden"
SMALL = str(
    Path(__file__).resolve().parents[2] / "examples" / "jobfiles" / "small.json"
)


def mask(text, keys):
    pattern = r'("(?:%s)": )[^,\n]+' % "|".join(keys)
    return re.sub(pattern, r'\1"<masked>"', text)


def without_quantum_seconds(text):
    return "".join(
        line for line in text.splitlines(True)
        if "repro_executor_quantum_seconds" not in line
    )


def serve_small(workers, tmp_path, capsys):
    metrics = tmp_path / f"w{workers}.prom"
    code = main([
        "serve", SMALL, "--json", "--workers", str(workers),
        "--metrics-out", str(metrics),
    ])
    assert code == 0
    return capsys.readouterr().out, metrics.read_text()


def test_serve_fleet_single_worker_matches_golden(tmp_path, capsys):
    out, prom = serve_small(1, tmp_path, capsys)
    assert mask(out, ["wall_seconds"]) == (
        GOLDEN / "serve_small_w1.json"
    ).read_text()
    assert without_quantum_seconds(prom) == (
        GOLDEN / "serve_small_w1.prom"
    ).read_text()


def test_serve_fleet_four_workers_matches_golden(tmp_path, capsys):
    out, _ = serve_small(4, tmp_path, capsys)
    assert mask(out, ["wall_seconds", "sim_us", "shard"]) == (
        GOLDEN / "serve_small_w4.json"
    ).read_text()


@pytest.mark.parametrize("workers", [1, 3])
def test_fleet_campaign_matches_golden(workers):
    config = CampaignConfig(
        seed=11, duration_us=300.0, seu_frames=1, fifo_bit=1,
        scrub_period_us=100.0, escalate_after=1,
    )
    result = run_campaign(
        config, make_jobs(3), mode="fleet", workers=workers,
        use_processes=False,
    )
    assert result.to_json() + "\n" == (
        GOLDEN / "fleet_campaign.json"
    ).read_text()
