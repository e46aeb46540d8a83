"""repro.pool: a virtualized pool of simulated VAPRES devices.

Serves stream jobs across N devices the way a cluster serves
containers across hosts, in two layers:

* **virtualization** (:mod:`~repro.pool.devices`,
  :mod:`~repro.pool.scheduler`) -- jobs request *virtual PRRs* that a
  deterministic scheduler grants against an overcommitted per-device
  ceiling and each device's admission controller later binds (never
  overcommitted) to physical PRRs; queue skew is levelled by work
  stealing, and device loss drains bound work while requeueing the
  rest;
* **front door** (:mod:`~repro.pool.server`,
  :mod:`~repro.pool.client`) -- a stdlib-asyncio NDJSON-over-HTTP
  endpoint (``python -m repro serve --listen``) for streaming
  multi-tenant submissions and live lifecycle telemetry, bridged to
  per-device worker processes (:mod:`~repro.pool.bridge`).

The pool carries the live observability plane from
:mod:`repro.obs.live`: per-job trace ids stitched across the bridge
(``GET /metrics`` live snapshots, the ``GET /events`` firehose, and
per-device flight recorders dumped on loss/quarantine).

Placement never changes results: every job runs single-tenant with a
name-derived seed, so a pool run is bit-identical to a single-device
run of the same jobs.  :func:`~repro.pool.batch.run_batch` drives the
same pool synchronously for batch callers (fleet-mode ``serve``, fault
campaigns, benchmarks).
"""

from repro.pool.batch import run_batch
from repro.pool.bridge import WorkerBridge
from repro.pool.client import (
    ClientError,
    PoolClient,
    get_json,
    post_json,
    request_shutdown,
    run_jobs,
    run_jobs_sync,
    stream_events,
)
from repro.pool.devices import (
    DevicePool,
    PoolError,
    PoolJob,
    PooledDevice,
    VirtualPRR,
)
from repro.pool.scheduler import DeviceView, PoolScheduler, StealMove
from repro.pool.server import PoolServer

__all__ = [
    "ClientError",
    "DevicePool",
    "DeviceView",
    "PoolClient",
    "PoolError",
    "PoolJob",
    "PoolScheduler",
    "PoolServer",
    "PooledDevice",
    "StealMove",
    "VirtualPRR",
    "WorkerBridge",
    "get_json",
    "post_json",
    "request_shutdown",
    "run_batch",
    "run_jobs",
    "run_jobs_sync",
    "stream_events",
]
