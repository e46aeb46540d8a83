"""repro.runtime: multi-tenant stream-job serving over simulated VAPRES.

Layers a production-shaped runtime on the behavioural simulation:

* :mod:`~repro.runtime.jobs` -- job specs, lifecycle state machine,
  retry policies and the ``repro serve`` jobfile format;
* :mod:`~repro.runtime.admission` -- PRR/lane/BRAM-aware admission
  control with priority queueing and preemption planning;
* :mod:`~repro.runtime.executor` -- the per-system serving loop
  (placement via the ICAP scheduler, channels via the Table-2 API,
  eviction via the Figure-5 drain path); batches of independent jobs
  scale out through the device pool (:func:`repro.pool.run_batch`);
* :mod:`~repro.runtime.telemetry` -- per-job and fleet reports.
"""

from repro.runtime.admission import (
    AdmissionController,
    AdmissionDecision,
    AdmissionResult,
    Assignment,
)
from repro.runtime.executor import ExecutorConfig, JobExecutor
from repro.runtime.jobs import (
    Job,
    JobError,
    JobFile,
    JobSource,
    JobState,
    QueueJobSource,
    RetryPolicy,
    SourceSpec,
    StageSpec,
    StaticJobSource,
    StreamJob,
    as_job_source,
    load_jobfile,
)
from repro.runtime.telemetry import FleetReport, JobReport

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionResult",
    "Assignment",
    "ExecutorConfig",
    "FleetReport",
    "Job",
    "JobError",
    "JobFile",
    "JobReport",
    "JobSource",
    "JobState",
    "JobExecutor",
    "QueueJobSource",
    "RetryPolicy",
    "SourceSpec",
    "StageSpec",
    "StaticJobSource",
    "StreamJob",
    "as_job_source",
    "load_jobfile",
]
