"""Stream-job specifications and the job lifecycle state machine.

A :class:`StreamJob` is the unit of work the runtime serves: a chain of
hardware-module stages fed by one IOM source and sinking back into the
same IOM, with a priority, an optional deadline and placement/retry
policy.  It is a plain declarative spec -- picklable (so the device
pool can ship it to worker processes) and JSON round-trippable (so
``python -m repro serve`` can load job files).

The lifecycle follows the state machine::

    QUEUED -> ADMITTED -> PLACING -> RUNNING -> DRAINING -> DONE
       ^          |           |         |
       |          +-----------+---------+--> EVICTED (preempted, terminal)
       |          |           |         |
       +----------+-----------+---------+    (requeue_on_eviction)
       |          |           |         |
       |          +-----------+---------+--> FAILED
       |                                |
       +------- SUSPENDED <-------------+    (checkpointed, resumable)

Placement and reconfiguration failures retry with bounded exponential
backoff (:class:`RetryPolicy`) before the job fails.  ``SUSPENDED`` is
the checkpointed parking state of the realtime scheduler
(:mod:`repro.realtime`): a running job is drained to a
:class:`ResumeState` and re-enters admission, resuming -- instead of
restarting -- when PRRs free up.
"""

from __future__ import annotations

import enum
import json
import zlib
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.core.params import SystemParameters
from repro.modules import (
    AbsValue,
    Crc32,
    Decimator,
    DeltaDecoder,
    DeltaEncoder,
    FirFilter,
    MedianFilter,
    MinMaxTracker,
    MovingAverage,
    PassThrough,
    Scaler,
    ThresholdDetector,
)
from repro.modules.base import HardwareModule
from repro.modules.sources import noise, noisy_sine, ramp, sine_wave


class JobError(Exception):
    """Raised on malformed job specifications or illegal transitions."""


# ----------------------------------------------------------------------
# lifecycle
# ----------------------------------------------------------------------
class JobState(enum.Enum):
    QUEUED = "QUEUED"
    ADMITTED = "ADMITTED"
    PLACING = "PLACING"
    RUNNING = "RUNNING"
    DRAINING = "DRAINING"
    DONE = "DONE"
    FAILED = "FAILED"
    EVICTED = "EVICTED"
    SUSPENDED = "SUSPENDED"


TERMINAL_STATES = frozenset(
    {JobState.DONE, JobState.FAILED, JobState.EVICTED}
)

#: Legal transitions; eviction may strike any non-terminal phase after
#: admission, and ``requeue_on_eviction`` sends the job back to QUEUED
#: instead of the terminal EVICTED.
_TRANSITIONS = {
    JobState.QUEUED: {JobState.ADMITTED, JobState.FAILED},
    JobState.ADMITTED: {
        JobState.PLACING, JobState.FAILED, JobState.EVICTED, JobState.QUEUED,
    },
    JobState.PLACING: {
        JobState.RUNNING, JobState.FAILED, JobState.EVICTED, JobState.QUEUED,
    },
    JobState.RUNNING: {
        JobState.DRAINING, JobState.FAILED, JobState.EVICTED, JobState.QUEUED,
        JobState.SUSPENDED,
    },
    JobState.DRAINING: {JobState.DONE, JobState.FAILED},
    JobState.SUSPENDED: {JobState.ADMITTED, JobState.FAILED},
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.EVICTED: set(),
}


# ----------------------------------------------------------------------
# retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for placement/reconfiguration retries."""

    max_attempts: int = 3
    backoff_us: float = 100.0
    factor: float = 2.0
    max_backoff_us: float = 5_000.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise JobError("max_attempts must be >= 1")
        if self.backoff_us < 0 or self.max_backoff_us < 0:
            raise JobError("backoff must be >= 0")
        if self.factor < 1.0:
            raise JobError("backoff factor must be >= 1")

    def backoff_for(self, attempt: int) -> float:
        """Backoff (us) before retry number ``attempt`` (1-based)."""
        return min(
            self.backoff_us * self.factor ** max(0, attempt - 1),
            self.max_backoff_us,
        )


# ----------------------------------------------------------------------
# stage and source specs
# ----------------------------------------------------------------------
_STAGE_KINDS = {
    "passthrough": lambda name, p: PassThrough(name),
    "abs": lambda name, p: AbsValue(name),
    "moving_average": lambda name, p: MovingAverage(
        name, window=int(p.get("window", 4))
    ),
    "median": lambda name, p: MedianFilter(name, window=int(p.get("window", 3))),
    "fir": lambda name, p: FirFilter(name, taps=p.get("taps", [1, 2, 1])),
    "scaler": lambda name, p: Scaler(name, gain=int(p.get("gain", 2))),
    "delta_encoder": lambda name, p: DeltaEncoder(name),
    "delta_decoder": lambda name, p: DeltaDecoder(name),
    "decimator": lambda name, p: Decimator(name, factor=int(p.get("factor", 2))),
    "threshold": lambda name, p: ThresholdDetector(
        name, threshold=int(p.get("threshold", 0))
    ),
    "crc32": lambda name, p: Crc32(name),
    "minmax": lambda name, p: MinMaxTracker(name),
}


@dataclass(frozen=True)
class StageSpec:
    """One hardware-module stage of a job's processing chain."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _STAGE_KINDS:
            raise JobError(
                f"unknown stage kind {self.kind!r}; "
                f"have {sorted(_STAGE_KINDS)}"
            )

    def build(self, name: str) -> HardwareModule:
        return _STAGE_KINDS[self.kind](name, self.params)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_value(cls, value: Union[str, Dict[str, Any]]) -> "StageSpec":
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, dict):
            value = dict(value)
            try:
                kind = value.pop("kind")
            except KeyError:
                raise JobError(f"stage entry {value!r} needs a 'kind'") from None
            return cls(kind=kind, params=value)
        raise JobError(f"bad stage entry {value!r}")


_SOURCE_KINDS = {"ramp", "sine", "noisy_sine", "noise", "constant"}


@dataclass(frozen=True)
class SourceSpec:
    """The external sample stream feeding a job's input IOM."""

    kind: str = "ramp"
    count: int = 200
    params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _SOURCE_KINDS:
            raise JobError(
                f"unknown source kind {self.kind!r}; have {sorted(_SOURCE_KINDS)}"
            )
        if self.count < 1:
            raise JobError("source count must be >= 1")

    def build(self, default_seed: int = 0) -> Iterator[int]:
        """Materialise the sample iterator.

        Seeded kinds fall back to ``default_seed`` (the executor derives
        it from the job name) so results are reproducible regardless of
        which device runs the job.
        """
        p = self.params
        if self.kind == "ramp":
            return ramp(
                count=self.count,
                start=int(p.get("start", 0)),
                step=int(p.get("step", 1)),
            )
        if self.kind == "constant":
            return ramp(count=self.count, start=int(p.get("value", 0)), step=0)
        if self.kind == "sine":
            return sine_wave(
                amplitude=int(p.get("amplitude", 10_000)),
                period=int(p.get("period", 64)),
                count=self.count,
            )
        if self.kind == "noise":
            return noise(
                amplitude=int(p.get("amplitude", 1_000)),
                count=self.count,
                seed=int(p.get("seed", default_seed)),
            )
        return noisy_sine(
            amplitude=int(p.get("amplitude", 10_000)),
            period=int(p.get("period", 64)),
            noise_amplitude=int(p.get("noise_amplitude", 500)),
            count=self.count,
            seed=int(p.get("seed", default_seed)),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "count": self.count, **self.params}

    @classmethod
    def from_value(cls, value: Union[Dict[str, Any], None]) -> "SourceSpec":
        if value is None:
            return cls()
        if not isinstance(value, dict):
            raise JobError(f"bad source entry {value!r}")
        value = dict(value)
        kind = value.pop("kind", "ramp")
        count = int(value.pop("count", 200))
        return cls(kind=kind, count=count, params=value)


# ----------------------------------------------------------------------
# the job spec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StreamJob:
    """Declarative specification of one stream-processing job."""

    name: str
    stages: List[StageSpec] = field(
        default_factory=lambda: [StageSpec("passthrough")]
    )
    source: SourceSpec = field(default_factory=SourceSpec)
    priority: int = 0
    arrival_us: float = 0.0
    deadline_us: Optional[float] = None
    #: BUFGMUX input hint for every stage's local clock domain (paper's
    #: runtime LCD frequency selection): 0 = fast, 1 = slow, None = leave
    lcd_select: Optional[int] = None
    #: explicit IOM slot / PRR slots; None lets admission assign them
    iom: Optional[str] = None
    prrs: Optional[List[str]] = None
    reconfig_path: str = "array2icap"
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    preemptible: bool = True
    requeue_on_eviction: bool = False
    #: max-gap SLO in nominal word periods (analysis.metrics factor)
    slo_gap_factor: float = 10.0
    #: per-stage slice demand for admission accounting; None = one full PRR
    slices_per_stage: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise JobError("a job needs a name")
        if not self.stages:
            raise JobError(f"job {self.name!r} needs at least one stage")
        if self.reconfig_path not in ("array2icap", "cf2icap"):
            raise JobError(
                f"job {self.name!r}: unknown reconfig path "
                f"{self.reconfig_path!r}"
            )
        if self.lcd_select not in (None, 0, 1):
            raise JobError(f"job {self.name!r}: lcd_select must be 0 or 1")
        if self.deadline_us is not None and self.deadline_us <= 0:
            raise JobError(f"job {self.name!r}: deadline must be positive")
        if self.prrs is not None and len(self.prrs) != len(self.stages):
            raise JobError(
                f"job {self.name!r}: explicit prrs must name one PRR per stage"
            )

    @property
    def seed(self) -> int:
        """Deterministic per-job seed (stable across device placements)."""
        return zlib.crc32(self.name.encode("utf-8"))

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "stages": [s.to_dict() for s in self.stages],
            "source": self.source.to_dict(),
            "priority": self.priority,
            "arrival_us": self.arrival_us,
            "reconfig_path": self.reconfig_path,
            "retry": asdict(self.retry),
            "preemptible": self.preemptible,
            "requeue_on_eviction": self.requeue_on_eviction,
            "slo_gap_factor": self.slo_gap_factor,
        }
        for key in ("deadline_us", "lcd_select", "iom", "prrs",
                    "slices_per_stage"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamJob":
        if not isinstance(data, dict):
            raise JobError(f"job entry must be an object, got {data!r}")
        known = dict(data)
        try:
            name = known.pop("name")
        except KeyError:
            raise JobError(f"job entry {data!r} needs a 'name'") from None
        stages = [
            StageSpec.from_value(v) for v in known.pop("stages", ["passthrough"])
        ]
        source = SourceSpec.from_value(known.pop("source", None))
        retry_spec = known.pop("retry", None)
        if isinstance(retry_spec, dict):
            valid = {
                "max_attempts", "backoff_us", "factor", "max_backoff_us",
            }
            bad = set(retry_spec) - valid
            if bad:
                raise JobError(
                    f"job {name!r}: unknown retry keys {sorted(bad)}; "
                    f"have {sorted(valid)}"
                )
            retry = RetryPolicy(**retry_spec)
        else:
            retry = RetryPolicy()
        allowed = {
            "priority", "arrival_us", "deadline_us", "lcd_select", "iom",
            "prrs", "reconfig_path", "preemptible", "requeue_on_eviction",
            "slo_gap_factor", "slices_per_stage",
        }
        unknown = set(known) - allowed
        if unknown:
            raise JobError(
                f"job {name!r}: unknown keys {sorted(unknown)}"
            )
        try:
            return cls(
                name=name, stages=stages, source=source, retry=retry, **known
            )
        except TypeError as exc:
            raise JobError(f"job {name!r}: {exc}") from exc


# ----------------------------------------------------------------------
# suspension / resume state
# ----------------------------------------------------------------------
@dataclass
class ResumeState:
    """Everything needed to resume a suspended job bit-exactly.

    Produced by the executor's checkpoint path (the quiescent variant of
    the Figure-5 drain): per-stage state-register words in chain order,
    plus the source offset -- the drain fully processes every word the
    IOM had emitted, so resuming replays the source iterator from
    ``source_offset`` with no loss and no duplication.  The realtime
    layer wraps this in a placement-keyed
    :class:`repro.realtime.checkpoint.Checkpoint` blob; the runtime only
    needs the raw words.
    """

    stage_states: List[List[int]] = field(default_factory=list)
    source_offset: int = 0
    #: simulated us spent capturing the checkpoint (drain software)
    capture_us: float = 0.0


# ----------------------------------------------------------------------
# the runtime job object
# ----------------------------------------------------------------------
class Job:
    """One job's runtime incarnation: spec + lifecycle + bookkeeping.

    Owned by a single executor; never crosses process boundaries (only
    the spec and the final :class:`~repro.runtime.telemetry.JobReport`
    do).
    """

    def __init__(self, spec: StreamJob, index: int = 0) -> None:
        self.spec = spec
        self.index = index
        self.state = JobState.QUEUED
        self.failure_reason = ""
        # lifecycle timestamps (simulated us; None until reached)
        self.enqueued_us: Optional[float] = None
        self.admitted_us: Optional[float] = None
        self.running_us: Optional[float] = None
        self.finished_us: Optional[float] = None
        # retry/eviction accounting
        self.attempts = 0
        self.next_attempt_us = 0.0
        self.evictions = 0
        self.drained = False
        self.words_lost = 0
        # fault-campaign accounting (repro.faults)
        self.fault_evictions = 0
        self.fault_recoveries = 0
        #: live compaction relocations survived (repro.compact)
        self.relocations = 0
        # executor-owned handles
        self.assignment = None
        self.module_names: List[str] = []
        self.requests: List[object] = []
        self.channels: List[object] = []
        self.iom = None
        self.placed = False
        self.last_rx = 0
        self.stable_polls = 0
        #: latched once the first output word reaches the IOM (stays set
        #: across requeues -- the stream has already produced samples)
        self.first_sample_seen = False
        self.state_words: List[int] = []
        self.receive_times: List[int] = []
        self.words_out = 0
        # checkpoint/resume accounting (repro.realtime)
        self.suspensions = 0
        self.resume: Optional[ResumeState] = None
        #: source words consumed by earlier incarnations; each
        #: incarnation's IOM counts its own emissions from zero, so the
        #: next suspension's rewind offset is this base plus the live
        #: incarnation's progress
        self.source_base = 0
        #: output words + receive stamps accumulated across suspensions
        #: (the tenant-visible stream is prior + the live IOM's buffers)
        self.prior_received: List[int] = []
        self.prior_receive_times: List[int] = []
        #: per-attempt receive-time segments (restart-based requeues each
        #: open a new segment; suspend/resume extends the same one) --
        #: deadline accounting takes max progress across segments
        self.output_history: List[List[int]] = []
        #: the tenant-visible output stream (prior + final incarnation)
        self.output_words: List[int] = []

    # ------------------------------------------------------------------
    def transition(self, new_state: JobState, now_us: float) -> None:
        if new_state not in _TRANSITIONS[self.state]:
            raise JobError(
                f"job {self.spec.name!r}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        if new_state is JobState.ADMITTED:
            self.admitted_us = now_us
        elif new_state is JobState.RUNNING:
            self.running_us = now_us
        elif new_state in TERMINAL_STATES:
            self.finished_us = now_us

    def fail(self, reason: str, now_us: float) -> None:
        self.failure_reason = reason
        self.transition(JobState.FAILED, now_us)

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def reset_for_requeue(self) -> None:
        """Drop runtime handles after an eviction that requeues."""
        self.assignment = None
        self.requests = []
        self.channels = []
        self.iom = None
        self.placed = False
        self.last_rx = 0
        self.stable_polls = 0

    def __repr__(self) -> str:
        return f"Job({self.spec.name}, {self.state.value})"


# ----------------------------------------------------------------------
# job sources
# ----------------------------------------------------------------------
class JobSource:
    """Where an executor's jobs come from.

    The batch executors consume a static list, the device pool's
    workers pull from a queue that a front-door server feeds live; both
    are just iterables of :class:`StreamJob`.  A source signals
    exhaustion by ending iteration -- for queues that means a sentinel,
    not emptiness, so a briefly idle server does not shut its workers
    down.
    """

    def __iter__(self) -> Iterator[StreamJob]:  # pragma: no cover
        raise NotImplementedError


class StaticJobSource(JobSource):
    """A fixed batch of jobs (the classic ``repro serve`` jobfile)."""

    def __init__(self, jobs: List[StreamJob]) -> None:
        names = [job.name for job in jobs]
        if len(names) != len(set(names)):
            raise JobError("job names must be unique")
        self.jobs = list(jobs)

    def __iter__(self) -> Iterator[StreamJob]:
        return iter(self.jobs)

    def __len__(self) -> int:
        return len(self.jobs)


class QueueJobSource(JobSource):
    """Jobs arriving over a queue; ``close()`` ends the stream.

    Works with any object exposing blocking ``get()``/``put()`` --
    ``queue.Queue`` in-process, ``multiprocessing.Queue`` across the
    pool's worker boundary.  Iteration blocks in ``get()`` until the
    producer either enqueues a job or closes the source.
    """

    _SENTINEL = None

    def __init__(self, queue) -> None:
        self.queue = queue

    def put(self, job: StreamJob) -> None:
        self.queue.put(job)

    def close(self) -> None:
        self.queue.put(self._SENTINEL)

    def __iter__(self) -> Iterator[StreamJob]:
        while True:
            item = self.queue.get()
            if item is self._SENTINEL:
                return
            yield item


def as_job_source(jobs: Union[JobSource, List[StreamJob]]) -> JobSource:
    """Adapt a plain job list (the common case) into a JobSource."""
    if isinstance(jobs, JobSource):
        return jobs
    return StaticJobSource(list(jobs))


# ----------------------------------------------------------------------
# jobfiles
# ----------------------------------------------------------------------
#: Jobfile schema version this loader writes and fully understands.
#: Version 1 (implicit -- no ``schema_version`` key) is still accepted;
#: version 2 added the key itself, strict unknown-top-level-key
#: rejection and the optional ``realtime`` section.
JOBFILE_SCHEMA_VERSION = 2

#: Every top-level key a jobfile may carry.  Anything else is an error
#: that names the offending key -- silent dropping hid typos like
#: ``worker`` vs ``workers``.
_JOBFILE_KEYS = frozenset({
    "schema_version", "name", "system", "mode", "workers", "jobs",
    "executor", "realtime",
})


@dataclass
class JobFile:
    """A parsed ``repro serve`` jobfile."""

    name: str
    params: SystemParameters
    jobs: List[StreamJob]
    mode: str = "fleet"  # "fleet" (device pool, single-tenant) | "colocate"
    workers: int = 1
    executor: Dict[str, Any] = field(default_factory=dict)
    schema_version: int = JOBFILE_SCHEMA_VERSION


def load_jobfile(path: Union[str, Path]) -> JobFile:
    """Parse a jobfile (see README "Serving stream jobs" for the schema)."""
    from repro.verify.loader import LoaderError, build_params

    path = Path(path)
    try:
        spec = json.loads(path.read_text())
    except OSError as exc:
        raise JobError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise JobError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise JobError(f"{path} must contain a JSON object")
    version = spec.get("schema_version", 1)
    if version not in (1, JOBFILE_SCHEMA_VERSION):
        raise JobError(
            f"{path}: unsupported schema_version {version!r} "
            f"(this loader understands 1..{JOBFILE_SCHEMA_VERSION})"
        )
    unknown = sorted(set(spec) - _JOBFILE_KEYS)
    if unknown:
        raise JobError(
            f"{path}: unknown top-level key {unknown[0]!r} "
            f"(valid keys: {sorted(_JOBFILE_KEYS)})"
        )
    if "jobs" not in spec and "realtime" in spec:
        raise JobError(
            f"{path} is a realtime jobfile (has 'realtime', no 'jobs'); "
            "run it with `python -m repro realtime run`"
        )
    system_spec = spec.get("system", {"preset": "prototype"})
    try:
        params = build_params(system_spec)
    except LoaderError as exc:
        raise JobError(f"{path}: bad system spec: {exc}") from exc
    if "pr_speedup" not in system_spec and params.pr_speedup == 1.0:
        # serving scenarios care about protocol ordering, not PR wall
        # time; default to fast simulated reconfiguration (ratios kept)
        params = replace(params, pr_speedup=1000.0)
    mode = spec.get("mode", "fleet")
    if mode not in ("fleet", "colocate"):
        raise JobError(f"{path}: mode must be 'fleet' or 'colocate'")
    jobs_spec = spec.get("jobs")
    if not isinstance(jobs_spec, list) or not jobs_spec:
        raise JobError(f"{path}: 'jobs' must be a non-empty list")
    jobs = [StreamJob.from_dict(entry) for entry in jobs_spec]
    names = [job.name for job in jobs]
    if len(names) != len(set(names)):
        raise JobError(f"{path}: job names must be unique")
    executor = spec.get("executor", {})
    if not isinstance(executor, dict):
        raise JobError(f"{path}: 'executor' must be an object")
    return JobFile(
        name=spec.get("name", path.stem),
        params=params,
        jobs=jobs,
        mode=mode,
        workers=int(spec.get("workers", 1)),
        executor=executor,
        schema_version=int(version),
    )
