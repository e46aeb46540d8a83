"""Front-door workloads: a real ``repro serve --listen`` process, driven
over loopback by the bundled :mod:`repro.pool.client`.

Load shape (sized for a 2-core host): the server runs one process
device worker per core at overcommit 2.0 with the system and executor
of ``examples/jobfiles/pool_soak.json`` (copied to ``serve.json``
here).  The benchmark is the only load generator: one process, one
asyncio loop, no extra threads, never more than 2 connections open.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import stats

HOST = "127.0.0.1"
SERVE_JOBFILE = Path(__file__).with_name("serve.json")
DEVICES = 2
OVERCOMMIT = 2.0
#: the first batch after a launch runs ~20% slow while workers import
#: lazily; this many soak jobs absorb it and are charged to setup_s
WARMUP_JOBS = 60
#: setup_s is the median of this many launches (the last one serves)
SETUP_LAUNCHES = 3
#: soak_burst batch size: all sent at once on one connection (about a
#: second of work, so a run holds many batches to take the median of)
BURST_JOBS = 100
#: soak_paced offered load, fixed -- about half of soak_burst capacity
#: on a 2-core host (~90 jobs/s); never derived at run time
PACED_RATE = 40.0
PACED_CONNECTIONS = 2
#: the paced run is invalid if its generator fell this far behind
PACED_MAX_P50_LATENESS_S = 1.0 / PACED_RATE
PACED_MAX_LATENESS_S = 1.0
#: stream_dense: every batch holds two 2-stage and two 1-stage rate-1
#: chains of near-equal host cost, so the two devices stay balanced and
#: seeds differ in chains, order and source period, not in total work
DENSE_WORDS = 40_000
DENSE_SINGLE = (("moving_average", {"window": 4}), ("delta_encoder", {}))
DENSE_PAIRS = (
    (("delta_encoder", {}), ("moving_average", {"window": 4})),
    (("scaler", {"gain": 3}), ("delta_encoder", {})),
    (("moving_average", {"window": 4}), ("abs", {})),
)
STARTUP_TIMEOUT_S = 60.0
SHUTDOWN_TIMEOUT_S = 60.0


class BenchError(RuntimeError):
    """The benchmark could not drive the program (not a wrong output)."""


# ----------------------------------------------------------------------
# the program under test
# ----------------------------------------------------------------------
class Server:
    """One ``python -m repro serve JOBFILE --listen`` process."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.drained: Dict = {}

    def start(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    str(SERVE_JOBFILE), "--listen", f"{HOST}:0",
                    "--devices", str(DEVICES),
                    "--overcommit", str(OVERCOMMIT),
                ],
                cwd=self.root, env=env, stdout=subprocess.PIPE,
                stderr=log, stdin=subprocess.DEVNULL,
                start_new_session=True,
            )
        assert self.proc.stdout is not None
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], STARTUP_TIMEOUT_S
        )
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("serve: listening on "):
            self.kill()
            raise BenchError(
                f"server did not start (see {self.log_path}): {line!r}"
            )
        address = line.split()[3]
        self.port = int(address.rpartition(":")[2])

    @property
    def pid(self) -> int:
        assert self.proc is not None
        return self.proc.pid

    def tree(self) -> List[int]:
        return [self.pid] + stats.children_of(self.pid)

    def stop(self) -> None:
        """SIGTERM: the server drains every accepted job, then exits."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.send_signal(signal.SIGTERM)
        try:
            out, _ = proc.communicate(timeout=SHUTDOWN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("server did not drain within the timeout")
        for line in out.decode().splitlines():
            if line.startswith("serve: drained; "):
                self.drained = json.loads(line.split("; ", 1)[1])
        if proc.returncode != 0:
            raise BenchError(f"server exited {proc.returncode}")

    def kill(self) -> None:
        """SIGKILL the server and its workers (its own session) and wait
        until every one of them has ended."""
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        workers = stats.children_of(proc.pid)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        deadline = time.monotonic() + SHUTDOWN_TIMEOUT_S
        while any(stats.alive(pid) for pid in workers):
            if time.monotonic() > deadline:
                raise BenchError(f"workers {workers} outlived the server")
            time.sleep(0.05)


# ----------------------------------------------------------------------
# seeded job specs (the program sees only these)
# ----------------------------------------------------------------------
def soak_specs(seed: int, tag: str, count: int) -> List:
    """``count`` jobs of the pool_soak mix, rotated by the seed.

    Names carry the seed, so noise sources differ per seed (their RNG
    is name-derived) while the mix stays the same.
    """
    from repro.bench.workloads import soak_jobs

    offset = random.Random(seed).randrange(15)
    return soak_jobs(offset + count, prefix=f"s{seed}{tag}")[offset:]


def dense_specs(seed: int, tag: str) -> List:
    """Two 2-stage chains, then two 1-stage chains, seed-picked."""
    from repro.runtime import SourceSpec, StageSpec, StreamJob

    rng = random.Random(seed)
    chains = [list(pair) for pair in rng.sample(DENSE_PAIRS, 2)]
    chains += [[single] for single in rng.sample(DENSE_SINGLE, 2)]
    period = rng.choice((32, 64, 128))
    return [
        StreamJob(
            name=f"d{seed}{tag}-{i}",
            stages=[StageSpec(kind, dict(params)) for kind, params in chain],
            source=SourceSpec("sine", count=DENSE_WORDS,
                              params={"period": period}),
        )
        for i, chain in enumerate(chains)
    ]


# ----------------------------------------------------------------------
# one load phase
# ----------------------------------------------------------------------
@dataclass
class JobRecord:
    spec: object
    due: float = 0.0
    first_rx: Optional[float] = None
    done_rx: Optional[float] = None
    done_t: Optional[float] = None
    report: Optional[Dict] = None
    failed: str = ""
    stamps: Dict[str, float] = field(default_factory=dict)


@dataclass
class Batch:
    """Jobs sent together; ``end`` is the last ``batch_done`` receipt."""

    start: float = 0.0
    end: float = 0.0
    names: List[str] = field(default_factory=list)


@dataclass
class Phase:
    traced: bool
    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    batches: List[Batch] = field(default_factory=list)
    summaries: List[Dict] = field(default_factory=list)
    rejects: int = 0
    events: int = 0
    bytes: int = 0
    steals: int = 0
    lateness: List[float] = field(default_factory=list)
    connections: int = 0

    def add(self, specs) -> Batch:
        batch = Batch(names=[spec.name for spec in specs])
        for spec in specs:
            if spec.name in self.jobs:
                raise BenchError(f"duplicate job name {spec.name}")
            self.jobs[spec.name] = JobRecord(spec)
        self.batches.append(batch)
        return batch


async def _consume(client, phase: Phase, batch: Batch) -> None:
    async for event in client.events():
        now = time.monotonic()
        phase.events += 1
        if phase.traced:
            # the server writes json.dumps(event) + "\n"; re-encoding
            # the parsed event reproduces those bytes exactly
            phase.bytes += len(json.dumps(event)) + 1
        kind = event.get("event")
        if kind == "batch_done":
            phase.summaries.append(event)
            batch.end = max(batch.end, now)
            continue
        record = phase.jobs.get(event.get("job"))
        if kind == "reject":
            phase.rejects += 1
            if record is not None:
                record.failed = f"rejected: {event.get('error')}"
            continue
        if record is None:
            continue  # pool-level telemetry
        if phase.traced:
            record.stamps[kind] = event["t"]
        if kind == "first_sample":
            record.first_rx = now
        elif kind == "done":
            record.done_rx = now
            record.done_t = event["t"]
            record.report = event.get("report")
        elif kind == "failed":
            record.failed = event.get("failure_reason") or "failed"
        elif kind == "stolen":
            phase.steals += 1


async def _finish(tasks: List[asyncio.Task], clients) -> None:
    """Cancel what is still running, collect every task, close clients."""
    for task in tasks:
        if not task.done():
            task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for client in clients:
        await client.close()


async def _burst(port: int, phase: Phase, specs, tenant: str) -> None:
    """Send ``specs`` at once on one connection, as ``repro submit``."""
    from repro.pool.client import PoolClient

    batch = phase.add(specs)
    client = PoolClient(HOST, port)
    consumers: List[asyncio.Task] = []
    try:
        await client.open(tenant=tenant)
        phase.connections = max(phase.connections, 1)
        consumers.append(asyncio.get_running_loop().create_task(
            _consume(client, phase, batch)
        ))
        batch.start = time.monotonic()
        for spec in specs:
            phase.jobs[spec.name].due = time.monotonic()
            await client.submit(spec)
        await client.finish_submissions()
        await consumers[0]
    finally:
        await _finish(consumers, [client])


async def _paced(port: int, phase: Phase, specs, rate: float) -> None:
    """Open loop: job k is due at t0 + k/rate on connection k % 2."""
    from repro.pool.client import PoolClient

    batch = phase.add(specs)
    clients = [PoolClient(HOST, port) for _ in range(PACED_CONNECTIONS)]
    loop = asyncio.get_running_loop()
    consumers: List[asyncio.Task] = []
    try:
        for index, client in enumerate(clients):
            await client.open(tenant=f"tenant{index}")
            consumers.append(
                loop.create_task(_consume(client, phase, batch))
            )
        phase.connections = len(clients)
        batch.start = time.monotonic()
        for k, spec in enumerate(specs):
            due = batch.start + k / rate
            delay = due - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            phase.jobs[spec.name].due = due
            phase.lateness.append(time.monotonic() - due)
            await clients[k % len(clients)].submit(spec)
        for client in clients:
            await client.finish_submissions()
        for consumer in consumers:
            await consumer
    finally:
        await _finish(consumers, clients)


async def run_phase(
    workload: str, port: int, seed: int, seconds: float, traced: bool
) -> Phase:
    """One timed phase of ``workload`` against a warm server."""
    phase = Phase(traced=traced)
    start = time.monotonic()
    if workload == "soak_paced":
        count = int(round(seconds * PACED_RATE))
        await _paced(port, phase, soak_specs(seed, "p", count), PACED_RATE)
        return phase
    index = 0
    while index == 0 or time.monotonic() - start < seconds:
        if workload == "soak_burst":
            specs = soak_specs(seed, f"b{index}", BURST_JOBS)
        elif workload == "stream_dense":
            specs = dense_specs(seed, f"b{index}")
        else:
            raise BenchError(f"not a front-door workload: {workload}")
        await _burst(port, phase, specs, tenant="bench")
        index += 1
    return phase


def warm_up(port: int, seed: int, launch: int) -> None:
    phase = Phase(traced=False)
    asyncio.run(
        _burst(port, phase, soak_specs(seed, f"w{launch}", WARMUP_JOBS),
               tenant="warmup")
    )
    done = sum(1 for r in phase.jobs.values() if r.report is not None)
    if done != WARMUP_JOBS:
        raise BenchError(f"warm-up finished {done}/{WARMUP_JOBS} jobs")


def launch(root: Path, seed: int, launch_index: int) -> Tuple[Server, float]:
    """Start a server and run the warm-up batch; returns setup seconds."""
    server = Server(root, root / ".perfbench" / "server.log")
    start = time.perf_counter()
    server.start()
    try:
        warm_up(server.port, seed, launch_index)
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


# ----------------------------------------------------------------------
# output checks and metrics
# ----------------------------------------------------------------------
#: report fields that name or place a job rather than describe what the
#: simulator computed for it
_IDENTITY_FIELDS = ("name", "index", "shard", "span_track")


def simulated_fields(report: Dict) -> Dict:
    return {k: v for k, v in report.items() if k not in _IDENTITY_FIELDS}


class References:
    """Solo in-process runs of the served specs, for output checks.

    Keyed by the spec without its name: the name only seeds noise
    values, and no report field depends on sample values.
    """

    def __init__(self) -> None:
        from repro.runtime import ExecutorConfig, load_jobfile

        jobfile = load_jobfile(SERVE_JOBFILE)
        self.params = jobfile.params
        self.config = ExecutorConfig.from_dict(jobfile.executor)
        self._cache: Dict[str, Dict] = {}

    def expected(self, spec) -> Dict:
        from repro.runtime import JobExecutor

        data = spec.to_dict()
        data.pop("name")
        key = json.dumps(data, sort_keys=True)
        if key not in self._cache:
            run = JobExecutor(params=self.params, config=self.config).run(
                [spec]
            )
            self._cache[key] = simulated_fields(run.jobs[0].to_dict())
        return self._cache[key]


def check_phase(phase: Phase, refs: References) -> Tuple[int, List[str]]:
    """Failed-job count and a list of problems found."""
    problems: List[str] = []
    failed = 0
    for name, record in phase.jobs.items():
        report = record.report
        if report is None or record.failed or report["state"] != "DONE":
            failed += 1
            problems.append(f"{name}: not done ({record.failed or 'no report'})")
            continue
        if report["words_lost"]:
            failed += 1
            problems.append(f"{name}: lost {report['words_lost']} words")
            continue
        want = refs.expected(record.spec)
        got = simulated_fields(report)
        if got != want:
            failed += 1
            diff = sorted(k for k in want if got.get(k) != want[k])
            problems.append(f"{name}: differs from solo run in {diff}")
    if phase.rejects:
        problems.append(f"{phase.rejects} submission(s) rejected")
    for summary in phase.summaries:
        if summary.get("words_lost"):
            problems.append(f"batch lost {summary['words_lost']} words")
    if phase.connections > (os.cpu_count() or 1):
        problems.append(
            f"{phase.connections} connections exceed nproc "
            f"{os.cpu_count()}"
        )
    return failed, problems


def paced_problems(phase: Phase) -> List[str]:
    """An open-loop run is invalid when its generator fell behind."""
    if not phase.lateness:
        return []
    p50 = stats.median(phase.lateness)
    worst = max(phase.lateness)
    if p50 > PACED_MAX_P50_LATENESS_S or worst > PACED_MAX_LATENESS_S:
        return [
            f"generator fell behind its schedule "
            f"(lateness p50 {p50 * 1e3:.1f} ms, max {worst * 1e3:.1f} ms)"
        ]
    return []


def sim_us(report: Dict) -> float:
    return report["queue_wait_us"] + report["placement_us"] + report["run_us"]


def _batch_rates(phase: Phase) -> Tuple[float, float, float]:
    """Median over batches of jobs, words and simulated us per second."""
    jobs, words, sim = [], [], []
    for batch in phase.batches:
        if batch.end <= batch.start:
            raise BenchError("batch ended before it started")
        elapsed = batch.end - batch.start
        reports = [
            phase.jobs[name].report for name in batch.names
            if phase.jobs[name].report is not None
        ]
        jobs.append(len(reports) / elapsed)
        words.append(sum(r["words_out"] for r in reports) / elapsed)
        sim.append(sum(sim_us(r) for r in reports) / elapsed)
    return stats.median(jobs), stats.median(words), stats.median(sim)


def latencies(phase: Phase) -> Tuple[List[float], List[float]]:
    """(first-sample, done) latency per attempted job, seconds from the
    job's due (paced) or submit (burst) time; missing = stats.MISSING."""
    first, done = [], []
    for record in phase.jobs.values():
        ok = record.report is not None and not record.failed
        first.append(
            record.first_rx - record.due
            if ok and record.first_rx is not None else stats.MISSING
        )
        done.append(
            record.done_rx - record.due
            if ok and record.done_rx is not None else stats.MISSING
        )
    return first, done


def phase_metrics(phase: Phase) -> Dict[str, float]:
    """The end-to-end figures of one phase (tracing-independent)."""
    jobs_s, words_s, sim_s = _batch_rates(phase)
    _, done = latencies(phase)
    span_ms = (
        max(b.end for b in phase.batches) - min(b.start for b in phase.batches)
    ) * 1e3
    return {
        "jobs_per_s": jobs_s,
        "words_per_s": words_s,
        "sim_us_per_s": sim_s,
        "job_latency_p50_ms": stats.finite_or(
            stats.median(done) * 1e3, span_ms),
    }


def tail_report(phase: Phase) -> Dict[str, object]:
    """p90 latencies where the sample supports them (else refused)."""
    first, done = latencies(phase)
    out: Dict[str, object] = {
        "latency_samples": len(done),
        "first_sample_p50_ms": round(stats.median(first) * 1e3, 3),
    }
    for name, values in (("first_sample", first), ("job_latency", done)):
        try:
            out[f"{name}_p90_ms"] = round(
                stats.percentile(values, 0.9) * 1e3, 3)
        except stats.PercentileRefused as refusal:
            out[f"{name}_p90_ms"] = f"refused: {refusal}"
    if phase.lateness:
        out["generator_lateness_p50_ms"] = round(
            stats.median(phase.lateness) * 1e3, 3)
        out["generator_lateness_max_ms"] = round(
            max(phase.lateness) * 1e3, 3)
    out["connections"] = phase.connections
    out["nproc"] = os.cpu_count()
    return out


def phase_digest(phase: Phase) -> str:
    """Digest of every job's simulated statistics, in submission order."""
    return stats.digest(
        simulated_fields(r.report) if r.report else None
        for r in phase.jobs.values()
    )


# ----------------------------------------------------------------------
# per-layer figures of a traced phase
# ----------------------------------------------------------------------
def _ms_p50(values: List[float]) -> float:
    return stats.median(values) * 1e3 if values else 0.0


def layer_metrics(phase: Phase, cpu: Dict[str, float], snapshots: int,
                  scrape_ms: float) -> Dict[str, float]:
    done = [r for r in phase.jobs.values() if r.report is not None]
    if not done:
        raise BenchError("traced phase finished no jobs")
    n = len(done)
    splits = stats.stage_splits(
        {name: r.stamps for name, r in phase.jobs.items()}
    )
    deliver = [r.done_rx - r.done_t for r in done]
    return {
        "server.cpu_ms_per_job": cpu["server"] * 1e3 / n,
        "server.bytes_per_job": phase.bytes / n,
        "server.events_per_job": phase.events / n,
        "server.deliver_ms_p50": _ms_p50(deliver),
        "pool.queue_ms_p50": _ms_p50(splits["queue"]),
        "pool.admit_ms_p50": _ms_p50(splits["admit"]),
        "pool.steals": float(phase.steals),
        "pool.snapshots_per_job": snapshots / n,
        "bridge.dispatch_ms_p50": _ms_p50(splits["dispatch"]),
        "bridge.worker_cpu_ms_per_job": cpu["workers"] * 1e3 / n,
        "bridge.device_first_sample_ms_p50": _ms_p50(
            splits["device_first_sample"]),
        "obs.metrics_scrape_ms": scrape_ms,
    }


def _cpu(server: Server) -> Dict[str, float]:
    return {
        "server": stats.cpu_seconds(server.pid),
        "workers": sum(
            stats.cpu_seconds(pid) for pid in stats.children_of(server.pid)
        ),
    }


async def _scrape_metrics(port: int, times: int = 5) -> float:
    """Median wall ms of ``GET /metrics`` (one connection at a time)."""
    samples = []
    for _ in range(times):
        start = time.perf_counter()
        reader, writer = await asyncio.open_connection(HOST, port)
        try:
            writer.write(
                f"GET /metrics HTTP/1.1\r\nHost: {HOST}:{port}\r\n"
                "Connection: close\r\n\r\n".encode("ascii")
            )
            await writer.drain()
            body = await reader.read()
        finally:
            writer.close()
            await writer.wait_closed()
        if not body.startswith(b"HTTP/1.1 200"):
            raise BenchError("GET /metrics failed")
        samples.append(time.perf_counter() - start)
    return stats.median(samples) * 1e3


def traced_phase(server: Server, workload: str, seed: int,
                 seconds: float) -> Tuple[Phase, Dict[str, float]]:
    """A phase with per-event stamps, CPU and pool counters recorded."""
    from repro.pool.client import get_json

    before_stats = asyncio.run(get_json(HOST, server.port, "/stats"))
    cpu_before = _cpu(server)
    phase = asyncio.run(run_phase(workload, server.port, seed, seconds,
                                  traced=True))
    cpu_after = _cpu(server)
    after_stats = asyncio.run(get_json(HOST, server.port, "/stats"))
    scrape_ms = asyncio.run(_scrape_metrics(server.port))
    cpu = {k: cpu_after[k] - cpu_before[k] for k in cpu_before}
    snapshots = (after_stats["live"]["snapshots"]
                 - before_stats["live"]["snapshots"])
    return phase, layer_metrics(phase, cpu, snapshots, scrape_ms)
