"""rt_swap: seeded periodic pipelines time-sharing the prototype's two
PRRs under the public ``repro.realtime`` API that ``repro realtime run``
uses (``generate_workload`` + ``EdfExecutor.run_realtime``).

Every rotation is a ``CMD_CHECKPOINT`` drain plus a staged Figure-5
restore, so this is the reconfiguration-heavy workload.
"""

from __future__ import annotations

import gc
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import stats

#: distinct job sets per run; the timed loop passes over them and
#: checks every repeat of a set against the set's first run
SETS = 6
JOBS_PER_SET = 3
#: every set is stratified to one job per frame size and one per filter
#: kind of the generator's palettes, so sets differ in pairing, sources
#: and periods but not in total work -- which keeps run-to-run spread
#: across seeds small without pinning one input
FRAME_WORDS = (1024, 1536, 2048)
FILTER_KINDS = ("fir", "median", "moving_average")
#: between the 0.6 CI smoke (all frames hit) and 0.9 (most missed), so
#: the hit rate can move either way
UTILIZATION = 0.75
DEADLINE_FACTOR = 3.0
FRAMES = 5
#: ``repro realtime gen`` / ``run`` defaults
SYSTEM = {"preset": "prototype", "pr_speedup": 20_000.0}
EXECUTOR = {"quantum_us": 5.0, "idle_streak": 2}


@dataclass
class RtRun:
    set_index: int
    seconds: float
    jobs: int
    words_out: int
    sim_us: float
    first_sample_s: List[float]
    outcome: List[Tuple]  # per job: (name, state, hits, fingerprint, words_lost)
    suspensions: int
    preemptions: int
    icap_busy: float


@dataclass
class RtPhase:
    runs: List[RtRun] = field(default_factory=list)
    #: seconds of each pass's set-up
    setup_s: List[float] = field(default_factory=list)


def stratified(job_set) -> bool:
    return (
        sorted(job.frame_words for job in job_set) == list(FRAME_WORDS)
        and sorted(job.stages[0].kind for job in job_set)
        == list(FILTER_KINDS)
    )


def _generate(generator_seed: int, params) -> List:
    from repro.realtime import generate_workload

    return generate_workload(
        seed=generator_seed, jobs=JOBS_PER_SET, utilization=UTILIZATION,
        params=params, deadline_factor=DEADLINE_FACTOR, frames=FRAMES,
    )


def generator_seeds(seed: int, params) -> List[int]:
    """``SETS`` generator seeds drawn from ``seed`` whose sets are
    stratified (the benchmark choosing its inputs; not timed)."""
    rng = random.Random(seed)
    chosen: List[int] = []
    while len(chosen) < SETS:
        candidate = rng.randrange(1 << 30)
        if stratified(_generate(candidate, params)):
            chosen.append(candidate)
    return chosen


def setup(generator_seed: int, params, config):
    """Workload generation plus executor construction: the set-up that
    ``repro realtime gen`` and ``run`` pay before serving a set."""
    from repro.realtime import EdfExecutor

    return (_generate(generator_seed, params),
            EdfExecutor(params=params, config=config))


def run_one(index: int, job_set, executor) -> RtRun:
    first: Dict[str, float] = {}
    start = time.perf_counter()
    executor.on_first_sample = (
        lambda job: first.setdefault(job.spec.name, time.perf_counter())
    )
    report = executor.run_realtime(job_set)
    elapsed = time.perf_counter() - start
    return RtRun(
        set_index=index,
        seconds=elapsed,
        jobs=len(report.jobs),
        words_out=sum(job.words_out for job in report.jobs),
        sim_us=report.fleet.sim_us,
        first_sample_s=[
            first[job.name] - start if job.name in first else stats.MISSING
            for job in report.jobs
        ],
        outcome=[
            (job.name, job.state, job.hits, job.fingerprint, job.words_lost)
            for job in report.jobs
        ],
        suspensions=report.suspensions_total,
        preemptions=report.preemptions,
        icap_busy=report.fleet.icap_busy_fraction,
    )


def run_phase(seed: int, seconds: float) -> RtPhase:
    """Pass over the seed's sets until at least ``seconds`` have passed.

    Every run sets up its set afresh and times it, so the set-up
    samples spread over the whole run like the other metrics do, and
    one burst of host load cannot move their median.
    """
    from repro.runtime import ExecutorConfig
    from repro.verify.loader import build_params

    params = build_params(dict(SYSTEM))
    config = ExecutorConfig.from_dict(dict(EXECUTOR))
    seeds = generator_seeds(seed, params)
    phase = RtPhase()
    start = time.perf_counter()
    while not phase.runs or time.perf_counter() - start < seconds:
        for index, generator_seed in enumerate(seeds):
            # executors hold reference cycles: collect the last run's
            # garbage untimed, or a collection lands in a random set-up
            gc.collect()
            setup_start = time.perf_counter()
            job_set, executor = setup(generator_seed, params, config)
            phase.setup_s.append(time.perf_counter() - setup_start)
            phase.runs.append(run_one(index, job_set, executor))
    return phase


def check_phase(phase: RtPhase) -> Tuple[int, List[str]]:
    """Every job DONE with no lost words; repeats of a set reproduce
    its first run's fingerprints and hit counts exactly."""
    failed = 0
    problems: List[str] = []
    first_of: Dict[int, List[Tuple]] = {}
    for run in phase.runs:
        for name, state, _hits, _fp, lost in run.outcome:
            if state != "DONE" or lost:
                failed += 1
                problems.append(f"set {run.set_index} {name}: {state}, "
                                f"{lost} words lost")
        reference = first_of.setdefault(run.set_index, run.outcome)
        if run.outcome != reference:
            failed += run.jobs
            problems.append(f"set {run.set_index}: repeat differs from "
                            "its first run")
    return failed, problems


def phase_metrics(phase: RtPhase) -> Dict[str, float]:
    busy = sum(run.seconds for run in phase.runs)
    # a realtime job's result reaches the user with its run's report
    done = [run.seconds for run in phase.runs for _ in range(run.jobs)]
    return {
        "jobs_per_s": sum(run.jobs for run in phase.runs) / busy,
        "words_per_s": sum(run.words_out for run in phase.runs) / busy,
        "sim_us_per_s": sum(run.sim_us for run in phase.runs) / busy,
        "job_latency_p50_ms": stats.median(done) * 1e3,
    }


def distinct_runs(phase: RtPhase) -> List[RtRun]:
    seen: Dict[int, RtRun] = {}
    for run in phase.runs:
        seen.setdefault(run.set_index, run)
    return [seen[i] for i in sorted(seen)]


def deadline_hits(phase: RtPhase) -> Tuple[int, int]:
    """(frames hit, frames judged) over one pass of the distinct sets."""
    runs = distinct_runs(phase)
    hits = sum(outcome[2] for run in runs for outcome in run.outcome)
    return hits, sum(FRAMES * run.jobs for run in runs)


def layer_metrics(phase: RtPhase) -> Dict[str, float]:
    """Simulated counters over one pass of the distinct sets (exact for
    a seed) plus the host time of a run."""
    runs = distinct_runs(phase)
    hits, frames = deadline_hits(phase)
    return {
        "realtime.suspensions": float(sum(r.suspensions for r in runs)),
        "realtime.preemptions": float(sum(r.preemptions for r in runs)),
        "realtime.icap_busy_fraction": stats.median(
            [r.icap_busy for r in runs]),
        "realtime.deadline_hit_rate": hits / frames,
        "realtime.run_s": stats.median([r.seconds for r in phase.runs]),
    }


def summary(phase: RtPhase) -> Dict[str, object]:
    hits, frames = deadline_hits(phase)
    first = [s for run in phase.runs for s in run.first_sample_s]
    return {
        "runs": len(phase.runs),
        "distinct_sets": len(distinct_runs(phase)),
        "first_sample_p50_ms": round(stats.median(first) * 1e3, 3),
        "deadline_hits": f"{hits}/{frames}",
        "deadline_hit_rate": round(hits / frames, 6),
    }


def phase_digest(phase: RtPhase) -> str:
    return stats.digest(
        [run.outcome, run.sim_us, run.suspensions, run.preemptions]
        for run in distinct_runs(phase)
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process (the realtime runs are in-process)."""
    return stats.peak_rss_mb([os.getpid()])
