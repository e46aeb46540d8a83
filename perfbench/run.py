"""The repository benchmark (described by ``BENCHMARK.json``).

Run from the root of a checkout::

    python3 perfbench/run.py --workload soak_burst --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the per-layer metrics in a separate run.  Human-readable lines (tails,
checks, the simulated-statistics digest) go first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exit status: 0 when a result was printed,
whether or not its output checks passed (``correct`` says which); 2
when the benchmark could not run at all, with nothing on stdout.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

import frontdoor
import layers
import realtime
import stats

WORKLOADS = ("soak_burst", "soak_paced", "stream_dense", "rt_swap")

HERE = Path(__file__).resolve().parent

Figures = Dict[str, float]

#: end-to-end figures re-measured inside the traced phase; their
#: difference to the untraced runs is the tracing overhead
TRACED_E2E = (
    "jobs_per_s", "words_per_s", "sim_us_per_s", "job_latency_p50_ms",
)


class Outcome:
    """What one run measured and what its output checks found."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.notes: Dict[str, object] = {}

    def add_check(self, attempted: int, failed: int,
                  problems: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


# ----------------------------------------------------------------------
# end-to-end (untraced) runs
# ----------------------------------------------------------------------
def front_door_e2e(root: Path, workload: str, seed: int,
                   seconds: float) -> Outcome:
    out = Outcome()
    setups: List[float] = []
    server = None
    try:
        for index in range(frontdoor.SETUP_LAUNCHES):
            if server is not None:
                server.stop()
            server, setup_s = frontdoor.launch(root, seed, index)
            setups.append(setup_s)
        phase = asyncio.run(frontdoor.run_phase(
            workload, server.port, seed, seconds, traced=False))
        rss = stats.peak_rss_mb(server.tree())
        server.stop()
    except BaseException:
        if server is not None:
            server.kill()
        raise
    failed, problems = frontdoor.check_phase(phase, frontdoor.References())
    if workload == "soak_paced":
        problems += frontdoor.paced_problems(phase)
    if server.drained.get("words_lost"):
        problems.append(f"server lost {server.drained['words_lost']} words")
    out.add_check(len(phase.jobs), failed, problems)
    out.metrics = frontdoor.phase_metrics(phase)
    out.metrics["setup_s"] = stats.median(setups)
    out.metrics["peak_rss_mb"] = rss
    out.notes.update(frontdoor.tail_report(phase))
    out.notes["digest"] = frontdoor.phase_digest(phase)
    return out


def rt_e2e(seed: int, seconds: float) -> Outcome:
    out = Outcome()
    phase = realtime.run_phase(seed, seconds)
    failed, problems = realtime.check_phase(phase)
    out.add_check(sum(run.jobs for run in phase.runs), failed, problems)
    out.metrics = realtime.phase_metrics(phase)
    out.metrics["setup_s"] = stats.median(phase.setup_s)
    out.metrics["peak_rss_mb"] = realtime.peak_rss_mb()
    out.notes.update(realtime.summary(phase))
    out.notes["digest"] = realtime.phase_digest(phase)
    return out


# ----------------------------------------------------------------------
# traced runs: per-layer metrics
# ----------------------------------------------------------------------
#: workload whose front-door layers a realtime traced run measures
FRONT_DOOR_PROBE = "soak_burst"
#: a short front-door pass is enough for its layer counters
PROBE_SECONDS = 2.0


def front_door_layers(root: Path, workload: str, seed: int, seconds: float,
                      out: Outcome) -> Tuple[Figures, Figures]:
    """(per-layer figures, end-to-end figures) of a traced phase."""
    server, _ = frontdoor.launch(root, seed, 0)
    try:
        phase, found = frontdoor.traced_phase(server, workload, seed,
                                              seconds)
        server.stop()
    except BaseException:
        server.kill()
        raise
    failed, problems = frontdoor.check_phase(phase, frontdoor.References())
    out.add_check(len(phase.jobs), failed, problems)
    if workload == "soak_paced":
        out.problems.extend(frontdoor.paced_problems(phase))
    out.notes[f"{workload}.digest"] = frontdoor.phase_digest(phase)
    return found, frontdoor.phase_metrics(phase)


def rt_layers(seed: int, seconds: float,
              out: Outcome) -> Tuple[Figures, Figures]:
    phase = realtime.run_phase(seed, seconds)
    failed, problems = realtime.check_phase(phase)
    out.add_check(sum(run.jobs for run in phase.runs), failed, problems)
    out.notes["rt_swap.digest"] = realtime.phase_digest(phase)
    out.notes.update(realtime.summary(phase))
    return realtime.layer_metrics(phase), realtime.phase_metrics(phase)


def traced(root: Path, workload: str, seed: int, seconds: float) -> Outcome:
    """The workload's own phase, traced, plus short probes of the layers
    it does not reach, plus the in-process layer probes."""
    out = Outcome()
    if workload == "rt_swap":
        rt, own = rt_layers(seed, seconds, out)
        fd, _ = front_door_layers(root, FRONT_DOOR_PROBE, seed,
                                  PROBE_SECONDS, out)
    else:
        fd, own = front_door_layers(root, workload, seed, seconds, out)
        rt, _ = rt_layers(seed, 0.0, out)
    out.metrics.update(fd)
    out.metrics.update(rt)
    out.metrics.update(layers.in_process_probes(seed))
    for name in TRACED_E2E:
        out.metrics[f"traced.{name}"] = own[name]
    if out.metrics["switch.words_lost"]:
        out.problems.append("Figure-5 switch lost words")
    return out


# ----------------------------------------------------------------------
def declared_units(kind: str) -> Dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def result_line(out: Outcome, units: Dict[str, str]) -> str:
    missing = sorted(set(units) - set(out.metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = not out.problems and out.failed == 0
    payload = {
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": float(out.metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return json.dumps(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under test ({root}/src/repro is "
              "missing); run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    try:
        if args.trace:
            out = traced(root, args.workload, args.seed, args.seconds)
        elif args.workload == "rt_swap":
            out = rt_e2e(args.seed, args.seconds)
        else:
            out = front_door_e2e(root, args.workload, args.seed,
                                 args.seconds)
        units = declared_units("per_layer" if args.trace else "end_to_end")
        line = result_line(out, units)
    except Exception as error:  # noqa: BLE001 - report, print no result
        traceback.print_exc()
        print(f"perfbench: {args.workload} did not complete: {error}",
              file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: attempted {out.attempted}, "
          f"failed {out.failed}, failed_frac "
          f"{out.failed / max(1, out.attempted):.6f}")
    for name in sorted(out.metrics):
        unit = units.get(name, "")
        print(f"  {name:<34} {out.metrics[name]:>16.6g} {unit}")
    for key, value in out.notes.items():
        print(f"  {key:<34} {value}")
    for problem in out.problems[:20]:
        print(f"  CHECK FAILED: {problem}")
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
