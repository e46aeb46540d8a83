"""Measure every workload on seeds 1-10 and append a trajectory point.

Run from the root of a checkout::

    python3 perfbench/record.py --revision $(git rev-parse --short HEAD)

For each workload this runs the benchmark untraced once per seed and
traced once, prints each end-to-end metric's median and quartile spread
(``statistics.quantiles(values, n=4)``, as a share of the median) next
to its bound, and appends one JSON line to ``perfbench/trajectory.jsonl``
with the revision, host, every end-to-end and per-layer value, the
tracing overhead (traced-run value minus untraced median) and a host
speed probe taken before and after.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
#: every trajectory point is measured on the same seeds
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited "
            f"{proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    print(f"  {workload} seed {seed} trace {trace}: "
          f"{result['wall_s']:.1f} s, correct={result['correct']}",
          flush=True)
    if not result["correct"]:
        print("\n".join(lines[:-1]), file=sys.stderr)
    return result


def spread(values: List[float]) -> Dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
        "values": values,
    }


def host_probe_ms(rounds: int = 15) -> float:
    """Median ms of a fixed pure-Python loop: how fast the host was.

    Shared hosts drift by up to 2x over minutes; the probe lets a reader
    tell a slow host from a slow revision.  It is not a metric.
    """
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        total = 0
        for k in range(1_000_000):
            total += k * k
        samples.append(time.perf_counter() - start)
    return statistics.median(samples) * 1e3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--revision", required=True)
    args = parser.parse_args(argv)

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(SEEDS)
    point: Dict = {
        "revision": args.revision,
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    probes = [host_probe_ms()]
    steady = True
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        walls: List[float] = []
        attempted = failed = 0
        correct = True
        for seed in seeds:
            result = run_once(workload, seed, seconds, trace=0)
            walls.append(result["wall_s"])
            attempted += result["attempted"]
            failed += result["failed"]
            correct &= result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        traced = run_once(workload, seeds[0], seconds, trace=1)
        correct &= traced["correct"]
        e2e = {name: spread(v) for name, v in values.items()}
        layers = {n: m["value"] for n, m in traced["metrics"].items()}
        overhead = {
            name: layers[f"traced.{name}"] - e2e[name]["median"]
            for name in e2e if f"traced.{name}" in layers
        }
        point["workloads"][workload] = {
            "correct": correct, "attempted": attempted, "failed": failed,
            "run_wall_s": statistics.median(walls),
            "traced_run_wall_s": traced["wall_s"],
            "end_to_end": e2e, "per_layer": layers,
            "trace_overhead": overhead,
        }
        print(f"{workload}: correct={correct} attempted={attempted} "
              f"failed={failed}")
        for name, s in e2e.items():
            bound = bounds[name]
            ok = s["spread"] <= bound / 3
            steady &= ok
            print(f"  {name:<22} median {s['median']:>12.6g}  spread "
                  f"{s['spread']:.3f}  bound {bound}"
                  f"{'' if ok else '  (above a third of the bound)'}")
    probes.append(host_probe_ms())
    point["host_probe_ms"] = probes
    out = HERE / "trajectory.jsonl"
    with open(out, "a") as handle:
        handle.write(json.dumps(point, sort_keys=True) + "\n")
    print(f"appended to {out}; steady={steady}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
