"""Pure helpers of the benchmark: percentiles, stage splits, ``/proc``.

Nothing here imports the program under test, so the helpers can be
unit-tested (``python3 -m pytest perfbench``) without building or
starting anything.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p90 needs 100 samples and p50 needs 20.
MIN_BEYOND = 10

MISSING = math.inf


class PercentileRefused(ValueError):
    """Too few samples to support the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q < 1) of ``values``.

    Refuses (raises :class:`PercentileRefused`) unless at least
    :data:`MIN_BEYOND` samples rank above the returned one.  Missing
    results are passed as :data:`MISSING` and rank above every measured
    value, so a failed or refused job counts as missing any limit.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile wants 0 < q < 1, got {q}")
    n = len(values)
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        raise PercentileRefused(
            f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"have {n} samples"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median of a non-empty sequence (no sample-count rule)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def finite_or(value: float, fallback: float) -> float:
    """``value`` unless it is MISSING, else ``fallback`` (JSON has no
    infinity; callers pass the phase length, a lower bound on how late
    a job that never finished is)."""
    return value if math.isfinite(value) else fallback


# ----------------------------------------------------------------------
# stage splits from the pool's own event stamps
# ----------------------------------------------------------------------
#: (split name, from event, to event); every stamp is the server's
#: ``time.monotonic()``, the same clock the benchmark process reads
STAGES: Tuple[Tuple[str, str, str], ...] = (
    ("queue", "submitted", "placed"),
    ("admit", "placed", "bound"),
    ("dispatch", "bound", "running"),
    ("device_first_sample", "running", "first_sample"),
    ("stream", "first_sample", "done"),
)


def stage_splits(stamps: Dict[str, Dict[str, float]]) -> Dict[str, List[float]]:
    """Per-stage durations (seconds) over jobs.

    ``stamps`` maps a job name to ``{event kind: t}``, where a repeated
    kind (a stolen job is placed twice) keeps its last stamp.  A job
    contributes to a stage only when both ends were seen; a stage that
    would run backwards means a clock or bookkeeping bug and raises.
    """
    out: Dict[str, List[float]] = {name: [] for name, _, _ in STAGES}
    for job, seen in stamps.items():
        for name, start, end in STAGES:
            if start in seen and end in seen:
                span = seen[end] - seen[start]
                if span < 0:
                    raise ValueError(
                        f"{job}: {start}->{end} runs backwards ({span})"
                    )
                out[name].append(span)
    return out


# ----------------------------------------------------------------------
# /proc parsing
# ----------------------------------------------------------------------
def parse_stat_cpu_ticks(stat_text: str) -> int:
    """utime + stime (clock ticks) from a ``/proc/<pid>/stat`` line.

    The command name (field 2) may hold spaces and parentheses, so the
    fields are counted from the last ``)``.
    """
    rest = stat_text[stat_text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15
    return int(rest[11]) + int(rest[12])


def parse_stat_ppid(stat_text: str) -> int:
    return int(stat_text[stat_text.rindex(")") + 2:].split()[1])


def parse_status_kb(status_text: str, key: str = "VmHWM") -> int:
    """A ``kB`` field of ``/proc/<pid>/status`` (default the peak RSS)."""
    for line in status_text.splitlines():
        name, _, value = line.partition(":")
        if name == key:
            number, unit = value.split()
            if unit != "kB":
                raise ValueError(f"{key} in unexpected unit {unit!r}")
            return int(number)
    raise ValueError(f"{key} not in status")


def _read(path: str) -> Optional[str]:
    try:
        with open(path) as handle:
            return handle.read()
    except (FileNotFoundError, ProcessLookupError):
        return None


def children_of(pid: int, proc: str = "/proc") -> List[int]:
    """Direct children of ``pid`` (a scan of ``/proc/*/stat``)."""
    found = []
    for entry in os.listdir(proc):
        if not entry.isdigit():
            continue
        text = _read(f"{proc}/{entry}/stat")
        if text is not None and parse_stat_ppid(text) == pid:
            found.append(int(entry))
    return sorted(found)


def alive(pid: int, proc: str = "/proc") -> bool:
    """True while ``pid`` exists and is not a zombie."""
    text = _read(f"{proc}/{pid}/stat")
    return text is not None and text[text.rindex(")") + 2] != "Z"


def cpu_seconds(pid: int, proc: str = "/proc") -> float:
    text = _read(f"{proc}/{pid}/stat")
    if text is None:
        raise ProcessLookupError(pid)
    return parse_stat_cpu_ticks(text) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pids: Iterable[int], proc: str = "/proc") -> float:
    """Sum of VmHWM over ``pids``, in MiB.

    Forked workers share their parent's pages until written, so the sum
    counts shared pages once per process: an upper bound on the tree's
    true peak, but measured the same way on every commit.
    """
    total_kb = 0
    for pid in pids:
        text = _read(f"{proc}/{pid}/status")
        if text is None:
            raise ProcessLookupError(pid)
        total_kb += parse_status_kb(text)
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# simulated-statistics digest
# ----------------------------------------------------------------------
def digest(records: Iterable[object]) -> str:
    """Short stable hash of JSON-able simulated statistics.

    Printed with every run so a reviewer sees at once when a change
    meant only to be faster altered what the simulator computed.
    """
    payload = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
