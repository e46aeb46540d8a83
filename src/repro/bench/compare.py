"""Regression comparison against a committed baseline report.

The gate works on *normalized* rates (see :mod:`repro.bench.runner`), so
a slower CI runner does not trip it -- only a genuinely slower codebase
does.  A case is a regression when::

    new.normalized / baseline.normalized - 1 < -threshold

Baselines may carry an informational ``reference_seed`` section with raw
rates measured on the pre-fast-path kernel; when present, the report
prints the current-vs-seed speedup for those cases (never gated: raw
rates are machine-specific).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.bench.runner import BenchError


@dataclass
class CompareResult:
    """Outcome of one report-vs-baseline comparison."""

    ok: bool
    regressions: List[str] = field(default_factory=list)
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)


def compare_reports(
    new: Dict[str, Any],
    baseline: Dict[str, Any],
    threshold: float = 0.15,
) -> CompareResult:
    """Compare ``new`` against ``baseline``; see the module docstring."""
    if not 0 < threshold < 1:
        raise BenchError(f"threshold must be in (0, 1), got {threshold}")
    if new.get("mode") != baseline.get("mode"):
        raise BenchError(
            f"mode mismatch: report is {new.get('mode')!r} but baseline is "
            f"{baseline.get('mode')!r}; rerun with the matching --quick flag "
            "or refresh the baseline"
        )
    result = CompareResult(ok=True)
    new_cases = new.get("cases", {})
    for name, base_case in baseline.get("cases", {}).items():
        new_case = new_cases.get(name)
        if new_case is None:
            result.ok = False
            result.regressions.append(f"{name}: missing from this run")
            continue
        base_norm = base_case.get("normalized", 0.0)
        if base_norm <= 0:
            result.notes.append(f"{name}: baseline has no normalized rate")
            continue
        delta = new_case["normalized"] / base_norm - 1.0
        regressed = delta < -threshold
        result.rows.append(
            {
                "case": name,
                "metric": new_case.get("metric", base_case.get("metric", "")),
                "value": new_case["value"],
                "baseline_normalized": base_norm,
                "normalized": new_case["normalized"],
                "delta": delta,
                "regressed": regressed,
            }
        )
        if regressed:
            result.ok = False
            result.regressions.append(
                f"{name}: {delta:+.1%} vs baseline "
                f"(threshold -{threshold:.0%})"
            )
    for name in new_cases:
        if name not in baseline.get("cases", {}):
            result.notes.append(f"{name}: new case, no baseline yet")
    _seed_notes(new, baseline, result)
    return result


def _seed_notes(
    new: Dict[str, Any], baseline: Dict[str, Any], result: CompareResult
) -> None:
    """Informational current-vs-pre-fast-path speedups (never gated)."""
    reference = baseline.get("reference_seed")
    if not isinstance(reference, dict):
        return
    for name, seed_case in reference.get("cases", {}).items():
        new_case = new.get("cases", {}).get(name)
        seed_value = seed_case.get("value", 0.0)
        if new_case is None or seed_value <= 0:
            continue
        speedup = new_case["value"] / seed_value
        result.notes.append(
            f"{name}: {speedup:.2f}x vs pre-fast-path kernel "
            f"({new_case['value']:,.0f} vs {seed_value:,.0f} "
            f"{new_case.get('metric', '')}; raw rates, "
            f"{reference.get('machine', 'reference machine')})"
        )


def render_compare(result: CompareResult, threshold: float = 0.15) -> str:
    """Human-readable comparison table plus verdict."""
    lines = []
    header = (
        f"{'case':<26} {'rate':>14} {'normalized':>12} "
        f"{'baseline':>12} {'delta':>8}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in result.rows:
        flag = "  << REGRESSION" if row["regressed"] else ""
        lines.append(
            f"{row['case']:<26} {row['value']:>14,.0f} "
            f"{row['normalized']:>12.4g} {row['baseline_normalized']:>12.4g} "
            f"{row['delta']:>+8.1%}{flag}"
        )
    for note in result.notes:
        lines.append(f"note: {note}")
    if result.ok:
        lines.append(
            f"OK: no case regressed more than {threshold:.0%} "
            "(normalized rates)"
        )
    else:
        lines.append(f"FAIL: {len(result.regressions)} regression(s)")
        for regression in result.regressions:
            lines.append(f"  - {regression}")
    return "\n".join(lines)
