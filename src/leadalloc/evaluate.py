"""Statistical evaluation of an allocation plan.

Answers three questions about a candidate plan against the baseline: is the
projected change in detected cases statistically meaningful (pooled
two-proportion z-test), where does the change land across risk profiles
(per-cluster case deltas), and how much testing volume does each
neighborhood keep (reallocation percentages). The answers form one
document, the dict that evaluation.json holds and evaluation.txt renders.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path

from .allocate import AllocationPlan, pct_of_former
from .cluster import ClusterAssignment
from .errors import DataError, write_json, write_text


class DegeneratePooled(DataError):
    """Pooled success rate is 0 or 1, so the z statistic is undefined."""


@dataclass(frozen=True)
class ZTestResult:
    z: float
    p_value: float
    rate1: float
    rate2: float
    pooled_rate: float


def normal_two_sided_p(z: float) -> float:
    """Two-sided tail probability of a standard normal at |z|."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def two_proportion_ztest(count1: int, n1: int, count2: int, n2: int) -> ZTestResult:
    """Pooled two-proportion z-test, two-sided.

    Tests whether the success rate count2/n2 differs from count1/n1. The
    pooled variance uses the combined rate; a combined rate of exactly 0 or
    1 has zero variance and raises DegeneratePooled.
    """
    for label, count, n in (("first", count1, n1), ("second", count2, n2)):
        if n <= 0:
            raise ValueError(f"{label} sample size must be positive, got {n}")
        if not 0 <= count <= n:
            raise ValueError(f"{label} count {count} outside [0, {n}]")
    rate1 = count1 / n1
    rate2 = count2 / n2
    pooled = (count1 + count2) / (n1 + n2)
    if pooled <= 0.0 or pooled >= 1.0:
        raise DegeneratePooled(f"pooled rate {pooled!r} leaves no variance")
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    z = (rate2 - rate1) / se
    return ZTestResult(
        z=z, p_value=normal_two_sided_p(z), rate1=rate1, rate2=rate2, pooled_rate=pooled
    )


def round_half_up(x: float) -> int:
    """Round to the nearest integer with halves going up (2.5 -> 3)."""
    return int(math.floor(x + 0.5))


def cluster_case_deltas(
    plan: AllocationPlan, assignment: ClusterAssignment
) -> dict[str, tuple[float, float]]:
    """Projected cases per cluster label under former and chosen shares, at
    the plan's own case rates.

    Each label maps to (cases under baseline shares, cases under candidate
    shares). Labels appear in the assignment's cluster order and every label
    is present even when its totals are zero. A plan neighborhood missing
    from the assignment raises DataError.
    """
    before = {label: 0.0 for label in assignment.medoids}
    after = {label: 0.0 for label in assignment.medoids}
    for i, geo in enumerate(plan.geo_ids):
        label = assignment.labels.get(geo)
        if label is None:
            raise DataError(f"geo {geo} has no cluster label")
        before[label] += float(plan.total_tests * plan.rates[i] * plan.baseline_share[i])
        after[label] += float(plan.total_tests * plan.rates[i] * plan.v2_share[i])
    return {label: (before[label], after[label]) for label in before}


def evaluate_plan(plan: AllocationPlan, assignment: ClusterAssignment) -> dict:
    """Full statistical summary of a plan against its baseline, as the
    document that evaluation.json holds.

    The z-test compares detection rates at the shared test budget, using
    projected case counts rounded half-up to whole cases. A degenerate
    pooled rate (for example, zero projected cases under both plans) is
    reported rather than raised, with ``ztest`` None.

    The assignment must label every plan neighborhood (DataError
    otherwise), so a plan of other neighborhoods, such as one read back
    by ``allocate.read_plan``, fails rather than being scored against the
    wrong neighborhoods. A plan of no
    tests, or one whose projected case count rounds to a value outside
    [0, total_tests], is a DataError: only hand-edited plan files can hold
    either.
    """
    if plan.total_tests <= 0:
        raise DataError(f"a plan of {plan.total_tests} tests cannot be evaluated")
    cases_v1 = round_half_up(plan.projected_cases_v1)
    cases_v2 = round_half_up(plan.projected_cases_v2)
    for name, cases in (("projected_cases_v1", cases_v1), ("projected_cases_v2", cases_v2)):
        if not 0 <= cases <= plan.total_tests:
            raise DataError(
                f"{name} {getattr(plan, name)!r} rounds to {cases} cases, "
                f"outside [0, {plan.total_tests}]"
            )
    try:
        ztest = asdict(two_proportion_ztest(cases_v1, plan.total_tests, cases_v2, plan.total_tests))
        reason = None
    except DegeneratePooled as exc:
        ztest, reason = None, str(exc)
    return {
        "target_year": plan.target_year,
        "total_tests": plan.total_tests,
        "p1": plan.p1,
        "p2": plan.p2,
        "projected_cases_v1": plan.projected_cases_v1,
        "projected_cases_v2": plan.projected_cases_v2,
        "delta_cases": plan.delta_cases,
        "improvement_pct": (
            100.0 * plan.delta_cases / plan.projected_cases_v1 if plan.projected_cases_v1 > 0 else None
        ),
        "cases_v1_rounded": cases_v1,
        "cases_v2_rounded": cases_v2,
        "ztest": ztest,
        "ztest_degenerate_reason": reason,
        "cluster_cases": {
            label: {"cases_v1": before, "cases_v2": after}
            for label, (before, after) in cluster_case_deltas(plan, assignment).items()
        },
        "reallocation": {str(geo): pct for geo, pct in zip(plan.geo_ids, pct_of_former(plan))},
    }


def write_report(report: dict, json_path: str | Path, text_path: str | Path) -> None:
    """The report as evaluation.json, and as ``format_report``'s text."""
    write_json(json_path, report)
    write_text(text_path, [format_report(report)])


def format_report(report: dict) -> str:
    """Plain-text rendering of the evaluation, one fact per line."""
    v1, v2 = report["projected_cases_v1"], report["projected_cases_v2"]
    lines = [
        f"Allocation evaluation, target year {report['target_year']}",
        f"Total tests: {report['total_tests']}",
        f"Chosen weights: p1={report['p1']:g}, p2={report['p2']:g}",
        f"Projected cases, former shares: {v1:.2f} (rounded {report['cases_v1_rounded']})",
        f"Projected cases, chosen shares: {v2:.2f} (rounded {report['cases_v2_rounded']})",
        f"Projected case difference: {report['delta_cases']:+.2f}",
    ]
    if report["improvement_pct"] is not None:
        lines.append(f"Detection improvement: {report['improvement_pct']:+.1f}%")
    else:
        lines.append("Detection improvement: n/a (no baseline cases)")
    ztest = report["ztest"]
    if ztest is not None:
        lines.append(f"Two-proportion z-test: z={ztest['z']:.4f}, p={ztest['p_value']:.4g}")
    else:
        lines.append(f"Two-proportion z-test: degenerate ({report['ztest_degenerate_reason']})")
    lines.append("Projected cases by cluster (former -> chosen):")
    for label, cases in report["cluster_cases"].items():
        before, after = cases["cases_v1"], cases["cases_v2"]
        lines.append(f"  {label}: {before:.2f} -> {after:.2f} ({after - before:+.2f})")
    lines.append("Tests kept, as a share of former tests:")
    for geo, pct in report["reallocation"].items():
        shown = f"{pct:.1f}%" if pct is not None else "n/a (no former tests)"
        lines.append(f"  {geo}: {shown}")
    return "\n".join(lines) + "\n"
