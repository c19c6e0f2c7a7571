"""Statistical evaluation of an allocation plan.

Answers three questions about a candidate plan against the baseline: is the
projected change in detected cases statistically meaningful (pooled
two-proportion z-test), where does the change land across risk profiles
(per-cluster case deltas), and how much testing volume does each
neighborhood keep (reallocation percentages). Also extracts side-by-side
neighborhood numbers for narrative comparisons.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .allocate import AllocationPlan, ShareMismatch
from .cluster import ClusterAssignment
from .errors import DataError
from .panel import NeighborhoodPanel


class DegeneratePooled(DataError):
    """Pooled success rate is 0 or 1, so the z statistic is undefined."""


class UnassignedGeo(DataError):
    pass


class UnknownGeo(DataError):
    pass


class MissingYear(DataError):
    pass


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
    plan: AllocationPlan,
    assignment: ClusterAssignment,
    rates: np.ndarray,
) -> dict[str, tuple[float, float]]:
    """Projected cases per cluster label under former and chosen shares.

    Each label maps to (cases under baseline shares, cases under candidate
    shares). Labels appear in the assignment's cluster order and every label
    is present even when its totals are zero. A plan neighborhood missing
    from the assignment raises UnassignedGeo.
    """
    before = {label: 0.0 for label in assignment.medoids}
    after = {label: 0.0 for label in assignment.medoids}
    for i, geo in enumerate(plan.geo_ids):
        label = assignment.labels.get(geo)
        if label is None:
            raise UnassignedGeo(f"geo {geo} has no cluster label")
        before[label] += float(plan.total_tests * rates[i] * plan.baseline_share[i])
        after[label] += float(plan.total_tests * rates[i] * plan.v2_share[i])
    return {label: (before[label], after[label]) for label in before}


def reallocation_percentages(plan: AllocationPlan) -> dict[int, float | None]:
    """Candidate tests as a percentage of former tests, per neighborhood.

    None marks neighborhoods with no former tests, where the ratio is
    undefined.
    """
    out: dict[int, float | None] = {}
    for i, geo in enumerate(plan.geo_ids):
        v1 = int(plan.v1_tests[i])
        v2 = int(plan.v2_tests[i])
        out[geo] = 100.0 * v2 / v1 if v1 > 0 else None
    return out


@dataclass(frozen=True)
class CaseStudyRow:
    geo_id: int
    year: int
    tests: int
    cases_5plus: int
    rate_5plus: float | None
    share_of_tests: float | None


def neighborhood_case_study(
    panel: NeighborhoodPanel,
    geo_a: int,
    geo_b: int | None = None,
    year: int | None = None,
) -> tuple[CaseStudyRow, ...]:
    """Raw side-by-side numbers for one or two neighborhoods at a year.

    Defaults to the latest panel year. Useful for spotlighting mismatches
    between testing volume and detection rate.
    """
    if year is None:
        year = panel.years[-1]
    year_total = dict(zip(panel.years, panel.yearly_test_totals())).get(year, 0)
    rows = []
    for geo in (geo_a, geo_b):
        if geo is None:
            continue
        if geo not in panel.geo_ids:
            raise UnknownGeo(f"geo {geo} not in panel")
        rec = panel.record(geo, year)
        if rec is None:
            raise MissingYear(f"geo {geo} has no record for {year}")
        rows.append(
            CaseStudyRow(
                geo_id=geo,
                year=year,
                tests=rec.tests,
                cases_5plus=rec.cases_5plus,
                rate_5plus=rec.rate_5plus(),
                share_of_tests=rec.tests / year_total if year_total > 0 else None,
            )
        )
    return tuple(rows)


@dataclass(frozen=True, eq=False)
class EvaluationReport:
    target_year: int
    total_tests: int
    p1: float
    p2: float
    projected_cases_v1: float
    projected_cases_v2: float
    delta_cases: float
    improvement_pct: float | None
    cases_v1_rounded: int
    cases_v2_rounded: int
    ztest: ZTestResult | None
    ztest_degenerate_reason: str | None
    cluster_cases: dict[str, tuple[float, float]] | None
    reallocation: dict[int, float | None]


def evaluate_plan(
    plan: AllocationPlan,
    rates: np.ndarray,
    assignment: ClusterAssignment | None = None,
) -> EvaluationReport:
    """Full statistical summary of a plan against its baseline.

    The z-test compares detection rates at the shared test budget, using
    projected case counts rounded half-up to whole cases. A degenerate
    pooled rate (for example, zero projected cases under both plans) is
    reported rather than raised.

    ``rates`` must hold one entry per plan neighborhood, in plan order
    (ShareMismatch otherwise), and the assignment must label every plan
    neighborhood (UnassignedGeo otherwise), so a plan read back from another
    run's artifacts fails rather than being scored against the wrong
    neighborhoods.
    """
    if len(rates) != len(plan.geo_ids):
        raise ShareMismatch(
            f"{len(rates)} case rates for a plan of {len(plan.geo_ids)} neighborhoods"
        )
    cases_v1 = round_half_up(plan.projected_cases_v1)
    cases_v2 = round_half_up(plan.projected_cases_v2)
    ztest: ZTestResult | None
    reason: str | None
    try:
        ztest = two_proportion_ztest(cases_v1, plan.total_tests, cases_v2, plan.total_tests)
        reason = None
    except DegeneratePooled as exc:
        ztest = None
        reason = str(exc)
    by_cluster = (
        cluster_case_deltas(plan, assignment, rates) if assignment is not None else None
    )
    improvement = (
        100.0 * plan.delta_cases / plan.projected_cases_v1
        if plan.projected_cases_v1 > 0
        else None
    )
    return EvaluationReport(
        target_year=plan.target_year,
        total_tests=plan.total_tests,
        p1=plan.p1,
        p2=plan.p2,
        projected_cases_v1=plan.projected_cases_v1,
        projected_cases_v2=plan.projected_cases_v2,
        delta_cases=plan.delta_cases,
        improvement_pct=improvement,
        cases_v1_rounded=cases_v1,
        cases_v2_rounded=cases_v2,
        ztest=ztest,
        ztest_degenerate_reason=reason,
        cluster_cases=by_cluster,
        reallocation=reallocation_percentages(plan),
    )


def report_to_dict(report: EvaluationReport) -> dict:
    ztest = None
    if report.ztest is not None:
        ztest = {
            "z": report.ztest.z,
            "p_value": report.ztest.p_value,
            "rate1": report.ztest.rate1,
            "rate2": report.ztest.rate2,
            "pooled_rate": report.ztest.pooled_rate,
        }
    return {
        "target_year": report.target_year,
        "total_tests": report.total_tests,
        "p1": report.p1,
        "p2": report.p2,
        "projected_cases_v1": report.projected_cases_v1,
        "projected_cases_v2": report.projected_cases_v2,
        "delta_cases": report.delta_cases,
        "improvement_pct": report.improvement_pct,
        "cases_v1_rounded": report.cases_v1_rounded,
        "cases_v2_rounded": report.cases_v2_rounded,
        "ztest": ztest,
        "ztest_degenerate_reason": report.ztest_degenerate_reason,
        "cluster_cases": None
        if report.cluster_cases is None
        else {
            label: {"cases_v1": pair[0], "cases_v2": pair[1]}
            for label, pair in report.cluster_cases.items()
        },
        "reallocation": {str(geo): pct for geo, pct in report.reallocation.items()},
    }


def write_report(report: EvaluationReport, json_path: str | Path) -> None:
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def format_report(report: EvaluationReport) -> str:
    """Plain-text rendering of the evaluation, one fact per line."""
    lines = [
        f"Allocation evaluation, target year {report.target_year}",
        f"Total tests: {report.total_tests}",
        f"Chosen weights: p1={report.p1:g}, p2={report.p2:g}",
        f"Projected cases, former shares: {report.projected_cases_v1:.2f} (rounded {report.cases_v1_rounded})",
        f"Projected cases, chosen shares: {report.projected_cases_v2:.2f} (rounded {report.cases_v2_rounded})",
        f"Projected case difference: {report.delta_cases:+.2f}",
    ]
    if report.improvement_pct is not None:
        lines.append(f"Detection improvement: {report.improvement_pct:+.1f}%")
    else:
        lines.append("Detection improvement: n/a (no baseline cases)")
    if report.ztest is not None:
        lines.append(
            f"Two-proportion z-test: z={report.ztest.z:.4f}, p={report.ztest.p_value:.4g}"
        )
    else:
        lines.append(f"Two-proportion z-test: degenerate ({report.ztest_degenerate_reason})")
    if report.cluster_cases is not None:
        lines.append("Projected cases by cluster (former -> chosen):")
        for label, (before, after) in report.cluster_cases.items():
            lines.append(f"  {label}: {before:.2f} -> {after:.2f} ({after - before:+.2f})")
    lines.append("Tests kept, as a share of former tests:")
    for geo, pct in report.reallocation.items():
        shown = f"{pct:.1f}%" if pct is not None else "n/a (no former tests)"
        lines.append(f"  {geo}: {shown}")
    return "\n".join(lines) + "\n"
