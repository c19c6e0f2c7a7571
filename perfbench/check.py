"""Output checks applied after every benchmark run of `leadalloc run`.

Each check returns a list of problems; an empty list means the run passed.
The checks read only the artifacts, the input panel and the run's
constraint settings, so they hold for any correct implementation of the
pipeline, not just the current one.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from leadalloc import allocate

# Values recorded once, with golden_values, from a seed-0 run of each
# workload on the implementation the benchmark was defined against. They
# are fixed data: nothing in the benchmark writes them.
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
GOLDEN_REL_TOL = 1e-9


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the run left in ``out_dir``, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file()
    }


def check_artifacts(out_dir: Path, data, constraints: allocate.ConstraintConfig) -> list[str]:
    """Plan invariants: exact test total, constraints met, no projected loss."""
    try:
        plan = allocate.read_plan(out_dir / "plan.csv", out_dir / "plan.json")
    except (OSError, KeyError, ValueError) as exc:
        return [f"cannot read plan: {exc}"]
    problems = []
    assigned = int(plan.v2_tests.sum())
    if assigned != plan.total_tests:
        problems.append(f"sum(v2_tests) = {assigned} but total_tests = {plan.total_tests}")
    for violation in allocate.check_constraints(plan, data, constraints):
        problems.append(f"constraint violated: {violation.kind} at {violation.geo_id}: {violation.message}")
    # The same two constraints again, restated here, so a fault shared by the
    # search and check_constraints still shows.
    floor = constraints.floor_fraction * plan.baseline_share
    for geo, share, least in zip(plan.geo_ids, plan.v2_share, floor):
        if share < least:
            problems.append(f"share {share!r} of geo {geo} below its floor {least!r}")
    if constraints.population_cap:
        for geo, tests in zip(plan.geo_ids, plan.v2_tests):
            record = data.record(geo, plan.target_year)
            if record is not None and tests > record.child_population:
                problems.append(f"{tests} tests for geo {geo} exceed its population {record.child_population}")
    if not plan.delta_cases >= 0.0:
        problems.append(f"delta_cases = {plan.delta_cases!r} is negative")
    return problems


def golden_values(out_dir: Path) -> dict:
    """The recorded facts of a run: tests per geo, cluster members, delta and z.

    The weights p1 and p2 are left out on purpose: only t = p2/(p1+p2)
    decides the plan, and an equivalent point on the same ray is as good.
    """
    plan = allocate.read_plan(out_dir / "plan.csv", out_dir / "plan.json")
    members: dict[str, list[int]] = {}
    with open(out_dir / "clusters.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            members.setdefault(row["label"], []).append(int(row["geo_id"]))
    evaluation = json.loads((out_dir / "evaluation.json").read_text(encoding="utf-8"))
    ztest = evaluation["ztest"]
    return {
        "geo_ids": list(plan.geo_ids),
        "v2_tests": [int(v) for v in plan.v2_tests],
        "cluster_members": {label: members[label] for label in sorted(members)},
        "delta_cases": plan.delta_cases,
        "z": None if ztest is None else ztest["z"],
    }


def compare_golden(actual: dict, recorded: dict) -> list[str]:
    problems = []
    for key in ("geo_ids", "v2_tests", "cluster_members"):
        if actual[key] != recorded[key]:
            problems.append(f"{key} differs from the recorded values")
    for key in ("delta_cases", "z"):
        a, r = actual[key], recorded[key]
        if (a is None) != (r is None) or (
            a is not None and not math.isclose(a, r, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0)
        ):
            problems.append(f"{key} = {a!r}, recorded {r!r}")
    return problems


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))

