"""Relations between whole runs that must hold on any panel.

Each test runs ``leadalloc run`` twice on the bundled panels, once as given
and once with the panel or one setting changed, and compares the artifacts
byte for byte:

- a setting that an artifact does not read leaves its bytes alone:
  ``--floor`` does not move ``normalized.csv``, ``clusters.*`` or
  ``validation.json``, and ``--k`` does not move ``normalized.csv``,
  ``plan.*`` or ``validation.json``. Each setting's value moves the
  artifacts that do read it on both panels (a floor of 0.5 would leave
  the plan of ``panel_gaps.csv`` as it is);
- doubling every count of tests and cases, with the population kept and
  its cap off at a fixed budget, leaves every artifact as it was: shares
  and rates are ratios of exactly doubled floats, so they keep their bits.
  ``validation.json`` is the exception where rows are rejected, because
  the rejection reasons quote the counts.
"""

import csv
import json

import pytest

from leadalloc.cli import main
from panel_helpers import FIXTURE_CSV, GAPS_CSV

PANELS = {"fixture": FIXTURE_CSV, "gaps": GAPS_CSV}
COUNTS = ("tests", "cases_5plus", "cases_10plus", "cases_15plus")


def run_artifacts(panel_csv, out, *options):
    """The bytes of each artifact of `run` on the panel, by file name."""
    assert main(["run", "--input", str(panel_csv), "--out", str(out), *options]) == 0
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def doubled_counts(panel_csv, path):
    """A copy of the panel CSV with every test and case count doubled."""
    with open(panel_csv, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        fields, rows = reader.fieldnames, list(reader)
    for row in rows:
        row.update({name: str(2 * int(row[name])) for name in COUNTS})
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


@pytest.fixture(params=sorted(PANELS))
def panel_csv(request):
    return PANELS[request.param]


@pytest.mark.parametrize(
    "option, untouched",
    [
        (("--floor", "0.9"), ("normalized.csv", "clusters.csv", "clusters.json", "validation.json")),
        (("--k", "3"), ("normalized.csv", "plan.csv", "plan.json", "validation.json")),
    ],
    ids=["floor", "k"],
)
def test_a_setting_moves_only_the_artifacts_that_read_it(panel_csv, tmp_path, option, untouched):
    given = run_artifacts(panel_csv, tmp_path / "given")
    changed = run_artifacts(panel_csv, tmp_path / "changed", *option)
    assert sorted(given) == sorted(changed)
    for name in untouched:
        assert given[name] == changed[name], name
    # the setting does move the artifacts that read it
    assert any(given[name] != changed[name] for name in set(given) - set(untouched))


def test_doubled_counts_give_the_same_artifacts(panel_csv, tmp_path):
    options = ("--no-population-cap", "--total-tests", "100000", "--emit-trace")
    given = run_artifacts(panel_csv, tmp_path / "given", *options)
    doubled_csv = doubled_counts(panel_csv, tmp_path / "doubled.csv")
    doubled = run_artifacts(doubled_csv, tmp_path / "doubled", *options)
    assert sorted(given) == sorted(doubled)
    rejected = json.loads(given["validation.json"])["rejected_rows"]
    for name in given:
        if not (rejected and name == "validation.json"):
            assert given[name] == doubled[name], name
