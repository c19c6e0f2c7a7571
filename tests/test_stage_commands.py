"""The stage commands chained into one directory, and partial reruns of it.

``ingest -> normalize -> cluster -> optimize -> evaluate`` must write the
bytes ``run`` writes (TestGoldenArtifacts pins those), plus ``panel.csv``
from ingest and without ``trace.csv``. Each partial rerun deletes some of
those artifacts and runs the stages that rebuild them, which compute every
stage they take again. Every artifact's sha256, every command's stdout and
every exit code is pinned.
"""

import hashlib
import shutil

import pytest

from leadalloc.cli import main
from panel_helpers import FIXTURE_CSV, GAPS_CSV
from test_acceptance import FIXTURE_ARTIFACT_SHA256, GAP_PANEL_ARTIFACT_SHA256

STAGES = ("ingest", "normalize", "cluster", "optimize", "evaluate")

# deleted artifacts -> the commands that rebuild them
RERUNS = {
    "clusters": (("clusters.csv", "clusters.json"), ("cluster", "evaluate")),
    "plan": (("plan.csv", "plan.json"), ("evaluate",)),
    "plan_and_clusters": (
        ("plan.csv", "plan.json", "clusters.csv", "clusters.json"),
        ("evaluate",),
    ),
    "normalized_and_clusters": (
        ("normalized.csv", "clusters.csv", "clusters.json"),
        ("cluster", "evaluate"),
    ),
    "evaluation": (("evaluation.json", "evaluation.txt"), ("evaluate",)),
}


def _chain_digests(run_sha256, panel_csv):
    """``run``'s digests without trace.csv, plus the panel.csv of ingest."""
    digests = {name: sha for name, sha in run_sha256.items() if name != "trace.csv"}
    digests["panel.csv"] = panel_csv
    return digests


PANELS = {
    "fixture": {
        "path": FIXTURE_CSV,
        "digests": _chain_digests(
            FIXTURE_ARTIFACT_SHA256, "f845c6ee5be8668292478367f692655315eea9dd6e2a41bb47380da67b4c3fb4"
        ),
        "stdout": {
            "ingest": "ingested 6 neighborhoods x 12 years (0 rejected rows, 0 violations)\n",
            "normalize": "normalized 72 cells across 12 years\n",
            "cluster": "clustered into 5 profiles "
            "(High=101, Low=102, Average=103, Rising=104, Declining=105)\n",
            "optimize": "best weights p1=-0.9, p2=9.8: "
            "projected case difference +105.18 at T=12480\n",
            "evaluate": "case difference +105.18; z=3.9628, p=7.407e-05\n",
        },
    },
    "gaps": {
        "path": GAPS_CSV,
        "digests": _chain_digests(
            GAP_PANEL_ARTIFACT_SHA256, "127f12d03ceb2d159ae5e67589eee07d9ce946c87355eabf5143b7e15c1f07f4"
        ),
        "stdout": {
            "ingest": "ingested 150 neighborhoods x 17 years (11 rejected rows, 0 violations)\n",
            "normalize": "normalized 2396 cells across 17 years\n",
            "cluster": "clustered into 5 profiles "
            "(High=174, Low=192, Average=111, Rising=243, Declining=109)\n",
            "optimize": "best weights p1=6.9, p2=6: projected case difference +370.82 at T=59101\n",
            "evaluate": "case difference +370.82; z=6.1704, p=6.812e-10\n",
        },
    },
}


def digests(out):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out.iterdir())}


def run_stage(command, source, out, capsys):
    """(exit code, stdout) of one stage command."""
    capsys.readouterr()
    code = main([command, "--input", str(source), "--out", str(out)])
    return code, capsys.readouterr().out


@pytest.fixture(params=sorted(PANELS))
def chained(request, tmp_path_factory, capsys):
    """(panel facts, directory) after the five stage commands ran into it."""
    panel = PANELS[request.param]
    out = tmp_path_factory.mktemp(request.param) / "out"
    for command in STAGES:
        assert run_stage(command, panel["path"], out, capsys) == (0, panel["stdout"][command])
    return panel, out


def test_chained_stages(chained):
    panel, out = chained
    assert digests(out) == panel["digests"]


@pytest.mark.parametrize("rerun", sorted(RERUNS))
def test_partial_rerun(chained, rerun, tmp_path, capsys):
    panel, chain = chained
    out = tmp_path / "out"
    shutil.copytree(chain, out)
    deleted, commands = RERUNS[rerun]
    for name in deleted:
        (out / name).unlink()
    for command in commands:
        assert run_stage(command, panel["path"], out, capsys) == (0, panel["stdout"][command])
    assert digests(out) == panel["digests"]


def test_reused_clusters_keep_the_run_order(chained):
    panel, out = chained
    assert digests(out)["evaluation.txt"] == panel["digests"]["evaluation.txt"]


def test_reused_generic_clusters_keep_the_run_order(tmp_path):
    """With ten or more generic clusters, sorting by label would put
    cluster10 before cluster2."""
    out = tmp_path / "out"
    flags = ["--input", str(GAPS_CSV), "--out", str(out), "--k", "12"]
    assert main(["run", *flags]) == 0
    written = (out / "evaluation.txt").read_text()
    assert written.index("cluster2:") < written.index("cluster10:")
    (out / "evaluation.txt").unlink()
    assert main(["evaluate", *flags]) == 0
    assert (out / "evaluation.txt").read_text() == written
