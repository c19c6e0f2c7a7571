"""scripts/stage_rss.py runs the stages of ``cli.STAGES`` as ``run`` does."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

from leadalloc.cli import STAGES
from panel_helpers import FIXTURE_CSV
from test_acceptance import FIXTURE_ARTIFACT_SHA256

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stage_rss.py"


def test_one_peak_per_stage_in_table_order(tmp_path):
    out = tmp_path / "out"
    argv = [sys.executable, str(SCRIPT), "--measure", "run", "--input", str(FIXTURE_CSV), "--out", str(out)]
    child = subprocess.run(argv, check=True, capture_output=True, text=True, encoding="utf-8")
    peaks = json.loads(child.stdout.splitlines()[-1])
    assert list(peaks) == ["import", "parse", *STAGES]
    # a high-water mark never falls
    assert list(peaks.values()) == sorted(peaks.values())
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    assert written == {name: sha for name, sha in FIXTURE_ARTIFACT_SHA256.items() if name != "trace.csv"}
