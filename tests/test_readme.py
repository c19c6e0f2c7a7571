"""The README's library example runs as written and agrees with `run`."""

import ast
import json
import shutil
from pathlib import Path

import leadalloc
from leadalloc.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The Python block under the README's "Library use" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_library_example_matches_the_run(fixture_path, tmp_path, monkeypatch, capsys):
    code = library_example()
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [getattr(node, "module", None) for node in imports] == ["leadalloc"]
    assert {alias.name for alias in imports[0].names} <= set(leadalloc.__all__)

    shutil.copyfile(fixture_path, tmp_path / "panel.csv")
    monkeypatch.chdir(tmp_path)
    exec(compile(code, str(README), "exec"), {})
    improvement, z = map(float, capsys.readouterr().out.split())

    assert main(["run", "--input", "panel.csv", "--out", "out"]) == 0
    doc = json.loads((tmp_path / "out" / "evaluation.json").read_text(encoding="utf-8"))
    assert (improvement, z) == (doc["improvement_pct"], doc["ztest"]["z"])
