"""The three artifact writers of ``leadalloc.errors``, and that nothing else
in the package writes a file."""

import ast
from pathlib import Path

from leadalloc.errors import write_json, write_rows, write_text

SRC = Path(__file__).resolve().parent.parent / "src" / "leadalloc"
WRITERS = {("errors", "write_json"), ("errors", "write_rows"), ("errors", "write_text")}


class TestWriterBytes:
    """UTF-8 with no byte-order mark and "\\n" line ends, whatever the platform."""

    def test_json(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"name": "Bédford", "counts": [1, 2.5], "empty": {}})
        assert path.read_bytes() == (
            b'{\n  "counts": [\n    1,\n    2.5\n  ],\n  "empty": {},\n  "name": "B\\u00e9dford"\n}\n'
        )

    def test_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_rows(path, ["geo_id", "geo_name"], ([geo, name] for geo, name in [(101, "Bédford"), (102, "a, b")]))
        assert path.read_bytes() == b'geo_id,geo_name\n101,B\xc3\xa9dford\n102,"a, b"\n'

    def test_text(self, tmp_path):
        path = tmp_path / "report.txt"
        write_text(path, ["Bédford\n  101: 50.0%\n"])
        assert path.read_bytes() == b"B\xc3\xa9dford\n  101: 50.0%\n"

    def test_text_chunks(self, tmp_path):
        # chunks from an iterator, one of them empty and one ending mid-line
        path = tmp_path / "trace.csv"
        write_text(path, iter(["p1,p2\n", "", "0.5,-0.0\n1.0,", "Bédford\n"]))
        assert path.read_bytes() == b"p1,p2\n0.5,-0.0\n1.0,B\xc3\xa9dford\n"


def _writes_a_file(call: ast.Call) -> bool:
    """An ``open`` whose mode is not a literal read mode, or a
    ``write_text`` or ``write_bytes`` method."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in ("write_text", "write_bytes"):
        return True
    if isinstance(func, ast.Name) and func.id == "open":
        modes = call.args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":  # Path.open
        modes = call.args[:1]
    else:
        return False
    modes += [keyword.value for keyword in call.keywords if keyword.arg == "mode"]
    return any(not (isinstance(mode, ast.Constant) and set(str(mode.value)) <= set("rbt")) for mode in modes)


def test_only_the_three_writers_write_files():
    writing = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        # ast.walk visits an enclosing function before the ones it holds,
        # so each call ends up named after its innermost function
        owner = {id(node): "<module>" for node in ast.walk(tree)}
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(node), function.name) for node in ast.walk(function))
        writing |= {
            (path.stem, owner[id(node)])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _writes_a_file(node)
        }
    assert writing == WRITERS
