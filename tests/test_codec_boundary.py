"""Only the file codec, ``tables.py``, reads or writes files.

Each module of the package is parsed, not grepped: a docstring that mentions
"publishers.csv." or "json" is not an import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "newsbarriers"
CODEC_MODULES = {"csv", "json"}
PATH_IO_METHODS = {"read_text", "write_text", "read_bytes", "write_bytes"}


def file_access(source: str) -> list:
    """What the code does with files: imports of csv or json, calls of the builtin
    ``open`` and of pathlib's whole-file readers and writers, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, f"import {a.name}") for a in node.names if a.name.split(".")[0] in CODEC_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] in CODEC_MODULES:
            found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "open":
                found.append((node.lineno, "open()"))
            elif isinstance(node.func, ast.Attribute) and node.func.attr in PATH_IO_METHODS:
                found.append((node.lineno, f".{node.func.attr}()"))
    return sorted(found)


def test_file_access_finds_code_not_text():
    source = '"""Reads publishers.csv. and json lines; open(path) is not called here."""\n'
    assert file_access(source) == []
    source += "import csv, os\nfrom json import loads\nwith open('x') as fh:\n    Path('y').write_text('')\n"
    assert file_access(source) == [(2, "import csv"), (3, "from json import"), (4, "open()"), (5, ".write_text()")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_codec_touches_files(path):
    found = file_access(path.read_text(encoding="utf-8"))
    if path.name == "tables.py":
        assert {what for _, what in found} >= {"import csv", "import json", "open()"}
    else:
        assert found == [], f"{path.name} reads or writes files itself; go through tables.py"
