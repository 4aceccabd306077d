"""Only ``errors.py`` defines exception classes, and it defines the two error kinds and
the two subclasses that carry a row or a line number.

Each module of the package is parsed, as in ``test_codec_boundary``: a docstring that
mentions "class Foo(DataError)" defines nothing.
"""

import ast
import builtins

import pytest

from test_codec_boundary import PACKAGE

ERROR_CLASSES = {"ConfigError", "DataError", "MalformedRow", "MalformedLine"}
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def exception_classes(source: str) -> list:
    """Names of the classes ``source`` defines that derive from a builtin exception, from a
    name imported from or an attribute of an ``errors`` module, or from such a class of its
    own, in source order."""
    tree = ast.parse(source)
    known = set(BUILTIN_EXCEPTIONS)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "errors":
            known |= {a.asname or a.name for a in node.names}
    found = []
    for node in sorted((n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)), key=lambda n: n.lineno):
        if any(base in known or base.startswith("errors.") for base in map(ast.unparse, node.bases)):
            known.add(node.name)
            found.append(node.name)
    return found


def test_exception_classes_finds_code_not_text():
    source = '"""class Foo(DataError) is text."""\nclass Plain:\n    pass\n'
    assert exception_classes(source) == []
    source += ("from .errors import DataError as D\nclass A(D):\n    pass\nclass B(A):\n    pass\n"
               "class C(KeyError):\n    pass\nclass E(errors.ConfigError, Plain):\n    pass\n")
    assert exception_classes(source) == ["A", "B", "C", "E"]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_errors_py_defines_exceptions(path):
    source = path.read_text(encoding="utf-8")
    if path.name == "errors.py":
        assert {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.ClassDef)} == ERROR_CLASSES
        assert set(exception_classes(source)) == ERROR_CLASSES
    else:
        assert exception_classes(source) == [], f"{path.name} defines an exception class; raise one of errors.py's"
