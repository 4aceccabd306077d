"""Only ``train`` and ``TrainedModel`` convert model input; the estimators take it as given.

``classifiers.py`` is parsed, as in ``test_codec_boundary``: a method of a ``FAMILIES``
estimator class may not call ``np.asarray`` or ``np.array`` on its ``X`` or ``y`` parameter.
"""

import ast

from newsbarriers.classifiers import FAMILIES

from test_codec_boundary import PACKAGE

CONVERTERS = {"array", "asarray"}
INPUTS = {"X", "y"}


def conversions(source: str, classes: set) -> list:
    """``Class.method(name)`` for each call of ``np.asarray`` or ``np.array`` on a method's own
    ``X`` or ``y`` parameter, in a class named in ``classes``."""
    found = []
    for cls in ast.parse(source).body:
        if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
            continue
        for method in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
            inputs = INPUTS & {a.arg for a in method.args.args}
            for node in ast.walk(method):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in CONVERTERS and isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "np" and node.args
                        and isinstance(node.args[0], ast.Name) and node.args[0].id in inputs):
                    found.append(f"{cls.name}.{method.name}({node.args[0].id})")
    return found


def test_conversions_finds_calls_on_the_input_parameters():
    source = (
        "class A:\n"
        "    def fit(self, X, y):\n"
        "        X = np.asarray(X, dtype=float)\n"
        "        self.y = np.array(y)\n"
        "        self.w = np.asarray(self.w)\n"
        "    def predict(self, rows):\n"
        "        return np.asarray(X)\n"
        "class B:\n"
        "    def fit(self, X, y):\n"
        "        return np.asarray(X)\n"
    )
    assert conversions(source, {"A"}) == ["A.fit(X)", "A.fit(y)"]


def test_estimators_do_not_convert_their_input():
    classes = {f.estimator.__name__ for f in FAMILIES.values()}
    source = (PACKAGE / "classifiers.py").read_text(encoding="utf-8")
    assert conversions(source, classes) == [], "convert model input in train or TrainedModel._checked"
