"""The names the benchmark in perfbench/ imports, wraps or calls still exist.

perfbench/ is kept fixed between benchmark revisions, so a rename in the
library would break its traced runs without failing any other test.  This
reads perfbench/ and changes nothing there.
"""

import ast
import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# attributes perfbench reaches through objects rather than imports
CALLED = [
    ("gl_straighten", "Combination.evaluate"),
    ("gl_straighten", "Combination.certificate"),
    ("group_oracle", "GroupPoint.reduce_mod"),
    ("polyring", "eval_bideterminant"),
    ("tableaux", "Letter.key"),
    ("tableaux", "Tableau.format"),
    ("tableaux", "Tableau.from_columns"),
    ("tableaux", "Tableau.parse"),
    ("tableaux", "Tableau.size"),
]


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(f"obidet.{module}" if module else "obidet")
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


def _spans():
    spec = json.loads((PERFBENCH / "spec.json").read_text(encoding="utf-8"))
    return [(module, name) for module, names in spec["spans"].items() for name in names]


def _imports():
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.module == "obidet" or node.module.startswith("obidet.")):
                module = node.module.partition(".")[2]
                found.extend((module, alias.name) for alias in node.names)
    return found


def test_spec_spans_exist():
    spans = _spans()
    assert spans
    for module, name in spans:
        assert callable(_resolve(module, name)), f"obidet.{module}.{name}"


def test_imported_and_called_names_exist():
    names = _imports()
    assert ("tableaux", "_letters") in names and ("polyring", "rational") in names
    for module, name in names + CALLED:
        _resolve(module, name)
