"""Every function and class of the library has a user outside the tests.

Library code that only tests reach is code that nothing needs.  Each name
defined in src/obidet must occur, as a name token outside its own def or
class line, in the library, the demos, the benchmark (its modules and the
spans of perfbench/spec.json) or the acceptance test.  Comments and strings
are not uses.  A name with no such user is deleted, or kept in KEEP with a
reason.  Names are matched bare, so a method counts as used wherever a
name of that spelling occurs.  The library also imports nothing outside
the standard library.
"""

import ast
import json
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = ROOT / "src" / "obidet"

# qualified name -> why it stays with no user outside the tests
KEEP = {
    "GroupPoint.from_matrix": "the README documents it for points from rational matrices",
}


def _definitions():
    """(qualified name, file:line) of each function and class, dunders excluded."""
    found = []

    def visit(node, prefix, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found.append((prefix + child.name, f"{where}:{child.lineno}"))
                visit(child, f"{prefix}{child.name}.", where)
            else:
                visit(child, prefix, where)

    for path in sorted(LIBRARY.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path.name)
    return found


def _names(path):
    """The name tokens of a file, less the name each def or class line defines."""
    with tokenize.open(path) as f:
        tokens = [t.string for t in tokenize.generate_tokens(f.readline)
                  if t.type == tokenize.NAME]
    return {name for prev, name in zip([""] + tokens, tokens) if prev not in ("def", "class")}


def _used_names():
    files = [p for p in sorted(LIBRARY.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_names, files))
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text(encoding="utf-8"))
    used.update(part for names in spec["spans"].values() for name in names
                for part in name.split("."))
    return used


def test_every_definition_has_a_user_outside_the_tests():
    used, definitions = _used_names(), _definitions()
    unused = [f"{qualname} ({where})" for qualname, where in definitions
              if qualname.rpartition(".")[2] not in used and qualname not in KEEP]
    assert not unused, ("only tests use these; delete them, or add them to KEEP with a reason: "
                        + ", ".join(unused))
    # an entry whose name is gone, or has found a user, is stale
    defined = {qualname for qualname, _ in definitions}
    stale = [q for q in KEEP if q not in defined or q.rpartition(".")[2] in used]
    assert not stale, f"remove these KEEP entries: {stale}"


def test_the_library_imports_the_standard_library_only():
    outside = []
    for path in sorted(LIBRARY.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            outside += [f"{m} ({path.name}:{node.lineno})" for m in modules
                        if m.partition(".")[0] not in sys.stdlib_module_names]
    assert not outside, f"imports from outside the standard library: {outside}"
