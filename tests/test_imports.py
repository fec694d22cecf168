"""No rankaudit module imports a name it never uses, and no rule is dead.

AST scans, so they need no linter.  Unused imports: a module's imported
names, less those that any Name node reads; `__init__.py` is skipped,
since its imports are the package's re-exports.  Dead rules: the keys of
errors.RULES that no other module names, as a string or by the errors
constant that holds it.  CSV lines: only dataset.py builds them, so no
other module holds a `\r\n` or imports its quoting and joining helpers.
"""

import ast
from pathlib import Path

import rankaudit
from rankaudit import errors

SRC = Path(rankaudit.__file__).parent


def _unused_imports(source: str) -> list[str]:
    """Each name source imports and never reads, with its line."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # `import a.b` binds a
            imported.update({alias.asname or alias.name.split(".")[0]: node.lineno
                             for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({alias.asname or alias.name: node.lineno for alias in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_the_scan_finds_an_unused_import():
    source = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
              "from .decide import DecisionPolicy, DecisionSet\n"
              "def f(x: DecisionSet) -> None:\n    return np.sort(x)\n")
    assert _unused_imports(source) == ["os (line 2)", "DecisionPolicy (line 4)"]


def test_no_module_imports_a_name_it_never_uses():
    unused = {path.name: _unused_imports(path.read_text("utf-8"))
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_every_rule_is_named_outside_errors():
    named = set()
    for path in SRC.glob("*.py"):
        if path.name != "errors.py":
            for node in ast.walk(ast.parse(path.read_text("utf-8"))):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    named.add(node.value)
                elif isinstance(node, ast.Name):  # RATE, NAME: a rule by its constant
                    named.add(str(getattr(errors, node.id, "")))
    assert [what for what in errors.RULES if what not in named] == []


_CSV_HELPERS = {"_field", "_fields", "_lines"}


def _csv_line_parts(source: str) -> list[str]:
    """Each string constant holding a CSV line end, and each import of
    dataset's CSV helpers, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\r\n" in node.value:
            found.append(f"{node.value!r} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"import {alias.name} (line {node.lineno})"
                      for alias in node.names if alias.name in _CSV_HELPERS]
    return found


def test_the_scan_finds_a_csv_line_built_outside_dataset():
    source = ("from .dataset import _field, float_text, write_csv\n"
              "tails = [f',{label}\\r\\n' for label in '01']\n")
    assert _csv_line_parts(source) == ["import _field (line 1)", "'\\r\\n' (line 2)"]


def test_only_dataset_builds_a_csv_line():
    found = {path.name: _csv_line_parts(path.read_text("utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "dataset.py"}
    assert {name: parts for name, parts in found.items() if parts} == {}
