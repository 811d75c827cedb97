"""Static checks on the import graph: no unused imports, and an oracle that
shares no code with the closed form it checks."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mimo_dmt"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").glob("*.py"))


def _unused_imports(path):
    """Names a module imports but never reads and does not export."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def test_checker_flags_unused_import(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("import os\nimport math as m\nfrom json import dumps, loads\n"
                    "__all__ = ['loads']\nprint(m.pi)\n")
    assert _unused_imports(path) == [(1, "os"), (3, "dumps")]


def test_oracle_imports_nothing_from_tradeoff():
    # The oracle's agreement with the closed form is evidence only while
    # the two share no algebra.
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            # ``import x`` and ``from . import x`` name modules directly.
            modules.update(alias.name for alias in node.names)
    assert not [m for m in modules if m.rsplit(".", 1)[-1] == "tradeoff"], modules
