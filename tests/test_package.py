"""The package exports only what its commands and demos use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "unitons"


def _exported_names():
    """Names that unitons/__init__.py imports and entries of each submodule's
    __all__."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        if path.name == "__init__.py":
            names |= {
                alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names
            }
            continue
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names |= set(ast.literal_eval(node.value))
    return names


def _referenced_names():
    """Every ast.Name id and ast.Attribute attr in the submodules and demos."""
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += (ROOT / "demos").glob("*.py")
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_exported_name_has_a_caller_outside_tests():
    unused = sorted(_exported_names() - _referenced_names())
    assert not unused, f"exported but used only by tests: {unused}"
