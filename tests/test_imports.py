"""Every module of the package and of its tests reads each name it
imports at top level. No linter is a dependency of the project, so this
test carries the unused-import rule itself."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "smfpca").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source):
    """The names that ``source``'s top-level imports bind and that the
    module never reads; a name listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0] for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "__all__" for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return sorted(set(bound) - read)


def test_unused_imports_are_found():
    source = "import os, sys\nfrom json import dumps, loads as l\n__all__ = ['l']\nsys.exit()\n"
    assert unused_imports(source) == ["dumps", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_top_level_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
