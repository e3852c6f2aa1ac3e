"""Every module of the package uses each name it imports."""

import ast
from pathlib import Path

import pytest

import tribvp

PACKAGE = Path(tribvp.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")  # __init__ re-exports


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, annotations included."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in read)


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    assert _unused_imports("from typing import NamedTuple\nimport numpy as np\nx = np.zeros(1)\n") == ["NamedTuple"]
