"""Every module-level import of the package is used by its module.

No linter ships with the package, so this is an ``ast`` pass over
``src/translab/*.py``: a name bound by a top-level ``import`` or ``from ...
import`` must be read somewhere in the module, or be re-exported through the
module's ``__all__``.  ``from __future__`` imports are directives, not names.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "translab"


def unused_imports(source: str) -> list:
    """The names that top-level imports of ``source`` bind and it never reads."""
    tree = ast.parse(source)
    bound, exported = {}, set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read and name not in exported)


def test_the_check_finds_an_unused_import():
    source = "import math\nimport numpy as np\nfrom .errors import A, B\n__all__ = ['B']\nnp.pi\n"
    assert unused_imports(source) == ["A (line 3)", "math (line 1)"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
