"""Every module-level import of the package is used by its module, every
private module-level name and every field of class state is read somewhere,
and only the CLI imports ``translab.implicit``.

No linter ships with the package, so these are ``ast`` passes over
``src/translab/*.py``: a name bound by a top-level ``import`` or ``from ...
import`` must be read somewhere in the module, or be re-exported through the
module's ``__all__``.  ``from __future__`` imports are directives, not names.
A module-level function, class or constant whose name starts with ``_``
(dunders aside) must be read, as a name or as an attribute, somewhere in
``src/translab/`` or ``tests/``.  Every field that a class declares, and every
attribute that its ``__init__`` sets on ``self``, must be read as an attribute
somewhere in ``src/translab/``, ``tests/`` or ``bench/``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "translab"
TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"


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


def imports_implicit(source: str) -> bool:
    """Whether ``source``, a module of the package, imports ``translab.implicit``
    anywhere: absolutely, relatively or as a name of the package."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(alias.name == "translab.implicit" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in ("translab.implicit", ".implicit"):
                return True
            if module in ("translab", ".") and any(a.name == "implicit" for a in node.names):
                return True
    return False


def test_the_check_finds_an_implicit_import():
    for source in ("from .implicit import ImplicitBranch\n", "from . import curvature, implicit\n",
                   "import translab.implicit as im\n", "from translab.implicit import X\n",
                   "def f():\n    from .implicit import ImplicitBranch\n"):
        assert imports_implicit(source), source
    for source in ("from .curvature import implicit\n", "from .implicitly import A\n",
                   "import translab.curvature\n", "implicit = 1\n"):
        assert not imports_implicit(source), source


def test_only_the_cli_imports_implicit():
    # the bisection oracle and the bench's entry points live in implicit; no
    # solver reaches them
    importers = [path.name for path in sorted(SRC.glob("*.py")) if imports_implicit(path.read_text())]
    assert importers == ["cli.py"]


def private_names(source: str) -> dict:
    """The module-level functions, classes and constants of ``source`` whose
    names start with ``_`` (dunders aside), with their lines."""
    bound = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                for n in ast.walk(t):
                    if isinstance(n, ast.Name):
                        bound[n.id] = node.lineno
    return {name: line for name, line in bound.items()
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))}


def names_read(source: str) -> set:
    """The names and attribute names that ``source`` reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def unread_private_names(modules: dict, readers: list) -> list:
    """The private names that the ``modules`` (file name -> source) define
    and neither they nor the ``readers`` (sources) read."""
    read = set().union(*map(names_read, [*modules.values(), *readers]))
    return sorted(f"{file}: {name} (line {line})" for file, source in modules.items()
                  for name, line in private_names(source).items() if name not in read)


def test_the_check_finds_an_unread_private_name():
    module = ("_A = 1\n_B, _C = 2, 3\n__all__ = []\ndef _f():\n    return _A\n"
              "class _K:\n    pass\ndef g():\n    pass\n")
    reader = "from pkg import m\nm._C\n"
    assert unread_private_names({"m.py": module}, [reader]) == [
        "m.py: _B (line 2)", "m.py: _K (line 6)", "m.py: _f (line 4)"]


def test_no_unread_private_names():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted(TESTS.glob("*.py"))]
    assert unread_private_names(modules, readers) == []


def state_fields(source: str) -> dict:
    """The state that the classes of ``source`` declare, as "Class.name" with
    its line: every annotated field in a class body (dataclass or NamedTuple)
    and every ``self.<name>`` that an ``__init__`` assigns."""
    fields = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                fields[f"{cls.name}.{node.target.id}"] = node.lineno
            elif isinstance(node, ast.FunctionDef) and node.name == "__init__":
                for n in ast.walk(node):
                    if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                            and isinstance(n.value, ast.Name) and n.value.id == "self"):
                        fields[f"{cls.name}.{n.attr}"] = n.lineno
    return fields


def unread_state(modules: dict, readers: list) -> list:
    """The class state that the ``modules`` (file name -> source) declare and
    that neither they nor the ``readers`` (sources) read as an attribute."""
    read = {n.attr for source in [*modules.values(), *readers] for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    return sorted(f"{file}: {name} (line {line})" for file, source in modules.items()
                  for name, line in state_fields(source).items()
                  if name.partition(".")[2] not in read)


def test_the_check_finds_unread_state():
    module = ("class P:\n    a: int\n    b: float = 0.0\n"
              "class E(Exception):\n    def __init__(self, m, c=None):\n"
              "        super().__init__(m)\n        self.c = c\n        self.d = 1\n"
              "def f(p, e):\n    return p.a, e.d\n")
    reader = "from pkg import m\nm.P(a=1, b=2).b = 3\n"  # a keyword and a store read nothing
    assert unread_state({"m.py": module}, [reader]) == [
        "m.py: E.c (line 7)", "m.py: P.b (line 3)"]


def test_no_unread_state():
    modules = {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text() for path in sorted([*TESTS.glob("*.py"), *BENCH.glob("*.py")])]
    assert unread_state(modules, readers) == []
