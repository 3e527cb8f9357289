"""Every import in ``src/repspace`` is read, and every definition is named.

An import binds a name; the module must read that name somewhere, or the
import is dead weight on start-up and a leftover of deleted code.
``from __future__ import annotations`` binds nothing and is exempt.

A function, class or method defined in ``src/repspace`` must be named
somewhere in ``src/``, ``tests/`` or ``perfbench/``: read as a name or an
attribute, imported, or written in a string that is not a docstring (the
bench harness binds functions by such strings).  Dunder methods are
called by Python, and ``cmd_*`` functions by ``cli.main`` through their
names, so both are exempt.

Each definition must also be named outside ``tests/``, in ``src/`` or
``perfbench/``: what only tests call is not reached by a command and belongs in
``tests/oracles.py``.  ``TEST_ONLY`` lists the exceptions with their
reasons.  A check by name cannot see a test-only member whose name is
used elsewhere, such as a method ``d``, ``entry`` or ``from_rows``: a
variable ``d``, the word "entry" in an error message and
``IntMatrix.from_rows`` would each hide it.

No module reads a private attribute off another module (``catalog._name``)
or imports one by name (``from .catalog import _name``); dunders are
exempt.  A helper another module needs is public, so that it has one
owner and one name.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repspace"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# definitions that only tests reach, each with the reason it stays in src/
TEST_ONLY = {"em_decomposition": "ROADMAP item 2"}


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound.append((node.lineno, alias.asname or alias.name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_imports_no_unused_name(path):
    assert unused_imports(path.read_text("utf-8")) == []


def test_the_check_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from collections import namedtuple, deque as dq\n"
        "os.sep\n"
        "namedtuple\n"
    )
    assert unused_imports(source) == [(3, "dq")]


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list:
    """(line, what) of each private name taken from another module: read as
    an attribute off a module the source imports as a module ("module._name"),
    or imported by name ("from module import _name")."""
    tree = ast.parse(source)
    modules = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module is None:
                modules.update(a.asname or a.name for a in node.names)
            origin = "." * node.level + (node.module or "")
            found += [
                (node.lineno, f"from {origin} import {a.name}")
                for a in node.names
                if _private(a.name)
            ]
    found += [
        (node.lineno, f"{node.value.id}.{node.attr}")
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and _private(node.attr)
    ]
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_reads_no_private_attribute_of_another(path):
    assert private_reads(path.read_text("utf-8")) == []


def test_the_check_finds_a_private_read():
    source = (
        "import os.path as osp, sys\n"
        "from . import catalog\n"
        "from .su2 import helper\n"
        "catalog._planted\n"
        "catalog.__name__\n"
        "catalog.public\n"
        "sys._getframe()\n"
        "osp._joinrealpath\n"
        "helper._field\n"
    )
    assert private_reads(source) == [
        (4, "catalog._planted"),
        (7, "sys._getframe"),
        (8, "osp._joinrealpath"),
    ]


def test_the_check_finds_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .counting import _planted, public\n"
        "from .su2 import public as _alias, _renamed as alias\n"
        "from . import _module, __version__\n"
        "from os import _exit\n"
        "from .abelian import __all__\n"
    )
    assert private_reads(source) == [
        (2, "from .counting import _planted"),
        (3, "from .su2 import _renamed"),
        (4, "from . import _module"),
        (5, "from os import _exit"),
    ]


def names_in(source: str) -> set:
    """Every name the source reads, imports or writes in a non-docstring."""
    tree = ast.parse(source)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, *DEFINITIONS))
        and node.body
        and isinstance(node.body[0], ast.Expr)
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"\w+", node.value))
    return names


def orphan_definitions(source: str, named: set) -> list:
    """(line, name) of each definition in source that named lacks."""
    return sorted(
        (node.lineno, node.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, DEFINITIONS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and not node.name.startswith("cmd_")
        and node.name not in named
    )


@pytest.fixture(scope="module")
def named_in_the_repository():
    paths = [p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return set().union(*(names_in(p.read_text("utf-8")) for p in paths))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named_somewhere(path, named_in_the_repository):
    source = path.read_text("utf-8")
    assert orphan_definitions(source, named_in_the_repository) == []


def test_the_check_finds_an_orphan_definition():
    # planted names start with "planted_" so that no src/ name matches them
    source = (
        '"""planted_in_a_docstring"""\n'
        "class planted_class:\n"
        "    def __init__(self): pass\n"
        "    def planted_method(self): pass\n"
        "    def planted_in_a_docstring(self): pass\n"
        "def cmd_planted(): pass\n"
        "def planted_by_string(): pass\n"
        "def planted_outer():\n"
        "    def planted_inner(): pass\n"
        "planted_class().planted_method()\n"
        "getattr(planted_class, 'planted_by_string')\n"
    )
    assert orphan_definitions(source, names_in(source)) == [
        (5, "planted_in_a_docstring"),
        (8, "planted_outer"),
        (9, "planted_inner"),
    ]


@pytest.fixture(scope="module")
def named_outside_the_tests():
    paths = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py")]
    return set().union(*(names_in(p.read_text("utf-8")) for p in paths))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_definition_is_named_outside_the_tests(path, named_outside_the_tests):
    source = path.read_text("utf-8")
    named = named_outside_the_tests | TEST_ONLY.keys()
    assert orphan_definitions(source, named) == []


def test_the_check_finds_a_definition_only_tests_name():
    source = (
        "class planted_class:\n"
        "    def planted_by_a_command(self): pass\n"
        "    def planted_by_a_test(self): pass\n"
        "    def em_decomposition(self): pass\n"
    )
    command = names_in("planted_class().planted_by_a_command()\n")
    test = names_in("planted_class().planted_by_a_test()\n")
    assert orphan_definitions(source, command | test | TEST_ONLY.keys()) == []
    assert orphan_definitions(source, command | TEST_ONLY.keys()) == [
        (3, "planted_by_a_test")
    ]
