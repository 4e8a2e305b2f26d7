"""Static checks on the package sources: every import is of the standard
library, numpy or the package itself, every top-level import is used,
no two modules define the same top-level function or class, every
top-level function or class is named somewhere in the package, and every
top-level assignment is read somewhere in it. No linter ships with the test
dependencies, and a module that stops using an import (json, once
checkpoints moved behind nn) leaves it behind silently, as a helper copied
into a second module, one that its last caller stopped calling, or a
constant whose last reader went does."""

import ast
import collections
import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import spans  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pertsets"


def foreign_imports(source: str) -> list:
    """Top-level module of each import in the source, at any depth, that is
    neither in the standard library nor numpy nor relative to the package:
    numpy is the only runtime dependency pyproject.toml declares."""
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in allowed]


def test_checker_finds_a_foreign_import():
    source = ("import math\nimport numpy as np\nimport scipy\nfrom . import nn\n"
              "from .cvae import f\nfrom os import path\nfrom scipy.special import gammainc\n"
              "def f():\n    import hypothesis.strategies\n")
    assert foreign_imports(source) == ["scipy", "scipy.special", "hypothesis.strategies"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_the_standard_library_and_numpy(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_checker_finds_an_unused_import():
    assert unused_imports("import json\nimport os\nfrom x import y as z\nos.sep\n") == ["json", "z"]
    assert unused_imports("import os.path\nos.path.join\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def top_level_defs(source: str) -> list:
    """Names of the module's top-level functions and classes."""
    return [node.name for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def defined_twice(sources: dict) -> dict:
    """Each top-level function or class name that more than one of the
    {module: source} defines, with those modules."""
    owners = collections.defaultdict(list)
    for module, source in sources.items():
        for name in top_level_defs(source):
            owners[name].append(module)
    return {name: mods for name, mods in owners.items() if len(mods) > 1}


def test_checker_finds_a_name_defined_twice():
    sources = {"a": "def f(): pass\nclass C: pass\nx = 1\n",
               "b": "def f(): pass\nx = 2\ndef g(): pass\n"}
    assert defined_twice(sources) == {"f": ["a", "b"]}


def test_no_top_level_name_defined_in_two_modules():
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert defined_twice(sources) == {}


def unreferenced_defs(sources: dict, exempt=frozenset()) -> list:
    """(module, name) of each top-level function or class of the
    {module: source} that no code names outside its own definition (as a
    name, an attribute or an import), unless (module, name) is in exempt."""
    defs, named = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            refs = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    refs.add(sub.name)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((module, node.name))
                refs.discard(node.name)
            named |= refs
    return [(module, name) for module, name in defs
            if name not in named and (module, name) not in exempt]


def test_checker_finds_an_unreferenced_def():
    sources = {"a": "def f(): return f()\ndef g(): pass\nclass C: pass\nh = g\n",
               "b": "from a import C\nimport a\na.k()\ndef k(): pass\ndef w(): pass\n"}
    assert unreferenced_defs(sources) == [("a", "f"), ("b", "w")]
    assert unreferenced_defs(sources, exempt={("b", "w")}) == [("a", "f")]


def test_every_top_level_def_is_named_or_traced():
    # the benchmark's tracer wraps a few public names that no stage calls
    traced = {(mname, path) for _, _, mname, path, _ in spans.OPS}
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unreferenced_defs(sources, exempt=traced) == []


def unread_assignments(sources: dict) -> list:
    """(module, name) of each name a top-level assignment of the {module:
    source} binds that no code of any of them reads (as a name, an attribute
    or an import), dunder names aside."""
    assigned, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(module, sub.id) for t in targets for sub in ast.walk(t)
                             if isinstance(sub, ast.Name)]
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                read.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                read.add(sub.attr)
            elif isinstance(sub, ast.alias):
                read.add(sub.name)
    return [(module, name) for module, name in assigned
            if name not in read and not (name.startswith("__") and name.endswith("__"))]


def test_checker_finds_an_unread_assignment():
    sources = {"a": "X = 1\nY: int = 2\n_Z, W = 3, 4\n__all__ = []\ndef f(): return X\n",
               "b": "import a\nfrom a import W\nV = a.Y\n"}
    assert unread_assignments(sources) == [("a", "_Z"), ("b", "V")]


def test_every_top_level_assignment_is_read():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert unread_assignments(sources) == []
