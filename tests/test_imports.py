"""Static checks on the package sources: every top-level import is used,
no two modules define the same top-level function or class, and every
top-level function or class is named somewhere in the package. No linter
ships with the test dependencies, and a module that stops using an import
(json, once checkpoints moved behind nn) leaves it behind silently, as a
helper copied into a second module or one that its last caller stopped
calling does."""

import ast
import collections
import os
import pathlib
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import spans  # noqa: E402

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "pertsets"


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
