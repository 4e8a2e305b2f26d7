"""Static check on the package sources: every top-level import is used. No
linter ships with the test dependencies, and a module that stops using an
import (json, once checkpoints moved behind nn) leaves it behind silently."""

import ast
import pathlib

import pytest

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
