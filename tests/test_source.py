"""Checks on the source files themselves."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SOURCES, *(ROOT / "tests").rglob("*.py")])
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def redefined(body, where: str) -> list[str]:
    """The names that the statements ``body`` define more than once as a def or class, each at ``where``,
    then the same for the body of every class among them."""
    defs = [node for node in body if isinstance(node, DEFS)]
    twice = [f"{where}{name}" for name, count in Counter(node.name for node in defs).items() if count > 1]
    classes = (node for node in defs if isinstance(node, ast.ClassDef))
    return twice + [name for node in classes for name in redefined(node.body, f"{where}{node.name}.")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_name_defined_twice(path):
    # a second def or class of a name shadows the first, so pytest never collects a test class defined before it
    assert redefined(ast.parse(path.read_text(), str(path)).body, "") == []


def test_no_name_defined_in_two_modules():
    # a second copy of a helper drifts from the first: the one integer rule, intervals._int, once had a copy in cli
    modules = defaultdict(list)
    for path in SOURCES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, DEFS):
                modules[node.name].append(str(path.relative_to(ROOT)))
    assert {name: where for name, where in modules.items() if len(where) > 1} == {}
