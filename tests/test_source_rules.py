"""Source rules checked on the package's syntax trees.

A nested function that calls itself by name holds its own closure cell,
a reference cycle: everything it closes over (a join graph, counter
grids, frequency maps) then lives until the cyclic garbage collector
runs.  Recursion belongs in module-level functions.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "joinsketch"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def recursive_closures(source: str) -> list[tuple[str, int]]:
    """(name, line) of every nested function whose body calls its own name."""
    found = set()
    for outer in ast.walk(ast.parse(source)):
        if not isinstance(outer, _FUNCTIONS):
            continue
        for inner in ast.walk(outer):
            if inner is outer or not isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls_itself = any(
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == inner.name
                for node in ast.walk(inner)
            )
            if calls_itself:
                found.add((inner.name, inner.lineno))
    return sorted(found)


def test_finds_a_recursive_closure():
    source = (
        "def plan(graph):\n"
        "    def build(u):\n"
        "        return [build(v) for v in graph[u]]\n"
        "    return build(0)\n"
        "\n"
        "def module_level(u):\n"
        "    return module_level(u - 1) if u else 0\n"
        "\n"
        "class Tree:\n"
        "    def covered(self):\n"
        "        def walk(node):\n"
        "            for child in node:\n"
        "                walk(child)\n"
        "        walk(self)\n"
    )
    assert recursive_closures(source) == [("build", 2), ("walk", 11)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_recursive_closure_in_the_package(path):
    assert recursive_closures(path.read_text(encoding="utf-8")) == []
