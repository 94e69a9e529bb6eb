"""No function of the package calls itself by name, with no exception.

A recursive walk is as deep as its input (levels, firms), and CPython stops
at about a thousand frames with a bare RecursionError, not a named error.
So every walk of the package keeps an explicit stack.  This parses each
source file with ``ast`` and reports every function, nested ones
included, whose body calls its own name (or ``self.<name>`` /
``cls.<name>`` in a method).
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "econorder").glob("*.py"))

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def calls_itself(function: ast.AST) -> bool:
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        if isinstance(callee, ast.Name) and callee.id == function.name:
            return True
        if (
            isinstance(callee, ast.Attribute)
            and callee.attr == function.name
            and isinstance(callee.value, ast.Name)
            and callee.value.id in ("self", "cls")
        ):
            return True
    return False


def recursive_functions(tree: ast.Module) -> list[str]:
    """Qualified names of the functions that call themselves, in source order."""
    found = []
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            scope = scope + node.name
            if isinstance(node, FUNCTIONS) and calls_itself(node):
                found.append(scope)
            scope += "."
        stack.extend((child, scope) for child in reversed(list(ast.iter_child_nodes(node))))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_function_calls_itself(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    recursive = recursive_functions(tree)
    assert not recursive, "%s has recursive functions: %s" % (path.name, ", ".join(recursive))


def test_a_recursive_function_is_caught():
    tree = ast.parse(
        "def outer(n):\n"
        "    def free(k):\n"
        "        return [] if k == 0 else free(k - 1)\n"
        "    return free(n)\n"
        "class Walker:\n"
        "    def visit(self, node):\n"
        "        return [self.visit(c) for c in node]\n"
        "def flat(n):\n"
        "    return list(range(n))\n"
    )
    assert recursive_functions(tree) == ["outer.free", "Walker.visit"]
