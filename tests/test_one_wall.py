"""The Bose-Einstein wall is raised in one place.

maxent._ArrayLevels.closed_form is the one scope in the package that builds
a SingularityError: the float evaluator hands every point its fast pass
cannot take to that member, so a second, float-side copy of the wall check
could drift from it (its level, its message) unnoticed.  This parses each
source file with ``ast`` and reports every scope that constructs the error,
by a call or by raising the class itself.
"""

import ast
from pathlib import Path

import econorder

PACKAGE = Path(econorder.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
WALL = ("maxent.py", "_ArrayLevels.closed_form")
ERROR = "SingularityError"
SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names_the_error(node: ast.AST) -> bool:
    """``SingularityError`` or ``x.SingularityError``."""
    return (isinstance(node, ast.Name) and node.id == ERROR) or (
        isinstance(node, ast.Attribute) and node.attr == ERROR
    )


def constructions(tree: ast.Module) -> list[str]:
    """Qualified scopes that construct a SingularityError, in source order;
    the module scope is ""."""
    found = []
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, SCOPES):
            scope = scope + "." + node.name if scope else node.name
        if (isinstance(node, ast.Call) and _names_the_error(node.func)) or (
            isinstance(node, ast.Raise) and node.exc is not None and _names_the_error(node.exc)
        ):
            found.append(scope)
        stack.extend((child, scope) for child in reversed(list(ast.iter_child_nodes(node))))
    return found


def test_only_the_array_member_builds_the_wall():
    found = {
        (path.name, scope)
        for path in SOURCES
        for scope in constructions(ast.parse(path.read_text(), filename=str(path)))
    }
    assert found == {WALL}


def test_a_second_wall_is_caught():
    tree = ast.parse(
        "from . import errors\n"
        "from .errors import SingularityError\n"
        "def _wall(k, x):\n"
        "    return SingularityError('at level %d' % k, level_index=k)\n"
        "class Levels:\n"
        "    def closed_form(self, x):\n"
        "        if min(x) <= 0.0:\n"
        "            raise errors.SingularityError('wall')\n"
        "        try:\n"
        "            return [1.0 / v for v in x]\n"
        "        except SingularityError:\n"
        "            raise SingularityError\n"
        "WALL = SingularityError('module')\n"
    )
    assert constructions(tree) == ["_wall", "Levels.closed_form", "Levels.closed_form", ""]
