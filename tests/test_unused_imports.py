"""No module of the package imports a name it never uses.

No linter is installed, so this parses each source file with ``ast``: an
imported name counts as used when the module reads it as a name (an
attribute chain starts with one), names it in a string annotation, or
re-exports it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "econorder").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.AST) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        # a return, argument or variable annotation written as a string
        annotation = getattr(node, "returns", None) or getattr(node, "annotation", None)
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            used |= used_names(ast.parse(annotation.value, mode="eval"))
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return used


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted((line, name) for name, line in imported_names(tree).items() if name not in used)
    assert not unused, "%s imports names it never uses: %s" % (
        path.name,
        ", ".join("%s (line %d)" % (name, line) for line, name in unused),
    )


def test_an_unused_import_is_caught():
    tree = ast.parse(
        "from collections import deque, Counter\nimport numpy as np\n"
        "def f(x: 'Counter') -> None:\n    return np.zeros(x)\n"
    )
    assert set(imported_names(tree)) - used_names(tree) == {"deque"}
