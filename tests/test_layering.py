"""The package's routes import only the base and themselves.

econorder reaches the spontaneous order by routes that check one another:
the exact route (counting, enumeration) counts and lists integer orders,
the entropy route (maxent, macro) solves for the real-valued occupancy and
its macro reading, and the fit route (fitting) fits the two laws to data.
Each route may import the base (core, errors) and its own modules; only the
modules that compare or report the routes (checks, reports, cli, configio
and the package's __init__) import more than one.  A route that imported
another could no longer be an independent check of it.  This parses each
source file with ``ast`` and collects the package modules it imports, at
any depth.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "econorder"
SOURCES = sorted(PACKAGE.glob("*.py"))
BASE = {"core", "errors"}
ROUTES = {
    "exact": {"counting", "enumeration"},
    "entropy": {"maxent", "macro"},
    "fit": {"fitting"},
}
COMBINERS = {"checks", "reports", "cli", "configio", "__init__"}


def package_imports(tree: ast.Module) -> set[str]:
    """The econorder modules a source file imports, relatively
    (``from .m import x``, ``from . import m``) or by the package's name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:
                found |= {alias.name for alias in node.names}
            elif node.level == 1:
                found.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("econorder."):
                found.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            found |= {
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("econorder.")
            }
    return found


def imports_of(name: str) -> set[str]:
    path = PACKAGE / (name + ".py")
    return package_imports(ast.parse(path.read_text(), filename=str(path)))


def routes_of(modules: set[str]) -> set[str]:
    return {route for route, members in ROUTES.items() if modules & members}


def test_every_module_is_placed():
    placed = BASE | COMBINERS | set().union(*ROUTES.values())
    assert {path.stem for path in SOURCES} == placed


@pytest.mark.parametrize("name", sorted(BASE))
def test_the_base_imports_only_the_base(name):
    assert imports_of(name) <= BASE


@pytest.mark.parametrize(
    "route, name",
    [(route, name) for route, members in ROUTES.items() for name in sorted(members)],
)
def test_a_route_imports_only_the_base_and_itself(route, name):
    outside = imports_of(name) - BASE - ROUTES[route]
    assert not outside, "%s.py (%s route) imports %s" % (name, route, sorted(outside))


def test_only_the_combining_modules_import_two_routes():
    combined = {path.stem for path in SOURCES if len(routes_of(imports_of(path.stem))) > 1}
    assert combined <= COMBINERS


def test_a_crossing_import_is_caught():
    tree = ast.parse(
        "from .core import RevenueGrid\n"
        "from . import errors, macro\n"
        "def f():\n"
        "    from .maxent import _evaluator\n"
        "    import econorder.enumeration\n"
        "    from econorder.fitting import fit_boltzmann\n"
    )
    found = package_imports(tree)
    assert found == {"core", "errors", "macro", "maxent", "enumeration", "fitting"}
    assert routes_of(found) == {"exact", "entropy", "fit"}
