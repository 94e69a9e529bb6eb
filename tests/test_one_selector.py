"""Each size-selected pair of members is chosen in one place.

maxent._evaluator compares a grid's level count against
maxent.ARRAY_MIN_LEVELS and builds the member of the evaluator pair that the
count selects.  enumeration._listing likewise reads the listing constants
(LISTING_MIN_ROWS, LISTING_MAX_VALUES and the int64 room) and picks
enumerate_orders' stack or array member, and counting._multiplicities reads
WALK_MIN_ROWS and picks how a listing is counted: the ratio walk, int64
products or the chain.
OrderCatalog._batches is the one definition of a pick, which both
OrderCatalog.sample and OrderCatalog.picks read.  A
second reader of a constant, a second caller of a counting route, or a
level-count test of its own in macro or counting, would let one caller take
one member while another takes the other, and a patched constant would
switch only some of them.  This parses each source file with ``ast`` and
reports every read of a constant outside its selector, every reference to a
counting route outside the functions allowed to take it, every use of the
pick's random calls outside the functions allowed to make them, and every
comparison of ``grid.n`` against a constant in macro.py and counting.py.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "econorder"
SOURCES = sorted(PACKAGE.glob("*.py"))
CONSTANT = "ARRAY_MIN_LEVELS"
# each constant: its one selector (file, function), which also defines it
SELECTORS = {
    CONSTANT: ("maxent.py", "_evaluator"),
    "LISTING_MIN_ROWS": ("enumeration.py", "_listing"),
    "LISTING_MAX_VALUES": ("enumeration.py", "_listing"),
    "_INT64_ROOM": ("enumeration.py", "_listing"),
    "WALK_MIN_ROWS": ("counting.py", "_multiplicities"),
}
NO_DISPATCH = ("macro.py", "counting.py")
# each counting route: the functions of counting.py that may call it
ROUTES = {
    "_ratio_walk": {"_multiplicities"},
    "_bose_einstein_int64": {"_multiplicities"},
    "_chain": {"_multiplicities", "_ratio_walk"},
}
# each call of the pick: the scopes of enumeration.py that may name it.  The
# batch generator alone turns raw bits into a listing index; the two streams
# each draw only the numpy Generator's 128-bit seed, and "" is the module's
# import of bisect_right.
PICK_CALLS = {
    "bisect_right": {"", "OrderCatalog._batches"},
    "getrandbits": {"OrderCatalog._batches", "OrderCatalog._stream", "OrderCatalog.picks"},
}

SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def readers(tree: ast.Module, name: str = CONSTANT) -> list[str]:
    """Qualified scopes that read ``name``, in source order: a load of the
    bare name, an attribute ``x.<name>`` or an import of it.  The module scope
    is ""; its assignment of the name is the definition, not a read."""
    found = []
    stack = [(node, "") for node in reversed(tree.body)]
    while stack:
        node, scope = stack.pop()
        if isinstance(node, SCOPES):
            scope = scope + "." + node.name if scope else node.name
        if (
            (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == name)
            or (isinstance(node, ast.alias) and node.name.rpartition(".")[2] == name)
        ):
            found.append(scope)
        stack.extend((child, scope) for child in reversed(list(ast.iter_child_nodes(node))))
    return found


def imported_from(tree: ast.Module, module: str) -> set[str]:
    """Names imported from the package's ``module`` (``from .module import
    ...``), and ``module`` itself where it is imported whole."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            names.update(a.name for a in node.names if module in (source, a.name))
    return names


def definitions(tree: ast.Module, name: str = CONSTANT) -> int:
    """Module-level assignments of ``name``."""
    return sum(
        isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == name for t in node.targets)
        for node in tree.body
    )


def _is_level_count(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "n"
        and isinstance(node.value, ast.Name)
        and node.value.id == "grid"
    )


def _is_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return True
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return name.isupper()


def level_count_tests(tree: ast.Module) -> list[int]:
    """Lines that compare ``grid.n`` against a literal or an UPPER_CASE name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(_is_level_count, operands)) and any(map(_is_constant, operands)):
                lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("name", SELECTORS)
def test_only_the_selector_reads_the_constant(name):
    found = {
        (path.name, scope)
        for path in SOURCES
        for scope in readers(ast.parse(path.read_text(), filename=str(path)), name)
    }
    assert found == {SELECTORS[name]}


@pytest.mark.parametrize("name", SELECTORS)
def test_the_constant_is_defined_once_beside_its_selector(name):
    counts = {path.name: definitions(ast.parse(path.read_text()), name) for path in SOURCES}
    assert {source: n for source, n in counts.items() if n} == {SELECTORS[name][0]: 1}


def test_the_catalog_counts_only_through_the_dispatcher():
    path = PACKAGE / "enumeration.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imported_from(tree, "counting") == {"_multiplicities", "multiplicity"}


@pytest.mark.parametrize("route", ROUTES)
def test_only_the_dispatcher_takes_a_counting_route(route):
    found = {
        (path.name, scope)
        for path in SOURCES
        for scope in readers(ast.parse(path.read_text(), filename=str(path)), route)
    }
    assert found == {("counting.py", caller) for caller in ROUTES[route]}


@pytest.mark.parametrize("name", PICK_CALLS)
def test_one_definition_of_the_pick(name):
    found = {
        (path.name, scope)
        for path in SOURCES
        for scope in readers(ast.parse(path.read_text(), filename=str(path)), name)
    }
    assert found == {("enumeration.py", scope) for scope in PICK_CALLS[name]}


@pytest.mark.parametrize("name", NO_DISPATCH)
def test_no_level_count_dispatch(name):
    path = PACKAGE / name
    lines = level_count_tests(ast.parse(path.read_text(), filename=str(path)))
    assert not lines, "%s compares grid.n against a constant at lines %s" % (name, lines)


def test_a_second_reader_and_a_dispatch_are_caught():
    tree = ast.parse(
        "from .maxent import ARRAY_MIN_LEVELS\n"
        "from . import maxent\n"
        "LIMIT = 16\n"
        "def total(grid, occ):\n"
        "    if grid.n < maxent.ARRAY_MIN_LEVELS:\n"
        "        return sum(occ)\n"
        "    return 16 <= grid.n\n"
        "class Levels:\n"
        "    def wide(self, grid):\n"
        "        return grid.n >= LIMIT or grid.n > self.n\n"
    )
    assert readers(tree) == ["", "total"]
    assert level_count_tests(tree) == [5, 7, 10]


def test_a_route_taken_around_the_dispatcher_is_caught():
    tree = ast.parse(
        "from .counting import _multiplicities, _ratio_walk as walk\n"
        "from . import counting\n"
        "def catalog(columns, g):\n"
        "    return counting._bose_einstein_int64(columns, len(g))\n"
    )
    assert imported_from(tree, "counting") == {"_multiplicities", "_ratio_walk", "counting"}
    assert readers(tree, "_ratio_walk") == [""]
    assert readers(tree, "_bose_einstein_int64") == ["catalog"]
