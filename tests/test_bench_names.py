"""Every econorder name the benchmark under bench/ reads still exists.

The benchmark imports the package, calls ``eo.<name>`` and reads traced
spans by ``"layer.name"``; a name pruned from the package would break it
only when it runs.  This parses bench/*.py (it never imports or edits it)
and resolves each name against the package.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SOURCES = sorted(BENCH.glob("*.py"))


def _resolve(dotted: str):
    """The object named ``econorder.a.b...``: submodules imported, the rest
    read as attributes."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for part in parts[1:]:
        if not hasattr(obj, part):
            obj = importlib.import_module(f"{obj.__name__}.{part}")
        else:
            obj = getattr(obj, part)
    return obj


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a chain of attributes on a bare name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def _is_trace_read(node: ast.AST) -> bool:
    """``<x>.by_name[...]``, ``<x>.counts[...]`` or ``mean_ms(...)``."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.value, ast.Attribute) and node.value.attr in ("by_name", "counts")
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "mean_ms"


def bench_names(source: str) -> tuple[set[str], set[str]]:
    """(package attributes, traced "layer.name" keys) that ``source`` reads."""
    tree = ast.parse(source)
    aliases: dict[str, str] = {}  # local name -> dotted econorder path
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "econorder":
                    local = alias.asname or alias.name.split(".")[0]
                    aliases[local] = alias.name if alias.asname else "econorder"
                    attributes.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "econorder":
            attributes.update(f"{node.module}.{alias.name}" for alias in node.names)
    traced: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.split(".")[0] in aliases:
                root, _, rest = dotted.partition(".")
                attributes.add(f"{aliases[root]}.{rest}")
        if _is_trace_read(node):
            keys = [node.slice] if isinstance(node, ast.Subscript) else node.args[1:]
            traced.update(
                key.value
                for expr in keys
                for key in ast.walk(expr)
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return attributes, traced


NAMES = {path.name: bench_names(path.read_text()) for path in SOURCES}


def test_the_parser_sees_the_benchmark():
    attributes = set().union(*(a for a, _ in NAMES.values()))
    traced = set().union(*(t for _, t in NAMES.values()))
    assert "econorder.catalog" in attributes
    assert "econorder.enumeration.MicroOutcome" in attributes
    assert {"macro.log_W", "enumeration.feasible_outcome_count"} <= traced


@pytest.mark.parametrize("name", sorted(NAMES))
def test_package_names_resolve(name):
    attributes, _ = NAMES[name]
    missing = []
    for dotted in sorted(attributes):
        try:
            _resolve(dotted)
        except (AttributeError, ImportError):
            missing.append(dotted)
    assert not missing, f"bench/{name} reads names econorder no longer has: {missing}"


@pytest.mark.parametrize("name", sorted(NAMES))
def test_traced_names_are_public_functions(name):
    # the tracer wraps only public functions defined in a layer's own module
    _, traced = NAMES[name]
    missing = []
    for key in sorted(traced):
        layer, _, fn_name = key.partition(".")
        module = importlib.import_module(f"econorder.{layer}")
        fn = getattr(module, fn_name, None)
        if not (
            inspect.isfunction(fn) and fn.__module__ == module.__name__ and not fn_name.startswith("_")
        ):
            missing.append(key)
    assert not missing, f"bench/{name} reads spans no traced function records: {missing}"
