"""The package's modules import one another in one direction only:

    graphs -> linegraph -> covers -> verify -> construct -> exact
    -> bounds -> cli

so a construction never reaches a search, and no import is deferred
into a function to get round a cycle."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "eqcover"
ORDER = (
    "graphs",
    "linegraph",
    "covers",
    "verify",
    "construct",
    "exact",
    "bounds",
    "cli",
    "__init__",
)


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}


def _relative_imports(tree):
    """The package modules a module imports at its top level."""
    out = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import x
                out.update(alias.name for alias in node.names)
            else:
                out.add(node.module)
    return out


def test_every_module_is_placed_in_the_order():
    assert sorted(_trees()) == sorted(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_no_import_inside_a_function(module):
    tree = _trees()[module]
    bad = [
        inner.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for inner in ast.walk(node)
        if isinstance(inner, (ast.Import, ast.ImportFrom))
    ]
    assert bad == [], f"{module}.py imports inside a function at lines {bad}"


def _calls_itself(function):
    """Does function call its own name, plainly or on self or cls?"""
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == function.name:
                return True
            if (
                isinstance(f, ast.Attribute)
                and f.attr == function.name
                and isinstance(f.value, ast.Name)
                and f.value.id in ("self", "cls")
            ):
                return True
    return False


@pytest.mark.parametrize("module", ORDER)
def test_no_function_calls_itself(module):
    # the searches keep explicit stacks, so no input's depth meets
    # Python's recursion limit
    bad = [
        node.name
        for node in ast.walk(_trees()[module])
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _calls_itself(node)
    ]
    assert bad == [], f"{module}.py has functions that call themselves: {bad}"


def test_imports_form_an_acyclic_graph_that_keeps_construct_below_exact():
    graph = {name: _relative_imports(tree) for name, tree in _trees().items()}
    assert "exact" not in graph["construct"]
    # each module imports only modules placed before it, so the graph is
    # acyclic and construct reaches exact by no path
    for module, imports in graph.items():
        later = {m for m in imports if ORDER.index(m) >= ORDER.index(module)}
        assert not later, f"{module} imports {sorted(later)}, placed at or after it"
