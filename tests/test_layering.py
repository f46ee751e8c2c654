"""Layering of the package, read from the source with ``ast``.

Every module imports at its top, uses no other module's ``_`` names, and
the modules import each other without a cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "weylot"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def imports(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))]


def package_imports(tree):
    """(module, name) per name a ``from . import`` statement binds: for
    ``from .x import y`` the pair (x, y), for ``from . import x`` (x, None)."""
    out = []
    for node in imports(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                out.append((node.module, alias.name) if node.module
                           else (alias.name, None))
    return out


@pytest.mark.parametrize("name", sorted(MODULES))
def test_imports_only_at_module_level(name):
    tree = MODULES[name]
    nested = [node.lineno for node in imports(tree) if node not in tree.body]
    assert nested == [], f"{name}.py imports below module level at {nested}"


@pytest.mark.parametrize("name", sorted(MODULES))
def test_no_private_name_of_another_module(name):
    tree = MODULES[name]
    pairs = package_imports(tree)
    private = [f"{module}.{item}" for module, item in pairs
               if item is not None and item.startswith("_")]
    # ``module._name`` on a module bound by ``from . import module [as m]``
    aliases = {alias.asname or alias.name for node in imports(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module is None for alias in node.names}
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases and node.attr.startswith("_")]
    assert private == [], f"{name}.py uses private names {private}"


def test_import_graph_is_acyclic():
    edges = {name: sorted({module for module, _ in package_imports(tree)})
             for name, tree in MODULES.items()}
    done, path = set(), []

    def visit(name):
        if name in path:
            cycle = path[path.index(name):] + [name]
            raise AssertionError("import cycle: " + " -> ".join(cycle))
        if name not in done:
            path.append(name)
            for dep in edges[name]:
                visit(dep)
            path.pop()
            done.add(name)

    for name in sorted(edges):
        visit(name)
