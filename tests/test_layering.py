"""Layering of the package, read from the source with ``ast``.

Every module imports at its top, uses no other module's ``_`` names, the
modules import each other without a cycle, and every definition has a
caller outside the unit tests.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "weylot"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}
# what runs the package other than its unit tests: the package's modules
# (the commands), the benchmark and the acceptance suite; the re-exports
# of ``__init__.py`` call nothing
CALLERS = ([path for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]
           + sorted((ROOT / "perfbench").rglob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


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


def names_read(tree):
    """Every name a tree refers to: ``Name`` ids, ``Attribute`` attributes
    and the parts of imported names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
    return out


def test_every_definition_has_a_caller():
    """Each function, method and class of the package, dunders aside, is
    named somewhere in the package, ``perfbench/`` or the acceptance suite.

    The check goes by name alone: a definition passes when anything of the
    same name is read, such as another object's attribute, a local variable
    or its own recursive call.  So a method named like a local variable
    (``Polytope.tight``, ``RootSystem.order``) or a function named like one
    (``linalg.rank``, ``linalg.det``) would pass unread; the check finds
    only code whose name nothing reads.
    """
    read = set()
    for path in CALLERS:
        read |= names_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = [f"{name}.{node.name}" for name, tree in MODULES.items()
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
              and not (node.name.startswith("__")
                       and node.name.endswith("__"))
              and node.name not in read]
    assert unread == [], f"defined but named by no caller: {unread}"
