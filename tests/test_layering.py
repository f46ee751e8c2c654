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


def package_module(node):
    """The package module an import statement reads from: ``x`` for
    ``from .x`` or ``from weylot.x``, "" for ``from .`` or ``from
    weylot``, None for any other import."""
    if not isinstance(node, ast.ImportFrom):
        return None
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module and (
            node.module == "weylot" or node.module.startswith("weylot.")):
        return node.module.removeprefix("weylot").removeprefix(".")
    return None


# the names ``from weylot import name`` can bind: the package's modules,
# and the re-exports of ``__init__.py`` by the module they come from
REEXPORTS = {alias.name: package_module(node)
             for node in imports(MODULES["__init__"])
             for alias in node.names}


def module_names_read(tree, here=None):
    """(module, name) per module-level definition a tree reads: a bare
    name if the tree is module ``here``, ``alias.name`` on an alias bound
    to a package module, and each name imported from a package module
    (``from .m import name``, ``from weylot import name``,
    ``from weylot.m import name``)."""
    out, aliases = set(), {}
    for node in imports(tree):
        module = package_module(node)
        for alias in [] if module is None else node.names:
            if module == "" and alias.name in MODULES:
                aliases[alias.asname or alias.name] = alias.name
            else:
                out.add((REEXPORTS.get(alias.name) if module == ""
                         else module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and here is not None:
            out.add((here, node.id))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            out.add((aliases[node.value.id], node.attr))
    return out


def test_every_definition_has_a_caller():
    """Each function, method and class of the package, dunders aside, is
    read somewhere in the package, ``perfbench/`` or the acceptance suite.

    A module-level definition is resolved through its module: it is read
    as a bare name in its own module, as ``alias.name`` on an alias of its
    module (``la.rank``), or by an import of it from its module or from
    ``weylot``.  A method or a nested function goes by name alone: it
    passes when anything of the same name is read, such as another
    object's attribute or a local variable, so a method named like a local
    variable (``Polytope.tight``, ``RootSystem.order``) would pass unread.
    """
    read, module_read = set(), set()
    for path in CALLERS:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= names_read(tree)
        here = path.stem if path.parent == PACKAGE else None
        module_read |= module_names_read(tree, here)
    unread = []
    for name, tree in MODULES.items():
        top = set(tree.body)
        unread += [
            f"{name}.{node.name}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__"))
            and ((name, node.name) not in module_read if node in top
                 else node.name not in read)]
    assert unread == [], f"defined but read by no caller: {unread}"
