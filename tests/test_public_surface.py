import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gpgd

PACKAGE_DIR = Path(gpgd.__file__).parent


def test_every_module_export_resolves():
    # `from gpgd.<module> import *` fails on a name left in __all__ after
    # its definition was deleted
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        mod = importlib.import_module(f"gpgd.{info.name}")
        missing = [name for name in getattr(mod, "__all__", ())
                   if not hasattr(mod, name)]
        assert not missing, f"gpgd.{info.name}.__all__ names undefined {missing}"


def test_package_imports_are_module_exports():
    tree = ast.parse((PACKAGE_DIR / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"gpgd.{node.module}")
        for alias in node.names:
            assert hasattr(gpgd, alias.asname or alias.name)
            assert alias.name in mod.__all__, f"gpgd.{node.module}.{alias.name}"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module's top-level imports that nothing else in
    the module reads, counting a name listed in __all__ as read."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(set(bound) - used)


def test_no_module_keeps_an_unused_import():
    # a computation moved to another module must take its imports along
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":  # imports there are the package's exports
            continue
        unused = _unused_imports(ast.parse(path.read_text()))
        assert not unused, f"gpgd/{path.name} imports {unused} and never uses them"


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        assert gpgd.__version__ == tomllib.load(fh)["project"]["version"]


def _private_definitions(tree: ast.Module):
    """(name, node) of every private top-level function, class or constant
    of a module; dunder names are not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _read_names(tree: ast.AST, skip: ast.AST) -> set[str]:
    """Names read in tree outside the subtree skip: loaded variables and
    attribute names."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def test_no_private_helper_is_dead():
    # a private helper that the code it served no longer calls must go
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    dead = []
    for filename, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in _read_names(other, node) for other in trees.values()):
                dead.append(f"gpgd/{filename}: {name}")
    assert not dead, f"private names defined and never read: {dead}"
