import ast
import importlib
import pkgutil
from pathlib import Path

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
