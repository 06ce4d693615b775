import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pnpstab

MODULES = sorted(info.name for info in pkgutil.iter_modules(pnpstab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    # The benchmark tracer calls getattr(mod, name) on every __all__ entry.
    mod = importlib.import_module(f"pnpstab.{name}")
    assert [entry for entry in getattr(mod, "__all__", ()) if not hasattr(mod, entry)] == []


def test_package_reexports_only_public_names():
    tree = ast.parse(Path(pnpstab.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        exported = importlib.import_module(f"pnpstab.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == []
