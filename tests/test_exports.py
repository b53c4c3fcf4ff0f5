"""Export lists: every advertised name exists, so a deletion cannot leave one stale."""

import ast
import importlib
import pkgutil

import pytest

import pensionsim

MODULES = [m.name for m in pkgutil.iter_modules(pensionsim.__path__) if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"pensionsim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve_to_exported_names():
    with open(pensionsim.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"pensionsim.{node.module}")
        exported = getattr(module, "__all__", None)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name} does not exist"
            assert hasattr(pensionsim, alias.asname or alias.name)
            if exported is not None:
                assert alias.name in exported, f"{alias.name} missing from {node.module}.__all__"
