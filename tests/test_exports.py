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
    # the package star-imports every module but the command line, so each
    # module's __all__ is its one export list
    with open(pensionsim.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert all(node.level == 1 and [a.name for a in node.names] == ["*"] for node in imports)
    starred = sorted(node.module for node in imports)
    assert starred == sorted(set(MODULES) - {"cli"})
    for name in starred:
        module = importlib.import_module(f"pensionsim.{name}")
        assert hasattr(module, "__all__"), f"pensionsim.{name} has no __all__"
        missing = [n for n in module.__all__ if not hasattr(pensionsim, n)]
        assert missing == [], f"pensionsim.{name}.__all__ names {missing}"
