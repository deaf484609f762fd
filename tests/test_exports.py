"""The export lists name only what exists: a deleted function cannot leave a
stale entry in a module's ``__all__`` or in the package's re-exports."""

import ast
import importlib
import inspect

import pytest

import hdexplain

MODULES = ("cli", "data", "errors", "evalharness", "explain", "nnet", "stein")


def package_imports():
    """``(module, name)`` for each name ``hdexplain/__init__.py`` imports from its modules."""
    tree = ast.parse(inspect.getsource(hdexplain))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_exists(module):
    module = importlib.import_module(f"hdexplain.{module}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


def test_every_re_export_is_public_in_its_module():
    imports = package_imports()
    assert imports and {module for module, _ in imports} <= set(MODULES)
    stray = []
    for module_name, name in imports:
        module = importlib.import_module(f"hdexplain.{module_name}")
        if module_name == "errors":  # no __all__: every public name is an exception class
            value = getattr(module, name)
            public = (inspect.isclass(value) and issubclass(value, Exception)
                      and value.__module__ == module.__name__)
        else:
            public = name in module.__all__
        if not public:
            stray.append(f"{module_name}.{name}")
    assert stray == []
