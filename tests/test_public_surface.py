"""The package namespace is exactly the union of the modules' ``__all__`` lists,
and the CLI uses no private name of the package."""

import ast
import inspect

import pytest

import smoothcert
from smoothcert import certify, cli, distributions, multicert, realistic, rng, runtime, transforms

MODULES = [certify, distributions, multicert, realistic, rng, runtime, transforms]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_package_reexports_exactly_the_module_lists():
    exported = {
        name
        for name, value in vars(smoothcert).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == set().union(*(module.__all__ for module in MODULES))


def test_cli_imports_no_private_package_name():
    """The CLI builds on the public API only: no ``from .module import _name``."""
    tree = ast.parse(inspect.getsource(cli))
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("smoothcert"))
        for alias in node.names
        if alias.name.startswith("_") and alias.name != "__version__"
    ]
    assert private == []
