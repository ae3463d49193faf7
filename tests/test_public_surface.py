"""The package namespace is exactly the union of the modules' ``__all__`` lists."""

import inspect

import pytest

import smoothcert
from smoothcert import certify, distributions, multicert, realistic, rng, runtime, transforms

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
