"""The package namespace is exactly the union of the modules' ``__all__`` lists,
every listed name has a caller beyond the unit tests, and the CLI uses no
private name of the package."""

import ast
import inspect
from pathlib import Path

import pytest

import smoothcert
from smoothcert import certify, cli, distributions, multicert, realistic, rng, runtime, transforms

MODULES = [certify, distributions, multicert, realistic, rng, runtime, transforms]

REPO = Path(__file__).resolve().parent.parent
# The code a public name must serve: the package itself (and so the CLI), the
# benchmark, and the acceptance gate.  Unit tests alone do not keep a name public.
CALLERS = [
    *sorted((REPO / "src" / "smoothcert").glob("*.py")),
    *sorted((REPO / "perfbench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]


def _referenced_names(path: Path) -> set[str]:
    """Names ``path`` loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in node.names)
    return names


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


def test_every_listed_name_has_a_caller_beyond_the_unit_tests():
    used = set().union(*map(_referenced_names, CALLERS))
    exported = set().union(*(module.__all__ for module in MODULES))
    assert sorted(exported - used) == []


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
