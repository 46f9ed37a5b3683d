import importlib
import pkgutil

import pytest

import pacreach

# the package and each of its modules that declares an export list
MODULES = [pacreach] + [
    module for module in (importlib.import_module(f"pacreach.{info.name}")
                          for info in pkgutil.iter_modules(pacreach.__path__))
    if hasattr(module, "__all__")]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    exported = module.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(module, name)] == []
