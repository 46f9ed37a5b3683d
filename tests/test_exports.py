import importlib
import pkgutil
import re
import subprocess
import sys

import pytest

import pacreach
from pacreach.models import BUNDLED
from pacreach.wire import _parse

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


def _fresh_python(*args, stdin=""):
    return subprocess.run([sys.executable, *args], input=stdin,
                          capture_output=True, text=True, timeout=60,
                          check=True)


def test_importing_the_package_loads_none_of_its_modules():
    proc = _fresh_python(
        "-c", "import sys, pacreach; "
              "print(sorted(m for m in sys.modules if m.startswith('pacreach')))")
    assert proc.stdout == "['pacreach']\n"


def test_the_lazy_name_table_is_the_export_list():
    # __version__ is bound when the package is imported
    assert sorted([*pacreach._SOURCES, "__version__"]) == \
        sorted(pacreach.__all__)


def test_the_package_lists_its_lazy_names_and_refuses_unknown_ones():
    listed = dir(pacreach)
    assert "__all__" in listed
    assert set(pacreach.__all__) <= set(listed)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pacreach.no_such_name


def test_a_star_import_binds_every_exported_name():
    namespace = {}
    exec("from pacreach import *", namespace)
    assert [name for name in pacreach.__all__ if name not in namespace] == []
    assert namespace["analyze"] is importlib.import_module(
        "pacreach.analysis").analyze


def test_a_served_model_imports_no_learning_or_counting_module():
    proc = _fresh_python("-X", "importtime", "-m", "pacreach.cli",
                         "serve-model", "--model", "alks_with", "--stdio",
                         stdin="ALPHABET\n")
    machine = BUNDLED["alks_with"]()
    assert proc.stdout == _parse(machine, machine.initial, b"ALPHABET")[1] + "\n"
    imported = set(re.findall(r"\| +(\S+)$", proc.stderr, re.MULTILINE))
    assert "pacreach.wire" in imported
    assert imported & {"pacreach.analysis", "pacreach.baselines",
                       "pacreach.bounds", "pacreach.seeding"} == set()
