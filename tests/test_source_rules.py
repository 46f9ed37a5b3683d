"""Rules that keep src/ small, and every demo run clean. A rule fails
with its offenders as ``path:line name``, one a line, the path relative
to the repository root; each module under src/ is parsed once."""

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@functools.cache
def _trees():
    """{path relative to the root: module tree} for every src/**/*.py."""
    return {path.relative_to(ROOT):
            ast.parse(path.read_text(encoding="utf-8"), str(path))
            for path in sorted(SRC.rglob("*.py"))}


def _exports(tree):
    """The names in the module's literal top-level ``__all__``."""
    lists = [node.value for node in tree.body
             if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == "__all__" for t in node.targets)]
    return set(ast.literal_eval(lists[-1])) if lists else set()


def test_every_imported_name_is_used_or_exported():
    # a dotted import is judged by its first part; __future__ is skipped
    bad = []
    for path, tree in _trees().items():
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)} | _exports(tree)
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.Import, ast.ImportFrom))
                    or getattr(node, "module", None) == "__future__"):
                continue
            bad += [f"{path}:{node.lineno} {name}" for name in
                    ((alias.asname or alias.name).split(".")[0]
                     for alias in node.names)
                    if name not in used]
    assert not bad, "\n".join(bad)


def test_every_module_level_name_and_method_is_used_or_exported():
    # named: read, an attribute, imported, or in an __all__; the
    # interpreter calls __dunder__ methods and PEP 562's __getattr__ and
    # __dir__. A method sharing a named method's name passes unseen.
    trees = _trees()
    named = set().union(*map(_exports, trees.values()))
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
    bad = []
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, ast.FunctionDef)
                    and node.name in ("__getattr__", "__dir__")):
                continue
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                defined = [name.id for target in targets
                           for name in ast.walk(target)
                           if isinstance(name, ast.Name)]
            else:
                continue
            bad += [f"{path}:{node.lineno} {name}" for name in defined
                    if name not in named and name != "__all__"]
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                bad += [f"{path}:{node.lineno} {cls.name}.{node.name}"
                        for node in cls.body
                        if isinstance(node, (ast.FunctionDef,
                                             ast.AsyncFunctionDef))
                        and not (node.name.startswith("__")
                                 and node.name.endswith("__"))
                        and node.name not in named]
    assert not bad, "\n".join(bad)


def test_only_errors_py_tests_for_a_bool():
    # errors.check_int decides what a count argument must be; an
    # isinstance(..., bool) test anywhere else is a second rule
    bad = [f"{path}:{node.lineno}" for path, tree in _trees().items()
           if path.name != "errors.py"
           for node in ast.walk(tree)
           if isinstance(node, ast.Call)
           and getattr(node.func, "id", None) == "isinstance"
           and len(node.args) == 2
           and any(getattr(name, "id", None) == "bool"
                   for name in ast.walk(node.args[1]))]
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda path: path.name)
def test_a_demo_runs_clean_under_w_error(demo):
    # -W error turns a warning into an exception; one raised in a
    # destructor, such as the ResourceWarning for a socket or child
    # process left open, is only printed, so any stderr output fails too
    pythonpath = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(demo)], cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath)),
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        errors="replace", timeout=600)
    assert (proc.returncode, proc.stderr) == (0, "")
