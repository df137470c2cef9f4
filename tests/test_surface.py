"""Public surface: every exported name exists and has a caller outside the
tests, the package root exports none, and importing the CLI loads no scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import sonolink

MODULES = sorted(m.name for m in pkgutil.iter_modules(sonolink.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sonolink.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sonolink.{name}.__all__ names undefined {missing}"


ROOT = Path(__file__).resolve().parents[1]
# where the program's own callers live; test files do not count
CALLER_DIRS = ("src", "perfbench", "demos", "scripts")
# where code outside the package lives; it must keep to the public names
OUTSIDE_DIRS = ("perfbench", "demos", "scripts")


def _trees(folders, tests=False) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*.py"))
        if tests or not path.name.startswith("test_")
    }


def _references(tree: ast.AST) -> set[str]:
    """Names code refers to: bare names, attributes and imported names.
    Strings, comments and docstrings refer to nothing."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def _annotation_names(tree: ast.AST) -> set[str]:
    """Names in the type annotations of a module's functions and fields; a
    string annotation counts as the expression it spells."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            annotation = ast.parse(annotation.value, mode="eval")
        names |= _references(annotation)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller(name):
    # an export is used when another module refers to it, or when its own
    # module names it in a type annotation (a result type such as RirRow)
    module = importlib.import_module(f"sonolink.{name}")
    own = ROOT / "src" / "sonolink" / f"{name}.py"
    trees = _trees(CALLER_DIRS)
    used = _annotation_names(trees.pop(own))
    for tree in trees.values():
        used |= _references(tree)
    unused = [export for export in getattr(module, "__all__", []) if export not in used]
    assert not unused, f"sonolink.{name}.__all__ names with no caller outside tests: {unused}"


def test_outside_code_imports_no_private_name():
    private = [
        f"{path.relative_to(ROOT)}:{node.lineno} {alias.name}"
        for path, tree in _trees(OUTSIDE_DIRS, tests=True).items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("sonolink")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert not private, f"private sonolink names imported outside the package: {private}"


def test_package_root_exports_only_the_version():
    public = {n for n in vars(sonolink) if not n.startswith("_")}
    assert public <= set(MODULES)  # submodules appear once imported
    assert isinstance(sonolink.__version__, str)


def test_importing_the_cli_loads_no_scipy():
    # scipy is a WAV-I/O dependency only; importing it costs more start-up
    # time than the rest of the package together
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, sonolink.cli; "
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"
