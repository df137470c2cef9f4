"""Public surface: every exported name exists and has a caller outside the
tests, and so does every public method and property of an exported class;
the package root exports none, and importing the CLI loads no scipy."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
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


def _references(tree: ast.AST, module: str) -> set[str]:
    """Names code refers to as exports of ``module``: names imported from
    it (``from sonolink.<module> import x``, ``from .<module> import x``)
    and its attributes (``<module>.x``).  Strings, comments and docstrings
    refer to nothing, and neither does a bare name, which may be anyone's."""
    sources = {(0, f"sonolink.{module}"), (1, module)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in sources:
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) and module in (
            getattr(node.value, "id", None), getattr(node.value, "attr", None)
        ):
            names.add(node.attr)
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
        names.update(n.id for n in ast.walk(annotation) if isinstance(n, ast.Name))
    return names


def _entry_points(module: str) -> set[str]:
    """Names of ``module`` that pyproject.toml's [project.scripts] entry
    points call.  Read without tomllib, which Python 3.10 lacks."""
    text = (ROOT / "pyproject.toml").read_text()
    table = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(rf'^\s*[\w.-]+\s*=\s*"sonolink\.{module}:(\w+)"', table[1], re.M))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller(name):
    # an export is used when another module imports it from this module or
    # reads it as this module's attribute, when a console-script entry point
    # calls it, or when its own module names it in a type annotation (a
    # result type such as RirRow)
    module = importlib.import_module(f"sonolink.{name}")
    own = ROOT / "src" / "sonolink" / f"{name}.py"
    trees = _trees(CALLER_DIRS)
    used = _annotation_names(trees.pop(own)) | _entry_points(name)
    for tree in trees.values():
        used |= _references(tree, name)
    unused = [export for export in getattr(module, "__all__", []) if export not in used]
    assert not unused, f"sonolink.{name}.__all__ names with no caller outside tests: {unused}"


def _public_members(module) -> list[str]:
    """``Class.name`` of each public method and property defined in the body
    of a class that ``module`` exports."""
    members = []
    for export in getattr(module, "__all__", []):
        cls = getattr(module, export)
        if inspect.isclass(cls):
            members += [
                f"{export}.{name}" for name, value in vars(cls).items()
                if not name.startswith("_")
                and (inspect.isfunction(value) or isinstance(value, (property, classmethod, staticmethod)))
            ]
    return members


@pytest.mark.parametrize("name", MODULES)
def test_public_methods_have_a_caller(name):
    # a method or property is used when code outside the tests, its own
    # module included, reads an attribute of its name; the receiver's type
    # is not resolved, so only a name that nothing reads at all fails
    module = importlib.import_module(f"sonolink.{name}")
    read = {node.attr for tree in _trees(CALLER_DIRS).values()
            for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [member for member in _public_members(module) if member.rpartition(".")[2] not in read]
    assert not unused, f"sonolink.{name} members with no caller outside tests: {unused}"


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


# the helper pool and the overlap-add accumulator; other modules reach them
# only through core's passes (_halves, _overlap_add)
CORE_ONLY = {"_helper", "_OverlapAdd"}


def test_only_core_names_the_helper_protocol():
    named = [
        f"{path.relative_to(ROOT)}:{node.lineno} {name}"
        for path, tree in _trees(CALLER_DIRS).items()
        if path != ROOT / "src" / "sonolink" / "core.py"
        for node in ast.walk(tree)
        for name in ([alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
                     else [getattr(node, "id", None), getattr(node, "attr", None)])
        if name in CORE_ONLY
    ]
    assert not named, f"modules other than core name core's helper protocol: {named}"


def _submits(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "submit"]


def test_only_halves_hands_the_helper_a_task():
    # core._halves is the one way to the helper pool
    trees = _trees(("src",))
    halves = next(node for node in trees[ROOT / "src" / "sonolink" / "core.py"].body
                  if isinstance(node, ast.FunctionDef) and node.name == "_halves")
    inside = _submits(halves)
    outside = [f"{path.relative_to(ROOT)}:{call.lineno}" for path, tree in trees.items()
               for call in _submits(tree) if call not in inside]
    assert inside and not outside, f"tasks handed to a pool outside core._halves: {outside}"


def _fft_owners(tree: ast.AST):
    """The class around each ``<x>.fft.<name>`` in a module; None outside any."""
    classes = [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "fft":
            yield next((c.name for c in classes if c.lineno <= node.lineno <= c.end_lineno), None)


def test_only_core_runs_the_fft():
    # numpy's FFT runs in core alone: in the STFT's frames, the overlap-add's
    # transform and the one FFT convolution, which apply_channel drives
    owners = {(path.relative_to(ROOT).as_posix(), owner)
              for path, tree in _trees(CALLER_DIRS).items() for owner in _fft_owners(tree)}
    core = "src/sonolink/core.py"
    assert owners == {(core, "_Frames"), (core, "_OverlapAdd"), (core, "_Convolution")}, owners


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
