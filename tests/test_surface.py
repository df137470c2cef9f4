"""Public surface: every exported name exists and has a caller outside the
tests, the package root exports none, and importing the CLI loads no scipy."""

import importlib
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


def _caller_sources(own: Path) -> dict[Path, str]:
    sources = {
        path: path.read_text()
        for folder in CALLER_DIRS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if not path.name.startswith("test_")
    }
    # the module's own __all__ list names every export once; it is no caller
    sources[own] = re.sub(r"^__all__ = \[.*?\]", "", sources[own], flags=re.S | re.M)
    return sources


@pytest.mark.parametrize("name", MODULES)
def test_all_names_have_a_caller(name):
    module = importlib.import_module(f"sonolink.{name}")
    own = ROOT / "src" / "sonolink" / f"{name}.py"
    sources = _caller_sources(own)
    unused = []
    for export in getattr(module, "__all__", []):
        name_re = re.escape(export)
        word = re.compile(rf"\b{name_re}\b")
        definition = re.compile(rf"^(?:(?:def|class) {name_re}\b|{name_re}\s*[:=])")
        if not any(
            word.search(line) and not (path == own and definition.match(line))
            for path, text in sources.items()
            for line in text.splitlines()
        ):
            unused.append(export)
    assert not unused, f"sonolink.{name}.__all__ names with no caller outside tests: {unused}"


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
