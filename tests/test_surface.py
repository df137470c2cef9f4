"""Public surface: every exported name exists, and the package root exports none."""

import importlib
import pkgutil

import pytest

import sonolink

MODULES = sorted(m.name for m in pkgutil.iter_modules(sonolink.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"sonolink.{name}")
    exported = getattr(module, "__all__", [])
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"sonolink.{name}.__all__ names undefined {missing}"


def test_package_root_exports_only_the_version():
    public = {n for n in vars(sonolink) if not n.startswith("_")}
    assert public <= set(MODULES)  # submodules appear once imported
    assert isinstance(sonolink.__version__, str)
