"""Lazy re-exports and lazy module registries (repro.common.lazy)."""

import importlib
import sys
import types

import pytest

import repro
import repro.sim
from repro.common.lazy import LazyModules, lazy_exports


@pytest.fixture
def unloaded(monkeypatch):
    """A small stdlib module, removed from ``sys.modules`` for the test."""
    monkeypatch.delitem(sys.modules, "colorsys", raising=False)
    return "colorsys"


def fake_package(monkeypatch, exports):
    package = types.ModuleType("fake_lazy_package")
    package.__getattr__ = lazy_exports(package.__name__, exports)
    monkeypatch.setitem(sys.modules, package.__name__, package)
    return package


def test_export_imports_its_module_on_first_read(monkeypatch, unloaded):
    package = fake_package(monkeypatch, {unloaded: ("rgb_to_hsv", "hsv_to_rgb")})
    assert unloaded not in sys.modules
    value = package.rgb_to_hsv
    assert value is sys.modules[unloaded].rgb_to_hsv
    # Bound in the package: later reads no longer go through the hook.
    assert vars(package)["rgb_to_hsv"] is value
    assert "hsv_to_rgb" not in vars(package)


def test_unknown_export_raises_attribute_error(monkeypatch):
    package = fake_package(monkeypatch, {"colorsys": ("rgb_to_hsv",)})
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        package.nope
    assert not hasattr(package, "hsv_to_rgb")


@pytest.mark.parametrize("package", [repro, repro.sim], ids=lambda p: p.__name__)
def test_every_public_name_is_its_defining_object(package):
    for name in package.__all__:
        value = getattr(package, name)
        if name == "__version__":
            assert isinstance(value, str)
            continue
        defining = importlib.import_module(value.__module__)
        assert getattr(defining, name) is value, name


@pytest.mark.parametrize("package", [repro, repro.sim], ids=lambda p: p.__name__)
def test_star_import_binds_every_public_name(package):
    namespace = {}
    exec(f"from {package.__name__} import *", namespace)
    for name in package.__all__:
        assert namespace[name] is getattr(package, name)


@pytest.mark.parametrize("package", [repro, repro.sim], ids=lambda p: p.__name__)
def test_unknown_public_name_raises(package):
    with pytest.raises(AttributeError):
        package.no_such_name
    with pytest.raises(ImportError):
        exec(f"from {package.__name__} import no_such_name", {})


def test_registry_imports_path_entries_on_lookup(unloaded):
    registry = LazyModules({"eager": sys, "lazy": unloaded})
    assert list(registry) == ["eager", "lazy"]
    assert len(registry) == 2
    assert "lazy" in registry and "other" not in registry
    assert sorted(registry) == ["eager", "lazy"]
    assert unloaded not in sys.modules
    module = registry["lazy"]
    assert module is sys.modules[unloaded]
    assert registry["lazy"] is module
    assert registry["eager"] is sys


def test_registry_unknown_name():
    registry = LazyModules({"eager": sys})
    assert registry.get("other") is None
    with pytest.raises(KeyError):
        registry["other"]
