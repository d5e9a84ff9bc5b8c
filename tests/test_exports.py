"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

import pytest

import fairpost

MODULES = [fairpost] + [importlib.import_module(f"fairpost.{info.name}")
                        for info in pkgutil.iter_modules(fairpost.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
