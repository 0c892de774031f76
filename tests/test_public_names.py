"""Every name a module exports through ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import robust_lmoments

MODULES = [robust_lmoments] + [
    importlib.import_module(f"robust_lmoments.{info.name}")
    for info in pkgutil.iter_modules(robust_lmoments.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(module, name)] == []
