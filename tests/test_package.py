import importlib

import pytest

import hessball

MODULES = ("core", "operators", "analysis", "solver", "verify")


def test_package_exports_the_union_of_module_lists():
    union = set()
    for name in MODULES:
        union.update(importlib.import_module(f"hessball.{name}").__all__)
    assert hessball.__all__ == sorted(union)


@pytest.mark.parametrize("module_name", MODULES)
def test_each_name_is_the_module_own_object(module_name):
    module = importlib.import_module(f"hessball.{module_name}")
    for name in module.__all__:
        assert getattr(hessball, name) is getattr(module, name), name
