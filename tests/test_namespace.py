"""The ``geobyte`` namespace: each exported name is the object its module
defines, loaded on first access, and nothing else resolves."""

import sys

import pytest

import geobyte


@pytest.mark.parametrize("name", geobyte.__all__)
def test_exported_name_is_its_modules_object(name):
    value = getattr(geobyte, name)
    home = sys.modules[f"geobyte.{geobyte._HOME[name]}"]
    assert vars(home)[name] is value
    if hasattr(value, "__module__"):  # a class or function: defined there
        assert value.__module__ == home.__name__


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from geobyte import *", namespace)
    assert {n: namespace[n] for n in geobyte.__all__} == {
        n: getattr(geobyte, n) for n in geobyte.__all__
    }


def test_submodules_resolve_and_unknown_names_do_not():
    for module in ("clusters", "cube", "hilbert", "matrix2", "report", "transforms"):
        assert getattr(geobyte, module) is sys.modules[f"geobyte.{module}"]
    assert set(geobyte.__all__) <= set(dir(geobyte))
    with pytest.raises(AttributeError, match="nonexistent"):
        geobyte.nonexistent
    assert getattr(geobyte, "HAVE_NUMBA", False) is False
