import doctest
import importlib
import pkgutil

import psodkit


def test_doctests():
    names = [f"psodkit.{m.name}" for m in pkgutil.iter_modules(psodkit.__path__)]
    assert {"psodkit.abelian", "psodkit.factorial"} <= set(names)
    for name in ["psodkit"] + names:
        failures, _ = doctest.testmod(importlib.import_module(name))
        assert failures == 0, name
