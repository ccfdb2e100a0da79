import importlib
import pkgutil

import pytest

import archdam

MODULES = ["archdam"] + [f"archdam.{m.name}" for m in pkgutil.iter_modules(archdam.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_export_list_resolves(name):
    # `from <module> import *` fails on the first name the module lacks
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert all(n in namespace for n in exported)
