import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_dir_lists_every_export():
    # a fresh interpreter: here `from archdam import *` above may already
    # have loaded the decision maker and benchmark names that dir() must show
    code = "import archdam; print(sorted(set(archdam.__all__) - set(dir(archdam))))"
    env = {**os.environ, "PYTHONPATH": str(Path(archdam.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
