"""Each module's ``__all__`` is exact: every name is defined there, once.

Names are imported from their modules, not from the package, so nothing else
imports every ``__all__`` entry; a stale one would otherwise pass unseen.

Importing the command line loads only what every command uses.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import poolsim

MODULES = sorted(info.name for info in pkgutil.iter_modules(poolsim.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_are_defined_there_once(name):
    module = importlib.import_module(f"poolsim.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"duplicate names in {name}.__all__"
    for attr in exported:
        assert hasattr(module, attr), f"{name}.__all__ lists {attr!r}, which is undefined"
        # a class or function listed here must be the module's own
        owner = getattr(getattr(module, attr), "__module__", module.__name__)
        assert owner == module.__name__, f"{name}.__all__ lists {attr!r} from {owner}"


def test_cli_import_leaves_the_pool_and_the_fluid_layer_unloaded():
    # a fresh interpreter: this one has loaded them already
    src = str(Path(poolsim.__file__).resolve().parents[1])
    probe = ("import sys, poolsim.cli; "
             "print(*sorted({'concurrent.futures', 'multiprocessing', 'poolsim.fluid'}"
             " & sys.modules.keys()))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.split() == []
