"""Each module's ``__all__`` is exact: every name is defined there, once.

Names are imported from their modules, not from the package, so nothing else
imports every ``__all__`` entry; a stale one would otherwise pass unseen.
"""

import importlib
import pkgutil

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
