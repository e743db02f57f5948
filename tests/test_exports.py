"""The package's public names.

Proves:
  1.  Every name in the ``__all__`` of ``wavebound`` and of each of its
      modules resolves on that module, so a deleted or renamed function
      cannot linger as a stale export (``from wavebound._quad import *``
      would raise on it).
  2.  The package's ``__all__`` names each name once and holds every name
      of each module it republishes, bound to that module's object.
"""

import importlib
import pkgutil

import pytest

import wavebound

_MODULES = ["wavebound"] + [
    f"wavebound.{info.name}" for info in pkgutil.iter_modules(wavebound.__path__)
]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    names = getattr(module, "__all__", ())
    missing = [attr for attr in names if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"


# the modules the package republishes with ``from .module import *``
_REPUBLISHED = ["errors", "model", "varbound", "twospecies", "pde"]


def test_package_all_names_each_name_once():
    # a name two modules export would be shadowed silently by the later
    # star import
    names = wavebound.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)


@pytest.mark.parametrize("name", _REPUBLISHED)
def test_package_all_holds_each_module_all(name):
    module = importlib.import_module(f"wavebound.{name}")
    missing = [attr for attr in module.__all__ if attr not in wavebound.__all__]
    assert not missing, f"wavebound.__all__ lacks {missing} from wavebound.{name}"
    assert all(getattr(wavebound, attr) is getattr(module, attr) for attr in module.__all__)
