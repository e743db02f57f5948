"""The package's public names.

Proves:
  1.  Every name in the ``__all__`` of ``wavebound`` and of each of its
      modules resolves on that module, so a deleted or renamed function
      cannot linger as a stale export (``from wavebound._quad import *``
      would raise on it).
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
