"""Every name that persched or one of its modules lists in ``__all__`` exists.

Tools that walk ``__all__`` with ``getattr``, such as per-layer tracers,
crash on a name that was deleted from a module but left in its list.
"""

import importlib
import pkgutil

import pytest

import persched

SUBMODULES = [f"persched.{info.name}" for info in pkgutil.iter_modules(persched.__path__)]


@pytest.mark.parametrize("name", ["persched"] + SUBMODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} defines no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"
