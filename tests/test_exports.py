"""Every name that persched or one of its modules lists in ``__all__`` exists,
and every ``ps.<name>`` that README.md mentions is public.

Tools that walk ``__all__`` with ``getattr``, such as per-layer tracers,
crash on a name that was deleted from a module but left in its list.
Documentation that still names a deleted function fails no other test.
"""

import importlib
import pkgutil
import re
from pathlib import Path

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


def test_readme_names_only_public_api():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    named = set(re.findall(r"\bps\.([A-Za-z_]\w*)", readme))
    assert named, "README.md names no ps.<name>"
    stale = sorted(named - set(persched.__all__))
    assert stale == [], f"README.md names {stale}, which persched does not export"
