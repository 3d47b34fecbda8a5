"""Every name that persched or one of its modules lists in ``__all__`` exists,
every ``ps.<name>`` that README.md mentions is public, every public function
has a caller outside the tests, and persched binds no public name that its
``__all__`` leaves out.

Tools that walk ``__all__`` with ``getattr``, such as per-layer tracers,
crash on a name that was deleted from a module but left in its list.
Documentation that still names a deleted function fails no other test.
A public function that only tests call is a second path to maintain, and a
name the package binds outside ``__all__`` is public to ``ps.<name>`` users
all the same.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import persched

ROOT = Path(__file__).resolve().parent.parent
SUBMODULES = [f"persched.{info.name}" for info in pkgutil.iter_modules(persched.__path__)]


def readme_names():
    """The names README.md mentions as ``ps.<name>``."""
    return set(re.findall(r"\bps\.([A-Za-z_]\w*)", (ROOT / "README.md").read_text()))


def script_targets():
    """The functions that pyproject.toml's ``[project.scripts]`` entries name."""
    text = (ROOT / "pyproject.toml").read_text()
    table = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return set(re.findall(r'^[\w.-]+\s*=\s*"[\w.]+:(\w+)"', table, flags=re.MULTILINE))


def callers():
    """The names loaded outside tests/: by the package's own modules, the
    demos and the benchmark, as ``ps.<name>`` in README.md, and as a script
    entry point in pyproject.toml."""
    sources = [p for p in (ROOT / "src" / "persched").glob("*.py") if p.name != "__init__.py"]
    sources += list((ROOT / "demos").glob("*.py")) + list((ROOT / "bench").glob("*.py"))
    return readme_names().union(script_targets(), *map(loaded_names, sources))


def loaded_names(path):
    """The names a Python file loads, bare or as an attribute. A name
    imported under an alias counts under its own name; comments and strings
    do not count."""
    tree = ast.parse(path.read_text())
    aliases = {
        alias.asname: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.asname
    }
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(aliases.get(node.id, node.id))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("name", ["persched"] + SUBMODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} defines no __all__"
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ lists missing names {missing}"
    assert len(set(module.__all__)) == len(module.__all__), f"{name}.__all__ repeats a name"


def test_readme_names_only_public_api():
    named = readme_names()
    assert named, "README.md names no ps.<name>"
    stale = sorted(named - set(persched.__all__))
    assert stale == [], f"README.md names {stale}, which persched does not export"


def test_public_functions_have_a_caller():
    functions = {name for name in persched.__all__ if inspect.isfunction(getattr(persched, name))}
    uncalled = sorted(functions - callers())
    assert uncalled == [], f"persched exports {uncalled}, which nothing outside tests/ calls"


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_functions_have_a_caller(name):
    module = importlib.import_module(name)
    functions = {attr for attr in module.__all__ if inspect.isfunction(getattr(module, attr))}
    uncalled = sorted(functions - callers())
    assert uncalled == [], f"{name} exports {uncalled}, which nothing outside tests/ calls"


def test_package_binds_no_public_name_outside_all():
    stray = sorted(
        name
        for name, value in vars(persched).items()
        if not (name.startswith("_") or inspect.ismodule(value) or name in persched.__all__)
    )
    assert stray == [], f"persched binds {stray}, which its __all__ leaves out"
