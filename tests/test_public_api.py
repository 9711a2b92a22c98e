"""Every name a ``repro`` package exports in ``__all__`` resolves.

Ruff ignores unused imports (F401) in ``__init__.py`` files, which re-export
their package's API, so an export whose definition went away would only fail
at ``from package import *`` time.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import repro


def _packages() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("name", _packages())
def test_all_exports_resolve(name):
    package = importlib.import_module(name)
    exported = getattr(package, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
