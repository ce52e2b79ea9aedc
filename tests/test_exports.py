"""Public names: every ``__all__`` entry resolves, and the package's
``__all__`` re-exports only what its modules export."""

import importlib
import inspect
import pkgutil

import pytest

import momentagg

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(momentagg.__path__) if not m.name.startswith("_")
)


def _module(name):
    return importlib.import_module(f"momentagg.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = _module(name)
    assert len(set(mod.__all__)) == len(mod.__all__)
    for public in mod.__all__:
        assert hasattr(mod, public), f"momentagg.{name}.__all__ names missing {public!r}"


def test_package_all_names_only_reexports():
    assert len(set(momentagg.__all__)) == len(momentagg.__all__)
    for public in momentagg.__all__:
        obj = getattr(momentagg, public)
        if inspect.ismodule(obj):
            assert public in MODULES and obj is _module(public)
            continue
        owners = [m for m in MODULES if public in _module(m).__all__]
        assert owners, f"momentagg.{public} is exported by no module's __all__"
        assert all(getattr(_module(m), public) is obj for m in owners)
