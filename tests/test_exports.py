"""The public names: each module's ``__all__`` and the package re-exports."""

import inspect
import pkgutil
from importlib import import_module

import pytest

import secondbasis

MODULES = [
    import_module(f"secondbasis.{info.name}")
    for info in pkgutil.iter_modules(secondbasis.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_all_name_resolves(module):
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(module, name), f"{module.__name__}.{name}"


def test_every_package_reexport_is_in_its_module_all():
    for name, value in vars(secondbasis).items():
        if name.startswith("_") or inspect.ismodule(value):
            continue
        home = import_module(value.__module__)
        assert name in home.__all__, f"secondbasis.{name} from {home.__name__}"
