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


def test_the_raw_matching_enumerators_live_in_the_tests():
    # the library never walks the whole matching space; tests/oracles.py does
    moved = {"iter_matchings", "iter_primed_matchings", "enumerate_matchings", "_arc_sets"}
    for module in [secondbasis, *MODULES]:
        assert not moved & set(vars(module)), module.__name__


def test_the_deleted_test_only_helpers_stay_gone():
    # no library path called them; the tests use the int forms the library keeps
    deleted = {
        "f2_sum",
        "pair_evenset",
        "cyclic_interval",
        "embed_index",
        "embed_set",
        "split_parts",
        "pair_basis_coords",
        "pair_basis_set",
        "cover_interval",
        "CoverWitness",
        "lift_images",
    }
    for module in [secondbasis, *MODULES]:
        assert not deleted & set(vars(module)), module.__name__
    assert not hasattr(secondbasis.BasisMatrix, "from_columns")
