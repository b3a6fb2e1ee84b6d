"""The package re-exports: lazily resolved, but the same public surface.

``repro`` and its re-exporting sub-packages load each public name on first
access from one ``{name: defining module}`` table.  Every name must resolve
to the very object its defining module holds, be listed by ``dir()``, and the
documented ``from repro… import X`` spellings must keep working.
"""

from __future__ import annotations

import importlib

import pytest

LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.bench",
    "repro.campaigns",
    "repro.engine",
    "repro.experiments",
    "repro.search",
)


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_every_export_is_its_defining_modules_object(package_name):
    package = importlib.import_module(package_name)
    table = package._EXPORTS
    assert [name for name in package.__all__ if name != "__version__"] == list(table)
    listed = dir(package)
    for name, module_name in table.items():
        defining = importlib.import_module(module_name)
        assert getattr(package, name) is getattr(defining, name), name
        assert name in listed, name


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
def test_unknown_attribute_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


def test_star_import_binds_every_public_name():
    import repro

    namespace: dict[str, object] = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)
    assert namespace["simulate"] is importlib.import_module("repro.engine.simulator").simulate
    assert namespace["__version__"] == repro.__version__


def test_readme_import_lines():
    from repro import CampaignRunner, ResultStore, SearchObjective, StrategySearch
    from repro.campaigns import aggregate
    from repro.campaigns.query import aggregate as defined_aggregate
    from repro.engine import SimulationConfig, TraceLevel, run_trials, simulate

    assert aggregate is defined_aggregate
    assert simulate.__module__ == "repro.engine.simulator"
    assert run_trials.__module__ == "repro.engine.runner"
    for cls in (CampaignRunner, ResultStore, SearchObjective, StrategySearch,
                SimulationConfig, TraceLevel):
        assert isinstance(cls, type)
