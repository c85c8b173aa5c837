"""Every name a solvechart module exports through __all__ exists."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import solvechart

MODULES = sorted(
    ["solvechart"] + [info.name for info in pkgutil.walk_packages(solvechart.__path__, "solvechart.")]
)


def test_walk_finds_every_subpackage():
    assert {"solvechart.agents", "solvechart.align", "solvechart.dsl", "solvechart.engine",
            "solvechart.evaluation", "solvechart.solgen"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name: str):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert missing == []
