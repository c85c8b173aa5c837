"""Every name a solvechart module exports through __all__ exists."""

from __future__ import annotations

import importlib
import pkgutil
from enum import Enum

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


def test_one_error_kind_enum():
    kinds = {
        value
        for name in MODULES
        for value in vars(importlib.import_module(name)).values()
        if isinstance(value, type) and issubclass(value, Enum) and value.__name__.endswith("ErrorKind")
    }
    assert [kind.__qualname__ for kind in kinds] == ["ErrorKind"]
