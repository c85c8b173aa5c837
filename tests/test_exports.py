"""Every name a solvechart module exports through __all__ exists, and the
packages import each other one way, through public names only."""

from __future__ import annotations

import ast
import importlib
import pkgutil
from enum import Enum
from pathlib import Path

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


def test_each_name_is_exported_from_its_own_package_node_only():
    """A name that a solvechart module defines is in the __all__ of modules of that module's node only."""
    elsewhere = []
    for name in MODULES:
        module = importlib.import_module(name)
        node = name.removeprefix("solvechart.").split(".")[0]
        for export in getattr(module, "__all__", ()):
            home = getattr(getattr(module, export), "__module__", None) or ""
            if home.startswith("solvechart.") and home.split(".")[1] != node:
                elsewhere.append(f"{name}.{export}")
    assert elsewhere == []


def test_one_error_kind_enum():
    kinds = {
        value
        for name in MODULES
        for value in vars(importlib.import_module(name)).values()
        if isinstance(value, type) and issubclass(value, Enum) and value.__name__.endswith("ErrorKind")
    }
    assert [kind.__qualname__ for kind in kinds] == ["ErrorKind"]


# -- the package graph ---------------------------------------------------------

ROOT = Path(solvechart.__file__).parent
# Each subpackage is one node of the graph, and so is each top-level module.
NODES = {"agents", "align", "dsl", "engine", "evaluation", "solgen", "cli", "errors", "files", "values"}


def _module_names() -> dict[str, Path]:
    names = {}
    for path in sorted(ROOT.rglob("*.py")):
        parts = path.relative_to(ROOT).with_suffix("").parts
        names[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return names


def _imports(name: str, path: Path, modules: set[str]):
    """(module, imported name or None) for each solvechart import in one module, relative ones resolved;
    `name` is the module's dotted path below solvechart, "" for the package itself."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("solvechart."):
                    yield alias.name.removeprefix("solvechart."), None
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".") if package else []
                base = base[:len(base) - node.level + 1]
                target = ".".join(filter(None, [*base, node.module or ""]))
            elif (node.module or "").startswith("solvechart."):
                target = node.module.removeprefix("solvechart.")
            else:
                continue
            for alias in node.names:
                submodule = f"{target}.{alias.name}".lstrip(".")
                yield (submodule, None) if submodule in modules else (target, alias.name)


def package_graph_findings() -> list[str]:
    """Each import of a _-prefixed name across nodes, then each cycle among the nodes."""
    modules = _module_names()
    findings, edges = [], {node: set() for node in NODES}
    for name, path in modules.items():
        source = name.split(".")[0]
        for target, imported in _imports(name, path, set(modules)):
            node = target.split(".")[0]
            if source in NODES and node in NODES and node != source:
                edges[source].add(node)
                if imported is not None and imported.startswith("_"):
                    findings.append(f"{name} <- {target}.{imported}")
    reach = edges  # made transitive in place, by Warshall's algorithm
    for middle in NODES:
        for node in NODES:
            if middle in reach[node]:
                reach[node] |= reach[middle]
    cycles = {" <-> ".join(sorted({node} | {other for other in reach[node] if node in reach[other]}))
              for node in NODES if node in reach[node]}
    return findings + sorted(cycles)


def test_sources_parse_as_python_3_10():
    """The package supports Python 3.10, so no module may use newer grammar; stdlib APIs are not checked."""
    newer = []
    for path in sorted(ROOT.rglob("*.py")):
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            newer.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert newer == []


def test_graph_covers_every_module():
    nodes = {name.split(".")[0] for name in _module_names()} - {""}
    assert nodes == NODES


def test_packages_depend_one_way_through_public_names():
    assert package_graph_findings() == []
