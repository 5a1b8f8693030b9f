"""The public surface: every exported name resolves, and the command line
reaches the deciders and builders only through their public entry points."""

import ast
from pathlib import Path

import doubletrace
from doubletrace import cli, construction


def test_every_export_resolves():
    missing = [name for name in doubletrace.__all__ if not hasattr(doubletrace, name)]
    assert missing == []
    assert len(set(doubletrace.__all__)) == len(doubletrace.__all__)


def test_cli_imports_no_private_decider_or_builder():
    imports = [
        (node.module.rsplit(".", 1)[-1], alias.name)
        for node in ast.walk(ast.parse(Path(cli.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
        for alias in node.names
    ]
    checked = [(module, name) for module, name in imports if module in ("feasibility", "construction")]
    # the scan sees the imports it checks: decide and construct
    assert ("feasibility", "decide") in checked
    assert ("construction", "construct") in checked
    assert [f"{module}.{name}" for module, name in checked if name.startswith("_")] == []


def test_construction_imports_no_oracle():
    # no route of construct searches, so the builders never reach the kernel
    modules = [
        node.module
        for node in ast.walk(ast.parse(Path(construction.__file__).read_text()))
        if isinstance(node, ast.ImportFrom) and node.module
    ]
    assert "feasibility" in modules
    assert not {"enumeration", "search_backend"} & set(modules)
