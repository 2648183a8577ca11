"""Every name a demo imports from minimaxlab resolves; no demo is executed."""

import ast
import importlib
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "minimaxlab"]
    assert imports, f"{demo.name} imports nothing from minimaxlab"
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
