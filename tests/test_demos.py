"""Every name a demo imports from minimaxlab resolves, and every call a demo
makes to such a name binds to its signature (positional count and keyword
names); no demo is executed."""

import ast
import importlib
import inspect
import pathlib

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_resolve(demo):
    tree = ast.parse(demo.read_text(), filename=str(demo))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               and (node.module or "").split(".")[0] == "minimaxlab"]
    assert imports, f"{demo.name} imports nothing from minimaxlab"
    imported = {}
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo.name}: {node.module}.{alias.name}"
            imported[alias.asname or alias.name] = getattr(module, alias.name)
    for call in ast.walk(tree):
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) \
                and call.func.id in imported:
            try:
                inspect.signature(imported[call.func.id]).bind(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords})
            except TypeError as exc:
                pytest.fail(f"{demo.name}:{call.lineno}: {call.func.id}(): {exc}")
