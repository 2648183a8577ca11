"""Every name a demo imports from minimaxlab resolves, every call a demo makes
to such a name binds to its signature (positional count and keyword names),
and every demo runs to exit status 0."""

import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
DEMO_TIMEOUT_S = 60  # each demo takes well under a second


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


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True,
                         text=True, timeout=DEMO_TIMEOUT_S)
    assert run.returncode == 0, f"{demo.name} exited {run.returncode}:\n{run.stderr}"
