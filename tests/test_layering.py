"""Only the runner (`cli`) and `domain` turn a problem specification into grid
arrays; the numerical layers take V = Vinf - W and the fields directly. Only
`energy` writes the stencil of H = -Delta_h + V, and it also holds the stencil's
exact inverse, importing no layer above it. The package imports no scipy at run
time."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys

import pytest

import minimaxlab
import minimaxlab.domain as domain
import minimaxlab.energy as energy
import minimaxlab.groundstate as groundstate


@pytest.mark.parametrize("module", ["field", "energy", "groundstate", "pathlab", "minimax"])
def test_numerical_layers_do_not_read_a_problem_spec(module):
    namespace = vars(importlib.import_module(f"minimaxlab.{module}"))
    for name in ("ProblemSpec", "potential_values"):
        bound = [key for key, value in namespace.items()
                 if key == name or value is getattr(domain, name)]
        assert not bound, f"minimaxlab.{module} binds {bound}"


# names of stencil helpers: a Laplacian, a kinetic or a stencil kernel
STENCIL_HELPER = re.compile(r"(^|_)(lap|laplacian|kinetic|stencil)(_|$)", re.IGNORECASE)


@pytest.mark.parametrize("module", ["minimaxlab", "minimaxlab.domain", "minimaxlab.field",
                                    "minimaxlab.groundstate", "minimaxlab.pathlab",
                                    "minimaxlab.minimax", "minimaxlab.cli"])
def test_only_energy_binds_a_stencil_helper(module):
    # every other layer reaches H through energy._apply_H
    namespace = vars(importlib.import_module(module))
    bound = [key for key in namespace if STENCIL_HELPER.search(key)]
    assert not bound, f"{module} binds {bound}"


def test_energy_holds_the_exact_inverse_of_its_stencil():
    # the solver's eigenvalues are the stencil's spectrum, so both live in
    # energy, and the descent's preconditioner is that solver
    assert groundstate._ShiftedPoissonSolver.__module__ == "minimaxlab.energy"
    # so do their folded forms: the per-axis parity of the stencil and the
    # folded transform of the solver, which groundstate only switches on
    assert "parity" in inspect.signature(energy._apply_H).parameters
    assert "mirror" in inspect.signature(energy._ShiftedPoissonSolver).parameters
    assert groundstate._apply_H is energy._apply_H
    # groundstate holds no transform or stencil code of its own
    tree = ast.parse(open(groundstate.__file__, encoding="utf-8").read())
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for node in ast.walk(tree) if isinstance(node, (ast.Attribute, ast.Name))}
    assert not names & {"sin", "cos", "matmul", "shift_slices", "moveaxis", "zero_boundary"}
    assert not any(isinstance(node, ast.MatMult) for node in ast.walk(tree))


def test_energy_imports_no_layer_above_it():
    # the layers above import energy; an import back would be a cycle
    tree = ast.parse(open(energy.__file__, encoding="utf-8").read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[-1] for alias in node.names)
    above = {"groundstate", "pathlab", "minimax", "cli"}
    assert not imported & above, sorted(imported & above)


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency: the runtime path must not import it
    code = ("import sys, minimaxlab, minimaxlab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(minimaxlab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src_dir, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
