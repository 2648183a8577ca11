"""Only the runner (`cli`) and `domain` turn a problem specification into grid
arrays; the numerical layers take V = Vinf - W and the fields directly."""

import importlib

import pytest

import minimaxlab.domain as domain


@pytest.mark.parametrize("module", ["field", "energy", "groundstate", "pathlab", "minimax"])
def test_numerical_layers_do_not_read_a_problem_spec(module):
    namespace = vars(importlib.import_module(f"minimaxlab.{module}"))
    for name in ("ProblemSpec", "potential_values"):
        bound = [key for key, value in namespace.items()
                 if key == name or value is getattr(domain, name)]
        assert not bound, f"minimaxlab.{module} binds {bound}"
