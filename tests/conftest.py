"""Shared fixtures: the reference desk configuration and its expensive
artifacts (shooting profiles, grid minimizers, sweep bounds), computed once
per session."""

import numpy as np
import pytest

from minimaxlab import (ProblemSpec, WSpec, build_grid, dual_norm_W, eval_W, fit_decay,
                        lambda2_bounds, lambda_sharp, minimize_lambda1,
                        profile_on_grid, shoot_excited, shoot_ground)
from minimaxlab.domain import potential_values

DESK = dict(N=2, p=4.0, Vinf=1.0, L=16.0, h=0.125)


@pytest.fixture(scope="session")
def spec0():
    """Autonomous desk problem (W = 0)."""
    return ProblemSpec(**DESK)


@pytest.fixture(scope="session")
def spec_exp():
    """Desk problem with the exponential penalty W = 0.5 exp(-0.5 |x|)."""
    return ProblemSpec(W=WSpec(family="exponential", c=0.5, a=0.5), **DESK)


@pytest.fixture(scope="session")
def grid0(spec0):
    return build_grid(spec0)


@pytest.fixture(scope="session")
def ground_profile():
    return shoot_ground(2, 4.0, 1.0)


@pytest.fixture(scope="session")
def decay_fit0(ground_profile):
    return fit_decay(ground_profile)


@pytest.fixture(scope="session")
def excited_profile():
    return shoot_excited(2, 4.0, 1.0, 1)


@pytest.fixture(scope="session")
def winf0(ground_profile, grid0):
    """Autonomous ground state interpolated onto the desk grid."""
    return profile_on_grid(ground_profile, grid0)


@pytest.fixture(scope="session")
def descent0(spec0, grid0):
    return minimize_lambda1(potential_values(spec0, grid0), spec0.Vinf, spec0.p, grid0)


@pytest.fixture(scope="session")
def descent_exp(spec_exp, grid0, winf0):
    return minimize_lambda1(potential_values(spec_exp, grid0), spec_exp.Vinf, spec_exp.p,
                            grid0, seed=winf0)


@pytest.fixture(scope="session")
def lam_sharp_exp(descent_exp, ground_profile):
    """Compactness threshold of the penalized desk problem."""
    return lambda_sharp(descent_exp.level, ground_profile.level, 4.0)


@pytest.fixture(scope="session")
def lam2_0(spec0, grid0, descent0, winf0, ground_profile):
    W = eval_W(spec0, grid0)
    return lambda2_bounds(spec0.Vinf - W, spec0.p, descent0.minimizer, descent0.level,
                          winf0, ground_profile.level, dual_norm_W(W, spec0.q, grid0.weight))


@pytest.fixture(scope="session")
def lam2_exp(spec_exp, grid0, descent_exp, winf0, ground_profile):
    W = eval_W(spec_exp, grid0)
    return lambda2_bounds(spec_exp.Vinf - W, spec_exp.p, descent_exp.minimizer,
                          descent_exp.level, winf0, ground_profile.level,
                          dual_norm_W(W, spec_exp.q, grid0.weight))


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)
