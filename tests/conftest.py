"""Shared fixtures: the reference desk configuration and its expensive
artifacts (shooting profiles, grid minimizers, sweep bounds), computed once
per session."""

import numpy as np
import pytest

from minimaxlab import (ProblemSpec, WSpec, build_grid, dual_norm_W, fit_decay,
                        lambda2_bounds, minimize_lambda1, profile_on_grid,
                        shoot_excited, shoot_ground)

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
    return fit_decay(ground_profile, 1.0)


@pytest.fixture(scope="session")
def excited_profile():
    return shoot_excited(2, 4.0, 1.0, 1)


@pytest.fixture(scope="session")
def winf0(ground_profile, grid0):
    """Autonomous ground state interpolated onto the desk grid."""
    return profile_on_grid(ground_profile, grid0)


@pytest.fixture(scope="session")
def descent0(spec0):
    return minimize_lambda1(spec0, build_grid(spec0))


@pytest.fixture(scope="session")
def descent_exp(spec_exp, ground_profile):
    return minimize_lambda1(spec_exp, build_grid(spec_exp), seed_profile=ground_profile)


@pytest.fixture(scope="session")
def lam2_0(spec0, descent0, ground_profile):
    return lambda2_bounds(spec0, descent0.minimizer, descent0.level,
                          ground_profile, ground_profile.level,
                          dual_norm_W(spec0, descent0.minimizer.grid))


@pytest.fixture(scope="session")
def lam2_exp(spec_exp, descent_exp, ground_profile):
    return lambda2_bounds(spec_exp, descent_exp.minimizer, descent_exp.level,
                          ground_profile, ground_profile.level,
                          dual_norm_W(spec_exp, descent_exp.minimizer.grid))


@pytest.fixture
def rng():
    return np.random.default_rng(20230815)
