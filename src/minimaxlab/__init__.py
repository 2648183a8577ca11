"""Numerical laboratory for the constrained minimax eigenvalue levels of the
scalar field equation -Delta u + V(x) u = lambda |u|^(p-2) u on the unit
L^p sphere."""

__version__ = "0.1.0"

from .domain import (Grid, ProblemSpec, WSpec, build_grid, dual_norm_W,
                     eval_W)
from .field import GridFunction, lp_norm, lp_normalize, split_signs, translate
from .energy import deviation_bound, energy_J, euler_lagrange_residual, mass_I
from .groundstate import (DecayFit, RadialProfile, fit_decay,
                          minimize_lambda1, profile_on_grid, shoot_excited,
                          shoot_ground)
from .pathlab import (PathFamily, SampledPath, SphereMap, TranslationTable,
                      balanced_point, disjoint_support_max, overlap_integrals,
                      path_max_J, translated_bump_path)
from .minimax import (Lambda2Bounds, LevelsReport, lambda2_bounds,
                      lambda2_radial, lambda_sharp)
