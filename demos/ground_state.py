"""Ground state two ways: radial shooting and full-grid constrained descent.

The shooting route solves the scaled radial ODE and recovers the first level
from the L^p norm of the solution; the grid route minimizes J directly on the
constraint sphere. Their agreement is the basic cross-oracle check of the
laboratory.
"""

import math

from minimaxlab import (ProblemSpec, build_grid, fit_decay, minimize_lambda1,
                        shoot_ground)
from minimaxlab.domain import potential_values

spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=16.0, h=0.125)

print("shooting for the radial ground state ...")
prof = shoot_ground(spec.N, spec.p, spec.Vinf)
print(f"  central value w(0)      = {prof.w0:.8f}")
print(f"  first level lambda1_inf = {prof.level:.8f}")

fit = fit_decay(prof)
print(f"  fitted decay rate       = {fit.rate:.5f}  (expected sqrt(Vinf) = "
      f"{math.sqrt(spec.Vinf):.5f})")
print(f"  certified envelope a0   = {fit.a0:.5f}")

print("constrained descent on the 257 x 257 grid ...")
grid = build_grid(spec)
res = minimize_lambda1(potential_values(spec, grid), spec.Vinf, spec.p, grid)
print(f"  grid level lambda1      = {res.level:.8f}  "
      f"({res.iterations} iterations, gradient norm {res.gradient_norm:.2e})")

rel = abs(res.level - prof.level) / prof.level
print(f"  relative gap            = {rel:.2e}  (discretization error at h = {spec.h})")
