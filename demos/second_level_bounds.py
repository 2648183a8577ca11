"""Certified bounds for the second level under an exponential potential well.

With W(x) = 0.5 exp(-0.5 |x|) subtracted from the constant background, the
first level drops strictly below its autonomous value and the best two-bump
upper bound lands strictly below the compactness threshold. The demo prints
the whole chain of estimates and the resulting margins.
"""

from minimaxlab import (ProblemSpec, WSpec, build_grid, dual_norm_W, eval_W,
                        lambda2_bounds, lambda2_radial, lambda_sharp,
                        minimize_lambda1, profile_on_grid, shoot_excited,
                        shoot_ground)
from minimaxlab.domain import EVEN

spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=16.0, h=0.125,
                   W=WSpec(family="exponential", c=0.5, a=0.5))

ground = shoot_ground(spec.N, spec.p, spec.Vinf)
l1inf = ground.level
print(f"autonomous first level lambda1_inf = {l1inf:.6f}")

print("descending on the grid with the well switched on ...")
# the well is radial, so V, w_inf and the minimizer are even in every
# coordinate and live on the orthant x >= 0 of the grid
grid = build_grid(spec).fold((EVEN,) * spec.N)
W = eval_W(spec, grid)  # evaluated once, for V and for |W|_q
V = spec.Vinf - W  # for the descent and the paths
wnorm = dual_norm_W(W, spec.q, grid.weight, grid.parity)
winf = profile_on_grid(ground, grid)  # the descent seed and the translated bump
res = minimize_lambda1(V, spec.Vinf, spec.p, grid, seed=winf)
print(f"perturbed first level lambda1      = {res.level:.6f}  "
      f"(drop {l1inf - res.level:.4f})")

lam_sharp = lambda_sharp(res.level, l1inf, spec.p)
print(f"compactness threshold lambda_sharp = {lam_sharp:.6f}")

print("sweeping two-bump paths over translations ...")
lam2 = lambda2_bounds(V, spec.p, res.minimizer, res.level, winf, l1inf, wnorm)
for row in lam2.sweep:
    print(f"  y = {row['y']:5.1f}: path max = {row['path_max']:.6f}")
print(f"second level interval: [{lam2.lower:.6f}, {lam2.upper:.6f}]  "
      f"(witness y = {lam2.witness_y})")
print(f"threshold margin lambda_sharp - upper = {lam_sharp - lam2.upper:.6f}")

excited = shoot_excited(spec.N, spec.p, spec.Vinf, 1)
radial = lambda2_radial(excited, wnorm)
print(f"radial second level (1-node witness): inf = {radial.lam2r_inf:.6f}, "
      f"lower = {radial.lam2r_lower:.6f}")
if lam2.upper < radial.lam2r_lower:
    print("symmetry breaking certified: the second level sits strictly below "
          "the radial second level")
