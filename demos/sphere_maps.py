"""Odd sphere maps into the constraint sphere and their sampled energy maxima.

The translation map sends a direction y to the normalized difference of two
ground-state copies shifted by +Ry and -Ry. As R grows the sampled maximum
of the autonomous energy approaches 2^((p-2)/p) times the first level, the
doubling value that controls the second level from above.
"""

from minimaxlab import ProblemSpec, build_grid, profile_on_grid, shoot_ground
from minimaxlab.pathlab import SphereMap, TranslationTable

spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=16.0, h=0.125)
grid = build_grid(spec)
ground = shoot_ground(spec.N, spec.p, spec.Vinf)
winf = profile_on_grid(ground, grid)
table = TranslationTable(winf, spec.p)  # serves the scans at every R
target = 2.0 ** spec.sigma * ground.level
print(f"doubling level 2^sigma lambda1_inf = {target:.6f}")

for R in (6.0, 9.0, 12.0):
    sm = SphereMap(table, R)
    mx = sm.scan(spec.Vinf).max()  # the autonomous energy J^inf
    n = 2 * len(sm.points)  # J(-u) = J(u): each point stands for its antipodal pair
    print(f"  R = {R:5.1f}: max J over {n} directions = {mx:.6f}  "
          f"(gap {mx - target:+.2e})")
