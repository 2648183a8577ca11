"""Level estimators, bound assembly, and scenario verdicts.

Only bounds are ever reported for the second level: the lower bound comes
from the balanced-point mechanism and the deviation bound, the upper bound
from the best two-bump path over a translation sweep, whose path maxima come
in closed form from correlations (`pathlab.TranslatedBumps`). Exact minimax
values are never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .field import GridFunction
from .groundstate import DecayFit, RadialProfile
from .pathlab import THETA_SAMPLES, TranslatedBumps, disjoint_support_max, path_max_J

Y_SWEEP = (4.0, 6.0, 8.0, 10.0, 12.0)  # two-bump translations; also the config default


def lambda_sharp(l1: float, l1inf: float, p: float) -> float:
    """Compactness threshold: (l1^q + l1inf^q)^(1/q) when l1 > 0, else l1inf;
    the disjoint-support two-block maximum of the two levels."""
    if l1inf <= 0:
        raise ValueError("l1inf must be positive")
    return disjoint_support_max(l1, l1inf, p)


@dataclass
class Lambda2Bounds:
    lower: float
    upper: float
    witness_y: float
    small_well_condition: bool
    sweep: list[dict] = field(default_factory=list)
    crossing_flagged: bool = False


def lambda2_bounds(V: np.ndarray, p: float, w1: GridFunction, l1: float,
                   winf: GridFunction, l1inf: float, wnorm: float,
                   y_sweep=Y_SWEEP, samples: int = THETA_SAMPLES) -> Lambda2Bounds:
    """Assemble the certified interval for the second level; V = Vinf - W,
    the translated ground state `winf` and `wnorm` = |W|_q all live on the
    grid of w1, which may be folded (`domain.Grid`).

    Lower bound: balanced-point mechanism (2^sigma l1 when l1 > 0) and, when
    the dual-norm condition applies, 2^sigma l1inf - |W|_q. Upper bound: best
    two-bump path max over lattice translations of winf along the first axis,
    from one `TranslatedBumps` sweep, which builds no field per translation
    and runs on the half grid of w1's grid, FULL along the first axis.
    """
    sigma = (p - 2.0) / p
    cond = l1 > 0 and wnorm < (2.0 ** sigma - 1.0) * l1inf

    candidates = [l1]
    if l1 > 0:
        candidates.append(2.0 ** sigma * l1)
    if cond:
        candidates.append(2.0 ** sigma * l1inf - wnorm)
    lower = max(candidates)

    upper = math.inf
    witness = math.nan
    sweep = []
    bumps = TranslatedBumps(w1, winf, V, p)
    for y in y_sweep:
        mx, _ = path_max_J(bumps.path(y), bumps.V, samples)
        sweep.append({"y": float(y), "path_max": mx})
        if mx < upper:
            upper, witness = mx, float(y)

    return Lambda2Bounds(
        lower=lower, upper=upper, witness_y=witness, small_well_condition=cond,
        sweep=sweep, crossing_flagged=lower > upper + 1e-6,
    )


@dataclass
class RadialSecondLevel:
    lam2r_inf: float
    lam2r_lower: float
    lam2r_upper: float


def lambda2_radial(excited_profile: RadialProfile, wnorm: float) -> RadialSecondLevel:
    """Radial second-level bounds from a one-node shooting witness.

    The deviation bound wnorm = |W|_q transfers the autonomous witness level
    to the perturbed radial level from both sides.
    """
    if excited_profile.nodes != 1:
        raise ValueError(f"expected a 1-node profile, got {excited_profile.nodes} sign changes")
    lam2r_inf = excited_profile.level
    return RadialSecondLevel(lam2r_inf=lam2r_inf,
                             lam2r_lower=lam2r_inf - wnorm,
                             lam2r_upper=lam2r_inf + wnorm)


@dataclass
class Verdict:
    id: str
    status: str  # pass | fail | inapplicable
    margin: float
    detail: str = ""


def verdict(vid: str, applicable: bool, margin: float | None, detail: str = "") -> Verdict:
    """Pass on a positive margin; an inapplicable verdict records margin 0.0."""
    if not applicable:
        return Verdict(vid, "inapplicable", 0.0, detail)
    return Verdict(vid, "pass" if margin > 0.0 else "fail", margin, detail)


@dataclass
class LevelsReport:
    """All computed level estimates, bounds, margins, and verdicts."""

    sigma: float
    q: float
    w_dual_norm: float
    lam1_inf: float | None = None
    lam1: float | None = None
    lam_sharp: float | None = None
    lam2: Lambda2Bounds | None = None
    lam2_radial: RadialSecondLevel | None = None
    decay: DecayFit | None = None
    extras: dict = field(default_factory=dict)
    verdicts: list[Verdict] = field(default_factory=list)

    def all_pass(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)

    def discretization_allowance(self) -> float:
        """Slack for comparing the continuum lower bound against grid upper bounds.

        With W = 0 the grid first level sits below the shooting level by the
        discretization error, and the analytic lower bound 2^sigma l1inf
        overshoots its grid counterpart by exactly 2^sigma times that gap.
        """
        if (self.w_dual_norm == 0.0 and self.lam1 is not None
                and self.lam1_inf is not None):
            return 2.0 ** self.sigma * max(0.0, self.lam1_inf - self.lam1)
        return 0.0

    @property
    def lam2inf_target(self) -> float:
        """2^sigma lam1_inf, the autonomous second level."""
        return 2.0 ** self.sigma * self.lam1_inf

    def interval_margin(self) -> float:
        """Margin of lam2.lower <= lam2.upper within the discretization allowance."""
        return self.lam2.upper + self.discretization_allowance() - self.lam2.lower + 1e-6

    def chain_margin(self) -> float:
        """Margin of the threshold chain lam1_inf <= lam_sharp <= 2^sigma lam1_inf."""
        lo, hi = self.lam1_inf, self.lam2inf_target
        return min(self.lam_sharp - lo, hi - self.lam_sharp) + 1e-9

    def check_invariants(self) -> list[str]:
        """Report-level consistency: interval ordering and the threshold chain."""
        problems = []
        if self.lam2 is not None and self.interval_margin() < 0:
            problems.append("second-level lower bound exceeds upper bound")
        if (self.lam1_inf is not None and self.lam_sharp is not None
                and self.chain_margin() < 0):
            problems.append("threshold chain lam1_inf <= lam_sharp <= 2^sigma lam1_inf violated")
        return problems
