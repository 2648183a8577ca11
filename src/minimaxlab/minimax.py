"""Level estimators, bound assembly, scenario verdicts, and
bump-escape diagnostics.

Only bounds are ever reported for the second level: the lower bound comes
from the balanced-point mechanism and the deviation bound, the upper bound
from the best two-bump path over a translation sweep. Exact minimax values
are never claimed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .domain import ProblemSpec, lp_mass, potential_values
from .energy import _energy, _sphere_gradient, euler_lagrange_residual, mass_I
from .field import GridFunction, lp_norm, lp_normalize, split_signs
from .groundstate import DecayFit, RadialProfile, profile_on_grid
from .pathlab import (THETA_SAMPLES, PathError, SampledPath, path_max_J,
                      translated_bump_path)

Y_SWEEP = (4.0, 6.0, 8.0, 10.0, 12.0)  # two-bump translations; also the config default


def lambda_sharp(l1: float, l1inf: float, p: float) -> float:
    """Compactness threshold: (l1^q + l1inf^q)^(1/q) when l1 > 0, else l1inf."""
    if l1inf <= 0:
        raise ValueError("l1inf must be positive")
    if l1 <= 0:
        return l1inf
    q = p / (p - 2.0)
    return (l1 ** q + l1inf ** q) ** (1.0 / q)


def multiplicity_floor(c: float, l1: float, l1inf: float, p: float, t1_zero: bool) -> int:
    """Largest bump count m <= 64 consistent with a critical sequence at level c.

    Escape to m >= 2 bumps requires c strictly above the m-bump floor; m = 1
    is always allowed.
    """
    if l1inf <= 0:
        raise ValueError("l1inf must be positive")
    q = p / (p - 2.0)
    sigma = 1.0 / q

    def floor_level(m: int) -> float:
        if t1_zero or l1 <= 0:
            return (m - 1) ** sigma * l1inf
        return (l1 ** q + (m - 1) * l1inf ** q) ** sigma

    m = 1
    while m < 64 and c > floor_level(m + 1):
        m += 1
    return m


@dataclass
class Lambda2Bounds:
    lower: float
    upper: float
    witness_y: float
    lam_sharp: float
    lam2inf_target: float
    w_dual_norm: float
    small_well_condition: bool
    sweep: list[dict] = field(default_factory=list)
    crossing_flagged: bool = False


def lambda2_bounds(spec: ProblemSpec, w1: GridFunction, l1: float,
                   winf_profile: RadialProfile, l1inf: float, wnorm: float,
                   y_sweep=Y_SWEEP, samples: int = THETA_SAMPLES) -> Lambda2Bounds:
    """Assemble the certified interval for the second level; `wnorm` is |W|_q
    on the grid of w1.

    Lower bound: balanced-point mechanism (2^sigma l1 when l1 > 0) and, when
    the dual-norm condition applies, 2^sigma l1inf - |W|_q. Upper bound: best
    two-bump path max over lattice translations of the autonomous ground
    state along the first axis.
    """
    grid = w1.grid
    sigma = spec.sigma
    cond = l1 > 0 and wnorm < (2.0 ** sigma - 1.0) * l1inf

    candidates = [l1]
    if l1 > 0:
        candidates.append(2.0 ** sigma * l1)
    if cond:
        candidates.append(2.0 ** sigma * l1inf - wnorm)
    lower = max(candidates)

    winf = profile_on_grid(winf_profile, grid)
    upper = math.inf
    witness = math.nan
    sweep = []
    for y in y_sweep:
        vec = np.zeros(grid.N)
        vec[0] = y
        path = translated_bump_path(w1, winf, vec, spec.p)
        mx, th = path_max_J(path, spec, samples)
        sweep.append({"y": float(y), "path_max": mx, "theta_max": th})
        if mx < upper:
            upper, witness = mx, float(y)

    lam_sharp = lambda_sharp(l1, l1inf, spec.p)
    return Lambda2Bounds(
        lower=lower, upper=upper, witness_y=witness, lam_sharp=lam_sharp,
        lam2inf_target=2.0 ** sigma * l1inf, w_dual_norm=wnorm,
        small_well_condition=cond, sweep=sweep,
        crossing_flagged=lower > upper + 1e-6,
    )


@dataclass
class RadialSecondLevel:
    lam2r_inf: float
    lam2r_lower: float
    lam2r_upper: float
    w_dual_norm: float

    def __iter__(self):
        return iter((self.lam2r_inf, self.lam2r_lower))


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
                             lam2r_upper=lam2r_inf + wnorm,
                             w_dual_norm=wnorm)


def refine_path(path, spec: ProblemSpec) -> SampledPath:
    """String-style local improvement of a path: per-sample descent steps,
    retraction to the sphere, and equal-chord reparameterization.

    Only [0, pi) is stored (33 samples of a path that is not sampled yet);
    oddness is exact by reflection. The sampled maximum must not increase
    by more than 1e-6 per round.
    """
    iters, step, max_increase = 10, 1e-3, 1e-6
    sp = path if isinstance(path, SampledPath) else SampledPath.from_path(path, 33, spec.p)
    grid = sp.grid
    V = potential_values(spec, grid)

    def sampled_max():
        return max(_energy(u.values, V, grid.h) for u in sp.fields)

    current_max = sampled_max()
    for _ in range(iters):
        # descent step on each sample with per-sample backtracking
        new_fields = []
        for u in sp.fields:
            J0 = _energy(u.values, V, grid.h)
            g = _sphere_gradient(u.values, V, J0, spec.p, grid.h)
            s = step
            cand = u
            for _ in range(20):
                trial = lp_normalize(GridFunction(grid, u.values - s * g), spec.p)
                if _energy(trial.values, V, grid.h) <= J0 + 1e-12:
                    cand = trial
                    break
                s *= 0.5
            new_fields.append(cand)
        # equal-chord reparameterization over the closed half-loop
        # (last sample connects to the reflection of the first)
        n = len(new_fields)
        chords = [lp_norm(GridFunction(grid, b.values - a.values), 2.0)
                  for a, b in zip(new_fields, new_fields[1:] + [-new_fields[0]])]
        cum = np.concatenate([[0.0], np.cumsum(chords)])
        # (sample, fraction) of each equal-chord target, as a loop angle
        targets = np.linspace(0.0, cum[-1], n, endpoint=False)
        positions = np.interp(targets, cum, np.arange(n + 1))
        loop = SampledPath(new_fields, spec.p)
        sp = SampledPath([loop.at(x * math.pi / n) for x in positions], spec.p)
        new_max = sampled_max()
        if new_max > current_max + max_increase:
            raise PathError(f"path refinement increased the maximum: "
                            f"{current_max} -> {new_max}")
        current_max = new_max
    return sp


@dataclass
class ProfileDiagnostic:
    """Heuristic bump decomposition of a field on the constraint sphere."""

    count: int
    centers: list[tuple[float, ...]]
    masses: list[float]
    residual: float


def bump_diagnostic(u: GridFunction, spec: ProblemSpec) -> ProfileDiagnostic:
    """Locate mass bumps of |u|: watershed by descending amplitude from local
    maxima, merging peaks closer than four decay lengths of the limit problem
    and keeping bumps that carry at least 5% of the mass."""
    min_separation = 4.0 / math.sqrt(spec.Vinf)
    grid = u.grid
    amp = np.abs(u.values)
    total_mass = mass_I(u, spec.p)
    if total_mass == 0.0:
        return ProfileDiagnostic(0, [], [], 0.0)

    floor = 1e-8 * float(amp.max())
    # watershed by flooding: in descending amplitude, each node joins the basin
    # of its highest face neighbor visited before it (first such neighbor on
    # ties, axis 0 -/+ then axis 1 -/+, ...) or opens a basin at a local maximum
    flat = amp.ravel()
    active = np.flatnonzero(flat > floor)
    order = active[np.argsort(flat[active])[::-1]]
    n = len(order)
    own = np.arange(n)
    rank = np.full(grid.shape, n)  # visiting rank; n marks nodes below the floor
    rank.flat[order] = own
    padded = np.pad(rank, 1, constant_values=n)
    amp_by_rank = np.append(flat[order], -1.0)
    link = own.copy()  # rank of the node each node joins; a peak keeps its own
    best = np.full(n, -1.0)
    for ax in range(grid.N):
        for sgn in (-1, 1):
            view = [slice(1, -1)] * grid.N
            view[ax] = slice(1 + sgn, 1 + sgn + grid.shape[ax])
            nb = padded[tuple(view)].ravel()[order]
            nb[nb > own] = n  # not visited yet
            a = amp_by_rank[nb]
            higher = a > best
            link[higher] = nb[higher]
            best[higher] = a[higher]
    is_peak = link == own
    while not np.array_equal(link[link], link):  # pointer jumping to the peaks
        link = link[link]
    peaks = order[is_peak]

    # merge peaks closer than the separation scale into the stronger basin
    peak_pos = [tuple(float(c.flat[i]) for c in grid.coords()) for i in peaks]
    merged = list(range(len(peaks)))  # basin -> surviving basin
    for i in range(len(peaks)):
        for j in range(i):
            if merged[j] != j:
                continue
            if math.dist(peak_pos[i], peak_pos[j]) < min_separation:
                merged[i] = merged[j]
                break
    labels = np.zeros(flat.shape, dtype=np.int64)
    labels[order] = np.array(merged)[np.cumsum(is_peak)[link] - 1] + 1
    masses = [lp_mass(flat[labels == b], spec.p, grid.weight) for b in range(1, len(peaks) + 1)]
    kept = [(m / total_mass, peak_pos[b]) for b, m in enumerate(masses)
            if m >= 0.05 * total_mass]
    kept.sort(reverse=True)
    fractions = [m for m, _ in kept]
    centers = [c for _, c in kept]
    return ProfileDiagnostic(count=len(kept), centers=centers, masses=fractions,
                             residual=1.0 - sum(fractions))


@dataclass
class NodalityVerdict:
    hypotheses_hold: bool
    nodal: bool
    consistent: bool
    residual: float


def nodality_check(u: GridFunction, lam: float, l1: float, spec: ProblemSpec) -> NodalityVerdict:
    """Sign check: when the first level is nonpositive and the given level
    positive (or strictly so in either slot), an approximate solution (residual
    at most 1e-2) must change sign."""
    res = euler_lagrange_residual(u, lam, spec)
    if res > 1e-2:
        raise ValueError(f"residual {res} exceeds threshold 1e-2; "
                         "not close enough to a solution")
    plus, minus = split_signs(u)
    nodal = mass_I(plus, spec.p) > 1e-10 and mass_I(minus, spec.p) > 1e-10
    hyp = (l1 <= 0 < lam) or (l1 < 0 <= lam)
    return NodalityVerdict(hypotheses_hold=hyp, nodal=nodal,
                           consistent=(not hyp) or nodal, residual=res)


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

    def interval_margin(self) -> float:
        """Margin of lam2.lower <= lam2.upper within the discretization allowance."""
        return self.lam2.upper + self.discretization_allowance() - self.lam2.lower + 1e-6

    def chain_margin(self) -> float:
        """Margin of the threshold chain lam1_inf <= lam_sharp <= 2^sigma lam1_inf."""
        lo, hi = self.lam1_inf, 2.0 ** self.sigma * self.lam1_inf
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
