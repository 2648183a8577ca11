"""Radial shooting for the autonomous problem, preconditioned constrained grid
descent for the first level (on the grid's orthant when its data are even),
and exponential decay fitting.

The radial solve shoots only the Vinf = 1 equation -w'' - (N-1)/r w' + w =
|w|^(p-2) w and rescales exactly: w_Vinf(r) = Vinf^(1/(p-2)) w_1(sqrt(Vinf) r).
The level of the normalized state is recovered from homogeneity as |w|_p^(p-2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .domain import EVEN, FULL, Grid, lp_mass, node_sum
from .energy import _apply_H, _energy, _pair, _ShiftedPoissonSolver, _sphere_gradient
from .field import GridFunction, lp_normalize

DESCENT_TOL, DESCENT_MAX_ITER = 1e-8, 1_000  # descent gradient-norm tolerance and iteration cap
SHOOT_DR, SHOOT_RMAX = 2e-3, 25.0  # RK4 step and range of the unit shooting
FIT_WINDOW = (6.0, 12.0)  # decay fit window in sqrt(Vinf) r
SECANT_THETA = 0.02  # widest shooting probe pair: this fraction of (hi - est) either side of est
THETA_MIN = 1e-4  # narrowest probe pair, five times the secant root's error near b*
TAIL_START = 5.5  # probes keep the step dr this far past their k-th sign change
TAIL_DOUBLING = math.log(16.0) / 2.0  # then double it over every such stretch


class ShootingError(RuntimeError):
    pass


class DescentError(RuntimeError):
    pass


@dataclass
class RadialProfile:
    """Radial solution samples from shooting, on a uniform r grid: `w` solves
    -w'' - (N-1)/r w' + Vinf w = |w|^(p-2) w with w(0) = `w0`, and `level`,
    the eigenvalue of the L^p-normalized state, is |w|_p^(p-2).
    """

    r: np.ndarray
    w: np.ndarray
    N: int
    nodes: int
    w0: float
    Vinf: float
    p: float
    level: float = field(init=False)

    def __post_init__(self):
        self.level = self.lp_norm() ** (self.p - 2)

    def sphere_area(self) -> float:
        return 2.0 * math.pi if self.N == 2 else 4.0 * math.pi

    def radial_integral(self, f: np.ndarray) -> float:
        """Integral of f over R^N assuming radial symmetry (trapezoid in r)."""
        return float(np.trapezoid(f * self.r ** (self.N - 1), self.r) * self.sphere_area())

    def lp_norm(self) -> float:
        return self.radial_integral(np.abs(self.w) ** self.p) ** (1.0 / self.p)

    def energy_autonomous(self) -> float:
        """Jinf of the raw profile (gradient via centered differences in r)."""
        dw = np.gradient(self.w, self.r)
        return self.radial_integral(dw ** 2 + self.Vinf * self.w ** 2)

    def normalized(self) -> np.ndarray:
        return self.w / self.lp_norm()

    def value_at(self, r) -> np.ndarray:
        """Normalized profile value at arbitrary radii (linear interpolation)."""
        wn = self.normalized()
        return np.interp(r, self.r, wn, left=wn[0], right=0.0)


@dataclass
class DecayFit:
    """Exponential envelope of a decaying radial profile.

    `rate` estimates sqrt(Vinf); `a0` = 0.95 rate is the envelope rate used
    wherever a certified sub-exponential bound is needed.
    """

    rate: float
    C0: float
    a0: float
    residual: float


def _integrate(b: float, N: int, p: float, k: int | None = None):
    """RK4 for -w'' - (N-1)/r w' + w = |w|^(p-2) w at the step dr = SHOOT_DR
    out to SHOOT_RMAX, from r = dr/10 with the even-symmetry series start.

    Returns (w samples on r = dr/10 + i dr, sign changes, end). The pass
    stops at the first local minimum of |w| that is not a sign change, and
    `end` is its index (the last sample's if the pass reaches rmax); the
    samples past it are not part of the solution. There v = 0 and w'' has the sign of w,
    so |w| < 1 and E = v^2/2 - w^2/2 + |w|^p/p < 0. Along a solution
    dE/dr = -(N-1)/r v^2 <= 0, and a sign change needs E = v^2/2 >= 0 at
    w = 0, so once E < 0 no further sign change can happen.

    With `k` given, only the bit `sign changes > k` is wanted: no samples are
    stored, and the integration returns (r, sign changes) as soon as the bit
    is decided. At the (k+1)-th sign change r is the crossing radius,
    interpolated linearly between its two steps; otherwise it is the radius
    where E turned negative or |w| turned upward (or where the integration
    ended). Such a probe keeps the step dr until TAIL_START past its k-th
    sign change (past r = 0 for k = 0), then doubles it every TAIL_DOUBLING
    up to 32 dr: an error made at radius r moves the decided separatrix by
    about h^4 exp(-2r), so doubling h each time that factor falls 16-fold
    keeps the error per unit radius.
    """
    early = k is not None
    dr, rmax = SHOOT_DR, SHOOT_RMAX
    cube = p == 4.0  # w * w * w is the p = 4 force, and about a quarter cheaper
    copysign = math.copysign
    r = dr / 10.0
    curv = b - abs(b) ** (p - 1)  # w''(0) * N from the series expansion
    w = b + curv * r * r / (2.0 * N)
    v = curv * r / N
    nsteps = int(round(rmax / dr))
    ws = None if early else np.full(nsteps + 1, w)
    zeros, end = 0, nsteps
    q, c = p - 1, N - 1  # w'' = w - |w|^q sign(w) - c/r w'
    h, hmax = dr, 32.0 * dr
    half, sixth = h / 2.0, h / 6.0
    grow = TAIL_START if k == 0 else math.inf  # radius of the next step doubling
    falling = False  # |w| fell over the last step
    cr = c / r  # c/r at the start of each step: a4's c/(r + h) of the step before
    for i in range(nsteps):
        g = w * w * w if cube else copysign(abs(w) ** q, w)
        if early and 0.5 * (v * v - w * w) + g * w / p < 0.0:
            return r, zeros
        a1 = (w - g) - cr * v
        crh = c / (r + half)
        w2, v2 = w + half * v, v + half * a1
        a2 = (w2 - (w2 * w2 * w2 if cube else copysign(abs(w2) ** q, w2))) - crh * v2
        w3, v3 = w + half * v2, v + half * a2
        a3 = (w3 - (w3 * w3 * w3 if cube else copysign(abs(w3) ** q, w3))) - crh * v3
        w4, v4 = w + h * v3, v + h * a3
        cr = c / (r + h)
        a4 = (w4 - (w4 * w4 * w4 if cube else copysign(abs(w4) ** q, w4))) - cr * v4
        wn = w + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        vn = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        r += h
        if not early:
            ws[i + 1] = wn
        if wn * w < 0.0:
            zeros += 1
            falling = False
            if early:
                if zeros > k:
                    return r + h * wn / (w - wn), zeros
                if zeros == k:
                    grow = r + TAIL_START
        elif abs(wn) < abs(w):
            falling = True
        elif falling:
            end = i  # the tail minimum of |w|
            break
        w, v = wn, vn
        if r >= grow:  # grow stays infinite in the sampled pass
            if r >= rmax:
                break
            grow += TAIL_DOUBLING
            if h < hmax:
                h *= 2.0
                half, sixth = h / 2.0, h / 6.0
    if early:
        return r, zeros
    return ws, zeros, end


def _secant_probes(lo: float, hi: float, over: list, theta: float) -> list[float]:
    """Next central values to try inside the bracket (lo, hi).

    Near the separatrix value b*, an overshoot's surrogate f is close to
    C (b - b*) with C nearly constant, so the secant root `est` through the
    last two overshoots lands close to b*; the probes sit theta of
    (hi - est), but at least 16 ulps, above and below it. The midpoint is
    the fallback whenever `est` is unusable.
    """
    if len(over) >= 2:
        (b1, f1), (b2, f2) = over[-2:]
        if f2 < f1:
            est = b2 - f2 * (b1 - b2) / (f1 - f2)
            if lo < est < hi:
                step = max(theta * (hi - est), 16.0 * math.ulp(est))
                return [est - step, est + step]  # popped from the end: above first
    return [0.5 * (lo + hi)]


@lru_cache(maxsize=16)
def _search(N: int, p: float, k: int) -> tuple[float, float]:
    """Bracketed secant search on the central value for a decaying solution
    of the Vinf = 1 equation with k sign changes: returns the bracket's lower
    end lo and its width hi - lo.

    Every probe keeps the bracket: lo undershoots (at most k sign changes),
    hi overshoots. An overshoot crosses zero for the (k+1)-th time at r_c,
    interpolated between two RK4 steps, and the farther it gets the
    closer b is to the separatrix: the ratio
    K_nu(r_c) / I_nu(r_c) ~ exp(-2 r_c) (1 + (4 nu^2 - 1) / (4 r_c)) of the
    decaying and growing linearized tails, nu = (N - 2) / 2 (DLMF 10.40), is
    nearly proportional to b - b*, which `_secant_probes` uses. A pair of
    probes that brackets b* narrows the next pair tenfold, down to
    THETA_MIN; one that does not widens it tenfold, up to SECANT_THETA.

    Memoized on (N, p, k), which every Vinf shares; only the two floats are held.
    """
    tol, max_iter = 1e-14, 200
    bessel = ((N - 2) ** 2 - 1) / 4.0
    over = []  # (b, f) of every overshoot, in probe order

    def overshoots(b):
        rc, zeros = _integrate(b, N, p, k)
        if zeros <= k:
            return False
        over.append((b, math.exp(-2.0 * rc) * (1.0 + bessel / rc)))
        return True

    # Bracket: small central values never reach k+1 crossings, large ones do.
    lo, hi = 1.05, 2.1  # below 1, w'' >= 0 at the center
    tries = 0
    while not overshoots(hi):
        hi *= 2.0
        tries += 1
        if tries > 60:
            raise ShootingError(f"no bracket: {k + 1} sign changes never reached")
    while overshoots(lo):
        lo = 0.5 * (lo + 1.0)
        tries += 1
        if tries > 120:
            zeros = _integrate(lo, N, p)[1]
            raise ShootingError(f"no bracket below: reached {zeros} sign changes at w(0)={lo}")

    probes = []  # central values still to try, the last one first
    theta = SECANT_THETA
    for _ in range(max_iter):
        if not probes:
            probes = _secant_probes(lo, hi, over, theta)
            pair = len(probes) == 2
            lo0, hi0 = lo, hi
        b = probes.pop()
        if lo < b < hi:
            if overshoots(b):
                hi = b
            else:
                lo = b
            if hi - lo <= tol * hi:
                break
        if pair and not probes:
            bracketed = lo != lo0 and hi != hi0
            theta = max(theta / 10.0, THETA_MIN) if bracketed else min(theta * 10.0, SECANT_THETA)
    else:
        raise ShootingError("shooting search did not converge within the probe cap")
    return lo, hi - lo


def _shoot(N: int, p: float, k: int) -> RadialProfile:
    """The Vinf = 1 solution sampled at the central value `_search` found.
    The probes take longer tail steps than this pass, so that value may
    overshoot here; the pass then steps b down by the bracket width,
    doubling each time, until it sees exactly k sign changes."""
    b, step = _search(N, p, k)
    ws, zeros, end = _integrate(b, N, p)
    while zeros > k:
        b -= step
        step *= 2.0
        ws, zeros, end = _integrate(b, N, p)
    r = SHOOT_DR / 10.0 + SHOOT_DR * np.arange(len(ws))

    # Past its tail minimum the trajectory leaves the separatrix; from five
    # samples before it, splice in the linearized tail C e^(-r) / r^((N-1)/2).
    i_cut = end - 5
    if i_cut < 10:
        raise ShootingError("shooting solution diverged too early to extract a tail")
    rm, wm = r[i_cut], ws[i_cut]
    ws[i_cut:] = wm * np.exp(rm - r[i_cut:]) * (rm / r[i_cut:]) ** ((N - 1) / 2.0)
    return RadialProfile(r=r, w=ws, N=N, nodes=zeros, w0=b, Vinf=1.0, p=p)


def _rescaled(prof: RadialProfile, Vinf: float) -> RadialProfile:
    """The exact image for Vinf of a Vinf = 1 profile,
    w_Vinf(r) = Vinf^(1/(p-2)) w_1(sqrt(Vinf) r), on its (never cached) arrays in place."""
    s = Vinf ** (1.0 / (prof.p - 2))
    prof.r /= math.sqrt(Vinf)
    prof.w *= s
    return replace(prof, w0=s * prof.w0, Vinf=Vinf)


@lru_cache(maxsize=16)
def shoot_ground(N: int, p: float, Vinf: float) -> RadialProfile:
    """Positive decreasing radial ground state; level = lambda_1 of the autonomous problem.

    Results are memoized; treat the returned profile as read-only.
    """
    prof = _shoot(N, p, 0)
    if np.any(prof.w <= 0):
        raise ShootingError("ground state is not positive")
    return _rescaled(prof, Vinf)


@lru_cache(maxsize=16)
def shoot_excited(N: int, p: float, Vinf: float, k: int) -> RadialProfile:
    """Radial solution with exactly k interior sign changes, k >= 1 (memoized)."""
    if k < 1:
        raise ShootingError("k must be at least 1; use shoot_ground for k = 0")
    prof = _shoot(N, p, k)
    if prof.nodes != k:
        raise ShootingError(f"requested {k} sign changes, converged with {prof.nodes}")
    return _rescaled(prof, Vinf)


def fit_decay(profile: RadialProfile) -> DecayFit:
    """Linear fit of log(w r^((N-1)/2)) for sqrt(Vinf) r in FIT_WINDOW; slope
    gives the decay rate. The window scales with the decay length
    1/sqrt(Vinf), so it sits as far into the tail at every Vinf.

    The envelope rate a0 is the fitted rate scaled down by 0.95, one
    admissible instantiation of the comparison-argument envelope.
    """
    r, w = profile.r, profile.normalized()
    root = math.sqrt(profile.Vinf)
    x = root * r
    mask = (x >= FIT_WINDOW[0]) & (x <= FIT_WINDOW[1])
    y = w[mask] * r[mask] ** ((profile.N - 1) / 2.0)
    if np.any(y <= 0):
        raise ValueError("profile not positive on the fit window")
    logy = np.log(y)
    slope, intercept = np.polyfit(r[mask], logy, 1)
    resid = float(np.sqrt(np.mean((logy - (slope * r[mask] + intercept)) ** 2)))
    rate = -float(slope)
    a0 = 0.95 * rate
    if not 0 < a0 <= root * 1.001:
        raise ValueError(f"fitted envelope rate {a0} outside (0, sqrt(Vinf)]")
    return DecayFit(rate=rate, C0=float(np.exp(intercept)), a0=a0, residual=resid)


def profile_on_grid(profile: RadialProfile, grid) -> GridFunction:
    """Interpolate a normalized radial profile onto the grid around the origin
    and renormalize in the grid quadrature; on a folded grid each node takes
    the full grid's value at that node before the renormalization."""
    return lp_normalize(GridFunction(grid, profile.value_at(grid.radius())), profile.p)


@dataclass
class DescentResult:
    minimizer: GridFunction  # `_descend` leaves its node array here
    level: float
    gradient_norm: float
    iterations: int
    converged: bool
    restarted_from_abs: bool = False
    nodes: int = 0  # nodes the descent ran on: the grid's, or its orthant's when folded


def _descend(u0: np.ndarray, V: np.ndarray, Vinf: float, p: float, grid,
             mirror: bool = False) -> DescentResult:
    """Preconditioned projected descent on the constraint sphere: steps along
    d = P^-1 g with P = -Delta_h + Vinf (`energy._ShiftedPoissonSolver`), so the
    iteration count does not grow as h falls. Barzilai-Borwein steps in the
    P-metric with backtracking on J, retraction by L^p normalization; the stop
    rule is on the unpreconditioned gradient norm.

    With mirror=True, u0 and V are orthants of even grid arrays from the centre
    node, and H, P and every sum take their forms for EVEN on every axis
    (`energy`): each iterate is the orthant of the full-grid one, up to rounding.

    Each line-search candidate is put through H once; the accepted one's H u
    becomes its gradient in place. The old iterate, gradient and direction
    are differenced in place right after the new gradient, so no old iterate
    is live during a line search, and no rejected candidate's H u while the
    next one is built. The minimizer is returned as its node array.
    """
    h = grid.h
    weight = grid.weight
    level_floor = -1e6  # a level below this means the descent is diverging
    P = _ShiftedPoissonSolver(u0.shape, h, Vinf, mirror)
    parity = (EVEN,) * u0.ndim if mirror else None

    def norm_p(v):
        return lp_mass(v, p, weight, parity) ** (1.0 / p)

    u = np.ascontiguousarray(u0) / norm_p(u0)  # so every buffer below is C-contiguous
    Hu = _apply_H(u, V, h, parity=parity)
    J = _pair(u, Hu, h, parity)
    g = _sphere_gradient(u, Hu, J, p)
    d = P.solve(g, np.empty_like(g))
    spare = np.empty_like(u)  # the line-search candidate, then the stale iterate
    s = 1.0  # P^-1 g = 2(u - P^-1 (W + J|u|^(p-2)) u) has the scale of u
    it = 0
    for it in range(1, DESCENT_MAX_ITER + 1):
        # backtracking on J along the retracted ray; the 40th candidate is
        # taken whatever its J
        for tries in range(40, 0, -1):
            cand = np.multiply(d, s, out=spare)
            np.subtract(u, cand, out=cand)
            cand /= norm_p(cand)
            Hu = _apply_H(cand, V, h, parity=parity)
            J_cand = _pair(cand, Hu, h, parity)
            if J_cand <= J + 1e-12 * max(1.0, abs(J)) or tries == 1:
                break
            s *= 0.5
            del Hu
        u, spare = cand, u
        J = J_cand
        g_new = _sphere_gradient(u, Hu, J, p)
        # BB step s = |<du, dg>| / <dg, dd> in the P-metric, each difference
        # formed in the stale buffer it replaces (both carry the same sign flip)
        spare -= u
        g -= g_new
        du_dg = float(node_sum(np.multiply(spare, g, out=spare), parity))
        gn = float(np.sqrt(node_sum(np.multiply(g_new, g_new, out=spare), parity) * weight))
        if J < level_floor:
            raise DescentError(f"level fell below the floor {level_floor}")
        if gn < DESCENT_TOL:
            return DescentResult(u, J, gn, it, True, nodes=u.size)
        d_new = P.solve(g_new, out=spare)
        d -= d_new
        dg_dd = float(node_sum(np.multiply(d, g, out=d), parity))
        if dg_dd != 0.0:
            s = min(max(abs(du_dg) / dg_dd, 1e-7), 1e3)
        g, d, spare = g_new, d_new, d
    return DescentResult(u, J, gn, it, False, nodes=u.size)


def minimize_lambda1(V: np.ndarray, Vinf: float, p: float, grid: Grid,
                     seed: GridFunction | None = None) -> DescentResult:
    """Constrained minimization of J on `grid`, with V = Vinf - W on it, to a
    gradient norm below DESCENT_TOL, as a `DescentResult` holding w1 and
    lambda_1 = J(w1). `Vinf` sets the preconditioner -Delta_h + Vinf.

    Starts from the on-grid `seed` when given (the pipeline passes the
    interpolated shooting profile), otherwise from a Gaussian bump. The
    minimizer is asserted nonnegative post hoc; a signed iterate triggers one
    restart from its absolute value.

    On a grid folded EVEN on every axis (`domain.Grid`), V, the seed and the
    minimizer are its orthant arrays, and the level is the descent's own J; a
    grid folded along some axes only is refused.
    On a full grid, when V and the seed each equal their mirror image along
    every axis (every radial well does), the descent runs on the orthant of
    (m+1)^N nodes from the centre instead of the (2m+1)^N grid. An even
    iterate stays even, so this is the full-grid iteration without its mirror
    images: the level, J of the mirrored-back minimizer on the grid, moves
    only by rounding.
    """
    if seed is None:
        seed = GridFunction(grid, np.exp(-grid.radius() ** 2 / 2.0))
    if EVEN not in grid.parity and all(np.array_equal(a, np.flip(a, ax))
                                       for a in (V, seed.values) for ax in range(grid.N)):
        half = grid.fold((EVEN,) * grid.N)
        orthant = (slice(grid.origin_index[0], None),) * grid.N
        res = minimize_lambda1(np.ascontiguousarray(V[orthant]), Vinf, p, half,
                               GridFunction(half, seed.values[orthant]))
        u = half.unfold(res.minimizer.values)  # one indexing pass, no array per axis
        res.minimizer = GridFunction._adopt(grid, u)  # frees the orthant minimizer
        res.level = _energy(u, V, grid.h)
        return res
    mirror = EVEN in grid.parity
    if mirror and FULL in grid.parity:
        raise ValueError("the descent folds every axis or none")
    res = _descend(seed.values, V, Vinf, p, grid, mirror)
    if np.min(res.minimizer) < -1e-8:
        res = _descend(np.abs(res.minimizer), V, Vinf, p, grid, mirror)
        res.restarted_from_abs = True
    if not res.converged:
        raise DescentError(f"descent did not reach tol {DESCENT_TOL} in {DESCENT_MAX_ITER} "
                           f"iterations (gradient norm {res.gradient_norm})")
    res.minimizer = GridFunction._adopt(grid, res.minimizer)  # no other name holds it
    return res
