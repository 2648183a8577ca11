import math

import numpy as np
import pytest

import tracemalloc

from minimaxlab import (GridFunction, ProblemSpec, WSpec, build_grid, energy_J,
                        fit_decay, lp_norm, mass_I, minimize_lambda1,
                        shoot_excited, shoot_ground)
from minimaxlab.domain import EVEN, FULL, potential_values
from minimaxlab.energy import euler_lagrange_residual
from minimaxlab.field import save_gridfunction
from minimaxlab import groundstate
from minimaxlab.groundstate import DescentError, ShootingError

# Frozen oracle values for N = 2, p = 4, Vinf = 1, recomputed independently
# (RK4 shooting at half the production step agrees to the digits shown).
GROUND_W0 = 2.2062008646
LAM1_INF = 4.8375345429167
EXCITED_W0 = 3.33199
LAM2R_INF = 12.42359


def counting(calls, name, fn):
    """Wrap fn, counting its calls in calls[name]."""
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def orthant(a):
    """The orthant of a grid array from its centre node."""
    return a[(slice(a.shape[0] // 2, None),) * a.ndim]


def skewed(a):
    """A copy of a grid array with one node off the centre changed, so that it
    equals none of its mirror images."""
    a = a.copy()
    a[(a.shape[0] // 2 + 1,) + (a.shape[0] // 2,) * (a.ndim - 1)] *= 1.001
    return a


@pytest.fixture(autouse=True)
def _fresh_unit_search():
    """Start and end each test with no memoized unit search, so a test that
    patches `_integrate` sees every probe and leaves no patched result behind."""
    groundstate._search.cache_clear()
    yield
    groundstate._search.cache_clear()


class TestShootGround:
    def test_central_value(self, ground_profile):
        assert ground_profile.w0 == pytest.approx(GROUND_W0, abs=2e-9)

    def test_level(self, ground_profile):
        assert ground_profile.level == pytest.approx(LAM1_INF, rel=1e-8)

    def test_positive_and_decreasing(self, ground_profile):
        w = ground_profile.w
        assert np.all(w > 0)
        assert np.all(np.diff(w) <= 0)

    def test_no_interior_nodes(self, ground_profile):
        assert ground_profile.nodes == 0

    def test_energy_self_consistency(self, ground_profile):
        # Jinf of the normalized profile must reproduce the level
        wn = ground_profile.normalized()
        prof = ground_profile
        dw = np.gradient(wn, prof.r)
        J = prof.radial_integral(dw ** 2 + prof.Vinf * wn ** 2)
        assert J == pytest.approx(prof.level, rel=1e-4)

    def test_scaled_equation_pointwise(self, ground_profile):
        # -w'' - (N-1)/r w' + w = w^3 away from the splice point
        prof = ground_profile
        r, w = prof.r, prof.w
        mask = (r > 0.5) & (r < 5.0)
        d1 = np.gradient(w, r)
        d2 = np.gradient(d1, r)
        res = -d2 - (prof.N - 1) / r * d1 + prof.Vinf * w - np.abs(w) ** 2 * w
        assert np.max(np.abs(res[mask])) < 1e-4

    def test_pinned_bits(self, ground_profile):
        # the search's decisions, hence w0 and the level, are fixed to the last bit;
        # plain bisection gave 2.206200864635747 and 4.837534542916699
        assert ground_profile.w0 == 2.2062008646357514
        assert ground_profile.level == 4.837534542916706
        assert ground_profile.w0 == pytest.approx(2.206200864635747, rel=1e-13, abs=0.0)
        assert ground_profile.level == pytest.approx(4.837534542916699, rel=1e-13, abs=0.0)

    def test_pinned_bits_n3(self):
        prof = shoot_ground(3, 4.0, 1.0)
        assert prof.w0 == 4.33738768018602
        assert prof.level == 8.694193729198062
        assert prof.w0 == pytest.approx(4.337387680186037, rel=1e-13, abs=0.0)
        assert prof.level == pytest.approx(8.694193729198068, rel=1e-13, abs=0.0)

    def test_memoized(self):
        a = shoot_ground(2, 4.0, 1.0)
        b = shoot_ground(2, 4.0, 1.0)
        assert a is b

    def test_one_unit_search_serves_every_vinf(self, monkeypatch):
        # shoot_ground's own cache is keyed on Vinf; beneath it the search
        # depends on (N, p, k) only, so later Vinf add just their sampled pass
        _, calls = _recording(monkeypatch)
        vinfs, counts, profiles = (1.0, 4.0, 0.25), [], []
        for V in vinfs:
            n = len(calls)
            profiles.append(shoot_ground.__wrapped__(2, 4.0, V))
            counts.append(len(calls) - n)
        assert counts[0] > 1 and counts[1:] == [1, 1]
        assert [len(args) for args, _ in calls[counts[0] - 1:]] == [3, 3, 3]  # sampled passes
        assert profiles[0].w0 == 2.2062008646357514
        # bit-identical to a fresh search at each Vinf
        for V, prof in zip(vinfs, profiles):
            groundstate._search.cache_clear()
            fresh = shoot_ground.__wrapped__(2, 4.0, V)
            assert (fresh.w0, fresh.level) == (prof.w0, prof.level)
            np.testing.assert_array_equal(fresh.r, prof.r)
            np.testing.assert_array_equal(fresh.w, prof.w)

    def test_level_scaling_in_vinf(self):
        # w_V(r) = V^(1/(p-2)) w_1(sqrt(V) r), so lambda(V) = V^(1 - N(p-2)/(2p)) lambda(1)
        for N, V in [(2, 0.1), (2, 0.25), (2, 0.5), (2, 2.0), (2, 4.0), (3, 4.0)]:
            a, b = shoot_ground(N, 4.0, 1.0), shoot_ground(N, 4.0, V)
            assert b.w0 == pytest.approx(math.sqrt(V) * a.w0, rel=1e-14, abs=0.0)
            np.testing.assert_allclose(b.r, a.r / math.sqrt(V), rtol=1e-14, atol=0.0)
            assert b.level == pytest.approx(V ** (1.0 - N / 4.0) * a.level, rel=1e-14, abs=0.0)


class TestShootExcited:
    def test_one_node(self, excited_profile):
        assert excited_profile.nodes == 1
        assert excited_profile.w0 == pytest.approx(EXCITED_W0, rel=1e-5)

    def test_level(self, excited_profile):
        assert excited_profile.level == pytest.approx(LAM2R_INF, rel=1e-5)

    def test_level_above_ground(self, ground_profile, excited_profile):
        assert excited_profile.level > ground_profile.level

    def test_pinned_bits(self, excited_profile):
        # plain bisection gave 3.331989266448716 and 12.423585831487589
        assert excited_profile.w0 == 3.331989266448708
        assert excited_profile.level == 12.423585831487594
        assert excited_profile.w0 == pytest.approx(3.331989266448716, rel=1e-13, abs=0.0)
        assert excited_profile.level == pytest.approx(12.423585831487589, rel=1e-13, abs=0.0)

    def test_rejects_k_zero(self):
        with pytest.raises(ShootingError):
            shoot_excited(2, 4.0, 1.0, 0)

    def test_sign_structure(self, excited_profile):
        w = excited_profile.w
        assert w[0] > 0
        assert np.min(w) < 0
        # a single crossing: the sign pattern is + block then - block (tail splice keeps the sign)
        signs = np.sign(w[np.abs(w) > 1e-12])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1


def _recording(monkeypatch):
    """Patch `groundstate._integrate` to log every call as (args, result)."""
    full = groundstate._integrate
    calls = []

    def recording(*args):
        result = full(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(groundstate, "_integrate", recording)
    return full, calls


def _uniform_probe(b, N, p, Vinf, dr, rmax, k):
    """The search's early decision at the step dr all the way out: returns
    (exit radius, sign changes) as `groundstate._integrate(..., k)` does, but
    without its longer tail steps or its p = 4 shortcut."""
    copysign = math.copysign
    r = dr / 10.0
    curv = Vinf * b - abs(b) ** (p - 1)
    w = b + curv * r * r / (2.0 * N)
    v = curv * r / N
    zeros = 0
    q, c = p - 1, N - 1
    half, sixth = dr / 2.0, dr / 6.0
    for _ in range(int(round(rmax / dr))):
        g = copysign(abs(w) ** q, w)
        if 0.5 * (v * v - Vinf * w * w) + g * w / p < 0.0:
            return r, zeros
        a1 = (Vinf * w - g) - c / r * v
        w2, v2 = w + half * v, v + half * a1
        a2 = (Vinf * w2 - copysign(abs(w2) ** q, w2)) - c / (r + half) * v2
        w3, v3 = w + half * v2, v + half * a2
        a3 = (Vinf * w3 - copysign(abs(w3) ** q, w3)) - c / (r + half) * v3
        w4, v4 = w + dr * v3, v + dr * a3
        a4 = (Vinf * w4 - copysign(abs(w4) ** q, w4)) - c / (r + dr) * v4
        wn = w + sixth * (v + 2.0 * v2 + 2.0 * v3 + v4)
        v = v + sixth * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        r += dr
        if wn * w < 0.0:
            zeros += 1
            if zeros > k:
                return r + dr * wn / (w - wn), zeros
        w = wn
    return r, zeros


def _bisection_w0(N, p, Vinf, k):
    """Plain bisection on uniform-step early decisions, with the search's
    bracket and stop rule: the central value the sampled pass's discretization
    gives without secant steps, longer tail steps or the rescaling from
    Vinf = 1. It integrates the equation with Vinf itself, at the step
    2e-3 / sqrt(Vinf) out to 25 / sqrt(Vinf): the exact image of the search's
    step and range."""
    dr, rmax = 2e-3 / math.sqrt(Vinf), 25.0 / math.sqrt(Vinf)

    def overshoots(b):
        return _uniform_probe(b, N, p, Vinf, dr, rmax, k)[1] > k

    lo = 1.05 * Vinf ** (1.0 / (p - 2))
    hi = lo * 2.0
    while not overshoots(hi):
        hi *= 2.0
    while overshoots(lo):
        lo = 0.5 * (lo + Vinf ** (1.0 / (p - 2)))
    while hi - lo > 1e-14 * hi:
        mid = 0.5 * (lo + hi)
        if overshoots(mid):
            hi = mid
        else:
            lo = mid
    return lo


class TestEarlyDecision:
    """Each search probe integrates only until its bit `sign changes > k` is decided."""

    @pytest.mark.parametrize("N, k", [(2, 0), (2, 1), (3, 0)])
    def test_matches_full_integration_near_the_separatrix(self, monkeypatch, N, k):
        full, calls = _recording(monkeypatch)
        groundstate._shoot(N, 4.0, k)
        # a probe call is (b, N, p, k) and returns (exit radius, sign changes)
        decided = [(args[:3], res[1] > k, res[0]) for args, res in calls if len(args) == 4]
        dr, rmax = groundstate.SHOOT_DR, groundstate.SHOOT_RMAX
        # the last probes lie nearest the separatrix, where the bit is hardest;
        # their longer tail steps decide it as the step dr does
        for args, bit, r in decided[-8:]:
            assert (full(*args)[1] > k) == bit
            assert (_uniform_probe(args[0], N, 4.0, 1.0, dr, rmax, k)[1] > k) == bit
            assert r < rmax
        # far from the separatrix the bit is decided within a few steps
        assert min(r for _, _, r in decided) < 100 * dr


class TestSecantSearch:
    """The bracketed secant search against plain bisection on the same decisions."""

    @pytest.mark.parametrize("N, p, Vinf, k", [
        (2, 4.0, 1.0, 0), (2, 4.0, 1.0, 1), (3, 4.0, 1.0, 0), (2, 3.0, 1.0, 0),
        (2, 6.0, 1.0, 0), (2, 4.0, 4.0, 0), (2, 4.0, 1.0, 2), (3, 4.0, 1.0, 1),
        (2, 4.0, 2.0, 0), (2, 4.0, 0.5, 0), (3, 4.0, 4.0, 0), (2, 4.0, 0.1, 0),
        (2, 4.0, 0.25, 1)])
    def test_agrees_with_bisection(self, N, p, Vinf, k):
        prof = shoot_excited(N, p, Vinf, k) if k else shoot_ground(N, p, Vinf)
        assert prof.nodes == k
        assert prof.w0 == pytest.approx(_bisection_w0(N, p, Vinf, k), rel=1e-13, abs=0.0)

    def test_keeps_the_bracket_with_few_integrations(self, monkeypatch):
        full, calls = _recording(monkeypatch)
        prof = groundstate._shoot(2, 4.0, 0)
        assert len(calls) <= 19  # plain bisection took 52, the 2 % secant pairs 26
        decided = [(args[0], res[1] > 0) for args, res in calls if len(args) == 4]
        # bracketing: 2.1 undershoots, 4.2 overshoots, 1.05 undershoots
        assert decided[:3] == [(2.1, False), (4.2, True), (1.05, False)]
        lo, hi = 1.05, 4.2
        for b, over in decided[3:]:
            assert lo < b < hi  # every probe lies strictly inside the bracket
            if over:
                hi = b
            else:
                lo = b
        assert hi - lo <= 1e-14 * hi
        assert prof.w0 == lo
        assert full(lo, 2, 4.0)[1] == 0  # lo undershoots in full too

    @pytest.mark.parametrize("k", [0, 1])
    def test_final_pass_steps_down_to_k_sign_changes(self, monkeypatch, k):
        # probes that decide for b (1 - 1e-13) hand the sampled pass a lo about
        # 1e-13 above the separatrix of the step dr, where it overshoots
        full = groundstate._integrate
        passes = []

        def shifted(b, *args):
            if len(args) == 3:  # a probe: (N, p, k)
                return full(b * (1.0 - 1e-13), *args)
            ws, zeros, end = full(b, *args)
            passes.append((b, zeros))
            return ws, zeros, end

        monkeypatch.setattr(groundstate, "_integrate", shifted)
        prof = groundstate._shoot(2, 4.0, k)
        assert len(passes) > 2
        assert all(zeros > k for _, zeros in passes[:-1])
        assert passes[-1] == (prof.w0, k)
        assert prof.nodes == k
        bs = [b for b, _ in passes]
        assert all(a > b for a, b in zip(bs, bs[1:]))
        assert prof.w0 == pytest.approx(_bisection_w0(2, 4.0, 1.0, k), rel=1e-12, abs=0.0)
        if k == 0:
            assert np.all(prof.w > 0)


class TestFitDecay:
    def test_rate_near_sqrt_vinf(self, decay_fit0):
        assert decay_fit0.rate == pytest.approx(1.0, rel=2e-2)

    @pytest.mark.parametrize("Vinf", [0.1, 0.25, 0.5, 2.0, 4.0])
    def test_window_scales_with_the_decay_length(self, Vinf):
        # N = 2 fits -1.49e-3 relative at every Vinf; the window r in [6, 12]
        # fitted 1.8317 for sqrt(Vinf) = 2
        fit = fit_decay(shoot_ground(2, 4.0, Vinf))
        assert fit.rate == pytest.approx(math.sqrt(Vinf), rel=2e-3)

    def test_envelope_below_rate(self, decay_fit0):
        assert 0 < decay_fit0.a0 < decay_fit0.rate

    def test_residual_small(self, decay_fit0):
        assert decay_fit0.residual < 1e-2

    def test_envelope_is_upper_bound_on_window(self, ground_profile, decay_fit0):
        prof = ground_profile
        r = prof.r
        mask = (r >= 6.0) & (r <= 12.0)
        wn = prof.normalized()[mask]
        env = decay_fit0.C0 * np.exp(-decay_fit0.a0 * r[mask]) / r[mask] ** 0.5
        assert np.all(wn <= env * (1.0 + 1e-9))


class TestProfileOnGrid:
    def test_normalized_on_grid(self, winf0):
        assert lp_norm(winf0, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_radially_symmetric(self, winf0, grid0):
        v = winf0.values
        assert np.allclose(v, v[::-1, :], atol=1e-14)
        assert np.allclose(v, v.T, atol=1e-14)

    def test_energy_close_to_shooting_level(self, winf0, spec0, ground_profile):
        J = energy_J(winf0, potential_values(spec0, winf0.grid))
        assert J == pytest.approx(ground_profile.level, rel=5e-3)


class TestMinimizeLambda1:
    def test_desk_level_matches_shooting(self, descent0, ground_profile):
        # grid discretization error at h = 0.125 stays under one percent
        assert descent0.level == pytest.approx(ground_profile.level, rel=1e-2)
        assert descent0.converged

    def test_minimizer_is_normalized_nonnegative(self, descent0):
        assert mass_I(descent0.minimizer, 4.0) == pytest.approx(1.0, abs=1e-9)
        assert np.min(descent0.minimizer.values) >= -1e-8

    def test_solves_discrete_equation(self, descent0, spec0, grid0):
        res = euler_lagrange_residual(descent0.minimizer, descent0.level,
                                      potential_values(spec0, grid0), spec0.p)
        assert res < 1e-6

    def test_penalty_lowers_level(self, descent0, descent_exp):
        assert descent_exp.level < descent0.level

    def test_profile_seed_agrees_with_gaussian_seed(self, spec0, grid0, descent0, winf0):
        seeded = minimize_lambda1(potential_values(spec0, grid0), spec0.Vinf, spec0.p, grid0,
                                  seed=winf0)
        assert seeded.level == pytest.approx(descent0.level, rel=1e-9)

    def test_coarse_grid_converges_fast(self):
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25)
        grid = build_grid(spec)
        res = minimize_lambda1(potential_values(spec, grid), spec.Vinf, spec.p, grid)
        assert res.converged
        assert res.iterations <= 40
        assert res.level == pytest.approx(LAM1_INF, rel=2e-2)

    def test_iteration_count_does_not_grow_as_h_falls(self):
        counts = []
        for h in (0.25, 0.125):
            spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=h)
            grid = build_grid(spec)
            counts.append(minimize_lambda1(potential_values(spec, grid), spec.Vinf,
                                           spec.p, grid).iterations)
        assert abs(counts[0] - counts[1]) <= 5, counts

    def test_peak_memory_stays_below_plain_descent(self):
        # the plain-gradient descent peaked 9.1 grid arrays above its entry
        # here; one asymmetric seed node keeps the run on the full grid
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=6.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        V = potential_values(spec, grid)
        seed = GridFunction(grid, skewed(np.exp(-grid.radius() ** 2 / 2.0)))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            res = minimize_lambda1(V, spec.Vinf, spec.p, grid, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.nodes == grid.size
        assert (peak - entry) / V.nbytes <= 7.5

    def test_folded_peak_memory(self):
        # the same run on the 25^3 orthant: the descent holds about 8 orthant
        # arrays; the peak, 24.9, is the mirror back and the full-grid J of
        # the minimizer, three grid arrays of 8 orthant arrays each
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=6.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        V = potential_values(spec, grid)
        seed = GridFunction(grid, np.exp(-grid.radius() ** 2 / 2.0))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            res = minimize_lambda1(V, spec.Vinf, spec.p, grid, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.nodes == 25 ** 3
        assert (peak - entry) / (res.nodes * 8) <= 25.5

    @staticmethod
    def count_H_and_mass(monkeypatch, L, mirror):
        # each line-search candidate, like the start, is retracted by one L^p
        # normalization and put through H once; the accepted candidate's H u
        # becomes its gradient
        calls = {"_apply_H": 0, "lp_mass": 0}
        for name in calls:
            fn = getattr(groundstate, name)
            monkeypatch.setattr(groundstate, name, counting(calls, name, fn))
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=L, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        seed = GridFunction(grid, np.abs(np.random.default_rng(1).standard_normal(grid.shape)))
        V = potential_values(spec, grid)
        u0 = orthant(seed.values) if mirror else seed.values
        V = np.ascontiguousarray(orthant(V)) if mirror else V
        res = groundstate._descend(u0, V, spec.Vinf, spec.p, grid, mirror)
        assert res.converged
        assert res.nodes == u0.size
        return calls, res

    def test_descent_applies_H_once_per_candidate(self, monkeypatch):
        # from this rough seed some candidates are rejected
        calls, res = self.count_H_and_mass(monkeypatch, 4.0, mirror=False)
        assert calls["_apply_H"] == calls["lp_mass"] > res.iterations + 1

    def test_folded_descent_applies_H_once_per_candidate(self, monkeypatch):
        # from the orthant of an even rough field the descent rejects a
        # candidate only on the larger box
        calls, res = self.count_H_and_mass(monkeypatch, 8.0, mirror=True)
        assert calls["_apply_H"] == calls["lp_mass"] > res.iterations + 1

    def test_descent_peak_memory_on_a_33_cube(self):
        # 7.13 grid arrays above entry with one H per candidate; holding a
        # rejected candidate's or the start's H u while the next is built
        # costs about one more
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=4.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        V = potential_values(spec, grid)
        seed = GridFunction(grid, skewed(np.exp(-grid.radius() ** 2 / 2.0)))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            groundstate._descend(seed.values, V, spec.Vinf, spec.p, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / V.nbytes <= 7.6

    def test_folded_descent_peak_memory_on_a_33_cube(self):
        # the 33^3 orthant of the 65^3 grid holds the same 7.2 arrays, now
        # orthant arrays, and the mirror form adds no grid-sized temporary
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=8.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        V = np.ascontiguousarray(orthant(potential_values(spec, grid)))
        seed = np.ascontiguousarray(orthant(
            GridFunction(grid, np.exp(-grid.radius() ** 2 / 2.0)).values))
        assert V.shape == (33, 33, 33)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            groundstate._descend(seed, V, spec.Vinf, spec.p, grid, mirror=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / V.nbytes <= 7.6

    def test_fortran_ordered_seed_gives_the_same_level(self):
        # the preconditioner reshapes its buffers, which must stay views
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=4.0, h=0.25)
        grid = build_grid(spec)
        V = potential_values(spec, grid)
        seed = np.exp(-grid.radius() ** 2 / 2.0)
        levels = [minimize_lambda1(V, spec.Vinf, spec.p, grid, seed=GridFunction(grid, s)).level
                  for s in (seed, np.asfortranarray(seed))]
        assert levels[1] == pytest.approx(levels[0], rel=1e-12)

    def test_level_floor_triggers(self):
        # a deep well sends J below the descent's fixed floor of -1e6
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25,
                           W=WSpec(family="exponential", c=1e6, a=0.5))
        grid = build_grid(spec)
        with pytest.raises(DescentError, match="floor"):
            minimize_lambda1(potential_values(spec, grid), spec.Vinf, spec.p, grid)


FOLD_WELLS = {"zero": WSpec(), "exponential": WSpec(family="exponential", c=0.5, a=0.5),
              "repulsive-bump": WSpec(family="bump", c=-0.5, a=2.0)}


class TestFoldedDescent:
    """Even V and seed send the descent to the orthant from the centre node;
    it is the full-grid iteration up to rounding, and one asymmetric node
    keeps the full grid."""

    @staticmethod
    def full_and_folded(spec, seed=None):
        grid = build_grid(spec)
        V = potential_values(spec, grid)
        seed = GridFunction(grid, np.exp(-grid.radius() ** 2 / 2.0) if seed is None else seed)
        full = groundstate._descend(seed.values, V, spec.Vinf, spec.p, grid)
        return grid, full, minimize_lambda1(V, spec.Vinf, spec.p, grid, seed=seed)

    @pytest.mark.parametrize("p", [4.0, 3.0])
    @pytest.mark.parametrize("well", FOLD_WELLS)
    @pytest.mark.parametrize("N, L", [(2, 8.0), (3, 4.0)])
    def test_matches_the_full_grid(self, N, L, well, p):
        spec = ProblemSpec(N=N, p=p, Vinf=1.0, L=L, h=0.25, W=FOLD_WELLS[well])
        grid, full, folded = self.full_and_folded(spec)
        m = grid.origin_index[0]
        assert folded.nodes == (m + 1) ** N < full.nodes == grid.size
        assert folded.iterations == full.iterations
        assert folded.level == pytest.approx(full.level, rel=1e-13, abs=0.0)
        u = folded.minimizer.values
        assert all(np.array_equal(u, np.flip(u, ax)) for ax in range(N))
        assert np.max(np.abs(u - full.minimizer)) <= 1e-12 * np.max(u)
        # the reported level is J of the reported minimizer
        assert folded.level == energy_J(folded.minimizer, potential_values(spec, grid))

    @pytest.mark.parametrize("well", FOLD_WELLS)
    @pytest.mark.parametrize("N, L", [(2, 8.0), (3, 4.0)])
    def test_orthant_input_keeps_the_orthant(self, N, L, well):
        # V and the seed on the orthant grid give the full-grid input's
        # iteration and its minimizer's orthant, with the level J of the
        # orthant minimizer bit for bit and no full-grid J formed
        spec = ProblemSpec(N=N, p=4.0, Vinf=1.0, L=L, h=0.25, W=FOLD_WELLS[well])
        grid, _, full = self.full_and_folded(spec)
        half = grid.fold((EVEN,) * N)
        V = potential_values(spec, half)
        res = minimize_lambda1(V, spec.Vinf, spec.p, half,
                               seed=GridFunction(half, np.exp(-half.radius() ** 2 / 2.0)))
        assert res.minimizer.grid is half
        assert (res.nodes, res.iterations) == (full.nodes, full.iterations)
        assert np.array_equal(res.minimizer.values, orthant(full.minimizer.values))
        assert res.level == energy_J(res.minimizer, V)
        assert res.level == pytest.approx(full.level, rel=1e-13, abs=0.0)

    def test_grid_folded_along_some_axes_only_rejected(self):
        # the preconditioner folds every axis or none
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=4.0, h=0.25)
        half = build_grid(spec).fold((FULL, EVEN))
        with pytest.raises(ValueError, match="every axis or none"):
            minimize_lambda1(potential_values(spec, half), spec.Vinf, spec.p, half)

    @pytest.mark.parametrize("N, L", [(2, 8.0), (3, 4.0)])
    def test_one_asymmetric_seed_node_keeps_the_full_grid(self, N, L):
        spec = ProblemSpec(N=N, p=4.0, Vinf=1.0, L=L, h=0.25, W=FOLD_WELLS["exponential"])
        grid = build_grid(spec)
        grid, full, res = self.full_and_folded(
            spec, seed=skewed(np.exp(-grid.radius() ** 2 / 2.0)))
        assert res.nodes == grid.size
        assert (res.level, res.iterations) == (full.level, full.iterations)
        assert np.array_equal(res.minimizer.values, full.minimizer)

    def test_one_asymmetric_table_node_keeps_the_full_grid(self, tmp_path):
        grid = build_grid(ProblemSpec(N=2, p=4.0, L=8.0, h=0.25))
        W = GridFunction(grid, skewed(0.5 * np.exp(-0.5 * grid.radius())))
        save_gridfunction(W, tmp_path / "w.gf")
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25,
                           W=WSpec(family="table", table_path=str(tmp_path / "w.gf")))
        grid, full, res = self.full_and_folded(spec)
        assert res.nodes == grid.size
        assert (res.level, res.iterations) == (full.level, full.iterations)
        assert np.array_equal(res.minimizer.values, full.minimizer)
