import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from minimaxlab import (GridFunction, ProblemSpec, WSpec, build_grid, energy_J,
                        lambda2_bounds, lp_normalize, mass_I, pathlab, profile_on_grid,
                        translate)
from minimaxlab.domain import EVEN, FULL, potential_values
from minimaxlab.energy import _energy
from minimaxlab.pathlab import (MAX_THETA_SAMPLES, MIN_THETA_SAMPLES, SPHERE_SAMPLES,
                                THETA_SAMPLES, PathError, PathFamily, SampledPath,
                                SphereMap, TranslatedBumps, TranslationTable,
                                balanced_point, disjoint_support_max, overlap_integrals,
                                path_max_J, path_max_from_energies, sphere_points,
                                translated_bump_path, two_block_energy)


@pytest.fixture(scope="module")
def spec():
    return ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.125)


@pytest.fixture(scope="module")
def grid(spec):
    return build_grid(spec)


def unit_bump(grid, center, p=4.0, radius=1.5):
    x, y = grid.coords()
    r2 = ((x - center[0]) ** 2 + (y - center[1]) ** 2) / radius ** 2
    vals = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
    return lp_normalize(GridFunction(grid, vals), p)


@pytest.fixture(scope="module")
def left(grid):
    return unit_bump(grid, (-4.0, 0.0))


@pytest.fixture(scope="module")
def right(grid):
    return unit_bump(grid, (4.0, 0.0))


class TestClosedForm:
    def test_both_positive(self):
        # p = 4 gives q = 2: max is the Euclidean combination
        assert disjoint_support_max(3.0, 4.0, 4.0) == pytest.approx(5.0)

    def test_mixed_signs(self):
        assert disjoint_support_max(-2.0, 4.0, 4.0) == 4.0
        assert disjoint_support_max(4.0, -2.0, 4.0) == 4.0

    def test_both_nonpositive(self):
        assert disjoint_support_max(-3.0, -4.0, 4.0) == pytest.approx(-5.0)

    def test_endpoints_of_profile(self):
        assert two_block_energy(3.0, 7.0, 4.0, 0.0) == pytest.approx(3.0)
        assert two_block_energy(3.0, 7.0, 4.0, math.pi / 2) == pytest.approx(7.0)

    def test_sampling_route_agrees(self):
        for J1, J2, p in [(3.0, 4.0, 4.0), (-1.0, 2.0, 3.0), (-2.0, -5.0, 2.5)]:
            closed = disjoint_support_max(J1, J2, p)
            sampled, _ = path_max_from_energies(J1, J2, p)
            assert sampled == pytest.approx(closed, abs=1e-10)

    def test_profile_never_exceeds_max(self):
        for theta in np.linspace(0, 2 * math.pi, 101):
            val = two_block_energy(2.0, 5.0, 4.0, theta)
            assert val <= disjoint_support_max(2.0, 5.0, 4.0) + 1e-12


class TestPathFamily:
    def test_endpoints(self, left, right):
        path = PathFamily(left, right, 4.0)
        assert np.allclose(path.at(0.0).values, left.values)
        assert np.allclose(path.at(math.pi / 2).values, right.values)

    def test_odd(self, left, right):
        path = PathFamily(left, right, 4.0)
        a = path.at(1.0)
        b = path.at(1.0 + math.pi)
        assert np.allclose(a.values, -b.values, atol=1e-14)

    def test_stays_on_sphere(self, left, right):
        path = PathFamily(left, right, 4.0)
        for theta in (0.3, 1.1, 2.9, 4.0):
            assert mass_I(path.at(theta), 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_off_sphere_block(self, grid, left):
        bad = GridFunction(grid, 2.0 * left.values)
        with pytest.raises(PathError):
            PathFamily(bad, left, 4.0)

    def test_rejects_degenerate(self, left):
        with pytest.raises(PathError):
            PathFamily(left, -left, 4.0)

    def test_path_point_peak_memory(self):
        # the combination and its normalized quotient, which the result keeps;
        # copying that quotient into the field made it 3.0 arrays, and holding
        # the combination through the normalization 4.0
        grid = build_grid(ProblemSpec(N=3, p=4.0, L=4.0, h=0.25))
        x, y, z = grid.coords()
        u1, u2 = (lp_normalize(GridFunction(grid, np.exp(-(x - c) ** 2 - y * y - z * z)), 4.0)
                  for c in (-1.5, 1.5))
        path = PathFamily(u1, u2, 4.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            path.at(0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / (grid.size * 8) <= 2.1


class TestSampledPath:
    def test_matches_source_at_samples(self, left, right):
        src = PathFamily(left, right, 4.0)
        sp = SampledPath.from_path(src, 64, 4.0)
        for theta in sp.thetas[::8]:
            assert np.allclose(sp.at(float(theta)).values,
                               src.at(float(theta)).values, atol=1e-12)

    def test_reflection_exact_at_samples(self, left, right):
        sp = SampledPath.from_path(PathFamily(left, right, 4.0), 64, 4.0)
        t = float(sp.thetas[9])
        u = sp.at(t)
        v = sp.at(t + math.pi)
        assert np.array_equal(u.values, -v.values)

    def test_reflection_between_samples(self, left, right):
        sp = SampledPath.from_path(PathFamily(left, right, 4.0), 64, 4.0)
        u = sp.at(0.7)
        v = sp.at(0.7 + math.pi)
        assert np.allclose(u.values, -v.values, atol=1e-13)

    def test_interpolant_on_sphere(self, left, right):
        sp = SampledPath.from_path(PathFamily(left, right, 4.0), 64, 4.0)
        u = sp.at(0.5 * (sp.thetas[3] + sp.thetas[4]))
        assert mass_I(u, 4.0) == pytest.approx(1.0, abs=1e-12)


class TestPathMaxJ:
    def test_matches_closed_form_for_disjoint_blocks(self, spec, grid, left, right):
        V = potential_values(spec, grid)
        J1, J2 = energy_J(left, V), energy_J(right, V)
        path = PathFamily(left, right, 4.0)
        got, arg = path_max_J(path, V)
        assert got == pytest.approx(disjoint_support_max(J1, J2, 4.0), rel=1e-10)
        assert 0.0 <= arg < math.pi

    def test_minimum_sample_count_enforced(self, spec, grid, left, right):
        with pytest.raises(PathError):
            path_max_J(PathFamily(left, right, 4.0), potential_values(spec, grid), samples=32)

    def test_maximum_sample_count_enforced(self, spec, grid, left, right):
        # checked before the angle array is allocated
        with pytest.raises(PathError, match=f"got {MAX_THETA_SAMPLES + 1}"):
            path_max_J(PathFamily(left, right, 4.0), potential_values(spec, grid),
                       samples=MAX_THETA_SAMPLES + 1)

    @pytest.mark.parametrize("theta0", [0.3 * math.pi / 64, 1.0, 2.9])
    def test_search_finds_off_sample_peak(self, theta0):
        # the peak of cos(2(theta - theta0)) falls between samples, where the
        # golden-section search must beat the best sample and reach 1
        f = lambda t: np.cos(2.0 * (t - theta0))
        best_sample = max(f(np.linspace(0.0, math.pi, 64, endpoint=False)))
        value, arg = pathlab._theta_max(f, 64)
        assert best_sample < value <= 1.0
        assert value == pytest.approx(1.0, abs=1e-15)
        assert arg == pytest.approx(theta0 % math.pi, abs=1e-7)


@pytest.fixture(scope="module")
def well(spec):
    """The test problem with an exponential well, so V is not constant."""
    return replace(spec, W=WSpec(family="exponential", c=0.5, a=0.5))


class TestSpanMap:
    """J along a two-block path from the Gram matrix and the L^p moments (or
    one mass pass for odd p) equals J of the field built at the same angle."""

    @pytest.mark.parametrize("p", [4.0, 6.0, 3.0])
    @pytest.mark.parametrize("dx", [2, 4])
    def test_matches_field_energy_on_overlapping_blocks(self, grid, well, rng, dx, p):
        # bumps of radius 2.5 whose centers lie dx apart in x overlap
        path = PathFamily(unit_bump(grid, (-dx / 2, 0.0), p, radius=2.5),
                          unit_bump(grid, (dx / 2, 0.5), p, radius=2.5), p)
        V = potential_values(well, grid)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 12)
        exact = np.array([_energy(path.at(t).values, V, grid.h) for t in thetas])
        J = path.energy(V)
        # the whole array in one call, and each angle alone
        np.testing.assert_allclose(J(thetas), exact, rtol=1e-12, atol=0.0)
        for t, e in zip(thetas, exact):
            assert J(t) == pytest.approx(e, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [4.0, 3.0])
    def test_sampled_path_energy_takes_an_angle_array(self, grid, well, rng, p):
        family = PathFamily(unit_bump(grid, (-1.0, 0.0), p, radius=2.5),
                            unit_bump(grid, (1.0, 0.5), p, radius=2.5), p)
        path = SampledPath.from_path(family, 16, p)
        V = potential_values(well, grid)
        thetas = rng.uniform(0.0, 2.0 * math.pi, 12)
        exact = np.array([_energy(path.at(t).values, V, grid.h) for t in thetas])
        np.testing.assert_allclose(path.energy(V)(thetas), exact, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("p", [4.0, 3.0])
    def test_disjoint_blocks_are_the_diagonal_case(self, grid, well, p):
        path = PathFamily(unit_bump(grid, (-4.0, 0.0), p), unit_bump(grid, (4.0, 0.0), p), p)
        V = potential_values(well, grid)
        J = path.energy(V)
        G = J.G
        assert G[0, 1] == G[1, 0] == 0.0
        for t in np.linspace(0.0, math.pi, 9):
            assert J(t) == pytest.approx(two_block_energy(G[0, 0], G[1, 1], p, t), rel=1e-12)
        got, _ = path_max_J(path, V)
        assert got == pytest.approx(disjoint_support_max(G[0, 0], G[1, 1], p), rel=1e-12)


class TestBalancedPoint:
    def test_equal_disjoint_bumps(self, left, right):
        path = PathFamily(left, right, 4.0)
        u, theta = balanced_point(path, 4.0)
        from minimaxlab import split_signs

        plus, minus = split_signs(u)
        assert mass_I(plus, 4.0) == pytest.approx(0.5, abs=1e-9)
        assert mass_I(minus, 4.0) == pytest.approx(0.5, abs=1e-9)
        # the signed balanced combination sits at 3 pi / 4 by symmetry
        assert theta == pytest.approx(3 * math.pi / 4, abs=1e-9)

    def test_already_signed_start(self, grid, left, right):
        u1 = lp_normalize(GridFunction(grid, left.values - right.values), 4.0)
        u2 = unit_bump(grid, (0.0, 4.0))
        u, theta = balanced_point(PathFamily(u1, u2, 4.0), 4.0)
        assert theta == 0.0
        assert np.array_equal(u.values, u1.values)


class TestOverlapIntegrals:
    def test_positive_and_decaying(self, winf0):
        vals = [overlap_integrals(winf0, winf0, (y, 0.0), 4.0)
                for y in (4.0, 6.0, 8.0)]
        for o1, o2 in vals:
            assert o1 > 0 and o2 > 0
        assert vals[0][0] > vals[1][0] > vals[2][0]
        assert vals[0][1] > vals[1][1] > vals[2][1]

    def test_symmetric_for_identical_bumps(self, winf0):
        o1, o2 = overlap_integrals(winf0, winf0, (6.0, 0.0), 4.0)
        assert o1 == pytest.approx(o2, rel=1e-10)

    def test_signed_field_rejected(self, grid, left, right):
        signed = GridFunction(grid, left.values - right.values)
        with pytest.raises(PathError):
            overlap_integrals(signed, left, (0.0, 0.0), 4.0)


class TestSpherePoints:
    @pytest.mark.parametrize("m, n", [(2, 8), (2, 7), (3, 64)])
    def test_one_direction_per_antipodal_pair(self, m, n):
        pts = sphere_points(m, n)
        assert pts.shape == (n, m)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        # no direction is the negative of another: an odd map's scan would repeat it
        assert np.min(np.linalg.norm(pts[:, None] + pts[None], axis=2)) > 1e-3

    def test_half_sphere_keeps_pairs_apart(self):
        # a whole-sphere Fibonacci rule put two of 128 directions 0.0076 from antipodal
        pts = sphere_points(3, 128)
        assert np.all(pts[:, 2] > 0.0)
        assert np.min(np.linalg.norm(pts[:, None] + pts[None], axis=2)) > 0.1

    def test_half_circle_is_first_half_of_full_circle(self):
        # the m = 2 directions are the first half of 2n uniform angles on [0, 2 pi)
        angles = 2.0 * np.pi * np.arange(8) / 16
        assert np.array_equal(sphere_points(2, 8),
                              np.stack([np.cos(angles), np.sin(angles)], axis=1))

    def test_unsupported_m(self):
        with pytest.raises(PathError):
            sphere_points(4, 16)



@pytest.fixture(scope="module")
def table0(winf0):
    return TranslationTable(winf0, 4.0)


class TestGammaR:
    def test_odd_map(self, table0):
        gm = SphereMap(table0, 6.0)
        y = np.array([1.0, 0.0])
        a = gm.at(y)
        b = gm.at(-y)
        assert np.array_equal(a.values, -b.values)

    def test_image_on_sphere(self, table0):
        gm = SphereMap(table0, 6.0)
        assert len(gm.points) == SPHERE_SAMPLES
        for y in gm.points:
            assert mass_I(gm.at(y), 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_r_must_fit_in_box(self, table0):
        with pytest.raises(PathError):
            SphereMap(table0, 16.0)

    def test_scan_max_near_doubling_threshold(self, table0, spec0, ground_profile):
        # well separated signed pairs sit near 2^sigma lambda_1
        gm = SphereMap(table0, 9.0)
        target = 2.0 ** 0.5 * ground_profile.level
        assert gm.scan(spec0.Vinf).max() == pytest.approx(target, rel=5e-3)


def smooth_field(grid):
    """An asymmetric Gaussian-type field, far from zero at the wall of a
    small box, so translates lose much of it there."""
    x = grid.coords()
    r2 = sum((xi - 0.3 * (i + 1)) ** 2 * (i + 1) for i, xi in enumerate(x)) / 8.0
    return GridFunction(grid, np.exp(-r2) * (1.5 + np.sin(x[0])))


class TestTranslationTable:
    """J^inf from the translation table against J^inf of the field that
    `at` builds, at every direction of the scan."""

    @pytest.mark.parametrize("N, L, h, p, R", [
        (2, 6.0, 0.25, 4.0, 5.75),  # R near L: every translate is clipped
        (2, 6.0, 0.25, 4.0, 2.0),
        (2, 16.0, 0.125, 4.0, 0.125),  # one node: the moment sums would cancel
        (3, 3.0, 0.25, 4.0, 2.0),
        (2, 6.0, 0.25, 3.0, 5.75),  # odd p: the mass is built, not summed
    ])
    def test_scan_matches_fields(self, N, L, h, p, R):
        w = smooth_field(build_grid(ProblemSpec(N=N, p=p, L=L, h=h)))
        sm = SphereMap(TranslationTable(w, p), R)
        energies = sm.scan(1.0)
        ref = [energy_J(sm.at(y), 1.0) for y in sm.points]
        assert energies == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_unbounded_matches_fields_on_a_box_twice_as_wide(self):
        # on a box of half-width 2L no translate by less than L is clipped
        small = build_grid(ProblemSpec(N=2, p=4.0, L=6.0, h=0.25))
        big = build_grid(ProblemSpec(N=2, p=4.0, L=12.0, h=0.25))
        w = smooth_field(small)
        wide = np.zeros(big.shape)
        wide[24:-24, 24:-24] = w.values
        sm = SphereMap(TranslationTable(w, 4.0), 5.75)
        sm.scan(1.0)
        wide_map = SphereMap(TranslationTable(GridFunction(big, wide), 4.0), 5.75)
        ref = [energy_J(wide_map.at(y), 1.0) for y in wide_map.points]
        assert sm.unbounded == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_no_wall_gap_when_no_translate_reaches_the_wall(self):
        # a bump of radius 2 moved by 1.5 stays 10 nodes from the wall
        grid = build_grid(ProblemSpec(N=2, p=4.0, L=6.0, h=0.25))
        bump = unit_bump(grid, (0.0, 0.0), radius=2.0)
        table = TranslationTable(bump, 4.0)
        sm = SphereMap(table, 1.5)
        box = sm.scan(1.0)
        assert np.max(np.abs(box - sm.unbounded) / sm.unbounded) <= 1e-13
        clipped = SphereMap(table, 5.0)
        assert np.max(clipped.scan(1.0)) > np.max(clipped.unbounded) * (1.0 + 1e-3)

    @pytest.mark.parametrize("N, L, steps", [
        (2, 4.0, [(17, 0), (5, -18)]),  # 2|k| >= M = 33: the translates do not overlap
        (3, 2.0, [(9, 0, 0), (-3, 10, 2)]),  # M = 17
    ])
    def test_far_steps_match_built_fields(self, ground_profile, N, L, steps):
        # steps no SphereMap reaches; no one-layer slivers, whose summed-area
        # differences lose digits
        grid = build_grid(ProblemSpec(N=N, p=4.0, L=L, h=0.25))
        w = profile_on_grid(ground_profile, grid) if N == 2 else smooth_field(grid)
        box, _ = TranslationTable(w, 4.0).energies(steps, 1.0)
        ref = [energy_J(lp_normalize(GridFunction(
            grid, translate(w, k).values - translate(w, tuple(-s for s in k)).values), 4.0), 1.0)
            for k in steps]
        assert box == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("k", [31, -31, 40])
    def test_step_that_keeps_no_interior_node_rejected(self, k):
        # the M - 2 interior nodes of an axis are all moved out by |k| >= M - 2
        grid = build_grid(ProblemSpec(N=2, p=4.0, L=4.0, h=0.25))
        table = TranslationTable(smooth_field(grid), 4.0)
        with pytest.raises(PathError, match="keeps no interior node"):
            table.energies([(3, 1), (1, k)], 1.0)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("N, L, R, parity", [
        (2, 6.0, 5.75, (EVEN, EVEN)),  # R near L: every translate is clipped
        (2, 6.0, 2.0, (EVEN, EVEN)),
        (2, 6.0, 5.75, (FULL, EVEN)),  # even along one axis only
        (3, 3.0, 2.75, (EVEN, EVEN, EVEN)),
    ])
    def test_folded_table_matches_the_unfolded_one(self, N, L, R, parity, p):
        grid = build_grid(ProblemSpec(N=N, p=p, L=L, h=0.25))
        w = even_field(grid, parity)
        folded = SphereMap(TranslationTable(w, p), R)
        full = SphereMap(TranslationTable(GridFunction(grid, w.grid.unfold(w.values)), p), R)
        assert folded.scan(1.0) == pytest.approx(full.scan(1.0), rel=1e-12, abs=0.0)
        assert folded.unbounded == pytest.approx(full.unbounded, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("N, L, steps", [
        (2, 4.0, [(17, 0), (5, -18), (-16, 17)]),  # 2|k_a| >= M = 33 on some axis
        (3, 2.0, [(9, 0, 0), (-3, 10, 2)]),  # M = 17
    ])
    def test_folded_far_steps_match_the_unfolded_table(self, N, L, steps, p):
        grid = build_grid(ProblemSpec(N=N, p=p, L=L, h=0.25))
        w = even_field(grid, (EVEN,) * N)
        folded = TranslationTable(w, p).energies(steps, 1.0)
        full = TranslationTable(GridFunction(grid, w.grid.unfold(w.values)), p).energies(steps, 1.0)
        for got, ref in zip(folded, full):
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_mirror_steps_are_evaluated_once_in_input_order(self, monkeypatch):
        grid = build_grid(ProblemSpec(N=2, p=4.0, L=6.0, h=0.25))
        table = TranslationTable(even_field(grid, (EVEN, EVEN)), 4.0)
        evaluated, distinct = [], table._distinct_energies

        def recording(steps, Vinf):
            evaluated.append(len(steps))
            return distinct(steps, Vinf)

        monkeypatch.setattr(table, "_distinct_energies", recording)
        steps = [(7, 3), (5, 11), (-7, 3), (7, -3), (-7, -3), (-5, 11)]
        box, unbounded = table.energies(steps, 1.0)
        assert evaluated == [2]  # |k| = (7, 3) and (5, 11)
        for got in (box, unbounded):
            assert got[0] == got[2] == got[3] == got[4] != got[1] == got[5]
        alone = [table.energies([k], 1.0) for k in steps]
        assert box.tolist() == [b[0] for b, _ in alone]
        assert unbounded.tolist() == [u[0] for _, u in alone]

    def test_folded_table_peak_memory(self, ground_profile):
        # the unfolded w, w^2 and w^3, H w, and the orthant's summed-area
        # tables; with those tables on the full grid it was 8.6 arrays
        grid = build_grid(ProblemSpec(N=2, p=4.0, L=16.0, h=0.125))
        w = profile_on_grid(ground_profile, grid.fold((EVEN, EVEN)))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            table = TranslationTable(w, 4.0)
            for R in (6.0, 9.0, 12.0):
                SphereMap(table, R).scan(1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / (grid.size * 8) < 6.0


def even_field(grid, parity):
    """An anisotropic field on the fold of `grid` to `parity`: even along its
    EVEN axes, not along the first axis where that is FULL, and far from zero
    at the wall of a small box."""
    half = grid.fold(parity)
    x = half.coords()
    r2 = sum(xi * xi * (i + 1) for i, xi in enumerate(x)) / 8.0
    tilt = np.cos(x[0]) if parity[0] == EVEN else np.sin(x[0])
    return GridFunction(half, np.exp(-r2) * (1.5 + tilt))


def bump_pair(N, L, h):
    """(w1, winf, V) on a grid of half-width L: an asymmetric bump, the same
    bump normalized, and V under an exponential well."""
    spec = ProblemSpec(N=N, p=4.0, Vinf=1.0, L=L, h=h, W=WSpec(family="exponential",
                                                                c=0.5, a=0.5))
    grid = build_grid(spec)
    x = grid.coords()
    r2 = sum((xi - 0.3 * (i + 1)) ** 2 for i, xi in enumerate(x))
    winf = GridFunction(grid, np.exp(-np.sqrt(r2 + 1.0)) * (1.5 + 0.5 * np.sin(x[0])))
    return winf, potential_values(spec, grid)


class TestTranslatedBumps:
    """The sweep's closed form against J of the fields that
    `translated_bump_path` builds, with no grid array per translation."""

    @pytest.mark.parametrize("p", [3.0, 4.0, 6.0])
    @pytest.mark.parametrize("N, L, h", [(2, 6.0, 0.25), (3, 4.0, 0.25)])
    def test_agrees_with_built_fields(self, N, L, h, p, monkeypatch):
        winf, V = bump_pair(N, L, h)
        w1 = lp_normalize(winf, p)
        built = counted(PathFamily.at)
        monkeypatch.setattr(PathFamily, "at", lambda self, theta: built(self, theta))
        bumps = TranslatedBumps(w1, winf, V, p)
        for y in (h, 4.0, -6.0, 2 * L - 2 * h):
            before = built.calls
            mx, theta = path_max_J(bumps.path(y), V, MIN_THETA_SAMPLES)
            family = translated_bump_path(w1, winf, (y,) + (0.0,) * (N - 1), p)
            assert mx == pytest.approx(energy_J(family.at(theta), V), rel=1e-12, abs=0.0)
            # one node apart the moments cancel, and the field at the argmax is built
            assert built.calls - before == (2 if y == h else 1)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_degenerate_path_rejected(self, p, sign):
        winf, V = bump_pair(2, 6.0, 0.25)
        w1 = lp_normalize(GridFunction(winf.grid, sign * winf.values), p)
        with pytest.raises(PathError, match="degenerate"):
            path_max_J(TranslatedBumps(w1, winf, V, p).path(0.0), V)

    def test_path_takes_the_sweeps_potential(self):
        # the closed form is J under the sweep's V, so another V, even an
        # equal copy, would pair its samples with a field built under that V
        winf, V = bump_pair(2, 6.0, 0.25)
        bumps = TranslatedBumps(lp_normalize(winf, 4.0), winf, V, 4.0)
        with pytest.raises(PathError, match="potential of its sweep"):
            path_max_J(bumps.path(2.0), V.copy())
        assert path_max_J(bumps.path(2.0), V)[0] > 0.0

    @pytest.mark.parametrize("p", [3.0, 3.5, 4.0])
    def test_sweep_builds_no_field_at_any_p(self, p, monkeypatch):
        # for p not an even integer the mass takes one lp_mass pass per angle
        winf, V = bump_pair(2, 6.0, 0.25)
        w1 = lp_normalize(winf, p)

        def forbidden(*args):
            raise AssertionError("the sweep built a field")

        names = ("GridFunction", "translate", "lp_normalize") + (("lp_mass",) if p == 4.0 else ())
        for name in names:
            monkeypatch.setattr(pathlab, name, forbidden)
        bounds = lambda2_bounds(V, p, w1, 3.0, winf, 4.0, 0.1, y_sweep=(2.0, -3.0, 5.0))
        assert len(bounds.sweep) == 3

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_one_H_application_per_sweep(self, p, monkeypatch):
        winf, V = bump_pair(2, 6.0, 0.25)
        apply_H = counted(pathlab._apply_H)
        monkeypatch.setattr(pathlab, "_apply_H", lambda *args, **kw: apply_H(*args, **kw))
        lambda2_bounds(V, p, lp_normalize(winf, p), 3.0, winf, 4.0, 0.1,
                       y_sweep=(2.0, -3.0, 5.0), samples=MIN_THETA_SAMPLES)
        assert apply_H.calls == 1

    def test_sweep_peak_memory(self):
        # H w1 and the temporaries of the H application that makes it; a grid
        # field per translation made it 4.0 arrays
        winf, V = bump_pair(3, 4.0, 0.25)
        w1 = lp_normalize(winf, 4.0)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            lambda2_bounds(V, 4.0, w1, 3.0, winf, 4.0, 0.1, y_sweep=(1.0, 2.0, 3.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / (winf.grid.size * 8) <= 2.3

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_path_family_energy_peak_memory(self, p):
        # H u1 and the temporaries of the H application that makes it
        winf, V = bump_pair(3, 4.0, 0.25)
        u1 = lp_normalize(winf, p)
        u2 = lp_normalize(translate(winf, (1.0, 0.0, 0.0)), p)
        path = PathFamily(u1, u2, p)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            path.energy(V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / (winf.grid.size * 8) <= 2.1

    @pytest.mark.parametrize("folded", [False, True])
    @pytest.mark.parametrize("k", [31, -31, 40])
    def test_step_that_keeps_no_layer_rejected(self, k, folded):
        # the M - 2 = 31 interior layers are all moved out by |k| >= 31, as in
        # the translation table
        winf, w1, V = even_pair(2, 4.0, 0.25, 4.0, folded)
        with pytest.raises(PathError, match="keeps no interior node"):
            TranslatedBumps(w1, winf, V, 4.0).energy((k, 0))

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("N, L", [(2, 6.0), (3, 4.0)])
    def test_folded_sweep_matches_the_full_grid(self, N, L, p):
        # the orthant fields of a radial well against their unfolded copies;
        # y = h cancels and builds the field at the argmax, 2L - 2h keeps one layer
        h = 0.25
        folded = TranslatedBumps(*even_pair(N, L, h, p, True), p)
        full = TranslatedBumps(*even_pair(N, L, h, p, False), p)
        assert folded.half.shape == (2 * round(L / h) + 1,) + (round(L / h) + 1,) * (N - 1)
        assert full.half.shape == full.grid.shape
        for y in (h, 1.0, L / 2, L, 2 * L - 2 * h):
            got = path_max_J(folded.path(y), folded.V, MIN_THETA_SAMPLES)[0]
            ref = path_max_J(full.path(y), full.V, MIN_THETA_SAMPLES)[0]
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), y

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_no_einsum_takes_more_than_three_operands(self, p, monkeypatch):
        # numpy contracts four or more operands in its generic loop, several
        # times slower than three
        einsum, operands = np.einsum, []

        def recording(subscripts, *arrays, **kwargs):
            operands.append(len(arrays))
            return einsum(subscripts, *arrays, **kwargs)

        monkeypatch.setattr(np, "einsum", recording)
        winf, w1, V = even_pair(2, 6.0, 0.25, p, True)
        lambda2_bounds(V, p, w1, 3.0, winf, 4.0, 0.1, y_sweep=(2.0, 5.0),
                       samples=MIN_THETA_SAMPLES)
        TranslationTable(smooth_field(build_grid(ProblemSpec(N=2, p=p, L=4.0, h=0.25))),
                         p).energies([(3, 1), (-2, 5)], 1.0)
        assert operands and max(operands) <= 3


def even_pair(N, L, h, p, folded):
    """(w_inf, w1, V) of a radial exponential well, on the orthant of the
    grid (`folded`) or unfolded to the whole grid: two different radial
    bumps on the unit L^p sphere of the orthant."""
    spec = ProblemSpec(N=N, p=p, Vinf=1.0, L=L, h=h, W=WSpec(family="exponential",
                                                               c=0.5, a=0.5))
    grid = build_grid(spec)
    half = grid.fold((EVEN,) * N)
    r = half.radius()
    fields = [lp_normalize(GridFunction(half, f), p)
              for f in (np.exp(-np.sqrt(r * r + 1.0)), np.exp(-0.3 * r * r))]
    V = potential_values(spec, half)
    if folded:
        return (*fields, V)
    return (*[GridFunction(grid, half.unfold(u.values)) for u in fields], half.unfold(V))


def counted(fn):
    """Wrap fn, counting its calls in the wrapper's `calls` attribute."""
    def wrapper(*args, **kwargs):
        wrapper.calls += 1
        return fn(*args, **kwargs)
    wrapper.calls = 0
    return wrapper


def recorded_search_steps(monkeypatch):
    """Patch the golden-section search to append, per search, the number of
    times it calls f to the returned list."""
    steps, search = [], pathlab._golden_max

    def recording(f, lo, hi):
        f = counted(f)
        res = search(f, lo, hi)
        steps.append(f.calls)
        return res

    monkeypatch.setattr(pathlab, "_golden_max", recording)
    return steps


class TestNoProbeEvaluations:
    """Scans and path maxima read the grid from the map or path, so they
    evaluate only the points they report or search."""

    def test_even_p_sphere_scan_builds_no_field(self, spec, left, monkeypatch):
        # every direction's J^inf is summed from the translation table
        def forbidden(*args):
            raise AssertionError("a sphere scan built a field")

        for name in ("GridFunction", "translate", "lp_normalize", "lp_mass"):
            monkeypatch.setattr(pathlab, name, forbidden)
        sm = SphereMap(TranslationTable(left, 4.0), 3.0)
        assert len(sm.scan(spec.Vinf)) == SPHERE_SAMPLES

    def test_path_max_evaluates_angles_and_search_steps_only(self, spec, grid, left, right,
                                                              monkeypatch):
        # a sampled path has no closed form, so it builds one field per angle,
        # and reports J of the field it built at the argmax
        steps = recorded_search_steps(monkeypatch)
        path = SampledPath.from_path(PathFamily(left, right, 4.0), 64, 4.0)
        path.at = counted(path.at)
        path_max_J(path, potential_values(spec, grid))
        assert len(steps) == 1
        assert path.at.calls == THETA_SAMPLES + steps[0]

    def test_path_family_max_evaluates_the_sample_array_once(self, spec, grid, left, right,
                                                              monkeypatch):
        # one call on all the samples, then one scalar call per search step
        steps = recorded_search_steps(monkeypatch)
        path = PathFamily(left, right, 4.0)
        shapes, energy = [], path.energy

        def recorded_energy(V):
            J = energy(V)

            def f(theta):
                shapes.append(np.shape(theta))
                return J(theta)
            return f

        path.energy = recorded_energy
        path_max_J(path, potential_values(spec, grid))
        assert len(steps) == 1
        assert shapes == [(THETA_SAMPLES,)] + [()] * steps[0]

    def test_path_family_max_builds_no_field_per_angle(self, spec, grid, left, right,
                                                       monkeypatch):
        counts = []
        for samples in (MIN_THETA_SAMPLES, THETA_SAMPLES):
            normalize = counted(pathlab.lp_normalize)
            monkeypatch.setattr(pathlab, "lp_normalize", normalize)
            path = PathFamily(left, right, 4.0)
            path.at = counted(path.at)
            path_max_J(path, potential_values(spec, grid), samples)
            counts.append((path.at.calls, normalize.calls))
        # the closed form at the argmax is reported; its mass does not cancel
        assert counts == [(0, 0), (0, 0)]
