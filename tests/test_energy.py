import math
import tracemalloc

import numpy as np
import pytest

from minimaxlab import (GridFunction, ProblemSpec, WSpec, build_grid, dual_norm_W,
                        energy_J, lp_normalize, mass_I, translate)
from minimaxlab.energy import (_apply_H, _energy, _pair, _ShiftedPoissonSolver, _sphere_gradient,
                               deviation_bound, euler_lagrange_residual, inner_l2)
from minimaxlab.domain import EVEN, FULL, Grid, eval_W, lp_mass, potential_values, zero_boundary
from minimaxlab.field import FieldError
from minimaxlab.groundstate import minimize_lambda1, profile_on_grid
from minimaxlab.pathlab import (SampledPath, SphereMap, TranslationTable, path_max_J,
                                translated_bump_path)


@pytest.fixture(scope="module")
def spec():
    return ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.125)


@pytest.fixture(scope="module")
def grid(spec):
    return build_grid(spec)


@pytest.fixture(scope="module")
def specs(spec):
    """The 2-D spec and a small 3-D one, for kernels that must hold in both."""
    return spec, ProblemSpec(N=3, p=4.0, Vinf=1.0, L=3.0, h=0.25)


def link_kinetic(v, h):
    """Link sum of squared forward differences: the independent oracle for
    h^N <v, -Delta_h v>, which summation by parts makes equal for v zero on
    the boundary."""
    return sum(float(np.sum(np.diff(v, axis=ax) ** 2)) for ax in range(v.ndim)) * h ** (v.ndim - 2)


def gaussian(grid, width=1.0):
    r2 = sum(x * x for x in grid.coords())
    return GridFunction(grid, np.exp(-r2 / (2.0 * width ** 2)))


class TestMassI:
    def test_matches_norm_power(self, grid):
        from minimaxlab import lp_norm

        u = gaussian(grid)
        assert mass_I(u, 4.0) == pytest.approx(lp_norm(u, 4.0) ** 4, rel=1e-12)

    def test_homogeneity_degree_p(self, grid):
        u = gaussian(grid)
        v = GridFunction(grid, 2.0 * u.values)
        assert mass_I(v, 4.0) == pytest.approx(16.0 * mass_I(u, 4.0), rel=1e-12)


class TestKineticEnergy:
    """J with V = 0 is the kinetic term h^N <v, -Delta_h v>."""

    def test_zero_field(self, grid):
        assert _energy(np.zeros(grid.shape), 0.0, grid.h) == 0.0

    def test_single_node_spike(self, grid):
        # one interior node of height 1 has 2N links of slope 1/h
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = 1.0
        expected = 2 * grid.N * (1.0 / grid.h) ** 2 * grid.weight
        assert _energy(vals, 0.0, grid.h) == pytest.approx(expected, rel=1e-14)

    def test_gaussian_against_closed_form(self):
        # int |grad e^{-r^2/2}|^2 = int r^2 e^{-r^2} = pi in the plane
        g = build_grid(ProblemSpec(N=2, p=4.0, Vinf=1.0, L=12.0, h=0.0625))
        assert _energy(gaussian(g).values, 0.0, g.h) == pytest.approx(math.pi, rel=2e-3)

    def test_additivity_for_separated_supports(self, grid):
        x, y = grid.coords()
        a = GridFunction(grid, np.where((x + 3) ** 2 + y ** 2 < 1,
                                        np.cos(x + 3) * np.cos(y), 0.0))
        b = GridFunction(grid, np.where((x - 3) ** 2 + y ** 2 < 1,
                                        np.sin(2 * (x - 3)) * np.cos(y), 0.0))
        both = GridFunction(grid, a.values + b.values)
        assert _energy(both.values, 0.0, grid.h) == pytest.approx(
            _energy(a.values, 0.0, grid.h) + _energy(b.values, 0.0, grid.h), rel=1e-13)


class TestEnergyJ:
    def test_breakdown_consistency(self, spec, grid):
        u, V = gaussian(grid), potential_values(spec, grid)
        J = energy_J(u, V)
        assert isinstance(J, float)
        potential = float(np.sum(V * u.values * u.values)) * grid.weight
        assert J == pytest.approx(link_kinetic(u.values, grid.h) + potential, rel=1e-14)

    def test_autonomous_equals_total_when_W_zero(self, spec, grid):
        # with W = 0, J equals its autonomous value: kinetic plus Vinf |u|_2^2
        u = gaussian(grid)
        J = energy_J(u, potential_values(spec, grid))
        Jinf = link_kinetic(u.values, grid.h) + spec.Vinf * lp_mass(u.values, 2.0, grid.weight)
        assert J == pytest.approx(Jinf, abs=1e-12 * J)

    def test_penalty_lowers_energy(self):
        base = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.125)
        pen = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.125,
                          W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(base)
        u = gaussian(grid)
        assert energy_J(u, potential_values(pen, grid)) < energy_J(u, potential_values(base, grid))

    def test_gaussian_closed_form(self):
        # for u = e^{-r^2/2}: kinetic = pi, potential (V = 1) = pi
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=12.0, h=0.0625)
        grid = build_grid(spec)
        u = gaussian(grid).values
        assert link_kinetic(u, grid.h) == pytest.approx(math.pi, rel=2e-3)
        assert _pair(u, potential_values(spec, grid) * u, grid.h) == pytest.approx(
            math.pi, rel=1e-6)

    def test_translation_invariance_autonomous(self, spec, grid):
        x, y = grid.coords()
        r2 = (x ** 2 + y ** 2) / 1.0
        u = GridFunction(grid, np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0))
        v = translate(u, (2.0, -1.0))
        V = potential_values(spec, grid)
        assert energy_J(v, V) == pytest.approx(energy_J(u, V), rel=1e-14)


def deep_interior(grid, depth=2):
    mask = np.zeros(grid.shape, dtype=bool)
    mask[(slice(depth, -depth),) * grid.N] = True
    return mask


class TestLaplacian:
    """-Delta_h is H with V = 0."""

    def test_annihilates_linear_interior(self, grid):
        x, y = grid.coords()
        u = GridFunction(grid, 2.0 * x + 3.0 * y)
        lap = _apply_H(u.values, 0.0, grid.h)
        # away from the zeroed boundary rows the stencil kills affine fields
        assert np.max(np.abs(lap[deep_interior(grid)])) < 1e-10

    def test_quadratic_exact(self, grid):
        x, y = grid.coords()
        u = GridFunction(grid, x ** 2 - y ** 2)
        lap = _apply_H(u.values, 0.0, grid.h)
        # the five point stencil is exact on harmonic quadratics
        assert np.max(np.abs(lap[deep_interior(grid)])) < 1e-9

    def test_symmetric_operator(self, specs, rng):
        for grid in map(build_grid, specs):
            a = GridFunction(grid, rng.standard_normal(grid.shape))
            b = GridFunction(grid, rng.standard_normal(grid.shape))
            lhs = inner_l2(GridFunction(grid, _apply_H(a.values, 0.0, grid.h)), b)
            rhs = inner_l2(a, GridFunction(grid, _apply_H(b.values, 0.0, grid.h)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_dirichlet_form_identity(self, specs, rng):
        # sum h^N (-lap u) u equals the link quadrature of |grad u|^2
        for grid in map(build_grid, specs):
            u = GridFunction(grid, rng.standard_normal(grid.shape))
            quad_form = inner_l2(GridFunction(grid, _apply_H(u.values, 0.0, grid.h)), u)
            assert quad_form == pytest.approx(link_kinetic(u.values, grid.h), rel=1e-12)


class TestShiftedPoissonSolver:
    @pytest.mark.parametrize("parity, L, Vinf", [
        pytest.param((FULL,), 8.0, 2.0, id="1-8.0-0.25-2.0"),
        pytest.param((FULL,) * 2, 8.0, 1.0, id="2-8.0-0.25-1.0"),
        pytest.param((FULL,) * 3, 4.0, 0.5, id="3-4.0-0.25-0.5"),
        pytest.param((EVEN,), 8.0, 2.0, id="1-8.0-0.25-2.0-orthant"),
        pytest.param((EVEN,) * 2, 8.0, 1.0, id="2-8.0-0.25-1.0-orthant"),
        pytest.param((EVEN,) * 3, 4.0, 0.5, id="3-4.0-0.25-0.5-orthant"),
        pytest.param((FULL, EVEN), 8.0, 1.0, id="2-8.0-0.25-1.0-half"),
        pytest.param((FULL, EVEN, EVEN), 4.0, 0.5, id="3-4.0-0.25-0.5-half")])
    def test_inverts_shifted_laplacian(self, parity, L, Vinf):
        # on a folded grid (`domain.Grid`) only the last index of an EVEN axis
        # is boundary, and H takes the neighbour across its mirror plane
        h = 0.25
        grid = Grid(len(parity), L, h, parity)
        g = zero_boundary(np.random.default_rng(grid.N).standard_normal(grid.shape), parity)
        g0 = g.copy()
        d = _ShiftedPoissonSolver(grid.shape, h, Vinf, parity).solve(g, np.empty_like(g))
        assert np.array_equal(g, g0)
        assert np.array_equal(zero_boundary(d.copy(), parity), d)
        back = _apply_H(d, Vinf, h, parity=parity)
        assert np.max(np.abs(back - g)) <= 1e-12 * np.max(np.abs(g))

    @pytest.mark.parametrize("shape", [(65,), (129, 129), (33, 33, 33), (65, 65, 65)])
    def test_blocked_division_matches_the_row_loop(self, shape):
        # 127 and 31 interior rows are not multiples of the 31 and 3 rows per
        # block, so the last block is ragged; N = 1 divides by a float, and a
        # 65^3 row fills a block alone
        P = _ShiftedPoissonSolver(shape, 0.25, 1.0)
        sizes = [np.size(mu) for _, mu in P._blocks]
        assert sum(sizes) == shape[0] - 2
        assert len(set(sizes)) == (1 if shape[0] == 65 else 2)
        g = zero_boundary(np.random.default_rng(len(shape)).standard_normal(shape))
        mid = P._dst(g, np.empty_like(g), np.empty_like(g))
        for i in range(1, len(mid) - 1):
            mid[i] /= P._mu[0][i] + P._rest
        ref = P._dst(mid, np.empty_like(g), np.empty_like(g))
        assert np.array_equal(P.solve(g, np.empty_like(g)), ref)

    def test_solver_memory_on_the_desk_orthant(self):
        # four 129^2 basis matrices, shared by both axes, and one grid buffer;
        # a basis built per axis would hold nine grid arrays
        grid = Grid(2, 16.0, 0.125, (EVEN, EVEN))
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            P = _ShiftedPoissonSolver(grid.shape, grid.h, 1.0, grid.parity)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert P._buf.shape == (129, 129)
        assert (held - entry) / P._buf.nbytes <= 5.1

    @pytest.mark.parametrize("shape", [(257, 257), (33, 33, 33)])
    def test_transform_is_dst1(self, shape):
        # boundary values of the input are ignored; scipy's DST-I carries a
        # factor 2 per axis
        scipy_fft = pytest.importorskip("scipy.fft")
        a = np.random.default_rng(len(shape)).standard_normal(shape)
        interior = (slice(1, -1),) * len(shape)
        ref = scipy_fft.dstn(a[interior], type=1)
        out = _ShiftedPoissonSolver(shape, 0.25, 1.0)._dst(a, np.empty_like(a), np.empty_like(a))
        out *= 2.0 ** len(shape)
        assert np.max(np.abs(out[interior] - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.array_equal(zero_boundary(out.copy()), out)


def even_field(N, L, h, seed):
    """A rough zero-boundary grid array that equals its mirror image along
    every axis, and its orthant from the centre node."""
    grid = Grid(N, L, h)
    a = np.random.default_rng(seed).standard_normal(grid.shape)
    for ax in range(N):
        a = a + np.flip(a, ax)
    a = zero_boundary(a)
    return a, np.ascontiguousarray(a[(slice(grid.origin_index[0], None),) * N])


class TestMirrorForm:
    """On the orthant of an even array, H's mirror form, the node-weighted
    sums and the folded solver give the full grid's values on that orthant."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_H_is_the_orthant_of_H(self, N):
        v, vo = even_field(N, 4.0, 0.25, N)
        V, Vo = even_field(N, 4.0, 0.25, N + 10)
        m = v.shape[0] // 2
        Hv = _apply_H(v, V, 0.25)
        # the same subtractions in the same order, so the same bits
        assert np.array_equal(_apply_H(vo, Vo, 0.25, parity=(EVEN,) * N),
                              Hv[(slice(m, None),) * N])

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_node_weighted_sums_match_the_full_grid(self, N):
        v, vo = even_field(N, 4.0, 0.25, N)
        parity = (EVEN,) * N
        h = 0.25
        Hv, Hvo = _apply_H(v, 1.0, h), _apply_H(vo, 1.0, h, parity=parity)
        assert _pair(vo, Hvo, h, parity) == pytest.approx(_pair(v, Hv, h), rel=1e-13)
        for p in (4.0, 3.0):
            assert lp_mass(vo, p, h ** N, parity) == pytest.approx(lp_mass(v, p, h ** N),
                                                                  rel=1e-13)

    @pytest.mark.parametrize("parity", [
        pytest.param((EVEN,), id="1"), pytest.param((EVEN,) * 2, id="2"),
        pytest.param((EVEN,) * 3, id="3"), pytest.param((FULL, EVEN), id="2-half"),
        pytest.param((FULL, EVEN, EVEN), id="3-half")])
    def test_folded_solver_is_the_orthant_of_the_solver(self, parity):
        # the orthant, or on the half grid x >= 0 along the EVEN axes only
        N = len(parity)
        g, _ = even_field(N, 4.0, 0.25, N)
        m = g.shape[0] // 2
        fold = tuple(slice(m, None) if kind == EVEN else slice(None) for kind in parity)
        go = np.ascontiguousarray(g[fold])
        d = _ShiftedPoissonSolver(g.shape, 0.25, 1.0).solve(g, np.empty_like(g))
        do = _ShiftedPoissonSolver(go.shape, 0.25, 1.0, parity).solve(go, np.empty_like(go))
        assert np.max(np.abs(do - d[fold])) <= 1e-13 * np.max(np.abs(d))


class TestFoldedFields:
    """A field on a folded grid (`domain.Grid`) has the full grid's J, mass,
    pairings, residual and deviation, to rounding."""

    @pytest.mark.parametrize("parity", [(EVEN, EVEN, EVEN), (FULL, EVEN, EVEN),
                                        (EVEN, FULL, EVEN)])
    def test_functionals_match_the_full_grid(self, parity):
        p, Vinf = 4.0, 1.0
        spec = ProblemSpec(N=3, p=p, Vinf=Vinf, L=3.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        half = grid.fold(parity)
        v, _ = even_field(3, 3.0, 0.25, 5)
        orthant = tuple(slice(m, None) if kind == EVEN else slice(None)
                        for m, kind in zip(grid.origin_index, parity))
        u = lp_normalize(GridFunction(grid, v), p)
        uh = lp_normalize(GridFunction(half, v[orthant]), p)
        assert np.array_equal(half.unfold(v[orthant]), v)
        V, Vh = potential_values(spec, grid), potential_values(spec, half)
        assert np.array_equal(Vh, V[orthant])
        for f in (lambda w, V: energy_J(w, V), lambda w, V: mass_I(w, p),
                  lambda w, V: inner_l2(w, w),
                  lambda w, V: euler_lagrange_residual(w, 3.0, V, p),
                  lambda w, V: deviation_bound(w, V, Vinf, p)):
            assert f(uh, Vh) == pytest.approx(f(u, V), rel=1e-13, abs=0.0)
        assert dual_norm_W(Vinf - Vh, spec.q, half.weight, half.parity) == pytest.approx(
            dual_norm_W(Vinf - V, spec.q, grid.weight), rel=1e-13, abs=0.0)


def sphere_gradient(u, V, p):
    """The sphere gradient of J at u, with J = J(u), as the descent forms it."""
    v, h = u.values, u.grid.h
    Hv = _apply_H(v, V, h)
    return GridFunction(u.grid, _sphere_gradient(v, Hv, _pair(v, Hv, h), p))


class TestManifoldGradient:
    """`_sphere_gradient` is the gradient of J on the constraint sphere: its
    pairing with any direction v is d/dt J(normalize(u + t v)) at t = 0."""

    def test_pairing_matches_directional_derivative(self, specs, rng):
        for spec in specs:
            grid = build_grid(spec)
            V = potential_values(spec, grid)
            u = lp_normalize(gaussian(grid), spec.p)
            g = sphere_gradient(u, V, spec.p)
            v = GridFunction(grid, rng.standard_normal(grid.shape))
            t = 1e-6
            fp = energy_J(lp_normalize(GridFunction(grid, u.values + t * v.values),
                                       spec.p), V)
            fm = energy_J(lp_normalize(GridFunction(grid, u.values - t * v.values),
                                       spec.p), V)
            assert (fp - fm) / (2 * t) == pytest.approx(inner_l2(g, v), rel=1e-5)

    def test_radial_direction_annihilated(self, spec, grid):
        # scaling u does not move normalize(u + t u), so the pairing with u is 0
        u = lp_normalize(gaussian(grid), spec.p)
        g = sphere_gradient(u, potential_values(spec, grid), spec.p)
        scale = math.sqrt(inner_l2(g, g) * inner_l2(u, u))
        assert abs(inner_l2(g, u)) < 1e-10 * max(scale, 1.0)


class TestOneEnergyKernel:
    """The descent evaluates J through one kernel, so its level equals
    energy_J of its minimizer bit for bit; path maxima report the closed form
    at the argmax (or, for a sampled path, J of the field built there), and
    sphere scans sum J^inf from a translation table, which agree with it to
    rounding."""

    def test_levels_equal_energy_J(self, ground_profile):
        well = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(well)
        V = potential_values(well, grid)
        winf = profile_on_grid(ground_profile, grid)
        res = minimize_lambda1(V, well.Vinf, well.p, grid, seed=winf)
        assert res.level == energy_J(res.minimizer, V)

        path = translated_bump_path(res.minimizer, winf, (4.0, 0.0), well.p)
        mx, theta = path_max_J(path, V, samples=64)
        assert mx == pytest.approx(energy_J(path.at(theta), V), rel=1e-12, abs=0.0)
        sampled = SampledPath.from_path(path, 64, well.p)
        mx, theta = path_max_J(sampled, V, samples=64)
        assert mx == energy_J(sampled.at(theta), V)

        sphere = SphereMap(TranslationTable(winf, well.p), 3.0)
        for y, energy in zip(sphere.points, sphere.scan(well.Vinf)):
            assert energy == pytest.approx(energy_J(sphere.at(y), well.Vinf), rel=1e-12)


class TestInPlaceKernels:
    """The kernels build their results in place, in the operation order of the
    plain expressions below, which stay here as the reference."""

    @pytest.mark.parametrize("p", [4.0, 3.0])
    def test_bit_identical_to_expressions(self, specs, rng, p):
        for s in specs:
            g = build_grid(s)
            v = zero_boundary(rng.standard_normal(g.shape))
            V = 1.0 - zero_boundary(rng.random(g.shape))
            J = 3.7
            stencil = 2.0 * v.ndim * v
            for ax in range(v.ndim):
                stencil = stencil - np.roll(v, -1, axis=ax) - np.roll(v, 1, axis=ax)
            H = zero_boundary(stencil / (s.h * s.h) + V * v)
            assert np.array_equal(_apply_H(v, V, s.h), H)
            assert _energy(v, V, s.h) == float(np.sum(v * H) * s.h ** v.ndim)
            assert np.array_equal(_sphere_gradient(v, H.copy(), J, p),
                                  2.0 * (H - J * np.abs(v) ** (p - 2) * v))
            assert lp_mass(v, p, g.weight) == float(np.sum((v * v) ** (p / 2.0)) * g.weight)

    @pytest.mark.parametrize("V", [1.5, "array"])
    def test_apply_H_adds_V_v_a_block_at_a_time(self, V):
        # one grid array above entry for H v, one row block (33 KB) for V v
        # and numpy's iterator buffers for the strided stencil passes (about
        # 0.2 MB); forming V v whole made it 2.1 grid arrays
        v = zero_boundary(np.random.default_rng(3).standard_normal((65,) * 3))
        V = 1.0 + np.abs(v) if V == "array" else V
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            _apply_H(v, V, 0.25, parity=(FULL, EVEN, EVEN))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / v.nbytes <= 1.15

    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_lp_mass_matches_the_abs_power_sum(self, specs, rng, p):
        # (v^2)^(p/2) and |v|^p differ by about an ulp per node, so the sums agree to rounding
        for s in specs:
            g = build_grid(s)
            v = zero_boundary(rng.standard_normal(g.shape))
            ref = float(np.sum(np.abs(v) ** p) * g.weight)
            assert lp_mass(v, p, g.weight) == pytest.approx(ref, rel=1e-15, abs=0.0)


class TestEulerLagrangeResidual:
    def test_small_at_converged_minimizer(self, spec0, grid0, descent0):
        res = euler_lagrange_residual(descent0.minimizer, descent0.level,
                                      potential_values(spec0, grid0), spec0.p)
        assert res < 1e-6

    def test_wrong_multiplier_detected(self, spec0, grid0, descent0):
        res = euler_lagrange_residual(descent0.minimizer, 2.0 * descent0.level,
                                      potential_values(spec0, grid0), spec0.p)
        assert res > 1.0

    @pytest.mark.parametrize("W", [WSpec(family="exponential", c=0.5, a=0.5), WSpec()],
                             ids=["exponential", "zero"])
    def test_half_the_descent_gradient_norm(self, W):
        # the descent stops on the norm of the sphere gradient 2(H u - J |u|^(p-2) u),
        # node-weighted on the orthant of a folded run; the residual is half its
        # norm on the full grid
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25, W=W)
        grid = build_grid(spec)
        half = grid.fold((EVEN,) * 2)
        V = potential_values(spec, half)
        res = minimize_lambda1(V, spec.Vinf, spec.p, half)
        assert res.minimizer.values.size < grid.size  # folded
        assert euler_lagrange_residual(res.minimizer, res.level, V, spec.p) == pytest.approx(
            0.5 * res.gradient_norm, rel=1e-6)


class TestDeviationBound:
    def test_zero_W(self, spec, grid):
        u = lp_normalize(gaussian(grid), spec.p)
        assert dual_norm_W(eval_W(spec, grid), spec.q, grid.weight) == 0.0
        assert deviation_bound(u, potential_values(spec, grid), spec.Vinf, spec.p) <= 1e-12

    def test_off_sphere_rejected(self, spec, grid):
        with pytest.raises(FieldError):
            deviation_bound(gaussian(grid), potential_values(spec, grid), spec.Vinf, spec.p)

    def test_holder_inequality_random_fields(self, rng):
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        w = eval_W(spec, grid)
        V, wnorm = spec.Vinf - w, dual_norm_W(w, spec.q, grid.weight)
        for _ in range(25):
            u = lp_normalize(GridFunction(grid, rng.standard_normal(grid.shape)),
                             spec.p)
            dev = deviation_bound(u, V, spec.Vinf, spec.p)
            # J - Jinf = -sum W u^2 h^N: the kinetic terms cancel
            assert dev == pytest.approx(abs(np.sum(w * u.values ** 2) * grid.weight),
                                        rel=1e-12)
            assert dev <= wnorm * (1.0 + 1e-12)

    def test_bound_tight_for_aligned_field(self):
        # equality in Holder: |u|^2 proportional to W^{q/2}, here q = 2 so u^2 ~ W
        spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.125,
                           W=WSpec(family="exponential", c=0.5, a=0.5))
        grid = build_grid(spec)
        w = eval_W(spec, grid)
        u = lp_normalize(GridFunction(grid, np.sqrt(w)), spec.p)
        dev = deviation_bound(u, potential_values(spec, grid), spec.Vinf, spec.p)
        assert dev == pytest.approx(dual_norm_W(w, spec.q, grid.weight), rel=1e-10)
