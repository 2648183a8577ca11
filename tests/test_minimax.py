import math
from dataclasses import asdict

import numpy as np
import pytest

from minimaxlab import (GridFunction, ProblemSpec, WSpec, build_grid, dual_norm_W,
                        energy_J, lambda2_bounds, lambda2_radial, lambda_sharp,
                        lp_normalize, minimize_lambda1, multiplicity_floor,
                        nodality_check, refine_path)
from minimaxlab.minimax import (LevelsReport, Verdict, bump_diagnostic,
                                verdict)
from minimaxlab.pathlab import PathError, PathFamily, SampledPath, path_max_J


class TestLambdaSharp:
    def test_positive_first_level(self):
        # p = 4: q = 2, so the threshold is the Euclidean combination
        assert lambda_sharp(3.0, 4.0, 4.0) == pytest.approx(5.0)

    def test_nonpositive_first_level(self):
        assert lambda_sharp(0.0, 4.0, 4.0) == 4.0
        assert lambda_sharp(-1.0, 4.0, 4.0) == 4.0

    def test_chain(self):
        # l1inf <= lam_sharp <= 2^sigma l1inf whenever l1 <= l1inf
        for l1 in (-1.0, 0.0, 1.0, 3.9999, 4.0):
            ls = lambda_sharp(l1, 4.0, 4.0)
            assert 4.0 - 1e-12 <= ls <= 2.0 ** 0.5 * 4.0 + 1e-12

    def test_rejects_nonpositive_l1inf(self):
        with pytest.raises(ValueError):
            lambda_sharp(1.0, 0.0, 4.0)


class TestMultiplicityFloor:
    def test_below_two_bump_floor(self):
        # c below (l1^q + l1inf^q)^sigma cannot escape to two bumps
        assert multiplicity_floor(4.9, 3.0, 4.0, 4.0, t1_zero=False) == 1

    def test_above_two_bump_floor(self):
        assert multiplicity_floor(5.1, 3.0, 4.0, 4.0, t1_zero=False) == 2

    def test_equality_stays_below(self):
        # c exactly at the two-bump floor with l1 <= 0: strict comparison keeps m = 2
        l1inf = 4.0
        c = 2.0 ** 0.5 * l1inf
        assert multiplicity_floor(c, -1.0, l1inf, 4.0, t1_zero=False) == 2

    def test_t1_zero_uses_degenerate_floor(self):
        # with the first coefficient absent the m-bump floor is (m-1)^sigma l1inf
        c = 1.5 * 4.0  # between 1 and sqrt(2) times l1inf
        assert multiplicity_floor(c, 3.0, 4.0, 4.0, t1_zero=True) == 3

    def test_monotone_in_c(self):
        prev = 0
        for c in np.linspace(1.0, 20.0, 40):
            m = multiplicity_floor(float(c), 3.0, 4.0, 4.0, t1_zero=False)
            assert m >= prev
            prev = m

    def test_cap(self):
        assert multiplicity_floor(1e9, 3.0, 4.0, 4.0, t1_zero=False) == 64


class TestLambda2Bounds:
    def test_autonomous_crossing_flagged(self, lam2_0, descent0, ground_profile):
        # the analytic lower bound uses the continuum level, the two-bump upper
        # bound the grid one; their gap is the discretization error, flagged
        assert lam2_0.crossing_flagged
        allowance = 2.0 ** 0.5 * (ground_profile.level - descent0.level)
        assert lam2_0.lower <= lam2_0.upper + allowance + 1e-6

    def test_penalized_interval_ordered(self, lam2_exp):
        assert lam2_exp.lower <= lam2_exp.upper
        assert not lam2_exp.crossing_flagged

    def test_autonomous_brackets_doubling(self, lam2_0, ground_profile):
        target = 2.0 ** 0.5 * ground_profile.level
        assert lam2_0.lower <= target
        # two-bump upper bound sits within two percent of the doubling level
        assert lam2_0.upper == pytest.approx(target, rel=2e-2)

    def test_condition_flag_autonomous(self, lam2_0):
        # W = 0 always satisfies the dual-norm smallness condition
        assert lam2_0.small_well_condition
        assert lam2_0.w_dual_norm == 0.0

    def test_penalized_upper_below_threshold(self, lam2_exp):
        assert lam2_exp.upper < lam2_exp.lam_sharp
        assert lam2_exp.small_well_condition

    def test_sweep_records_all_offsets(self, lam2_exp):
        ys = [row["y"] for row in lam2_exp.sweep]
        assert ys == [4.0, 6.0, 8.0, 10.0, 12.0]
        assert lam2_exp.witness_y in ys
        best = min(row["path_max"] for row in lam2_exp.sweep)
        assert lam2_exp.upper == best

    def test_threshold_chain(self, lam2_exp, ground_profile):
        l1inf = ground_profile.level
        assert l1inf - 1e-9 <= lam2_exp.lam_sharp <= 2.0 ** 0.5 * l1inf + 1e-9


class TestLambda2Radial:
    def test_autonomous(self, spec0, excited_profile):
        rb = lambda2_radial(excited_profile, 0.0)
        assert rb.lam2r_lower == rb.lam2r_inf == rb.lam2r_upper
        assert rb.w_dual_norm == 0.0

    def test_penalized_interval(self, spec_exp, excited_profile):
        rb = lambda2_radial(excited_profile, dual_norm_W(spec_exp, build_grid(spec_exp)))
        assert rb.lam2r_lower < rb.lam2r_inf < rb.lam2r_upper
        assert rb.lam2r_upper - rb.lam2r_lower == pytest.approx(2 * rb.w_dual_norm)

    def test_unpacks(self, spec0, excited_profile):
        inf_level, lower = lambda2_radial(excited_profile, 0.0)
        assert inf_level == excited_profile.level
        assert lower == inf_level

    def test_rejects_wrong_node_count(self, spec0, ground_profile):
        with pytest.raises(ValueError):
            lambda2_radial(ground_profile, 0.0)


@pytest.fixture(scope="module")
def small_setup():
    spec = ProblemSpec(N=2, p=4.0, Vinf=1.0, L=8.0, h=0.25)
    grid = build_grid(spec)
    x, y = grid.coords()

    def bump(cx, cy, radius=1.5):
        r2 = ((x - cx) ** 2 + (y - cy) ** 2) / radius ** 2
        vals = np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)
        return lp_normalize(GridFunction(grid, vals), 4.0)

    return spec, grid, bump


class TestRefinePath:
    def test_maximum_never_increases(self, small_setup):
        spec, grid, bump = small_setup
        path = PathFamily(bump(-4.0, 0.0), bump(4.0, 0.0), 4.0)
        start, _ = max((energy_J(path.at(t), spec).total, t)
                       for t in np.linspace(0, math.pi, 33, endpoint=False))
        refined = refine_path(path, spec)
        assert isinstance(refined, SampledPath)
        end = max(energy_J(u, spec).total for u in refined.fields)
        assert end <= start + 1e-6

    def test_refined_path_stays_on_sphere(self, small_setup):
        from minimaxlab import mass_I

        spec, grid, bump = small_setup
        refined = refine_path(PathFamily(bump(-4.0, 0.0), bump(4.0, 0.0), 4.0), spec)
        for u in refined.fields[::8]:
            assert mass_I(u, 4.0) == pytest.approx(1.0, abs=1e-12)

    def test_descent_lowers_smooth_seeds(self, small_setup):
        spec, grid, bump = small_setup
        path = PathFamily(bump(-4.0, 0.0, radius=2.5), bump(4.0, 0.0, radius=2.5), 4.0)
        before = max(energy_J(path.at(t), spec).total
                     for t in np.linspace(0, math.pi, 33, endpoint=False))
        refined = refine_path(path, spec)
        after = max(energy_J(u, spec).total for u in refined.fields)
        assert after < before


    def test_path_max_J_accepts_refined_path(self, small_setup):
        spec, grid, bump = small_setup
        refined = refine_path(PathFamily(bump(-4.0, 0.0), bump(4.0, 0.0), 4.0), spec)
        mx, theta = path_max_J(refined, spec)
        assert mx == energy_J(refined.at(theta), spec).total


class TestBumpDiagnostic:
    def test_single_bump(self, small_setup):
        spec, grid, bump = small_setup
        diag = bump_diagnostic(bump(0.0, 0.0), spec)
        assert diag.count == 1
        assert diag.centers[0] == pytest.approx((0.0, 0.0))
        assert diag.residual < 1e-9

    def test_two_separated_bumps(self, small_setup):
        spec, grid, bump = small_setup
        u = lp_normalize(GridFunction(grid, bump(-4.5, 0.0).values
                                      + 0.9 * bump(4.5, 0.0).values), 4.0)
        diag = bump_diagnostic(u, spec)
        assert diag.count == 2
        xs = sorted(c[0] for c in diag.centers)
        assert xs[0] == pytest.approx(-4.5, abs=0.3)
        assert xs[1] == pytest.approx(4.5, abs=0.3)
        assert sum(diag.masses) == pytest.approx(1.0, abs=1e-9)

    def test_close_peaks_merge(self, small_setup):
        spec, grid, bump = small_setup
        # two peaks one decay length apart fall below the separation scale
        u = lp_normalize(GridFunction(grid, bump(-0.5, 0.0).values
                                      + bump(0.5, 0.0).values), 4.0)
        diag = bump_diagnostic(u, spec)
        assert diag.count == 1

    def test_mass_threshold_drops_small_bumps(self, small_setup):
        spec, grid, bump = small_setup
        u = lp_normalize(GridFunction(grid, bump(-4.5, 0.0).values
                                      + 0.2 * bump(4.5, 0.0).values), 4.0)
        diag = bump_diagnostic(u, spec)
        # the secondary bump carries 0.2^4 of the primary mass: below threshold
        assert diag.count == 1
        assert diag.residual == pytest.approx(0.2 ** 4 / (1 + 0.2 ** 4), rel=1e-6)

    def test_constant_interior_is_one_bump(self, small_setup):
        # a plateau: every interior node ties, so basins follow visiting order
        spec, grid, _ = small_setup
        diag = bump_diagnostic(lp_normalize(GridFunction(grid, np.ones(grid.shape)), 4.0), spec)
        assert diag.count == 1

    def test_two_bumps_in_3d(self):
        spec = ProblemSpec(N=3, p=4.0, Vinf=1.0, L=6.0, h=0.25)
        x, y, z = build_grid(spec).coords()

        def bump(cx):
            r2 = ((x - cx) ** 2 + y ** 2 + z ** 2) / 1.5 ** 2
            return np.where(r2 < 1.0, (1.0 - r2) ** 2, 0.0)

        u = lp_normalize(GridFunction(build_grid(spec), bump(-3.0) + bump(3.0)), 4.0)
        diag = bump_diagnostic(u, spec)
        assert diag.count == 2
        assert sum(diag.masses) == pytest.approx(1.0, abs=1e-12)

    def test_ground_minimizer_is_single_bump(self, descent0, spec0):
        diag = bump_diagnostic(descent0.minimizer, spec0)
        assert diag.count == 1
        assert diag.centers[0] == pytest.approx((0.0, 0.0), abs=0.3)


class TestNodalityCheck:
    def test_rejects_non_solution(self, spec0, grid0):
        x, y = grid0.coords()
        u = lp_normalize(GridFunction(grid0, np.exp(-(x ** 2 + y ** 2))), 4.0)
        with pytest.raises(ValueError):
            nodality_check(u, 1.0, -1.0, spec0)

    def test_positive_ground_state_inapplicable_hypotheses(self, spec0, descent0):
        v = nodality_check(descent0.minimizer, descent0.level, descent0.level, spec0)
        assert not v.hypotheses_hold  # l1 > 0 here
        assert not v.nodal
        assert v.consistent


class TestVerdictsAndReport:
    def test_verdict_states(self):
        assert verdict("x", True, 1.0).status == "pass"
        assert verdict("x", True, -1.0).status == "fail"
        assert verdict("x", False, 0.0).status == "inapplicable"
        assert verdict("x", False, 0.5).margin == verdict("x", False, None).margin == 0.0

    def test_all_pass_ignores_inapplicable(self):
        rep = LevelsReport(sigma=0.5, q=2.0, w_dual_norm=0.0)
        rep.verdicts = [Verdict("a", "pass", 1.0), Verdict("b", "inapplicable", 0.0)]
        assert rep.all_pass()
        rep.verdicts.append(Verdict("c", "fail", -1.0))
        assert not rep.all_pass()

    def test_invariant_checks(self, lam2_exp, ground_profile):
        rep = LevelsReport(sigma=0.5, q=2.0, w_dual_norm=lam2_exp.w_dual_norm,
                           lam1_inf=ground_profile.level,
                           lam_sharp=lam2_exp.lam_sharp, lam2=lam2_exp)
        assert rep.check_invariants() == []

    def test_invariant_violations_reported(self):
        bad = LevelsReport(sigma=0.5, q=2.0, w_dual_norm=0.0,
                           lam1_inf=4.0, lam_sharp=10.0)
        assert any("threshold chain" in msg for msg in bad.check_invariants())

    def test_report_serializes(self, lam2_0):
        rep = LevelsReport(sigma=0.5, q=2.0, w_dual_norm=0.0, lam2=lam2_0)
        d = asdict(rep)
        assert d["lam2"]["upper"] == lam2_0.upper
        assert isinstance(d["verdicts"], list)
