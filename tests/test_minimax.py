from dataclasses import asdict

import pytest

from minimaxlab import build_grid, dual_norm_W, eval_W, lambda2_radial, lambda_sharp
from minimaxlab.minimax import LevelsReport, Verdict, verdict


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

    def test_condition_flag_autonomous(self, lam2_0, spec0, grid0):
        # W = 0 always satisfies the dual-norm smallness condition
        assert lam2_0.small_well_condition
        assert dual_norm_W(eval_W(spec0, grid0), spec0.q, grid0.weight) == 0.0

    def test_penalized_upper_below_threshold(self, lam2_exp, lam_sharp_exp):
        assert lam2_exp.upper < lam_sharp_exp
        assert lam2_exp.small_well_condition

    def test_sweep_records_all_offsets(self, lam2_exp):
        ys = [row["y"] for row in lam2_exp.sweep]
        assert ys == [4.0, 6.0, 8.0, 10.0, 12.0]
        assert lam2_exp.witness_y in ys
        best = min(row["path_max"] for row in lam2_exp.sweep)
        assert lam2_exp.upper == best

    def test_threshold_chain(self, lam_sharp_exp, ground_profile):
        l1inf = ground_profile.level
        assert l1inf - 1e-9 <= lam_sharp_exp <= 2.0 ** 0.5 * l1inf + 1e-9


class TestLambda2Radial:
    def test_autonomous(self, spec0, excited_profile):
        rb = lambda2_radial(excited_profile, 0.0)
        assert rb.lam2r_lower == rb.lam2r_inf == rb.lam2r_upper
        assert rb.lam2r_upper - rb.lam2r_lower == 0.0

    def test_penalized_interval(self, spec_exp, excited_profile):
        grid = build_grid(spec_exp)
        wnorm = dual_norm_W(eval_W(spec_exp, grid), spec_exp.q, grid.weight)
        rb = lambda2_radial(excited_profile, wnorm)
        assert rb.lam2r_lower < rb.lam2r_inf < rb.lam2r_upper
        assert rb.lam2r_upper - rb.lam2r_lower == pytest.approx(2 * wnorm)

    def test_rejects_wrong_node_count(self, spec0, ground_profile):
        with pytest.raises(ValueError):
            lambda2_radial(ground_profile, 0.0)


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

    def test_invariant_checks(self, lam2_exp, lam_sharp_exp, ground_profile, spec_exp, grid0):
        wnorm = dual_norm_W(eval_W(spec_exp, grid0), spec_exp.q, grid0.weight)
        rep = LevelsReport(sigma=0.5, q=2.0, w_dual_norm=wnorm,
                           lam1_inf=ground_profile.level,
                           lam_sharp=lam_sharp_exp, lam2=lam2_exp)
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
