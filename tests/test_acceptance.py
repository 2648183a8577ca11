"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

All expected values are either analytic, produced by an independent oracle
route, or cross-checked between the shooting and grid discretizations.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from minimaxlab import (GridFunction, build_grid, dual_norm_W, energy_J, eval_W,
                        lp_normalize, profile_on_grid, translate)
from minimaxlab.domain import potential_values
from minimaxlab.energy import _apply_H, _pair, _sphere_gradient, deviation_bound, inner_l2
from minimaxlab.minimax import lambda_sharp
from minimaxlab.pathlab import (SphereMap, TranslationTable, balanced_point,
                                disjoint_support_max, overlap_integrals,
                                path_max_from_energies, translated_bump_path)

DESCENT_TOL = 1e-8


def _verdict(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def gamma_scans(winf0, spec0):
    table = TranslationTable(winf0, 4.0)
    return {R: float(SphereMap(table, R).scan(spec0.Vinf).max()) for R in (6.0, 9.0, 12.0)}


def test_A1_two_bump_sandwich(lam2_0, ground_profile):
    lower = 2.0 ** 0.5 * ground_profile.level
    upper = next(r["path_max"] for r in lam2_0.sweep if r["y"] == 12.0)
    rel = abs(upper - lower) / lower
    _verdict("A1 two-bump sandwich", rel < 0.02,
             f"upper {upper:.6f} vs 2^(1/2) lam1_inf {lower:.6f}, rel {rel:.2e}")


def test_A2_cross_oracle_ground(descent0, ground_profile):
    rel = abs(descent0.level - ground_profile.level) / ground_profile.level
    _verdict("A2 cross-oracle ground level", rel < 0.01,
             f"descent {descent0.level:.6f} vs shooting "
             f"{ground_profile.level:.6f}, rel {rel:.2e}")


def test_A3_decay_rate(decay_fit0):
    rel = abs(decay_fit0.rate - 1.0)
    _verdict("A3 decay rate", rel < 0.02,
             f"fitted rate {decay_fit0.rate:.5f} vs 1, rel {rel:.2e}")


def test_A4_closed_form_exactness(rng):
    worst = 0.0
    cases = set()
    for i in range(20):
        p = float(rng.uniform(2.2, 5.0))
        kind = i % 3
        if kind == 0:
            J1, J2 = rng.uniform(0.5, 10.0, size=2)
        elif kind == 1:
            J1, J2 = -rng.uniform(0.0, 10.0), rng.uniform(0.5, 10.0)
        else:
            J1, J2 = -rng.uniform(0.0, 10.0, size=2)
        cases.add(kind)
        closed = disjoint_support_max(float(J1), float(J2), p)
        sampled, _ = path_max_from_energies(float(J1), float(J2), p)
        worst = max(worst, abs(closed - sampled))
    _verdict("A4 closed-form exactness", worst < 1e-8 and cases == {0, 1, 2},
             f"worst abs deviation {worst:.2e} over 20 triples, 3 sign cases")


def test_A5_penalty_scenario(descent_exp, lam2_exp, lam_sharp_exp, ground_profile):
    margin_tol = 10.0 * DESCENT_TOL
    drop = ground_profile.level - descent_exp.level
    gap = lam_sharp_exp - lam2_exp.upper
    _verdict("A5 penalty scenario", drop > margin_tol and gap > margin_tol,
             f"lam1 drop {drop:.4f}, threshold gap {gap:.4f}, "
             f"tol {margin_tol:.1e}")


def test_A6_gamma_map(gamma_scans, ground_profile):
    target = 2.0 ** 0.5 * ground_profile.level
    rel = abs(gamma_scans[12.0] - target) / target
    slack = 2e-3 * target
    rs = sorted(gamma_scans)
    mono = all(gamma_scans[b] <= gamma_scans[a] + slack
               for a, b in zip(rs, rs[1:]))
    _verdict("A6 translation sphere map", rel < 0.02 and mono,
             f"max at R=12 rel {rel:.2e}; maxima "
             f"{[round(gamma_scans[R], 5) for R in rs]} nonincreasing "
             f"within slack {slack:.2e}")


def test_A7_symmetry_breaking(excited_profile, ground_profile, lam2_exp, spec_exp, grid0):
    target = 2.0 ** 0.5 * ground_profile.level
    witness_margin = excited_profile.level - target
    wnorm = dual_norm_W(eval_W(spec_exp, grid0), spec_exp.q, grid0.weight)
    cond = wnorm < excited_profile.level - target
    lam2r_lower = excited_profile.level - wnorm
    certified = lam2_exp.upper < lam2r_lower
    _verdict("A7 symmetry breaking", witness_margin > 0 and cond and certified,
             f"radial witness margin {witness_margin:.4f}; "
             f"lam2 upper {lam2_exp.upper:.5f} < radial lower {lam2r_lower:.5f}")


def test_A8_deviation_bound(spec_exp, rng):
    grid = build_grid(spec_exp)
    W = eval_W(spec_exp, grid)
    V, bound = spec_exp.Vinf - W, dual_norm_W(W, spec_exp.q, grid.weight)
    worst = -math.inf
    for _ in range(100):
        u = lp_normalize(GridFunction(grid, rng.standard_normal(grid.shape)), 4.0)
        worst = max(worst, deviation_bound(u, V, spec_exp.Vinf, spec_exp.p) - bound)
    _verdict("A8 deviation bound", worst <= 1e-6,
             f"worst |J - Jinf| - |W|_q = {worst:.2e} over 100 seeded fields")


def test_A9_overlap_rates(winf0, decay_fit0):
    ys = np.arange(4.0, 11.0)
    o1 = []
    o2 = []
    for y in ys:
        a, b = overlap_integrals(winf0, winf0, (float(y), 0.0), 4.0)
        o1.append(a)
        o2.append(b)
    s1 = float(np.polyfit(ys, np.log(o1), 1)[0])
    s2 = float(np.polyfit(ys, np.log(o2), 1)[0])
    bound = -0.95 * decay_fit0.a0
    _verdict("A9 overlap decay rates", s1 <= bound and s2 <= bound,
             f"slopes {s1:.4f}, {s2:.4f} vs bound {bound:.4f}")


def test_A10_balanced_point_mechanism(spec0, spec_exp, descent0, descent_exp,
                                      lam2_0, lam2_exp, ground_profile):
    ok = True
    details = []
    for spec, descent, lam2 in ((spec0, descent0, lam2_0),
                                (spec_exp, descent_exp, lam2_exp)):
        grid = descent.minimizer.grid
        winf = profile_on_grid(ground_profile, grid)
        floor = 2.0 ** spec.sigma * descent.level - 1e-6
        for row in lam2.sweep:
            vec = np.zeros(grid.N)
            vec[0] = row["y"]
            path = translated_bump_path(descent.minimizer, winf, vec, spec.p)
            _, theta = balanced_point(path, spec.p)
            if not (0.0 <= theta <= math.pi):
                ok = False
            if row["path_max"] < floor:
                ok = False
                details.append(f"max {row['path_max']:.5f} < floor {floor:.5f} "
                               f"at y={row['y']}")
    _verdict("A10 balanced-point mechanism", ok,
             "; ".join(details) or
             "balanced point found and max J >= 2^sigma lam1 - 1e-6 "
             "on all 10 sweep paths")


def test_A11_gradient_check(spec0, winf0, rng):
    grid = winf0.grid
    V = potential_values(spec0, grid)
    v0 = winf0.values
    Hv = _apply_H(v0, V, grid.h)
    g = GridFunction(grid, _sphere_gradient(v0, Hv, _pair(v0, Hv, grid.h), spec0.p))

    def phi(v, t):
        u = GridFunction(grid, winf0.values + t * v)
        return energy_J(lp_normalize(u, 4.0), V)

    ratios = []
    for _ in range(10):
        v = rng.standard_normal(grid.shape)
        pairing = inner_l2(g, GridFunction(grid, v))
        errs = []
        for t in (1e-3, 1e-4):
            diff = (phi(v, t) - phi(v, -t)) / (2.0 * t)
            errs.append(abs(diff - pairing))
        ratios.append(errs[0] / errs[1])
    ok = all(50.0 <= r <= 200.0 for r in ratios)
    _verdict("A11 gradient finite differences", ok,
             f"error ratios for t: 1e-3 -> 1e-4 in "
             f"[{min(ratios):.1f}, {max(ratios):.1f}], target [50, 200]")


def test_A12_reproducibility(tmp_path):
    # the second run is a fresh interpreter with another hash seed: it shares
    # no memoized shooting, set order or import state with the first
    import minimaxlab
    from minimaxlab.cli import main

    base = {
        "dim": "2", "p": "4.0", "v_inf": "1.0", "box_l": "16.0",
        "spacing_h": "0.125", "w_family": "exponential", "w_c": "0.5",
        "w_a": "0.5", "experiment": "verify-all", "seed": "1",
    }
    cfg = tmp_path / "desk.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    src = os.path.dirname(os.path.dirname(os.path.abspath(minimaxlab.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    statuses = [main(["run", str(cfg), "--out", str(tmp_path / "run1")])]
    child = subprocess.run([sys.executable, "-m", "minimaxlab.cli", "run", str(cfg),
                            "--out", str(tmp_path / "run2")], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode in (0, 2), child.stderr
    statuses.append(child.returncode)
    hashes = []
    for sub in ("run1", "run2"):
        with open(tmp_path / sub / "report.json") as f:
            hashes.append(json.load(f)["report_hash"])
    _verdict("A12 reproducibility",
             hashes[0] == hashes[1] and statuses == [0, 0],
             f"report hashes {hashes[0][:12]}.. == {hashes[1][:12]}.. across processes "
             f"(PYTHONHASHSEED={env['PYTHONHASHSEED']} in the second), "
             f"exit statuses {statuses}")
