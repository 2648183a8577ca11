"""Configuration-driven experiment runner and report emitter.

A run reads a flat key-value config, executes one experiment tag, and writes
a JSON report plus CSV artifacts. Exit code 0 means every applicable verdict
passed, 2 means a verdict failed, 1 means a runtime or configuration error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .domain import (EVEN, DomainError, ProblemSpec, build_grid, dual_norm_W, eval_W,
                     parse_problem_mapping, read_keyvalue_file, PROBLEM_KEYS)
from .energy import deviation_bound
from .field import GridFunction, lp_normalize
from .groundstate import (DESCENT_TOL, DescentError, ShootingError, fit_decay,
                          minimize_lambda1, profile_on_grid, shoot_excited, shoot_ground)
from .minimax import (Y_SWEEP, Lambda2Bounds, LevelsReport, Verdict,
                      lambda2_bounds, lambda2_radial, lambda_sharp, verdict)
from .pathlab import (MAX_THETA_SAMPLES, MIN_THETA_SAMPLES, THETA_SAMPLES, SphereMap,
                      TranslationTable)
from . import __version__

class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    spec: ProblemSpec
    experiment: str = "verify-all"
    seed: int = 0
    out_dir: str = "."
    theta_samples: int = THETA_SAMPLES
    y_sweep: tuple[float, ...] = Y_SWEEP
    r_list: tuple[float, ...] = (6.0, 9.0, 12.0)

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}, "
                              f"expected one of {EXPERIMENTS}")
        if not MIN_THETA_SAMPLES <= self.theta_samples <= MAX_THETA_SAMPLES:
            raise ConfigError(f"theta_samples must be at least {MIN_THETA_SAMPLES} and at "
                              f"most {MAX_THETA_SAMPLES}, got {self.theta_samples}")
        if self.seed < 0:
            raise ConfigError(f"seed must be nonnegative, got {self.seed}")
        for key in ("y_sweep", "r_list"):
            values = getattr(self, key)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ConfigError(f"{key} values must be distinct, got {repeated} repeated")
        L, h = self.spec.L, self.spec.h
        if self.experiment in ("levels", "symmetry", "verify-all"):
            # a translate by more than 2 box_l - 2 spacing_h keeps no interior node
            bad = [y for y in self.y_sweep if abs(round(y / h) * h - y) > 1e-9 * max(1.0, h)
                   or abs(round(y / h)) > 2 * round(L / h) - 2]
            if bad:
                raise ConfigError(f"y_sweep translations must be whole multiples of spacing_h "
                                  f"= {h} with |y| <= 2 box_l - 2 spacing_h = {2 * L - 2 * h}, "
                                  f"got {bad}")
        if self.experiment in ("gamma-r", "verify-all"):
            # R >= h gives every direction of S^(N-1), N <= 3, a nonzero lattice step
            outside = [R for R in self.r_list if not h <= R < L]
            if outside:
                raise ConfigError(f"r_list radii must lie in (0, box_l = {L}) and be at "
                                  f"least spacing_h = {h}, got {outside}")


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# run key (named as its ExperimentConfig field) -> parser of its text value
RUN_KEYS = {
    "experiment": str,
    "seed": int,
    "out_dir": str,
    "theta_samples": int,
    "y_sweep": _floats,
    "r_list": _floats,
}

CONFIG_KEYS = PROBLEM_KEYS + tuple(RUN_KEYS)


def config_from_mapping(mapping: dict) -> ExperimentConfig:
    unknown = set(mapping) - set(CONFIG_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    spec = parse_problem_mapping({k: v for k, v in mapping.items() if k in PROBLEM_KEYS})
    kwargs = {key: parse(mapping[key]) for key, parse in RUN_KEYS.items() if key in mapping}
    return ExperimentConfig(spec=spec, **kwargs)


def load_config(path) -> ExperimentConfig:
    return config_from_mapping(read_keyvalue_file(path))


class Pipeline:
    """Shared lazily-computed artifacts of one experiment run."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.spec = cfg.spec

    @cached_property
    def grid(self):
        return build_grid(self.spec)

    @cached_property
    def field_grid(self):
        """The grid of V, w_inf and w1: for a radial W (every family but a
        table) the orthant of `grid`, EVEN on every axis, as they are even in
        every coordinate; for a table, `grid` itself."""
        grid = self.grid
        return grid if self.spec.W.family == "table" else grid.fold((EVEN,) * grid.N)

    @cached_property
    def _V_and_norm(self) -> tuple[np.ndarray, float]:
        """V = Vinf - W on `field_grid` and |W|_q from one evaluation of W (for
        a table, one read of its file); V is formed in W's array, so the run
        holds one array for both."""
        grid = self.field_grid
        W = eval_W(self.spec, grid)
        norm = dual_norm_W(W, self.spec.q, grid.weight, grid.parity)
        return np.subtract(self.spec.Vinf, W, out=W), norm

    @property
    def V(self):
        """V = Vinf - W on `field_grid`, for the descent, the two-bump paths
        and the deviation check."""
        return self._V_and_norm[0]

    @property
    def w_dual_norm(self) -> float:
        return self._V_and_norm[1]

    @cached_property
    def ground_profile(self):
        s = self.spec
        return shoot_ground(s.N, s.p, s.Vinf)

    @cached_property
    def decay_fit(self):
        return fit_decay(self.ground_profile)

    @cached_property
    def winf(self):
        """The shooting ground state interpolated onto `field_grid`: the
        descent seed under a well, the translated bump of the two-bump paths
        and, unfolded to `grid`, the building block of the sphere maps."""
        return profile_on_grid(self.ground_profile, self.field_grid)

    @cached_property
    def excited_profile(self):
        s = self.spec
        return shoot_excited(s.N, s.p, s.Vinf, 1)

    @property
    def lam1_inf(self) -> float:
        return self.ground_profile.level

    @cached_property
    def descent(self):
        s = self.spec
        seed = None if s.W.family == "zero" else self.winf
        return minimize_lambda1(self.V, s.Vinf, s.p, self.field_grid, seed=seed)

    @cached_property
    def lam2(self) -> Lambda2Bounds:
        return lambda2_bounds(
            self.V, self.spec.p, self.descent.minimizer, self.descent.level,
            self.winf, self.lam1_inf, self.w_dual_norm,
            y_sweep=self.cfg.y_sweep, samples=self.cfg.theta_samples)

    @cached_property
    def gamma_r_scans(self):
        """R -> (sampled directions, J^inf of the sphere map at each of them, J^inf
        of the same directions on the unbounded lattice). One translation
        table of w_inf, unfolded to `grid`, serves every R and is dropped on return."""
        winf = self.winf
        if winf.grid is not self.grid:
            winf = GridFunction._adopt(self.grid, winf.grid.unfold(winf.values))
        table = TranslationTable(winf, self.spec.p)
        out = {}
        for R in self.cfg.r_list:
            sm = SphereMap(table, R)
            out[R] = sm.points, sm.scan(self.spec.Vinf), sm.unbounded
        return out


# --- experiment bodies -------------------------------------------------------

def _penalty_condition_holds(pipe: Pipeline) -> bool:
    """W bounded below by a positive exponential with rate under the envelope."""
    w = pipe.spec.W
    return w.family == "exponential" and w.c > 0 and w.a < pipe.decay_fit.a0


def _report_base(pipe: Pipeline) -> LevelsReport:
    spec = pipe.spec
    return LevelsReport(sigma=spec.sigma, q=spec.q, w_dual_norm=pipe.w_dual_norm,
                        lam1_inf=pipe.lam1_inf)


def exp_ground(pipe: Pipeline, rep: LevelsReport, artifacts: dict):
    prof = pipe.ground_profile
    fit = pipe.decay_fit
    rep.decay = fit
    rate_target = math.sqrt(pipe.spec.Vinf)
    rep.verdicts.append(verdict(
        "decay-rate", True, 0.02 - abs(fit.rate - rate_target) / rate_target,
        f"fitted rate {fit.rate} vs sqrt(Vinf) {rate_target}"))
    j_self = prof.energy_autonomous() / prof.lp_norm() ** 2
    rep.verdicts.append(verdict(
        "shooting-self-consistency", True,
        1e-4 - abs(j_self - prof.level) / prof.level,
        f"Jinf of normalized profile {j_self} vs level {prof.level}"))
    # a generator, so the profile rows are not held for the rest of the run
    artifacts["ground_profile.csv"] = ({"r": r, "w": w}
                                       for r, w in zip(prof.r, prof.normalized()))


def exp_levels(pipe: Pipeline, rep: LevelsReport, artifacts: dict):
    spec = pipe.spec
    rep.lam1 = pipe.descent.level
    rep.lam_sharp = lambda_sharp(rep.lam1, rep.lam1_inf, spec.p)
    rep.lam2 = pipe.lam2
    rep.decay = pipe.decay_fit

    rep.verdicts.append(verdict("threshold-chain", True, rep.chain_margin(),
                                "lam1_inf <= lam_sharp <= 2^sigma lam1_inf"))
    rep.verdicts.append(verdict(
        "interval-order", True, rep.interval_margin(),
        "second-level lower bound below upper bound within the "
        "cross-oracle discretization allowance"))
    autonomous = spec.W.family == "zero"
    rep.verdicts.append(verdict(
        "sandwich-autonomous", autonomous,
        0.02 - abs(rep.lam2.upper - rep.lam2inf_target) / rep.lam2inf_target,
        "two-bump upper bound brackets 2^sigma lam1_inf"))
    rep.verdicts.append(verdict(
        "cross-oracle-ground", autonomous,
        0.01 - abs(rep.lam1 - rep.lam1_inf) / rep.lam1_inf,
        "grid descent agrees with shooting"))

    penalized = _penalty_condition_holds(pipe)
    margin_tol = 10.0 * DESCENT_TOL
    rep.verdicts.append(verdict(
        "first-level-strict-drop", penalized, rep.lam1_inf - rep.lam1 - margin_tol,
        "lam1 strictly below lam1_inf under the exponential penalty"))
    rep.verdicts.append(verdict(
        "second-level-below-threshold", penalized, rep.lam_sharp - rep.lam2.upper - margin_tol,
        "best two-bump max strictly below the compactness threshold"))
    artifacts["y_sweep.csv"] = rep.lam2.sweep


def exp_gamma_r(pipe: Pipeline, rep: LevelsReport, artifacts: dict):
    target = rep.lam2inf_target
    scans = pipe.gamma_r_scans
    maxima = {R: float(energies.max()) for R, (_, energies, _) in scans.items()}
    rep.extras["gamma_r_maxima"] = {str(R): m for R, m in maxima.items()}
    # how far the wall lifts each maximum above the unbounded lattice's
    free = {R: float(unbounded.max()) for R, (_, _, unbounded) in scans.items()}
    rep.extras["gamma_r_wall_gap"] = {str(R): (maxima[R] - free[R]) / free[R] for R in maxima}
    r_big = max(maxima)
    rep.verdicts.append(verdict(
        "gamma-r-limit", True, 0.02 - abs(maxima[r_big] - target) / target,
        f"max Jinf over directions at R={r_big} vs 2^sigma lam1_inf"))
    rs = sorted(maxima)
    # 0.2% slack covers direction sampling, lattice rounding, and the box
    # truncation bias once R approaches L
    slack = 2e-3 * target
    gaps = [maxima[a] - maxima[b] + slack for a, b in zip(rs, rs[1:])]
    rep.verdicts.append(verdict(
        "gamma-r-monotone", bool(gaps), min(gaps, default=None),
        "sampled maxima nonincreasing in R within sampling slack" if gaps
        else "needs at least two R values"))
    rows = []
    for R, (points, energies, _) in scans.items():
        for y, energy in zip(points, energies):
            rows.append({"R": R, **{f"y{i+1}": float(v) for i, v in enumerate(y)},
                         "J_inf": energy})
    artifacts["gamma_r_scan.csv"] = rows


def exp_symmetry(pipe: Pipeline, rep: LevelsReport, artifacts: dict):
    spec = pipe.spec
    radial = lambda2_radial(pipe.excited_profile, pipe.w_dual_norm)
    rep.lam2_radial = radial
    target = rep.lam2inf_target
    rep.verdicts.append(verdict(
        "radial-excited-above-lam2inf", True, radial.lam2r_inf - target,
        "1-node radial level strictly above 2^sigma lam1_inf"))
    cond_gap = rep.w_dual_norm < radial.lam2r_inf - target
    rep.extras["radial_gap_condition"] = cond_gap
    if cond_gap and spec.W.family != "zero":
        rep.lam1 = pipe.descent.level
        rep.lam2 = pipe.lam2
        rep.verdicts.append(verdict(
            "symmetry-breaking", True, radial.lam2r_lower - rep.lam2.upper,
            "second level upper bound below the radial second level lower bound"))
    else:
        rep.verdicts.append(verdict("symmetry-breaking", False, None,
                                    "condition |W|_q < lam2r_inf - lam2_inf not applicable"))


def exp_verify_all(pipe: Pipeline, rep: LevelsReport, artifacts: dict):
    exp_ground(pipe, rep, artifacts)
    exp_levels(pipe, rep, artifacts)
    exp_gamma_r(pipe, rep, artifacts)
    exp_symmetry(pipe, rep, artifacts)
    # Hoelder's inequality makes the bound an equality at u ~ |W|^((q-1)/2), any u if W = 0
    spec = pipe.spec
    extremal = np.abs(spec.Vinf - pipe.V) ** ((spec.q - 1.0) / 2.0)
    u = (lp_normalize(GridFunction._adopt(pipe.field_grid, extremal), spec.p) if extremal.any()
         else pipe.winf)
    dev = deviation_bound(u, pipe.V, spec.Vinf, spec.p)
    rep.verdicts.append(verdict("deviation-bound-random", True, pipe.w_dual_norm + 1e-6 - dev,
                                f"|J - Jinf| = {dev} <= |W|_q + 1e-6 at u ~ |W|^((q-1)/2)"))


EXPERIMENT_BODIES = {
    "ground": exp_ground,
    "levels": exp_levels,
    "gamma-r": exp_gamma_r,
    "symmetry": exp_symmetry,
    "verify-all": exp_verify_all,
}
EXPERIMENTS = tuple(EXPERIMENT_BODIES)


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _atomic_write(path: str, chunks):
    """Write the strings of `chunks` to `path` through a temporary file and a rename."""
    d = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as f:
            # mkstemp creates the file 0600; give it the mode open() would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
            f.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_lines(first: dict, rows):
    """CSV lines of `first` and then `rows`: a header row of the keys of
    `first`, then one row per record, floats written by repr."""
    keys = list(first)
    yield ",".join(keys) + "\n"
    for row in itertools.chain([first], rows):
        yield ",".join(repr(float(row[k])) if isinstance(row[k], float)
                       else str(row[k]) for k in keys) + "\n"


def _write_artifacts(artifacts: dict, out_dir: str):
    """Write each nonempty artifact, an iterable of row dicts with the keys of
    its first row, as a CSV. Rows stream to the file: the 12,500-row ground
    profile held as text set the peak memory of a desk run."""
    for name, rows in artifacts.items():
        rows = iter(rows)
        first = next(rows, None)
        if first is not None:
            _atomic_write(os.path.join(out_dir, name), _csv_lines(first, rows))


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment; write report.json and CSVs; return exit status."""
    os.makedirs(cfg.out_dir, exist_ok=True)
    pipe = Pipeline(cfg)
    rep = _report_base(pipe)
    artifacts: dict = {}
    EXPERIMENT_BODIES[cfg.experiment](pipe, rep, artifacts)
    for problem in rep.check_invariants():
        rep.verdicts.append(Verdict("report-invariant", "fail", 0.0, problem))

    spec = cfg.spec
    levels = asdict(rep)
    verdicts = levels.pop("verdicts")
    payload = {
        "problem": {
            "dim": spec.N, "p": spec.p, "v_inf": spec.Vinf,
            "box_l": spec.L, "spacing_h": spec.h,
            "w_family": spec.W.family, "w_c": spec.W.c, "w_a": spec.W.a,
        },
        "experiment": cfg.experiment,
        "levels": levels,
        "verdicts": verdicts,
        "provenance": {
            "version": __version__,
            "grid_shape": list(pipe.grid.shape),
            "theta_samples": cfg.theta_samples,
        },
    }
    digest = hashlib.sha256(_canonical_json(payload).encode()).hexdigest()
    payload["report_hash"] = digest
    payload["seed"] = cfg.seed  # nothing reads it, so the hash does not certify it
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    # how the descent converged, and on how many nodes (fewer than the grid's if it folded)
    res = vars(pipe).get("descent")  # set only by a run that needed the descent
    payload["diagnostics"] = {"descent": None if res is None else {
        "iterations": res.iterations, "gradient_norm": res.gradient_norm,
        "restarted_from_abs": res.restarted_from_abs, "nodes": res.nodes}}
    _atomic_write(os.path.join(cfg.out_dir, "report.json"),
                  [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    _write_artifacts(artifacts, cfg.out_dir)
    return 0 if rep.all_pass() else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="minimaxlab",
                                     description="minimax-level laboratory for the scalar field equation")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="flat key-value config file")
    runp.add_argument("--out", help="output directory (overrides out_dir)")
    runp.add_argument("--seed", type=int,
                      help="recorded outside the hashed payload; nothing is random (overrides config)")
    runp.add_argument("--override", action="append", default=[],
                      metavar="KEY=VALUE", help="override a config key")
    args = parser.parse_args(argv)

    try:
        mapping = read_keyvalue_file(args.config)
        for item in args.override:
            if "=" not in item:
                raise ConfigError(f"--override expects KEY=VALUE, got {item!r}")
            key, val = item.split("=", 1)
            mapping[key.strip()] = val.strip()
        if args.out:
            mapping["out_dir"] = args.out
        if args.seed is not None:
            mapping["seed"] = str(args.seed)
        return run(config_from_mapping(mapping))
    except (ConfigError, DomainError, OSError, ValueError, ShootingError,
            DescentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
