import hashlib
import json
import os
import pathlib
import stat
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import minimaxlab
from minimaxlab import cli, domain, field, groundstate, minimax, pathlab
from minimaxlab.cli import (EXPERIMENTS, ConfigError, ExperimentConfig,
                            config_from_mapping, load_config, main, run)
from minimaxlab.domain import ProblemSpec
from minimaxlab.groundstate import DescentError, ShootingError
from minimaxlab.pathlab import MAX_THETA_SAMPLES, SPHERE_SAMPLES

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(minimaxlab.__file__)))
DESK_CFG = pathlib.Path(__file__).resolve().parents[1] / "demos" / "desk.cfg"

COARSE = {
    "dim": "2", "p": "4.0", "v_inf": "1.0", "box_l": "8.0", "spacing_h": "0.25",
}


def write_config(path, extra):
    lines = [f"{k} = {v}" for k, v in {**COARSE, **extra}.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestConfig:
    def test_defaults(self):
        # the default r_list (6, 9, 12) needs box_l above 12 for verify-all
        cfg = config_from_mapping({**COARSE, "box_l": "16.0"})
        assert cfg.experiment == "verify-all"
        assert cfg.seed == 0
        assert cfg.y_sweep == (4.0, 6.0, 8.0, 10.0, 12.0)
        assert isinstance(cfg.spec, ProblemSpec)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({**COARSE, "n_threads": "4"})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError):
            config_from_mapping({**COARSE, "experiment": "explode"})

    def test_theta_samples_bounded_above(self):
        levels = {**COARSE, "experiment": "levels"}
        cfg = config_from_mapping({**levels, "theta_samples": str(MAX_THETA_SAMPLES)})
        assert cfg.theta_samples == MAX_THETA_SAMPLES
        with pytest.raises(ConfigError, match=f"at most {MAX_THETA_SAMPLES}"):
            config_from_mapping({**levels, "theta_samples": str(MAX_THETA_SAMPLES + 1)})

    def test_list_parsing(self):
        cfg = config_from_mapping({**COARSE, "y_sweep": "3,5.5,8",
                                   "r_list": "2.0,4.0"})
        assert cfg.y_sweep == (3.0, 5.5, 8.0)
        assert cfg.r_list == (2.0, 4.0)

    def test_gamma_r_radii_inside_box(self):
        for experiment in ("gamma-r", "verify-all"):
            for r_list in ("3,8", "0,3", "-2", "3,12"):
                with pytest.raises(ConfigError, match="r_list"):
                    config_from_mapping({**COARSE, "experiment": experiment,
                                         "r_list": r_list})
            # the default r_list reaches past box_l = 8
            with pytest.raises(ConfigError, match="r_list"):
                config_from_mapping({**COARSE, "experiment": experiment})
        # experiments that scan no sphere map accept it on a small box
        for experiment in ("ground", "levels", "symmetry"):
            assert config_from_mapping({**COARSE, "experiment": experiment}).r_list == (
                6.0, 9.0, 12.0)

    def test_load_from_file(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground",
                                                 "seed": "7"})
        cfg = load_config(path)
        assert cfg.experiment == "ground"
        assert cfg.seed == 7


def report_of(out_dir):
    with open(out_dir / "report.json") as f:
        return json.load(f)


DESK_WELL = {"w_family": "exponential", "w_c": "0.5", "w_a": "0.5"}

# report keys written after the hash, which it does not certify
UNHASHED = ("report_hash", "timestamp", "seed", "diagnostics")


def assert_hash_covers_payload(rep):
    stated = rep["report_hash"]
    payload = {k: v for k, v in rep.items() if k not in UNHASHED}
    assert hashlib.sha256(json.dumps(
        payload, sort_keys=True, separators=(",", ":")).encode()).hexdigest() == stated


@pytest.fixture(scope="module")
def ground_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("ground")
    cfg = config_from_mapping({**COARSE, "experiment": "ground",
                               "out_dir": str(out)})
    status = run(cfg)
    return status, out


class TestRunGround:
    def test_exit_zero(self, ground_run):
        status, _ = ground_run
        assert status == 0

    def test_report_written(self, ground_run):
        _, out = ground_run
        rep = report_of(out)
        assert rep["experiment"] == "ground"
        assert rep["levels"]["lam1_inf"] == pytest.approx(4.8375345, rel=1e-5)
        names = {v["id"]: v["status"] for v in rep["verdicts"]}
        assert names["decay-rate"] == "pass"
        assert names["shooting-self-consistency"] == "pass"
        # each verdict is recorded once, at the top level
        assert "verdicts" not in rep["levels"]

    def test_profile_artifact(self, ground_run):
        _, out = ground_run
        lines = (out / "ground_profile.csv").read_text().splitlines()
        assert lines[0] == "r,w"
        assert len(lines) > 1000

    def test_hash_covers_payload(self, ground_run):
        _, out = ground_run
        assert_hash_covers_payload(report_of(out))
        # a ground run needs no descent
        assert report_of(out)["diagnostics"] == {"descent": None}

    def test_provenance_block(self, ground_run):
        _, out = ground_run
        prov = report_of(out)["provenance"]
        assert prov["grid_shape"] == [65, 65]
        assert sorted(prov) == ["grid_shape", "theta_samples", "version"]


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_experiment_outputs(experiment, tmp_path):
    # R = 3 sits far from the doubling level, so gamma-r and verify-all exit 2
    cfg = config_from_mapping({**COARSE, "experiment": experiment,
                               "out_dir": str(tmp_path), "y_sweep": "3,4",
                               "theta_samples": "64", "r_list": "3,5"})
    assert run(cfg) in (0, 2)
    rep = report_of(tmp_path)
    assert rep["experiment"] == experiment
    assert_hash_covers_payload(rep)
    for path in tmp_path.glob("*.csv"):
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        assert rows, path.name
        for row in rows:
            assert len(row) == len(header), path.name
            for cell in row:
                float(cell)


def test_artifacts_stream_rows_and_skip_empty(tmp_path):
    rows = ({"y": float(i), "n": i} for i in range(3))
    cli._write_artifacts({"a.csv": rows, "empty.csv": iter(())}, str(tmp_path))
    assert (tmp_path / "a.csv").read_text() == "y,n\n0.0,0\n1.0,1\n2.0,2\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv"]


def test_outputs_get_the_mode_open_would_give(tmp_path):
    old = os.umask(0o027)
    try:
        status = run(config_from_mapping({**COARSE, "experiment": "ground",
                                          "out_dir": str(tmp_path)}))
    finally:
        os.umask(old)
    assert status == 0
    for name in ("report.json", "ground_profile.csv"):
        assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o640, name


def test_desk_gamma_r_scan_has_one_row_per_radius_and_direction(tmp_path):
    # the sphere map is odd, so each direction stands for its antipodal pair
    assert main(["run", str(DESK_CFG), "--out", str(tmp_path),
                 "--override", "experiment=gamma-r"]) == 0
    rows = (tmp_path / "gamma_r_scan.csv").read_text().splitlines()[1:]
    assert len(rows) == len(load_config(DESK_CFG).r_list) * SPHERE_SAMPLES == 384


def test_gamma_r_in_3d(tmp_path):
    # the N = 3 translation map samples S^2 by a Fibonacci sphere
    cfg = config_from_mapping({**COARSE, "dim": "3", "box_l": "6.0", "spacing_h": "0.5",
                               "experiment": "gamma-r", "out_dir": str(tmp_path),
                               "r_list": "2,4"})
    assert run(cfg) in (0, 2)
    header, *rows = (tmp_path / "gamma_r_scan.csv").read_text().splitlines()
    assert header == "R,y1,y2,y3,J_inf"
    radii = [float(row.split(",")[0]) for row in rows]
    assert radii == [2.0] * 128 + [4.0] * 128
    rep = report_of(tmp_path)
    assert_hash_covers_payload(rep)


def test_gamma_r_scans_share_one_translation_table(tmp_path, monkeypatch):
    tables = []

    def counting(*args):
        tables.append(pathlab.TranslationTable(*args))
        return tables[-1]

    monkeypatch.setattr(cli, "TranslationTable", counting)
    cfg = config_from_mapping({**COARSE, "experiment": "gamma-r", "out_dir": str(tmp_path),
                               "r_list": "3,5"})
    run(cfg)
    assert len(tables) == 1
    radii = [row.split(",")[0] for row in
             (tmp_path / "gamma_r_scan.csv").read_text().splitlines()[1:]]
    assert radii == ["3.0"] * SPHERE_SAMPLES + ["5.0"] * SPHERE_SAMPLES


def test_tabulated_W_is_read_once_per_run(tmp_path, monkeypatch):
    # V and |W|_q come from one read of the table file
    grid = domain.build_grid(domain.parse_problem_mapping(COARSE))
    path = tmp_path / "w.gfb"
    field.save_gridfunction(field.GridFunction(grid, 0.5 * np.exp(-0.5 * grid.radius())), path)
    load, reads = field.load_gridfunction, []

    def counting(*args):
        reads.append(args)
        return load(*args)

    monkeypatch.setattr(field, "load_gridfunction", counting)
    cfg = config_from_mapping({**COARSE, "w_family": "table", "w_table_path": str(path),
                               "experiment": "verify-all", "out_dir": str(tmp_path / "out"),
                               "y_sweep": "3,4", "theta_samples": "64", "r_list": "3,5"})
    run(cfg)
    assert len(reads) == 1


def test_verify_all_evaluates_V_a_fixed_number_of_times(tmp_path, monkeypatch):
    # V, |W|_q and the on-grid ground state come from the pipeline: W is
    # evaluated once, for both V and |W|_q, and the profile is interpolated
    # once, however many translations or radii the run has
    calls = {"eval_W": 0, "profile_on_grid": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    eval_W = counting("eval_W", domain.eval_W)
    for module in (domain, cli):
        monkeypatch.setattr(module, "eval_W", eval_W)
    for module in (cli, groundstate, minimax):
        if hasattr(module, "profile_on_grid"):
            monkeypatch.setattr(module, "profile_on_grid",
                                counting("profile_on_grid", module.profile_on_grid))
    counts = []
    for y_sweep, r_list in (("3,4", "3,5"), ("3,4,5", "3,5,6")):
        cfg = config_from_mapping({**COARSE, "w_family": "exponential", "w_c": "0.5",
                                   "w_a": "0.5", "experiment": "verify-all",
                                   "out_dir": str(tmp_path / r_list), "y_sweep": y_sweep,
                                   "theta_samples": "64", "r_list": r_list})
        calls.update(eval_W=0, profile_on_grid=0)
        run(cfg)
        counts.append(dict(calls))
    assert counts == [{"eval_W": 1, "profile_on_grid": 1}] * 2


class TestDeviationVerdict:
    """verify-all checks |J - Jinf| <= |W|_q + 1e-6 at the one field where
    Hoelder's inequality is an equality, so the margin is the 1e-6 alone."""

    def verdict_and_deviations(self, tmp_path, monkeypatch, family):
        deviation_bound, deviations = cli.deviation_bound, []

        def recording(*args):
            deviations.append(deviation_bound(*args))
            return deviations[-1]

        monkeypatch.setattr(cli, "deviation_bound", recording)
        well = {"w_c": "0.5", "w_a": "0.5"} if family == "exponential" else {}
        cfg = config_from_mapping({**COARSE, "w_family": family, **well,
                                   "experiment": "verify-all", "out_dir": str(tmp_path),
                                   "y_sweep": "3,4", "theta_samples": "64", "r_list": "3,5"})
        run(cfg)
        rep = report_of(tmp_path)
        (v,) = [v for v in rep["verdicts"] if v["id"] == "deviation-bound-random"]
        return v, deviations, rep["levels"]["w_dual_norm"]

    def test_extremal_field_attains_the_bound(self, tmp_path, monkeypatch):
        v, deviations, bound = self.verdict_and_deviations(tmp_path, monkeypatch, "exponential")
        assert v["status"] == "pass"
        assert len(deviations) == 1
        assert abs(deviations[0] - bound) <= 1e-12 * bound

    def test_fails_when_the_bound_is_lowered(self, tmp_path, monkeypatch):
        # the bound is attained, so a |W|_q 1e-4 relative too low must show
        monkeypatch.setattr(cli.Pipeline, "w_dual_norm", property(
            lambda self: (1.0 - 1e-4) * self._V_and_norm[1]))
        v, _, _ = self.verdict_and_deviations(tmp_path, monkeypatch, "exponential")
        assert v["status"] == "fail"

    def test_zero_well_passes(self, tmp_path, monkeypatch):
        v, deviations, bound = self.verdict_and_deviations(tmp_path, monkeypatch, "zero")
        assert bound == 0.0
        assert v["status"] == "pass"
        assert deviations[0] <= 1e-12


def test_report_hash_ignores_the_argmax_angle(tmp_path, monkeypatch):
    # the argmax of a flat path maximum is fixed only to about sqrt(eps), so
    # the hashed report holds the maxima and not their angles
    def levels_hash(out):
        cfg = config_from_mapping({**COARSE, "w_family": "exponential", "w_c": "0.5",
                                   "w_a": "0.5", "experiment": "levels",
                                   "out_dir": str(tmp_path / out), "y_sweep": "3,4",
                                   "theta_samples": "64"})
        run(cfg)
        return report_of(tmp_path / out)["report_hash"]

    plain = levels_hash("plain")
    path_max_J = minimax.path_max_J

    def moved(*args):
        mx, theta = path_max_J(*args)
        return mx, theta + 1e-10

    monkeypatch.setattr(minimax, "path_max_J", moved)
    assert levels_hash("moved") == plain


def test_descent_diagnostics_stay_outside_the_hash(tmp_path, monkeypatch):
    # the radial desk well folds onto the 33^2 orthant of the 65^2 grid;
    # changing every diagnostic leaves the hash as it was
    def levels_report(out):
        cfg = config_from_mapping({**COARSE, **DESK_WELL, "experiment": "levels",
                                   "out_dir": str(tmp_path / out), "y_sweep": "3,4",
                                   "theta_samples": "64"})
        run(cfg)
        return report_of(tmp_path / out)

    plain = levels_report("plain")
    assert plain["diagnostics"]["descent"] == {
        "iterations": 14, "gradient_norm": pytest.approx(0.0, abs=groundstate.DESCENT_TOL),
        "restarted_from_abs": False, "nodes": 33 ** 2}
    minimize_lambda1 = cli.minimize_lambda1

    def altered(*args, **kwargs):
        res = minimize_lambda1(*args, **kwargs)
        res.iterations, res.gradient_norm, res.restarted_from_abs = 999, 1.0, True
        return res

    monkeypatch.setattr(cli, "minimize_lambda1", altered)
    moved = levels_report("moved")
    assert moved["diagnostics"]["descent"]["iterations"] == 999
    assert moved["report_hash"] == plain["report_hash"]


@pytest.mark.parametrize("p", ["3", "3.5"])
def test_levels_at_non_even_p_on_the_desk_grid(tmp_path, p):
    # the sweep's mass is one lp_mass pass per angle; at p = 3.5 the
    # shooting's _integrate takes its general pow branch
    assert main(["run", str(DESK_CFG), "--out", str(tmp_path), "--override", "experiment=levels",
                 "--override", f"p={p}", "--override", "y_sweep=4,6",
                 "--override", "theta_samples=64"]) == 0
    rep = report_of(tmp_path)
    assert {v["id"]: v["status"] for v in rep["verdicts"]} == {
        "threshold-chain": "pass", "interval-order": "pass",
        "first-level-strict-drop": "pass", "second-level-below-threshold": "pass",
        "sandwich-autonomous": "inapplicable", "cross-oracle-ground": "inapplicable"}
    assert [row["y"] for row in rep["levels"]["lam2"]["sweep"]] == [4.0, 6.0]


# the coarse N = 3 grid of the end-to-end 3-D runs
COARSE_3D = {**COARSE, "dim": "3", "box_l": "6.0", "spacing_h": "0.5",
             "theta_samples": "64", "y_sweep": "3,4"}


def test_levels_in_3d(tmp_path):
    # guards the 3-D translation and path code end to end
    cfg = config_from_mapping({**COARSE_3D, **DESK_WELL,
                               "experiment": "levels", "out_dir": str(tmp_path)})
    assert run(cfg) == 0
    rep = report_of(tmp_path)
    assert {v["id"]: v["status"] for v in rep["verdicts"]} == {
        "threshold-chain": "pass", "interval-order": "pass",
        "first-level-strict-drop": "pass", "second-level-below-threshold": "pass",
        "sandwich-autonomous": "inapplicable", "cross-oracle-ground": "inapplicable"}
    assert_hash_covers_payload(rep)


def test_3d_levels_peak_memory(tmp_path):
    # V, w_inf and w1 live on the 25^3 orthant of the 49^3 grid and the sweep
    # on its 49 x 25 x 25 half grid: the run peaks 1.8 grid arrays above its
    # entry, where V and w_inf on the grid and the sweep's H w1 made it 5.3
    cfg = config_from_mapping({**COARSE, **DESK_WELL, "dim": "3", "box_l": "6.0",
                               "experiment": "levels", "out_dir": str(tmp_path),
                               "theta_samples": "64", "y_sweep": "3,4"})
    groundstate.shoot_ground(3, 4.0, 1.0)  # its samples, held by the cache, are not grid arrays
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        assert run(cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / (49 ** 3 * 8) < 2.0


@pytest.mark.parametrize("family", ["exponential", "table"])
def test_a_radial_well_folds_its_fields_and_a_table_keeps_the_grid(tmp_path, monkeypatch,
                                                                   family):
    # even a radial table keeps the whole grid for V, w_inf, w1, the descent and the sweep
    grid = domain.build_grid(domain.parse_problem_mapping(COARSE))
    path = tmp_path / "w.gfb"
    field.save_gridfunction(field.GridFunction(grid, 0.5 * np.exp(-0.5 * grid.radius())), path)
    well = DESK_WELL if family == "exponential" else {"w_family": "table",
                                                      "w_table_path": str(path)}
    sweeps, descents = [], []

    class Recorded(pathlab.TranslatedBumps):
        def __init__(self, *args):
            super().__init__(*args)
            sweeps.append(self.half.shape)

    descend = groundstate._descend

    def recorded_descent(u0, *args):
        descents.append(u0.shape)
        return descend(u0, *args)

    monkeypatch.setattr(minimax, "TranslatedBumps", Recorded)
    monkeypatch.setattr(groundstate, "_descend", recorded_descent)
    pipe = cli.Pipeline(config_from_mapping({**COARSE, **well, "experiment": "levels",
                                             "y_sweep": "3,4", "theta_samples": "64"}))
    m = grid.origin_index[0]
    folded = family != "table"
    shape = (m + 1,) * 2 if folded else grid.shape
    assert pipe.V.shape == pipe.winf.values.shape == shape
    assert pipe.descent.minimizer.values.shape == shape
    assert descents == [shape]
    assert pipe.lam2.upper > pipe.descent.level
    assert sweeps == [(2 * m + 1, m + 1) if folded else grid.shape]


@pytest.mark.parametrize("well, breaking", [
    (DESK_WELL, "pass"),
    ({"w_family": "zero"}, "inapplicable"),
    pytest.param({**DESK_WELL, "w_c": "0.1"}, "pass", marks=pytest.mark.xfail(strict=True, reason=(
        "lam2.lower 11.80 comes from the continuum lam1_inf and lies above the "
        "finite-difference upper bound 10.19 on this grid, so the report-invariant "
        "check fails (ROADMAP items 3 and 13)")))],
    ids=["desk-well", "no-well", "shallow-well"])
def test_symmetry_in_3d(tmp_path, well, breaking):
    cfg = config_from_mapping({**COARSE_3D, **well,
                               "experiment": "symmetry", "out_dir": str(tmp_path)})
    code = run(cfg)
    assert {v["id"]: v["status"] for v in report_of(tmp_path)["verdicts"]} == {
        "radial-excited-above-lam2inf": "pass", "symmetry-breaking": breaking}
    assert code == 0


class TestReproducibility:
    def test_identical_hashes(self, tmp_path):
        hashes = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = config_from_mapping({**COARSE, "experiment": "ground",
                                       "out_dir": str(out), "seed": "3"})
            assert run(cfg) == 0
            hashes.append(report_of(out)["report_hash"])
        assert hashes[0] == hashes[1]

    def test_seed_is_recorded_outside_the_hash(self, tmp_path):
        # nothing in a run is random, so the seed cannot change what the hash certifies
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground"})
        reports = []
        for seed in ("1", "2"):
            out = tmp_path / seed
            assert main(["run", path, "--out", str(out), "--seed", seed]) == 0
            reports.append(report_of(out))
        assert [rep["seed"] for rep in reports] == [1, 2]
        assert reports[0]["report_hash"] == reports[1]["report_hash"]

    def test_identical_hashes_across_processes(self, tmp_path):
        # fresh interpreters share no memoized shooting profile
        path = write_config(tmp_path / "c.cfg", {
            "w_family": "exponential", "w_c": "0.5", "w_a": "0.5",
            "experiment": "levels", "y_sweep": "3,4", "theta_samples": "64"})
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC_DIR, env.get("PYTHONPATH")]))
        outs = [tmp_path / sub for sub in ("a", "b")]
        runs = [subprocess.run([sys.executable, "-m", "minimaxlab.cli", "run", path,
                                "--out", str(out)], env=env, capture_output=True,
                               text=True, timeout=300) for out in outs]
        assert runs[0].returncode in (0, 2), runs[0].stderr
        assert runs[1].returncode == runs[0].returncode
        hashes = [report_of(out)["report_hash"] for out in outs]
        assert hashes[0] == hashes[1]


class TestFailurePath:
    def test_out_of_range_map_radius_fails_verdict(self, tmp_path):
        # R = 1 keeps the two lobes overlapping, far from the doubling level
        out = tmp_path / "gr"
        cfg = config_from_mapping({**COARSE, "experiment": "gamma-r",
                                   "out_dir": str(out), "r_list": "1.0"})
        assert run(cfg) == 2
        rep = report_of(out)
        statuses = {v["id"]: v["status"] for v in rep["verdicts"]}
        assert statuses["gamma-r-limit"] == "fail"


class TestMain:
    def test_missing_config(self, capsys):
        assert main(["run", "/no/such/file.cfg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_override_format(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground"})
        assert main(["run", path, "--override", "seed"]) == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_override_key(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground"})
        assert main(["run", path, "--override", "bogus=1"]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_few_theta_samples_rejected_before_any_work(self, tmp_path, capsys,
                                                        monkeypatch):
        def no_shooting(*args):
            raise AssertionError("shooting ran before the config was checked")

        monkeypatch.setattr(cli, "shoot_ground", no_shooting)
        path = write_config(tmp_path / "c.cfg", {"experiment": "levels"})
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out),
                     "--override", "theta_samples=32"]) == 1
        assert "theta_samples must be at least 64" in capsys.readouterr().err

    def test_huge_theta_samples_rejected_before_any_work(self, tmp_path, capsys,
                                                         monkeypatch):
        # an angle array of 10^13 samples would not fit in memory
        def no_shooting(*args):
            raise AssertionError("shooting ran before the config was checked")

        monkeypatch.setattr(cli, "shoot_ground", no_shooting)
        path = write_config(tmp_path / "c.cfg", {"experiment": "levels"})
        assert main(["run", path, "--out", str(tmp_path / "out"),
                     "--override", "theta_samples=10000000000000"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"at most {MAX_THETA_SAMPLES}" in err

    @pytest.mark.parametrize("override, message", [
        ("r_list=3,8", "r_list radii must lie in (0, box_l = 8.0)"),
        ("r_list=0.1,3", "be at least spacing_h = 0.25, got [0.1]"),
        # y_sweep is checked for the experiments that build two-bump paths
        ("experiment=levels y_sweep=4.1", "whole multiples of spacing_h = 0.25"),
        ("experiment=verify-all y_sweep=3,15.75", "spacing_h = 15.5, got [15.75]"),
        ("experiment=symmetry y_sweep=-16", "got [-16.0]"),
        # a repeated radius would leave one R in the scans, and gamma-r-monotone inapplicable
        ("r_list=6,6", "r_list values must be distinct, got [6.0] repeated"),
        ("r_list=3,5,3.0", "r_list values must be distinct, got [3.0] repeated"),
        ("y_sweep=3,4,3 experiment=levels", "y_sweep values must be distinct, got [3.0]"),
        ("seed=-1", "seed must be nonnegative"),
        ("--seed -1", "seed must be nonnegative"),
        # fixed settings of the code, not run keys
        ("tol_descent=1e-8", "unknown config keys: ['tol_descent']"),
        ("sphere_samples=256", "unknown config keys: ['sphere_samples']"),
        ("fit_r_min=6", "unknown config keys: ['fit_r_min']"),
        ("fit_r_max=12", "unknown config keys: ['fit_r_max']")])
    def test_bad_gamma_r_settings_rejected_before_any_work(self, tmp_path, capsys,
                                                           monkeypatch, override, message):
        def no_shooting(*args):
            raise AssertionError("shooting ran before the config was checked")

        monkeypatch.setattr(cli, "shoot_ground", no_shooting)
        path = write_config(tmp_path / "c.cfg", {"experiment": "gamma-r", "r_list": "3,5"})
        out = tmp_path / "out"
        argv = ["run", path, "--out", str(out)]
        if override.startswith("--"):  # a command-line option, not a config key
            argv += override.split()
        else:
            for item in override.split():
                argv += ["--override", item]
        assert main(argv) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, target, error", [
        ("ground", "shoot_ground", ShootingError),
        ("levels", "minimize_lambda1", DescentError)])
    def test_solver_failure_is_an_error_line(self, tmp_path, capsys, monkeypatch,
                                             experiment, target, error):
        def failing(*args, **kwargs):
            raise error("did not converge")

        monkeypatch.setattr(cli, target, failing)
        path = write_config(tmp_path / "c.cfg", {"experiment": experiment})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: did not converge")
        assert "Traceback" not in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_table_node_is_an_error_naming_the_file(self, tmp_path, capsys, bad):
        grid = domain.build_grid(domain.parse_problem_mapping(COARSE))
        vals = np.zeros(grid.shape)
        vals[grid.origin_index] = float(bad)
        table = tmp_path / "w.gfb"
        field.save_gridfunction(field.GridFunction(grid, vals), table)
        path = write_config(tmp_path / "c.cfg", {"experiment": "levels", "w_family": "table",
                                                 "w_table_path": str(table)})
        assert main(["run", path, "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == f"error: {table}: tabulated W has a non-finite node\n"

    @pytest.mark.parametrize("v_inf", ["0.1", "4.0"])
    def test_ground_run_off_unit_vinf(self, tmp_path, v_inf):
        # the decay fit window scales with 1/sqrt(Vinf); r in [6, 12] fitted
        # rate 1.83 against 2 at Vinf = 4 and failed `decay-rate`. With r_max = 25
        # fixed in r, not in sqrt(Vinf) r, Vinf = 0.1 fitted an envelope rate of
        # 0.3746 > sqrt(0.1) and the run exited 1
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground", "v_inf": v_inf})
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 0
        verdicts = {v["id"]: v["status"] for v in report_of(out)["verdicts"]}
        assert verdicts["decay-rate"] == "pass"

    def test_run_with_overrides(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", {"experiment": "gamma-r"})
        out = tmp_path / "out"
        status = main(["run", path, "--out", str(out), "--seed", "5",
                       "--override", "experiment=ground"])
        assert status == 0
        rep = report_of(out)
        assert rep["experiment"] == "ground"
        assert rep["seed"] == 5

    def test_bad_fit_window_is_config_error(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.cfg", {"experiment": "ground",
                                                 "fit_r_min": "6",
                                                 "fit_r_max": "6.001"})
        out = tmp_path / "out"
        assert main(["run", path, "--out", str(out)]) == 1
        assert "error:" in capsys.readouterr().err
