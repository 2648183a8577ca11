"""Self-tests of the benchmark: tracing wrappers, span arithmetic and checks.

Run with: python3 -m pytest bench/tests -q
"""

import copy
import importlib
import json
import os

import checks
import run
import spans

import minimaxlab

MODULES = [minimaxlab] + [importlib.import_module(f"minimaxlab.{m}") for m in spans.MODULES]


def _bindings():
    """Every (owner, key, original) that install() should replace."""
    found = []
    for _, mod, attr in spans.TARGETS:
        owner = importlib.import_module(f"minimaxlab.{mod}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            found.append((cls, meth, cls.__dict__[meth]))
            continue
        orig = getattr(owner, attr, None)
        if orig is None:  # install() skips an absent private target
            continue
        found += [(m, key, orig) for m in MODULES for key, v in vars(m).items() if v is orig]
    return found


def test_install_rebinds_every_alias_and_uninstall_restores_it():
    bindings = _bindings()
    names = {(getattr(o, "__name__", ""), k) for o, k, _ in bindings}
    # aliases made by `from .x import y` in each importing module
    for alias in [("minimaxlab", "shoot_ground"), ("minimaxlab.cli", "shoot_ground"),
                  ("minimaxlab.cli", "lambda2_bounds"), ("minimaxlab.minimax", "path_max_J"),
                  ("minimaxlab.pathlab", "lp_normalize"), ("minimaxlab.groundstate", "kinetic_energy"),
                  ("minimaxlab.energy", "dual_norm_W")]:
        assert alias in names
    tracer = spans.Tracer()
    tracer.install()
    try:
        for owner, key, orig in bindings:
            now = vars(owner)[key]
            assert now is not orig and now.__wrapped__ is orig, (owner, key)
    finally:
        tracer.uninstall()
    for owner, key, orig in bindings:
        assert vars(owner)[key] is orig, (owner, key)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    tree = [["root", 0.0, 10.0, -1, 0, 0, None], ["a", 1.0, 4.0, 0, 0, 0, None],
            ["c", 2.0, 3.0, 1, 0, 0, None], ["b", 5.0, 9.0, 0, 0, 0, None],
            ["a", 12.0, 14.0, -1, 1, 0, None]]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 4.0, 2.0]
    totals = spans._totals(tree)
    assert totals["a"]["calls"] == 2
    assert totals["a"]["s"] == 5.0 and totals["a"]["self_s"] == 4.0


def _report_from(ref: dict) -> dict:
    """A report.json payload whose checked part equals the reference entry."""
    levels = {"extras": {}}
    for key, value in ref["levels"].items():
        if key.startswith("gamma_r_maxima."):
            levels["extras"].setdefault("gamma_r_maxima", {})[key.split(".", 1)[1]] = value
        elif "." in key:
            outer, inner = key.split(".")
            levels.setdefault(outer, {})[inner] = value
        else:
            levels[key] = value
    return {"levels": levels, "verdicts": [{"id": i, "status": s} for i, s in ref["verdicts"]]}


def test_check_rejects_a_perturbed_level_and_a_flipped_verdict():
    ref = checks.load_references()["desk"][0]
    report = _report_from(ref)
    assert checks.compare(report, ref) == []
    for key in ("lam2.upper", "lam1", "gamma_r_maxima.9.0"):
        for rel, accepted in ((1e-12, True), (1e-6, False)):
            bad = copy.deepcopy(ref)
            bad["levels"][key] *= 1.0 + rel
            assert (checks.compare(_report_from(bad), ref) == []) is accepted, (key, rel)
    flipped = copy.deepcopy(report)
    flipped["verdicts"][0]["status"] = "fail"
    assert checks.compare(flipped, ref)


class _Stub:
    def __init__(self, records):
        self.records = records

    def runs(self):
        return self.records


def test_differing_report_hash_counts_as_failed(tmp_path):
    ref = checks.load_references()["desk"][0]
    execs = []
    for n, digest in enumerate(["aa", "aa", "bb"]):
        out = tmp_path / f"ex{n}"
        out.mkdir()
        (out / "report.json").write_text(json.dumps({**_report_from(ref), "report_hash": digest}))
        execs.append(_Stub([{"exit": 0, "error": None, "out": str(out)}]))
    attempted, failed, problems = run.check(execs, [ref])
    assert (attempted, failed) == (3, 1)
    assert "differs" in problems[0]
    execs.append(_Stub([{"exit": 2, "error": None, "out": str(tmp_path / "ex0")}]))
    assert run.check(execs, [ref])[1] == 2


def test_benchmark_json_lists_what_the_benchmark_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in spans.PER_LAYER]


def test_traced_desk_calls_every_layer_and_matches_its_reference(tmp_path):
    job = run.make_job("desk", 3, str(tmp_path), "traced", True, False)
    ex = run.spawn(job, str(tmp_path / "traced.log"), 170.0)
    assert ex.exit_code == 0, (tmp_path / "traced.log").read_text()
    called = {name.split(".")[0] for name, *_ in ex.result["spans"]}
    assert called == set(spans.MODULES)
    ref = checks.load_references()["desk"]
    assert run.check([ex], ref)[:2] == (1, 0)
    assert ex.result["overlap_warnings"] == 5
    metrics = spans.layer_metrics(ex.result["spans"], {
        "cache_hits": ex.result["cache_hits"], "overlap_warnings": 5, "output_bytes": 0,
        "cpu_s": 0.0, "minor_faults": 0, "overhead_s": 0.0})
    assert [name for name, _, _ in spans.PER_LAYER] == list(metrics)
    assert metrics["groundstate.rk4.calls"] > 0 and metrics["pathlab.scan.calls"] == 3
