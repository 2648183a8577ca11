"""Span tracing of minimaxlab from outside the package.

`Tracer.install()` replaces each traced function with a wrapper that records
one span per call: name, start, end, parent span, run id (one per CLI
invocation), minor page faults spent inside the call and, for a few
functions, counters read from the result. Every module-level alias of a
traced function in the package (``from .x import y`` copies) is rebound, and
methods are patched on their class. `uninstall()` puts every original back.

Spans stay in memory; `layer_metrics` turns one execution's spans into the
per-layer metrics listed in `PER_LAYER`.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time

PACKAGE = "minimaxlab"
# The traced layers, one per module of the package.
MODULES = ("domain", "field", "energy", "groundstate", "pathlab", "minimax", "cli")

# (span name, module, attribute path). A dotted attribute is a method patched
# on its class. Span names start with the layer they belong to.
TARGETS = (
    ("domain.build_grid", "domain", "build_grid"),
    ("domain.eval_W", "domain", "eval_W"),
    ("domain.dual_norm_W", "domain", "dual_norm_W"),
    ("field.lp_normalize", "field", "lp_normalize"),
    ("field.translate", "field", "translate"),
    ("field.nodal_domains", "field", "nodal_domains"),
    ("energy.kinetic_energy", "energy", "kinetic_energy"),
    ("energy.mass_I", "energy", "mass_I"),
    ("energy.energy_J", "energy", "energy_J"),
    ("energy.deviation_bound", "energy", "deviation_bound"),
    ("groundstate.shoot_ground", "groundstate", "shoot_ground"),
    ("groundstate.shoot_excited", "groundstate", "shoot_excited"),
    # one radial RK4 integration; private, so it is skipped when absent
    ("groundstate.rk4", "groundstate", "_integrate"),
    ("groundstate.descent", "groundstate", "minimize_lambda1"),
    ("pathlab.path_max_J", "pathlab", "path_max_J"),
    ("pathlab.path_eval", "pathlab", "PathFamily.at"),
    ("pathlab.path_eval", "pathlab", "SampledPath.at"),
    ("pathlab.scan", "pathlab", "SphereMap.scan"),
    ("pathlab.translated_bump_path", "pathlab", "translated_bump_path"),
    ("minimax.lambda2_bounds", "minimax", "lambda2_bounds"),
    ("minimax.lambda2_radial", "minimax", "lambda2_radial"),
    ("cli.run", "cli", "run"),
)

OVERLAP_WARNING = "two-bump path blocks overlap numerically"


def _span_info(name, result):
    """Counters read from a traced call's result, stored on its span."""
    if name == "groundstate.descent":
        return {"iterations": result.iterations,
                "restarts": int(result.restarted_from_abs)}
    if name == "pathlab.scan":
        return {"samples": len(result)}
    if name == "domain.build_grid":
        return {"nodes": result.size}
    return None


class Tracer:
    """Records spans around calls into minimaxlab's public functions."""

    def __init__(self):
        # span: [name, start, end, parent index or -1, run id, minor faults, info]
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock, usage, self_ = time.perf_counter, resource.getrusage, resource.RUSAGE_SELF

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id, 0, None]
            spans.append(span)
            stack.append(idx)
            faults = usage(self_).ru_minflt
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[5] = usage(self_).ru_minflt - faults
                stack.pop()
            span[6] = _span_info(name, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.bench_span = name
        return traced

    def install(self):
        """Wrap every target and rebind all of its aliases in the package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(PACKAGE)]
        modules += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for name, mod, attr in TARGETS:
            owner = importlib.import_module(f"{PACKAGE}.{mod}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._saved.append((cls, meth, orig))
                setattr(cls, meth, self.wrap(name, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._saved.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self):
        for owner, key, orig in reversed(self._saved):
            setattr(owner, key, orig)
        self._saved.clear()


def cache_hits() -> int:
    """Summed lru_cache hits of the two shooting entry points."""
    gs = importlib.import_module(f"{PACKAGE}.groundstate")
    hits = 0
    for f in (gs.shoot_ground, gs.shoot_excited):
        f = f.__wrapped__ if hasattr(f, "bench_span") else f
        if hasattr(f, "cache_info"):
            hits += f.cache_info().hits
    return hits


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest (one thread), so direct children never overlap each other.
    """
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _totals(spans):
    selfs = self_times(spans)
    tot: dict[str, dict] = {}
    for span, self_s in zip(spans, selfs):
        name, start, end, _, _, faults, info = span
        t = tot.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "faults": 0, "info": {}})
        t["calls"] += 1
        t["s"] += end - start
        t["self_s"] += self_s
        t["faults"] += faults
        for k, v in (info or {}).items():  # the largest grid; other counters add up
            t["info"][k] = max(t["info"].get(k, 0), v) if k == "nodes" else t["info"].get(k, 0) + v
    return tot


# Per-layer metrics: (name, unit, what it should move). `moves` names the
# end-to-end metric and the workloads where a change in the layer shows first.
PER_LAYER = (
    ("groundstate.shoot_ground.s", "s", "wall_s on desk, then n3-levels"),
    ("groundstate.shoot_excited.s", "s", "wall_s on desk only"),
    ("groundstate.shoot.calls", "count", "wall_s on desk; well-scan is served by the cache"),
    ("groundstate.shoot.cache_hits", "count", "wall_s on well-scan (3 of 4 shootings hit)"),
    ("groundstate.rk4.calls", "count", "wall_s on desk, then n3-levels"),
    ("groundstate.rk4.s", "s", "wall_s on desk, then n3-levels"),
    ("groundstate.rk4.s_per_call", "s", "wall_s on desk, then n3-levels"),
    ("groundstate.descent.s", "s", "wall_s on n3-levels, then well-scan"),
    ("groundstate.descent.iterations", "count", "wall_s on n3-levels, then well-scan"),
    ("groundstate.descent.restarts", "count", "wall_s on n3-levels, then well-scan"),
    ("groundstate.descent.s_per_iter", "s", "wall_s on n3-levels, then well-scan"),
    ("groundstate.descent.node_iters_per_s", "1/s", "wall_s and peak_rss_mb on n3-levels"),
    ("pathlab.path_max_J.calls", "count", "wall_s on well-scan, then n3-levels"),
    ("pathlab.path_max_J.s", "s", "wall_s on well-scan, then n3-levels"),
    ("pathlab.path_max_J.self_s", "s", "wall_s on well-scan, then n3-levels"),
    ("pathlab.path_eval.calls", "count", "wall_s on well-scan, then n3-levels"),
    ("pathlab.path_eval.s_per_call", "s", "wall_s on well-scan, then n3-levels"),
    ("pathlab.path_eval.minor_faults", "count", "wall_s on well-scan, then n3-levels"),
    ("pathlab.scan.calls", "count", "wall_s on desk only"),
    ("pathlab.scan.samples", "count", "wall_s on desk only"),
    ("pathlab.scan.s", "s", "wall_s on desk only"),
    ("pathlab.scan.self_s", "s", "wall_s on desk only"),
    ("pathlab.translated_bump_path.s", "s", "wall_s on well-scan"),
    ("pathlab.overlap_warnings", "count", "none; counts the overlap warning"),
    ("field.lp_normalize.calls", "count", "wall_s on well-scan, with the path metrics"),
    ("field.lp_normalize.self_s", "s", "wall_s on well-scan, with the path metrics"),
    ("field.translate.calls", "count", "wall_s on desk"),
    ("field.translate.self_s", "s", "wall_s on desk"),
    ("field.nodal_domains.calls", "count", "wall_s on desk only"),
    ("field.nodal_domains.self_s", "s", "wall_s on desk only"),
    ("energy.kinetic_energy.calls", "count", "wall_s on well-scan and desk"),
    ("energy.kinetic_energy.self_s", "s", "wall_s on well-scan and desk"),
    ("energy.mass_I.calls", "count", "wall_s on well-scan and desk"),
    ("energy.energy_J.calls", "count", "wall_s on desk"),
    ("energy.deviation_bound.calls", "count", "wall_s on desk only"),
    ("energy.deviation_bound.self_s", "s", "wall_s on desk only"),
    ("domain.eval_W.calls", "count", "wall_s on desk"),
    ("domain.eval_W.self_s", "s", "wall_s on desk"),
    ("domain.dual_norm_W.calls", "count", "wall_s on desk"),
    ("domain.grid_nodes", "count", "none; the largest grid built"),
    ("minimax.lambda2_bounds.s", "s", "wall_s on well-scan and n3-levels"),
    ("minimax.lambda2_bounds.self_s", "s", "wall_s on well-scan and n3-levels"),
    ("minimax.lambda2_radial.s", "s", "wall_s on desk only"),
    ("cli.run.s", "s", "wall_s on every workload"),
    ("cli.run.self_s", "s", "wall_s on every workload (hashing, report and CSV writing)"),
    ("cli.output_bytes", "count", "wall_s on every workload, slightly"),
    ("proc.cpu_s", "s", "wall_s and peak_rss_mb on n3-levels"),
    ("proc.minor_faults", "count", "wall_s and peak_rss_mb on n3-levels"),
    ("trace.overhead_s", "s", "none; traced minus untraced wall time"),
    ("trace.spans", "count", "none; spans recorded per execution"),
)


def layer_metrics(spans, extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced execution.

    `extra` supplies what spans do not hold: shooting cache hits, overlap
    warnings, output bytes, process CPU time and faults, and the overhead.
    """
    tot = _totals(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "faults": 0, "info": {}}

    def t(name):
        return tot.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    rk4, desc, ev = t("groundstate.rk4"), t("groundstate.descent"), t("pathlab.path_eval")
    iters = desc["info"].get("iterations", 0)
    nodes = t("domain.build_grid")["info"].get("nodes", 0)
    out = {
        "groundstate.shoot.calls": t("groundstate.shoot_ground")["calls"]
        + t("groundstate.shoot_excited")["calls"],
        "groundstate.shoot.cache_hits": extra["cache_hits"],
        "groundstate.rk4.s_per_call": ratio(rk4["s"], rk4["calls"]),
        "groundstate.descent.iterations": iters,
        "groundstate.descent.restarts": desc["info"].get("restarts", 0),
        "groundstate.descent.s_per_iter": ratio(desc["s"], iters),
        "groundstate.descent.node_iters_per_s": ratio(nodes * iters, desc["s"]),
        "pathlab.path_eval.s_per_call": ratio(ev["s"], ev["calls"]),
        "pathlab.path_eval.minor_faults": ev["faults"],
        "pathlab.scan.samples": t("pathlab.scan")["info"].get("samples", 0),
        "pathlab.overlap_warnings": extra["overlap_warnings"],
        "domain.grid_nodes": nodes,
        "cli.output_bytes": extra["output_bytes"],
        "proc.cpu_s": extra["cpu_s"],
        "proc.minor_faults": extra["minor_faults"],
        "trace.overhead_s": extra["overhead_s"],
        "trace.spans": len(spans),
    }
    for name, _, _ in PER_LAYER:  # the rest are <span name>.<calls|s|self_s> totals
        if name not in out:
            span_name, field = name.rsplit(".", 1)
            out[name] = t(span_name)[field]
    return {name: out[name] for name, _, _ in PER_LAYER}


def median_metrics(per_execution: list[dict]) -> dict[str, float]:
    """Metric-wise median over executions."""
    return {k: statistics.median(m[k] for m in per_execution) for k in per_execution[0]}
