"""The benchmark tracer (bench/spans.py) patches the package's functions and
methods by name, so installing it fails once a traced method is gone."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_method_and_uninstalls():
    spans = load_spans()
    methods = []
    for _, mod, attr in spans.TARGETS:
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(f"minimaxlab.{mod}"), cls_name)
            methods.append((cls, meth, cls.__dict__[meth]))
    assert methods
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cls, meth, orig in methods:
            assert cls.__dict__[meth].__wrapped__ is orig, (cls, meth)
    finally:
        tracer.uninstall()
    for cls, meth, orig in methods:
        assert cls.__dict__[meth] is orig, (cls, meth)


# targets whose functions are gone, so they read 0 on every traced run; they
# are dropped from bench/spans.py with the tracer's other stale metrics
# (ROADMAP item 7)
STALE_TARGETS = {"field.nodal_domains", "energy.kinetic_energy"}


def test_every_function_target_resolves():
    # install() skips a missing function without a word, so a renamed or
    # deleted function would leave its metrics silently at 0
    spans = load_spans()
    missing = {name for name, mod, attr in spans.TARGETS if "." not in attr
               and not hasattr(importlib.import_module(f"minimaxlab.{mod}"), attr)}
    assert missing == STALE_TARGETS


def test_cache_hits_counts_a_repeated_shooting():
    # cache_hits() reads the caches of shoot_ground and shoot_excited by name
    from minimaxlab.groundstate import shoot_ground

    spans = load_spans()
    shoot_ground(2, 4.0, 1.0)
    before = spans.cache_hits()
    shoot_ground(2, 4.0, 1.0)
    assert spans.cache_hits() == before + 1
