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
