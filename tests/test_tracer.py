"""The benchmark tracer's wrap list against the package it wraps.

``bench/tracer.py`` replaces package functions by name when a benchmark
runs with ``--trace 1``.  A renamed or deleted name would fail only there,
so these tests check that every name still resolves the way
``Tracer._replace`` looks it up.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)

TARGETS = [(module, attribute) for module, attribute, *_ in tracer.WRAPS] + [
    (module, f"{cls_name}.glue") for module, cls_name in tracer.GLUE_THEORIES]


def _lookup(module, attribute):
    """What ``Tracer._replace`` wraps: a module global, or a name in the
    class's own dict (an inherited method would not be found)."""
    mod = importlib.import_module(f"umpair.{module}")
    if "." in attribute:
        cls_name, name = attribute.split(".")
        return vars(getattr(mod, cls_name))[name]
    return getattr(mod, attribute)


@pytest.mark.parametrize("module,attribute", TARGETS,
                         ids=[f"{m}.{a}" for m, a in TARGETS])
def test_every_traced_name_resolves(module, attribute):
    raw = _lookup(module, attribute)
    assert isinstance(raw, classmethod) or callable(raw)

