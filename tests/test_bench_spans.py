"""The names ``bench/spans.py`` traces still name phl functions and methods.

``Tracer.install`` wraps each listed method through its class's
``__dict__`` and reads each metric group, observer and untraced name by the
span name of a phl function, so a rename in phl silently empties a metric
or breaks a traced run.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"

#: Names ``bench/spans.py`` still lists although phl no longer has them;
#: they go with the next change to the benchmark.
DEAD = {"core.coproduct", "core.resolve_guard"}


@pytest.fixture(scope="module")
def spans():
    # executed from its source, so that nothing is written under bench/
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def _resolves(name):
    layer, *path = name.split(".")
    target = importlib.import_module(f"phl.{layer}")
    for part in path:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return callable(target)


def test_every_traced_method_is_its_class_own(spans):
    missing = [
        (layer, cls, method)
        for layer, cls, method in spans.METHODS
        if method not in vars(getattr(importlib.import_module(f"phl.{layer}"), cls))
    ]
    assert missing == []


def test_every_span_name_resolves_in_phl(spans):
    names = set(spans.UNTRACED) | set(spans.OBSERVERS)
    names |= {name for members in spans.GROUPS.values() for name in members}
    names = {name.removesuffix(".next") for name in names}
    assert {name for name in names if not _resolves(name)} <= DEAD
