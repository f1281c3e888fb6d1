"""The benchmark's tracer patches methods by name; a refactor that moves one fails here.

``perfbench/spans.py`` replaces each method it traces in its class's own
``__dict__`` and restores it afterwards, so every method it names must be
defined in that class, not inherited or deleted.  The file is loaded by path
and only read.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_methods_are_defined_in_their_classes():
    spans = _load_spans()
    named = [(short, cls_name, (attr,)) for short, cls_name, attr in spans.METHOD_SPANS]
    named += list(spans.METHOD_COUNTS)
    assert named
    for short, cls_name, attrs in named:
        cls = getattr(importlib.import_module(f"twistsum.{short}"), cls_name)
        for attr in attrs:
            assert attr in vars(cls), f"{short}.{cls_name}.{attr} is not in the class's own dict"
