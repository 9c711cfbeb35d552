"""The library names that the benchmark's tracer wraps still exist.

`bench/spans.py` installs its spans with `owner.__dict__[attr]`, so a name
dropped or moved out of a listed namespace would fail `--trace 1` with a
KeyError; this test names it first.
"""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_in_its_namespace():
    missing = []
    for target, attr, *_ in _load_spans().WRAPS:
        owner = importlib.import_module(target) if isinstance(target, str) else target
        if attr not in owner.__dict__:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    assert not missing, "bench/spans.py wraps names that are gone: " + ", ".join(missing)
