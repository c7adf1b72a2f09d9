"""The benchmark's layer tracer names only methods and functions that exist.

``bench/tracer.py`` patches edgesched by attribute name, so a renamed method
would only surface when a traced benchmark run starts.  The tracer module is
loaded from its file here; ``Tracer.install`` is never called, because it
patches the classes for the whole process.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("edgesched_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    targets = load_tracer()._TARGETS
    assert targets
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr} ({span})"
        for owner, attr, span in targets
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []

