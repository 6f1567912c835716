"""The benchmark's tracer wraps lanekit functions by name (perfbench/tracer.py).

A refactor that drops or renames one of those names breaks traced benchmark
runs; this test makes it fail here instead.  It reads perfbench/ and
changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_name():
    tracer = load_tracer()
    names = [(importlib.import_module(ns), attr)
             for ns, attrs in tracer.WRAPPED.items() for attr in attrs]
    originals = {(ns.__name__, attr): getattr(ns, attr) for ns, attr in names}
    t = tracer.Tracer()
    try:
        t.install()
        for ns, attr in names:
            assert getattr(ns, attr) is not originals[ns.__name__, attr], (ns.__name__, attr)
    finally:
        t.uninstall()
    for ns, attr in names:
        assert getattr(ns, attr) is originals[ns.__name__, attr], (ns.__name__, attr)
