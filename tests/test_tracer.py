"""The benchmark's tracer wraps lanekit functions by name (perfbench/tracer.py).

A refactor that drops or renames one of those names breaks traced benchmark
runs; this test makes it fail here instead.  The tracer's names are also
the only imports a lanekit module may leave unused.  These tests read
perfbench/ and change nothing there.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def _unused_imports(source: str) -> set[str]:
    """Names the module ``source`` imports but never reads or lists in ``__all__``."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "__all__":
            used |= set(ast.literal_eval(node.value))
    return imported - used


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(p.name for p in (ROOT / "src" / "lanekit").glob("*.py")
                                        if p.name != "__init__.py"))
def test_unused_imports_are_only_the_tracers(path):
    wrapped = load_tracer().WRAPPED.get(f"lanekit.{path[:-3]}", {})
    unused = _unused_imports((ROOT / "src" / "lanekit" / path).read_text())
    assert unused <= set(wrapped), sorted(unused - set(wrapped))
