"""The benchmark's layer tracer names only functions the program still has."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,path", [
    (module, path) for module, path, _, _ in load_layertrace().TRACE_POINTS])
def test_trace_point_resolves(module, path):
    """Each traced name resolves as `Tracer.install` looks it up: classes
    by attribute, the function in its owner's own namespace. A
    traced function that is deleted or renamed fails here, not only under
    `perfbench/run.py --trace 1`."""
    owner = importlib.import_module(module)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attr)), f"{module}.{path}"
