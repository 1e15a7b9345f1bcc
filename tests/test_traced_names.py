"""Every entry point the benchmark's tracer patches exists in the package.

``perfbench/tracing.py`` wraps package functions and methods by name; a
renamed entry point would crash the traced benchmark run, which the tier-1
suite does not execute.  The module is loaded from its file, not from an
installed package, and nothing in it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tracing = _load_tracing()
TRACED = [(module, attr) for _, module, attr, _ in _tracing.SPANS] + [
    (module, attr) for module, attr, _ in _tracing.COUNTERS
]


@pytest.mark.parametrize("module, attr", TRACED, ids=[f"{m}:{a}" for m, a in TRACED])
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(owner, cls_name).__dict__[meth])
    else:
        assert callable(getattr(owner, attr))
