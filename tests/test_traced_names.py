"""Every entry point the benchmark's tracer patches exists in the package,
and every result attribute its hooks read is there with a numeric type.

``perfbench/tracing.py`` wraps package functions and methods by name and
reads counters off their results; a renamed entry point or a dropped result
attribute would crash the traced benchmark run, which the tier-1 suite does
not execute.  The module is loaded from its file, not from an installed
package, and nothing in it is installed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from traintracks import (
    build_leaf_corpus,
    classify_growth,
    expand_leaf,
    find_eigen_seed,
    limit_length,
    measure_cancellation,
    pf_eigen,
    quasiperiodicity_window,
    weak_limit_probe,
)

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


def test_hooked_results_carry_the_attributes_read(fib, fib_tt):
    """Each counter hook runs on a real result, on fibonacci, and the
    attributes it reads have the types it adds up."""
    pf = pf_eigen(fib_tt.matrix)
    limit = limit_length(fib, "ab", fib_tt)
    growth = classify_growth(fib, "ab", M=10)
    probe = weak_limit_probe(fib, "ab", build_leaf_corpus(fib_tt, depth=6))
    prefix = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=6)
    window = quasiperiodicity_window(prefix, "a")
    sample = measure_cancellation(fib_tt.gmap, fib_tt.metric, samples=5)
    assert isinstance(pf.iterations, int)
    assert isinstance(limit.m_stop, int) and isinstance(limit.classification.escalated, bool)
    assert isinstance(growth.escalated, bool)
    assert isinstance(probe.word, str) and isinstance(probe.verdict, bool)
    assert isinstance(window.prefix_length, int)
    assert isinstance(sample.count, int)
    assert isinstance(prefix.word, str)
    hooked = [
        (_tracing._pf_eigen_hook, pf),
        (_tracing._limit_length_hook, limit),
        (_tracing._classify_growth_hook, growth),
        (_tracing._weak_limit_probe_hook, probe),
        (_tracing._window_hook, window),
        (_tracing._cancellation_hook, sample),
        (_tracing._expand_leaf_hook, prefix),
    ]
    tracer = _tracing.Tracer()
    for hook, result in hooked:
        hook(tracer, [0.0, 0], (), {}, result)
    assert tracer.count["spectral.pf_eigen.iterations"] == 0
    assert tracer.count["limits.limit_length.m_stop_sum"] == limit.m_stop
    assert tracer.count["laminations.expand_leaf.letters"] == len(prefix.word)
