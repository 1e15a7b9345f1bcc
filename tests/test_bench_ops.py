"""One op of each kind from each benchmark workload runs and passes its oracle.

``test_bench_api.py`` checks that the names the benchmark calls exist; this
runs a few of its ops through ``workloads.build`` and each op's own oracle,
so a changed signature or answer shows up here before a benchmark run.
"""

import sys
from pathlib import Path

import traintracks

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402

# In order: the window op reads the leaf the leaf op before it built.
CASES = [
    ("bundled", "identity"),
    ("family", "r2-m1"),
    ("queries", "fibonacci:a"),
    ("queries", "fibonacci:leaf"),
    ("queries", "fibonacci:0:ab"),
]


def test_one_op_of_each_kind_passes_its_oracle():
    built = {w: {op.name: op for op in workloads.build(traintracks, w, 0)} for w in ("bundled", "family", "queries")}
    ops = [built[w][name] for w, name in CASES]
    assert [op.kind for op in ops] == ["analyze", "analyze", "limit", "leaf", "window"]
    assert {op.name: op.check(op.run()) for op in ops} == {name: None for _, name in CASES}
