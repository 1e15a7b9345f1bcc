"""The benchmark's own tests: ``python3 -m pytest perfbench -q`` from the root.

They check that every oracle rejects a forged answer, that the tracing
wrappers leave results untouched, that a tiny run of each workload prints
every metric ``BENCHMARK.json`` names, and that the recorded reasons and
predictions refer to metrics the benchmark reports.
"""

import copy
import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import traintracks as tt  # noqa: E402
from traintracks import corpus  # noqa: E402

PHI = (1 + math.sqrt(5)) / 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    BENCH = json.load(fh)


@pytest.fixture(scope="module")
def fib_report():
    config = tt.AnalysisConfig(max_word_len=3, leaf_depth=8, leaf_budget=50_000)
    return tt.analyze(corpus.input_text("fibonacci"), config=config)


def test_report_oracle_accepts_truth_and_rejects_perturbed_lambda(fib_report):
    images = corpus.get("fibonacci").images
    assert oracles.check_report(images, fib_report) is None
    forged = copy.deepcopy(fib_report)
    forged["spectral"]["lambda"] *= 1 + 1e-6
    assert oracles.check_report(images, forged).startswith("lambda:")


def test_report_oracle_rejects_wrong_train_track_verdict(fib_report):
    forged = copy.deepcopy(fib_report)
    forged["train_track"].update(is_train_track=False, fails_at_iterate=2)
    assert oracles.check_report(corpus.get("fibonacci").images, forged).startswith("train_track:")
    # fibonacci-conj-b first cancels at the second iterate (criterion 2)
    assert oracles.first_cancellation(corpus.get("fibonacci-conj-b").images) == (2, 1)


def test_limit_oracle_rejects_two_tol():
    refs = workloads.load_refs()["limits"]["fibonacci"]
    assert abs(refs["a"] - 1 / PHI) < 1e-12
    assert abs(refs["aB"] - 1 / PHI**3) < 1e-12
    tol = workloads.LIMIT_TOL
    assert oracles.check_limit(refs["a"] + 0.5 * tol, refs["a"], tol) is None
    assert oracles.check_limit(refs["a"] + 2 * tol, refs["a"], tol).startswith("limit:")


def test_window_oracle_rejects_forged_window():
    data = tt.analyze_train_track(tt.rose_map(corpus.get("fibonacci")))
    prefix = tt.build_leaf_corpus(data, depth=10, budget=100_000).prefixes[0]
    for segment in ("a", "ab", "abaab", "baaba"):
        cert = tt.quasiperiodicity_window(prefix, segment)
        assert oracles.check_window(prefix.word, segment, cert.window, cert.status) is None
        for forged in (cert.window - 1, cert.window + 1):
            assert oracles.check_window(prefix.word, segment, forged, cert.status) is not None
    assert oracles.check_window(prefix.word, "bb", 5, "certified").startswith("window:")


def test_leaf_oracle_rejects_forged_prefix():
    import dataclasses

    images = corpus.get("swap-fibonacci").images
    data = tt.analyze_train_track(tt.rose_map(corpus.get("swap-fibonacci")))
    for budget in (100_000, 1_000):  # the second one trims while expanding
        for prefix in tt.build_leaf_corpus(data, depth=8, budget=budget).prefixes:
            assert oracles.check_leaf(images, prefix, budget) is None
            shifted = dataclasses.replace(prefix, center=prefix.center + 1)
            assert oracles.check_leaf(images, shifted, budget).startswith("leaf:")
            cut = dataclasses.replace(prefix, word=prefix.word[:-1])
            assert oracles.check_leaf(images, cut, budget).startswith("leaf:")
            seed = dataclasses.replace(prefix.seed, anchor=prefix.seed.occurrences[0])
            assert oracles.check_leaf(images, dataclasses.replace(prefix, seed=seed), budget).startswith("leaf:")


def test_tracing_passes_results_through(fib_report):
    tracer = tracing.Tracer()
    restore = tracer.install()
    try:
        config = tt.AnalysisConfig(max_word_len=3, leaf_depth=8, leaf_budget=50_000)
        traced = tt.analyze(corpus.input_text("fibonacci"), config=config)
    finally:
        restore()
    strip = lambda r: workloads.report_digest(tt.report_json(r))  # noqa: E731
    assert strip(traced) == strip(fib_report)
    metrics = tracer.metrics()
    assert metrics["pipeline.analyze.self_s"] > 0
    assert metrics["subst.calls"] > 0 and metrics["laminations.longest_leaf_segment.calls"] > 0
    assert tt.analyze.__module__ == "traintracks.pipeline" and not hasattr(tt.analyze, "__wrapped__")


def test_family_design_and_regime_shares():
    maps = __import__("family").generate(tt, 0)
    assert len(maps) == 28 and sum(m.conjugated for m in maps) == 14
    for fm in maps:
        assert tt.Automorphism(fm.images, inverse_images=fm.inverse_images).validate().ok, fm.name
    regimes = workloads.family_regimes(tt)
    assert all(m["train_track"] != m["conjugated"] for m in regimes["maps"])
    assert 0 < regimes["share_lambda_above_3.4"] < 1 and 0 < regimes["share_lambda_below_1.1"] < 1


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--ops", "4"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric(workload):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        result = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] % 4 == 0 and result["correct"] is True
        expected = {m["name"]: m["unit"] for m in BENCH[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bundled", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_reasons_and_predictions_are_recorded():
    for w in BENCH["workloads"]:
        assert w["why"].strip()
    with open(os.path.join(HERE, "predictions.json")) as fh:
        pred = json.load(fh)
    assert set(pred["workloads"]) == {w["name"] for w in BENCH["workloads"]}
    per_layer = {m["name"] for m in BENCH["per_layer"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]} | {"op_tail_s", "fail_frac", "peak_rss_mb"}
    for row in pred["predictions"]:
        assert set(row["layer_metrics"]) <= per_layer, row
        assert set(row["moves"]) <= set(pred["workloads"]), row
        for moved in row["moves"].values():
            assert set(moved) <= end_to_end, row
