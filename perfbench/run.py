"""The repository benchmark.

    python3 perfbench/run.py --workload {bundled,family,queries} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Each workload runs in its own fresh child process (``worker.py``), one at a
time, single-threaded, under an address-space cap and a per-op deadline.
The child runs closed-loop passes over the workload's ops (one caller, the
next op starts when the previous one returns) until another pass would not
fit in ``--seconds``; at least one pass always runs.  The seed makes the
inputs and shuffles the op order.

End-to-end metrics (``--trace 0``) charge every failed op twice the
deadline (PAR-2): ``par2_s`` is the mean op latency and ``op_p50_s`` the
median under that charge.  Where many ops fail, the charge is most of
``par2_s``, so ``answered_mean_s`` times the program itself: the mean
latency of the ops that returned an answer (right or wrong) at the commit
the references were made at, a fixed set named by ``known_raising`` in
refs.json, so that fixing a failure cannot slow it.  ``setup_s`` is the
median, over several fresh children, of what a child spends before its
first op (interpreter start, imports and input generation).  Every time is
the child's CPU time, not wall time (see ``worker.run_op``); the report
line also gives the wall-time figures.  ``peak_rss_mb``, the child's
maximum resident set, is printed with the report line of every run and
among the traced run's metrics: on ``family`` it is set by where the
address-space cap stops the known unbounded allocation, which moves by
about 20% with the state of the heap, too much for a bound.
The traced run (``--trace 1``) runs one untraced pass, then one pass with
wrappers on every layer's entry points, and reports per-layer metrics, the
failure counts by reason and the tracing overhead (on ``answered_mean_s``).

Every failed op counts in ``failed``: it raised (a ``BudgetExceededError``
refusal included), missed the deadline or gave an answer its oracle
rejects.  ``correct`` is false when an answer is wrong that was right at
the commit the references were made at; the answers already wrong there
(``known_wrong`` in refs.json) stay counted as failures.

The line before the result holds the full report (op counts, the tail
percentile, failure reasons); the last line is the result object.  A
non-zero exit means the benchmark could not run, for instance because the
checkout has no ``src/traintracks``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from worker import DEADLINE_S, KNOWN_FAILURES  # the child enforces both
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

CHARGE_S = 2 * DEADLINE_S

SETUP_PROBES = 2  # extra children that only set up; the measuring child adds one sample
RUN_LIMIT_S = 170.0  # the whole run, children included
FAIL_REASONS = KNOWN_FAILURES + ("deadline", "oracle", "other")

ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONDONTWRITEBYTECODE": "1",
}


def spawn(args, deadline: float) -> tuple:
    """Run one worker child to completion; (start time, parsed result)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(ENV)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def latencies(records) -> list:
    return sorted(CHARGE_S if r["fail"] else r["s"] for r in records)


def answered_latencies(records, raising) -> list:
    """Latencies of the ops that returned an answer at the reference commit,
    right or wrong; one of them that now raises or misses the deadline is
    charged like a failure."""
    return [
        CHARGE_S if r["fail"] not in (None, "oracle") else r["s"] for r in records if r["name"] not in raising
    ]


def tail(lat) -> tuple:
    """(value, percentile) of the highest percentile with >= 10 ops beyond it."""
    if len(lat) < 11:
        return None, None
    i = len(lat) - 11
    return lat[i], 100.0 * (i + 1) / len(lat)


def summarize(records, raising) -> dict:
    lat = latencies(records)
    answered = answered_latencies(records, raising)
    tail_s, tail_pct = tail(lat)
    fails = {reason: sum(r["fail"] == reason for r in records) for reason in FAIL_REASONS}
    return {
        "n": len(lat),
        "par2_s": statistics.fmean(lat),
        "n_answered": len(answered),
        "answered_mean_s": statistics.fmean(answered),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail_s,
        "op_tail_pct": tail_pct,
        "fail_frac": sum(fails.values()) / len(lat),
        "fails": fails,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run only the first OPS ops of each pass (smoke tests)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "traintracks", "__init__.py")):
        print("no src/traintracks in this checkout; nothing to benchmark", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    setup, setup_wall = [], []
    for _ in range(SETUP_PROBES):
        started, probe = spawn([f"{args.workload}:setup", args.seed, 0, 0], deadline)
        setup.append(probe["setup_s"])
        setup_wall.append(probe["setup_done"] - started)
    extra = [] if args.ops is None else [args.ops]
    started, out = spawn([args.workload, args.seed, args.seconds, args.trace, *extra], deadline)
    setup.append(out["setup_s"])
    setup_wall.append(out["setup_done"] - started)

    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)
    raising = set(refs["known_raising"])
    records = [r for p in out["passes"] for r in p]
    run = summarize(records, raising)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(out["passes"]),
        "ops_per_pass": out["n_ops"],
        "setup_samples_s": setup,
        "deadline_s": DEADLINE_S,
        "peak_rss_mb": out["peak_rss_mb"],
        **run,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            **{k: v for k, v in summarize([dict(r, s=r["wall_s"]) for r in records], raising).items() if k.endswith("_s")},
        },
        "failed_ops": [f"{r['name']}: {r['why']}" for r in records if r["fail"]][:20],
    }
    if "family" in out:
        report["family"] = out["family"]
    if args.trace:
        traced = summarize(out["traced_pass"], raising)
        layers = dict(out["layers"])
        layers.update({f"fail.{reason}": run["fails"][reason] for reason in FAIL_REASONS})
        layers["fail_frac"] = run["fail_frac"]
        layers["trace.overhead_frac"] = traced["answered_mean_s"] / run["answered_mean_s"] - 1.0
        layers["pipeline.report_drift"] = sum(bool(r["drift"]) for r in records)
        layers["peak_rss_mb"] = out["peak_rss_mb"]
        report["traced_fails"] = traced["fails"]
        values, kind = layers, "per_layer"
    else:
        values = {name: run[name] for name in ("par2_s", "answered_mean_s", "op_p50_s")}
        values["setup_s"] = statistics.median(setup)
        kind = "end_to_end"
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = {m["name"]: metric(values[m["name"]], m["unit"]) for m in json.load(fh)[kind]}
    known = set(refs["known_wrong"])
    checked = records + out.get("traced_pass", [])
    unexpected = [r for r in checked if r["fail"] == "oracle" and r["name"] not in known]
    report["unexpected_wrong"] = [f"{r['name']}: {r['why']}" for r in unexpected][:20]
    print(json.dumps(report))
    result = {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": sum(bool(r["fail"]) for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
