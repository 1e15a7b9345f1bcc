"""Reference data stored with the benchmark: ``python3 perfbench/refs.py``.

Writes ``perfbench/refs.json`` with

* ``limits``: the limit length of every class of length <= 5 of the three
  expanding bundled maps, computed without the package by
  delta-extrapolation.  With L_m the eigenmetric length of the cyclically
  reduced psi^m(x) and k the cyclic index, the per-stride loss
  delta_m = lam^k L_m - L_{m+k} is constant once the illegal turns of the
  orbit have stabilised, and the limit is then exactly
  L_m / lam^m - delta / (lam^m (lam^k - 1)).  The scan starts at m = 10 k
  (earlier starts give false references: Fibonacci's ``aaBB`` stalls at
  length 4 for four steps) and waits until delta repeats over three strides.
* ``reports``: digests of ``report_json(analyze(...))`` for the bundled maps
  with ``meta`` removed, used to count reports that drift from the commit
  the references were made at.
* ``segments``: for the ``queries`` window ops, every segment of at most
  ``workloads.MAX_SEGMENT`` letters near the centre of each leaf prefix, so
  that the leaf is built by a timed op and not while setting up.
* ``known_wrong``: the ops whose answers already fail their oracle at that
  commit (documented defects).  They still count as failed ops; a run is
  reported incorrect only when some other answer is wrong.
* ``known_raising``: the ops that raise at that commit.  The others are
  the fixed set that ``answered_mean_s`` averages over.

Only the class lists, the segment lists, the golden reports and the
known-wrong and known-raising lists come from the package.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

QUERY_MAPS = ("fibonacci", "fibonacci-conj-a", "swap-fibonacci")
MAX_CLASS_LEN = 5
MAX_M = 400
MAX_LETTERS = 5_000_000


def pf_data(images):
    """Stretch factor, cyclic index and eigenmetric (left PF vector, sum 1)."""
    mat = oracles.transition_matrix(images)
    vals, vecs = np.linalg.eig(mat.T)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    k = int(np.sum(np.abs(np.abs(vals) - lam) < 1e-9 * lam))
    nu = np.abs(vecs[:, i].real)
    return lam, k, nu / nu.sum()


def reference_limit(images, word: str, lam: float, k: int, nu) -> float:
    table = oracles.letter_table(images)
    rank = len(images)
    w = oracles.cyclic_core(oracles.free_reduce(word))
    lengths = []
    lamk = lam**k
    for m in range(MAX_M + 1):
        counts = [w.count(g) + w.count(g.upper()) for g in oracles.LETTERS[:rank]]
        lengths.append(float(np.dot(counts, nu)))
        start = m - 3 * k
        if start >= 10 * k:
            deltas = [lamk * lengths[j] - lengths[j + k] for j in (start, start + k, start + 2 * k)]
            slack = 1e-13 * lengths[m] + 1e-12
            if max(deltas) - min(deltas) <= slack:
                return lengths[start] / lam**start - deltas[0] / (lam**start * (lamk - 1.0))
        if lengths[m] / lam**m < 1e-13:
            return 0.0
        w = w.translate(table)
        if oracles.has_cancellation(w, rank) or (len(w) > 1 and w[0] == w[-1].swapcase()):
            w = oracles.cyclic_core(oracles.free_reduce(w))
        if len(w) > MAX_LETTERS:
            break
    raise RuntimeError(f"delta did not settle for {word!r}")


def main():
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import traintracks as tt
    from traintracks import corpus

    limits = {}
    for name in QUERY_MAPS:
        images = corpus.get(name).images
        lam, k, nu = pf_data(images)
        words = tt.enumerate_cyclic_words(len(images), MAX_CLASS_LEN)
        limits[name] = {w: reference_limit(images, w, lam, k, nu) for w in words}
        print(f"{name}: {len(words)} classes, lambda {lam:.12g}, k {k}", file=sys.stderr)
    reports = {
        name: workloads.report_digest(tt.report_json(tt.analyze(corpus.input_text(name))))
        for name in sorted(corpus.REGISTRY)
    }
    segments = {}
    for name in workloads.WINDOW_MAPS:
        data = tt.analyze_train_track(tt.rose_map(corpus.get(name)))
        leaves = tt.build_leaf_corpus(data, depth=workloads.LEAF_DEPTH, budget=workloads.LEAF_BUDGET)
        segments[name] = {str(p.block): workloads.leaf_segments(p) for p in leaves.prefixes}
    refs = {"limits": limits, "reports": reports, "segments": segments, "known_wrong": [], "known_raising": []}
    _write(refs)

    import resource
    import signal

    import worker

    resource.setrlimit(resource.RLIMIT_AS, (worker.ADDRESS_SPACE_CAP, worker.ADDRESS_SPACE_CAP))
    signal.signal(signal.SIGALRM, worker._on_alarm)
    wrong, raising = [], []
    for workload in workloads.WORKLOADS:
        records = worker.run_pass(workloads.build(tt, workload, 0))
        wrong += [r["name"] for r in records if r["fail"] == "oracle"]
        raising += [r["name"] for r in records if r["fail"] not in (None, "oracle")]
        print(f"{workload}: {len(wrong)} wrong answers, {len(raising)} raised so far", file=sys.stderr)
    refs["known_wrong"] = sorted(wrong)
    refs["known_raising"] = sorted(raising)
    _write(refs)


def _write(refs):
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
