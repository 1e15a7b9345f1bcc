"""The three workloads as lists of ops.

An op is one user request: a callable that runs it through the package's
public API, and an oracle that checks its answer (``None`` when right).
Every call goes through the ``traintracks`` module attributes at call time,
so the tracing wrappers see it when they are installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import family
import oracles

HERE = os.path.dirname(os.path.abspath(__file__))

LIMIT_TOL = 1e-6
LEAF_DEPTH = 14
LEAF_BUDGET = 1_000_000
WINDOW_RADIUS = 3000
MAX_SEGMENT = 6
WINDOW_MAPS = ("fibonacci", "swap-fibonacci")  # segments stored in refs.json by refs.py


@dataclass
class Op:
    kind: str
    name: str
    run: Callable
    check: Callable
    golden: str | None = None  # report digest at the reference commit


def load_refs() -> dict:
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def report_digest(text: str) -> str:
    """Digest of a report's JSON with ``meta`` (timestamp, elapsed) removed."""
    report = json.loads(text)
    report.pop("meta", None)
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _analyze_op(tt, name, text, config=None, golden=None) -> Op:
    images = oracles.parse_images(text)

    def run():
        report = tt.analyze(text, config=config)
        return report, tt.report_json(report)

    return Op("analyze", name, run, lambda out: oracles.check_report(images, out[0]), golden)


def bundled(tt, seed, refs) -> list:
    from traintracks import corpus

    return [
        _analyze_op(tt, name, corpus.input_text(name), golden=refs["reports"].get(name))
        for name in sorted(corpus.REGISTRY)
    ]


def family_ops(tt, seed, refs) -> list:
    ops = []
    for fm in family.generate(tt, family.DESIGN_SEED):
        config = tt.AnalysisConfig(max_word_len=fm.max_word_len)
        ops.append(_analyze_op(tt, fm.name, fm.input_text(), config))
    return ops


def family_regimes(tt) -> dict:
    """Each family map's rank, lambda, train-track flag and conjugation, and
    the share of maps in the regimes that fail today."""
    maps = []
    for fm in family.generate(tt, family.DESIGN_SEED):
        first, _ = oracles.first_cancellation(fm.images)
        maps.append(
            {
                "name": fm.name,
                "rank": fm.rank,
                "lambda": oracles.stretch_factor(fm.images),
                "train_track": first is None,
                "conjugated": fm.conjugated,
            }
        )
    n = len(maps)
    return {
        "maps": maps,
        "share_lambda_above_3.4": sum(m["lambda"] > 3.4 for m in maps) / n,
        "share_lambda_below_1.1": sum(m["lambda"] < 1.1 for m in maps) / n,
        "share_not_train_track": sum(not m["train_track"] for m in maps) / n,
    }


def _limit_op(tt, name, auto, data, word, ref) -> Op:
    M = 40 * data.pf.k

    def run():
        return tt.limit_length(auto, word, data, M=M, tol=LIMIT_TOL)

    return Op("limit", f"{name}:{word}", run, lambda rep: oracles.check_limit(rep.limit, ref, LIMIT_TOL))


def _leaf_op(tt, name, auto, slot) -> Op:
    """What the ``leaf`` subcommand builds: the map's leaf corpus.  The
    result goes into ``slot`` for the map's window ops."""

    def run():
        slot.clear()
        data = tt.analyze_train_track(tt.rose_map(auto))
        slot["leaves"] = tt.build_leaf_corpus(data, depth=LEAF_DEPTH, budget=LEAF_BUDGET)
        return slot["leaves"]

    def check(leaves):
        for prefix in leaves.prefixes:
            why = oracles.check_leaf(auto.images, prefix, LEAF_BUDGET)
            if why is not None:
                return why
        return None

    return Op("leaf", f"{name}:leaf", run, check)


def _window_op(tt, name, slot, block, segment) -> Op:
    def run():
        return tt.quasiperiodicity_window(slot["leaves"].prefixes[block], segment)

    def check(cert):
        word = slot["leaves"].prefixes[block].word
        return oracles.check_window(word, segment, cert.window, cert.status)

    return Op("window", f"{name}:{block}:{segment}", run, check)


def leaf_segments(prefix) -> list:
    """Every segment of at most MAX_SEGMENT letters near the leaf's centre."""
    near = prefix.word[max(0, prefix.center - WINDOW_RADIUS) : prefix.center + WINDOW_RADIUS]
    return sorted({near[i : i + n] for n in range(1, MAX_SEGMENT + 1) for i in range(len(near) - n)})


def queries(tt, seed, refs) -> list:
    from traintracks import corpus

    ops = []
    for name, refs_by_word in sorted(refs["limits"].items()):
        auto = corpus.get(name)
        data = tt.analyze_train_track(tt.rose_map(auto))
        ops += [_limit_op(tt, name, auto, data, w, ref) for w, ref in refs_by_word.items()]
    for name, segments_by_block in sorted(refs["segments"].items()):
        slot = {}
        ops.append(_leaf_op(tt, name, corpus.get(name), slot))
        for block, segments in sorted(segments_by_block.items()):
            ops += [_window_op(tt, name, slot, int(block), seg) for seg in segments]
    return ops


WORKLOADS = {"bundled": bundled, "family": family_ops, "queries": queries}


def build(tt, workload: str, seed: int) -> list:
    """The workload's ops for this seed, in the seed's shuffled order."""
    ops = WORKLOADS[workload](tt, seed, load_refs())
    random.Random(seed).shuffle(ops)
    # window ops query the leaf their map's leaf op built in the same pass
    ops.sort(key=lambda op: op.kind != "leaf")
    return ops
