"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test covers one advertised guarantee of the package, prints a single
PASS/FAIL line, and runs in well under a minute.  Oracles are independent
of the code under test: characteristic polynomials for eigendata, raw
iterate-and-reduce for the train track property, and Binet-style closed
forms for the Fibonacci map.
"""

import json
import math
from contextlib import contextmanager

import numpy as np
import pytest

from traintracks import (
    AnalysisConfig,
    analyze,
    analyze_train_track,
    build_leaf_corpus,
    cancellation_bound,
    convergence_constants,
    enumerate_cyclic_words,
    equivalence_sweep,
    expand_leaf,
    find_eigen_seed,
    limit_length,
    measure_cancellation,
    path_length,
    quasiperiodicity_window,
    reduce_word,
    report_json,
    rose_map,
    unit_metric,
)
from traintracks import corpus

PHI = (1.0 + math.sqrt(5.0)) / 2.0

EXPANDING = ("fibonacci", "fibonacci-conj-a", "swap-fibonacci")


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d}: FAIL - {title}")
        raise
    print(f"criterion {number:2d}: PASS - {title}")


def _tt(name):
    return analyze_train_track(rose_map(corpus.get(name)))


def test_criterion_01_spectral_exactness():
    with criterion(1, "stretch factors and eigenvectors match characteristic polynomials"):
        fib = _tt("fibonacci")
        # oracle: dominant root of x^2 - x - 1
        root2 = max(np.roots([1.0, -1.0, -1.0]).real)
        assert abs(fib.pf.lam - root2) < 1e-9
        assert abs(fib.pf.lam - (1.0 + math.sqrt(5.0)) / 2.0) < 1e-9
        assert abs(fib.pf.nu[0] - 0.618034) < 1e-6
        assert abs(fib.pf.nu[1] - 0.381966) < 1e-6
        assert fib.pf.k == 1

        rank4 = _tt("swap-fibonacci")
        # oracle: dominant root of x^4 - x^2 - 1
        root4 = max(r.real for r in np.roots([1.0, 0.0, -1.0, 0.0, -1.0]) if abs(r.imag) < 1e-12)
        assert abs(rank4.pf.lam - root4) < 1e-8
        assert abs(rank4.pf.lam - math.sqrt((1.0 + math.sqrt(5.0)) / 2.0)) < 1e-8
        assert rank4.pf.k == 2


def test_criterion_02_train_track_verdicts():
    with criterion(2, "turn-orbit verdicts agree with brute-force iterate-and-reduce"):
        names = sorted(corpus.REGISTRY)
        assert len(names) >= 6

        def first_cancellation(gmap, depth=8):
            rank = gmap.graph.edge_pairs
            worst = None
            for e in gmap.graph.letters:
                w = e
                for m in range(1, depth + 1):
                    w = gmap.substitute(w)
                    if reduce_word(w, rank) != w:
                        worst = m if worst is None else min(worst, m)
                        break
            return worst

        for name in names:
            gmap = rose_map(corpus.get(name))
            verdict = gmap.is_train_track()
            failure = first_cancellation(gmap)
            assert verdict.is_train_track == (failure is None), name
            if failure is not None:
                assert verdict.fails_at_iterate == failure, name

        witness = _tt("fibonacci-conj-b").verdict
        assert witness.fails_at_iterate == 2
        orbit = witness.witness_orbit
        assert orbit is not None and len(orbit[-1]) == 1  # concrete degenerate turn


def test_criterion_03_monotone_convergence(reference_limit):
    with criterion(3, "strided normalized lengths decrease and a certificate gives the exact limit by 40 strides"):
        for name in EXPANDING:
            auto = corpus.get(name)
            tt = _tt(name)
            k = tt.pf.k
            for word in enumerate_cyclic_words(auto.rank, 5):
                rep = limit_length(auto, word, tt, M=40 * k, tol=1e-6)
                # non-increasing with slack (also enforced internally)
                values = [t for _, t in rep.strided]
                assert all(y <= x + 1e-9 for x, y in zip(values, values[1:])), (name, word)
                assert rep.certificate in ("legal", "periodic", "splitting"), (name, word)
                assert abs(rep.limit - reference_limit(auto.images, word)) < 1e-9, (name, word)
                assert rep.m_stop <= 40 * k, (name, word)


def test_criterion_04_loxodromic_equivalence():
    with criterion(4, "limit length, growth class and leaf probe agree on every class"):
        for name in ("fibonacci", "swap-fibonacci"):
            auto = corpus.get(name)
            tt = _tt(name)
            leaves = build_leaf_corpus(tt, depth=10, budget=200_000)
            words = enumerate_cyclic_words(auto.rank, 5)
            rep = equivalence_sweep(auto, tt, leaves, words)
            assert rep.checked == len(words)
            assert rep.discrepancies == [], (name, rep.discrepancies[:3])
            assert rep.exponential > 0 and rep.polynomial > 0


def test_criterion_05_homothety(homothety_reference):
    with criterion(5, "limit lengths scale by exactly lambda under the map"):
        for name in EXPANDING:
            auto = corpus.get(name)
            tt = _tt(name)
            words = enumerate_cyclic_words(auto.rank, 4)
            rep = homothety_reference(auto, tt, words)
            assert len(rep.checked) >= len(words) // 2, name
            assert rep.max_rel_error < 1e-5, (name, rep.max_rel_error)


def test_criterion_06_closed_form_limit():
    with criterion(6, "Fibonacci limit length of a equals 1/phi"):
        fib = corpus.get("fibonacci")
        tt = _tt("fibonacci")
        rep = limit_length(fib, "a", tt)
        oracle = 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0)
        assert abs(rep.limit - oracle) < 1e-6
        assert rep.converged


def test_criterion_07_lamination_structure():
    with criterion(7, "leaf prefixes nest, avoid bb, and certify all short segments"):
        fib_tt = _tt("fibonacci")
        seed = find_eigen_seed(fib_tt)
        chain = [expand_leaf(fib_tt, seed, depth=d) for d in range(1, 11)]
        for small, big in zip(chain, chain[1:]):
            lo = big.center - small.center
            assert lo >= 0 and big.word[lo : lo + len(small.word)] == small.word
        assert "bb" not in chain[-1].word

        rank4_tt = _tt("swap-fibonacci")
        corpora = {
            "fibonacci": (fib_tt, build_leaf_corpus(fib_tt, depth=14, budget=1_000_000)),
            "swap-fibonacci": (rank4_tt, build_leaf_corpus(rank4_tt, depth=14, budget=1_000_000)),
        }

        # every segment of <= 8 edges gets a finite window at depth 14
        for name, (tt, leaves) in corpora.items():
            for prefix in leaves.prefixes:
                window = prefix.word[max(0, prefix.center - 3000) : prefix.center + 3000]
                segments = {window[i : i + l] for l in range(1, 9) for i in range(len(window) - l)}
                for seg in sorted(segments):
                    cert = quasiperiodicity_window(prefix, seg)
                    assert cert.certified, (name, seg)
                    assert cert.window < len(prefix.word)

        # one leaf per block, permuted cyclically, containing all edge iterates
        tt, leaves = corpora["swap-fibonacci"]
        assert leaves.k == tt.pf.k == 2
        for block in range(2):
            probe = leaves.prefixes[block].centered_slice(40)
            assert leaves.contains(tt.gmap.substitute(probe)) == leaves.sigma(block)
        for name, (tt, leaves) in corpora.items():
            block_of = {e: i for i, blk in enumerate(tt.pf.blocks) for e in blk}
            for e in tt.gmap.graph.letters:
                for m in range(1, 9):
                    image = tt.gmap.iterate_path(e, m)
                    target = (block_of[e] + m) % leaves.k
                    assert leaves.contains(image) == target, (name, e, m)


def test_criterion_08_bounded_cancellation():
    with criterion(8, "measured cancellation stays under Lip * vol; legal splits lose nothing"):
        for name in sorted(corpus.REGISTRY):
            tt = _tt(name)
            metric = tt.metric if tt.metric is not None else unit_metric(tt.gmap.graph)
            bound = cancellation_bound(tt.gmap, metric)
            sample = measure_cancellation(tt.gmap, metric, samples=200, seed=0)
            assert sample.max_measured <= bound.bound + 1e-9, name
            assert sample.within_bound, name
            if tt.verdict.is_train_track:
                legal = measure_cancellation(
                    tt.gmap, metric, samples=200, seed=0, legal_only=True
                )
                assert legal.max_measured == 0.0, (name, legal.max_measured)


def _iterated_segment_constants(tt, alt, depth=14):
    """Reference for the closed-form constants: apply tau^(k depth) to five
    leaf segments around each block's prefix centre and read off
    lam^-(k depth) |image|_alt / |segment|_nu for each segment."""
    leaves = build_leaf_corpus(tt, depth=8, budget=200_000)
    power = tt.pf.k * depth
    out = []
    for prefix in leaves.prefixes:
        ests = []
        for j, size in enumerate((1, 2, 3, 5, 8)):
            start = max(0, min(prefix.center - size // 2 + 3 * j, len(prefix.word) - size))
            seg = img = prefix.word[start : start + size]
            for _ in range(power):
                img = tt.gmap.substitute(img)
            ests.append(path_length(img, alt) / (tt.pf.lam**power * path_length(seg, tt.metric)))
        out.append(ests)
    return out


def test_criterion_09_convergence_constants():
    with criterion(9, "per-segment constants agree, scale linearly, and predict loop limits"):
        for name in ("fibonacci", "swap-fibonacci"):
            auto, tt = corpus.get(name), _tt(name)
            alt = unit_metric(auto.rank)
            rep = convergence_constants(auto, tt, alt)
            segments = _iterated_segment_constants(tt, alt)
            assert len(rep.constants) == len(segments) == tt.pf.k
            for c, ests in zip(rep.constants, segments):
                assert len(ests) == 5
                assert all(abs(e - c) <= 1e-4 for e in ests), (name, c, ests)

        fib = corpus.get("fibonacci")
        tt = _tt("fibonacci")
        alt = unit_metric(2)
        rep = convergence_constants(fib, tt, alt)
        scaled = convergence_constants(fib, tt, alt.scaled(2.25))
        for c, cs in zip(rep.constants, scaled.constants):
            assert abs(cs - 2.25 * c) <= 1e-9 * abs(cs)

        loops = [w for w in enumerate_cyclic_words(2, 3) if "b" in w.lower()][:12]
        checked = convergence_constants(fib, tt, alt, loop_words=loops)
        assert checked.uniform_checked >= 10
        assert checked.uniform_max_rel_error < 1e-5


def test_criterion_10_determinism():
    with criterion(10, "repeated analyze runs emit identical JSON"):
        config = AnalysisConfig(max_word_len=4, leaf_depth=10, leaf_budget=200_000)
        outputs = []
        for _ in range(2):
            report = analyze(corpus.get("fibonacci"), config=config)
            report["meta"].pop("timestamp")
            report["meta"].pop("elapsed_seconds")  # wall-clock, like the timestamp
            outputs.append(report_json(report))
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # and it is valid JSON
