"""Shared fixtures: the bundled corpus maps and their analyzed spectral data.

Everything here is deterministic and cheap, so fixtures are session-scoped
and shared across test modules.
"""

import functools
import importlib.util
import math
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import traintracks
from traintracks import Automorphism, CyclicOrbit, analyze_train_track, limit_length, path_length, rose_map
from traintracks import corpus

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@pytest.fixture(scope="session")
def fib():
    return corpus.fibonacci()


@pytest.fixture(scope="session")
def conj_a():
    return corpus.fibonacci_conjugate_a()


@pytest.fixture(scope="session")
def conj_b():
    return corpus.fibonacci_conjugate_b()


@pytest.fixture(scope="session")
def rank4():
    return corpus.swap_fibonacci_rank4()


@pytest.fixture(scope="session")
def swap():
    return corpus.swap_rank2()


@pytest.fixture(scope="session")
def unipotent():
    return corpus.unipotent_rank2()


@pytest.fixture(scope="session")
def identity2():
    return corpus.identity_rank2()


@pytest.fixture(scope="session")
def fib_tt(fib):
    return analyze_train_track(rose_map(fib))


@pytest.fixture(scope="session")
def conj_a_tt(conj_a):
    return analyze_train_track(rose_map(conj_a))


@pytest.fixture(scope="session")
def conj_b_tt(conj_b):
    return analyze_train_track(rose_map(conj_b))


@pytest.fixture(scope="session")
def rank4_tt(rank4):
    return analyze_train_track(rose_map(rank4))


@pytest.fixture(scope="session")
def swap_tt(swap):
    return analyze_train_track(rose_map(swap))


@pytest.fixture(scope="session")
def unipotent_tt(unipotent):
    return analyze_train_track(rose_map(unipotent))


@pytest.fixture(scope="session")
def identity2_tt(identity2):
    return analyze_train_track(rose_map(identity2))


@pytest.fixture(scope="session")
def all_tts(fib_tt, conj_a_tt, conj_b_tt, rank4_tt, swap_tt, unipotent_tt, identity2_tt):
    """name -> TrainTrackData for the whole corpus."""
    return {
        "fibonacci": fib_tt,
        "fibonacci-conj-a": conj_a_tt,
        "fibonacci-conj-b": conj_b_tt,
        "swap-fibonacci": rank4_tt,
        "swap": swap_tt,
        "unipotent": unipotent_tt,
        "identity": identity2_tt,
    }


@pytest.fixture(scope="session")
def family_maps():
    """name -> ``FamilyMap`` for the 28 maps of the benchmark family, built
    by ``perfbench/family.py`` loaded from its file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_family", Path(__file__).resolve().parents[1] / "perfbench" / "family.py"
    )
    family = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, spec.name, family)  # its dataclass looks itself up there
        spec.loader.exec_module(family)
    return {fm.name: fm for fm in family.generate(traintracks, family.DESIGN_SEED)}


@pytest.fixture(scope="session")
def family_autos(family_maps):
    """The 28 maps of the benchmark family as automorphisms."""
    return [Automorphism(fm.images) for fm in family_maps.values()]


@pytest.fixture(scope="session")
def subdivided_fib():
    """Fibonacci's map on a two-vertex graph: its edge a subdivided into ab
    at the point that maps to the vertex (a -> ab, b -> c), and its edge b
    renamed c (c -> ab).  An expanding train track with lambda = phi that is
    not a rose."""
    return "graph:\nvertices: 2\nedge a: 0 1\nedge b: 1 0\nedge c: 0 0\nmap:\na -> ab\nb -> c\nc -> ab\n"


@pytest.fixture(scope="session")
def fib_corpus(fib_tt):
    from traintracks import build_leaf_corpus

    return build_leaf_corpus(fib_tt, depth=10, budget=500_000)


@pytest.fixture(scope="session")
def rank4_corpus(rank4_tt):
    from traintracks import build_leaf_corpus

    return build_leaf_corpus(rank4_tt, depth=10, budget=500_000)


# ------------------------------------------------ delta-extrapolated limits

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


@functools.lru_cache(maxsize=None)
def _pf_data(images):
    """Stretch factor, cyclic index and eigenmetric (left PF vector, sum 1)
    from numpy's eigendecomposition of the unsigned transition matrix."""
    n = len(images)
    mat = np.zeros((n, n))
    for j, w in enumerate(images):
        for ch in w.lower():
            mat[_LETTERS.index(ch), j] += 1
    vals, vecs = np.linalg.eig(mat.T)
    i = int(np.argmax(vals.real))
    lam = float(vals[i].real)
    k = int(np.sum(np.abs(np.abs(vals) - lam) < 1e-9 * lam))
    nu = np.abs(vecs[:, i].real)
    return lam, k, nu / nu.sum()


def delta_limit(images, word, max_m=400, max_letters=2_000_000):
    """Limit length of a class by delta-extrapolation, without the package.

    With L_m the eigenmetric length of the cyclically reduced psi^m(x), the
    per-stride loss delta_m = lam^k L_m - L_{m+k} is constant once the
    illegal turns of the orbit have stabilised, and the limit is then
    L_m / lam^m - delta / (lam^m (lam^k - 1)).  The scan starts at m = 10 k,
    since short orbits can stall at a constant length for a few strides,
    and waits until delta repeats over three strides.  Returns None if the
    orbit outgrows ``max_letters`` first.  A longer stall fools it: on the
    rank-26 family map r26-m8, lhWb keeps an illegal turn and its length
    from m = 2 to 15 and loses 1% at m = 16, after this scan has stopped.
    """
    images = tuple(images)
    rank = len(images)
    lam, k, nu = _pf_data(images)
    table = {}
    for g, w in zip(_LETTERS, images):
        table[ord(g)] = w
        table[ord(g.upper())] = w[::-1].swapcase()
    pairs = re.compile("|".join(g + g.upper() + "|" + g.upper() + g for g in _LETTERS[:rank]))

    def cyclic_reduce(w):
        while True:
            shorter = pairs.sub("", w)
            lo = 0
            while lo < len(shorter) - 1 - lo and shorter[lo] == shorter[-1 - lo].swapcase():
                lo += 1
            shorter = shorter[lo : len(shorter) - lo]
            if shorter == w:
                return w
            w = shorter

    w = cyclic_reduce(word)
    lamk = lam**k
    lengths = []
    for m in range(max_m + 1):
        counts = [w.count(g) + w.count(g.upper()) for g in _LETTERS[:rank]]
        lengths.append(float(np.dot(counts, nu)))
        start = m - 3 * k
        if start >= 10 * k:
            deltas = [lamk * lengths[j] - lengths[j + k] for j in (start, start + k, start + 2 * k)]
            if max(deltas) - min(deltas) <= 1e-13 * lengths[m] + 1e-12:
                return lengths[start] / lam**start - deltas[0] / (lam**start * (lamk - 1.0))
        if lengths[m] / lam**m < 1e-13:
            return 0.0
        w = cyclic_reduce(w.translate(table))
        if len(w) > max_letters:
            return None
    return None


@pytest.fixture(scope="session")
def reference_limit():
    """:func:`delta_limit`, for tests that need an independent limit."""
    return delta_limit


# ------------------------------------------------------ homothety reference


@dataclass
class HomothetyReport:
    max_rel_error: float
    checked: list
    skipped: list


def homothety_check(auto, tt, words) -> HomothetyReport:
    """|psi(x)| = lam * |x| on limit lengths over the given words, each
    limit taken afresh to m = 80 with tol 1e-7, for both x and psi(x).

    Words not classified Exponential are skipped (their limit is zero on
    both sides).  For a non-expanding map the eigenmetric lengths themselves
    must match exactly.
    """
    checked, skipped, worst = [], [], 0.0
    for word in words:
        orbit = CyclicOrbit(auto, word, tt=tt)
        if not tt.expanding:
            a = path_length(orbit.word_at(0), tt.metric)
            b = path_length(orbit.word_at(1), tt.metric)
            err = abs(b - a) / a if a else 0.0
            checked.append((word, err))
            worst = max(worst, err)
            continue
        rep = limit_length(auto, word, tt, M=80, tol=1e-7, orbit=orbit)
        if not rep.classification.is_exponential:
            skipped.append(word)
            continue
        rep_img = limit_length(auto, orbit.word_at(1), tt, M=80, tol=1e-7)
        target = tt.pf.lam * rep.limit
        err = abs(rep_img.limit - target) / target
        checked.append((word, err))
        worst = max(worst, err)
    return HomothetyReport(max_rel_error=worst, checked=checked, skipped=skipped)


@pytest.fixture(scope="session")
def homothety_reference():
    """:func:`homothety_check`, the dilation checked word by word with fresh
    limits, for tests of the report's ``homothety`` section."""
    return homothety_check
