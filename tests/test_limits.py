"""Normalized length sequences, limit lengths, growth classification.

Closed-form oracles for the Fibonacci map: positive words never cancel, so
their normalized lengths are exactly constant and the limit equals the
eigenmetric length (Binet: raw lengths are Fibonacci numbers).  The word
a b^-1 drops once and is then constant at 1/phi^3.
"""

import collections
import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traintracks import (
    Automorphism,
    CyclicOrbit,
    GraphMap,
    InputError,
    InternalConsistencyError,
    Metric,
    PreconditionError,
    analyze_train_track,
    classify_growth,
    convergence_constants,
    enumerate_cyclic_words,
    limit_length,
    path_length,
    per_block_lengths,
    polynomial_degree,
    rose_map,
    train_track_twist,
    unit_metric,
)
from traintracks import corpus
from traintracks.graphs import block_path_length
from traintracks.limits import SWEEP_BUDGET, SWEEP_M, _tail_is_flat
from traintracks.words import ALPHABET, letter_index

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ------------------------------------------------------------- orbits


def test_cyclic_orbit_basic(fib):
    orbit = CyclicOrbit(fib, "a")
    assert orbit.word_at(0) == "a"
    assert orbit.word_at(3) == "abaab"
    assert len(orbit.words) - 1 == 3
    # raw lengths are Fibonacci numbers: |psi^m(a)| = F_{m+2}
    fibs = [1, 1, 2, 3, 5, 8, 13, 21, 34]
    for m in range(1, 8):
        assert len(orbit.word_at(m)) == fibs[m + 1]


def test_cyclic_orbit_reduces_input(fib):
    orbit = CyclicOrbit(fib, "baB")  # conjugate of a
    assert orbit.word_at(0) == "a"


def test_cyclic_orbit_budget(fib):
    orbit = CyclicOrbit(fib, "a", budget=10)
    assert orbit.word_at(4) == "abaababa"
    assert orbit.word_at(5) is None  # next length 13 exceeds the budget
    assert orbit.truncated
    assert orbit.word_at(6) is None  # stays truncated


def test_legal_orbit_checks_budget_before_building(fib, fib_tt, monkeypatch):
    """Past the first legal word the image's exact length meets the budget
    before the image is built: the cut falls at the same m as when the
    word is built and then measured (55 letters at m = 8 for budget 50),
    and the substitution is never asked for an image over the budget."""
    from traintracks._subst import SubstTable

    images = []
    build = SubstTable.__call__

    def counted(table, word):
        images.append(build(table, word))
        return images[-1]

    monkeypatch.setattr(SubstTable, "__call__", counted)
    orbit = CyclicOrbit(fib, "a", budget=50, tt=fib_tt)
    assert orbit.legal_from == 0 and len(orbit.word_at(7)) == 34
    assert orbit.word_at(8) is None and orbit.cut == 8
    assert len(images) == 7 and max(map(len, images)) == 34
    built = CyclicOrbit(fib, "a", budget=50)  # without the train track: build, then compare
    assert built.word_at(8) is None and built.cut == 8 and max(map(len, images)) == 55


@pytest.mark.parametrize(
    "name, max_len", [("fibonacci", 5), ("fibonacci-conj-a", 5), ("swap-fibonacci", 3)]
)
def test_orbit_words_past_legality_match_apply_cyclic(name, max_len):
    """The plain substitution that builds each word past the first legal
    one gives apply_cyclic's word (an orbit without the train track builds
    every word with it), for m <= 12 on every class of the sweep."""
    auto = corpus.get(name)
    tt = analyze_train_track(rose_map(auto))
    late = 0
    for word in enumerate_cyclic_words(auto.rank, max_len):
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        built = CyclicOrbit(auto, word, budget=SWEEP_BUDGET)
        assert [orbit.word_at(m) for m in range(13)] == [built.word_at(m) for m in range(13)]
        late += orbit.legal_from is not None and orbit.legal_from > 0
    assert late > 0  # some orbit switches from apply_cyclic to substitution mid-way


# ------------------------------------------------- normalized sequences


def normalized_lengths(orbit, metric, lam, M):
    """lam^-m |psi^m(x)| in the metric for m = 0..M, up to a budget cut."""
    values = []
    for m in range(M + 1):
        w = orbit.word_at(m)
        if w is None:
            break
        values.append(path_length(w, metric) / lam**m)
    return values


def test_fibonacci_positive_words_are_constant(fib, fib_tt):
    """No cancellation on positive words: the normalized sequence is flat."""
    lam, metric = fib_tt.pf.lam, fib_tt.metric
    for word in ("a", "b", "ab", "aab"):
        orbit = CyclicOrbit(fib, word)
        normalized = normalized_lengths(orbit, metric, lam, M=25)
        first = normalized[0]
        assert first == pytest.approx(path_length(word, metric), abs=1e-12)
        for t in normalized:
            assert t == pytest.approx(first, abs=1e-10)
        assert len(normalized) == 26 and not orbit.truncated


def test_sequence_truncates_on_budget(fib):
    orbit = CyclicOrbit(fib, "a", budget=50)
    raw = [orbit.length_at(m) for m in range(41)]
    assert orbit.truncated
    assert len([n for n in raw if n is not None]) < 41


def test_normalized_sequences_non_increasing(rank4, rank4_tt):
    lam, metric, k = rank4_tt.pf.lam, rank4_tt.metric, rank4_tt.pf.k
    for word in ("a", "ac", "aB", "abc", "aBcD"):
        strided = normalized_lengths(CyclicOrbit(rank4, word), metric, lam, M=30)[::k]
        for x, y in zip(strided, strided[1:]):
            assert y <= x + 1e-9


# ----------------------------------------------------------- limit length


def test_fibonacci_limit_of_a_is_inverse_phi(fib, fib_tt):
    rep = limit_length(fib, "a", fib_tt)
    assert rep.limit == pytest.approx(1 / PHI, abs=1e-9)
    assert rep.converged
    assert rep.stride == 1
    assert rep.classification.is_exponential
    assert rep.classification.rate == pytest.approx(PHI, abs=1e-12)


def test_fibonacci_limit_closed_forms(fib, fib_tt):
    # positive words: limit equals the eigenmetric length
    for word in ("b", "ab", "aab"):
        rep = limit_length(fib, word, fib_tt)
        assert rep.limit == pytest.approx(path_length(word, fib_tt.metric), abs=1e-9)
    # a b^-1 drops to the class of b at m = 1, then is constant:
    # limit = nu_b / phi = 1 / phi^3
    rep = limit_length(fib, "aB", fib_tt)
    assert rep.limit == pytest.approx(PHI**-3, abs=1e-9)
    assert rep.m_stop == 2
    assert rep.strided[0][1] == pytest.approx(1.0, abs=1e-9)


def test_commutator_is_bounded(fib, fib_tt):
    rep = limit_length(fib, "abAB", fib_tt)
    assert rep.limit == 0.0
    assert not rep.classification.is_exponential
    assert rep.classification.degree == 0
    assert rep.classification.label() == "Polynomial(0)"


def test_rank4_commutator_is_periodic(rank4, rank4_tt):
    # the strided tail decays only by 1/phi per step, but the orbit word
    # repeats up to rotation: the limit is exactly 0 at any tolerance
    for tol in (1e-9, 1e-6):
        rep = limit_length(rank4, "abAB", rank4_tt, M=40, tol=tol)
        assert rep.certificate == "periodic"
        assert rep.converged
        assert rep.limit == 0.0 and rep.lower == 0.0
        assert rep.classification.label() == "Polynomial(0)"
        assert not rep.classification.low_confidence
        assert rep.m_stop == 4


def test_fibonacci_aabAB_is_exact_at_default_tol(fib, fib_tt):
    """The gap between strided terms fell below tol at m = 30 while the
    value was still 1.07e-6 above 1/phi; the splitting certificate gives
    the limit in closed form."""
    rep = limit_length(fib, "aabAB", fib_tt)
    assert rep.certificate == "splitting"
    assert rep.limit == pytest.approx(1 / PHI, abs=1e-9)
    assert rep.classification.label() == f"Exponential({PHI:.9g})"


def test_swap_fibonacci_aabAB_splits_exactly(rank4, rank4_tt, reference_limit):
    orbit = CyclicOrbit(rank4, "aabAB", tt=rank4_tt)
    rep = limit_length(rank4, "aabAB", rank4_tt, M=80, tol=1e-9, orbit=orbit)
    assert rep.certificate == "splitting"
    assert rep.limit == pytest.approx(0.2720196495, abs=1e-9)
    assert rep.limit == pytest.approx(reference_limit(rank4.images, "aabAB"), abs=1e-9)
    blocks = per_block_lengths(rank4_tt, rep, orbit)
    assert sum(blocks.limits) == pytest.approx(rep.limit, abs=1e-12)


@pytest.mark.parametrize("name", ["fibonacci", "swap-fibonacci"])
def test_splitting_across_a_periodic_piece(name, reference_limit):
    """abAB is periodic, so in abABaabAB a legal segment between two
    illegal turns stays short forever: the two turns form one cluster."""
    auto = corpus.get(name)
    tt = analyze_train_track(rose_map(auto))
    rep = limit_length(auto, "abABaabAB", tt, M=40 * tt.pf.k)
    assert rep.certificate == "splitting"
    assert rep.limit == pytest.approx(reference_limit(auto.images, "abABaabAB"), abs=1e-9)


R26_M8 = ["b", "c", "dj", "e", "f", "gp", "h", "i", "j", "k", "l", "m", "nx"]
R26_M8 += ["oc", "p", "q", "r", "s", "toc", "u", "v", "wt", "xc", "y", "zwt", "a"]


@pytest.mark.parametrize(
    "images,word,limit,m_stop",
    [
        (["bcf", "c", "d", "eb", "f", "ac"], "aD", 0.336811442, 3),  # family map r6-m4
        (R26_M8, "lhWb", 0.126498787, 17),  # family map r26-m8
    ],
)
def test_illegal_turn_that_cancels_late(images, word, limit, m_stop):
    """The class keeps its length for a stride before its illegal turn
    cancels, at m = 2 (r6-m4) or, after a second plateau from m = 2 to 15,
    at m = 16 (r26-m8), so a gap test stopped at m = 1 with 0.424280775
    or 0.156822737."""
    auto = Automorphism(images)
    tt = analyze_train_track(rose_map(auto))
    for tol in (1e-6, 1e-9):
        rep = limit_length(auto, word, tt, tol=tol)
        assert rep.limit == pytest.approx(limit, abs=1e-9)
        assert rep.certificate == "legal" and rep.m_stop == m_stop


def test_limit_length_monotone_guard(fib, fib_tt):
    """A stretch factor below the true one makes the sequence increase."""
    fake_pf = dataclasses.replace(fib_tt.pf, lam=1.2)
    fake = dataclasses.replace(fib_tt, pf=fake_pf, metric=unit_metric(2))
    with pytest.raises(InternalConsistencyError):
        limit_length(fib, "a", fake)


def test_limit_length_preconditions(conj_b, conj_b_tt, unipotent, unipotent_tt):
    with pytest.raises(PreconditionError):
        limit_length(conj_b, "a", conj_b_tt)  # not a train track
    with pytest.raises(PreconditionError):
        limit_length(unipotent, "a", unipotent_tt)  # reducible


@pytest.mark.parametrize("name", ["fibonacci", "swap-fibonacci"])
def test_limit_length_reads_legality_off_the_orbit(name, monkeypatch):
    """Legal circuits map to legal ones, so the orbit's first legal word,
    found as the orbit is built, decides legality at every later m: only
    CyclicOrbit._push tests words.  An orbit built without the train track
    records no legality and is refused."""
    auto = corpus.get(name)
    tt = analyze_train_track(rose_map(auto))
    callers, test = collections.Counter(), GraphMap.is_legal_cyclic

    def counted(self, word):
        callers[sys._getframe(1).f_code.co_name] += 1
        return test(self, word)

    monkeypatch.setattr(GraphMap, "is_legal_cyclic", counted)
    certificates = {limit_length(auto, w, tt, M=40 * tt.pf.k).certificate for w in enumerate_cyclic_words(auto.rank, 3)}
    assert "legal" in certificates and callers.keys() == {"_push"}
    with pytest.raises(PreconditionError, match="same train track"):
        limit_length(auto, "ab", tt, orbit=CyclicOrbit(auto, "ab"))


def test_non_expanding_map_reports_zero(swap, swap_tt):
    rep = limit_length(swap, "a", swap_tt)
    assert rep.limit == 0.0
    assert rep.skipped_reason is not None
    assert rep.classification.kind == "polynomial"
    assert rep.classification.degree == 0


def test_strided_values_non_increasing(rank4, rank4_tt):
    rep = limit_length(rank4, "ac", rank4_tt)
    values = [t for _, t in rep.strided]
    for x, y in zip(values, values[1:]):
        assert y <= x + 1e-9
    assert rep.m_stop == rep.strided[-1][0]


# ------------------------------------------------------ growth classes


def test_growth_fibonacci_exponential(fib):
    cls = classify_growth(fib, "a")
    assert cls.is_exponential
    assert cls.rate == pytest.approx(PHI, rel=0.05)
    assert cls.label().startswith("Exponential")


def test_growth_unipotent_polynomial(unipotent):
    cls = classify_growth(unipotent, "b")
    assert cls.kind == "polynomial"
    assert cls.degree == 1
    assert cls.label() == "Polynomial(1)"
    # the detector takes precedence even though log(m)/m is above the
    # exponential cutoff at small m
    assert not cls.is_exponential

    assert classify_growth(unipotent, "a").degree == 0


def test_growth_escalates_in_ambiguous_band(rank4):
    cls = classify_growth(rank4, "abAB", M=40)
    assert cls.kind == "polynomial"
    assert cls.degree == 0
    assert cls.escalated


def test_growth_bounded_orbit_is_not_exponential():
    """On a -> b, b -> c, c -> dccc, d -> abbb (lambda ~ 3.30) the class bD
    has lengths 2, 5, 2, 5, ...: at M = 24 the log-rate reads 0.054, above
    log1p(0.05), and no degree settles, which read Exponential(1.056).  Its
    last quartile never exceeds an earlier length, so it is not exponential;
    limit_length certifies it periodic."""
    auto = Automorphism(["b", "c", "dccc", "abbb"])
    cls = classify_growth(auto, "bD", M=24)
    assert cls.statistic > math.log1p(0.05)
    assert not cls.is_exponential and cls.low_confidence


def test_growth_escalation_band_follows_eps():
    """The band that escalates to 2M is (eps/5, eps).  On a -> b, ...,
    s -> t, t -> ab the statistic of a at 40 is about 0.03: inside the band
    at the default eps, above it at eps = 0.02."""
    auto = Automorphism([ALPHABET[i + 1] for i in range(19)] + ["ab"])
    wide = classify_growth(auto, "a", M=40)
    assert wide.escalated and wide.kind == "polynomial"
    narrow = classify_growth(auto, "a", M=40, eps=0.02)
    assert not narrow.escalated and narrow.kind == "exponential"


def test_polynomial_degree_detector():
    assert polynomial_degree([3.0] * 15) == 0
    assert polynomial_degree(list(range(30))) == 1
    assert polynomial_degree([m * m for m in range(30)]) == 2
    fibs = [1, 1]
    while len(fibs) < 40:
        fibs.append(fibs[-1] + fibs[-2])
    assert polynomial_degree(fibs) is None
    assert polynomial_degree([1.0, 2.0]) is None


def _degree_by_numpy_diff(lengths):
    """polynomial_degree with numpy's differences, the reference."""
    vals = [float(v) for v in lengths]
    for d in range(7):
        if _tail_is_flat(vals):
            return d
        vals = list(np.diff(vals))
    return None


@st.composite
def _length_sequences(draw):
    """Up to 45 integer lengths: arbitrary, or a polynomial in m of degree
    0-7 with nonnegative integer coefficients, exact or within 1."""
    n = draw(st.integers(0, 45))
    if draw(st.booleans()):
        return draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n))
    degree = draw(st.integers(0, 7))
    coeffs = [draw(st.integers(1, 10**4))] + [draw(st.integers(int(j == degree), 30)) for j in range(1, degree + 1)]
    jitter = draw(st.integers(0, 1))
    noise = draw(st.lists(st.integers(-jitter, jitter), min_size=n, max_size=n))
    return [sum(c * m**j for j, c in enumerate(coeffs)) + e for m, e in zip(range(n), noise)]


@settings(max_examples=300, deadline=None)
@given(_length_sequences())
def test_polynomial_degree_matches_numpy_diff(lengths):
    assert polynomial_degree(lengths) == _degree_by_numpy_diff(lengths)


# ------------------------------------------------------- block splitting


def split(auto, word, tt, M=40, tol=1e-6):
    """per_block_lengths of the limit length of word, on the orbit it ran on."""
    orbit = CyclicOrbit(auto, word, tt=tt)
    return per_block_lengths(tt, limit_length(auto, word, tt, M=M, tol=tol, orbit=orbit), orbit)


def test_per_block_rank4_single_letter(rank4, rank4_tt):
    rep = split(rank4, "a", rank4_tt)
    lam = math.sqrt(PHI)
    nu_a = 1.0 / (1.0 + 1.0 / PHI + lam + 1.0 / lam)
    assert rep.limits[0] == pytest.approx(nu_a, abs=1e-7)
    assert rep.limits[1] == pytest.approx(0.0, abs=1e-9)
    assert rep.total == pytest.approx(sum(rep.limits), abs=1e-12)
    assert rep.converged


def test_per_block_mixed_word_sums_to_limit(rank4, rank4_tt):
    rep = split(rank4, "ac", rank4_tt)
    assert all(x > 0 for x in rep.limits)
    check = limit_length(rank4, "ac", rank4_tt, M=80, tol=1e-7)
    assert rep.total == pytest.approx(check.limit, abs=1e-6)


def test_per_block_fibonacci_is_whole_limit(fib, fib_tt):
    rep = split(fib, "ab", fib_tt)
    assert len(rep.limits) == 1
    assert rep.total == pytest.approx(1.0, abs=1e-9)


def test_per_block_independent_of_hash_seed():
    """Block lengths sum in letter order, not in string-hash order: this
    rank-6 map's single block read two different floats under hash seeds 0
    and 1 when the sum ran over the set of the word's letters."""
    import traintracks

    code = (
        "from traintracks import Automorphism, CyclicOrbit, analyze_train_track, limit_length\n"
        "from traintracks import per_block_lengths, rose_map\n"
        "auto = Automorphism(['bafedafc', 'c', 'd', 'e', 'fbafc', 'afc'])\n"
        "tt = analyze_train_track(rose_map(auto))\n"
        "orbit = CyclicOrbit(auto, 'a', tt=tt)\n"
        "print(repr(per_block_lengths(tt, limit_length(auto, 'a', tt, orbit=orbit), orbit).limits))\n"
    )
    src = os.path.dirname(os.path.dirname(traintracks.__file__))
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout)
    assert len(outs) == 1, outs


def iterated_per_block(auto, word, tt, M=80, tol=1e-7):
    """Reference: per-block normalized lengths iterated at stride k until
    no block moves by tol, outside the band where a decaying class has not
    yet shown itself."""
    orbit = CyclicOrbit(auto, word)
    k, lam = tt.pf.k, tt.pf.lam
    blocks = [frozenset(b) for b in tt.pf.blocks]
    prev = None
    for m in range(0, M + 1, k):
        w = orbit.word_at(m)
        cur = [block_path_length(w, tt.metric, b) / lam**m for b in blocks]
        ambiguous = 1e-7 <= sum(cur) <= 1e-3
        if prev is not None and max(abs(p - c) for p, c in zip(prev, cur)) < tol and not ambiguous:
            return cur
        prev = cur
    return prev


@pytest.mark.parametrize("word", ["aB", "ac", "bDDc", "adBB", "acAB", "aDDc"])
def test_per_block_split_matches_iterated_blocks(rank4, rank4_tt, word):
    """Words that cancel in one or two strides before the blocks settle,
    and ac, which never cancels."""
    rep = split(rank4, word, rank4_tt, M=80, tol=1e-9)
    assert rep.limits == pytest.approx(iterated_per_block(rank4, word, rank4_tt), abs=1e-9)
    limit = limit_length(rank4, word, rank4_tt, M=80, tol=1e-9)
    assert rep.m_stop == limit.m_stop
    assert rep.total == pytest.approx(limit.limit, abs=1e-12)


def test_per_block_needs_expansion(swap, swap_tt):
    with pytest.raises(PreconditionError):
        split(swap, "a", swap_tt)


# ---------------------------------------------------------- homothety


def test_homothety_fibonacci(fib, fib_tt, homothety_reference):
    rep = homothety_reference(fib, fib_tt, ["a", "b", "ab", "aB", "abAB"])
    assert rep.max_rel_error < 1e-9
    assert rep.skipped == ["abAB"]
    assert len(rep.checked) == 4


def test_homothety_non_expanding_exact(swap, swap_tt, homothety_reference):
    rep = homothety_reference(swap, swap_tt, ["a", "b", "ab"])
    assert rep.max_rel_error == 0.0
    assert not rep.skipped


# ------------------------------------------------- convergence constants


def test_convergence_constant_fibonacci_unit(fib, fib_tt):
    """Binet: the unit-metric constant is phi^3 / sqrt(5) for every segment."""
    rep = convergence_constants(fib, fib_tt, unit_metric(2))
    assert len(rep.constants) == 1
    assert rep.constants[0] == pytest.approx(PHI**3 / math.sqrt(5.0), abs=1e-12)


def test_convergence_constant_eigenmetric_is_one(fib, fib_tt):
    rep = convergence_constants(fib, fib_tt, fib_tt.metric)
    assert rep.constants[0] == pytest.approx(1.0, abs=1e-9)


def test_convergence_constant_scales_linearly(fib, fib_tt):
    base = convergence_constants(fib, fib_tt, unit_metric(2))
    scaled = convergence_constants(fib, fib_tt, unit_metric(2).scaled(3.5))
    assert scaled.constants[0] == pytest.approx(3.5 * base.constants[0], rel=1e-9)


def test_convergence_uniform_cross_check(fib, fib_tt):
    rep = convergence_constants(fib, fib_tt, unit_metric(2), loop_words=["a", "b", "ab", "aB", "aab"])
    assert rep.uniform_checked == 5
    assert rep.uniform_max_rel_error < 1e-5


def test_limit_length_rejects_horizon_below_one_stride(rank4, rank4_tt):
    """The horizon is counted in strides: at k = 2, M = 1 reads only m = 0."""
    with pytest.raises(InputError, match="stride k = 2"):
        limit_length(rank4, "a", rank4_tt, M=1)
    assert limit_length(rank4, "a", rank4_tt, M=2).m_stop == 2


def test_convergence_uniform_check_builds_no_word_past_legality(fib, fib_tt, monkeypatch):
    """a is legal at m = 0, so the cross-check reads its unit length at the
    last stride from count vectors: the only words built are the limit's."""
    m_stop = limit_length(fib, "a", fib_tt, M=80, tol=1e-8).m_stop
    calls = []
    apply_cyclic = Automorphism.apply_cyclic
    monkeypatch.setattr(Automorphism, "apply_cyclic", lambda self, w: calls.append(w) or apply_cyclic(self, w))
    rep = convergence_constants(fib, fib_tt, unit_metric(2), loop_words=["a"])
    assert rep.uniform_checked == 1
    assert m_stop == 1 and len(calls) <= m_stop


def test_convergence_uniform_error_at_the_horizon(fib, fib_tt):
    """All three loops reach the budget at m = 25.  Legal loops read the
    spectral gap's tail there, of order (phi^-2)^25 ~ 4e-11.  aabAB is a
    Nielsen path: its unit lengths obey L_m = L_(m-1) + L_(m-2) - 4, so
    lam^-m L_m exceeds its limit by 4 lam^-m, which is 2.04e-5 of it at
    m = 25."""
    legal = convergence_constants(fib, fib_tt, unit_metric(2), loop_words=["a", "aaBB"])
    assert legal.uniform_checked == 2 and legal.uniform_max_rel_error < 1e-10
    nielsen = convergence_constants(fib, fib_tt, unit_metric(2), loop_words=["aabAB"])
    assert nielsen.uniform_max_rel_error == pytest.approx(2.0365e-5, rel=1e-3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_cross_check_lengths_match_built_words(data):
    """The alt-metric length the cross-check reads, off count vectors once
    the orbit is legal, is the path length of the word-built orbit at every
    m, and both stop at the same cut."""
    auto, word, budget = data.draw(orbits_of_positive_maps())
    alt = Metric(data.draw(st.lists(st.floats(0.1, 10.0), min_size=auto.rank, max_size=auto.rank)))
    orbit = CyclicOrbit(auto, word, budget=budget, tt=analyze_train_track(rose_map(auto)))
    built = CyclicOrbit(auto, word, budget=budget)
    m = 0
    while m <= 120 and (got := orbit.metric_length_at(m, alt)) is not None:
        assert got == pytest.approx(path_length(built.word_at(m), alt), rel=1e-12, abs=0.0)
        m += 1
    assert m > 120 or built.word_at(m) is None


def _positive_map(rank, moves):
    """The rotation a -> b -> ... -> a followed by positive Nielsen moves
    x_i -> x_i x_j: a positive, irreducible, expanding train track."""
    images = [ALPHABET[(i + 1) % rank] for i in range(rank)]
    for i, j in moves:
        images[i] += images[j]
    return Automorphism(images)


def _count_vector_constants(tt, alt):
    """Reference for the closed form without building words.

    A positive map never cancels, so tau^m(x) has the count vector A^m x and
    c_i = lim lam^-(m k) delta . A^(m k) x / nu . x for x supported on block
    i.  Since nu . A = lam nu, dividing by nu . A^(m k) x instead of
    lam^(m k) nu . x is the same ratio without powers of lam.
    """
    nu = tt.pf.nu
    step = np.linalg.matrix_power(tt.matrix.astype(float), tt.pf.k)
    out = []
    for block in tt.pf.blocks:
        v = np.zeros(len(nu))
        v[[letter_index(e) for e in block]] = 1.0
        prev = None
        for _ in range(100_000):
            v = step @ v
            v /= nu @ v
            ratio = float(alt.lengths @ v)
            if prev is not None and abs(ratio - prev) <= 1e-15 * ratio:
                break
            prev = ratio
        out.append(ratio)
    return out


def _check_closed_form(auto, lengths):
    tt = analyze_train_track(rose_map(auto))
    alt = Metric(lengths)
    got = convergence_constants(auto, tt, alt).constants
    assert got == pytest.approx(_count_vector_constants(tt, alt), rel=1e-9)


@st.composite
def positive_maps(draw):
    rank = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    moves = draw(st.lists(pairs, min_size=1, max_size=6))
    lengths = draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank))
    return _positive_map(rank, moves), lengths


@settings(max_examples=40, deadline=None)
@given(positive_maps())
def test_convergence_closed_form_matches_count_vectors(case):
    _check_closed_form(*case)


def _illegal_turns(word, legal):
    """Illegal turns of a cyclic word, counted from the legal turn set."""
    return sum(frozenset((x.swapcase(), y)) not in legal for x, y in zip(word, word[1:] + word[:1]))


@st.composite
def classes_of_positive_maps(draw):
    rank = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    moves = draw(st.lists(pairs, min_size=1, max_size=3))
    letters = ALPHABET[:rank] + ALPHABET[:rank].upper()
    return _positive_map(rank, moves), draw(st.text(letters, min_size=1, max_size=6))


@settings(max_examples=60, deadline=None)
@given(classes_of_positive_maps())
def test_certified_limit_matches_delta_reference(reference_limit, case):
    """Certified limits equal the delta-extrapolated reference, lie in the
    reported interval, and each step along the orbit loses at most 2C per
    illegal turn: |psi(w)| >= lam |w| - 2 C t(w)."""
    auto, word = case
    tt = analyze_train_track(rose_map(auto))
    orbit = CyclicOrbit(auto, word, tt=tt)
    rep = limit_length(auto, word, tt, M=40 * tt.pf.k, orbit=orbit)
    assert rep.converged and rep.certificate in ("legal", "periodic", "splitting")
    assert rep.lower <= rep.limit <= rep.strided[-1][1] + 1e-12
    ref = reference_limit(auto.images, word, max_letters=200_000)
    if ref is not None:
        assert rep.limit == pytest.approx(ref, rel=1e-9, abs=1e-9)
    legal = tt.gmap.legal_turns()
    lam, C = tt.pf.lam, tt.cancellation_constant
    for w, image in zip(orbit.words, orbit.words[1:]):
        loss = lam * path_length(w, tt.metric) - path_length(image, tt.metric)
        assert -1e-9 <= loss <= 2 * C * _illegal_turns(w, legal) + 1e-9


def test_step_loss_bound_on_long_orbit_words():
    """A class drawn by the property test above, with a 22,058-letter orbit
    word: an eigenvector whose nu A misses lam nu by 3.4e-13 per letter
    breaks the lower step bound loss >= -1e-9 here, with a loss of -3.0e-9
    also under exact rational sums."""
    auto = Automorphism(["ba", "c", "dcba", "a"])
    tt = analyze_train_track(rose_map(auto))
    orbit = CyclicOrbit(auto, "DCb", tt=tt)
    limit_length(auto, "DCb", tt, M=40 * tt.pf.k, orbit=orbit)
    for w, image in zip(orbit.words, orbit.words[1:]):
        assert tt.pf.lam * path_length(w, tt.metric) - path_length(image, tt.metric) >= -1e-9


@st.composite
def orbits_of_positive_maps(draw):
    """A positive map, conjugated by a generator half of the time (x -> G x g,
    often no longer a train track), a class and a word budget."""
    rank = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    auto = _positive_map(rank, draw(st.lists(pairs, min_size=1, max_size=4)))
    if draw(st.booleans()):
        g = ALPHABET[draw(st.integers(0, rank - 1))]
        auto = Automorphism([g.upper() + w + g for w in auto.images])
    letters = ALPHABET[:rank] + ALPHABET[:rank].upper()
    return auto, draw(st.text(letters, min_size=1, max_size=6)), draw(st.integers(20, 5_000))


@settings(max_examples=60, deadline=None)
@given(orbits_of_positive_maps())
def test_count_lengths_match_built_words(case):
    """Lengths stepped by the transition matrix past the first legal word
    are the lengths of the words, cut at the same m; growth reads the same
    class from either."""
    auto, word, budget = case
    tt = analyze_train_track(rose_map(auto))

    def check(budget):
        orbit = CyclicOrbit(auto, word, budget=budget, tt=tt)
        lengths = []
        while len(lengths) < 200 and orbit.length_at(len(lengths)) is not None:
            lengths.append(orbit.length_at(len(lengths)))
        built = CyclicOrbit(auto, word, budget=budget)
        words = [built.word_at(m) for m in range(len(lengths) + 1)]
        assert lengths == [len(w) for w in words[:-1]]
        assert (words[-1] is None) == (len(lengths) < 200)
        assert [orbit.word_at(m) for m in range(len(lengths))] == words[:-1]
        return lengths

    check(max(check(budget)))  # a length equal to the budget is in it
    for M in (SWEEP_M, 40):
        with_tt = classify_growth(auto, word, M=M, orbit=CyclicOrbit(auto, word, budget=budget, tt=tt))
        assert with_tt == classify_growth(auto, word, M=M, orbit=CyclicOrbit(auto, word, budget=budget))


def test_count_lengths_build_no_word_past_legality(fib, fib_tt):
    """a is legal: its lengths are Fibonacci numbers, read without a word,
    and the words below the cut they find can still be built."""
    orbit = CyclicOrbit(fib, "a", budget=100, tt=fib_tt)
    assert [orbit.length_at(m) for m in range(10)] == [1, 2, 3, 5, 8, 13, 21, 34, 55, 89]
    assert orbit.length_at(10) is None and orbit.words == ["a"] and orbit.truncated
    assert len(orbit.word_at(9)) == 89 and orbit.word_at(10) is None


@st.composite
def twisted_positive_maps(draw):
    """A positive map conjugated by a letter h of either orientation,
    x -> h x h^-1 (the family's conjugated maps take h an inverse
    generator), a class and a word budget."""
    rank = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    auto = _positive_map(rank, draw(st.lists(pairs, min_size=1, max_size=6)))
    letters = ALPHABET[:rank] + ALPHABET[:rank].upper()
    h = draw(st.sampled_from(letters))
    twisted = Automorphism([h + w + h.swapcase() for w in auto.images])
    return twisted, draw(st.text(letters, min_size=1, max_size=6)), draw(st.integers(20, 5_000))


@settings(max_examples=40, deadline=None)
@given(twisted_positive_maps())
def test_train_track_twist_keeps_class_lengths(case):
    """The twist found is a train track, and its count lengths are the
    lengths of the input map's own words, cut at the same m, at every
    budget; growth reads the same class from either."""
    auto, word, budget = case
    tt = analyze_train_track(rose_map(auto))
    twist, twist_tt = train_track_twist(auto, tt)
    assert twist_tt.verdict.is_train_track and twist_tt.gmap.edge_images == twist.images
    assert twist.inverse_images is None

    def check(budget):
        orbit = CyclicOrbit(twist, word, budget=budget, tt=twist_tt)
        lengths = []
        while len(lengths) < 200 and orbit.length_at(len(lengths)) is not None:
            lengths.append(orbit.length_at(len(lengths)))
        built = CyclicOrbit(auto, word, budget=budget)
        assert lengths == [len(built.word_at(m)) for m in range(len(lengths))]
        assert (built.word_at(len(lengths)) is None) == (len(lengths) < 200)
        assert orbit.cut == built.cut
        return lengths

    for cap in (20, budget):
        check(max(check(cap)))  # a length equal to the budget is in it
    for M in (SWEEP_M, 40):
        on_twist = classify_growth(twist, word, M=M, orbit=CyclicOrbit(twist, word, budget=budget, tt=twist_tt))
        assert on_twist == classify_growth(auto, word, M=M, orbit=CyclicOrbit(auto, word, budget=budget))


def test_train_track_twist_of_bundled_maps(fib, fib_tt, conj_b, conj_b_tt):
    """fibonacci-conj-b twisted by b is fibonacci; a train track is its own
    twist."""
    twist, twist_tt = train_track_twist(conj_b, conj_b_tt)
    assert twist.images == fib.images and twist_tt.verdict.is_train_track
    same, same_tt = train_track_twist(fib, fib_tt)
    assert same is fib and same_tt is fib_tt


def test_convergence_closed_form_on_slow_rank20_map():
    """a -> ab, b -> c, ..., t -> a (lambda ~ 1.1187): iterating leaf
    segments to depth 14 spread by 8 here; the closed form needs no depth."""
    auto = Automorphism(["ab"] + [ALPHABET[(i + 1) % 20] for i in range(1, 20)])
    _check_closed_form(auto, [1.0] * 20)
    _check_closed_form(auto, [1.0 + i % 3 for i in range(20)])


def test_convergence_needs_expansion(swap, swap_tt):
    with pytest.raises(PreconditionError):
        convergence_constants(swap, swap_tt, unit_metric(2))


def test_translation_length_is_metric_length(fib_tt):
    assert path_length("ab", fib_tt.metric) == pytest.approx(1.0, abs=1e-12)
