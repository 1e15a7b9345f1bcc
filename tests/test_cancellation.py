"""Bounded cancellation: closed-form constants and sampled measurements.

For the Fibonacci map in its eigenmetric every edge is stretched exactly by
phi, so the Lipschitz constant is phi and the cancellation bound is
phi * volume = phi.  The split a^-1 | b cancels exactly nu_a: the images
are (ab)^-1 = b^-1 a^-1 and a, losing an a a^-1 pair at the junction.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    Automorphism,
    InputError,
    PreconditionError,
    analyze_train_track,
    cancellation_bound,
    lipschitz_constant,
    measure_cancellation,
    measure_split,
    path_length,
    parse_input,
    reduce_word,
    rose,
    rose_map,
    unit_metric,
)
from traintracks.cancellation import sample_reduced_words

PHI = (1.0 + math.sqrt(5.0)) / 2.0


# ------------------------------------------------------------- constants


def test_lipschitz_fibonacci_eigenmetric(fib_tt):
    # the eigenmetric stretches every edge by exactly lambda
    assert lipschitz_constant(fib_tt.gmap, fib_tt.metric) == pytest.approx(PHI, abs=1e-9)


def test_lipschitz_unit_metric(fib_tt):
    # longest image has two edges
    assert lipschitz_constant(fib_tt.gmap, unit_metric(2)) == 2.0


def test_cancellation_bound_closed_form(fib_tt):
    bound = cancellation_bound(fib_tt.gmap, fib_tt.metric, lam=fib_tt.pf.lam)
    assert bound.volume == pytest.approx(1.0, abs=1e-12)
    assert bound.bound == pytest.approx(PHI, abs=1e-9)
    # phi / (phi - 1) = phi^2
    assert bound.projection_bound == pytest.approx(PHI**2, abs=1e-8)
    text = str(bound)
    assert "C <= Lip * vol" in text and "projection" in text


def test_bound_without_expansion(swap_tt):
    bound = cancellation_bound(swap_tt.gmap, swap_tt.metric, lam=swap_tt.pf.lam)
    assert bound.projection_bound is None
    assert "projection" not in str(bound)


# ---------------------------------------------------------------- splits


def test_measure_split_closed_form(fib_tt):
    gmap, metric = fib_tt.gmap, fib_tt.metric
    nu_a = metric.of_letter("a")
    assert measure_split(gmap, metric, "A", "b") == pytest.approx(nu_a, abs=1e-12)
    # legal junction: images concatenate without loss
    assert measure_split(gmap, metric, "a", "b") == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(InputError):
        measure_split(gmap, metric, "", "b")


def test_measure_split_matches_direct_computation(fib_tt):
    """Oracle: recompute the loss from raw reduced images."""
    gmap, metric = fib_tt.gmap, fib_tt.metric
    for p, q in (("A", "b"), ("ab", "Ab"), ("aB", "Ab"), ("ba", "ab")):
        tp, tq = gmap.map_path(p), gmap.map_path(q)
        whole = reduce_word(tp + tq, 2)
        assert gmap.map_path(p + q) == whole
        expected = (path_length(tp, metric) + path_length(tq, metric) - path_length(whole, metric)) / 2
        assert measure_split(gmap, metric, p, q) == pytest.approx(expected, abs=1e-12)


@given(st.text(alphabet="abAB", min_size=2, max_size=12), st.data())
def test_split_loss_bounded_and_nonnegative(w, data):
    import traintracks as T

    fib = T.corpus.fibonacci()
    tt = T.analyze_train_track(T.rose_map(fib))
    core = reduce_word(w, 2)
    if len(core) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(core) - 1))
    lost = measure_split(tt.gmap, tt.metric, core[:cut], core[cut:])
    assert -1e-12 <= lost <= PHI + 1e-9


# -------------------------------------------------------------- sampling


def test_sample_reduced_words_shape():
    rng = random.Random(7)
    words = sample_reduced_words(rose(2), 50, rng)
    assert len(words) == 50
    for w in words:
        assert 2 <= len(w) <= 14
        assert reduce_word(w, 2) == w


def test_samples_are_edge_paths_off_roses(subdivided_fib):
    """On a two-vertex graph each letter leaves from its predecessor's
    terminus, so cancellation is measured on edge paths and stays within
    Lip * vol = phi; legal splits lose nothing."""
    tt = analyze_train_track(parse_input(subdivided_fib).gmap)
    legal = tt.gmap.legal_turns()
    for turns in (None, legal):
        for w in sample_reduced_words(tt.gmap.graph, 100, random.Random(3), legal=turns):
            assert tt.gmap.graph.check_path(w) == reduce_word(w, 3)
    sample = measure_cancellation(tt.gmap, tt.metric)
    assert sample.within_bound and sample.max_measured <= PHI + 1e-9
    assert measure_cancellation(tt.gmap, tt.metric, legal_only=True).max_measured == 0.0


@pytest.mark.parametrize("legal_only", [False, True])
def test_caller_words_must_be_edge_paths(subdivided_fib, legal_only):
    """aacA and acab are no paths (a ends at vertex 1, where a and c do not
    start); abca is one."""
    tt = analyze_train_track(parse_input(subdivided_fib).gmap)
    with pytest.raises(InputError, match="do not compose"):
        measure_cancellation(tt.gmap, tt.metric, words=["aacA", "acab"], legal_only=legal_only)
    assert measure_cancellation(tt.gmap, tt.metric, words=["abca"]).count == 1


@pytest.mark.parametrize("name", ["fibonacci", "fibonacci-conj-a", "fibonacci-conj-b", "swap-fibonacci"])
def test_measured_cancellation_within_bound(name, all_tts):
    tt = all_tts[name]
    sample = measure_cancellation(tt.gmap, tt.metric, samples=200, seed=0)
    assert sample.within_bound
    assert sample.max_measured <= sample.bound + 1e-9
    assert 0.0 <= sample.mean_measured <= sample.max_measured
    assert sample.worst is not None


def test_legal_splits_cancel_nothing(fib_tt, rank4_tt):
    for tt in (fib_tt, rank4_tt):
        sample = measure_cancellation(tt.gmap, tt.metric, samples=200, seed=0, legal_only=True)
        assert sample.legal_only
        assert sample.max_measured <= 1e-12
        assert sample.count == 200  # sampled words are legal paths, so every one splits


def test_legal_splits_are_splits_of_legal_paths():
    """On a -> bcaca, b -> ca, c -> a the split BcaB | ACb has a legal
    junction turn {b, A}, but the turn {A, B} inside p is illegal and the
    tightened image loses length there; such splits are not legal."""
    tt = analyze_train_track(rose_map(Automorphism(["bcaca", "ca", "a"])))
    assert tt.verdict.is_train_track
    assert measure_split(tt.gmap, tt.metric, "BcaB", "ACb") > 0.7
    with pytest.raises(PreconditionError):
        measure_cancellation(tt.gmap, tt.metric, words=["BcaBACb"], legal_only=True)
    sample = measure_cancellation(tt.gmap, tt.metric, samples=200, seed=0, legal_only=True)
    assert sample.count == 200
    assert sample.max_measured <= 1e-12


def test_non_train_track_cancels_positively(conj_b_tt):
    sample = measure_cancellation(conj_b_tt.gmap, conj_b_tt.metric, samples=200, seed=0)
    assert sample.max_measured > 0.01
    assert sample.within_bound


def test_sampling_is_deterministic(fib_tt):
    a = measure_cancellation(fib_tt.gmap, fib_tt.metric, samples=100, seed=3)
    b = measure_cancellation(fib_tt.gmap, fib_tt.metric, samples=100, seed=3)
    assert a == b
    c = measure_cancellation(fib_tt.gmap, fib_tt.metric, samples=100, seed=4)
    assert c.worst != a.worst


def test_explicit_words_and_empty_failure(fib_tt):
    sample = measure_cancellation(fib_tt.gmap, fib_tt.metric, words=["Ab", "ab", "aB"])
    assert sample.count == 3
    with pytest.raises(PreconditionError):
        measure_cancellation(fib_tt.gmap, fib_tt.metric, words=["a"])  # too short to split
