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
    GraphMap,
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
from traintracks.pipeline import cancellation_section

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
    assert measure_split(gmap, metric, "a", "b") == 0.0
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


@pytest.fixture(scope="module")
def rose_tts(all_tts, family_maps):
    """name -> TrainTrackData for the 7 bundled and 28 family rose maps."""
    tts = dict(all_tts)
    for name, fm in family_maps.items():
        tts[name] = analyze_train_track(rose_map(Automorphism(fm.images)))
    return tts


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_junction_reading_matches_three_images(rose_tts, data):
    """The cancelled suffix of tp read at the junction is the three-image
    loss (|tp| + |tq| - |tau(pq)|) / 2, and tau(pq) is tp with that suffix
    cut, followed by tq with its inverse cut.  Lengths are in the metric the
    reports use: the eigenmetric, or the unit metric without one."""
    tt = rose_tts[data.draw(st.sampled_from(sorted(rose_tts)))]
    gmap = tt.gmap
    metric = tt.metric if tt.metric is not None else unit_metric(gmap.graph)
    rank = gmap.graph.edge_pairs
    letters = gmap.graph.letters + gmap.graph.letters.upper()
    word = reduce_word(data.draw(st.text(alphabet=letters, min_size=2, max_size=16)), rank)
    if len(word) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(word) - 1))
    p, q = word[:cut], word[cut:]
    tp, tq, whole = gmap.map_path(p), gmap.map_path(q), gmap.map_path(p + q)
    k = (len(tp) + len(tq) - len(whole)) // 2
    assert tp[: len(tp) - k] + tq[k:] == whole
    expected = (path_length(tp, metric) + path_length(tq, metric) - path_length(whole, metric)) / 2
    lost = measure_split(gmap, metric, p, q)
    assert lost == pytest.approx(expected, abs=1e-12)
    assert lost >= 0.0 and (lost == 0.0) == (k == 0)


def test_split_off_a_rose_must_meet_at_a_vertex(subdivided_fib):
    """a runs from vertex 0 to 1 and c starts at 0: both halves are edge
    paths, but a | c is no split of one."""
    tt = analyze_train_track(parse_input(subdivided_fib).gmap)
    with pytest.raises(InputError, match="do not compose"):
        measure_split(tt.gmap, tt.metric, "a", "c")
    assert measure_split(tt.gmap, tt.metric, "ab", "c") == 0.0


def test_reported_cancellation_is_never_negative(rose_tts, all_tts, family_maps):
    """Every reported value is a sum of edge lengths: on the bundled and the
    unconjugated family maps the random-split mean lies in [0, max], and
    legal splits on a train track read exactly 0."""
    names = [name for name in rose_tts if name in all_tts or not family_maps[name].conjugated]
    assert len(names) == 21
    for name in names:
        tt = rose_tts[name]
        section = cancellation_section(tt, samples=200, seed=0)
        random_splits = section["random_splits"]
        assert 0.0 <= random_splits["mean_measured"] <= random_splits["max_measured"], name
        if tt.verdict.is_train_track:
            assert section["legal_splits"]["max_measured"] == 0.0, name


def test_each_split_maps_two_paths(fib_tt, monkeypatch):
    """A split costs the images of its two halves, no third image of the
    whole word: the layer's work pinned by a count."""
    calls = []
    map_path = GraphMap.map_path

    def counted(self, word, *args, **kwargs):
        calls.append(word)
        return map_path(self, word, *args, **kwargs)

    monkeypatch.setattr(GraphMap, "map_path", counted)
    sample = measure_cancellation(fib_tt.gmap, fib_tt.metric, samples=200)
    assert sample.count == 200
    assert len(calls) == 2 * sample.count


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
    assert 0.0 <= lost <= PHI + 1e-9


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
        assert sample.max_measured == 0.0
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
    assert sample.max_measured == 0.0


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
