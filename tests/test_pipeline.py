"""Input parsing, the full analyze report, JSON shaping, and the CLI."""

import dataclasses
import hashlib
import itertools
import json
import math
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from traintracks import (
    AnalysisConfig,
    Automorphism,
    CyclicOrbit,
    EquivalenceReport,
    ParseError,
    PreconditionError,
    analyze,
    analyze_train_track,
    build_leaf_corpus,
    canonical_rotation,
    classify_growth,
    enumerate_cyclic_words,
    equivalence_sweep,
    invert_word,
    limit_length,
    longest_leaf_segment,
    parse_input,
    path_length,
    report_json,
    rose_map,
    round_floats,
    train_track_twist,
    weak_limit_probe,
)
from traintracks.limits import SWEEP_BUDGET, SWEEP_M
from traintracks import cli, corpus, laminations, pipeline
from traintracks.cli import main
from traintracks.pipeline import STAGES, growth_section, homothety_section, lamination_section
from traintracks.words import ALPHABET

PHI = (1.0 + math.sqrt(5.0)) / 2.0

FAST = AnalysisConfig(max_word_len=3, leaf_depth=8, leaf_budget=100_000, samples=50)


# ----------------------------------------------------------------- parsing


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_parse_round_trips_bundled_examples(name):
    parsed = parse_input(corpus.input_text(name))
    expected = corpus.get(name)
    assert parsed.auto is not None
    assert parsed.auto.images == expected.images
    assert parsed.auto.inverse_images == expected.inverse_images


def test_parse_plain_rose():
    parsed = parse_input("rank: 2\na -> ab\nb -> a\n")
    assert parsed.auto.images == ("ab", "a")
    assert parsed.auto.inverse_images is None
    assert parsed.gmap.graph.is_rose()


def test_parse_comments_and_spacing():
    text = "# leading comment\nrank: 2\n\na -> a b   # spaced word\nb -> a\n"
    assert parse_input(text).auto.images == ("ab", "a")


def test_parse_graph_section():
    text = (
        "graph:\n"
        "vertices: 2\n"
        "edge a: 0 1\n"
        "edge b: 0 1\n"
        "edge c: 0 1\n"
        "map:\n"
        "a -> b\n"
        "b -> c\n"
        "c -> a\n"
    )
    parsed = parse_input(text)
    assert parsed.auto is None
    assert parsed.gmap.graph.vertex_count == 2
    assert parsed.gmap.edge_images == ("b", "c", "a")


def test_parse_graph_rose_recovers_automorphism():
    text = "graph:\nvertices: 1\nedge a: 0 0\nedge b: 0 0\nmap:\na -> ab\nb -> a\n"
    parsed = parse_input(text)
    assert parsed.auto is not None
    assert parsed.auto.images == ("ab", "a")


# Malformed descriptions in which a line would be dropped or overridden:
# each must be refused, with an error naming the letter or the line.
MALFORMED = [
    ("graph:\nvertices: 1\nedge a: 0 0\nedge b: 0 0\nmap:\na -> ab\nb -> a\nc -> abab\n", "outside edges a..b: ['c']"),
    (
        "graph:\nvertices: 2\nedge a: 0 1\nedge b: 1 0\nedge c: 0 0\nmap:\na -> ab\nb -> c\nc -> ab\nd -> aa\n",
        "outside edges a..c: ['d']",
    ),
    ("rank: 2\na -> ab\nb -> a\ninverse:\na -> b\nb -> Ba\nc -> a\n", "inverse images given for letters outside rank 2: ['c']"),
    ("rank: 5\ngraph:\nvertices: 1\nedge a: 0 0\nedge b: 0 0\nmap:\na -> ab\nb -> a\n", "cannot mix 'rank:'"),
    ("rank: 2\nrank: 3\na -> ab\nb -> a\n", "second 'rank:' line (line 2)"),
    ("graph:\nvertices: 1\nvertices: 2\nedge a: 0 0\nmap:\na -> a\n", "second 'vertices:' line (line 3)"),
]


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("a -> ab\nb -> a\n", "missing 'rank:'"),
        ("rank: two\na -> ab\nb -> a\n", "not an integer"),
        ("rank: 2\na -> ab\n", "missing images"),
        ("rank: 2\na -> ab\nb -> a\na -> b\n", "duplicate image"),
        ("rank: 2\na -> ab\nb -> a\nc -> a\n", "outside rank"),
        ("rank: 2\nab -> ab\nb -> a\n", "single letter"),
        ("rank: 2\na = ab\nb -> a\n", "expected 'letter -> word'"),
        ("rank: 2\na -> a2\nb -> a\n", "unexpected character"),
        ("graph:\nedge a: 0 0\nmap:\na -> a\n", "vertices"),
        ("graph:\nvertices: 1\nedge a: 0 0\nedge a: 0 0\nmap:\na -> a\n", "duplicate edge"),
        ("graph:\nvertices: 1\nedge a: 0 0\nwhat\nmap:\na -> a\n", "unexpected line"),
        ("graph:\nvertices: 1\nedge b: 0 0\nmap:\nb -> b\n", "consecutively"),
        ("graph:\nvertices: 1\nedge a: 0 0\nmap:\n", "missing images"),
        ("rank: 2\na -> ab\nb -> a\ngraph:\nvertices: 1\nedge a: 0 0\nmap:\na -> a\n", "cannot mix"),
        *MALFORMED,
        ("rank: 2\nmap:\na -> ab\nb -> a\n", "'map:' must follow a 'graph:' section (line 2)"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(ParseError) as exc:
        parse_input(text)
    assert fragment in str(exc.value)


def graph_spelling(auto: Automorphism) -> str:
    """The automorphism as a map of a one-vertex graph, without inverse."""
    letters = ALPHABET[: auto.rank]
    lines = ["graph:", "vertices: 1", *(f"edge {g}: 0 0" for g in letters), "map:"]
    return "\n".join(lines + [f"{g} -> {w}" for g, w in zip(letters, auto.images)]) + "\n"


@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_rank_and_graph_spellings_read_alike(name):
    texts = corpus.input_text(name), graph_spelling(corpus.get(name))
    by_rank, by_graph = map(parse_input, texts)
    assert by_graph.gmap.edge_images == by_rank.gmap.edge_images
    assert by_graph.auto.images == by_rank.auto.images
    reports = [analyze(text, config=FAST) for text in texts]
    for report in reports:
        report.pop("meta")
        report.pop("validation")  # the graph spelling carries no inverse
    assert report_json(reports[0]) == report_json(reports[1])


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_input("rank: 2\na -> ab\nb => a\n")
    assert exc.value.line == 3
    assert "(line 3)" in str(exc.value)


# ------------------------------------------------------------- equivalence


def test_equivalence_sweep_no_discrepancies(fib, fib_tt):
    from traintracks import enumerate_cyclic_words

    leaf_corpus = build_leaf_corpus(fib_tt, depth=8, budget=100_000)
    words = enumerate_cyclic_words(2, 4)
    rep = equivalence_sweep(fib, fib_tt, leaf_corpus, words)
    assert rep.checked == len(words)
    assert rep.discrepancies == []
    assert rep.exponential + rep.polynomial == rep.checked
    assert rep.labels["a"].startswith("Exponential")
    assert rep.labels["abAB"] == "Polynomial(0)"


def test_discrepancy_records_the_limit_certificate(fib, fib_tt, monkeypatch):
    """A dissenting detector is recorded next to what the limit rested on."""
    import types

    import traintracks.pipeline as pipeline

    dissent = types.SimpleNamespace(verdict=False, stop="uncertified")
    monkeypatch.setattr(pipeline, "weak_limit_probe", lambda *args, **kwargs: dissent)
    rep = equivalence_sweep(fib, fib_tt, None, ["aabAB", "abAB"])
    assert rep.discrepancies == [
        {"word": "aabAB", "limit_length": True, "certificate": "splitting", "growth": True, "leaf_probe": False,
         "leaf_probe_stop": "uncertified"}
    ]


def reference_probe(auto, word, corpus, orbit):
    """The leaf probe's walk matching every stride word itself, short or
    not, and scanning every earlier stride word for a rotation; its stop."""
    tt, earlier = corpus.tt, []
    for m in itertools.count(0, corpus.k):
        w = orbit.word_at(m)
        if w is None or len(w) > 30_000 or m > 2 * math.log(30_000) / math.log(tt.pf.lam):
            return "uncertified"
        if any(len(v) == len(w) and w in v + v for v in earlier):
            return "periodic"
        if longest_leaf_segment(w, corpus).length >= tt.critical_length:
            return "certified"
        earlier.append(w)


def sweep_growth_params(lam):
    """The growth classifier's horizon and eps in a sweep at stretch factor lam."""
    return max(SWEEP_M, 4 * math.ceil(math.log(3) / math.log(lam))), min(0.05, math.sqrt(lam) - 1)


def reference_sweep(auto, tt, corpus, words, config):
    """The sweep word by word: growth reads lengths off built words, and
    the probe matches each orbit word on its own, on an orbit built without
    the train track; the limit runs on its own orbit, built with it.  A word
    whose inverse came earlier must have that word's limit, which it records."""
    growth_M, growth_eps = sweep_growth_params(tt.pf.lam)
    n_exp, discrepancies, labels, limits, images = 0, [], {}, {}, {}
    for word in words:
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET)
        limit_orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        rep = limit_length(auto, word, tt, M=config.M, tol=config.tol, orbit=limit_orbit)
        b = classify_growth(auto, word, M=growth_M, eps=growth_eps, orbit=orbit).is_exponential
        a = rep.classification.is_exponential
        stop = reference_probe(auto, word, corpus, orbit)
        c = stop == "certified"
        labels[word] = rep.classification.label()
        inverse = canonical_rotation(invert_word(word))
        if inverse in limits:  # the sweep reads a class and its inverse once: one limit, one image
            assert rep.limit == pytest.approx(limits[inverse], rel=1e-12, abs=1e-15), word
        else:
            images[word] = orbit.word_at(1)
        limits[word] = limits.get(inverse, rep.limit)
        n_exp += a
        if not (a == b == c):
            discrepancies.append(
                {"word": word, "limit_length": a, "certificate": rep.certificate, "growth": b, "leaf_probe": c,
                 "leaf_probe_stop": stop}
            )
    return EquivalenceReport(len(words), n_exp, len(words) - n_exp, discrepancies, labels, limits, images)


R6_M4 = ["bcf", "c", "d", "eb", "f", "ac"]
R26_M1 = [ALPHABET[(i + 1) % 26] for i in range(26)]
R26_M1[23] = "yo"


@pytest.mark.parametrize(
    "auto, max_len",
    [(corpus.fibonacci(), 5), (corpus.swap_fibonacci_rank4(), 3), (Automorphism(R6_M4), 2), (Automorphism(R26_M1), 1)],
    ids=["fibonacci", "swap-fibonacci", "r6-m4", "r26-m1"],
)
def test_sweep_matches_word_by_word_reference(auto, max_len):
    """Count lengths and the per-class match cache change no verdict."""
    tt = analyze_train_track(rose_map(auto))
    config = AnalysisConfig()
    words = enumerate_cyclic_words(auto.rank, max_len)
    leaves = build_leaf_corpus(tt, depth=config.leaf_depth, budget=config.leaf_budget)
    assert equivalence_sweep(auto, tt, leaves, words, config) == reference_sweep(auto, tt, leaves, words, config)


@pytest.mark.parametrize(
    "auto, max_len, leaves, pairs",
    [(corpus.fibonacci(), 5, "fib_corpus", 30), (corpus.swap_fibonacci_rank4(), 3, "rank4_corpus", 48)],
    ids=["fibonacci", "swap-fibonacci"],
)
def test_homothety_section_agrees_with_reference(auto, max_len, leaves, pairs, homothety_reference, request):
    """The section's pairs are the classes read whose image is a sweep word
    and whose limit is positive; fresh limits at m = 80 for w and psi(w)
    confirm L(psi(w)) = lam L(w) on each of them."""
    tt = analyze_train_track(rose_map(auto))
    eq = equivalence_sweep(auto, tt, request.getfixturevalue(leaves), enumerate_cyclic_words(auto.rank, max_len))
    section = homothety_section(tt, eq)
    paired = [w for w, image in eq.images.items() if canonical_rotation(image) in eq.limits]
    ref = homothety_reference(auto, tt, paired)
    assert section["pairs"] == len(ref.checked) == pairs
    assert section["mismatched"] == []
    assert section["worst_pair"][0] in dict(ref.checked)
    assert section["max_rel_defect"] < 1e-12 and ref.max_rel_error < 1e-9


def test_homothety_section_sees_a_scaled_limit(monkeypatch):
    """One class's limit off by 0.1% breaks the dilation by about 1e-3."""
    real = pipeline.limit_length

    def scaled(auto, word, *args, **kwargs):
        rep = real(auto, word, *args, **kwargs)
        return dataclasses.replace(rep, limit=rep.limit * 1.001) if word == "ab" else rep

    monkeypatch.setattr(pipeline, "limit_length", scaled)
    section = analyze(corpus.fibonacci(), config=FAST)["homothety"]
    assert section["max_rel_defect"] == pytest.approx(1e-3, rel=0.01)
    assert "ab" in section["worst_pair"]
    assert section["mismatched"] == []


def classifier_agreement(auto, tt, words):
    """Certificates of the classes whose limit classification is not
    low-confidence, after checking that the growth classifier, at the
    sweep's horizon and eps on the sweep's orbit, reads the same growth."""
    growth_M, growth_eps = sweep_growth_params(tt.pf.lam)
    config = AnalysisConfig()
    certificates = []
    for word in words:
        orbit = CyclicOrbit(auto, word, budget=SWEEP_BUDGET, tt=tt)
        rep = limit_length(auto, word, tt, M=config.M, tol=config.tol, orbit=orbit)
        if not rep.classification.low_confidence:
            growth = classify_growth(auto, word, M=growth_M, eps=growth_eps, orbit=orbit)
            assert growth.is_exponential == rep.classification.is_exponential, word
            certificates.append(rep.certificate)
    return certificates


@pytest.mark.parametrize(
    "name, max_len, counts",
    [
        ("fibonacci", 5, {"legal": 88, "splitting": 12, "periodic": 2}),
        ("fibonacci-conj-a", 5, {"legal": 88, "splitting": 12, "periodic": 2}),
        ("swap-fibonacci", 3, {"legal": 160}),
    ],
)
def test_growth_classifier_agrees_with_certified_classes(name, max_len, counts):
    """The sweep reads growth off the limit's classification where it is
    not low-confidence; the raw-length classifier stays the reference for
    that, on every certificate kind: 6 splitting and 1 periodic class up to
    inversion on each Fibonacci map."""
    auto = corpus.get(name)
    tt = analyze_train_track(rose_map(auto))
    certificates = classifier_agreement(auto, tt, enumerate_cyclic_words(auto.rank, max_len))
    assert {c: certificates.count(c) for c in set(certificates)} == counts


def family_style_map(rank, moves):
    """The rotation a -> b -> ... -> a composed with Nielsen moves
    x_i -> x_i x_j, as the benchmark family builds its maps: positive, so a
    train track."""
    letters = ALPHABET[:rank]
    auto = Automorphism([letters[(i + 1) % rank] for i in range(rank)])
    for i, j in moves:
        images = list(letters)
        images[i] += letters[j]
        auto = auto.compose(Automorphism(images))
    return auto


@st.composite
def family_style_maps(draw):
    rank = draw(st.integers(2, 4))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    return family_style_map(rank, draw(st.lists(pairs, min_size=1, max_size=8)))


@settings(max_examples=30, deadline=None)
@given(family_style_maps())
@example(Automorphism(["b", "c", "dccc", "abbb"]))  # bD: lengths 2, 5, 2, 5, ... once read exponential
def test_growth_classifier_agrees_on_family_style_train_tracks(auto):
    """Over sweeps of length 2: the classifier agrees with every class whose
    limit classification is not low-confidence, and the orbit's words past
    legality are apply_cyclic's."""
    tt = analyze_train_track(rose_map(auto))
    assume(tt.verdict.is_train_track and tt.irreducible and tt.expanding)
    words = enumerate_cyclic_words(auto.rank, 2)
    classifier_agreement(auto, tt, words)
    for word in words:
        orbit = CyclicOrbit(auto, word, budget=5_000, tt=tt)
        built = CyclicOrbit(auto, word, budget=5_000)
        assert [orbit.word_at(m) for m in range(13)] == [built.word_at(m) for m in range(13)]


def test_sweep_reads_growth_off_certificates(fib, fib_tt, monkeypatch):
    """On fibonacci at sweep length 5 every class is certified: the sweep
    calls the growth classifier 0 times, and apply_cyclic only on the words
    before each orbit's first legal word, 79 times over 51 orbits: the
    probe builds no word past its certificate or first repeat.  With
    every classification marked low-confidence the classifier runs once
    per class up to inversion, and reads the same verdicts."""
    import dataclasses

    import traintracks.limits as limits
    import traintracks.pipeline as pipeline

    words = enumerate_cyclic_words(2, 5)
    leaves = build_leaf_corpus(fib_tt, depth=8, budget=100_000)
    classified, applied, orbits = [], [], []
    classify, apply_cyclic, certify = classify_growth, Automorphism.apply_cyclic, limit_length

    def counted_classify(auto, word, *args, **kwargs):
        classified.append(word)
        return classify(auto, word, *args, **kwargs)

    def counted_apply(auto, word):
        applied.append(word)
        return apply_cyclic(auto, word)

    class TrackedOrbit(CyclicOrbit):
        def __init__(self, auto, word, **kwargs):
            super().__init__(auto, word, **kwargs)
            orbits.append(self)

    monkeypatch.setattr(pipeline, "classify_growth", counted_classify)
    monkeypatch.setattr(limits, "classify_growth", counted_classify)
    monkeypatch.setattr(Automorphism, "apply_cyclic", counted_apply)
    monkeypatch.setattr(pipeline, "CyclicOrbit", TrackedOrbit)
    honest = equivalence_sweep(fib, fib_tt, leaves, words)
    assert (len(classified), len(applied), len(orbits)) == (0, 79, 51)
    before_legal = [o.legal_from if o.legal_from is not None else len(o.words) - 1 + o.truncated for o in orbits]
    assert sum(before_legal) == 79

    def uncertain(*args, **kwargs):
        rep = certify(*args, **kwargs)
        return dataclasses.replace(rep, classification=dataclasses.replace(rep.classification, low_confidence=True))

    monkeypatch.setattr(pipeline, "limit_length", uncertain)
    assert equivalence_sweep(fib, fib_tt, leaves, words) == honest
    assert len(classified) == len(words) // 2 == 51


def test_sweep_builds_one_orbit_per_inverse_pair(fib, fib_tt, monkeypatch):
    """w and w^-1 share one orbit and one verdict: 102 words, 51 orbits."""
    import traintracks.pipeline as pipeline

    built = []

    class CountedOrbit(CyclicOrbit):
        def __init__(self, auto, word, **kwargs):
            built.append(word)
            super().__init__(auto, word, **kwargs)

    monkeypatch.setattr(pipeline, "CyclicOrbit", CountedOrbit)
    words = enumerate_cyclic_words(2, 5)
    rep = equivalence_sweep(fib, fib_tt, build_leaf_corpus(fib_tt, depth=8, budget=100_000), words)
    assert (rep.checked, len(built)) == (102, 51)
    assert set(rep.labels) == set(words)
    assert all(rep.labels[w] == rep.labels[canonical_rotation(invert_word(w))] for w in words)


def test_dissent_is_listed_for_both_orientations(fib, fib_tt, monkeypatch):
    """A dissenting probe is recorded for w and for w^-1, in sweep order,
    although it ran once, on one orientation only."""
    import types

    import traintracks.pipeline as pipeline

    words = enumerate_cyclic_words(2, 3)
    leaves = build_leaf_corpus(fib_tt, depth=8, budget=100_000)
    honest = equivalence_sweep(fib, fib_tt, leaves, words)
    probed = []

    def dissent(auto, word, *args, **kwargs):
        probed.append(word)
        return types.SimpleNamespace(verdict=False, stop="uncertified")

    monkeypatch.setattr(pipeline, "weak_limit_probe", dissent)
    rep = equivalence_sweep(fib, fib_tt, leaves, words)
    exponential = [w for w in words if honest.labels[w].startswith("Exponential")]
    assert (rep.checked, rep.exponential, rep.polynomial) == (honest.checked, honest.exponential, honest.polynomial)
    assert [d["word"] for d in rep.discrepancies] == exponential
    assert len(probed) == len(words) // 2  # one probe per pair, none retried


def test_uncertified_probe_widens_once_and_names_its_stop(fib, monkeypatch):
    """With the cancellation constant scaled by 1000, 2R is longer in the
    eigenmetric than the whole 4,241-letter leaf prefix, so no walk can
    certify: a and ab end uncertified at their first word over MATCH_CAP
    letters (m = 21 for ab).  The first of them widens the corpus, which
    builds the one automaton on the MATCH_CAP slice, here the whole prefix,
    once for the sweep; each dissent names the stop."""
    tt = analyze_train_track(rose_map(fib))
    tt.cancellation_constant = 1000 * tt.cancellation_constant
    leaves = build_leaf_corpus(tt, depth=12, budget=5_000)
    prefix = leaves.prefixes[0].word
    assert len(prefix) > laminations.LEAF_SLICE and path_length(prefix, tt.metric) < tt.critical_length
    built = []

    class CountedAutomaton(laminations._SuffixAutomaton):
        def __init__(self, text):
            built.append(len(text))
            super().__init__(text)

    monkeypatch.setattr(laminations, "_SuffixAutomaton", CountedAutomaton)
    rep = equivalence_sweep(fib, tt, leaves, ["a", "ab", "abAB"])
    assert built == [laminations.LEAF_SLICE, len(prefix)]
    assert [(d["word"], d["limit_length"], d["leaf_probe"], d["leaf_probe_stop"]) for d in rep.discrepancies] == [
        ("a", True, False, "uncertified"),
        ("ab", True, False, "uncertified"),
    ]
    probe = weak_limit_probe(fib, "ab", leaves)
    assert (probe.verdict, probe.stop, probe.m) == (False, "uncertified", 21)
    assert built == [laminations.LEAF_SLICE, len(prefix)]


@pytest.mark.parametrize("name, checked", [("r10-m2", 220), ("r16-m4", 544), ("r26-m8", 1404)])
def test_slow_family_maps_agree_at_sweep_length_2(family_maps, name, checked):
    """At sweep length 2 the quartile-trend probe dissented on 4, 2 and 66
    exponential classes of these maps; the certificate walk certifies every
    one of them by m = 32."""
    report = analyze(family_maps[name].input_text(), config=AnalysisConfig(max_word_len=2))
    assert report["equivalence"] == {"checked": checked, "discrepancies": 0, "details": []}


# ----------------------------------------------------------------- analyze


@pytest.fixture(scope="module")
def fib_report():
    return analyze(corpus.fibonacci(), config=FAST)


def test_analyze_report_sections(fib_report):
    expected = {
        "meta",
        "input",
        "validation",
        "train_track",
        "transition",
        "spectral",
        "homothety",
        "growth",
        "equivalence",
        "lengths",
        "lamination",
        "cancellation",
        "convergence",
        "skipped",
    }
    assert set(fib_report) == expected
    assert fib_report["skipped"] == {}
    assert fib_report["train_track"]["is_train_track"] is True
    assert fib_report["spectral"]["lambda"] == pytest.approx(PHI, abs=1e-9)
    assert fib_report["equivalence"]["discrepancies"] == 0
    assert fib_report["lengths"]["a"]["limit"] == pytest.approx(1 / PHI, abs=1e-6)
    assert fib_report["cancellation"]["legal_splits"]["max_measured"] <= 1e-12
    assert fib_report["convergence"]["constants"][0] == pytest.approx(PHI**3 / math.sqrt(5), abs=1e-12)


def test_analyze_skips_structured_stages_for_reducible():
    report = analyze(corpus.unipotent_rank2(), config=FAST)
    skipped = report["skipped"]
    for stage in ("spectral", "homothety", "equivalence", "lengths", "lamination", "convergence"):
        assert stage in skipped
    assert report["transition"]["irreducible"] is False
    assert report["transition"]["invariant_subgraph"] == ["a"]
    assert report["growth"]["polynomial"] == report["growth"]["classes"]
    assert report["cancellation"]["metric"] == "unit"


def test_analyze_non_train_track_still_reports():
    report = analyze(corpus.fibonacci_conjugate_b(), config=FAST)
    assert report["train_track"]["is_train_track"] is False
    assert report["train_track"]["fails_at_iterate"] == 2
    assert "spectral" in report  # irreducible even though not a train track
    assert "lengths" in report["skipped"]
    assert "legal_splits" not in report["cancellation"]


def test_analyze_accepts_text_and_words():
    report = analyze("rank: 2\na -> ab\nb -> a\n", config=FAST, words=["ab", "aB"])
    assert set(report["lengths"]) == {"ab", "aB"}
    assert report["lengths"]["ab"]["limit"] == pytest.approx(1.0, abs=1e-6)
    assert report["validation"]["warnings"]  # no inverse block given


def test_analyze_deterministic_modulo_meta():
    a = analyze(corpus.fibonacci(), config=FAST)
    b = analyze(corpus.fibonacci(), config=FAST)
    for r in (a, b):
        r["meta"].pop("timestamp")
        r["meta"].pop("elapsed_seconds")
    assert report_json(a) == report_json(b)


def test_analyze_homothety_needs_a_sweep():
    """swap is a train track with lambda = 1: no sweep, so no dilation check."""
    report = analyze(corpus.swap_rank2(), config=FAST)
    assert "homothety" not in report and "equivalence" not in report
    reason = "checked on the equivalence sweep, which needs an expanding train track on a rose"
    assert report["skipped"]["homothety"] == reason


def test_analyze_subdivided_fibonacci(subdivided_fib):
    """An expanding train track off a rose: cancellation is sampled on edge
    paths and stays within its bound, and the skips name the missing rose.
    With non-paths among the 200 default samples it read 1.854 > phi."""
    report = analyze(subdivided_fib, config=dataclasses.replace(FAST, samples=200))
    assert report["spectral"]["lambda"] == pytest.approx(PHI, abs=1e-12)
    assert report["spectral"]["lambda_is_stretch_factor"] is True
    cancel = report["cancellation"]
    assert cancel["bound"] == pytest.approx(PHI, abs=1e-9)
    assert cancel["random_splits"]["within_bound"] is True
    assert cancel["legal_splits"]["max_measured"] == 0.0
    skipped = report["skipped"]
    assert skipped["lengths"] == "limit lengths need a rose map"
    assert skipped["convergence"] == "comparison constants need a rose map"
    assert set(skipped) == {"validation", "homothety", "growth", "equivalence", "lengths", "convergence"}
    assert "lamination" in report


def test_stage_table_agrees_with_library(family_maps, subdivided_fib):
    """On the 7 bundled maps, the 28 family maps and subdivided fibonacci:
    each ``STAGES`` key lands once, in the report or in ``skipped``, in table
    order, and a stage that needs the limit tree's domain runs exactly where
    ``TrainTrackData.require`` passes and, if it needs a rose, on a rose."""
    sources = [corpus.input_text(name) for name in sorted(corpus.REGISTRY)]
    sources += [fm.input_text() for fm in family_maps.values()] + [subdivided_fib]
    config = AnalysisConfig(max_word_len=1, leaf_depth=6, samples=10)
    automorphic = {key for key, (needs, _) in STAGES.items() if "rose" in needs or "swept" in needs}
    assert automorphic == {"validation", "homothety", "growth", "equivalence", "lengths", "convergence"}
    for text in sources:
        report = analyze(text, config=config)
        report.pop("meta")
        skipped = report.pop("skipped")
        assert list(report) == [key for key in STAGES if key not in skipped]
        assert list(skipped) == [key for key in STAGES if key not in report]
        parsed = parse_input(text)
        try:
            analyze_train_track(parsed.gmap).require("stage table")
            tree = True
        except PreconditionError:
            tree = False
        for key, (needs, _) in STAGES.items():
            if "tree" in needs or "swept" in needs:
                needs_rose = "rose" in needs or "swept" in needs
                assert (key in report) == (tree and (parsed.auto is not None or not needs_rose)), (key, text)


@pytest.mark.parametrize("name, expected", [("fibonacci", True), ("swap-fibonacci", True), ("fibonacci-conj-b", False)])
def test_lambda_is_stretch_factor_only_on_train_tracks(name, expected):
    """Off a train track lambda is only its rose map's Perron root."""
    report = analyze(corpus.get(name), config=AnalysisConfig(max_word_len=1, leaf_depth=6, samples=10))
    assert report["spectral"]["lambda_is_stretch_factor"] is expected


def test_analyze_rejects_unknown_source():
    from traintracks import InputError

    with pytest.raises(InputError):
        analyze(42)


# -------------------------------------------------------------- json utils


def test_round_floats_shapes():
    import numpy as np

    data = {
        "x": 0.12345678912345,
        "flag": True,
        "n": np.int64(7),
        "arr": [np.float64(1.0) / 3.0, (2.0 / 3.0,)],
        "inf": float("inf"),
        "s": "word",
    }
    out = round_floats(data)
    assert out["x"] == 0.123456789
    assert out["flag"] is True and isinstance(out["n"], int)
    assert out["arr"][0] == 0.333333333
    assert out["arr"][1] == [0.666666667]
    assert math.isinf(out["inf"])
    assert out["s"] == "word"


# SHA-256 of report_json(report) without "meta", at FAST.  Re-recorded when
# the convergence constants took their closed form and legal splits became
# splits of legal paths, and when each lengths entry gained "certificate"
# and "interval" (only those fields changed), and when the convergence
# cross-check began to read count vectors at its last stride instead of
# stopping on a Cauchy gap (only "uniform_max_rel_error" changed, on
# fibonacci, fibonacci-conj-a and swap-fibonacci), and when the PF data came
# from one eigensolve instead of power iteration (only spectral "residual"
# and "iterations", homothety "max_rel_defect", "uniform_max_rel_error" in
# its third digit, and cancellation "max_measured"/"mean_measured" at the
# 1e-16 level changed; "lambda", "nu", lengths and labels did not), and
# when the homothety section began to check the dilation on the sweep's
# limits (only "homothety", "skipped.homothety", the removed
# "spectral.primitive_first_return" and the new
# "spectral.lambda_is_stretch_factor" changed), and when each split's
# cancellation was read off the junction of its two tightened images instead
# of subtracting three image lengths (only cancellation "max_measured" and
# "mean_measured" changed, each from round-off of at most 1e-14 to exactly
# 0.0: swap-fibonacci here and 13 maps of GOLDEN_FAMILY_DIGESTS); the report
# must not drift.
GOLDEN_FAST_DIGESTS = {
    "fibonacci": "e643b4473b9ada6c64a7cdaba634d2f27e6376653007def06ca798362fb9d14c",
    "fibonacci-conj-a": "97bd814db30da24d87a8b730cc512f3874d95f2782d3644c2d4158c813ff9201",
    "fibonacci-conj-b": "d6d488cbac49b9c67a3ca314e00ca010ee5c424856a7682a8d184240727e50f3",
    "identity": "730b0851820705b5ebf57fc5a9381540947e25e56cfdde6ce406fbba1a89fffb",
    "swap": "4f7ae6852f9cd7a99a5ed4373eb5eb6eda60cb45528b8d4f70454e06d4f2ef84",
    "swap-fibonacci": "f6c43993088b79898e930342c6fd65d489fa072e6f61f343dac94233050a0adc",
    "unipotent": "ad7e27b8056b81101c4e9ab8725b197aa9aed98938b47dfc46c61d7e8640e188",
}


# SHA-256 of report_json(report) without "meta" for the 14 unconjugated
# family maps, read from their input text at their own sweep length
# (``FamilyMap.max_word_len``), as the benchmark's family workload reads them.
GOLDEN_FAMILY_DIGESTS = {
    "r2-m1": "458de367dc7ee41cb810f24a72e9661643007f52a6ad3eb5688417b7afdac764",
    "r2-m4": "ba01f045c75bf91a9e0defe26afc14b920250b1ed7d7d3f7b3cc609e6235f3d9",
    "r3-m1": "a093ced5483ef8ffd6f00125cbc2b6a8e6df2648b3665522b2b731456d140ef6",
    "r3-m4": "432c28e996b0010453bb26184b7e5450053ef4ed00428aa03c61087b027bfc49",
    "r4-m4": "6a7fc283a6c36b36ad896c4312f6cdc12ac98797df6492da6eec70588b9f664b",
    "r4-m8": "a3505d0edd85a178b96f21ce89274d819ca6460d80713127fef85dd0685591fd",
    "r6-m4": "2d7e88b7231f2a5de336ff9760afc78f14f3aa1e3246baac135dfdaba8ed10bf",
    "r6-m8": "75a6f1c8fee7aafb8c7f84446060ceb15486341af9ce5022072364afaadbfd42",
    "r10-m2": "f4214f298eb0480faea63af44298772b4031a62ae090bd52992d71245a021fdd",
    "r10-m4": "87cd1f1772fab8d9016d00a780e8e3d56698135a06ae8cc0d1a5336830a34edd",
    "r16-m1": "a71e3f1ee334588ce3495cfdd526e72388861032a84d1f72993f73516dfbcc7b",
    "r16-m4": "b85fb4e79b2e71a63cd20b6ddefaeda71afb23654c073b1e6683771b731cd520",
    "r26-m1": "2c2813a5ae2c7511553377dd6d0aa35aa284385ed4ae3b1f715ac66ba84971dc",
    "r26-m8": "559a7c66e930004e04d4e3f82b4bfd7a877fffb08d68b7e89e8063f8d173b766",
}


@pytest.mark.parametrize("name", list(GOLDEN_FAMILY_DIGESTS))
def test_family_reports_do_not_drift(family_maps, name):
    fm = family_maps[name]
    report = analyze(fm.input_text(), config=AnalysisConfig(max_word_len=fm.max_word_len))
    report.pop("meta")
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == GOLDEN_FAMILY_DIGESTS[name]


# The same for the 14 conjugated family maps, which are not train tracks, and
# for subdivided fibonacci at FAST, which is not a rose: reports that are
# mostly ``skipped``, so these digests pin the skip reasons too.
GOLDEN_CONJ_DIGESTS = {
    "r2-m2-conj": "b5aae5bd5830bf7d5e120750c30da6d3c8ca427e0bada2b1bf3e2ac193550d86",
    "r2-m8-conj": "2c89f94f12c9727f260cb09e0c262ec3481756483858887a585f477a3231705c",
    "r3-m2-conj": "3d5c50ac2330997ba07f5af8cc35dbc11867aea641d51825d02d4614a6d4cc23",
    "r3-m8-conj": "8042d433501ba82c20fc0002656099d68d7acd32204dbbcfb28a0f432687c979",
    "r4-m1-conj": "fd492838614987586aa7c4aa85942441996d81612e974d7c2718be4c4e0fef00",
    "r4-m2-conj": "32d8541870c0196a08ffacf3d9b0265450040762afef15bd4ac027aace48eda4",
    "r6-m1-conj": "83455b05c213c4b42bee3ee97e671467134764195c8a4c7d61d2deb6f1446892",
    "r6-m2-conj": "be2bbf5e506f96827855e0efc99bfac2628f7f8ba33305f271552caf75910a64",
    "r10-m1-conj": "0b9e09e933b1a1695dac2930b8651309dfe33f3faa887f049dd861e2fb940194",
    "r10-m8-conj": "a8113c74edaef4698270d9324b237fe670d4c9d933c1bf3083a82f79770cc1e9",
    "r16-m2-conj": "3594c4ea5c0a5108c829b22d3982299d67552e882e829e5e1a00e422790c0136",
    "r16-m8-conj": "e0707588b4c03b066e30fface36f069e423adadcb997e980dd967c63c2131fcf",
    "r26-m2-conj": "bcd88b4810a12748e2416cc56caed6e8765210b118f6e90208c5c2e95fa969f9",
    "r26-m4-conj": "eb25f1c05c07d40cc43c0aa94238c25287a4f4e11e55a967a388b2336c455687",
}
GOLDEN_SUBDIVIDED_DIGEST = "44bec8389f65e535c631fc52d8a62a632a3171b4c91f8d743a7a89491cad5368"


@pytest.mark.parametrize("name", list(GOLDEN_CONJ_DIGESTS))
def test_conjugated_family_reports_do_not_drift(family_maps, name):
    fm = family_maps[name]
    report = analyze(fm.input_text(), config=AnalysisConfig(max_word_len=fm.max_word_len))
    report.pop("meta")
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == GOLDEN_CONJ_DIGESTS[name]


def test_subdivided_report_does_not_drift(subdivided_fib):
    report = analyze(subdivided_fib, config=FAST)
    report.pop("meta")
    assert hashlib.sha256(report_json(report).encode()).hexdigest() == GOLDEN_SUBDIVIDED_DIGEST


# SHA-256 of report_json(lamination_section(build_leaf_corpus(tt, depth, budget)))
# for the bundled expanding train tracks at the leaf configurations the
# benchmark builds: analyze()'s defaults and the leaf queries'.
GOLDEN_LEAF_DIGESTS = {
    ("fibonacci", 12, 500_000): "de4302af1ba6b27e71187e7d09942e5dee7dd6b60b8d6e36c4999091de292166",
    ("fibonacci", 14, 1_000_000): "79a0c41d0c650dacd6459fbe98414ecde40888a304310f304bce7cdfc4bf2baa",
    ("fibonacci-conj-a", 12, 500_000): "2a3515d3d3d2b2dbe5bfae296031e6fdf734a4f52fae1e8f0650da1fbbcf8611",
    ("fibonacci-conj-a", 14, 1_000_000): "e8105979d63c7941d76ce388a779a0a00e3d7894888143eadbe8e96f0314109a",
    ("swap-fibonacci", 12, 500_000): "2fb824a5512a0becd096083e6257619c482c05719fab433d3265b566eff9501e",
    ("swap-fibonacci", 14, 1_000_000): "d7e98e6e65408a46cc8d4011ad170e2b31e3fabbb5e8c5cd59a201149803802f",
}


@pytest.mark.parametrize("name, depth, budget", list(GOLDEN_LEAF_DIGESTS))
def test_default_leaves_do_not_drift(all_tts, name, depth, budget):
    lam = lamination_section(build_leaf_corpus(all_tts[name], depth=depth, budget=budget))
    digest = hashlib.sha256(report_json(lam).encode()).hexdigest()
    assert digest == GOLDEN_LEAF_DIGESTS[(name, depth, budget)]


def test_report_json_serializes_all_examples():
    for name in sorted(corpus.REGISTRY):
        report = analyze(corpus.get(name), config=FAST)
        parsed = json.loads(report_json(report))
        assert parsed["input"]["rank"] == corpus.get(name).rank
        report.pop("meta")
        assert hashlib.sha256(report_json(report).encode()).hexdigest() == GOLDEN_FAST_DIGESTS[name], name


# --------------------------------------------------------------------- cli


def _json_tail(out: str):
    return json.loads(out[out.index("\n{") :])


def test_cli_verify_tt(capsys, fib_report):
    assert main(["verify-tt", "example:fibonacci", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "irreducible: yes" in out
    assert _json_tail(out) == {**fib_report["train_track"], **fib_report["transition"]}


@pytest.mark.parametrize("text, fragment", MALFORMED)
def test_cli_malformed_description_is_input_error(text, fragment, tmp_path, capsys):
    (tmp_path / "map.txt").write_text(text)
    assert main(["verify-tt", str(tmp_path / "map.txt")]) == 2
    assert fragment in capsys.readouterr().err


def test_cli_verify_tt_failure_is_exit_zero(capsys):
    assert main(["verify-tt", "example:fibonacci-conj-b"]) == 0
    out = capsys.readouterr().out
    assert "train track: NO (degenerate at iterate 2" in out


def test_cli_spectral_json(capsys):
    assert main(["spectral", "example:fibonacci", "--json", "-"]) == 0
    payload = _json_tail(capsys.readouterr().out)
    assert payload["lambda"] == pytest.approx(PHI, abs=1e-8)
    assert payload["k"] == 1
    assert payload["expanding"] is True and payload["simplicial"] is False


PERRON_ROOT = "(the Perron root of this map's transition matrix, an upper bound on the stretch factor)"


@pytest.mark.parametrize(
    "source, lam",
    [("example:fibonacci-conj-b", "3.30277564"), ("rank: 2\na -> aaB\nb -> aB\n", "2.61803399")],
    ids=["fibonacci-conj-b", "aaB-aB"],
)
def test_cli_lambda_line_off_train_tracks(source, lam, tmp_path, capsys):
    """Both maps represent Fibonacci's outer class, stretch factor phi, and
    neither is a train track: the lambda line says that the value printed
    is only its rose map's Perron root."""
    if not source.startswith("example:"):
        (tmp_path / "map.txt").write_text(source)
        source = str(tmp_path / "map.txt")
    assert main(["spectral", source]) == 0
    assert f"lambda = {lam} {PERRON_ROOT}  (k = 1, residual " in capsys.readouterr().out
    assert main(["analyze", source, "--sweep-len", "1"]) == 0
    assert f"lambda = {lam} {PERRON_ROOT}, k = 1, nu = [" in capsys.readouterr().out


def test_cli_lambda_line_on_train_track(capsys):
    assert main(["spectral", "example:fibonacci"]) == 0
    assert capsys.readouterr().out.startswith("lambda = 1.61803399  (k = 1, residual ")
    assert main(["analyze", "example:fibonacci", "--sweep-len", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "lambda = 1.61803399, k = 1, nu = [0.618033989, 0.381966011]" in lines
    assert "Perron root" not in "\n".join(lines)
    assert lines[lines.index("lambda = 1.61803399, k = 1, nu = [0.618033989, 0.381966011]") + 1].startswith(
        "homothety over 1 sweep pairs: max defect "  # the pair (b, a), as psi(b) = a
    )


def test_cli_growth(capsys):
    assert main(["growth", "example:unipotent", "--words", "b"]) == 0
    assert "b: Polynomial(1)" in capsys.readouterr().out


# unipotent's b and ab grow linearly; from under 4 lengths (M < 3) the
# classifier cannot rule out degree 1, so an exponential reading is flagged
@pytest.mark.parametrize(
    "max_m, out",
    [
        (1, "b: Exponential(2) (low confidence)\nab: Exponential(3) (low confidence)\n"),
        (2, "b: Exponential(1.73205081) (low confidence)\nab: Exponential(2) (low confidence)\n"),
        (3, "b: Polynomial(1)\nab: Polynomial(1)\n"),
    ],
)
def test_cli_growth_short_horizon(max_m, out, capsys):
    assert main(["growth", "example:unipotent", "--words", "b,ab", "--max-m", str(max_m)]) == 0
    assert capsys.readouterr().out == out


def test_cli_growth_on_twist_reads_its_certificates(capsys):
    """fibonacci-conj-b twisted by b is fibonacci, an expanding train track,
    so growth prints the twist's certified verdicts: text and JSON are those
    of fibonacci itself, aabAB (a Nielsen path) included."""
    args = ["--words", "a,b,ab,aB,aabAB", "--json", "-"]
    assert main(["growth", "example:fibonacci-conj-b", *args]) == 0
    on_twist = capsys.readouterr().out
    assert main(["growth", "example:fibonacci", *args]) == 0
    assert on_twist == capsys.readouterr().out
    assert on_twist.count("Exponential(1.61803399)\n") == 5 and "low confidence" not in on_twist


def test_growth_section_certified_on_slow_twist():
    """Family map r10-m1-conj is no train track; its twist is one with
    lambda ~ 1.1975, on which every letter is legal.  The raw-length
    classifier read i and I as Polynomial(2) there."""
    images = ["Hbh", "Hch", "Hdch", "Heh", "Hfh", "Hgh", "h", "Hih", "Hjh", "Hah"]
    source = "rank: 10\n" + "".join(f"{g} -> {w}\n" for g, w in zip(ALPHABET, images))
    growth = analyze(source, AnalysisConfig(max_word_len=1))["growth"]
    assert growth["classes"] == 20
    assert (growth["exponential"], growth["polynomial"]) == (20, 0)


def test_growth_section_without_train_track_twist():
    """Fibonacci conjugated by ba is not a train track, nor is any of its
    one-letter twists: the map comes back unchanged, and the growth section
    counts the classifier's verdicts on its own words."""
    auto = Automorphism(["baabAB", "baB"])
    tt = analyze_train_track(rose_map(auto))
    same, same_tt = train_track_twist(auto, tt)
    assert not tt.verdict.is_train_track and same is auto and same_tt is tt
    sweep = enumerate_cyclic_words(2, 1)
    n_exp = sum(
        classify_growth(auto, w, M=SWEEP_M, orbit=CyclicOrbit(auto, w, budget=SWEEP_BUDGET)).is_exponential
        for w in sweep
    )
    assert growth_section(auto, tt, sweep, None, AnalysisConfig(max_word_len=1)) == {
        "sweep_len": 1, "classes": len(sweep), "exponential": n_exp, "polynomial": len(sweep) - n_exp,
    }


def test_cli_lengths(capsys):
    assert main(["lengths", "example:fibonacci", "--words", "a", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "a: limit 0.618" in out
    assert "blocks (" not in out  # one block: the text shows no split
    assert _json_tail(out)["a"]["per_block"] == [pytest.approx(0.618034, abs=1e-6)]


def test_cli_lengths_answers_on_non_expanding_train_track(capsys):
    assert main(["lengths", "example:swap", "--words", "a", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "a: limit 0 at m=0 [Polynomial(0)]" in out
    assert "per_block" not in _json_tail(out)["a"]


def test_cli_lengths_per_block(capsys):
    assert main(["lengths", "example:swap-fibonacci", "--words", "a"]) == 0
    assert "blocks (" in capsys.readouterr().out


def test_cli_leaf(capsys):
    assert main(["leaf", "example:fibonacci", "--depth", "6"]) == 0
    out = capsys.readouterr().out
    assert "block 0: seed a (power 3, anchor 2)" in out
    assert "window(" in out


def test_cli_leaf_json_is_lamination_section(capsys, fib_report):
    assert main(["leaf", "example:fibonacci", "--depth", "8", "--budget", "100000", "--json", "-"]) == 0
    assert _json_tail(capsys.readouterr().out) == fib_report["lamination"]


def test_cli_defaults_are_analysis_config_defaults(monkeypatch):
    """analyze's flags default to AnalysisConfig(), and leaf's and
    cancellation's to its leaf and sampling fields."""
    seen = []

    class Stop(Exception):
        pass

    def record(text, config, words):
        seen.append(config)
        raise Stop

    monkeypatch.setattr("traintracks.cli.analyze", record)
    with pytest.raises(Stop):
        main(["analyze", "example:fibonacci"])
    assert seen == [AnalysisConfig()]
    defaults = AnalysisConfig()
    parser = cli._build_parser()
    leaf = parser.parse_args(["leaf", "example:fibonacci"])
    assert (leaf.depth, leaf.budget) == (defaults.leaf_depth, defaults.leaf_budget)
    cancel = parser.parse_args(["cancellation", "example:fibonacci"])
    assert (cancel.samples, cancel.seed) == (defaults.samples, defaults.seed)


def test_leaf_corpus_defaults_are_analysis_config_defaults(fib_tt):
    """A library caller taking build_leaf_corpus's defaults builds the leaf
    analyze() builds: 423,611 letters on fibonacci, not the 8,472,141 of the
    whole word budget."""
    defaults = AnalysisConfig()
    assert (defaults.leaf_depth, defaults.leaf_budget) == (laminations.LEAF_DEPTH, laminations.LEAF_BUDGET)
    leaves = build_leaf_corpus(fib_tt)
    assert leaves.depth == defaults.leaf_depth
    assert len(leaves.prefixes[0].word) == 423_611


def test_cli_leaf_segment_in_one_block_of_two(capsys):
    """A leaf of block i crosses only block-i edges, so on swap-fibonacci
    (blocks {a,b} and {c,d}) the segment ab is certified in block 0 and
    absent from block 1."""
    assert main(["leaf", "example:swap-fibonacci", "--depth", "6", "--segment", "ab", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "window('ab') = None [absent]" in out
    windows = _json_tail(out)["windows"]
    assert [w["status"] for w in windows] == ["certified", "absent"]
    assert windows[1] == {"segment": "ab", "window": None, "status": "absent"}


def test_cli_cancellation(capsys):
    assert main(["cancellation", "example:fibonacci", "--samples", "50"]) == 0
    out = capsys.readouterr().out
    assert "C <= Lip * vol" in out
    assert "bound holds" in out


def test_cli_cancellation_legal(capsys):
    assert main(["cancellation", "example:fibonacci"]) == 0
    out = capsys.readouterr().out
    assert "bound holds" in out
    measured = float(re.search(r"legal splits: max ([0-9.e+-]+)", out).group(1))
    assert measured <= 1e-12


def test_cli_cancellation_off_train_track_has_no_legal_line(capsys):
    assert main(["cancellation", "example:fibonacci-conj-b"]) == 0
    out = capsys.readouterr().out
    assert "random splits" in out and "legal" not in out


def test_cli_cancellation_json_is_cancellation_section(capsys, fib_report):
    assert main(["cancellation", "example:fibonacci", "--samples", "50", "--json", "-"]) == 0
    assert _json_tail(capsys.readouterr().out) == json.loads(report_json(fib_report["cancellation"]))


def test_cli_convergence(capsys):
    assert main(["convergence", "example:fibonacci", "--json", "-"]) == 0
    out = capsys.readouterr().out
    c0 = float(re.search(r"c_0 = ([0-9.e+-]+)", out).group(1))
    assert c0 == pytest.approx(PHI**3 / math.sqrt(5), abs=1e-6)
    payload = _json_tail(out)
    assert payload["alt_metric"] == "unit"
    # the closed form, at the nine significant digits of the JSON
    assert payload["constants"] == [pytest.approx(round_floats(PHI**3 / math.sqrt(5)), abs=1e-12)]
    assert set(payload) == {"alt_metric", "constants", "uniform_checked", "uniform_max_rel_error"}


def test_cli_convergence_uniform_check(capsys):
    assert main(["convergence", "example:swap-fibonacci", "--words", "a,ab"]) == 0
    out = capsys.readouterr().out
    assert "c_1 = " in out
    assert "uniform check on 2 loops" in out


def test_cli_lengths_tol_reaches_limit_length(capsys):
    # tol reaches only the interval stop: at 0.5 the illegal-turn interval
    # of aabAB is narrow enough one stride before its splitting certificate
    assert main(["lengths", "example:fibonacci", "--words", "aabAB", "--tol", "0.5", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "aabAB: limit 0.798373876 at m=5 [Exponential(1.61803399)] interval" in out
    entry = _json_tail(out)["aabAB"]
    assert entry["certificate"] == "interval" and entry["converged"]
    lower, upper = entry["interval"]
    assert 0 < lower < 1 / PHI < upper == entry["limit"] < lower + 0.5
    assert entry["per_block"] == [entry["limit"]]  # the split of the same run

    assert main(["lengths", "example:fibonacci", "--words", "aabAB", "--json", "-"]) == 0
    entry = _json_tail(capsys.readouterr().out)["aabAB"]
    assert entry["certificate"] == "splitting" and entry["m_stop"] == 6
    assert entry["limit"] == pytest.approx(1 / PHI, abs=1e-9)
    assert entry["interval"] == [entry["limit"], entry["limit"]]


def test_cli_growth_reads_certificates_on_slow_train_track(capsys, tmp_path):
    """On the rank-26 rotation with x -> yo (lambda ~ 1.042) the growth
    classifier's fixed threshold log1p(0.05) read a and c as Polynomial(?);
    on an expanding train track the verdict is the limit's certificate."""
    images = [ALPHABET[(i + 1) % 26] for i in range(26)]
    images[23] = "yo"
    source = tmp_path / "r26-m1.txt"
    source.write_text("rank: 26\n" + "".join(f"{g} -> {w}\n" for g, w in zip(ALPHABET, images)))
    assert main(["growth", str(source), "--words", "a,c", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert "a: Exponential(1.04239177)\nc: Exponential(1.04239177)\n" in out
    assert _json_tail(out)["c"]["kind"] == "exponential"
# Every subcommand but growth and analyze, which take minutes at their
# defaults, on every bundled example: an answer or a domain error (exit 2),
# never an internal consistency failure (exit 3).
@pytest.mark.parametrize("command", ["verify-tt", "spectral", "lengths", "leaf", "cancellation", "convergence"])
@pytest.mark.parametrize("name", sorted(corpus.REGISTRY))
def test_cli_subcommand_defaults_on_examples(command, name, capsys):
    assert main([command, f"example:{name}"]) in (0, 2)


# The exit code of each stage subcommand at its defaults on inputs at the
# edge of its domain; a refusal (exit 2) names the refusing stage, or off a
# rose is the reason its ``STAGES`` row records (see the next test).
_STAGE_WORDS = {
    "spectral": "eigendata",
    "growth": "growth",
    "lengths": "limit lengths",
    "leaf": "leaf",
    "convergence": "convergence constants",
}
_REFUSALS = {  # exit codes in the order of _STAGE_WORDS
    "example:identity": (2, 0, 2, 2, 2),
    "example:swap": (0, 0, 0, 2, 2),
    "example:unipotent": (2, 0, 2, 2, 2),
    "example:fibonacci-conj-b": (0, 0, 2, 2, 2),
    "subdivided-fibonacci": (0, 2, 2, 0, 2),
}
_ROSE_REFUSALS = {command: STAGES[command][0]["rose"] for command in ("growth", "lengths", "convergence")}


@pytest.mark.parametrize("source", sorted(_REFUSALS))
def test_cli_refusals_name_their_stage(source, subdivided_fib, tmp_path, capsys):
    path = source
    if source == "subdivided-fibonacci":
        path = str(tmp_path / "map.txt")
        (tmp_path / "map.txt").write_text(subdivided_fib)
    codes = []
    for command, stage in _STAGE_WORDS.items():
        codes.append(main([command, path]))
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if codes[-1] == 2 and err != f"error: {_ROSE_REFUSALS.get(command)}\n":
            assert err.startswith("error: ") and stage in err, (command, err)
    assert tuple(codes) == _REFUSALS[source]


def test_cli_rose_refusals_are_their_rows_reasons(subdivided_fib, tmp_path, capsys):
    """growth, lengths and convergence refuse a map off a rose with the
    reason that their row records, which ``analyze`` puts in ``skipped``."""
    path = tmp_path / "map.txt"
    path.write_text(subdivided_fib)
    skipped = analyze(subdivided_fib, config=FAST)["skipped"]
    expected = {
        "growth": "conjugacy sweeps need a rose map",
        "lengths": "limit lengths need a rose map",
        "convergence": "comparison constants need a rose map",
    }
    for command, reason in expected.items():
        assert STAGES[command][0]["rose"] == skipped[command] == reason
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {reason}\n"


@pytest.mark.parametrize("name", ["identity", "swap", "unipotent", "fibonacci-conj-b", "fibonacci"])
def test_cli_analyze_checks_words_up_front(name, capsys):
    """``--words`` is checked against the input's edges before any stage
    runs: it exited 0 on every map here but fibonacci, the one where lengths
    runs."""
    assert main(["analyze", f"example:{name}", "--sweep-len", "1", "--words", "abz"]) == 2
    assert capsys.readouterr().err == "error: letter 'z' at position 2 is not valid for rank 2\n"


def test_cli_analyze_words_in_rank_pass_where_lengths_skip(capsys):
    assert main(["analyze", "example:identity", "--sweep-len", "1", "--words", "ab"]) == 0
    assert "skipped lengths: limit lengths need an expanding irreducible train track" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["lengths", "growth", "convergence", "analyze"])
@pytest.mark.parametrize("words", [",", " ", ""])
def test_cli_words_naming_no_class_is_input_error(command, words, capsys):
    """An explicit ``--words`` with no class in it is malformed input, not
    an empty request that prints nothing and exits 0."""
    assert main([command, "example:fibonacci", "--words", words]) == 2
    assert capsys.readouterr().err == f"error: --words names no class: {words!r}\n"


def test_cli_analyze_json_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["analyze", "example:fibonacci", "--sweep-len", "3", "--depth", "8", "--json", str(target)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "train track: yes" in out
    assert "verdict agreement" in out
    payload = json.loads(target.read_text())
    assert payload["spectral"]["lambda"] == pytest.approx(PHI, abs=1e-8)
    assert payload["equivalence"]["discrepancies"] == 0


def test_cli_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("rank: 2\na -> ab\nb -> a\n"))
    assert main(["verify-tt", "-"]) == 0
    assert "train track: yes" in capsys.readouterr().out


def test_cli_file_input(tmp_path, capsys):
    src = tmp_path / "map.txt"
    src.write_text("rank: 2\na -> ab\nb -> a\n")
    assert main(["verify-tt", str(src)]) == 0
    assert "train track: yes" in capsys.readouterr().out


# ----------------------------------------------------------- cli exit codes


def test_cli_missing_file_is_io_error(capsys):
    assert main(["verify-tt", "/no/such/file.txt"]) == 1
    assert "error:" in capsys.readouterr().err


def test_cli_bad_syntax_is_input_error(tmp_path, capsys):
    src = tmp_path / "bad.txt"
    src.write_text("rank: 2\na -> ab\n")
    assert main(["verify-tt", str(src)]) == 2
    assert "missing images" in capsys.readouterr().err


def test_cli_unknown_example_is_input_error(capsys):
    assert main(["spectral", "example:nonsense"]) == 2
    assert "nonsense" in capsys.readouterr().err


def test_corpus_get_unknown_is_input_error():
    from traintracks import InputError

    with pytest.raises(InputError, match="nonsense"):
        corpus.get("nonsense")


def test_cli_internal_key_error_is_not_input_error(monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr("traintracks.cli.analyze_train_track", broken)
    with pytest.raises(KeyError):
        main(["verify-tt", "example:fibonacci"])


def test_cli_reducible_spectral_is_domain_error(capsys):
    assert main(["spectral", "example:unipotent"]) == 2
    err = capsys.readouterr().err
    assert "reducible" in err
    assert analyze(corpus.unipotent_rank2(), config=FAST)["skipped"]["spectral"] in err


def test_cli_leaf_on_non_expanding_is_domain_error(capsys):
    assert main(["leaf", "example:identity"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_cli_leaf_bad_segment_is_domain_error(capsys):
    assert main(["leaf", "example:fibonacci", "--depth", "6", "--segment", "bb"]) == 2
    assert "does not occur" in capsys.readouterr().err


def test_cli_leaf_segment_letters_are_edges(capsys):
    assert main(["leaf", "example:fibonacci", "--segment", "x"]) == 2
    assert "letter 'x' at position 0 is not valid for rank 2" in capsys.readouterr().err


@pytest.mark.parametrize("metric", ["x,1", "1,inf"])
def test_cli_convergence_bad_metric_is_input_error(metric, capsys):
    assert main(["convergence", "example:fibonacci", "--metric", metric]) == 2
    assert "edge lengths must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["lengths", "example:fibonacci", "--words", "ab", "--tol", "nan"],
        ["lengths", "example:fibonacci", "--tol", "0", "--words", "ab"],
        ["analyze", "example:fibonacci", "--tol", "0"],
        ["analyze", "example:fibonacci", "--tol", "nan"],
        ["analyze", "example:identity", "--tol", "0"],
    ],
)
def test_cli_tol_not_positive_is_input_error(argv, capsys):
    # NaN fails "tol > 0" too; analyze checks its config also on a map without limit lengths
    assert main(argv) == 2
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "cancellation"])
def test_cli_samples_below_one_is_input_error(command, capsys):
    # names the option rather than blaming the map for having no admissible splits
    assert main([command, "example:fibonacci", "--samples", "0"]) == 2
    assert "cancellation samples must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        pytest.param(["lengths", "example:fibonacci"], "M must be >= 0", id="lengths"),
        pytest.param(["growth", "example:fibonacci"], "M must be >= 0", id="growth"),
        # analyze checks its config up front, where the horizon must be at least 1
        pytest.param(["analyze", "example:fibonacci"], "M must be >= 1", id="analyze"),
        # off train tracks growth reads the classifier, whose horizon must be at least 1
        pytest.param(["growth", "example:unipotent", "--words", "b"], "M must be >= 1", id="growth-unipotent"),
    ],
)
def test_cli_negative_max_m_is_input_error(argv, fragment, capsys):
    assert main([*argv, "--max-m", "-3"]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["leaf", "--depth", "-1"], "leaf depth must be >= 0"),
        (["growth", "--sweep-len", "-1"], "sweep length must be >= 0"),
        (["lengths", "--sweep-len", "-1"], "sweep length must be >= 0"),
        (["leaf", "--budget", "0"], "leaf budget must be >= 1"),
    ],
)
def test_cli_negative_depth_or_sweep_len_is_input_error(argv, fragment, capsys):
    assert main([argv[0], "example:fibonacci", *argv[1:]]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["example:identity", "--depth", "-1"], "leaf depth must be >= 0"),
        (["example:identity", "--max-m", "-3"], "iterate horizon M must be >= 1"),
        (["example:swap", "--max-m", "0"], "iterate horizon M must be >= 1"),
    ],
    ids=["identity-depth", "identity-max-m", "swap-max-m-0"],
)
def test_cli_analyze_checks_config_up_front(argv, fragment, capsys):
    # these maps skip the stages that read --depth and --max-m
    assert main(["analyze", *argv]) == 2
    assert fragment in capsys.readouterr().err


def test_analysis_config_checks_leaf_budget_up_front():
    from traintracks import InputError

    with pytest.raises(InputError, match="leaf budget must be >= 1, got 0"):
        AnalysisConfig(leaf_budget=0)


def test_cli_lengths_horizon_below_one_stride_is_input_error(capsys):
    # at M = 0 no certificate can fire, which read both classes as Polynomial(0)
    assert main(["lengths", "example:fibonacci", "--words", "a,ab", "--max-m", "0"]) == 2
    assert "at least the stride k = 1" in capsys.readouterr().err
    assert main(["lengths", "example:fibonacci", "--words", "a,ab", "--max-m", "1"]) == 0
    assert capsys.readouterr().out.count("[Exponential(1.61803399)] legal") == 2
