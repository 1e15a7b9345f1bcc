"""Lamination leaves: seeds, nested prefixes, window certificates, probes.

The independent oracle for the Fibonacci map is the Fibonacci word built
from the plain recurrence s_{m+1} = s_m s_{m-1} (never through the library's
substitution code); every factor of a leaf must be a factor of it.  Window
constants are cross-checked by literally scanning all windows of a prefix.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    AnalysisConfig,
    Automorphism,
    BudgetExceededError,
    CyclicOrbit,
    InternalConsistencyError,
    LeafCorpus,
    NotALeafSegmentError,
    PreconditionError,
    analyze,
    analyze_train_track,
    build_leaf_corpus,
    expand_leaf,
    find_eigen_seed,
    invert_word,
    leaf_contains,
    longest_leaf_segment,
    path_length,
    quasiperiodicity_window,
    rose_map,
    weak_limit_probe,
)
from traintracks.laminations import _SuffixAutomaton
from traintracks.words import ALPHABET, letter_index

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def fibonacci_word(min_len):
    """Fixed point of a -> ab, b -> a, by pure string recurrence."""
    prev, cur = "a", "ab"
    while len(cur) < min_len:
        prev, cur = cur, cur + prev
    return cur


# ---------------------------------------------------------------- seeds


def test_fibonacci_seed_frozen(fib_tt):
    seed = find_eigen_seed(fib_tt)
    assert seed.edge == "a"
    assert seed.power == 3
    assert seed.anchor == 2
    assert seed.block == 0
    assert seed.occurrences == (0, 2, 3)
    # the anchored occurrence really is the seed edge
    word = fib_tt.gmap.iterate_path("a", 3)
    assert word == "abaab"
    assert all(word[p] == "a" for p in seed.occurrences)


def test_rank4_seeds_frozen(rank4_tt):
    seed0 = find_eigen_seed(rank4_tt, block=0)
    assert (seed0.edge, seed0.power, seed0.anchor) == ("a", 6, 2)
    assert seed0.occurrences == (0, 2, 3)
    seed1 = find_eigen_seed(rank4_tt, block=1)
    assert (seed1.edge, seed1.power, seed1.anchor) == ("c", 6, 2)
    assert rank4_tt.gmap.iterate_path("c", 6) == "cdccd"


def test_seed_preconditions(conj_b_tt, unipotent_tt, swap_tt):
    with pytest.raises(PreconditionError):
        find_eigen_seed(conj_b_tt)  # not a train track
    with pytest.raises(PreconditionError):
        find_eigen_seed(unipotent_tt)  # reducible
    with pytest.raises(PreconditionError):
        find_eigen_seed(swap_tt)  # nothing recurs three times


def word_loop_seed(tt, block=None, power_cap=64, length_budget=10**6):
    """Reference seed search: build tau^p of every edge of the block for
    p = k, 2k, ... and take the first edge crossing its own image forward
    at least three times."""
    k = tt.pf.k
    letters = [e for blk in tt.pf.blocks for e in blk] if block is None else list(tt.pf.blocks[block])
    images = {e: e for e in letters}
    power = 0
    while power + k <= power_cap:
        for _ in range(k):
            images = {e: tt.gmap.map_path(w) for e, w in images.items()}
        power += k
        if max(len(w) for w in images.values()) > length_budget:
            break
        for e in letters:
            occs = tuple(i for i, ch in enumerate(images[e]) if ch == e)
            if len(occs) >= 3:
                return (e, power, occs[len(occs) // 2], occs)
    raise PreconditionError(f"no edge recurs three times under powers up to {power_cap}")


def _positive_map(rank, moves):
    """The rotation a -> b -> ... -> a followed by positive Nielsen moves
    x_i -> x_i x_j: a positive, irreducible, expanding train track."""
    images = [ALPHABET[(i + 1) % rank] for i in range(rank)]
    for i, j in moves:
        images[i] += images[j]
    return Automorphism(images)


def _invert_generator(auto, g):
    """The map relabelled by the inversion g -> G, a flip of one rose edge:
    still a train track, now with inverse letters in its images."""
    flip = str.maketrans(g + g.upper(), g.upper() + g)
    images = [w.translate(flip) for w in auto.images]
    images[letter_index(g)] = invert_word(images[letter_index(g)])
    return Automorphism(images)


def test_generator_inversion_relabels_fibonacci(fib):
    assert _invert_generator(fib, "b").images == ("aB", "A")


@st.composite
def relabelled_positive_maps(draw):
    rank = draw(st.integers(2, 6))
    pairs = st.tuples(st.integers(0, rank - 1), st.integers(0, rank - 1)).filter(lambda p: p[0] != p[1])
    auto = _positive_map(rank, draw(st.lists(pairs, min_size=1, max_size=6)))
    return auto, _invert_generator(auto, ALPHABET[draw(st.integers(0, rank - 1))])


@settings(max_examples=40, deadline=None)
@given(relabelled_positive_maps())
def test_matrix_seed_matches_word_loop(maps):
    """The seed read off oriented matrix powers is the word loop's seed,
    also when inverse letters make the orientation of a crossing matter."""
    for auto in maps:
        tt = analyze_train_track(rose_map(auto))
        assert tt.verdict.is_train_track and tt.expanding
        for block in range(tt.pf.k):
            seed = find_eigen_seed(tt, block=block)
            got = (seed.edge, seed.power, seed.anchor, seed.occurrences)
            assert got == word_loop_seed(tt, block=block)


R16_M1 = [ALPHABET[(i + 1) % 16] for i in range(16)]
R16_M1[8] = "jc"  # the rank-16 rotation with i -> jc (lambda ~ 1.066)


def test_slow_rank16_seed_needs_no_power_cap():
    """The word loop stopped at power 24 and raised here; the seed is at 30."""
    auto = Automorphism(R16_M1)
    seed = find_eigen_seed(analyze_train_track(rose_map(auto)))
    assert (seed.edge, seed.power) == ("c", 30)
    report = analyze(auto, config=AnalysisConfig(max_word_len=1))
    assert report["equivalence"]["discrepancies"] == 0
    assert report["lamination"]["seeds"] == [{"edge": "c", "power": 30, "anchor": seed.anchor}]


def test_seed_budget_is_checked_before_building(fib, monkeypatch):
    """|tau^3(a)| = 5 exceeds a budget of 4: no word may be built."""
    tt = analyze_train_track(rose_map(fib, budget=4))

    def build(*args, **kwargs):
        raise AssertionError("a seed word was built")

    monkeypatch.setattr(tt.gmap, "substitute", build)
    monkeypatch.setattr(tt.gmap, "map_path", build)
    with pytest.raises(BudgetExceededError):
        find_eigen_seed(tt)


def test_seed_search_stops_once_every_image_is_over_budget():
    """a -> b, b -> c, c -> ab seeds at ('b', 7), a 7-letter word, but from
    power 5 on every image has at least 3 letters: a budget of 2 stops the
    search there, before the hit."""
    auto = Automorphism(["b", "c", "ab"])
    seed = find_eigen_seed(analyze_train_track(rose_map(auto)))
    assert (seed.edge, seed.power, len(seed.occurrences)) == ("b", 7, 3)
    with pytest.raises(BudgetExceededError) as err:
        find_eigen_seed(analyze_train_track(rose_map(auto, budget=2)))
    assert err.value.m_reached == 5


R26_M1 = [ALPHABET[(i + 1) % 26] for i in range(26)]
R26_M1[23] = "yo"  # the rank-26 rotation with x -> yo (lambda ~ 1.042, k = 2)


def test_slow_rank26_sweep_agrees():
    """Exponential classes here grow like 1.042^m: at the sweep's fixed
    horizon of 24 and threshold log1p(0.05), all 52 classes read as
    polynomial while their limits are positive."""
    auto = Automorphism(R26_M1)
    report = analyze(auto, config=AnalysisConfig(max_word_len=1))
    assert report["lamination"]["seeds"][0]["power"] == 46
    assert report["equivalence"] == {"checked": 52, "discrepancies": 0, "details": []}
    assert report["growth"]["exponential"] == 52


# ------------------------------------------------------------- expansion


def test_prefixes_nest(fib_tt):
    seed = find_eigen_seed(fib_tt)
    prefixes = [expand_leaf(fib_tt, seed, depth=d) for d in range(1, 6)]
    for small, big in zip(prefixes, prefixes[1:]):
        lo = big.center - small.center
        assert lo >= 0
        assert big.word[lo : lo + len(small.word)] == small.word


def test_fibonacci_prefix_lengths(fib_tt):
    seed = find_eigen_seed(fib_tt)
    # the depth-d prefix is tau^{3d}(a), of length F_{3d+2}
    fibs = [1, 1]
    while len(fibs) < 30:
        fibs.append(fibs[-1] + fibs[-2])
    for d in (2, 4, 8):
        p = expand_leaf(fib_tt, seed, depth=d)
        assert len(p.word) == fibs[3 * d + 2 - 1]
        assert not p.truncated
        assert p.word[p.center] == "a"


def test_depth8_prefix_is_frozen_length(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=8)
    assert len(p.word) == 121393


def test_prefix_factors_of_fibonacci_word(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=6)
    big = fibonacci_word(200_000)
    c = p.center
    for lo in (0, c - 1000, c, len(p.word) - 50):
        lo = max(0, min(lo, len(p.word) - 50))
        assert p.word[lo : lo + 50] in big


def test_prefix_avoids_forbidden_factors(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=8)
    assert "bb" not in p.word
    assert "aaa" not in p.word


def test_expansion_trims_at_budget(fib_tt):
    seed = find_eigen_seed(fib_tt)
    p = expand_leaf(fib_tt, seed, depth=10, budget=2000)
    assert p.truncated
    assert len(p.word) <= 2010
    assert p.word[p.center] == "a"
    # a trimmed prefix is still a leaf segment
    assert p.word in expand_leaf(fib_tt, seed, depth=10, budget=10**7).word


def test_spelled_and_slices(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=3)
    s = p.spelled(radius=4, marker="|")
    left, mid, right = s.split("|")
    assert mid == p.word[p.center]
    assert left == p.word[p.center - 4 : p.center]
    assert right == p.word[p.center + 1 : p.center + 5]
    assert len(p.centered_slice(9)) == 9


def test_leaf_contains(fib_corpus):
    p = fib_corpus.prefixes[0]
    assert leaf_contains(p, "ab")
    assert leaf_contains(p, "BA")  # inverted orientation
    assert not leaf_contains(p, "bb")
    assert leaf_contains(p, "")


# ------------------------------------------------------------ leaf corpus


def test_corpus_shapes(fib_corpus, rank4_corpus):
    assert fib_corpus.k == 1
    assert rank4_corpus.k == 2
    assert rank4_corpus.sigma(0) == 1 and rank4_corpus.sigma(1) == 0
    assert set(rank4_corpus.prefixes[0].word) <= set("ab")
    assert set(rank4_corpus.prefixes[1].word) <= set("cd")


def test_map_permutes_blocks(rank4_tt, rank4_corpus):
    """Images of block-i leaf segments are block-sigma(i) leaf segments."""
    gmap = rank4_tt.gmap
    for block in range(2):
        word = rank4_corpus.prefixes[block].centered_slice(30)
        img = gmap.substitute(word)
        assert rank4_corpus.contains(img) == rank4_corpus.sigma(block)


def test_edge_images_are_leaf_segments(fib_tt, fib_corpus):
    for e in "ab":
        for m in range(1, 5):
            assert fib_corpus.contains(fib_tt.gmap.iterate_path(e, m)) == 0
    assert fib_corpus.contains("bb") is None


# ------------------------------------------------------ window certificates


def brute_window(word, segment):
    """Least L such that every length-L window of word meets the segment."""
    inv = invert_word(segment)
    for L in range(len(segment), len(word) + 1):
        if all(
            segment in word[i : i + L] or inv in word[i : i + L]
            for i in range(len(word) - L + 1)
        ):
            return L
    return len(word)


@pytest.mark.parametrize("segment", ["a", "b", "ab", "ba", "aba", "abaab", "baab"])
def test_window_matches_brute_scan(fib_tt, segment):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=5)
    cert = quasiperiodicity_window(p, segment)
    assert cert.window == brute_window(p.word, segment)
    assert cert.certified
    assert cert.occurrences > 0
    assert cert.prefix_length == len(p.word)


def test_window_frozen_values(fib_corpus):
    p = fib_corpus.prefixes[0]
    assert quasiperiodicity_window(p, "a").window == 2
    assert quasiperiodicity_window(p, "b").window == 3
    assert quasiperiodicity_window(p, "aba").window == 5


def test_window_stable_across_depths(fib_tt):
    """The constant is a property of the leaf, not of the prefix length."""
    seed = find_eigen_seed(fib_tt)
    shallow = expand_leaf(fib_tt, seed, depth=5)
    deep = expand_leaf(fib_tt, seed, depth=9)
    for seg in ("a", "ab", "aba", "abaab"):
        assert (
            quasiperiodicity_window(shallow, seg).window
            == quasiperiodicity_window(deep, seg).window
        )


def test_window_rejects_non_segments(fib_corpus):
    p = fib_corpus.prefixes[0]
    with pytest.raises(NotALeafSegmentError):
        quasiperiodicity_window(p, "bb")
    with pytest.raises(NotALeafSegmentError):
        quasiperiodicity_window(p, "abb")
    with pytest.raises(NotALeafSegmentError):
        quasiperiodicity_window(p, "")
    with pytest.raises(NotALeafSegmentError):
        quasiperiodicity_window(p, "a\u00e9")  # not ASCII, so no leaf edge


def test_window_degenerate_on_whole_prefix(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=1)
    cert = quasiperiodicity_window(p, p.word)
    assert cert.status == "degenerate"
    assert not cert.certified
    assert cert.window == len(p.word)


def _block_swap(auto):
    """The rank-2r map x_i -> (image of x_i on the second r letters), y_i -> x_i:
    the map's square acts on each half, so its cyclic index is at least 2."""
    r = auto.rank
    shift = str.maketrans(ALPHABET[:r], ALPHABET[r : 2 * r])
    return Automorphism([w.translate(shift) for w in auto.images] + list(ALPHABET[:r]))


def _starts(word, segment):
    """Start positions of the segment in the word, overlaps included."""
    found, i = set(), word.find(segment)
    while i != -1:
        found.add(i)
        i = word.find(segment, i + 1)
    return found


# Products of signed Nielsen moves that are expanding train tracks whose
# leaves cross edges in both orientations, so a segment and its inverse
# both occur.
MIXED_ORIENTATION = (("aC", "bcA", "cB"), ("Ca", "bCa", "bc"))


@settings(max_examples=40, deadline=None)
@given(relabelled_positive_maps(), st.sampled_from(MIXED_ORIENTATION), st.integers(1, 3), st.data())
def test_window_matches_brute_scan_on_generated_maps(maps, mixed, depth, data):
    """On shallow leaf prefixes of generated train tracks, k > 1 included,
    the closed-form window is the brute scan's, and each start of the
    segment in either orientation counts once."""
    mixed = Automorphism(list(mixed))
    for auto in maps + (_block_swap(maps[0]), mixed, _block_swap(mixed)):
        tt = analyze_train_track(rose_map(auto))
        assert tt.verdict.is_train_track and tt.expanding
        for block in range(tt.pf.k):
            prefix = expand_leaf(tt, find_eigen_seed(tt, block=block), depth=depth, budget=300)
            word = prefix.word
            i = data.draw(st.integers(0, len(word) - 1))
            segment = word[i : i + data.draw(st.integers(1, 6))]
            if data.draw(st.booleans()):
                segment = invert_word(segment)
            fwd, bwd = _starts(word, segment), _starts(word, invert_word(segment))
            assert not fwd & bwd  # a reduced segment is not its own inverse
            cert = quasiperiodicity_window(prefix, segment)
            assert cert.window == brute_window(word, segment)
            assert cert.certified == (cert.window < len(word))
            assert cert.occurrences == len(fwd | bwd)


def test_self_inverse_segment_counts_once(fib_corpus):
    """aA is its own inverse and no leaf segment; in a word that holds it,
    each start counts once, not once per orientation."""
    with pytest.raises(NotALeafSegmentError):
        quasiperiodicity_window(fib_corpus.prefixes[0], "aA")
    holder = dataclasses.replace(fib_corpus.prefixes[0], word="baAbaAb", center=0)
    cert = quasiperiodicity_window(holder, "aA")
    assert cert.occurrences == 2
    assert cert.window == brute_window(holder.word, "aA") == 4


# -------------------------------------------------- matching statistics


@settings(max_examples=80, deadline=None)
@given(
    st.text(alphabet="ab", min_size=1, max_size=40),
    st.text(alphabet="ab", max_size=25),
)
def test_matching_statistics_oracle(text, query):
    ms = _SuffixAutomaton(text).matching_statistics(query)
    for i in range(len(query)):
        best = 0
        for l in range(1, i + 2):
            if query[i + 1 - l : i + 1] in text:
                best = l
            else:
                break  # a longer suffix contains this one, so it cannot occur
        assert ms[i] == best


# ---------------------------------------------------- heaviest segments


def test_longest_segment_frozen(fib_corpus, fib_tt):
    metric = fib_tt.metric
    match = longest_leaf_segment("abaab", fib_corpus, metric)
    assert match.edge_count == 5
    assert match.segment == "abaab"
    assert match.length == pytest.approx(PHI + 1.0, abs=1e-9)  # 3 nu_a + 2 nu_b
    assert match.block == 0


def test_longest_segment_mixed_word(fib_corpus, fib_tt):
    match = longest_leaf_segment("abAB", fib_corpus, fib_tt.metric)
    assert match.length == pytest.approx(1.0, abs=1e-9)
    assert match.edge_count == 2


def test_longest_segment_inverted_orientation(fib_corpus, fib_tt):
    match = longest_leaf_segment("BB", fib_corpus, fib_tt.metric)
    assert match.edge_count == 1
    assert match.segment == "b"
    assert match.length == pytest.approx(2.0 - PHI, abs=1e-9)  # nu_b


def test_longest_segment_wraps_cyclically(fib_corpus, fib_tt):
    match = longest_leaf_segment("ba", fib_corpus, fib_tt.metric)
    assert match.edge_count == 2  # capped at the period
    assert match.length == pytest.approx(1.0, abs=1e-9)


def test_longest_segment_empty_word(fib_corpus, fib_tt):
    match = longest_leaf_segment("", fib_corpus, fib_tt.metric)
    assert match.block is None and match.edge_count == 0


@given(st.text(alphabet="abAB", min_size=1, max_size=12))
def test_longest_segment_properties(w):
    import traintracks as T

    fib = T.corpus.fibonacci()
    tt = T.analyze_train_track(T.rose_map(fib))
    corpus = _SESSION_CORPUS.setdefault("fib", T.build_leaf_corpus(tt, depth=8, budget=100_000))
    from traintracks import reduce_word

    core = reduce_word(w, 2)
    if not core:
        return
    match = longest_leaf_segment(core, corpus, tt.metric)
    assert match.edge_count <= len(core)
    assert match.length == pytest.approx(path_length(match.segment, tt.metric), abs=1e-12)
    if match.edge_count:
        doubled = core + core
        inv = invert_word(doubled)
        assert match.segment in doubled or match.segment in inv


_SESSION_CORPUS = {}


# ------------------------------------------------------------ weak probe


def test_probe_verdicts(fib, fib_tt, fib_corpus):
    grows = weak_limit_probe(fib, "ab", fib_corpus, M=12)
    assert grows.verdict
    assert grows.k == 1
    assert len(grows.values) == 13
    flat = weak_limit_probe(fib, "abAB", fib_corpus, M=12)
    assert not flat.verdict


def test_probe_rank4(rank4, rank4_tt, rank4_corpus):
    rep = weak_limit_probe(rank4, "a", rank4_corpus, M=16)
    assert rep.verdict
    assert rep.strided == rep.values[::2]
    rep = weak_limit_probe(rank4, "abAB", rank4_corpus, M=16)
    assert not rep.verdict


@pytest.mark.parametrize("name, word", [("fib", "abaab"), ("fib", "aabAB"), ("rank4", "cdc"), ("rank4", "abAB")])
def test_probe_values_are_class_invariant(request, name, word):
    """Every rotation of a class and its inverse read bit-equal match
    lengths, each from a fresh cache: matching a rotation of the doubled
    word on its own sums the weights in another order."""
    auto, tt, leaves = (request.getfixturevalue(f"{name}{x}") for x in ("", "_tt", "_corpus"))
    values = set()
    for w in [word[i:] + word[:i] for i in range(len(word))] + [invert_word(word)]:
        fresh = LeafCorpus(tt=tt, prefixes=leaves.prefixes, depth=leaves.depth)
        values.add(tuple(weak_limit_probe(auto, w, fresh, M=12).values))
    assert len(values) == 1


def test_probe_stops_at_matcher_cap():
    """The matcher searches a 30_000-letter slice of each leaf, so a longer
    orbit word would stall the series.  Under a -> bcaca, b -> ca, c -> a the
    orbit of b passes that length at m = 10; the probe ends there and sees
    the growth."""
    auto = Automorphism(["bcaca", "ca", "a"])
    tt = analyze_train_track(rose_map(auto))
    leaves = build_leaf_corpus(tt, depth=12, budget=500_000)
    for word in ("b", "B"):
        orbit = CyclicOrbit(auto, word, budget=200_000)
        probe = weak_limit_probe(auto, word, leaves, M=12, orbit=orbit)
        assert probe.verdict, probe.strided
        assert len(probe.values) == 10
        assert len(orbit.word_at(10)) > 30_000
