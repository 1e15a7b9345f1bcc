"""Lamination leaves: seeds, nested prefixes, window certificates, probes.

The independent oracle for the Fibonacci map is the Fibonacci word built
from the plain recurrence s_{m+1} = s_m s_{m-1} (never through the library's
substitution code); every factor of a leaf must be a factor of it.  Window
constants are cross-checked by literally scanning all windows of a prefix.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from traintracks import (
    AnalysisConfig,
    Automorphism,
    BudgetExceededError,
    CyclicOrbit,
    InternalConsistencyError,
    LeafCorpus,
    LeafMatch,
    NotALeafSegmentError,
    PreconditionError,
    analyze,
    analyze_train_track,
    build_leaf_corpus,
    cyclic_reduce,
    expand_leaf,
    find_eigen_seed,
    invert_word,
    leaf_contains,
    longest_leaf_segment,
    path_length,
    quasiperiodicity_window,
    reduce_word,
    rose_map,
    weak_limit_probe,
)
from traintracks import laminations
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
    tt = analyze_train_track(rose_map(fib))
    monkeypatch.setattr(laminations, "DEFAULT_WORD_BUDGET", 4)

    def build(*args, **kwargs):
        raise AssertionError("a seed word was built")

    monkeypatch.setattr(tt.gmap, "substitute", build)
    monkeypatch.setattr(tt.gmap, "map_path", build)
    with pytest.raises(BudgetExceededError):
        find_eigen_seed(tt)


def test_seed_search_stops_once_every_image_is_over_budget(monkeypatch):
    """a -> b, b -> c, c -> ab seeds at ('b', 7), a 7-letter word, but from
    power 5 on every image has at least 3 letters: a budget of 2 stops the
    search there, before the hit."""
    auto = Automorphism(["b", "c", "ab"])
    seed = find_eigen_seed(analyze_train_track(rose_map(auto)))
    assert (seed.edge, seed.power, len(seed.occurrences)) == ("b", 7, 3)
    monkeypatch.setattr(laminations, "DEFAULT_WORD_BUDGET", 2)
    with pytest.raises(BudgetExceededError) as err:
        find_eigen_seed(analyze_train_track(rose_map(auto)))
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


def build_then_trim(tt, seed, depth, budget):
    """Leaf expansion as it was first written: each step builds the whole
    image under tau^power, composed map by map, and the next step trims it
    around the center when the word times the longest letter image is over
    the budget."""
    step = tt.gmap
    for _ in range(seed.power - 1):
        step = tt.gmap.compose(step)
    growth = max(map(len, step.edge_images))
    word, center, truncated = seed.edge, 0, False
    for _ in range(depth):
        if len(word) * growth > budget:
            half = max(1, budget // (2 * growth))
            lo, hi = max(0, center - half), min(len(word), center + half + 1)
            word, center, truncated = word[lo:hi], center - lo, True
        center = len(step.substitute(word[:center])) + seed.anchor
        word = step.substitute(word)
    return word, center, truncated


def _expanding_train_tracks(all_tts, family_maps):
    """The bundled expanding train tracks and the unconjugated family maps."""
    tts = {name: all_tts[name] for name in ("fibonacci", "fibonacci-conj-a", "swap-fibonacci")}
    for name, fm in family_maps.items():
        if not fm.conjugated:
            tts[name] = analyze_train_track(rose_map(Automorphism(fm.images)))
    return tts


@pytest.mark.parametrize(
    "depth, budget", [(12, 500_000), (14, 1_000_000), (3, 100), (6, 50), (0, 10), (1, 1)]
)
def test_expansion_matches_build_then_trim(all_tts, family_maps, depth, budget):
    """Building only the window the next step keeps gives the same prefix,
    center and truncation flag, (1, 1) included: there the one-letter seed
    is flagged truncated although the trim keeps it whole."""
    tts = _expanding_train_tracks(all_tts, family_maps)
    assert len(tts) == 17
    for name, tt in tts.items():
        for block in range(tt.pf.k):
            seed = find_eigen_seed(tt, block=block)
            p = expand_leaf(tt, seed, depth=depth, budget=budget)
            assert (p.word, p.center, p.truncated) == build_then_trim(tt, seed, depth, budget), (name, block)


@pytest.mark.parametrize("name", ["fibonacci", "swap-fibonacci", "r26-m1"])
def test_expansion_builds_little_past_its_prefix(all_tts, monkeypatch, name):
    """At analyze()'s leaf depth and budget, every letter substituted while
    expanding (tau^power's letter table included) counts, and the total
    stays within 3 times the prefix returned (2.0 times on these maps).
    Building each whole image and trimming it at the next step substituted
    4.4 times on fibonacci and swap-fibonacci and 6.3 times on r26-m1."""
    from traintracks._subst import SubstTable

    tt = all_tts.get(name) or analyze_train_track(rose_map(Automorphism(R26_M1)))
    seeds = [find_eigen_seed(tt, block=block) for block in range(tt.pf.k)]
    built = [0]
    build = SubstTable.__call__

    def counted(table, word):
        image = build(table, word)
        built[0] += len(image)
        return image

    monkeypatch.setattr(SubstTable, "__call__", counted)
    for seed in seeds:
        built[0] = 0
        prefix = expand_leaf(tt, seed, depth=12, budget=500_000)
        assert prefix.truncated
        assert built[0] <= 3 * len(prefix.word), (seed.block, built[0] / len(prefix.word))


def test_spelled_and_slices(fib_tt):
    p = expand_leaf(fib_tt, find_eigen_seed(fib_tt), depth=3)
    s = p.spelled(radius=4)
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
    assert set(rank4_corpus.prefixes[0].word) <= set("ab")
    assert set(rank4_corpus.prefixes[1].word) <= set("cd")


def test_map_permutes_blocks(rank4_tt, rank4_corpus):
    """Images of block-i leaf segments are block-(i + 1 mod k) leaf segments."""
    gmap = rank4_tt.gmap
    for block in range(2):
        word = rank4_corpus.prefixes[block].centered_slice(30)
        img = gmap.substitute(word)
        assert rank4_corpus.contains(img) == (block + 1) % rank4_corpus.k


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
    assert cert.status == "certified"
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
            assert (cert.status == "certified") == (cert.window < len(word))
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
    match = longest_leaf_segment("abaab", fib_corpus)
    assert match.edge_count == 5
    assert match.segment == "abaab"
    assert match.length == pytest.approx(PHI + 1.0, abs=1e-9)  # 3 nu_a + 2 nu_b
    assert match.block == 0


def test_longest_segment_mixed_word(fib_corpus, fib_tt):
    match = longest_leaf_segment("abAB", fib_corpus)
    assert match.length == pytest.approx(1.0, abs=1e-9)
    assert match.edge_count == 2


def test_longest_segment_inverted_orientation(fib_corpus, fib_tt):
    match = longest_leaf_segment("BB", fib_corpus)
    assert match.edge_count == 1
    assert match.segment == "b"
    assert match.length == pytest.approx(2.0 - PHI, abs=1e-9)  # nu_b


def test_longest_segment_wraps_cyclically(fib_corpus, fib_tt):
    match = longest_leaf_segment("ba", fib_corpus)
    assert match.edge_count == 2  # capped at the period
    assert match.length == pytest.approx(1.0, abs=1e-9)


def test_longest_segment_empty_word(fib_corpus, fib_tt):
    match = longest_leaf_segment("", fib_corpus)
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
    match = longest_leaf_segment(core, corpus)
    assert match.edge_count <= len(core)
    assert match.length == pytest.approx(path_length(match.segment, tt.metric), abs=1e-12)
    if match.edge_count:
        doubled = core + core
        inv = invert_word(doubled)
        assert match.segment in doubled or match.segment in inv


_SESSION_CORPUS = {}


def scan_every_end(word, corpus):
    """Reference matcher: matching statistics of each whole doubled
    orientation against each block, capped at the period and read at every
    end; numpy's argmax takes the first heaviest end."""
    best = LeafMatch(block=None, length=0.0, edge_count=0, segment="")
    if not word:
        return best
    period = len(word)
    for oriented in (word, invert_word(word)):
        doubled = oriented + oriented
        codes = np.frombuffer(doubled.encode("ascii"), dtype=np.uint8)
        pre = np.concatenate(([0.0], np.cumsum(corpus.tt.metric.table[codes])))
        for block in range(corpus.k):
            ms = np.minimum(corpus.automaton(block).matching_statistics(doubled), period)
            ends = np.arange(1, len(doubled) + 1)
            vals = pre[ends] - pre[ends - ms]
            i = int(np.argmax(vals))
            if vals[i] > best.length + 1e-15:
                l = int(ms[i])
                best = LeafMatch(block=block, length=float(vals[i]), edge_count=l, segment=doubled[i + 1 - l : i + 1])
    return best


def _bits(match):
    return (match.block, match.length.hex(), match.edge_count, match.segment)


# name -> (map, depth, budget); swap-fibonacci is the sweep's own corpus
_MATCHER_MAPS = {
    "fib": ("fibonacci", 10, 500_000),
    "rank4": ("swap-fibonacci", 10, 500_000),
    "swap-fibonacci": ("swap-fibonacci", 12, 500_000),
}
_MATCHER_CORPORA = {}


def _matcher_corpus(name):
    """One corpus per name for the whole session, so automata keep the runs
    that earlier examples matched."""
    if name not in _MATCHER_CORPORA:
        from traintracks import corpus as bundled

        example, depth, budget = _MATCHER_MAPS[name]
        tt = analyze_train_track(rose_map(bundled.get(example)))
        _MATCHER_CORPORA[name] = (tt, build_leaf_corpus(tt, depth=depth, budget=budget))
    return _MATCHER_CORPORA[name]


@st.composite
def _matcher_cases(draw):
    """A corpus and a cyclically reduced word: over all letters, over one
    block's letters (no live letter for the other blocks), or a factor of a
    leaf (live all the way round in one orientation)."""
    name = draw(st.sampled_from(sorted(_MATCHER_MAPS)))
    tt, corpus = _matcher_corpus(name)
    block = draw(st.integers(0, corpus.k - 1))
    kind = draw(st.sampled_from(["any", "block", "leaf"]))
    if kind == "leaf":
        leaf = corpus.prefixes[block].word
        n = draw(st.integers(1, 80))
        i = draw(st.integers(0, len(leaf) - n))
        word = leaf[i : i + n]
    else:
        letters = "".join(sorted(set(corpus.prefixes[block].word))) if kind == "block" else tt.gmap.graph.letters
        word = draw(st.text(alphabet=letters + letters.upper(), min_size=1, max_size=60))
    core, _ = cyclic_reduce(reduce_word(word))
    rotation = draw(st.integers(0, max(len(core) - 1, 0)))
    return tt, corpus, core, core[rotation:] + core[:rotation]


@settings(max_examples=300, deadline=None)
@given(_matcher_cases())
def test_leaf_matcher_matches_every_end_scan(case):
    _, corpus, word, rotated = case
    for w in (word, rotated, invert_word(word)):
        assert _bits(longest_leaf_segment(w, corpus)) == _bits(scan_every_end(w, corpus))


def test_leaf_matcher_cases_reached():
    """The three regimes the property test draws, on explicit words."""
    _, fib_leaves = _matcher_corpus("fib")
    _, leaves = _matcher_corpus("swap-fibonacci")
    # no live letter for block 1 in either orientation
    assert not leaves.automaton(1).live.search("abaBbABA")
    # live all the way round: the match is capped at the period
    assert fib_leaves.automaton(0).live.fullmatch("abab")
    assert longest_leaf_segment("ab", fib_leaves).edge_count == 2
    # a run matched in one word is reused, at another offset, in the next
    longest_leaf_segment("abaaBcdcd", leaves)
    cached = leaves.automaton(0).runs["abaa"]
    for corpus, word in ((leaves, "abaB"), (fib_leaves, "ab"), (leaves, "cDabaaBcdcd")):
        assert _bits(longest_leaf_segment(word, corpus)) == _bits(scan_every_end(word, corpus))
    assert leaves.automaton(0).runs["abaa"] is cached


# ------------------------------------------------------------ weak probe


def test_probe_verdicts(fib, fib_tt, fib_corpus):
    """ab certifies at m = 4, the first stride word with a leaf match of
    length >= 2R = 2 phi^2: the whole word, of length phi^4 = 2 phi^2 + phi.
    abAB, the commutator, is fixed up to rotation by m = 2."""
    assert fib_tt.critical_length == pytest.approx(2 * PHI**2)
    grows = weak_limit_probe(fib, "ab", fib_corpus)
    assert (grows.verdict, grows.stop, grows.m) == (True, "certified", 4)
    assert grows.match == pytest.approx(PHI**4) and grows.match >= fib_tt.critical_length
    flat = weak_limit_probe(fib, "abAB", fib_corpus)
    assert (flat.verdict, flat.stop, flat.m, flat.match) == (False, "periodic", 2, 0.0)


def test_probe_rank4(rank4, rank4_tt, rank4_corpus):
    """Stride k = 2: the walk reads m = 0, 2, 4, ... and certifies a at
    m = 16, the first stride word as long as 2R, with the match read there."""
    rep = weak_limit_probe(rank4, "a", rank4_corpus)
    assert (rep.verdict, rep.stop, rep.m) == (True, "certified", 16)
    orbit = CyclicOrbit(rank4, "a")
    assert rep.match == longest_leaf_segment(orbit.word_at(16), rank4_corpus).length >= rank4_tt.critical_length
    assert path_length(orbit.word_at(14), rank4_tt.metric) < rank4_tt.critical_length
    rep = weak_limit_probe(rank4, "abAB", rank4_corpus)
    assert (rep.verdict, rep.stop, rep.m) == (False, "periodic", 4)


@pytest.mark.parametrize(
    "name, word, matched",
    [("fib", "ab", (4,)), ("fib", "aaBAB", (4, 5, 6)), ("rank4", "a", (16,)), ("rank4", "abAB", ())],
)
def test_probe_matches_only_long_stride_words(request, monkeypatch, name, word, matched):
    """The walk matches the stride words whose eigenmetric length reaches
    2R, up to the first that certifies, each with one direct call of the
    matcher; a periodic class shorter than 2R matches none."""
    auto, tt, leaves = (request.getfixturevalue(f"{name}{x}") for x in ("", "_tt", "_corpus"))
    seen = []
    monkeypatch.setattr(laminations, "longest_leaf_segment", lambda w, c: seen.append(w) or longest_leaf_segment(w, c))
    probe = weak_limit_probe(auto, word, leaves)
    orbit = CyclicOrbit(auto, word)
    assert seen == [orbit.word_at(m) for m in matched]
    assert all(path_length(w, tt.metric) >= tt.critical_length for w in seen)
    assert probe.verdict == bool(matched)


@pytest.mark.parametrize("name, word", [("fib", "abaab"), ("fib", "aabAB"), ("rank4", "cdc"), ("rank4", "abAB")])
def test_probe_values_are_class_invariant(request, name, word):
    """Every rotation of a class and its inverse stop at the same m for the
    same reason.  The match is the same up to rounding: matching a rotation
    of the doubled word sums the weights in another order."""
    auto, tt, leaves = (request.getfixturevalue(f"{name}{x}") for x in ("", "_tt", "_corpus"))
    probes = [weak_limit_probe(auto, w, leaves) for w in [word[i:] + word[:i] for i in range(len(word))]]
    probes.append(weak_limit_probe(auto, invert_word(word), leaves))
    assert len({(p.verdict, p.stop, p.m) for p in probes}) == 1
    assert max(p.match for p in probes) == pytest.approx(min(p.match for p in probes), rel=1e-12)


def test_probe_stops_at_matcher_cap():
    """Under a -> bcaca, b -> ca, c -> a the orbit of b passes MATCH_CAP
    letters at m = 10.  With 2R the eigenmetric length of the whole word at
    m = 9 (16,094 letters), only that word can certify, and only on the
    MATCH_CAP slice: the walk ends at the cap, widens the corpus once and
    certifies m = 9 on its second look.  With 2R just above it, the walk
    ends uncertified at m = 10."""
    auto = Automorphism(["bcaca", "ca", "a"])
    tt = analyze_train_track(rose_map(auto))
    assert weak_limit_probe(auto, "b", build_leaf_corpus(tt, depth=12, budget=100_000)).m == 3
    whole = path_length(CyclicOrbit(auto, "b").word_at(9), tt.metric)
    for critical, expected in ((whole, (True, "certified", 9)), (whole * (1 + 1e-9), (False, "uncertified", 10))):
        tt.critical_length = critical
        leaves = build_leaf_corpus(tt, depth=12, budget=100_000)
        for word in ("b", "B"):
            orbit = CyclicOrbit(auto, word, budget=200_000)
            probe = weak_limit_probe(auto, word, leaves, orbit=orbit)
            assert (probe.verdict, probe.stop, probe.m) == expected
            assert leaves.slice == laminations.MATCH_CAP
        assert len(orbit.word_at(9)) > laminations.LEAF_SLICE and len(orbit.word_at(10)) > laminations.MATCH_CAP
