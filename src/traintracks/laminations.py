"""Attracting-lamination leaves: nested prefixes and segment queries.

A leaf is grown from an edge e that reappears inside its own image under a
suitable power of the map: re-substituting around the recurrent occurrence
produces an increasing sequence of nested subpaths whose union is a leaf of
the attracting lamination.  Prefixes are stored as plain words together
with the index of the anchoring occurrence of the seed edge, so nesting can
be checked literally.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import accumulate, count

import numpy as np

from .errors import BudgetExceededError, InputError, InternalConsistencyError, NotALeafSegmentError
from .graphs import path_length
from .spectral import TrainTrackData
from .words import DEFAULT_WORD_BUDGET, invert_word, letter_counts, signed_substitution

# Letters around each leaf prefix's center that leaf matching searches: LEAF_SLICE
# until a probe ends uncertified, then MATCH_CAP, which also caps probed words.
LEAF_SLICE = 3_000
MATCH_CAP = 30_000
# How often a leaf prefix is re-substituted, and its letter budget, unless
# the caller says otherwise (``AnalysisConfig`` reads its defaults here).
LEAF_DEPTH = 12
LEAF_BUDGET = 500_000


@dataclass(frozen=True)
class LeafSeed:
    """A self-recurring edge: tau^power(edge) crosses edge >= 3 times forward."""

    edge: str
    power: int
    anchor: int
    block: int
    occurrences: tuple


@dataclass
class LeafPrefix:
    """A nested prefix of a leaf, centered on the seed edge."""

    seed: LeafSeed
    depth: int
    word: str
    center: int
    truncated: bool

    @property
    def block(self) -> int:
        return self.seed.block

    def spelled(self, radius: int | None = None) -> str:
        """The prefix with the center edge fenced off, optionally windowed."""
        lo, hi = 0, len(self.word)
        if radius is not None:
            lo = max(0, self.center - radius)
            hi = min(len(self.word), self.center + radius + 1)
        w = self.word
        c = self.center
        return w[lo:c] + "|" + w[c] + "|" + w[c + 1 : hi]

    def centered_slice(self, size: int) -> str:
        """``size`` letters around the center, the whole word if shorter."""
        lo = max(0, min(self.center - size // 2, len(self.word) - size))
        return self.word[lo : lo + size]


def find_eigen_seed(tt: TrainTrackData, block: int | None = None) -> LeafSeed:
    """Smallest power of the map under which some edge triples itself.

    Edge images of a train track never cancel, so tau^p(e) crosses e forward
    (B^p)_ee times and has (B^p)_e . 1 letters, where B counts the oriented
    edges in each oriented edge's image.  Powers run over multiples of the
    cyclic index (other powers send a block elsewhere) and, per power, edges
    in block order; the seed is the first edge with (B^p)_ee >= 3.  No cap
    is needed: A^k is block diagonal with primitive blocks on an expanding
    train track, so some diagonal entry grows without bound.  The search
    stops at ``DEFAULT_WORD_BUDGET`` instead, before its integers outgrow the
    words it stands for.  Only the seed's word is built; the middle
    crossing anchors leaf expansion.
    """
    tt.require("leaf")
    gmap = tt.gmap
    k = tt.pf.k
    candidates = [(e, b) for b in (range(k) if block is None else [block]) for e in tt.pf.blocks[b]]
    dirs = gmap.graph.letters + gmap.graph.letters.upper()
    # row i counts the directions crossed by the image of dirs[i], as exact Python integers
    oriented = [letter_counts(gmap.image_of_letter(d), gmap.graph.edge_pairs).ravel().tolist() for d in dirs]
    step = np.linalg.matrix_power(np.array(oriented, dtype=object), k)
    rows = [dirs.index(e) for e, _ in candidates]
    counts = np.identity(len(dirs), dtype=object)[rows]
    power = 0
    while True:
        counts = counts @ step
        power += k
        hits = [j for j, i in enumerate(rows) if counts[j, i] >= 3]
        # Row sums are image lengths, which never shrink: once the shortest
        # candidate image is over the budget, so is every later seed.
        sums = counts.sum(axis=1)
        j = hits[0] if hits else min(range(len(rows)), key=sums.__getitem__)
        edge, b = candidates[j]
        if sums[j] > DEFAULT_WORD_BUDGET:
            raise BudgetExceededError(
                f"image of {edge!r} under power {power} has {sums[j]} letters, over the budget {DEFAULT_WORD_BUDGET}",
                m_reached=power,
                partial=edge,
            )
        if hits:
            break
    word = edge
    for _ in range(power):
        word = gmap.substitute(word)
    occs = tuple(i for i, ch in enumerate(word) if ch == edge)
    return LeafSeed(edge=edge, power=power, anchor=occs[len(occs) // 2], block=b, occurrences=occs)


def expand_leaf(
    tt: TrainTrackData,
    seed: LeafSeed,
    depth: int,
    budget: int = DEFAULT_WORD_BUDGET,
) -> LeafPrefix:
    """Grow a leaf prefix by re-substituting depth times around the anchor.

    Each step replaces the word by its image under tau^power and re-centers
    on the seed edge carried by the anchored occurrence.  No tightening is
    needed: images of legal paths stay reduced, so tau^power's letter table
    is power - 1 plain substitutions of the edge images.  When the next step
    would exceed the budget (the word's length times the longest letter
    image), the word keeps ``budget // (2 growth)`` letters each side of the
    center, which preserves nesting on the surviving window.  The image's
    cumulative letter lengths place that window on the source letters that
    cover it, and only those are substituted; the last step builds its
    whole image.
    """
    if budget < 1:
        raise InputError(f"leaf budget must be >= 1, got {budget}")
    images = tt.gmap.edge_images
    for _ in range(seed.power - 1):
        images = tuple(tt.gmap.substitute(w) for w in images)
    table = signed_substitution(images)[1]
    growth = table.max_growth
    half = max(1, budget // (2 * growth))
    word, center = seed.edge, 0
    # a one-letter word over the budget is trimmed to itself, and flagged
    truncated = depth > 0 and growth > budget
    for step in range(depth):
        ends = np.cumsum(table.letter_lengths(word))
        center = (int(ends[center - 1]) if center else 0) + seed.anchor
        lo, hi = 0, int(ends[-1])
        if step < depth - 1 and hi * growth > budget:
            lo, hi = max(0, center - half), min(hi, center + half + 1)
            truncated = True
        first, last = np.searchsorted(ends, (lo, hi - 1), side="right")
        skipped = int(ends[first - 1]) if first else 0
        word = table(word[first : last + 1])[lo - skipped : hi - skipped]
        center -= lo
        if word[center] != seed.edge:
            raise InternalConsistencyError(
                "anchored occurrence drifted during leaf expansion"
            )
    return LeafPrefix(seed=seed, depth=depth, word=word, center=center, truncated=truncated)


def leaf_contains(prefix: LeafPrefix, segment: str) -> bool:
    """Whether the segment (either orientation) sits inside the prefix."""
    if not segment:
        return True
    return segment in prefix.word or invert_word(segment) in prefix.word


@dataclass
class LeafCorpus:
    """One leaf prefix per cyclic block, with lazy matching automata that
    keep the runs they have matched for the life of the corpus.

    Each automaton reads the ``LEAF_SLICE`` letters around its prefix's
    center until :meth:`widen` moves every block to ``MATCH_CAP`` letters;
    a match in any slice is a leaf segment."""

    tt: TrainTrackData
    prefixes: tuple
    depth: int

    def __post_init__(self):
        self._automata = {}
        self.slice = LEAF_SLICE

    @property
    def k(self) -> int:
        return len(self.prefixes)

    def sigma(self, block: int) -> int:
        """Index of the block the map sends this block's leaves into."""
        return (block + 1) % self.k

    def automaton(self, block: int):
        if block not in self._automata:
            self._automata[block] = _SuffixAutomaton(self.prefixes[block].centered_slice(self.slice))
        return self._automata[block]

    def widen(self) -> bool:
        """Drop the automata, to be rebuilt on ``MATCH_CAP``-letter slices:
        True the first time, if some prefix is longer than ``LEAF_SLICE``."""
        if self.slice == MATCH_CAP or all(len(p.word) <= LEAF_SLICE for p in self.prefixes):
            return False
        self.slice = MATCH_CAP
        self._automata.clear()
        return True

    def contains(self, segment: str) -> int | None:
        """Block index of a prefix containing the segment, or None."""
        for i, prefix in enumerate(self.prefixes):
            if leaf_contains(prefix, segment):
                return i
        return None


def build_leaf_corpus(
    tt: TrainTrackData,
    depth: int = LEAF_DEPTH,
    budget: int = LEAF_BUDGET,
) -> LeafCorpus:
    """One expanded leaf prefix for each cyclic block."""
    if depth < 0:
        raise InputError(f"leaf depth must be >= 0, got {depth}")
    tt.require("leaf")
    prefixes = []
    for block in range(tt.pf.k):
        seed = find_eigen_seed(tt, block=block)
        prefixes.append(expand_leaf(tt, seed, depth=depth, budget=budget))
    return LeafCorpus(tt=tt, prefixes=tuple(prefixes), depth=depth)


def _occurrence_mask(codes: np.ndarray, pattern: str) -> np.ndarray:
    """Where the pattern starts in the text's ASCII codes, overlaps included,
    one numpy pass per pattern letter.  A non-ASCII letter reads as '?',
    which no leaf edge is."""
    mask = np.ones(max(len(codes) - len(pattern) + 1, 0), dtype=bool)
    for j, pc in enumerate(pattern.encode("ascii", "replace")):
        mask &= codes[j : j + len(mask)] == pc
    return mask


@dataclass
class WindowCertificate:
    """Quasiperiodicity witness: every window of length L meets the segment."""

    segment: str
    window: int
    status: str  # "certified" or "degenerate"
    occurrences: int
    prefix_length: int

    @property
    def certified(self) -> bool:
        return self.status == "certified"


def quasiperiodicity_window(prefix: LeafPrefix, segment: str) -> WindowCertificate:
    """Smallest L such that every length-L window of the prefix contains the
    segment in some orientation.

    With occurrence starts p_0 < ... < p_r of width w in a prefix of length
    n, a window length L works iff p_0 + w <= L, consecutive gaps satisfy
    p_{j+1} + w <= p_j + 1 + L, and p_r >= n - L.  These are three lower
    bounds on L, so the least L is their maximum; L = n (the whole prefix)
    is reported as degenerate rather than a certificate.  The starts of both
    orientations come from one mask, sorted and each counted once, also for
    a self-inverse segment.
    """
    if not segment:
        raise NotALeafSegmentError("empty segment")
    word = prefix.word
    n = len(word)
    w = len(segment)
    codes = np.frombuffer(word.encode("ascii"), dtype=np.uint8)
    starts = np.flatnonzero(_occurrence_mask(codes, segment) | _occurrence_mask(codes, invert_word(segment)))
    if starts.size == 0:
        raise NotALeafSegmentError(
            f"segment of length {w} does not occur in the depth-{prefix.depth} prefix"
        )
    gap = int(np.diff(starts).max(initial=1))  # a lone start: gap bound w, under p_0 + w
    window = min(n, max(int(starts[0]) + w, gap - 1 + w, n - int(starts[-1])))
    return WindowCertificate(
        segment=segment,
        window=window,
        status="certified" if window < n else "degenerate",
        occurrences=int(starts.size),
        prefix_length=n,
    )


class _SuffixAutomaton:
    """Suffix automaton over a fixed text, for matching statistics.

    matching_statistics(q)[i] is the length of the longest suffix of
    q[: i + 1] occurring in the text, i.e. the longest match ending at i.
    A letter missing from the text resets the match to 0, so ``live``, the
    text's letters as a character class, splits a query into runs that
    match independently of each other.
    """

    __slots__ = ("next", "link", "length", "live", "runs")

    def __init__(self, text: str):
        self.next = [{}]
        self.link = [-1]
        self.length = [0]
        last = 0
        for ch in text:
            cur = len(self.next)
            self.next.append({})
            self.link.append(-1)
            self.length.append(self.length[last] + 1)
            p = last
            while p != -1 and ch not in self.next[p]:
                self.next[p][ch] = cur
                p = self.link[p]
            if p == -1:
                self.link[cur] = 0
            else:
                q = self.next[p][ch]
                if self.length[p] + 1 == self.length[q]:
                    self.link[cur] = q
                else:
                    clone = len(self.next)
                    self.next.append(dict(self.next[q]))
                    self.link.append(self.link[q])
                    self.length.append(self.length[p] + 1)
                    while p != -1 and self.next[p].get(ch) == q:
                        self.next[p][ch] = clone
                        p = self.link[p]
                    self.link[q] = clone
                    self.link[cur] = clone
            last = cur
        letters = re.escape("".join(sorted(set(text))))
        self.live = re.compile(f"[{letters}]+" if letters else "(?!)")
        self.runs = {}

    def matching_statistics(self, query: str) -> np.ndarray:
        ms = np.zeros(len(query), dtype=np.int64)
        state = 0
        length = 0
        for i, ch in enumerate(query):
            while state != -1 and ch not in self.next[state]:
                state = self.link[state]
                length = self.length[state] if state != -1 else 0
            if state == -1:
                state = 0
                length = 0
            else:
                state = self.next[state][ch]
                length += 1
            ms[i] = length
        return ms

    def chains(self, run: str) -> tuple:
        """(start, first end, last end) of each maximal stretch of a live
        run's end positions whose longest match starts at the same place,
        computed once per distinct run."""
        chains = self.runs.get(run)
        if chains is None:
            found = []
            for end, length in enumerate(self.matching_statistics(run).tolist()):
                start = end + 1 - length
                if found and found[-1][0] == start:
                    found[-1][2] = end
                else:
                    found.append([start, end, end])
            chains = self.runs[run] = tuple(map(tuple, found))
        return chains


@dataclass
class LeafMatch:
    """Heaviest leaf segment (in the eigenmetric) found inside a cyclic word."""

    block: int | None
    length: float
    edge_count: int
    segment: str


def longest_leaf_segment(word: str, corpus: LeafCorpus) -> LeafMatch:
    """Heaviest subword, in the corpus's eigenmetric, of the doubled cyclic
    word that is a leaf segment of some block, in either orientation.

    Matching statistics against each block's automaton give, for every end
    position, the longest leaf match ending there; the metric weight of each
    match comes from prefix sums, and matches are capped at the period so a
    segment never wraps more than once around the loop.  Only the block's
    live runs can match, and a run shorter than the period never reaches
    the cap, so such runs are matched once per distinct run and read at the
    last end of each chain of matches sharing a start: weights are positive,
    so no earlier end of the chain is heavier.  A word live all the way
    round is one run past the period and takes the capped scan of every end.
    """
    best = LeafMatch(block=None, length=0.0, edge_count=0, segment="")
    if not word:
        return best
    period = len(word)
    for oriented in (word, invert_word(word)):
        doubled = oriented + oriented
        pre = None
        for block in range(corpus.k):
            automaton = corpus.automaton(block)
            runs = [(m.start(), m.group()) for m in automaton.live.finditer(doubled)]
            if not runs:
                continue
            if pre is None:
                codes = np.frombuffer(doubled.encode("ascii"), dtype=np.uint8)
                pre = list(accumulate(corpus.tt.metric.table[codes].tolist(), initial=0.0))  # np.cumsum's order
            if len(runs[0][1]) > period:
                ms = np.minimum(automaton.matching_statistics(doubled), period)
                ends = np.arange(1, len(doubled) + 1)
                sums = np.asarray(pre)
                vals = sums[ends] - sums[ends - ms]
                i = int(np.argmax(vals))
                value, l = float(vals[i]), int(ms[i])
            else:
                value = -1.0
                for offset, run in runs:
                    for start, first, last in automaton.chains(run):
                        v = pre[offset + last + 1] - pre[offset + start]
                        if v > value:
                            value, chain = v, (offset + start, offset + first, offset + last)
                # the first end of the chain as heavy as its last, as argmax reads it
                start, first, i = chain
                while i > first and pre[i] - pre[start] == value:
                    i -= 1
                l = i + 1 - start
            if value > best.length + 1e-15:
                best = LeafMatch(block=block, length=value, edge_count=l, segment=doubled[i + 1 - l : i + 1])
    return best


@dataclass
class ProbeReport:
    """Where the certificate walk of :func:`weak_limit_probe` stopped: at
    stride position ``m``, for the reason ``stop`` (``certified``,
    ``periodic`` or ``uncertified``), with ``match`` the heaviest leaf match
    read up to m, the certifying one when certified."""

    word: str
    verdict: bool
    m: int
    match: float
    stop: str


def weak_limit_probe(auto, word: str, corpus: LeafCorpus, orbit=None) -> ProbeReport:
    """Does the orbit of the word weakly limit to the attracting lamination?

    Walks the stride-k positions m = 0, k, 2k, ... of the orbit and stops at
    the first of these:

    * certified (True): psi^m(word) has a leaf segment of eigenmetric length
      >= 2R, ``TrainTrackData.critical_length``.  A leaf segment is legal,
      and a legal segment that long grows under iteration and persists in
      every later iterate (Bestvina-Feighn-Handel 1997), so the orbit
      carries ever-longer leaf segments.  Words shorter than 2R are not
      matched.
    * periodic (False): psi^m(word) is a rotation of an earlier stride word.
    * uncertified (False): the first word over ``MATCH_CAP`` letters or
      over the orbit's budget, or m past 2 log(MATCH_CAP) / log(lam), the
      steps in which lam^m passes MATCH_CAP^2, so that no slowly growing
      orbit walks on unbounded.  The first uncertified walk on a corpus
      widens its automata (:meth:`LeafCorpus.widen`) and walks once more.
    """
    from .limits import CyclicOrbit

    tt, k = corpus.tt, corpus.k
    orbit = orbit or CyclicOrbit(auto, word, tt=tt)
    critical, horizon = tt.critical_length, 2 * math.log(MATCH_CAP) / math.log(tt.pf.lam)
    strided: dict = {}  # length -> stride words of that length
    best = 0.0
    for m in count(0, k):
        if m > horizon or (w := orbit.word_at(m)) is None or len(w) > MATCH_CAP:
            break
        if any(w in v + v for v in strided.get(len(w), ())):
            return ProbeReport(word=word, verdict=False, m=m, match=best, stop="periodic")
        strided.setdefault(len(w), []).append(w)
        if path_length(w, tt.metric) >= critical:
            best = max(best, longest_leaf_segment(w, corpus).length)
            if best >= critical:
                return ProbeReport(word=word, verdict=True, m=m, match=best, stop="certified")
    if corpus.widen():
        return weak_limit_probe(auto, word, corpus, orbit)
    return ProbeReport(word=word, verdict=False, m=m, match=best, stop="uncertified")
