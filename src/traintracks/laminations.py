"""Attracting-lamination leaves: nested prefixes and segment queries.

A leaf is grown from an edge e that reappears inside its own image under a
suitable power of the map: re-substituting around the recurrent occurrence
produces an increasing sequence of nested subpaths whose union is a leaf of
the attracting lamination.  Prefixes are stored as plain words together
with the index of the anchoring occurrence of the seed edge, so nesting can
be checked literally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import BudgetExceededError, InputError, InternalConsistencyError, NotALeafSegmentError
from .spectral import TrainTrackData
from .words import DEFAULT_WORD_BUDGET, canonical_rotation, invert_word, letter_counts

# Orbit horizon of the leaf probe; the equivalence sweep retries a lone
# dissenting probe at 2x and 4x this horizon.
PROBE_M = 12
# Letters of each leaf prefix, around its center, that leaf matching searches.
MATCH_CAP = 30_000


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
        half = size // 2
        lo = max(0, self.center - half)
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
    needed: images of legal paths stay reduced.  When the next step would
    exceed the budget the word is first trimmed symmetrically around the
    center, which preserves nesting on the surviving window.
    """
    if budget < 1:
        raise InputError(f"leaf budget must be >= 1, got {budget}")
    gmap = tt.gmap
    step = gmap
    for _ in range(seed.power - 1):
        step = gmap.compose(step)
    word = seed.edge
    center = 0
    truncated = False
    growth = step._subst.max_growth
    for _ in range(depth):
        if len(word) * growth > budget:
            half = max(1, budget // (2 * growth))
            lo = max(0, center - half)
            hi = min(len(word), center + half + 1)
            word = word[lo:hi]
            center -= lo
            truncated = True
        prefix_len = step._subst.output_length(word[:center])
        word = step.substitute(word)
        center = prefix_len + seed.anchor
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
    keep the runs they have matched for the life of the corpus."""

    tt: TrainTrackData
    prefixes: tuple
    depth: int

    def __post_init__(self):
        self._automata = {}
        self._matches = {}

    @property
    def k(self) -> int:
        return len(self.prefixes)

    def sigma(self, block: int) -> int:
        """Index of the block the map sends this block's leaves into."""
        return (block + 1) % self.k

    def automaton(self, block: int):
        if block not in self._automata:
            self._automata[block] = _SuffixAutomaton(self.prefixes[block].centered_slice(MATCH_CAP))
        return self._automata[block]

    def match_length(self, word: str) -> float:
        """Eigenmetric length of the heaviest leaf segment of a cyclically
        reduced word, matched once per class in the lesser canonical rotation
        of the word and its inverse and stored under both."""
        key = canonical_rotation(word)
        if key not in self._matches:
            inverse = canonical_rotation(invert_word(word))
            if inverse not in self._matches:
                self._matches[inverse] = longest_leaf_segment(min(key, inverse), self).length
            self._matches[key] = self._matches[inverse]
        return self._matches[key]

    def contains(self, segment: str) -> int | None:
        """Block index of a prefix containing the segment, or None."""
        for i, prefix in enumerate(self.prefixes):
            if leaf_contains(prefix, segment):
                return i
        return None


def build_leaf_corpus(
    tt: TrainTrackData,
    depth: int = 12,
    budget: int = DEFAULT_WORD_BUDGET,
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
    """Growth of the heaviest leaf segment along the orbit of a word: the
    stride-k series' length and its two quartiles, the only lengths matched."""

    word: str
    head: tuple
    tail: tuple
    positions: int
    k: int
    verdict: bool


def weak_limit_probe(
    auto,
    word: str,
    corpus: LeafCorpus,
    M: int = PROBE_M,
    orbit=None,
) -> ProbeReport:
    """Does the orbit of the word sweep out ever-longer leaf segments?

    Tracks the heaviest leaf segment of psi^m(word), in the corpus's own
    eigenmetric, along the stride-k positions m = 0, k, 2k, ... <= M and
    judges that series: verdict True iff its last quartile is strictly
    increasing and exceeds three times the first quartile's maximum.
    Exponentially growing classes shadow leaves, so their segment lengths
    blow up; bounded or polynomial classes stall.  The series ends before
    the first orbit word longer than ``MATCH_CAP``: the matcher only
    searches a ``MATCH_CAP``-letter slice of each leaf, so longer words
    would stall for want of leaf, not of growth.  Every orbit word is built
    and measured to find that end, but only the two quartiles are matched,
    with :meth:`LeafCorpus.match_length`, once per class; a series shorter
    than two quartiles is False with nothing matched.
    """
    from .limits import CyclicOrbit

    if orbit is None:
        orbit = CyclicOrbit(auto, word)
    k, stop = corpus.k, M + 1
    for m in range(M + 1):
        w = orbit.word_at(m)
        if w is None or len(w) > MATCH_CAP:
            stop = m
            break
    positions = len(range(0, stop, k))
    q = max(2, positions // 4)
    if positions < 2 * q:
        return ProbeReport(word=word, head=(), tail=(), positions=positions, k=k, verdict=False)
    head, tail = (
        tuple(corpus.match_length(orbit.word_at(i * k)) for i in span)
        for span in (range(q), range(positions - q, positions))
    )
    increasing = all(b > a for a, b in zip(tail, tail[1:]))
    verdict = bool(increasing and min(tail) > 3 * max(head) and min(tail) > 0)
    return ProbeReport(word=word, head=head, tail=tail, positions=positions, k=k, verdict=verdict)
